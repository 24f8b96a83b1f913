//! Generic edges: the variable-erased normal form of a pattern edge.
//!
//! The paper's indexes (the trie forest of TRIC and the inverted indexes of
//! the baselines) substitute every query variable with the generic marker
//! `?var` so that structurally identical pattern edges of different queries
//! share an index entry (Section 4.1, "Variable Handling"). A self-loop on a
//! single variable (`?x -knows-> ?x`) is *not* the same constraint as two
//! distinct variables (`?x -knows-> ?y`), so the normal form keeps an explicit
//! "both endpoints are the same variable" flag.

use crate::interner::Sym;
use crate::memory::HeapSize;
use crate::model::term::{PatternEdge, Term};
use crate::model::update::Update;

/// A vertex position of a [`GenericEdge`]: either a concrete constant or the
/// generic variable marker `?var`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GenTerm {
    /// A concrete vertex identity that the update must match exactly.
    Const(Sym),
    /// Any vertex (the `?var` marker).
    Any,
}

impl GenTerm {
    /// Whether a concrete data vertex satisfies this position.
    #[inline]
    pub fn admits(&self, vertex: Sym) -> bool {
        match self {
            GenTerm::Const(s) => *s == vertex,
            GenTerm::Any => true,
        }
    }
}

impl HeapSize for GenTerm {
    fn heap_size(&self) -> usize {
        0
    }
}

/// The variable-erased form of a pattern edge, used as the key of every
/// index structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GenericEdge {
    /// Edge label.
    pub label: Sym,
    /// Source position.
    pub src: GenTerm,
    /// Target position.
    pub tgt: GenTerm,
    /// True iff both endpoints are variables *and* the same variable
    /// (a variable self-loop such as `?x -follows-> ?x`).
    pub same_var: bool,
}

impl GenericEdge {
    /// Normalises a pattern edge.
    pub fn from_pattern(edge: &PatternEdge) -> Self {
        let same_var = match (edge.src, edge.tgt) {
            (Term::Var(a), Term::Var(b)) => a == b,
            _ => false,
        };
        let gen = |t: Term| match t {
            Term::Const(s) => GenTerm::Const(s),
            Term::Var(_) => GenTerm::Any,
        };
        GenericEdge {
            label: edge.label,
            src: gen(edge.src),
            tgt: gen(edge.tgt),
            same_var,
        }
    }

    /// True if the incoming update satisfies this generic edge.
    pub fn matches(&self, u: &Update) -> bool {
        if self.label != u.label {
            return false;
        }
        if !self.src.admits(u.src) || !self.tgt.admits(u.tgt) {
            return false;
        }
        if self.same_var && u.src != u.tgt {
            return false;
        }
        true
    }

    /// Enumerates every generic-edge shape an update can match, without
    /// allocating.
    ///
    /// An update `l = (s, t)` can be indexed under at most five shapes:
    /// `(s, t)`, `(s, ?var)`, `(?var, t)`, `(?var, ?var)` and — only when
    /// `s == t` — the self-loop shape. Index lookups therefore cost O(1)
    /// hash probes per update, independent of the query database size.
    pub fn shapes_of_update(u: &Update) -> impl Iterator<Item = GenericEdge> {
        let shape = |src, tgt, same_var| GenericEdge {
            label: u.label,
            src,
            tgt,
            same_var,
        };
        let (s, t) = (GenTerm::Const(u.src), GenTerm::Const(u.tgt));
        let shapes = [
            shape(s, t, false),
            shape(s, GenTerm::Any, false),
            shape(GenTerm::Any, t, false),
            shape(GenTerm::Any, GenTerm::Any, false),
            shape(GenTerm::Any, GenTerm::Any, true),
        ];
        shapes.into_iter().take(if u.src == u.tgt { 5 } else { 4 })
    }
}

impl HeapSize for GenericEdge {
    fn heap_size(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe(label: u32, src: Term, tgt: Term) -> PatternEdge {
        PatternEdge::new(Sym(label), src, tgt)
    }

    #[test]
    fn normalisation_erases_variable_names() {
        let a = GenericEdge::from_pattern(&pe(0, Term::Var(0), Term::Var(1)));
        let b = GenericEdge::from_pattern(&pe(0, Term::Var(7), Term::Var(9)));
        assert_eq!(a, b);
        assert!(!a.same_var);
    }

    #[test]
    fn self_loop_variable_is_distinguished() {
        let loop_edge = GenericEdge::from_pattern(&pe(0, Term::Var(3), Term::Var(3)));
        let open_edge = GenericEdge::from_pattern(&pe(0, Term::Var(3), Term::Var(4)));
        assert_ne!(loop_edge, open_edge);
        assert!(loop_edge.same_var);
    }

    #[test]
    fn constants_are_kept() {
        let e = GenericEdge::from_pattern(&pe(2, Term::Var(0), Term::Const(Sym(42))));
        assert_eq!(e.src, GenTerm::Any);
        assert_eq!(e.tgt, GenTerm::Const(Sym(42)));
    }

    #[test]
    fn matching_respects_label_and_constants() {
        let e = GenericEdge::from_pattern(&pe(2, Term::Var(0), Term::Const(Sym(42))));
        assert!(e.matches(&Update::new(Sym(2), Sym(7), Sym(42))));
        assert!(!e.matches(&Update::new(Sym(2), Sym(7), Sym(43))));
        assert!(!e.matches(&Update::new(Sym(3), Sym(7), Sym(42))));
    }

    #[test]
    fn matching_respects_self_loop() {
        let e = GenericEdge::from_pattern(&pe(0, Term::Var(1), Term::Var(1)));
        assert!(e.matches(&Update::new(Sym(0), Sym(5), Sym(5))));
        assert!(!e.matches(&Update::new(Sym(0), Sym(5), Sym(6))));
    }

    #[test]
    fn shapes_enumeration_covers_all_matching_shapes() {
        let u = Update::new(Sym(1), Sym(10), Sym(11));
        let shapes: Vec<GenericEdge> = GenericEdge::shapes_of_update(&u).collect();
        assert_eq!(shapes.len(), 4);
        for s in &shapes {
            assert!(s.matches(&u), "{s:?} should match its own update");
        }

        let loop_u = Update::new(Sym(1), Sym(10), Sym(10));
        let shapes: Vec<GenericEdge> = GenericEdge::shapes_of_update(&loop_u).collect();
        assert_eq!(shapes.len(), 5);
        assert!(shapes.iter().any(|s| s.same_var));
    }

    #[test]
    fn every_pattern_shape_matching_an_update_is_enumerated() {
        // Exhaustive check over all pattern-edge shapes on a tiny alphabet.
        let u = Update::new(Sym(0), Sym(1), Sym(1));
        let terms = [
            Term::Var(0),
            Term::Var(1),
            Term::Const(Sym(1)),
            Term::Const(Sym(2)),
        ];
        let shapes: Vec<GenericEdge> = GenericEdge::shapes_of_update(&u).collect();
        for &s in &terms {
            for &t in &terms {
                let ge = GenericEdge::from_pattern(&pe(0, s, t));
                if ge.matches(&u) {
                    assert!(
                        shapes.contains(&ge),
                        "matching shape {ge:?} missing from enumeration"
                    );
                }
            }
        }
    }
}

//! Backtracking sub-graph (homomorphism) matching against the store.
//!
//! This is the execution engine behind the graph-database baseline: given a
//! query pattern, an execution plan and the store, it enumerates every
//! assignment of query vertices to data vertices under which all pattern
//! edges exist. When anchored at a freshly inserted edge it only enumerates
//! embeddings that use that edge at the anchored position, which is how the
//! continuous adapter derives *new* embeddings.

use std::collections::HashSet;

use gsm_core::interner::Sym;
use gsm_core::model::term::Term;
use gsm_core::model::update::Update;
use gsm_core::query::pattern::QueryPattern;

use crate::plan::QueryPlan;
use crate::store::GraphStore;

/// Collects distinct embeddings (assignments of all query vertices).
#[derive(Debug, Default)]
pub struct MatchCollector {
    /// Distinct embeddings found so far (vertex assignments in vertex-id order).
    pub embeddings: HashSet<Vec<Sym>>,
}

impl MatchCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct embeddings collected.
    pub fn len(&self) -> usize {
        self.embeddings.len()
    }

    /// True if no embedding was collected.
    pub fn is_empty(&self) -> bool {
        self.embeddings.is_empty()
    }
}

/// Executes `plan` for `query` against `store`, collecting embeddings into
/// `collector`. When `anchor` is given as `(edge_idx, update)`, the pattern
/// edge `edge_idx` is bound to the concrete update before the search starts,
/// so only embeddings using that edge at that position are produced.
pub fn execute(
    query: &QueryPattern,
    plan: &QueryPlan,
    store: &GraphStore,
    anchor: Option<(usize, Update)>,
    collector: &mut MatchCollector,
) {
    let n = query.num_vertices();
    let mut bindings: Vec<Option<Sym>> = vec![None; n];

    // Constants are bound up front.
    for (vid, term) in query.vertices().iter().enumerate() {
        if let Term::Const(c) = term {
            bindings[vid] = Some(*c);
        }
    }

    let mut order = plan.edge_order.clone();
    if let Some((anchor_edge, update)) = anchor {
        // Bind the anchored edge's endpoints to the update; bail out if a
        // constant endpoint disagrees with the update.
        let e = &query.edges()[anchor_edge];
        if e.label != update.label {
            return;
        }
        let (sv, tv) = query.edge_endpoints(anchor_edge);
        if let Some(existing) = bindings[sv] {
            if existing != update.src {
                return;
            }
        }
        if let Some(existing) = bindings[tv] {
            if existing != update.tgt {
                return;
            }
        }
        bindings[sv] = Some(update.src);
        bindings[tv] = Some(update.tgt);
        if sv == tv && update.src != update.tgt {
            return;
        }
        // Move the anchored edge to the front of the order (it is already
        // satisfied, but keeping it lets the generic code double-check it).
        order.retain(|&x| x != anchor_edge);
        order.insert(0, anchor_edge);
    }

    backtrack(query, store, &order, 0, &mut bindings, collector);
}

fn backtrack(
    query: &QueryPattern,
    store: &GraphStore,
    order: &[usize],
    depth: usize,
    bindings: &mut Vec<Option<Sym>>,
    collector: &mut MatchCollector,
) {
    if depth == order.len() {
        let embedding: Vec<Sym> = bindings.iter().map(|b| b.expect("complete")).collect();
        collector.embeddings.insert(embedding);
        return;
    }
    let edge_idx = order[depth];
    let label = query.edges()[edge_idx].label;
    let (sv, tv) = query.edge_endpoints(edge_idx);

    match (bindings[sv], bindings[tv]) {
        (Some(s), Some(t)) => {
            if store.has_edge(label, s, t) {
                backtrack(query, store, order, depth + 1, bindings, collector);
            }
        }
        (Some(s), None) => {
            // Candidate targets: `s`'s out-adjacency under the label. The
            // slice borrows the store immutably, so recursing over it is
            // fine.
            for &t in store.targets(label, s) {
                bindings[tv] = Some(t);
                backtrack(query, store, order, depth + 1, bindings, collector);
            }
            bindings[tv] = None;
        }
        (None, Some(t)) => {
            // Symmetric: `t`'s in-adjacency under the label.
            for &s in store.sources(label, t) {
                bindings[sv] = Some(s);
                backtrack(query, store, order, depth + 1, bindings, collector);
            }
            bindings[sv] = None;
        }
        (None, None) => {
            // Disconnected start (only possible for the very first edge of an
            // un-anchored plan): scan the label's edges. A self-loop pattern
            // edge binds one vertex, so it matches loops only.
            for (s, t) in store.label_edges(label) {
                if sv == tv && s != t {
                    continue;
                }
                bindings[sv] = Some(s);
                bindings[tv] = Some(t);
                backtrack(query, store, order, depth + 1, bindings, collector);
            }
            bindings[sv] = None;
            bindings[tv] = None;
        }
    }
}

/// Convenience wrapper: count all embeddings of `query` in `store`
/// (un-anchored, fresh greedy plan). Used by tests as a reference oracle.
pub fn count_embeddings(query: &QueryPattern, store: &GraphStore) -> usize {
    let plan = QueryPlan::build(query, store, None);
    let mut collector = MatchCollector::new();
    execute(query, &plan, store, None, &mut collector);
    collector.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsm_core::interner::SymbolTable;

    struct Fixture {
        symbols: SymbolTable,
        store: GraphStore,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                symbols: SymbolTable::new(),
                store: GraphStore::new(),
            }
        }
        fn q(&mut self, text: &str) -> QueryPattern {
            QueryPattern::parse(text, &mut self.symbols).unwrap()
        }
        fn edge(&mut self, label: &str, src: &str, tgt: &str) {
            let u = Update::new(
                self.symbols.intern(label),
                self.symbols.intern(src),
                self.symbols.intern(tgt),
            );
            self.store.insert_edge(u);
        }
    }

    #[test]
    fn single_edge_pattern_counts_matching_edges() {
        let mut f = Fixture::new();
        let q = f.q("?a -knows-> ?b");
        f.edge("knows", "a", "b");
        f.edge("knows", "b", "c");
        f.edge("likes", "a", "b");
        assert_eq!(count_embeddings(&q, &f.store), 2);
    }

    #[test]
    fn chain_pattern_joins_edges() {
        let mut f = Fixture::new();
        let q = f.q("?a -x-> ?b; ?b -y-> ?c");
        f.edge("x", "1", "2");
        f.edge("y", "2", "3");
        f.edge("y", "2", "4");
        f.edge("x", "9", "8");
        assert_eq!(count_embeddings(&q, &f.store), 2);
    }

    #[test]
    fn constants_restrict_matches() {
        let mut f = Fixture::new();
        let q = f.q("?p -checksIn-> rio");
        f.edge("checksIn", "ann", "rio");
        f.edge("checksIn", "bob", "oslo");
        assert_eq!(count_embeddings(&q, &f.store), 1);
    }

    #[test]
    fn cycle_requires_closure() {
        let mut f = Fixture::new();
        let q = f.q("?a -x-> ?b; ?b -y-> ?c; ?c -z-> ?a");
        f.edge("x", "1", "2");
        f.edge("y", "2", "3");
        f.edge("z", "3", "9");
        assert_eq!(count_embeddings(&q, &f.store), 0);
        f.edge("z", "3", "1");
        assert_eq!(count_embeddings(&q, &f.store), 1);
    }

    #[test]
    fn homomorphism_allows_repeated_data_vertices() {
        let mut f = Fixture::new();
        // ?a and ?c may bind to the same data vertex (homomorphism semantics).
        let q = f.q("?a -x-> ?b; ?b -x-> ?c");
        f.edge("x", "1", "2");
        f.edge("x", "2", "1");
        assert_eq!(count_embeddings(&q, &f.store), 2);
    }

    #[test]
    fn self_loop_variable_matches_only_loops() {
        let mut f = Fixture::new();
        let q = f.q("?a -f-> ?a");
        f.edge("f", "1", "2");
        assert_eq!(count_embeddings(&q, &f.store), 0);
        f.edge("f", "3", "3");
        assert_eq!(count_embeddings(&q, &f.store), 1);
    }

    #[test]
    fn anchored_execution_only_returns_embeddings_using_the_anchor() {
        let mut f = Fixture::new();
        let q = f.q("?a -x-> ?b; ?b -y-> ?c");
        f.edge("x", "1", "2");
        f.edge("y", "2", "3");
        f.edge("x", "5", "6");
        f.edge("y", "6", "7");
        let x = f.symbols.intern("x");
        let anchor = Update::new(x, f.symbols.intern("1"), f.symbols.intern("2"));
        let plan = QueryPlan::build(&q, &f.store, Some(0));
        let mut collector = MatchCollector::new();
        execute(&q, &plan, &f.store, Some((0, anchor)), &mut collector);
        assert_eq!(collector.len(), 1);
    }

    #[test]
    fn anchored_execution_respects_constants() {
        let mut f = Fixture::new();
        let q = f.q("?p -checksIn-> rio");
        f.edge("checksIn", "ann", "oslo");
        let checks_in = f.symbols.intern("checksIn");
        let anchor = Update::new(checks_in, f.symbols.intern("ann"), f.symbols.intern("oslo"));
        let plan = QueryPlan::build(&q, &f.store, Some(0));
        let mut collector = MatchCollector::new();
        execute(&q, &plan, &f.store, Some((0, anchor)), &mut collector);
        assert!(collector.is_empty());
    }

    #[test]
    fn star_pattern_counts_products() {
        let mut f = Fixture::new();
        let q = f.q("?c -a-> ?x; ?c -b-> ?y");
        f.edge("a", "hub", "x1");
        f.edge("a", "hub", "x2");
        f.edge("b", "hub", "y1");
        f.edge("b", "hub", "y2");
        f.edge("b", "hub", "y3");
        assert_eq!(count_embeddings(&q, &f.store), 6);
    }
}

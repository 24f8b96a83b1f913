//! Graph updates and update streams (Definitions 3.2 and 3.3 of the paper).

use crate::interner::Sym;
use crate::memory::HeapSize;

/// A signed edge update `label = (src, tgt)` applied to the evolving graph:
/// an **addition** (the default, [`Update::new`]) or a **retraction**
/// ([`Update::retraction`]) that removes a previously added edge.
///
/// Following the paper, an addition both creates the edge and (implicitly)
/// any endpoint vertex that did not exist before. A retraction removes the
/// edge (vertices persist); retracting an absent edge is a no-op. Engines
/// that key collections by `Update` (edge sets, window maps) must key by the
/// sign-normalized [`edge`](Update::edge) form, since the derived `Hash`/
/// `Eq` distinguish the two signs of the same edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Update {
    /// Edge label.
    pub label: Sym,
    /// Source vertex identity.
    pub src: Sym,
    /// Target vertex identity.
    pub tgt: Sym,
    /// True for a retraction (the edge disappears), false for an addition.
    pub retract: bool,
}

impl Update {
    /// Creates a new edge-addition update.
    #[inline]
    pub fn new(label: Sym, src: Sym, tgt: Sym) -> Self {
        Self {
            label,
            src,
            tgt,
            retract: false,
        }
    }

    /// Creates a retraction of the edge `label = (src, tgt)`.
    #[inline]
    pub fn retraction(label: Sym, src: Sym, tgt: Sym) -> Self {
        Self {
            label,
            src,
            tgt,
            retract: true,
        }
    }

    /// True when this update removes its edge instead of adding it.
    #[inline]
    pub fn is_retraction(&self) -> bool {
        self.retract
    }

    /// The sign-normalized addition form of this update — the identity of
    /// the edge itself, usable as a set/map key regardless of sign.
    #[inline]
    pub fn edge(&self) -> Update {
        Update::new(self.label, self.src, self.tgt)
    }

    /// This update with the opposite sign (an addition becomes the matching
    /// retraction and vice versa).
    #[inline]
    pub fn inverted(&self) -> Update {
        Update {
            retract: !self.retract,
            ..*self
        }
    }
}

/// Splits a batch into maximal runs of same-signed updates, preserving
/// order: `[+a, +b, -c, +d]` yields `[+a, +b]`, `[-c]`, `[+d]`.
///
/// The pipelined executor stages a flush whole, mixed signs included; the
/// engines apply a batch run by run, so run splitting is the single place
/// where a mixed batch is decomposed.
pub fn sign_runs(batch: &[Update]) -> impl Iterator<Item = &[Update]> {
    batch.chunk_by(|a, b| a.retract == b.retract)
}

impl HeapSize for Update {
    fn heap_size(&self) -> usize {
        0
    }
}

/// An ordered sequence of updates — the graph stream `S = (u1, u2, …)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStream {
    updates: Vec<Update>,
}

impl GraphStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a stream from a vector of updates.
    pub fn from_updates(updates: Vec<Update>) -> Self {
        Self { updates }
    }

    /// Appends an update at the end of the stream.
    pub fn push(&mut self, update: Update) {
        self.updates.push(update);
    }

    /// Number of updates in the stream.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True if the stream holds no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Iterates over the updates in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Update> {
        self.updates.iter()
    }

    /// Borrow the updates as a slice.
    pub fn as_slice(&self) -> &[Update] {
        &self.updates
    }

    /// Truncate the stream to its first `n` updates.
    pub fn truncate(&mut self, n: usize) {
        self.updates.truncate(n);
    }

    /// Returns a clone of the first `n` updates as a new stream.
    pub fn prefix(&self, n: usize) -> GraphStream {
        GraphStream {
            updates: self.updates[..n.min(self.updates.len())].to_vec(),
        }
    }
}

impl IntoIterator for GraphStream {
    type Item = Update;
    type IntoIter = std::vec::IntoIter<Update>;

    fn into_iter(self) -> Self::IntoIter {
        self.updates.into_iter()
    }
}

impl<'a> IntoIterator for &'a GraphStream {
    type Item = &'a Update;
    type IntoIter = std::slice::Iter<'a, Update>;

    fn into_iter(self) -> Self::IntoIter {
        self.updates.iter()
    }
}

impl FromIterator<Update> for GraphStream {
    fn from_iter<T: IntoIterator<Item = Update>>(iter: T) -> Self {
        Self {
            updates: iter.into_iter().collect(),
        }
    }
}

impl HeapSize for GraphStream {
    fn heap_size(&self) -> usize {
        self.updates.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(l: u32, s: u32, t: u32) -> Update {
        Update::new(Sym(l), Sym(s), Sym(t))
    }

    #[test]
    fn retraction_sign_and_normalization() {
        let add = u(1, 2, 3);
        let del = Update::retraction(Sym(1), Sym(2), Sym(3));
        assert!(!add.is_retraction());
        assert!(del.is_retraction());
        assert_ne!(add, del, "signs are distinct update values");
        assert_eq!(del.edge(), add, "edge() strips the sign");
        assert_eq!(add.edge(), add);
        assert_eq!(add.inverted(), del);
        assert_eq!(del.inverted(), add);
    }

    #[test]
    fn sign_runs_split_on_sign_flips() {
        let batch = vec![u(0, 1, 2), u(0, 2, 3), u(0, 1, 2).inverted(), u(1, 3, 4)];
        let runs: Vec<&[Update]> = sign_runs(&batch).collect();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].len(), 2);
        assert!(runs[1][0].is_retraction() && runs[1].len() == 1);
        assert!(!runs[2][0].is_retraction() && runs[2].len() == 1);
        assert!(sign_runs(&[]).next().is_none());
    }

    #[test]
    fn stream_preserves_order() {
        let mut s = GraphStream::new();
        s.push(u(0, 1, 2));
        s.push(u(0, 2, 3));
        s.push(u(1, 3, 4));
        let labels: Vec<u32> = s.iter().map(|x| x.label.0).collect();
        assert_eq!(labels, vec![0, 0, 1]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn prefix_and_truncate() {
        let s: GraphStream = (0..10).map(|i| u(0, i, i + 1)).collect();
        let p = s.prefix(4);
        assert_eq!(p.len(), 4);
        let p_over = s.prefix(100);
        assert_eq!(p_over.len(), 10);
        let mut t = s.clone();
        t.truncate(2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn into_iterator_roundtrip() {
        let s: GraphStream = (0..5).map(|i| u(1, i, i)).collect();
        let collected: Vec<Update> = s.clone().into_iter().collect();
        assert_eq!(collected.len(), 5);
        assert_eq!(&collected[..], s.as_slice());
    }
}

//! A materialized attribute graph.
//!
//! Engines do **not** need the whole graph (the paper stresses that only the
//! materialized views relevant to the query database are retained); this
//! structure exists for workload generation (random walks over the generated
//! graph pick the query patterns) and for tests that want to inspect the
//! evolving graph. The graph-database baseline keeps its own store.

use std::collections::{HashMap, HashSet};

use crate::interner::Sym;
use crate::memory::HeapSize;
use crate::model::update::Update;

/// A directed labeled multigraph accumulated from edge-addition updates.
#[derive(Debug, Default, Clone)]
pub struct AttributeGraph {
    /// Outgoing adjacency: source → (label, target), duplicates removed.
    out: HashMap<Sym, Vec<(Sym, Sym)>>,
    /// Incoming adjacency: target → (label, source), duplicates removed.
    inc: HashMap<Sym, Vec<(Sym, Sym)>>,
    /// Set of distinct edges, used to de-duplicate repeated updates.
    edges: HashSet<Update>,
    /// Set of vertices.
    vertices: HashSet<Sym>,
}

impl AttributeGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a graph by replaying every update of a stream, sign-aware:
    /// insertions apply, retractions remove. The result is the from-scratch
    /// state of the surviving edge set.
    pub fn from_updates<'a, I: IntoIterator<Item = &'a Update>>(updates: I) -> Self {
        let mut g = Self::new();
        for u in updates {
            if u.is_retraction() {
                g.remove(*u);
            } else {
                g.apply(*u);
            }
        }
        g
    }

    /// Applies an edge addition. Returns `true` if the edge was new. The
    /// stored key is the sign-normalized [`Update::edge`] form, so additions
    /// and the retractions that later target them always agree.
    pub fn apply(&mut self, u: Update) -> bool {
        let u = u.edge();
        if !self.edges.insert(u) {
            return false;
        }
        self.vertices.insert(u.src);
        self.vertices.insert(u.tgt);
        self.out.entry(u.src).or_default().push((u.label, u.tgt));
        self.inc.entry(u.tgt).or_default().push((u.label, u.src));
        true
    }

    /// Removes the edge named by `u` (either sign — the lookup is
    /// sign-normalized). Returns `true` if the edge existed. The endpoint
    /// vertices persist: a retraction removes the edge only.
    pub fn remove(&mut self, u: Update) -> bool {
        let e = u.edge();
        if !self.edges.remove(&e) {
            return false;
        }
        if let Some(v) = self.out.get_mut(&e.src) {
            v.retain(|&(l, t)| !(l == e.label && t == e.tgt));
        }
        if let Some(v) = self.inc.get_mut(&e.tgt) {
            v.retain(|&(l, s)| !(l == e.label && s == e.src));
        }
        true
    }

    /// True if the exact edge exists.
    pub fn contains(&self, u: &Update) -> bool {
        self.edges.contains(u)
    }

    /// Number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Iterates over all distinct edges.
    pub fn edges(&self) -> impl Iterator<Item = &Update> {
        self.edges.iter()
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = &Sym> {
        self.vertices.iter()
    }

    /// Outgoing `(label, target)` pairs of a vertex.
    pub fn out_edges(&self, v: Sym) -> &[(Sym, Sym)] {
        self.out.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Incoming `(label, source)` pairs of a vertex.
    pub fn in_edges(&self, v: Sym) -> &[(Sym, Sym)] {
        self.inc.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Out-degree of a vertex.
    pub fn out_degree(&self, v: Sym) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of a vertex.
    pub fn in_degree(&self, v: Sym) -> usize {
        self.in_edges(v).len()
    }
}

impl HeapSize for AttributeGraph {
    fn heap_size(&self) -> usize {
        self.out.heap_size()
            + self.inc.heap_size()
            + self.edges.heap_size()
            + self.vertices.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(l: u32, s: u32, t: u32) -> Update {
        Update::new(Sym(l), Sym(s), Sym(t))
    }

    #[test]
    fn apply_builds_adjacency() {
        let mut g = AttributeGraph::new();
        assert!(g.apply(u(0, 1, 2)));
        assert!(g.apply(u(0, 1, 3)));
        assert!(g.apply(u(1, 2, 3)));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.out_degree(Sym(1)), 2);
        assert_eq!(g.in_degree(Sym(3)), 2);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = AttributeGraph::new();
        assert!(g.apply(u(0, 1, 2)));
        assert!(!g.apply(u(0, 1, 2)));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(Sym(1)), 1);
    }

    #[test]
    fn multigraph_allows_parallel_edges_with_distinct_labels() {
        let mut g = AttributeGraph::new();
        assert!(g.apply(u(0, 1, 2)));
        assert!(g.apply(u(1, 1, 2)));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(Sym(1)), 2);
    }

    #[test]
    fn from_updates_matches_incremental_application() {
        let updates: Vec<Update> = (0..50).map(|i| u(i % 3, i, i + 1)).collect();
        let bulk = AttributeGraph::from_updates(&updates);
        let mut incremental = AttributeGraph::new();
        for upd in &updates {
            incremental.apply(*upd);
        }
        assert_eq!(bulk.num_edges(), incremental.num_edges());
        assert_eq!(bulk.num_vertices(), incremental.num_vertices());
    }

    #[test]
    fn remove_deletes_the_edge_but_keeps_vertices() {
        let mut g = AttributeGraph::new();
        g.apply(u(0, 1, 2));
        g.apply(u(1, 1, 2));
        assert!(g.remove(u(0, 1, 2).inverted()), "either sign removes");
        assert!(!g.remove(u(0, 1, 2)), "second removal is a no-op");
        assert!(!g.contains(&u(0, 1, 2)));
        assert!(g.contains(&u(1, 1, 2)), "parallel edge survives");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_vertices(), 2, "vertices persist");
        assert_eq!(g.out_degree(Sym(1)), 1);
        assert_eq!(g.in_degree(Sym(2)), 1);
        // Re-adding after removal works as if it never existed.
        assert!(g.apply(u(0, 1, 2)));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn missing_vertex_has_empty_adjacency() {
        let g = AttributeGraph::new();
        assert!(g.out_edges(Sym(99)).is_empty());
        assert!(g.in_edges(Sym(99)).is_empty());
    }
}

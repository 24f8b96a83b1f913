//! The trie forest (Section 4.1, Step 2 of the paper).
//!
//! Each trie in the forest indexes covering paths whose first generic edge is
//! the trie's root edge. A trie node carries the generic edge it indexes, the
//! materialized view `matV[n]` of the *prefix path* ending at that node, and
//! the registrations of every (query, covering-path) pair whose path ends
//! exactly there. Nodes shared by several queries are stored once, which is
//! where the clustering gains of TRIC come from.

use gsm_core::engine::QueryId;
use gsm_core::memory::HeapSize;
use gsm_core::model::generic::GenericEdge;
use gsm_core::relation::fasthash::FxHashMap;
use gsm_core::relation::Relation;

/// Index of a node inside the forest's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl HeapSize for NodeId {
    fn heap_size(&self) -> usize {
        0
    }
}

/// A (query, covering-path) pair registered at a trie node — the node is the
/// last node of that covering path (paper: `queryInd` keeps a reference to
/// the last trie node of every indexed path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// The registered query.
    pub query: QueryId,
    /// Which covering path of the query this registration represents.
    pub path_idx: usize,
}

impl HeapSize for Registration {
    fn heap_size(&self) -> usize {
        0
    }
}

/// A node of a trie.
#[derive(Debug)]
pub struct TrieNode {
    /// The generic edge indexed by this node.
    pub edge: GenericEdge,
    /// Parent node (`None` for roots).
    pub parent: Option<NodeId>,
    /// Children, in creation order.
    pub children: Vec<NodeId>,
    /// Depth in the trie (0 for roots).
    pub depth: usize,
    /// Materialized view of the prefix path ending at this node:
    /// `depth + 2` columns, one per path position.
    pub mat_view: Relation,
    /// Covering paths ending at this node.
    pub registrations: Vec<Registration>,
}

impl HeapSize for TrieNode {
    fn heap_size(&self) -> usize {
        self.children.heap_size() + self.mat_view.heap_size() + self.registrations.heap_size()
    }
}

/// The forest of tries plus the two auxiliary indexes of the paper:
/// `rootInd` (root generic edge → trie root) and `edgeInd` (generic edge →
/// nodes indexing it; the paper stores trie roots and re-discovers the nodes
/// by a DFS — storing the nodes directly is equivalent and avoids the
/// traversal).
#[derive(Debug, Default)]
pub struct TrieForest {
    nodes: Vec<TrieNode>,
    /// rootInd: first generic edge of a path → root node of the trie.
    roots: FxHashMap<GenericEdge, NodeId>,
    /// edgeInd: generic edge → every node (across all tries) indexing it.
    nodes_by_edge: FxHashMap<GenericEdge, Vec<NodeId>>,
    /// Arena slots pruned by unregistration: unlinked from every index and
    /// emptied, but never reused — [`NodeId`]s stay stable for the forest's
    /// whole life (staged answer tokens and query records hold them).
    pruned: usize,
}

impl TrieForest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of **live** trie nodes (pruned arena slots excluded).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - self.pruned
    }

    /// Total number of arena slots, live and pruned: the exclusive upper
    /// bound of every [`NodeId`] ever issued.
    pub fn num_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tries (root nodes).
    pub fn num_tries(&self) -> usize {
        self.roots.len()
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &TrieNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut TrieNode {
        &mut self.nodes[id.index()]
    }

    /// All nodes (across tries) indexing the given generic edge.
    pub fn nodes_for_edge(&self, edge: &GenericEdge) -> &[NodeId] {
        self.nodes_by_edge
            .get(edge)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All root nodes.
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roots.values().copied()
    }

    /// Iterate over every node id.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    fn create_node(&mut self, edge: GenericEdge, parent: Option<NodeId>, depth: usize) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(TrieNode {
            edge,
            parent,
            children: Vec::new(),
            depth,
            mat_view: Relation::new(depth + 2),
            registrations: Vec::new(),
        });
        self.nodes_by_edge.entry(edge).or_default().push(id);
        if let Some(p) = parent {
            self.nodes[p.index()].children.push(id);
        } else {
            self.roots.insert(edge, id);
        }
        id
    }

    /// Inserts a covering path (as a sequence of generic edges) into the
    /// forest, creating missing nodes, and registers `(query, path_idx)` at
    /// the path's last node. Returns the node ids along the path and a list
    /// of the nodes that were newly created (the caller initialises their
    /// materialized views when queries are added after updates have already
    /// streamed in).
    pub fn insert_path(
        &mut self,
        generic_edges: &[GenericEdge],
        query: QueryId,
        path_idx: usize,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        assert!(!generic_edges.is_empty(), "covering paths are never empty");
        let mut path_nodes = Vec::with_capacity(generic_edges.len());
        let mut created = Vec::new();

        // Root: find or create the trie whose root indexes the first edge.
        let root_edge = generic_edges[0];
        let root = match self.roots.get(&root_edge) {
            Some(&r) => r,
            None => {
                let r = self.create_node(root_edge, None, 0);
                created.push(r);
                r
            }
        };
        path_nodes.push(root);

        // Descend, creating nodes for the remaining edges where necessary.
        let mut current = root;
        for (depth, &edge) in generic_edges.iter().enumerate().skip(1) {
            let existing = self.nodes[current.index()]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c.index()].edge == edge);
            let next = match existing {
                Some(c) => c,
                None => {
                    let c = self.create_node(edge, Some(current), depth);
                    created.push(c);
                    c
                }
            };
            path_nodes.push(next);
            current = next;
        }

        self.nodes[current.index()]
            .registrations
            .push(Registration { query, path_idx });
        (path_nodes, created)
    }

    /// Removes the `(query, path_idx)` registration from the covering
    /// path's end node, then prunes upward: a node left with no
    /// registrations and no children serves no remaining covering path, so
    /// it is unlinked from its parent (or `rootInd`), dropped from
    /// `edgeInd`, and its materialized view is released. Ancestors that
    /// thereby become childless and registration-free are pruned too —
    /// exactly the reverse of the find-or-create descent of
    /// [`insert_path`](Self::insert_path). Arena slots are retained (ids
    /// stay stable) but emptied.
    ///
    /// Returns `None` when the registration does not exist, otherwise every
    /// pruned node with the [`Relation::id`] of the materialized view it
    /// released — the caller evicts any cached join builds over those
    /// views and frees whatever it keeps per node. Pruning never
    /// touches nodes still serving other queries: shared prefixes survive
    /// as long as any registration lives at or below them.
    pub fn remove_registration(
        &mut self,
        end_node: NodeId,
        query: QueryId,
        path_idx: usize,
    ) -> Option<Vec<(NodeId, u64)>> {
        let regs = &mut self.nodes[end_node.index()].registrations;
        let before = regs.len();
        regs.retain(|r| !(r.query == query && r.path_idx == path_idx));
        if regs.len() == before {
            return None;
        }
        Some(self.prune_upward(end_node))
    }

    /// Unlinks `node` and every newly dead ancestor (no registrations, no
    /// children) from the forest's indexes, emptying their arena slots;
    /// returns the pruned nodes with their released views' relation ids.
    fn prune_upward(&mut self, mut node: NodeId) -> Vec<(NodeId, u64)> {
        let mut released = Vec::new();
        loop {
            let n = &self.nodes[node.index()];
            if !n.children.is_empty() || !n.registrations.is_empty() {
                return released;
            }
            let parent = n.parent;
            let edge = n.edge;
            match parent {
                Some(p) => self.nodes[p.index()].children.retain(|&c| c != node),
                None => {
                    if self.roots.get(&edge) == Some(&node) {
                        self.roots.remove(&edge);
                    }
                }
            }
            if let Some(indexed) = self.nodes_by_edge.get_mut(&edge) {
                indexed.retain(|&c| c != node);
                if indexed.is_empty() {
                    self.nodes_by_edge.remove(&edge);
                }
            }
            let slot = &mut self.nodes[node.index()];
            released.push((node, slot.mat_view.id()));
            slot.mat_view = Relation::new(slot.depth + 2);
            slot.parent = None;
            self.pruned += 1;
            match parent {
                Some(p) => node = p,
                None => return released,
            }
        }
    }

    /// Collects per-forest sharing statistics: how many (query, path)
    /// registrations exist versus how many nodes store them. A ratio above
    /// 1.0 means clustering is paying off.
    pub fn sharing_ratio(&self) -> f64 {
        let registrations: usize = self.nodes.iter().map(|n| n.registrations.len()).sum();
        if self.num_nodes() == 0 {
            return 0.0;
        }
        registrations as f64 / self.num_nodes() as f64
    }
}

impl HeapSize for TrieForest {
    fn heap_size(&self) -> usize {
        self.nodes.heap_size() + self.roots.heap_size() + self.nodes_by_edge.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsm_core::interner::SymbolTable;
    use gsm_core::model::generic::GenericEdge;
    use gsm_core::query::paths::covering_paths;
    use gsm_core::query::pattern::QueryPattern;

    fn generic_path(
        q: &QueryPattern,
        path: &gsm_core::query::paths::CoveringPath,
    ) -> Vec<GenericEdge> {
        path.edges
            .iter()
            .map(|&e| GenericEdge::from_pattern(&q.edges()[e]))
            .collect()
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut s = SymbolTable::new();
        // Two queries whose covering paths share the prefix ?var -hasMod-> ?var.
        let q1 = QueryPattern::parse("?f -hasMod-> ?p; ?p -posted-> pst1", &mut s).unwrap();
        let q2 = QueryPattern::parse("?f -hasMod-> ?p; ?p -posted-> pst2", &mut s).unwrap();
        let mut forest = TrieForest::new();
        for (qid, q) in [(QueryId(0), &q1), (QueryId(1), &q2)] {
            for (pi, p) in covering_paths(q).iter().enumerate() {
                forest.insert_path(&generic_path(q, p), qid, pi);
            }
        }
        // One shared root (?var -hasMod-> ?var) plus two distinct leaves.
        assert_eq!(forest.num_tries(), 1);
        assert_eq!(forest.num_nodes(), 3);
    }

    #[test]
    fn identical_paths_from_different_queries_share_every_node() {
        let mut s = SymbolTable::new();
        let q1 = QueryPattern::parse("?a -x-> ?b; ?b -y-> ?c", &mut s).unwrap();
        let q2 = QueryPattern::parse("?p -x-> ?q; ?q -y-> ?r", &mut s).unwrap();
        let mut forest = TrieForest::new();
        for (qid, q) in [(QueryId(0), &q1), (QueryId(1), &q2)] {
            for (pi, p) in covering_paths(q).iter().enumerate() {
                forest.insert_path(&generic_path(q, p), qid, pi);
            }
        }
        assert_eq!(forest.num_nodes(), 2);
        let leaf = forest
            .node_ids()
            .find(|&n| forest.node(n).depth == 1)
            .unwrap();
        assert_eq!(forest.node(leaf).registrations.len(), 2);
        assert!(forest.sharing_ratio() >= 1.0);
    }

    #[test]
    fn different_roots_create_different_tries() {
        let mut s = SymbolTable::new();
        let q1 = QueryPattern::parse("?a -x-> ?b", &mut s).unwrap();
        let q2 = QueryPattern::parse("?a -y-> ?b", &mut s).unwrap();
        let mut forest = TrieForest::new();
        for (qid, q) in [(QueryId(0), &q1), (QueryId(1), &q2)] {
            for (pi, p) in covering_paths(q).iter().enumerate() {
                forest.insert_path(&generic_path(q, p), qid, pi);
            }
        }
        assert_eq!(forest.num_tries(), 2);
        assert_eq!(forest.num_nodes(), 2);
    }

    #[test]
    fn node_views_have_path_arity() {
        let mut s = SymbolTable::new();
        let q = QueryPattern::parse("?a -x-> ?b; ?b -y-> ?c; ?c -z-> ?d", &mut s).unwrap();
        let mut forest = TrieForest::new();
        for (pi, p) in covering_paths(&q).iter().enumerate() {
            forest.insert_path(&generic_path(&q, p), QueryId(0), pi);
        }
        for id in forest.node_ids() {
            let n = forest.node(id);
            assert_eq!(n.mat_view.arity(), n.depth + 2);
        }
    }

    #[test]
    fn unregistering_prunes_unshared_suffix_but_keeps_shared_prefix() {
        let mut s = SymbolTable::new();
        let q1 = QueryPattern::parse("?f -hasMod-> ?p; ?p -posted-> pst1", &mut s).unwrap();
        let q2 = QueryPattern::parse("?f -hasMod-> ?p; ?p -posted-> pst2", &mut s).unwrap();
        let mut forest = TrieForest::new();
        let mut ends = Vec::new();
        for (qid, q) in [(QueryId(0), &q1), (QueryId(1), &q2)] {
            for (pi, p) in covering_paths(q).iter().enumerate() {
                let (nodes, _) = forest.insert_path(&generic_path(q, p), qid, pi);
                ends.push((qid, pi, *nodes.last().unwrap()));
            }
        }
        assert_eq!(forest.num_nodes(), 3, "shared root + two leaves");

        // Unregister q1: its private leaf dies, the shared root survives
        // (q2's path still descends through it).
        for &(qid, pi, end) in ends.iter().filter(|(q, _, _)| *q == QueryId(0)) {
            let released = forest.remove_registration(end, qid, pi).unwrap();
            assert_eq!(released.len(), 1, "only the private leaf view is released");
        }
        assert_eq!(forest.num_nodes(), 2);
        assert_eq!(forest.num_tries(), 1);
        assert_eq!(forest.num_slots(), 3, "arena slots stay for id stability");

        // Unregister q2: the remaining leaf and then the root die too.
        for &(qid, pi, end) in ends.iter().filter(|(q, _, _)| *q == QueryId(1)) {
            let released = forest.remove_registration(end, qid, pi).unwrap();
            assert_eq!(released.len(), 2, "leaf and shared root both released");
        }
        assert_eq!(forest.num_nodes(), 0);
        assert_eq!(forest.num_tries(), 0);
        assert!(forest
            .nodes_for_edge(&forest.node(NodeId(0)).edge)
            .is_empty());

        // Double-unregister reports absence instead of corrupting state.
        let (qid, pi, end) = ends[0];
        assert!(forest.remove_registration(end, qid, pi).is_none());
    }

    #[test]
    fn unregistering_a_shared_identical_path_keeps_every_node() {
        let mut s = SymbolTable::new();
        let q1 = QueryPattern::parse("?a -x-> ?b; ?b -y-> ?c", &mut s).unwrap();
        let q2 = QueryPattern::parse("?p -x-> ?q; ?q -y-> ?r", &mut s).unwrap();
        let mut forest = TrieForest::new();
        let mut end = None;
        for (qid, q) in [(QueryId(0), &q1), (QueryId(1), &q2)] {
            for (pi, p) in covering_paths(q).iter().enumerate() {
                let (nodes, _) = forest.insert_path(&generic_path(q, p), qid, pi);
                end = Some(*nodes.last().unwrap());
            }
        }
        let end = end.unwrap();
        let released = forest.remove_registration(end, QueryId(0), 0).unwrap();
        assert!(released.is_empty(), "shared nodes keep their views");
        assert_eq!(forest.num_nodes(), 2, "q2 still registers the same path");
        assert_eq!(forest.node(end).registrations.len(), 1);
    }

    #[test]
    fn pruned_root_can_be_reinserted_fresh() {
        let mut s = SymbolTable::new();
        let q = QueryPattern::parse("?a -x-> ?b", &mut s).unwrap();
        let mut forest = TrieForest::new();
        let p = &covering_paths(&q)[0];
        let (nodes, _) = forest.insert_path(&generic_path(&q, p), QueryId(0), 0);
        assert!(forest
            .remove_registration(nodes[0], QueryId(0), 0)
            .is_some());
        assert_eq!(forest.num_tries(), 0);
        // Re-registering the same shape builds a new trie in a new slot.
        let (nodes2, created) = forest.insert_path(&generic_path(&q, p), QueryId(1), 0);
        assert_ne!(nodes2[0], nodes[0], "ids are never reused");
        assert_eq!(created, nodes2);
        assert_eq!(forest.num_tries(), 1);
        assert_eq!(forest.num_nodes(), 1);
    }

    #[test]
    fn edge_index_finds_nodes_across_tries() {
        let mut s = SymbolTable::new();
        let posted = s.intern("posted");
        let pst1 = s.intern("pst1");
        let q1 = QueryPattern::parse("?a -hasMod-> ?b; ?b -posted-> pst1", &mut s).unwrap();
        let q2 = QueryPattern::parse("com1 -hasCreator-> ?v; ?v -posted-> pst1", &mut s).unwrap();
        let mut forest = TrieForest::new();
        for (qid, q) in [(QueryId(0), &q1), (QueryId(1), &q2)] {
            for (pi, p) in covering_paths(q).iter().enumerate() {
                forest.insert_path(&generic_path(q, p), qid, pi);
            }
        }
        let target = GenericEdge {
            label: posted,
            src: gsm_core::model::generic::GenTerm::Any,
            tgt: gsm_core::model::generic::GenTerm::Const(pst1),
            same_var: false,
        };
        // The edge `?var -posted-> pst1` is indexed under two different tries.
        assert_eq!(forest.nodes_for_edge(&target).len(), 2);
    }
}

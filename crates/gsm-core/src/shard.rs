//! Sharding the query database across workers.
//!
//! The unit of partitioning is the **query**. Every covering path of a
//! query starts at some generic edge; the query's *home* is the shard
//! [`shard_of`] deterministically assigns to the root generic edge of its
//! **first** covering path. The whole query registers on that shard's inner
//! engine — tries, edge views, join caches and covering-path joins all live
//! there — and every generic edge the query uses is routed to it. The
//! wrapper is routing, query-id translation and a [`MatchReport`] merge: it
//! never joins anything itself, so a sharded TRIC+ answers every query with
//! TRIC+, wherever the roots of its other covering paths hash.
//!
//! `apply_batch` routes a whole batch once — mixed signs included — into
//! per-shard slices that keep stream order, and each shard with work
//! applies its slice with one inner `apply_batch`, which splits it into
//! sign runs like any engine. Shards are applied one after another, on the
//! calling thread: with a pipelined flush of 64 updates both shards have
//! work in almost every call, and on a 2-core Intel Xeon scattering
//! them over worker threads measured slower than applying them in place
//! (`durable_taxi_win500`, 6 alternating pairs: 197 k vs 229 k median
//! updates/s). A query is reported by exactly one shard, so folding the
//! per-shard reports into wrapper ids — both counts at once — only
//! translates and sorts, inside the same `apply_batch` call. The wrapper
//! therefore stages like every other engine, through the trait's default.
//!
//! An update whose generic-edge shapes are used by queries homed on several
//! shards is delivered to each of them (and stored by each), so shards
//! trade duplicated edge views for independence;
//! [`ShardedEngine::num_spanning_queries`] counts the queries whose
//! covering-path roots hash to more than one shard.
//!
//! Registration order still assigns [`QueryId`]s sequentially at the
//! wrapper, so reports are directly comparable with an unsharded engine fed
//! the same query set.
//!
//! A shard only holds the live edges that match a generic edge routed to
//! it. The wrapper keeps the whole live graph in an [`EdgeViewStore`] with
//! no views, and when registration first routes a generic edge to the
//! home shard it replays the live edges that edge admits into the shard
//! — *before* the inner `register_query`, so the rows only enter the inner
//! engine's live graph (no query there observes them, and the replay
//! reports nothing) and the inner engine seeds the new query's views from
//! it, as every engine does (see [`ContinuousEngine::register_query`]).

use std::hash::BuildHasher;

use crate::engine::{ContinuousEngine, EngineStats, MatchReport, QueryId, QueryMatch, QueryTable};
use crate::error::{Error, Result};
use crate::memory::HeapSize;
use crate::model::generic::GenericEdge;
use crate::model::update::Update;
use crate::query::paths::covering_paths;
use crate::query::pattern::QueryPattern;
use crate::relation::fasthash::{FxBuildHasher, FxHashMap};
use crate::views::EdgeViewStore;

/// Deterministic shard assignment of a root generic edge.
///
/// Uses the workspace's FxHash (no per-process randomness), so the same edge
/// maps to the same shard in every run, test and process — the property the
/// shard-count differential tests rely on. `num_shards == 0` is treated as 1.
pub fn shard_of(root: &GenericEdge, num_shards: usize) -> usize {
    if num_shards <= 1 {
        return 0;
    }
    (FxBuildHasher.hash_one(root) % num_shards as u64) as usize
}

/// One shard: the inner engine holding every query homed here.
struct Shard<E> {
    engine: E,
    /// Inner query index → wrapper-level query id.
    local_to_global: Vec<QueryId>,
    /// Slice of the current batch routed to this shard (reused buffer).
    slice: Vec<Update>,
    /// Total updates routed to this shard (observability).
    routed: u64,
}

impl<E: ContinuousEngine> Shard<E> {
    fn new(engine: E) -> Self {
        Shard {
            engine,
            local_to_global: Vec::new(),
            slice: Vec::new(),
            routed: 0,
        }
    }
}

/// Where a live wrapper-level query id lives — the unregistration
/// directory.
#[derive(Clone, Copy)]
struct QueryHome {
    shard: usize,
    /// The query's id on its home shard's inner engine.
    local: QueryId,
    /// True when the query's covering-path roots hash to more than one shard.
    spanning: bool,
}

impl HeapSize for QueryHome {
    fn heap_size(&self) -> usize {
        0
    }
}

/// Partitions any [`ContinuousEngine`] into `N` shards by the root generic
/// edge of each query's first covering path.
///
/// See the [module documentation](self) for the partitioning and merge
/// contract. The wrapper is itself a `ContinuousEngine`, observationally
/// equivalent to the unsharded inner engine on every stream: this is pinned
/// by the shard-count differential matrix in the workspace test suites.
pub struct ShardedEngine<E> {
    shards: Vec<Shard<E>>,
    /// Reverse routing index: generic edge → shards observing it (sorted,
    /// deduplicated). Routing an update is then O(shapes) lookups,
    /// independent of the shard count.
    route_index: FxHashMap<GenericEdge, Vec<usize>>,
    /// Per-shard "already routed this update" marks (reused buffer).
    route_marks: Vec<bool>,
    /// Shards marked for the current update (reused buffer).
    route_marked: Vec<usize>,
    /// The live graph, every edge of every label, with no views.
    /// Registration replays from it into the home shard for edges new to
    /// that shard (see the module docs).
    live: EdgeViewStore,
    /// Live queries whose covering-path roots hash to more than one shard.
    num_spanning: usize,
    /// Wrapper-level id → home directory.
    query_homes: QueryTable<QueryHome>,
    name: &'static str,
    stats: EngineStats,
}

impl<E: ContinuousEngine> ShardedEngine<E> {
    /// Builds a sharded engine with `num_shards` shards (clamped to at least
    /// one), each backed by a fresh inner engine from `factory`.
    pub fn new(num_shards: usize, mut factory: impl FnMut() -> E) -> Self {
        let n = num_shards.max(1);
        let shards: Vec<Shard<E>> = (0..n).map(|_| Shard::new(factory())).collect();
        let name = shards[0].engine.name();
        ShardedEngine {
            shards,
            route_index: FxHashMap::default(),
            route_marks: vec![false; n],
            route_marked: Vec::new(),
            live: EdgeViewStore::new(),
            num_spanning: 0,
            query_homes: QueryTable::new(),
            name,
            stats: EngineStats::default(),
        }
    }

    /// Records that `shard` observes `edge` in the reverse routing index.
    /// Returns true when the edge is new to the shard.
    fn route_edge_to(&mut self, edge: GenericEdge, shard: usize) -> bool {
        let shards = self.route_index.entry(edge).or_default();
        match shards.binary_search(&shard) {
            Ok(_) => false,
            Err(pos) => {
                shards.insert(pos, shard);
                true
            }
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The inner engines, in shard order — for inspection in tests and
    /// experiments.
    pub fn shard_engines(&self) -> impl Iterator<Item = &E> {
        self.shards.iter().map(|s| &s.engine)
    }

    /// How many updates have been routed to each shard so far. An update
    /// matching edges on several shards counts once per receiving shard.
    pub fn routed_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.routed).collect()
    }

    /// Number of registered queries whose covering-path roots hash to more
    /// than one shard.
    pub fn num_spanning_queries(&self) -> usize {
        self.num_spanning
    }

    /// Routes a batch into the per-shard slices: an update goes to every
    /// shard observing one of its generic-edge shapes, via the reverse
    /// routing index — O(shapes) hash lookups per update, independent of
    /// the shard count. The marks deduplicate shards reached through
    /// several shapes of the same update.
    fn route_into_slices(&mut self, updates: &[Update]) {
        for shard in &mut self.shards {
            shard.slice.clear();
        }
        for &u in updates {
            for shape in GenericEdge::shapes_of_update(&u) {
                let Some(shards) = self.route_index.get(&shape) else {
                    continue;
                };
                for &s in shards {
                    if !self.route_marks[s] {
                        self.route_marks[s] = true;
                        self.route_marked.push(s);
                        self.shards[s].slice.push(u);
                        self.shards[s].routed += 1;
                    }
                }
            }
            for s in self.route_marked.drain(..) {
                self.route_marks[s] = false;
            }
        }
    }
}

impl<E: ContinuousEngine> ContinuousEngine for ShardedEngine<E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        let n = self.shards.len();
        // The query lives whole on the shard owning its first covering
        // path's root; the other roots only decide whether it counts as
        // spanning.
        let mut roots = covering_paths(query)
            .into_iter()
            .map(|p| shard_of(&GenericEdge::from_pattern(&query.edges()[p.edges[0]]), n));
        let home = roots.next().expect("patterns are non-empty");
        let spanning = roots.any(|s| s != home);

        // Edges new to the home shard first replay the live edges they
        // admit into it (see the module docs). Nothing has streamed yet in
        // the common case and the replay is empty.
        let mut replay: Vec<Update> = Vec::new();
        for e in query.edges().iter().map(GenericEdge::from_pattern) {
            if self.route_edge_to(e, home) {
                if let Some(edges) = self.live.edges(e.label) {
                    replay.extend(
                        edges
                            .iter()
                            .map(|r| Update::new(e.label, r[0], r[1]))
                            .filter(|u| e.matches(u)),
                    );
                }
            }
        }
        let shard = &mut self.shards[home];
        if !replay.is_empty() {
            let report = shard.engine.apply_batch(&replay);
            debug_assert!(
                report.is_empty(),
                "no query on the shard observes a replayed edge"
            );
        }

        let local = shard.engine.register_query(query)?;
        debug_assert_eq!(local.index(), shard.local_to_global.len());
        let gqid = self.query_homes.insert(QueryHome {
            shard: home,
            local,
            spanning,
        });
        shard.local_to_global.push(gqid);
        self.num_spanning += spanning as usize;
        Ok(gqid)
    }

    /// Unregisters via the id → home directory: the query leaves its home
    /// shard's inner engine (whose tombstoning keeps the `local_to_global`
    /// map aligned). Routing-index entries stay — an update routed to a
    /// shard with no interested query is absorbed without output, and a
    /// later registration over the same edges finds the shard's live edges
    /// already there.
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        let home = *self
            .query_homes
            .get(query)
            .ok_or(Error::UnknownQuery(query.0))?;
        self.shards[home.shard]
            .engine
            .unregister_query(home.local)?;
        self.query_homes.remove(query)?;
        self.num_spanning -= home.spanning as usize;
        Ok(())
    }

    fn next_query_id(&self) -> QueryId {
        self.query_homes.next_id()
    }

    fn is_registered(&self, query: QueryId) -> bool {
        self.query_homes.is_live(query)
    }

    /// Routes the batch once, applies each shard's ordered slice — mixed
    /// signs included — with one inner `apply_batch`, and merges the inner
    /// reports (see the module docs). Staging rides the trait's default.
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        self.stats.updates_processed += updates.len() as u64;
        self.live.apply(updates);
        self.route_into_slices(updates);
        // Every query is reported by exactly one shard, so folding the inner
        // reports into wrapper ids — both counts at once — only translates
        // and sorts.
        let mut matches: Vec<QueryMatch> = Vec::new();
        for shard in self.shards.iter_mut().filter(|s| !s.slice.is_empty()) {
            let report = shard.engine.apply_batch(&shard.slice);
            matches.extend(report.matches.into_iter().map(|m| QueryMatch {
                query: shard.local_to_global[m.query.index()],
                ..m
            }));
        }
        matches.sort_unstable_by_key(|m| m.query);
        let report = MatchReport { matches };
        // Inner engines count their own updates (registration replays
        // included); the wrapper's counters are the authoritative ones.
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        self.stats.retracted += report.total_retracted();
        report
    }

    fn num_queries(&self) -> usize {
        self.query_homes.num_live()
    }

    fn heap_bytes(&self) -> usize {
        self.route_index.heap_size()
            + self.route_marks.heap_size()
            + self.route_marked.heap_size()
            + self.live.heap_size()
            + self.query_homes.heap_size()
            + self
                .shards
                .iter()
                .map(|s| {
                    s.engine.heap_bytes() + s.local_to_global.heap_size() + s.slice.heap_size()
                })
                .sum::<usize>()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Sym;
    use crate::model::generic::GenTerm;

    fn ge(label: u32) -> GenericEdge {
        GenericEdge {
            label: Sym(label),
            src: GenTerm::Any,
            tgt: GenTerm::Any,
            same_var: false,
        }
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 4, 8, 17] {
            for label in 0..200u32 {
                let s1 = shard_of(&ge(label), n);
                let s2 = shard_of(&ge(label), n);
                assert_eq!(s1, s2);
                assert!(s1 < n);
            }
        }
        assert_eq!(shard_of(&ge(7), 0), 0);
        assert_eq!(shard_of(&ge(7), 1), 0);
    }

    #[test]
    fn shard_assignment_uses_every_shard() {
        // Sanity: over a couple hundred labels, FxHash spreads roots across
        // all shards (a degenerate constant assignment would defeat the
        // point of sharding and silently weaken the differential tests).
        for n in [2usize, 4, 8] {
            let mut seen = vec![false; n];
            for label in 0..200u32 {
                seen[shard_of(&ge(label), n)] = true;
            }
            assert!(seen.iter().all(|&s| s), "{n} shards not all used");
        }
    }

    #[test]
    fn self_loop_and_open_edges_shard_independently() {
        // The same label with and without the same-variable flag are
        // different generic edges and may land on different shards; both
        // must be stable.
        let open = ge(3);
        let mut looped = ge(3);
        looped.same_var = true;
        for n in [2usize, 4, 8] {
            assert_eq!(shard_of(&open, n), shard_of(&open, n));
            assert_eq!(shard_of(&looped, n), shard_of(&looped, n));
        }
    }
}

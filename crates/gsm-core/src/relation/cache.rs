//! The join-build cache that powers the `+` engine variants.
//!
//! TRIC+, INV+ and INC+ differ from their base algorithms only in that the
//! hash tables constructed during the build phase of each hash join are kept
//! around and incrementally maintained instead of being rebuilt from scratch
//! on every update (Section 4.2, "Caching"). The cache is keyed by the
//! relation's stable identity plus the key columns of the build.
//! "Incrementally" covers both signs: a deletion goes *through* the cache
//! ([`JoinCache::retract_rows`]), so TRIC+ is still TRIC+ after it.
//!
//! TRIC+'s builds serve both halves of answering: propagation probes builds
//! over parent and edge views, and the covering-path join
//! ([`super::eval::join_covering_paths`]) probes builds over the end-node
//! views of the other covering paths. Since the cache keys by (view, key
//! columns), queries that share an end node and a join vertex share one
//! build, within a batch and across batches. Only long-lived views are
//! cached; deltas and filtered/projected copies get fresh builds, since
//! their ids are never reused.

use super::fasthash::FxHashMap;
use super::join::{retract_through, JoinBuild};
use super::Relation;
use crate::memory::HeapSize;

/// A cache of build-side hash tables, maintained incrementally as the
/// underlying relations grow ([`get_or_build`](JoinCache::get_or_build)
/// indexes the rows appended since the last use) and shrink
/// ([`retract_rows`](JoinCache::retract_rows) removes rows through the
/// builds).
#[derive(Debug, Default)]
pub struct JoinCache {
    /// Relation id → the builds over that relation, one per distinct key
    /// column set (a handful at most, so a build is found by comparing key
    /// columns). Grouping by relation is what lets a retraction reach
    /// exactly the builds it invalidates.
    builds: FxHashMap<u64, Vec<JoinBuild>>,
    hits: u64,
    misses: u64,
    rebuilds: u64,
}

impl JoinCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns an up-to-date build over `rel` keyed by `key_cols`, reusing
    /// and incrementally updating a cached build when one exists.
    pub fn get_or_build(&mut self, rel: &Relation, key_cols: &[usize]) -> &JoinBuild {
        let builds = self.builds.entry(rel.id()).or_default();
        match builds.iter().position(|b| b.key_cols() == key_cols) {
            Some(i) => {
                self.hits += 1;
                self.rebuilds += u64::from(builds[i].update(rel));
                &builds[i]
            }
            None => {
                self.misses += 1;
                builds.push(JoinBuild::build(rel, key_cols));
                builds.last().expect("just pushed")
            }
        }
    }

    /// [`Relation::retract_rows`] **through** the cache: removes every row
    /// of `removed` from `rel` and replays each swap-remove on the builds
    /// cached over `rel`, so they stay valid across the generation bump
    /// instead of starting over on their next use — O(|`removed`| × builds
    /// over `rel`), independent of the relation's size. Returns the number
    /// of rows removed. Retracting from a cached relation behind the
    /// cache's back stays correct, just slower: the builds that missed the
    /// moves detect the new generation and rebuild.
    pub fn retract_rows(&mut self, rel: &mut Relation, removed: &Relation) -> usize {
        assert_eq!(rel.arity(), removed.arity(), "retract_rows arity mismatch");
        let builds = self
            .builds
            .get_mut(&rel.id())
            .map(Vec::as_mut_slice)
            .unwrap_or_default();
        let (dropped, rebuilt) = retract_through(rel, removed.iter(), builds);
        self.rebuilds += rebuilt;
        dropped
    }

    /// Number of cached builds.
    pub fn len(&self) -> usize {
        self.builds.values().map(Vec::len).sum()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.builds.is_empty()
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of times a cached build had to start over from scratch
    /// because rows were retracted from its relation without going through
    /// [`retract_rows`](JoinCache::retract_rows). Zero on a stream whose
    /// deletions all take that route: there, TRIC+ keeps its builds.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Drops every build cached over the relation with id `rel_id` — called
    /// when a materialized view is destroyed (trie-node pruning on query
    /// unregistration). Relation ids are never reused, so a lingering entry
    /// could never be wrongly served; eviction reclaims the build's memory,
    /// it is not needed for correctness.
    pub fn evict_relation(&mut self, rel_id: u64) {
        self.builds.remove(&rel_id);
    }

    /// Drops every cached build (used by tests and memory experiments).
    pub fn clear(&mut self) {
        self.builds.clear();
    }
}

impl HeapSize for JoinCache {
    fn heap_size(&self) -> usize {
        self.builds.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Sym;
    use crate::relation::join::hash_join_with_build;

    fn s(v: u32) -> Sym {
        Sym(v)
    }

    #[test]
    fn cache_hits_after_first_build() {
        let mut cache = JoinCache::new();
        let mut r = Relation::new(2);
        r.push(&[s(1), s(2)]);
        cache.get_or_build(&r, &[0]);
        assert_eq!(cache.misses(), 1);
        cache.get_or_build(&r, &[0]);
        assert_eq!(cache.hits(), 1);
        // A different key column is a different cache entry.
        cache.get_or_build(&r, &[1]);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_build_is_incrementally_maintained() {
        let mut cache = JoinCache::new();
        let mut r = Relation::new(2);
        r.push(&[s(1), s(10)]);
        cache.get_or_build(&r, &[0]);
        r.push(&[s(1), s(11)]);
        let build = cache.get_or_build(&r, &[0]);
        assert_eq!(build.probe(&r, &[s(1)]).len(), 2);
    }

    #[test]
    fn cached_join_result_matches_fresh_result() {
        let mut cache = JoinCache::new();
        let mut left = Relation::new(2);
        let mut right = Relation::new(2);
        for i in 0..50u32 {
            left.push(&[s(i), s(i % 7)]);
            right.push(&[s(i % 7), s(i)]);
        }
        // Prime the cache, then grow and re-join.
        cache.get_or_build(&right, &[0]);
        for i in 50..80u32 {
            right.push(&[s(i % 7), s(i)]);
        }
        let build = cache.get_or_build(&right, &[0]);
        let cached = hash_join_with_build(&left, &right, &[1], &[0], build);
        let fresh = super::super::join::hash_join(&left, &right, &[1], &[0]);
        assert_eq!(cached.to_sorted_vec(), fresh.to_sorted_vec());
    }

    #[test]
    fn distinct_relations_do_not_collide() {
        let mut cache = JoinCache::new();
        let mut a = Relation::new(1);
        a.push(&[s(1)]);
        let mut b = Relation::new(1);
        b.push(&[s(2)]);
        cache.get_or_build(&a, &[0]);
        let build_b = cache.get_or_build(&b, &[0]);
        assert_eq!(build_b.probe(&b, &[s(2)]).len(), 1);
        assert_eq!(build_b.probe(&b, &[s(1)]).len(), 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evict_relation_drops_only_that_relations_builds() {
        let mut cache = JoinCache::new();
        let mut a = Relation::new(2);
        a.push(&[s(1), s(2)]);
        let mut b = Relation::new(1);
        b.push(&[s(3)]);
        cache.get_or_build(&a, &[0]);
        cache.get_or_build(&a, &[1]);
        cache.get_or_build(&b, &[0]);
        assert_eq!(cache.len(), 3);
        cache.evict_relation(a.id());
        assert_eq!(cache.len(), 1, "both of a's key-column builds evicted");
        // The survivor still serves b; a missing id is a no-op.
        assert_eq!(cache.get_or_build(&b, &[0]).probe(&b, &[s(3)]).len(), 1);
        cache.evict_relation(a.id());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn retracting_through_the_cache_keeps_builds_and_counts_bypasses() {
        let mut cache = JoinCache::new();
        let mut r = Relation::new(2);
        for i in 0..10u32 {
            r.push(&[s(i % 3), s(i)]);
        }
        cache.get_or_build(&r, &[0]);
        cache.get_or_build(&r, &[1]);
        let mut gone = Relation::new(2);
        gone.push(&[s(0), s(0)]);
        gone.push(&[s(1), s(4)]);
        gone.push(&[s(9), s(9)]); // absent
        assert_eq!(cache.retract_rows(&mut r, &gone), 2);
        r.push(&[s(0), s(30)]);
        let build = cache.get_or_build(&r, &[0]);
        assert_eq!(build.probe(&r, &[s(0)]).len(), 4, "3, 6, 9 and 30");
        assert_eq!(cache.get_or_build(&r, &[1]).probe(&r, &[s(4)]).len(), 0);
        assert_eq!(cache.rebuilds(), 0, "both builds followed the moves");

        // Behind the cache's back: still correct, but the build starts over.
        assert!(r.retract_row(&[s(0), s(3)]));
        assert_eq!(cache.get_or_build(&r, &[0]).probe(&r, &[s(0)]).len(), 3);
        assert_eq!(cache.rebuilds(), 1);
        // A relation the cache has never seen is retracted all the same.
        let mut other = Relation::singleton(&[s(1), s(4)]);
        assert_eq!(cache.retract_rows(&mut other, &gone), 1);
        assert!(other.is_empty());
    }

    #[test]
    fn retract_rows_keeps_every_build_over_the_relation_valid() {
        // Two builds over one relation: the removed row leaves through
        // both, neither starts over, and the next append reuses the
        // vacated index in both.
        let mut cache = JoinCache::new();
        let mut r = Relation::new(2);
        for [a, b] in [[1, 10], [2, 20], [1, 30], [3, 10]] {
            r.push(&[s(a), s(b)]);
        }
        cache.get_or_build(&r, &[0]);
        cache.get_or_build(&r, &[1]);
        r.push(&[s(2), s(40)]); // neither build has seen this row yet
        let gone = Relation::singleton(&[s(2), s(20)]);
        assert_eq!(cache.retract_rows(&mut r, &gone), 1);
        assert_eq!(cache.retract_rows(&mut r, &gone), 0);
        assert_eq!(r.row(1), &[s(2), s(40)], "the last row filled the hole");
        for build in &cache.builds[&r.id()] {
            assert_eq!(build.generation(), r.generation());
            assert_eq!(build.rows_indexed(), 4);
        }
        assert_eq!(cache.get_or_build(&r, &[0]).probe(&r, &[s(2)]), vec![1]);
        let by_second = cache.get_or_build(&r, &[1]);
        assert_eq!(by_second.probe(&r, &[s(20)]), Vec::<usize>::new());
        assert_eq!(by_second.probe(&r, &[s(40)]), vec![1]);
        r.push(&[s(2), s(50)]);
        let mut hits = cache.get_or_build(&r, &[0]).probe(&r, &[s(2)]);
        assert_eq!(cache.rebuilds(), 0, "restamped, so no rebuild");
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 4]);
        // A build outside the cache still answers correctly: it rebuilds.
        let mut left_out = JoinBuild::build(&r, &[0]);
        let gone = Relation::singleton(&[s(1), s(10)]);
        assert_eq!(cache.retract_rows(&mut r, &gone), 1);
        assert!(left_out.update(&r), "missed the move, starts over");
        assert_eq!(left_out.probe(&r, &[s(1)]).len(), 1);
    }

    #[test]
    fn clear_empties_cache() {
        let mut cache = JoinCache::new();
        let r = Relation::new(1);
        cache.get_or_build(&r, &[0]);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}

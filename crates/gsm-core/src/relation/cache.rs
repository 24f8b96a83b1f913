//! The join-build cache that powers the `+` engine variants.
//!
//! TRIC+, INV+ and INC+ differ from their base algorithms only in that the
//! hash tables constructed during the build phase of each hash join are kept
//! around and incrementally maintained instead of being rebuilt from scratch
//! on every update (Section 4.2, "Caching"). The cache is keyed by the
//! relation's stable identity plus the key columns of the build.

use std::collections::HashMap;

use super::join::JoinBuild;
use super::Relation;
use crate::memory::HeapSize;

/// Key of a cached build: (relation id, key columns).
type CacheKey = (u64, Vec<usize>);

/// A cache of build-side hash tables, incrementally maintained as the
/// underlying (insert-only) relations grow.
#[derive(Debug, Default)]
pub struct JoinCache {
    builds: HashMap<CacheKey, JoinBuild>,
    hits: u64,
    misses: u64,
}

impl JoinCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns an up-to-date build over `rel` keyed by `key_cols`, reusing
    /// and incrementally updating a cached build when one exists.
    pub fn get_or_build(&mut self, rel: &Relation, key_cols: &[usize]) -> &JoinBuild {
        let key: CacheKey = (rel.id(), key_cols.to_vec());
        match self.builds.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                let build = e.into_mut();
                build.update(rel);
                build
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.misses += 1;
                e.insert(JoinBuild::build(rel, key_cols))
            }
        }
    }

    /// Number of cached builds.
    pub fn len(&self) -> usize {
        self.builds.len()
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

    /// Drops every build cached over the relation with id `rel_id` — called
    /// when a materialized view is destroyed (trie-node pruning on query
    /// unregistration). Relation ids are never reused, so a lingering entry
    /// could never be wrongly served; eviction reclaims the build's memory,
    /// it is not needed for correctness.
    pub fn evict_relation(&mut self, rel_id: u64) {
        self.builds.retain(|(id, _), _| *id != rel_id);
    }

    /// Drops every cached build (used by tests and memory experiments).
    pub fn clear(&mut self) {
        self.builds.clear();
    }
}

impl HeapSize for JoinCache {
    fn heap_size(&self) -> usize {
        self.builds
            .iter()
            .map(|((_, cols), build)| cols.heap_size() + build.heap_size() + 16)
            .sum::<usize>()
            + self.builds.capacity() * std::mem::size_of::<(CacheKey, JoinBuild)>()
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
    fn clear_empties_cache() {
        let mut cache = JoinCache::new();
        let r = Relation::new(1);
        cache.get_or_build(&r, &[0]);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}

//! Binding tables (materialized views) and join machinery.
//!
//! Every materialized view of the paper — the per-edge views `matV[e]`, the
//! per-trie-node views `matV[n]`, and the per-path views of the baselines —
//! is a [`Relation`]: a duplicate-free table of vertex symbols with a fixed
//! arity, stored densely as one row-major `Vec`. Within one **generation**
//! relations only ever grow, which the join-build cache of the `+` engine
//! variants exploits. A retraction ([`Relation::retract_rows`],
//! [`Relation::retract_row`]) is a **swap-remove** through the dedup index
//! — the last row fills the hole, so it costs what an insertion costs,
//! whatever the size of the table — and opens a new generation: a
//! generation bump means "row positions may have changed", and after the
//! first one row order is no longer insertion order. Cached artefacts either
//! follow the moves ([`cache::JoinCache::retract_rows`]) or detect that they
//! missed them by comparing generation counters.

pub mod cache;
pub mod eval;
pub mod fasthash;
pub mod join;

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::interner::Sym;
use crate::memory::HeapSize;

use fasthash::{hash_syms, relink_row, unlink_row, Bucket, FxHashMap};

static NEXT_RELATION_ID: AtomicU64 = AtomicU64::new(1);

/// Converts a row count into a `u32` dedup-index slot, panicking with a
/// descriptive message instead of silently wrapping past 2³² rows (which
/// would corrupt the index: a wrapped slot aliases an earlier row, so
/// duplicate checks compare against the wrong tuple).
#[inline]
pub(crate) fn checked_row_index(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!("relation row index {len} exceeds the u32 capacity of the dedup index")
    })
}

/// A duplicate-free table of `Sym` tuples with fixed arity.
///
/// Relations come in two flavours. The default ([`Relation::new`]) maintains
/// a row-hash index so [`push`](Relation::push) can reject duplicates in
/// O(1). The *distinct* flavour ([`Relation::new_distinct`]) skips the index
/// entirely for tables whose rows are distinct **by construction** — the
/// delta relations of the incremental join pipeline, where every output row
/// extends a distinct input row with a distinct matching tuple. Those tables
/// are built once, read many times and discarded, so the per-row index
/// insert (a random-access hash-map touch) is pure overhead on the hot path.
///
/// # Dense storage
///
/// Rows live in one row-major `Vec<Sym>`: row `i` is the slice
/// `[i * arity, (i + 1) * arity)`. Insertion appends, retraction
/// swap-removes the last row into the hole, so there are never holes and
/// every read is slice arithmetic.
#[derive(Debug, Clone)]
pub struct Relation {
    id: u64,
    arity: usize,
    /// Every row, row-major, `len() * arity` syms.
    rows: Vec<Sym>,
    /// Row-hash → indices of rows with that hash (collision chains verified
    /// on insert), used to keep the table duplicate-free. Keyed by the fast
    /// [`hash_syms`] row hash; chains stay inline until they spill. Unused
    /// (and empty) for distinct-by-construction relations.
    index: FxHashMap<u64, Bucket>,
    /// False for distinct-by-construction relations (no dedup index).
    indexed: bool,
    /// Retraction generation. Bumped by every [`Relation::retract_rows`] /
    /// [`Relation::retract_row`] call that removed something; within one
    /// generation the table is append-only and the row-count versioning
    /// contract holds. Carried by clones so join builds that missed a
    /// retraction can be detected and rebuilt.
    generation: u64,
}

impl Relation {
    /// Creates an empty relation of the given arity (must be ≥ 1).
    pub fn new(arity: usize) -> Self {
        assert!(arity >= 1, "relations must have at least one column");
        Relation {
            id: NEXT_RELATION_ID.fetch_add(1, Ordering::Relaxed),
            arity,
            rows: Vec::new(),
            index: FxHashMap::default(),
            indexed: true,
            generation: 0,
        }
    }

    /// Creates an empty relation whose rows the caller guarantees to be
    /// distinct, so no dedup index is maintained. Fill it with
    /// [`append_distinct`](Relation::append_distinct); calling
    /// [`push`](Relation::push) on it panics, so accidental mixing of the
    /// two disciplines fails loudly instead of silently corrupting the
    /// duplicate-free invariant.
    pub fn new_distinct(arity: usize) -> Self {
        Relation {
            indexed: false,
            ..Relation::new(arity)
        }
    }

    /// True if this relation maintains a dedup index ([`Relation::new`]);
    /// false for distinct-by-construction tables
    /// ([`Relation::new_distinct`]).
    pub fn is_indexed(&self) -> bool {
        self.indexed
    }

    /// Creates an empty indexed relation that starts in the given
    /// `generation` instead of generation 0 — the constructor of
    /// the persistence layer's recovery path, which rebuilds a checkpointed
    /// relation row by row and must restore its generation watermark so
    /// that `(generation, version)` pairs recorded in the checkpoint
    /// manifest stay comparable after recovery. The restored relation gets
    /// a fresh [`id`](Relation::id) (identities are process-local and never
    /// persisted; every cache keyed on them starts cold after recovery).
    pub fn restore(arity: usize, generation: u64) -> Self {
        Relation {
            generation,
            ..Relation::new(arity)
        }
    }

    /// Creates a relation containing a single row.
    pub fn singleton(row: &[Sym]) -> Self {
        let mut rel = Relation::new(row.len());
        rel.push(row);
        rel
    }

    /// A never-reused identity for this relation instance, used as a cache
    /// key by [`cache::JoinCache`]. Clones **share** the identity (`Clone`
    /// is derived), so a cached build may be probed against a clone of its
    /// relation — possibly shorter, which is why probes bound-check row
    /// indices. Only push to one relation per identity when caching is in
    /// play.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.rows.len() / self.arity
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The current number of rows, read as a version of the table.
    ///
    /// Within one [`generation`](Relation::generation) relations are
    /// **append-only** — rows are appended, never removed or reordered — so
    /// the row count identifies a prefix of the table for as long as the
    /// generation lasts: [`iter_from`](Relation::iter_from) at a version
    /// yields exactly the rows appended after it, and a join build that
    /// indexed the first `version` rows catches up by indexing that suffix.
    /// The `(generation, version)` pair is also what the persistence layer
    /// records per checkpointed relation.
    ///
    /// [`retract_rows`](Relation::retract_rows) moves rows (the last row
    /// fills each hole), shrinks the table and opens a new generation: a
    /// version read in an earlier generation no longer names a prefix, and
    /// row order stops being insertion order.
    pub fn version(&self) -> usize {
        self.len()
    }

    /// The generation this relation is in. `0` until the first retraction;
    /// bumped once by every [`retract_rows`](Relation::retract_rows) /
    /// [`retract_row`](Relation::retract_row) call that removed something.
    /// A new generation means "row positions may have changed" — nothing
    /// more: storage is as dense after it as before. A (generation,
    /// version) pair uniquely identifies a physical row prefix, which is
    /// what join builds key their staleness checks on and what a checkpoint
    /// records per relation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Returns row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Sym] {
        let start = i * self.arity;
        &self.rows[start..start + self.arity]
    }

    /// Iterates over all rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Sym]> {
        self.rows.chunks_exact(self.arity)
    }

    /// Iterates over the rows added at or after version `from`.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = &[Sym]> {
        self.rows[from.min(self.len()) * self.arity..].chunks_exact(self.arity)
    }

    /// Iterates over the rows at the indices in `range`.
    pub(crate) fn iter_range(&self, range: Range<usize>) -> impl Iterator<Item = &[Sym]> {
        self.rows[range.start * self.arity..range.end * self.arity].chunks_exact(self.arity)
    }

    /// True if an identical row is already present. O(1) via the index for
    /// ordinary relations; a linear scan for distinct-by-construction ones
    /// (only used in assertions and tests there).
    pub fn contains(&self, row: &[Sym]) -> bool {
        self.position(row).is_some()
    }

    /// The index of the row equal to `row`, if present: one lookup in the
    /// dedup index for ordinary relations, a linear scan for
    /// distinct-by-construction ones.
    pub fn position(&self, row: &[Sym]) -> Option<usize> {
        debug_assert_eq!(row.len(), self.arity);
        if self.indexed {
            self.position_hashed(hash_syms(row), row)
        } else {
            self.iter().position(|r| r == row)
        }
    }

    /// [`position`](Self::position) with an externally supplied row hash —
    /// the testable core that lets unit tests force bucket collisions.
    fn position_hashed(&self, h: u64, row: &[Sym]) -> Option<usize> {
        let bucket = self.index.get(&h)?;
        let found = bucket
            .as_slice()
            .iter()
            .find(|&&i| self.row(i as usize) == row)?;
        Some(*found as usize)
    }

    /// Inserts a row, returning `true` if it was new. Panics on a
    /// distinct-by-construction relation — use
    /// [`append_distinct`](Relation::append_distinct) there.
    pub fn push(&mut self, row: &[Sym]) -> bool {
        assert_eq!(
            row.len(),
            self.arity,
            "row arity {} does not match relation arity {}",
            row.len(),
            self.arity
        );
        assert!(
            self.indexed,
            "push on a distinct-by-construction relation; use append_distinct"
        );
        self.push_hashed(hash_syms(row), row)
    }

    /// Appends a row the caller guarantees is not already present, without
    /// touching the dedup index. This is the write path of
    /// [`Relation::new_distinct`] tables; debug builds verify the guarantee
    /// by a scan.
    #[inline]
    pub fn append_distinct(&mut self, row: &[Sym]) {
        debug_assert_eq!(row.len(), self.arity);
        // The duplicate check is a linear scan (distinct relations carry no
        // index); cap it to small relations so debug-build test suites
        // replaying whole streams as one batch stay linear in the delta
        // size. Small relations — everything the edge-case tests and
        // proptests build — are still verified in full.
        debug_assert!(
            self.len() > 64 || !self.contains(row),
            "append_distinct received a duplicate row"
        );
        if self.indexed {
            // Indexed relations must keep their index complete for future
            // dedup pushes, so the guarantee only saves the chain comparison.
            self.push_hashed(hash_syms(row), row);
        } else {
            self.rows.extend_from_slice(row);
        }
    }

    /// Removes every row of `removed` that is present in `self` and returns
    /// how many rows were dropped — O(|`removed`|) on an indexed relation,
    /// whatever the size of `self`.
    ///
    /// Each removal is a **swap-remove**: the row is located through the
    /// dedup index (by a scan on a distinct-by-construction relation, which
    /// has none), the physically last row moves into its slot, the two
    /// index buckets involved are fixed up (one that empties is dropped)
    /// and the table shrinks by one. Storage stays dense — no tombstones,
    /// no compaction pass — but the survivors do **not** keep their
    /// relative order: after a retraction row order is no longer insertion
    /// order. The relation keeps its [`id`](Relation::id) and opens one new
    /// [`generation`](Relation::generation) per call that removed
    /// something, so join builds and checkpoints keyed on the id see that
    /// row positions may have changed ([`cache::JoinCache::retract_rows`]
    /// retracts *through* the cached builds and keeps them valid instead).
    pub fn retract_rows(&mut self, removed: &Relation) -> usize {
        assert_eq!(
            self.arity, removed.arity,
            "retract_rows arity mismatch: {} vs {}",
            self.arity, removed.arity
        );
        self.retract_each(removed.iter(), |_, _, _| {})
    }

    /// The single-row form of [`retract_rows`](Relation::retract_rows):
    /// removes `row` if present (one new generation) and says whether it
    /// was — one index lookup, no throw-away relation.
    pub fn retract_row(&mut self, row: &[Sym]) -> bool {
        self.retract_each(std::iter::once(row), |_, _, _| {}) == 1
    }

    /// The one retraction loop behind every public form: swap-removes each
    /// of `rows` that is present, hands every removal to
    /// `moved(self, hole, row)` right after it happened — `row` left slot
    /// `hole`, and unless `hole == self.len()` the row that used to sit at
    /// index `self.len()` now lives there — and opens a new generation if
    /// anything was removed. The observer is how cached join builds follow
    /// the moves ([`join::JoinBuild`]).
    fn retract_each<'r>(
        &mut self,
        rows: impl IntoIterator<Item = &'r [Sym]>,
        mut moved: impl FnMut(&Relation, usize, &[Sym]),
    ) -> usize {
        let mut dropped = 0;
        for row in rows {
            if let Some(hole) = self.swap_remove_row(row) {
                dropped += 1;
                moved(self, hole, row);
            }
        }
        if dropped > 0 {
            self.generation += 1;
        }
        dropped
    }

    /// Swap-removes `row`, returning the slot it occupied (`None`, and no
    /// change, if it is absent). Does not touch the generation.
    fn swap_remove_row(&mut self, row: &[Sym]) -> Option<usize> {
        let arity = self.arity;
        assert_eq!(
            row.len(),
            arity,
            "row arity {} does not match relation arity {arity}",
            row.len()
        );
        let hole = if self.indexed {
            let rows = &self.rows;
            unlink_row(&mut self.index, hash_syms(row), |&i| {
                let at = i as usize * arity;
                &rows[at..at + arity] == row
            })? as usize
        } else {
            self.iter().position(|r| r == row)?
        };
        let last = self.len() - 1;
        let last_at = last * arity;
        if hole != last {
            if self.indexed {
                let relinked = relink_row(
                    &mut self.index,
                    hash_syms(&self.rows[last_at..]),
                    checked_row_index(last),
                    checked_row_index(hole),
                );
                debug_assert!(relinked, "every stored row is indexed");
            }
            self.rows.copy_within(last_at.., hole * arity);
        }
        self.rows.truncate(last_at);
        Some(hole)
    }

    /// [`push`](Self::push) with an externally supplied row hash — the
    /// testable core that lets unit tests force bucket collisions. Collision
    /// chains are always verified by full row comparison, so correctness
    /// never depends on hash quality.
    fn push_hashed(&mut self, h: u64, row: &[Sym]) -> bool {
        let new_index = checked_row_index(self.len());
        let (rows, arity) = (&self.rows, self.arity);
        let bucket = self.index.entry(h).or_default();
        if bucket.as_slice().iter().any(|&i| {
            let at = i as usize * arity;
            &rows[at..at + arity] == row
        }) {
            return false;
        }
        bucket.push(new_index);
        self.rows.extend_from_slice(row);
        true
    }

    /// Removes every row, keeping the row storage's and the dedup index's
    /// capacity and the relation's [`id`](Relation::id) — how a run's
    /// scratch relation is emptied for the next run without allocating.
    /// Opens a new generation if anything was removed.
    pub fn clear(&mut self) {
        if self.is_empty() {
            return;
        }
        self.rows.clear();
        self.index.clear();
        self.generation += 1;
    }

    /// Keeps exactly the rows for which `keep` returns `true`, in their
    /// order, compacting in place. Only for distinct-by-construction
    /// relations ([`Relation::new_distinct`]), which have no index to
    /// follow the moves. Opens a new generation if anything was removed.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Sym]) -> bool) {
        assert!(
            !self.indexed,
            "retain on an indexed relation; use retract_rows"
        );
        let arity = self.arity;
        let mut kept = 0;
        for at in (0..self.rows.len()).step_by(arity) {
            if keep(&self.rows[at..at + arity]) {
                if kept != at {
                    self.rows.copy_within(at..at + arity, kept);
                }
                kept += arity;
            }
        }
        if kept < self.rows.len() {
            self.rows.truncate(kept);
            self.generation += 1;
        }
    }

    /// Unions `other` into `self` (arity must match); returns the number of
    /// rows actually added. On an ordinary relation duplicates are dropped;
    /// on a distinct-by-construction relation the caller guarantees the two
    /// row sets are disjoint (debug builds verify it) and every row is
    /// appended.
    pub fn extend_from(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity);
        if !self.indexed {
            for row in other.iter() {
                self.append_distinct(row);
            }
            return other.len();
        }
        let mut added = 0;
        for row in other.iter() {
            if self.push(row) {
                added += 1;
            }
        }
        added
    }

    /// Projects onto the given columns (in the given order), de-duplicating.
    pub fn project(&self, cols: &[usize]) -> Relation {
        assert!(!cols.is_empty());
        let mut out = Relation::new(cols.len());
        let mut buf = vec![Sym(0); cols.len()];
        for row in self.iter() {
            for (o, &c) in buf.iter_mut().zip(cols) {
                *o = row[c];
            }
            out.push(&buf);
        }
        out
    }

    /// Collects all rows into owned vectors — convenient in tests.
    pub fn to_vec(&self) -> Vec<Vec<Sym>> {
        self.iter().map(|r| r.to_vec()).collect()
    }

    /// Collects all rows into a sorted vector — convenient for comparisons.
    pub fn to_sorted_vec(&self) -> Vec<Vec<Sym>> {
        let mut v = self.to_vec();
        v.sort();
        v
    }
}

impl HeapSize for Relation {
    fn heap_size(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Sym>() + self.index.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u32) -> Sym {
        Sym(v)
    }

    #[test]
    fn push_dedups() {
        let mut r = Relation::new(2);
        assert!(r.push(&[s(1), s(2)]));
        assert!(!r.push(&[s(1), s(2)]));
        assert!(r.push(&[s(2), s(1)]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[s(1), s(2)]));
        assert!(!r.contains(&[s(9), s(9)]));
    }

    #[test]
    fn iter_from_yields_suffix() {
        let mut r = Relation::new(1);
        for i in 0..10 {
            r.push(&[s(i)]);
        }
        let suffix: Vec<_> = r.iter_from(7).map(|row| row[0].0).collect();
        assert_eq!(suffix, vec![7, 8, 9]);
        assert_eq!(r.iter_from(20).count(), 0);
    }

    #[test]
    fn ids_are_unique_even_for_clones() {
        let a = Relation::new(2);
        let b = a.clone();
        let c = Relation::new(2);
        assert_ne!(a.id(), c.id());
        // Clones share the id (same logical content) — documented behaviour
        // relied on only through explicit cloning in tests.
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn project_dedups() {
        let mut r = Relation::new(3);
        r.push(&[s(1), s(2), s(3)]);
        r.push(&[s(1), s(5), s(3)]);
        let p = r.project(&[0, 2]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.arity(), 2);
        let reordered = r.project(&[2, 0]);
        assert_eq!(reordered.row(0), &[s(3), s(1)]);
    }

    #[test]
    fn extend_from_unions() {
        let mut a = Relation::new(2);
        a.push(&[s(1), s(1)]);
        let mut b = Relation::new(2);
        b.push(&[s(1), s(1)]);
        b.push(&[s(2), s(2)]);
        let added = a.extend_from(&b);
        assert_eq!(added, 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.push(&[s(1)]);
    }

    #[test]
    fn distinct_relations_append_without_index() {
        let mut r = Relation::new_distinct(2);
        assert!(!r.is_indexed());
        r.append_distinct(&[s(1), s(2)]);
        r.append_distinct(&[s(2), s(1)]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[s(1), s(2)]), "scan-based contains");
        assert!(!r.contains(&[s(9), s(9)]));
        // Reads behave identically to indexed relations.
        assert_eq!(r.to_sorted_vec().len(), 2);
        assert_eq!(r.project(&[1]).len(), 2);
        let clone = r.clone();
        assert!(!clone.is_indexed());
    }

    #[test]
    #[should_panic(expected = "distinct-by-construction")]
    fn dedup_push_on_distinct_relation_panics() {
        let mut r = Relation::new_distinct(1);
        r.push(&[s(1)]);
    }

    #[test]
    fn extend_from_appends_into_distinct_relations() {
        let mut a = Relation::new_distinct(1);
        a.append_distinct(&[s(1)]);
        let mut b = Relation::new(1);
        b.push(&[s(2)]);
        b.push(&[s(3)]);
        assert_eq!(a.extend_from(&b), 2);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn append_distinct_on_indexed_relation_keeps_index_complete() {
        let mut r = Relation::new(2);
        r.append_distinct(&[s(1), s(2)]);
        // A later dedup push must still see the appended row.
        assert!(!r.push(&[s(1), s(2)]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn forced_hash_collisions_keep_dedup_correct() {
        // Drive the hashed core directly with one constant hash so every row
        // lands in the same bucket chain: push/contains must still
        // distinguish rows by full comparison, and duplicates must still be
        // rejected — correctness cannot lean on hash quality.
        const H: u64 = 0xDEAD_BEEF;
        let mut r = Relation::new(2);
        assert!(r.push_hashed(H, &[s(1), s(2)]));
        assert!(r.push_hashed(H, &[s(3), s(4)]));
        assert!(r.push_hashed(H, &[s(5), s(6)]));
        // A fourth distinct row spills the inline chain and must still work.
        assert!(r.push_hashed(H, &[s(7), s(8)]));
        assert_eq!(r.len(), 4);

        // Duplicates of every colliding row are rejected.
        assert!(!r.push_hashed(H, &[s(1), s(2)]));
        assert!(!r.push_hashed(H, &[s(7), s(8)]));
        assert_eq!(r.len(), 4);

        // Lookups verify the chain row by row.
        assert_eq!(r.position_hashed(H, &[s(3), s(4)]), Some(1));
        assert_eq!(r.position_hashed(H, &[s(5), s(6)]), Some(2));
        assert!(
            r.position_hashed(H, &[s(2), s(1)]).is_none(),
            "colliding ≠ equal"
        );
        assert!(
            r.position_hashed(0, &[s(1), s(2)]).is_none(),
            "wrong hash, no hit"
        );

        // Row storage is untouched by the collisions.
        assert_eq!(r.row(0), &[s(1), s(2)]);
        assert_eq!(r.row(3), &[s(7), s(8)]);
    }

    #[test]
    fn large_relation_remains_duplicate_free() {
        let mut r = Relation::new(2);
        for i in 0..5_000u32 {
            r.push(&[s(i % 100), s(i % 37)]);
        }
        // 100 * 37 = 3700 possible distinct pairs but only pairs with
        // i%100==a && i%37==b for some i < 5000 exist; just check dedup holds.
        let distinct: std::collections::HashSet<Vec<Sym>> =
            r.iter().map(|row| row.to_vec()).collect();
        assert_eq!(distinct.len(), r.len());
    }

    /// A relation of `n` distinct single-column rows `0..n`.
    fn counted(n: usize) -> Relation {
        let mut r = Relation::new(1);
        for i in 0..n {
            r.push(&[s(i as u32)]);
        }
        r
    }

    #[test]
    fn row_addressing_reads_back_every_row() {
        // Tables of one row, a few rows and several `Vec` growths must all
        // read back exactly, through row(), iter(), iter_from() and
        // contains().
        for n in [1, 7, 1023, 2051] {
            let r = counted(n);
            assert_eq!(r.len(), n, "len at {n}");
            for i in [0, n / 2, n - 1] {
                assert_eq!(r.row(i), &[s(i as u32)], "row {i} of {n}");
            }
            let all: Vec<u32> = r.iter().map(|row| row[0].0).collect();
            assert_eq!(all, (0..n as u32).collect::<Vec<_>>(), "iter at {n}");
            for from in [0, 1, n / 2, n - 1, n] {
                let suffix: Vec<u32> = r.iter_from(from).map(|row| row[0].0).collect();
                assert_eq!(
                    suffix,
                    (from as u32..n as u32).collect::<Vec<_>>(),
                    "iter_from({from}) at {n}"
                );
            }
            assert!(r.contains(&[s(0)]) && r.contains(&[s(n as u32 - 1)]));
            assert!(!r.contains(&[s(n as u32)]));
        }
    }

    #[test]
    #[should_panic]
    fn row_past_the_end_panics() {
        // Spare `Vec` capacity past the last row must not read as a row.
        let mut r = counted(3);
        assert!(r.retract_row(&[s(2)]));
        let _ = r.row(2);
    }

    #[test]
    fn checked_row_index_passes_and_panics() {
        assert_eq!(checked_row_index(0), 0);
        assert_eq!(checked_row_index(41), 41);
        assert_eq!(checked_row_index(u32::MAX as usize), u32::MAX);
        let overflow = std::panic::catch_unwind(|| checked_row_index(u32::MAX as usize + 1));
        let msg = *overflow
            .expect_err("row index past u32::MAX must panic, not wrap")
            .downcast::<String>()
            .expect("panic payload");
        assert!(
            msg.contains("exceeds the u32 capacity"),
            "descriptive message, got: {msg}"
        );
    }

    #[test]
    fn retract_rows_removes_and_compacts() {
        let mut r = Relation::new(2);
        r.push(&[s(1), s(2)]);
        r.push(&[s(3), s(4)]);
        r.push(&[s(5), s(6)]);
        let mut gone = Relation::new(2);
        gone.push(&[s(3), s(4)]);
        gone.push(&[s(9), s(9)]); // absent — must not count
        assert_eq!(r.generation(), 0);
        assert_eq!(r.retract_rows(&gone), 1);
        assert_eq!(r.generation(), 1);
        assert_eq!(r.len(), 2, "storage stays dense");
        assert_eq!(r.to_sorted_vec(), vec![vec![s(1), s(2)], vec![s(5), s(6)]]);
        // The dedup index followed the move.
        assert!(!r.push(&[s(1), s(2)]));
        assert!(!r.push(&[s(5), s(6)]));
        assert!(r.push(&[s(3), s(4)]), "retracted row may be re-inserted");
        // No matching rows → no-op, generation unchanged.
        let mut none = Relation::new(2);
        none.push(&[s(7), s(7)]);
        assert_eq!(r.retract_rows(&none), 0);
        assert_eq!(r.generation(), 1);
    }

    #[test]
    fn retract_row_is_the_single_row_form() {
        let mut r = counted(5);
        assert!(r.retract_row(&[s(1)]));
        assert_eq!(r.generation(), 1);
        assert!(!r.retract_row(&[s(1)]), "already gone");
        assert!(!r.retract_row(&[s(77)]), "never there");
        assert_eq!(r.generation(), 1, "a miss opens no generation");
        assert_eq!(r.row(1), &[s(4)], "the last row filled the hole");
        assert!(
            r.retract_row(&[s(3)]),
            "removing the last row moves nothing"
        );
        assert_eq!(r.to_sorted_vec(), vec![vec![s(0)], vec![s(2)], vec![s(4)]]);
        for v in [0, 2, 4] {
            assert!(r.contains(&[s(v)]));
        }
        assert!(!r.contains(&[s(1)]) && !r.contains(&[s(3)]));
        // Down to empty and back up.
        for v in [0, 2, 4] {
            assert!(r.retract_row(&[s(v)]));
        }
        assert!(r.is_empty());
        assert!(r.push(&[s(1)]));
        assert_eq!(r.to_vec(), vec![vec![s(1)]]);
    }

    #[test]
    fn retract_each_reports_every_hole_and_the_row_that_filled_it() {
        // The observer contract cached join builds follow: after each
        // removal `hole` is the slot `row` left, and unless it was the last
        // slot the row formerly at index `len()` now sits there. Absent
        // rows are not reported.
        let mut r = counted(6);
        let gone = [[s(1)], [s(9)], [s(5)], [s(0)], [s(2)]];
        let mut seen = Vec::new();
        let dropped = r.retract_each(gone.iter().map(|g| &g[..]), |rel, hole, row| {
            let filler = (hole < rel.len()).then(|| rel.row(hole)[0].0);
            seen.push((hole, row[0].0, filler, rel.len()));
        });
        assert_eq!(dropped, 4);
        assert_eq!(
            seen,
            vec![
                (1, 1, Some(5), 5),
                (1, 5, Some(4), 4),
                (0, 0, Some(3), 3),
                (2, 2, None, 2),
            ]
        );
        assert_eq!(r.to_vec(), vec![vec![s(3)], vec![s(4)]]);
        assert_eq!(r.generation(), 1, "one call, one generation");
    }

    #[test]
    fn sliding_window_one_row_at_a_time_keeps_exactly_the_window() {
        // Every slide appends one row and swap-removes the oldest; the live
        // set must stay exactly the last `window` rows, for windows that
        // sit on and around a power-of-two `Vec` capacity.
        let slides = 3_000;
        for window in [1, 2, 1023, 1024, 1025] {
            let mut r = counted(window);
            for i in window..window + slides {
                assert!(r.push(&[s(i as u32)]));
                assert!(r.retract_row(&[s((i - window) as u32)]));
                assert_eq!(r.len(), window);
                assert!(r.contains(&[s(i as u32)]));
                assert!(r.contains(&[s((i + 1 - window) as u32)]), "oldest survivor");
                assert!(!r.contains(&[s((i - window) as u32)]));
            }
            let expect: Vec<Vec<Sym>> = (slides..window + slides)
                .map(|i| vec![s(i as u32)])
                .collect();
            assert_eq!(r.to_sorted_vec(), expect, "window {window}");
            assert_eq!(r.generation(), slides as u64);
        }
    }

    #[test]
    fn clones_own_their_rows() {
        // A clone shares the id but not the storage: appends and
        // swap-removes on either side leave the other's rows and dedup
        // index as they were.
        let mut a = counted(5);
        let mut b = a.clone();
        assert!(b.push(&[s(9)]));
        assert!(b.retract_row(&[s(0)]));
        assert_eq!(a.to_vec(), counted(5).to_vec());
        assert_eq!(a.generation(), 0);
        assert!(a.contains(&[s(0)]) && !a.contains(&[s(9)]));

        assert!(a.retract_row(&[s(4)]));
        assert!(a.push(&[s(7)]));
        let expect: Vec<Vec<Sym>> = [1, 2, 3, 4, 9].iter().map(|&v| vec![s(v)]).collect();
        assert_eq!(b.to_sorted_vec(), expect);
        assert!(b.contains(&[s(4)]) && !b.contains(&[s(7)]));
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn appends_after_a_retraction_are_a_suffix_of_the_new_generation() {
        // A retraction opens a generation; from then on the table is
        // append-only again, so a version read in the new generation names
        // a prefix and `iter_from` yields exactly what was appended after.
        let mut r = counted(8);
        assert!(r.retract_row(&[s(2)]));
        let (generation, version) = (r.generation(), r.version());
        assert_eq!(version, 7);
        let prefix = r.to_vec();
        for v in 100..105 {
            assert!(r.push(&[s(v)]));
        }
        assert_eq!(r.generation(), generation, "appends open no generation");
        assert_eq!(r.version(), version + 5);
        assert_eq!(&r.to_vec()[..version], &prefix[..]);
        let suffix: Vec<u32> = r.iter_from(version).map(|row| row[0].0).collect();
        assert_eq!(suffix, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn refilling_after_retraction_reuses_row_storage() {
        // Swap-remove truncates in place: retracting half a table and
        // appending as many fresh rows again neither moves the row storage
        // nor grows its capacity.
        let mut r = counted(1000);
        let (ptr, cap) = (r.rows.as_ptr(), r.rows.capacity());
        let mut gone = Relation::new(1);
        for i in (0..1000).step_by(2) {
            gone.push(&[s(i)]);
        }
        assert_eq!(r.retract_rows(&gone), 500);
        for i in 1000..1500 {
            assert!(r.push(&[s(i)]));
        }
        assert_eq!(r.len(), 1000);
        assert_eq!((r.rows.as_ptr(), r.rows.capacity()), (ptr, cap));
    }

    #[test]
    fn clear_keeps_the_id_and_the_storage() {
        let mut r = counted(100);
        let (id, ptr, cap) = (r.id(), r.rows.as_ptr(), r.rows.capacity());
        r.clear();
        assert!(r.is_empty() && r.index.is_empty());
        assert_eq!(r.generation(), 1);
        assert_eq!((r.id(), r.rows.as_ptr(), r.rows.capacity()), (id, ptr, cap));
        assert!(r.push(&[s(5)]), "the index forgot every row");
        assert!(!r.push(&[s(5)]));
        r.clear();
        r.clear();
        assert_eq!(r.generation(), 2, "clearing an empty relation opens none");
    }

    #[test]
    fn retain_keeps_the_chosen_rows_in_order() {
        let mut r = Relation::new_distinct(2);
        for i in 0..6 {
            r.append_distinct(&[s(i), s(i + 10)]);
        }
        r.retain(|row| row[0].0 % 2 == 1);
        assert_eq!(
            r.to_vec(),
            vec![vec![s(1), s(11)], vec![s(3), s(13)], vec![s(5), s(15)]]
        );
        assert_eq!(r.generation(), 1);
        r.retain(|_| true);
        assert_eq!(r.generation(), 1, "keeping every row opens no generation");
        r.retain(|_| false);
        assert!(r.is_empty());
    }

    #[test]
    fn retracting_every_row_in_any_order_empties_the_index() {
        // Remove the rows of a two-column table in a scrambled order: after
        // each removal exactly the survivors are found, and the last one
        // leaves no bucket behind.
        let n = 97u32;
        let mut r = Relation::new(2);
        for i in 0..n {
            r.push(&[s(i), s(i * 3)]);
        }
        // 31 is coprime to 97, so this visits every row once.
        let order: Vec<u32> = (0..n).map(|k| (k * 31) % n).collect();
        for (done, &i) in order.iter().enumerate() {
            assert!(r.retract_row(&[s(i), s(i * 3)]));
            assert_eq!(r.len(), n as usize - done - 1);
            for &j in &order[..=done] {
                assert!(!r.contains(&[s(j), s(j * 3)]), "{j} left");
            }
            for &j in &order[done + 1..] {
                assert!(r.contains(&[s(j), s(j * 3)]), "{j} survives");
            }
        }
        assert!(r.is_empty());
        assert!(r.index.is_empty());
        assert_eq!(r.generation(), u64::from(n));
    }

    #[test]
    fn retract_rows_on_distinct_relation() {
        let mut r = Relation::new_distinct(1);
        for i in 0..5 {
            r.append_distinct(&[s(i)]);
        }
        let mut gone = Relation::new(1);
        gone.push(&[s(0)]);
        gone.push(&[s(4)]);
        assert_eq!(r.retract_rows(&gone), 2);
        assert_eq!(r.to_sorted_vec(), vec![vec![s(1)], vec![s(2)], vec![s(3)]]);
        assert!(!r.is_indexed());
    }

    #[test]
    fn sliding_window_keeps_the_dedup_index_bounded() {
        // Emptied buckets leave the index, so its size — and with it the
        // relation's heap — follows the window, not the insert total (40
        // windows here). The map keeps the capacity of its fullest moment,
        // at most a doubling while deleted slots are recycled.
        let window = 512;
        let row_bytes = 2 * std::mem::size_of::<Sym>();
        let slot_bytes = std::mem::size_of::<(u64, Bucket)>() + 1;
        let mut r = Relation::new(2);
        for i in 0..40 * window as u32 {
            r.push(&[s(i), s(i + 1)]);
            if i as usize >= window {
                let old = i - window as u32;
                assert!(r.retract_row(&[s(old), s(old + 1)]));
            }
            assert!(r.index.len() <= r.len(), "a bucket per live row at most");
            assert!(
                r.heap_size() <= 4 * window * (row_bytes + slot_bytes),
                "heap {} after {i} inserts is not a small multiple of the window",
                r.heap_size()
            );
        }
        assert_eq!(r.len(), window);
        assert_eq!(r.index.len(), window, "distinct hashes: one bucket per row");
    }

    #[test]
    fn restore_starts_in_the_given_generation() {
        let r = Relation::restore(2, 7);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.generation(), 7);
        assert!(r.is_empty());
        assert!(r.is_indexed(), "restored relations keep the dedup index");

        let mut a = Relation::restore(1, 3);
        let mut b = Relation::restore(1, 3);
        a.push(&[s(1)]);
        b.push(&[s(1)]);
        assert_ne!(a.id(), b.id(), "restored relations get fresh identities");
    }
}

//! Hash joins over [`Relation`]s.
//!
//! The paper's materialization joins are classic build/probe hash joins
//! (Section 4.2, "Caching"): the smaller side is hashed on the join key and
//! the larger side probes it. The build structure ([`JoinBuild`]) is exposed
//! so that the `+` engine variants can cache it across updates and maintain
//! it incrementally as relations grow **and shrink**: appended rows are
//! indexed by [`JoinBuild::update`], retracted rows leave through
//! [`super::cache::JoinCache::retract_rows`].

use std::ops::Range;

use super::fasthash::{hash_projected, hash_syms, relink_row, unlink_row, Bucket, FxHashMap};
use super::Relation;
use crate::interner::Sym;
use crate::memory::HeapSize;

/// A build-side hash table over a relation keyed by a set of columns.
#[derive(Debug, Clone)]
pub struct JoinBuild {
    key_cols: Vec<usize>,
    /// key-hash → row indices (collision chains verified at probe time).
    /// Keyed by the fast [`hash_syms`] key hash; chains stay inline until
    /// they spill.
    buckets: FxHashMap<u64, Bucket>,
    /// Number of rows of the underlying relation already indexed.
    rows_indexed: usize,
    /// Generation of the relation the recorded row indices are valid for. A
    /// retraction moves rows and bumps the relation's generation; a build
    /// that was retracted *through* follows the moves and is restamped, one
    /// that missed them sees the mismatch on its next
    /// [`update`](JoinBuild::update) and starts over.
    generation: u64,
}

impl JoinBuild {
    /// Builds a hash table over `rel` keyed by `key_cols`.
    pub fn build(rel: &Relation, key_cols: &[usize]) -> Self {
        let mut b = JoinBuild {
            key_cols: key_cols.to_vec(),
            buckets: FxHashMap::default(),
            rows_indexed: 0,
            generation: rel.generation(),
        };
        b.update(rel);
        b
    }

    /// The key columns this build is keyed on.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Number of rows already indexed.
    pub fn rows_indexed(&self) -> usize {
        self.rows_indexed
    }

    /// The relation generation this build's row indices are valid for.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Indexes any rows appended to `rel` since the last build/update.
    /// This is the incremental maintenance used by the `+` engines.
    /// Allocation-free except when a collision chain spills: keys are hashed
    /// in place via [`hash_projected`], never materialised. When rows were
    /// retracted from the relation behind this build's back (its generation
    /// differs), the recorded row indices may name moved rows, so the build
    /// starts over from scratch — and returns `true` to say so.
    pub fn update(&mut self, rel: &Relation) -> bool {
        let rebuilt = self.generation != rel.generation();
        if rebuilt {
            self.buckets.clear();
            self.rows_indexed = 0;
            self.generation = rel.generation();
        }
        for i in self.rows_indexed..rel.len() {
            let h = hash_projected(rel.row(i), &self.key_cols);
            self.buckets
                .entry(h)
                .or_default()
                .push(super::checked_row_index(i));
        }
        self.rows_indexed = self.rows_indexed.max(rel.len());
        rebuilt
    }

    /// Replays on this (up-to-date) build one swap-remove `rel` has just
    /// performed: `removed` left slot `hole`, and the row formerly at index
    /// `rel.len()` now sits there (unless it *was* the removed one).
    fn follow_swap_remove(&mut self, rel: &Relation, hole: usize, removed: &[Sym]) {
        let (hole_idx, last_idx) = (
            super::checked_row_index(hole),
            super::checked_row_index(rel.len()),
        );
        let unlinked = unlink_row(
            &mut self.buckets,
            hash_projected(removed, &self.key_cols),
            |&i| i == hole_idx,
        );
        debug_assert!(unlinked.is_some(), "an up-to-date build indexes every row");
        if hole_idx != last_idx {
            let h = hash_projected(rel.row(hole), &self.key_cols);
            let relinked = relink_row(&mut self.buckets, h, last_idx, hole_idx);
            debug_assert!(relinked, "an up-to-date build indexes every row");
        }
    }

    /// Returns the indices of rows of `rel` whose key equals `key`
    /// (hash collisions are verified).
    ///
    /// Allocates the result vector; hot paths should use the
    /// zero-allocation [`probe_iter`](Self::probe_iter) /
    /// [`probe_each`](Self::probe_each) instead.
    pub fn probe(&self, rel: &Relation, key: &[Sym]) -> Vec<usize> {
        self.probe_iter(rel, key).collect()
    }

    /// Zero-allocation probe: iterates over the indices of rows of `rel`
    /// whose key equals `key`, borrowing the bucket's collision chain
    /// directly (hash collisions are verified row by row).
    #[inline]
    pub fn probe_iter<'a>(&'a self, rel: &'a Relation, key: &'a [Sym]) -> ProbeIter<'a> {
        self.probe_below(rel, rel.len(), key)
    }

    /// [`probe_iter`](Self::probe_iter) over the rows of `rel` below
    /// `limit` only.
    #[inline]
    fn probe_below<'a>(&'a self, rel: &'a Relation, limit: usize, key: &'a [Sym]) -> ProbeIter<'a> {
        debug_assert_eq!(key.len(), self.key_cols.len());
        let chain = self
            .buckets
            .get(&hash_syms(key))
            .map(Bucket::as_slice)
            .unwrap_or(&[]);
        ProbeIter {
            chain,
            rel,
            limit,
            key_cols: &self.key_cols,
            key,
        }
    }

    /// Zero-allocation probe: invokes `f` with each matching row index.
    /// Convenient when the iterator's borrow of `key` is awkward.
    #[inline]
    pub fn probe_each(&self, rel: &Relation, key: &[Sym], mut f: impl FnMut(usize)) {
        for idx in self.probe_iter(rel, key) {
            f(idx);
        }
    }
}

/// Borrowing iterator over verified probe hits — see
/// [`JoinBuild::probe_iter`].
#[derive(Debug, Clone)]
pub struct ProbeIter<'a> {
    chain: &'a [u32],
    rel: &'a Relation,
    /// Hits at or past this row index are skipped.
    limit: usize,
    key_cols: &'a [usize],
    key: &'a [Sym],
}

impl<'a> Iterator for ProbeIter<'a> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while let Some((&i, rest)) = self.chain.split_first() {
            self.chain = rest;
            let i = i as usize;
            // Rows past the limit are not in the version probed: a prefix
            // of the relation, or a shorter clone of a cached build's.
            if i < self.limit {
                let row = self.rel.row(i);
                if self
                    .key_cols
                    .iter()
                    .zip(self.key)
                    .all(|(&c, &k)| row[c] == k)
                {
                    return Some(i);
                }
            }
        }
        None
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.chain.len()))
    }
}

impl HeapSize for JoinBuild {
    fn heap_size(&self) -> usize {
        self.key_cols.heap_size() + self.buckets.heap_size()
    }
}

/// Retracts `rows` from `rel` through `builds` (all of them builds over
/// `rel`), the core of [`super::cache::JoinCache::retract_rows`]: the
/// builds are first brought up to date, then follow each swap-remove (the
/// removed row's entry goes, the moved row's entry is renumbered) and are
/// restamped with the relation's new generation. Returns how many rows were
/// removed and how many builds were behind on generation and had to start
/// over before they could follow.
pub(super) fn retract_through<'r>(
    rel: &mut Relation,
    rows: impl IntoIterator<Item = &'r [Sym]>,
    builds: &mut [JoinBuild],
) -> (usize, u64) {
    // Row indices are about to shift, so appends the builds have not seen
    // yet must be indexed now, under the numbering they were made in.
    let mut rebuilt = 0;
    for build in builds.iter_mut() {
        rebuilt += u64::from(build.update(rel));
    }
    let dropped = rel.retract_each(rows, |rel, hole, row| {
        for build in builds.iter_mut() {
            build.follow_swap_remove(rel, hole, row);
        }
    });
    for build in builds.iter_mut() {
        build.generation = rel.generation();
        // Set, not `max`: the relation shrank, and the next appended rows
        // reuse the indices just vacated.
        build.rows_indexed = rel.len();
    }
    (dropped, rebuilt)
}

/// Extracts the join key of a row.
fn key_of(row: &[Sym], cols: &[usize], buf: &mut Vec<Sym>) {
    buf.clear();
    buf.extend(cols.iter().map(|&c| row[c]));
}

/// Output schema of [`hash_join`]: all columns of the left side, followed by
/// the columns of the right side that are **not** join keys, in order.
pub fn join_output_arity(left: &Relation, right: &Relation, right_keys: &[usize]) -> usize {
    left.arity() + right.arity() - right_keys.len()
}

/// Joins `left` and `right` on `left_keys[i] == right_keys[i]` using a
/// freshly built hash table over `right`. The result is a
/// [`Relation::new_distinct`] table: extend it with
/// [`Relation::append_distinct`], not `push`.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Relation {
    let build = JoinBuild::build(right, right_keys);
    hash_join_with_build(left, right, left_keys, right_keys, &build)
}

/// Which rows of a relation one side of a join reads: the whole relation,
/// or one version of a relation that a run of updates changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Version<'a> {
    /// Every row.
    All,
    /// The rows below this index: the relation at that
    /// [`Relation::version`], before an insertion run appended its tail.
    Below(usize),
    /// Every row but those at these positions (ascending): the relation
    /// once a retraction run has removed them.
    Without(&'a [u32]),
}

impl<'a> Version<'a> {
    /// Number of rows of `rel` in this version.
    pub(crate) fn len(self, rel: &Relation) -> usize {
        match self {
            Version::Without(gone) => rel.len() - gone.len(),
            version => version.end(rel.len()),
        }
    }

    /// One past the last row index in this version of a `len`-row relation.
    fn end(self, len: usize) -> usize {
        match self {
            Version::Below(n) => n.min(len),
            Version::All | Version::Without(_) => len,
        }
    }

    /// The row indices of this version of a `len`-row relation, as
    /// ascending ranges: one for a prefix, one per gap for a `Without`.
    pub(crate) fn ranges(self, len: usize) -> impl Iterator<Item = Range<usize>> + 'a {
        let gone: &[u32] = match self {
            Version::Without(gone) => gone,
            _ => &[],
        };
        let starts = std::iter::once(0).chain(gone.iter().map(|&g| g as usize + 1));
        let ends = gone
            .iter()
            .map(|&g| g as usize)
            .chain(std::iter::once(self.end(len)));
        starts.zip(ends).map(|(start, end)| start..end)
    }
}

/// The probe loop of every hash join — the single copy of the hot loop:
/// probes `build` (over the whole of `right`, fresh or cached) with the rows
/// of `left` and hands each matching `(left row, right row)` pair to `emit`.
/// Each side reads one [`Version`] of its relation: `left` through the row
/// ranges it iterates, `right` through the hits it keeps. A hit past a
/// prefix costs nothing extra (every hit is bound-checked anyway), and the
/// per-hit position check of a [`Version::Without`] is compiled only into
/// that case, so reading all of `right` pays for neither.
#[inline]
fn probe_pairs(
    left: (&Relation, Version<'_>),
    (right, right_version): (&Relation, Version<'_>),
    left_keys: &[usize],
    build: &JoinBuild,
    emit: impl FnMut(&[Sym], &[Sym]),
) {
    assert_eq!(left_keys.len(), build.key_cols().len());
    if build.rows_indexed() == 0 {
        return;
    }
    let limit = right_version.end(right.len());
    match right_version {
        Version::Without(gone) => probe_kept(left, right, limit, left_keys, build, emit, |i| {
            gone.binary_search(&(i as u32)).is_err()
        }),
        Version::All | Version::Below(_) => {
            probe_kept(left, right, limit, left_keys, build, emit, |_| true)
        }
    }
}

/// The body of [`probe_pairs`]: emits the hits below `limit` that `keep`
/// accepts.
#[inline]
fn probe_kept(
    (left, left_version): (&Relation, Version<'_>),
    right: &Relation,
    limit: usize,
    left_keys: &[usize],
    build: &JoinBuild,
    mut emit: impl FnMut(&[Sym], &[Sym]),
    keep: impl Fn(usize) -> bool,
) {
    let mut key = Vec::with_capacity(left_keys.len());
    for range in left_version.ranges(left.len()) {
        for lrow in left.iter_range(range) {
            key_of(lrow, left_keys, &mut key);
            for ridx in build.probe_below(right, limit, &key) {
                if keep(ridx) {
                    emit(lrow, right.row(ridx));
                }
            }
        }
    }
}

/// Probes `build` with `left` and assembles the output rows, each side read
/// at its [`Version`].
///
/// A join of two sets is a set — an output row determines its left row
/// (the prefix) and its right row (key columns equal to the left's, the
/// rest appended) — so the output is a [`Relation::new_distinct`] table and
/// skips the dedup hashing per row.
pub(crate) fn probe_join(
    left: (&Relation, Version<'_>),
    right: (&Relation, Version<'_>),
    left_keys: &[usize],
    build: &JoinBuild,
) -> Relation {
    let (left_rel, right_rel) = (left.0, right.0);
    let out_arity = join_output_arity(left_rel, right_rel, build.key_cols());
    let mut out = Relation::new_distinct(out_arity);
    let extra_cols: Vec<usize> = (0..right_rel.arity())
        .filter(|c| !build.key_cols().contains(c))
        .collect();
    let mut row_buf = vec![Sym(0); out_arity];
    probe_pairs(left, right, left_keys, build, |lrow, rrow| {
        row_buf[..lrow.len()].copy_from_slice(lrow);
        for (slot, &c) in row_buf[lrow.len()..].iter_mut().zip(&extra_cols) {
            *slot = rrow[c];
        }
        out.append_distinct(&row_buf);
    });
    out
}

/// The number of rows [`probe_join`] would return, without building them:
/// the join is a set, so its size is its number of probe hits.
pub(crate) fn probe_count(
    left: (&Relation, Version<'_>),
    right: (&Relation, Version<'_>),
    left_keys: &[usize],
    build: &JoinBuild,
) -> usize {
    let mut hits = 0;
    probe_pairs(left, right, left_keys, build, |_, _| hits += 1);
    hits
}

/// Joins `left` and `right` re-using an existing (possibly cached) build over
/// `right` keyed by `right_keys`.
pub fn hash_join_with_build(
    left: &Relation,
    right: &Relation,
    left_keys: &[usize],
    right_keys: &[usize],
    build: &JoinBuild,
) -> Relation {
    debug_assert_eq!(build.key_cols(), right_keys);
    probe_join(
        (left, Version::All),
        (right, Version::All),
        left_keys,
        build,
    )
}

/// Reference nested-loop join used to validate [`hash_join`] in property
/// tests. Never used on hot paths.
pub fn nested_loop_join(
    left: &Relation,
    right: &Relation,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Relation {
    let out_arity = join_output_arity(left, right, right_keys);
    let mut out = Relation::new(out_arity);
    let extra_cols: Vec<usize> = (0..right.arity())
        .filter(|c| !right_keys.contains(c))
        .collect();
    for lrow in left.iter() {
        for rrow in right.iter() {
            if left_keys
                .iter()
                .zip(right_keys)
                .all(|(&lc, &rc)| lrow[lc] == rrow[rc])
            {
                let mut row = lrow.to_vec();
                row.extend(extra_cols.iter().map(|&c| rrow[c]));
                out.push(&row);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u32) -> Sym {
        Sym(v)
    }

    fn rel(arity: usize, rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(arity);
        for row in rows {
            let row: Vec<Sym> = row.iter().map(|&v| s(v)).collect();
            r.push(&row);
        }
        r
    }

    #[test]
    fn simple_equijoin() {
        let left = rel(2, &[&[1, 2], &[3, 4], &[5, 2]]);
        let right = rel(2, &[&[2, 10], &[4, 20]]);
        // join left.col1 == right.col0
        let out = hash_join(&left, &right, &[1], &[0]);
        assert_eq!(out.arity(), 3);
        let mut rows = out.to_sorted_vec();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![s(1), s(2), s(10)],
                vec![s(3), s(4), s(20)],
                vec![s(5), s(2), s(10)],
            ]
        );
    }

    #[test]
    fn join_with_no_matches_is_empty() {
        let left = rel(1, &[&[1], &[2]]);
        let right = rel(2, &[&[7, 8]]);
        let out = hash_join(&left, &right, &[0], &[0]);
        assert!(out.is_empty());
    }

    #[test]
    fn join_on_multiple_keys() {
        let left = rel(3, &[&[1, 2, 3], &[1, 2, 4], &[9, 9, 9]]);
        let right = rel(3, &[&[1, 2, 100], &[9, 8, 200]]);
        let out = hash_join(&left, &right, &[0, 1], &[0, 1]);
        assert_eq!(out.arity(), 4);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&[s(1), s(2), s(3), s(100)]));
        assert!(out.contains(&[s(1), s(2), s(4), s(100)]));
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let left = rel(2, &[&[1, 1], &[1, 2], &[2, 2], &[3, 1], &[4, 4]]);
        let right = rel(2, &[&[1, 5], &[2, 6], &[2, 7], &[9, 9]]);
        let a = hash_join(&left, &right, &[1], &[0]);
        let b = nested_loop_join(&left, &right, &[1], &[0]);
        assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
    }

    #[test]
    fn incremental_build_update_sees_new_rows() {
        let mut right = rel(2, &[&[1, 10]]);
        let mut build = JoinBuild::build(&right, &[0]);
        assert_eq!(build.probe(&right, &[s(1)]).len(), 1);
        right.push(&[s(1), s(11)]);
        right.push(&[s(2), s(12)]);
        assert_eq!(build.probe(&right, &[s(1)]).len(), 1, "stale before update");
        build.update(&right);
        assert_eq!(build.probe(&right, &[s(1)]).len(), 2);
        assert_eq!(build.probe(&right, &[s(2)]).len(), 1);
        assert_eq!(build.rows_indexed(), 3);
    }

    #[test]
    fn cached_build_join_equals_fresh_join() {
        let left = rel(2, &[&[1, 2], &[3, 2], &[5, 6]]);
        let mut right = rel(2, &[&[2, 10]]);
        let mut build = JoinBuild::build(&right, &[0]);
        right.push(&[s(6), s(60)]);
        build.update(&right);
        let cached = hash_join_with_build(&left, &right, &[1], &[0], &build);
        let fresh = hash_join(&left, &right, &[1], &[0]);
        assert_eq!(cached.to_sorted_vec(), fresh.to_sorted_vec());
    }

    #[test]
    fn probe_iter_and_probe_each_match_probe() {
        let r = rel(2, &[&[1, 10], &[1, 11], &[2, 20], &[3, 30]]);
        let build = JoinBuild::build(&r, &[0]);
        for key in 0u32..5 {
            let vec_api = build.probe(&r, &[s(key)]);
            let iter_api: Vec<usize> = build.probe_iter(&r, &[s(key)]).collect();
            let mut each_api = Vec::new();
            build.probe_each(&r, &[s(key)], |i| each_api.push(i));
            assert_eq!(vec_api, iter_api, "key {key}");
            assert_eq!(vec_api, each_api, "key {key}");
        }
        assert_eq!(build.probe(&r, &[s(1)]).len(), 2);
    }

    #[test]
    fn probe_iter_skips_rows_past_relation_length() {
        // A build over a longer relation probed against a shorter clone must
        // not yield out-of-range indices.
        let mut long = rel(2, &[&[1, 10]]);
        let short = long.clone();
        long.push(&[s(1), s(11)]);
        let build = JoinBuild::build(&long, &[0]);
        assert_eq!(build.probe_iter(&long, &[s(1)]).count(), 2);
        assert_eq!(build.probe_iter(&short, &[s(1)]).count(), 1);
    }

    #[test]
    fn update_is_idempotent_when_no_rows_were_added() {
        let r = rel(2, &[&[1, 10], &[2, 20]]);
        let mut build = JoinBuild::build(&r, &[0]);
        build.update(&r);
        build.update(&r);
        assert_eq!(build.rows_indexed(), 2);
        assert_eq!(build.probe(&r, &[s(1)]).len(), 1, "no duplicate indexing");
    }

    #[test]
    fn incremental_update_indexes_the_rows_appended_past_a_large_prefix() {
        // Index a 1023-row prefix, then append three rows with a fresh key
        // (the table's storage grows past its capacity on the way): the
        // update indexes exactly the suffix.
        const PREFIX: u32 = 1023;
        let mut right = Relation::new(2);
        for i in 0..PREFIX {
            right.push(&[s(i % 5), s(1000 + i)]);
        }
        let mut build = JoinBuild::build(&right, &[0]);
        assert_eq!(build.probe(&right, &[s(7)]).len(), 0);
        for i in 0..3 {
            right.push(&[s(7), s(5000 + i)]);
        }
        build.update(&right);
        assert_eq!(build.rows_indexed(), PREFIX as usize + 3);
        assert_eq!(build.probe(&right, &[s(7)]).len(), 3);
    }

    #[test]
    fn update_rebuilds_after_compaction() {
        let mut r = rel(2, &[&[1, 10], &[2, 20], &[3, 30]]);
        let mut build = JoinBuild::build(&r, &[0]);
        // Retract the middle row behind the build's back: the last row
        // moves into its slot, so the old build would probe row 1 expecting
        // key 2 and find key 3.
        let gone = rel(2, &[&[2, 20]]);
        r.retract_rows(&gone);
        build.update(&r);
        assert_eq!(build.generation(), r.generation());
        assert_eq!(build.probe(&r, &[s(2)]).len(), 0);
        assert_eq!(build.probe(&r, &[s(3)]).len(), 1, "moved row found");
        assert_eq!(build.rows_indexed(), 2);
    }

    #[test]
    fn probe_verifies_collisions() {
        // Construct many keys; even if two hash to the same bucket the probe
        // must not return rows with a different key.
        let rows: Vec<Vec<u32>> = (0..2000).map(|i| vec![i, i + 1]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let r = rel(2, &refs);
        let build = JoinBuild::build(&r, &[0]);
        for i in (0..2000).step_by(97) {
            let hits = build.probe(&r, &[s(i)]);
            assert_eq!(hits.len(), 1);
            assert_eq!(r.row(hits[0])[0], s(i));
        }
    }
}

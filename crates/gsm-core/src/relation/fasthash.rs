//! Fast non-cryptographic hashing and inline-capacity bucket chains for the
//! join hot path.
//!
//! Every row insert and every join probe hashes a short sequence of [`Sym`]s.
//! `DefaultHasher` (SipHash-1-3) is a poor fit for that: it is keyed against
//! HashDoS, which the engines do not need (symbols are dense interner ids,
//! not attacker-controlled strings), and it costs tens of cycles per row.
//! This module provides the FxHash-style multiply-rotate hasher used by
//! rustc (`rustc-hash`), vendored here so the workspace keeps its
//! `#![forbid(unsafe_code)]` guarantee and zero external dependencies:
//!
//! * [`hash_syms`] / [`hash_projected`] — direct row/key hashing without the
//!   `Hash`-trait indirection or any key materialisation buffer;
//! * [`FxHasher`] / [`FxBuildHasher`] and the [`FxHashMap`] / [`FxHashSet`]
//!   aliases — drop-in `std::collections` replacements for hash-indexed
//!   engine state;
//! * [`Bucket`] — a collision chain of row indices that stores up to
//!   [`INLINE_BUCKET`] entries inline and only spills to the heap beyond
//!   that, so the common short chain costs no allocation at all.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

use crate::interner::Sym;
use crate::memory::HeapSize;

/// The FxHash multiplier (the golden-ratio-derived constant used by rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Hashes a row of symbols directly — no `Hash` trait, no length prefix, no
/// intermediate buffer. The hot-path replacement for
/// `DefaultHasher + row.hash(..)`.
#[inline]
pub fn hash_syms(row: &[Sym]) -> u64 {
    let mut h = 0u64;
    for &s in row {
        h = mix(h, s.0 as u64);
    }
    h
}

/// Hashes the projection `row[cols[0]], row[cols[1]], …` without
/// materialising the key, producing the same value [`hash_syms`] would for
/// the extracted key. This is what lets [`super::join::JoinBuild`] index and
/// probe with zero per-row allocations.
#[inline]
pub fn hash_projected(row: &[Sym], cols: &[usize]) -> u64 {
    let mut h = 0u64;
    for &c in cols {
        h = mix(h, row[c].0 as u64);
    }
    h
}

/// An FxHash-style streaming hasher implementing [`std::hash::Hasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8 bytes at a time, then the remainder as one word.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            self.hash = mix(self.hash, word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.hash = mix(self.hash, u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.hash = mix(self.hash, i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.hash = mix(self.hash, i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = mix(self.hash, i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.hash = mix(self.hash, i as u64);
    }
}

/// [`BuildHasher`] for [`FxHasher`], usable as the `S` parameter of the
/// standard hash collections.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Number of row indices a [`Bucket`] stores inline before spilling.
pub const INLINE_BUCKET: usize = 3;

/// A collision chain of row indices with inline capacity.
///
/// Hash indexes over duplicate-free relations have overwhelmingly short
/// chains (usually length 1: one row per distinct key-hash). Storing the
/// first [`INLINE_BUCKET`] indices inside the map entry removes the per-key
/// `Vec` allocation the previous `HashMap<u64, Vec<u32>>` layout paid; only
/// genuinely skewed keys (many rows sharing a join key) spill to the heap.
#[derive(Debug, Clone)]
pub enum Bucket {
    /// Up to [`INLINE_BUCKET`] indices stored inline.
    Inline {
        /// Number of occupied slots.
        len: u8,
        /// The slots; only `..len` are meaningful.
        rows: [u32; INLINE_BUCKET],
    },
    /// A chain that outgrew the inline capacity.
    Spilled(Vec<u32>),
}

impl Default for Bucket {
    #[inline]
    fn default() -> Self {
        Bucket::Inline {
            len: 0,
            rows: [0; INLINE_BUCKET],
        }
    }
}

impl Bucket {
    /// Appends a row index to the chain.
    #[inline]
    pub fn push(&mut self, idx: u32) {
        match self {
            Bucket::Inline { len, rows } => {
                if (*len as usize) < INLINE_BUCKET {
                    rows[*len as usize] = idx;
                    *len += 1;
                } else {
                    let mut spill = Vec::with_capacity(INLINE_BUCKET * 2);
                    spill.extend_from_slice(&rows[..]);
                    spill.push(idx);
                    *self = Bucket::Spilled(spill);
                }
            }
            Bucket::Spilled(v) => v.push(idx),
        }
    }

    /// Removes the entry at chain position `pos` by moving the chain's last
    /// entry into its place (chain order carries no meaning) and returns
    /// the removed row index. A spilled chain stays spilled. Panics if
    /// `pos` is out of range.
    #[inline]
    pub fn swap_remove(&mut self, pos: usize) -> u32 {
        match self {
            Bucket::Inline { len, rows } => {
                let live = &mut rows[..*len as usize];
                let removed = live[pos];
                live[pos] = live[live.len() - 1];
                *len -= 1;
                removed
            }
            Bucket::Spilled(v) => v.swap_remove(pos),
        }
    }

    /// The chain as a contiguous borrowed slice.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        match self {
            Bucket::Inline { len, rows } => &rows[..*len as usize],
            Bucket::Spilled(v) => v,
        }
    }

    /// The chain as a mutable slice: entries may be rewritten in place (a
    /// row that moved keeps its chain slot), never added or removed.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        match self {
            Bucket::Inline { len, rows } => &mut rows[..*len as usize],
            Bucket::Spilled(v) => v,
        }
    }

    /// Number of indices in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if the chain is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Removes from the chain at `map[h]` the first row index `is_target`
/// accepts and returns it, dropping the bucket when that empties it — a map
/// that rows leave as well as enter must not keep one dead bucket per key
/// it has ever seen. `None` (and no change) when there is no such entry.
pub(crate) fn unlink_row(
    map: &mut FxHashMap<u64, Bucket>,
    h: u64,
    is_target: impl FnMut(&u32) -> bool,
) -> Option<u32> {
    let Entry::Occupied(mut bucket) = map.entry(h) else {
        return None;
    };
    let pos = bucket.get().as_slice().iter().position(is_target)?;
    let removed = bucket.get_mut().swap_remove(pos);
    if bucket.get().is_empty() {
        bucket.remove();
    }
    Some(removed)
}

/// Rewrites the entry `old` of the chain at `map[h]` to `new`: the row it
/// names moved. Returns false (and changes nothing) when the chain holds no
/// such entry.
pub(crate) fn relink_row(map: &mut FxHashMap<u64, Bucket>, h: u64, old: u32, new: u32) -> bool {
    let slot = map
        .get_mut(&h)
        .and_then(|bucket| bucket.as_mut_slice().iter_mut().find(|i| **i == old));
    match slot {
        Some(slot) => {
            *slot = new;
            true
        }
        None => false,
    }
}

impl HeapSize for Bucket {
    fn heap_size(&self) -> usize {
        match self {
            Bucket::Inline { .. } => 0,
            Bucket::Spilled(v) => v.heap_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_syms_distinguishes_rows() {
        let a = hash_syms(&[Sym(1), Sym(2)]);
        let b = hash_syms(&[Sym(2), Sym(1)]);
        let c = hash_syms(&[Sym(1), Sym(2)]);
        assert_ne!(a, b, "order must matter");
        assert_eq!(a, c, "hashing is deterministic");
    }

    #[test]
    fn hash_projected_matches_materialised_key() {
        let row = [Sym(10), Sym(20), Sym(30)];
        assert_eq!(
            hash_projected(&row, &[2, 0]),
            hash_syms(&[Sym(30), Sym(10)])
        );
        assert_eq!(hash_projected(&row, &[1]), hash_syms(&[Sym(20)]));
        assert_eq!(hash_projected(&row, &[]), hash_syms(&[]));
    }

    #[test]
    fn fx_hasher_streams_like_word_writes() {
        // write() of a full 8-byte word must agree with write_u64.
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fx_hash_map_works() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&21], 42);
    }

    #[test]
    fn bucket_stays_inline_then_spills() {
        let mut b = Bucket::default();
        assert!(b.is_empty());
        for i in 0..INLINE_BUCKET as u32 {
            b.push(i);
            assert!(matches!(b, Bucket::Inline { .. }), "inline up to capacity");
        }
        assert_eq!(b.as_slice(), &[0, 1, 2]);
        b.push(99);
        assert!(matches!(b, Bucket::Spilled(_)), "spills beyond capacity");
        assert_eq!(b.as_slice(), &[0, 1, 2, 99]);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn unlink_drops_emptied_buckets_and_relink_rewrites_in_place() {
        let mut map: FxHashMap<u64, Bucket> = FxHashMap::default();
        for i in 0..5 {
            map.entry(7).or_default().push(i); // spills at the fourth
        }
        map.entry(9).or_default().push(40);

        assert_eq!(unlink_row(&mut map, 7, |&i| i == 1), Some(1));
        assert_eq!(
            map[&7].as_slice(),
            &[0, 4, 2, 3],
            "last entry fills the gap"
        );
        assert_eq!(unlink_row(&mut map, 7, |&i| i == 1), None, "already gone");
        assert_eq!(unlink_row(&mut map, 8, |_| true), None, "no such bucket");

        assert!(relink_row(&mut map, 7, 4, 1));
        assert_eq!(map[&7].as_slice(), &[0, 1, 2, 3]);
        assert!(!relink_row(&mut map, 7, 4, 1), "old entry no longer there");
        assert!(!relink_row(&mut map, 8, 0, 1));

        // An inline chain shrinks the same way, and the bucket that empties
        // leaves the map.
        assert_eq!(unlink_row(&mut map, 9, |_| true), Some(40));
        assert!(!map.contains_key(&9));
        for _ in 0..4 {
            unlink_row(&mut map, 7, |_| true);
        }
        assert!(map.is_empty());
    }

    #[test]
    fn hash_distribution_is_reasonable() {
        // Dense symbol ids must not collapse into few buckets.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            seen.insert(hash_syms(&[Sym(i), Sym(i + 1)]));
        }
        assert_eq!(seen.len(), 10_000, "no collisions on dense ids");
    }
}

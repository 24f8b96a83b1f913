//! Heap-size accounting.
//!
//! The paper's Figure 13(c) compares the main-memory requirements of every
//! engine. Since the engines are plain in-memory data structures, we estimate
//! their footprint by walking them with the [`HeapSize`] trait: the *heap*
//! bytes owned by a value (excluding the size of the value itself, which is
//! accounted for by the parent container).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Estimates the number of heap bytes transitively owned by a value.
pub trait HeapSize {
    /// Heap bytes owned by `self` (not counting `size_of::<Self>()`).
    fn heap_size(&self) -> usize;

    /// Heap bytes plus the inline size of the value itself.
    fn total_size(&self) -> usize
    where
        Self: Sized,
    {
        self.heap_size() + std::mem::size_of::<Self>()
    }
}

macro_rules! impl_heap_size_zero {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            #[inline]
            fn heap_size(&self) -> usize { 0 }
        })*
    };
}

impl_heap_size_zero!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl HeapSize for String {
    fn heap_size(&self) -> usize {
        self.capacity()
    }
}

impl HeapSize for Box<str> {
    fn heap_size(&self) -> usize {
        self.len()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_size(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_size)
    }
}

impl<T: HeapSize> HeapSize for Box<T> {
    fn heap_size(&self) -> usize {
        std::mem::size_of::<T>() + self.as_ref().heap_size()
    }
}

impl<T: HeapSize> HeapSize for std::sync::Arc<T> {
    /// Attributes the full payload to every handle (shared ownership is not
    /// tracked), plus the two reference counts of the Arc header.
    fn heap_size(&self) -> usize {
        std::mem::size_of::<T>() + 2 * std::mem::size_of::<usize>() + self.as_ref().heap_size()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_size(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<T: HeapSize, const N: usize> HeapSize for [T; N] {
    fn heap_size(&self) -> usize {
        self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size()
    }
}

impl<A: HeapSize, B: HeapSize, C: HeapSize> HeapSize for (A, B, C) {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size() + self.2.heap_size()
    }
}

impl<K: HeapSize, V: HeapSize, S> HeapSize for HashMap<K, V, S> {
    fn heap_size(&self) -> usize {
        // Approximation: hashbrown stores (K, V) pairs plus one control byte
        // per bucket; capacity() underestimates raw buckets slightly.
        self.capacity() * (std::mem::size_of::<K>() + std::mem::size_of::<V>() + 1)
            + self
                .iter()
                .map(|(k, v)| k.heap_size() + v.heap_size())
                .sum::<usize>()
    }
}

impl<K: HeapSize, S> HeapSize for HashSet<K, S> {
    fn heap_size(&self) -> usize {
        self.capacity() * (std::mem::size_of::<K>() + 1)
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<K: HeapSize, V: HeapSize> HeapSize for BTreeMap<K, V> {
    fn heap_size(&self) -> usize {
        self.len() * (std::mem::size_of::<K>() + std::mem::size_of::<V>() + 16)
            + self
                .iter()
                .map(|(k, v)| k.heap_size() + v.heap_size())
                .sum::<usize>()
    }
}

impl<K: HeapSize> HeapSize for BTreeSet<K> {
    fn heap_size(&self) -> usize {
        self.len() * (std::mem::size_of::<K>() + 16)
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<T: HeapSize + ?Sized> HeapSize for &T {
    fn heap_size(&self) -> usize {
        0
    }
}

/// Formats a byte count the way the paper's memory table does (MB with one
/// decimal, or KB below one megabyte).
pub fn format_bytes(bytes: usize) -> String {
    const MB: f64 = 1024.0 * 1024.0;
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= MB {
        format!("{:.1}MB", b / MB)
    } else if b >= KB {
        format!("{:.1}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_no_heap() {
        assert_eq!(42u64.heap_size(), 0);
        assert_eq!(true.heap_size(), 0);
    }

    #[test]
    fn vec_accounts_capacity() {
        let v: Vec<u64> = Vec::with_capacity(128);
        assert_eq!(v.heap_size(), 128 * 8);
        let v = vec![1u64, 2, 3];
        assert!(v.heap_size() >= 24);
    }

    #[test]
    fn nested_containers_accumulate() {
        let v = vec![vec![1u32; 10], vec![2u32; 20]];
        assert!(v.heap_size() >= 10 * 4 + 20 * 4);
    }

    #[test]
    fn string_heap_is_capacity() {
        let s = String::from("hello world");
        assert!(s.heap_size() >= 11);
    }

    #[test]
    fn map_heap_grows() {
        let mut m: HashMap<u32, Vec<u32>> = HashMap::new();
        let empty = m.heap_size();
        for i in 0..100 {
            m.insert(i, vec![i; 10]);
        }
        assert!(m.heap_size() > empty + 100 * 10 * 4);
    }

    #[test]
    fn btree_set_heap_grows_per_key() {
        let mut set: BTreeSet<u32> = BTreeSet::new();
        assert_eq!(set.heap_size(), 0);
        set.extend(0..10);
        assert!(set.heap_size() >= 10 * 4);
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512B");
        assert_eq!(format_bytes(2048), "2.0KB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0MB");
    }
}

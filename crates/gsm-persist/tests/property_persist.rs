//! Property-based tests for the persistence codecs and the WAL reader.
//!
//! Two families:
//!
//! * **Round trips** — arbitrary signed update batches, query patterns,
//!   symbol tables and relations (large ones included) survive encode → decode
//!   bit-exactly: the decoded value re-encodes to the identical byte string
//!   and compares equal field by field.
//! * **Torn tails** — a WAL image cut at *any* byte offset still reads
//!   cleanly: the reader returns a strict prefix of the written records and
//!   a valid-prefix offset that is itself a fixed point (truncating to it
//!   and re-reading changes nothing). A single flipped bit anywhere in the
//!   image likewise never panics and never yields a record that was not
//!   written.

use proptest::prelude::*;

use gsm_core::interner::{Sym, SymbolTable};
use gsm_core::model::term::{PatternEdge, Term};
use gsm_core::model::update::Update;
use gsm_core::query::pattern::QueryPattern;
use gsm_core::relation::Relation;
use gsm_persist::codec::{self, Cursor};
use gsm_persist::wal::{self, WalOp, WalRecord};
use gsm_persist::{MemStorage, Storage, Wal};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn update_strategy() -> impl Strategy<Value = Update> {
    (0u32..64, 0u32..512, 0u32..512, any::<bool>()).prop_map(|(label, src, tgt, retract)| {
        if retract {
            Update::retraction(Sym(label), Sym(src), Sym(tgt))
        } else {
            Update::new(Sym(label), Sym(src), Sym(tgt))
        }
    })
}

fn batch_strategy() -> impl Strategy<Value = Vec<Update>> {
    proptest::collection::vec(update_strategy(), 0..=80)
}

/// A connected query pattern (same construction as the core property
/// suite): every edge anchors on a variable vertex already in use.
fn pattern_strategy() -> impl Strategy<Value = QueryPattern> {
    let edge = (0u32..4, 0u32..6, 0u32..6, any::<bool>(), any::<bool>());
    proptest::collection::vec(edge, 1..=6).prop_map(|specs| {
        let mut edges = Vec::new();
        let mut used: Vec<u32> = vec![0];
        for (label, a, b, other_const, flip) in specs {
            let anchor = used[(a as usize) % used.len()];
            let anchor_term = Term::Var(anchor);
            let other_term = if other_const {
                Term::Const(Sym(1000 + b))
            } else {
                if !used.contains(&b) {
                    used.push(b);
                }
                Term::Var(b)
            };
            let (src, tgt) = if flip {
                (other_term, anchor_term)
            } else {
                (anchor_term, other_term)
            };
            edges.push(PatternEdge::new(Sym(label), src, tgt));
        }
        QueryPattern::from_edges(edges).expect("constructed patterns are connected")
    })
}

fn relation_strategy() -> impl Strategy<Value = Relation> {
    // The vendored proptest stand-in has no flat_map: draw rows at the
    // maximum arity and truncate each to the drawn arity instead.
    (
        1usize..=4,
        0u64..8,
        proptest::collection::vec(proptest::collection::vec(0u32..50, 4..=4), 0..=200),
    )
        .prop_map(|(arity, generation, rows)| {
            let mut rel = Relation::restore(arity, generation);
            for row in rows {
                let row: Vec<Sym> = row[..arity].iter().copied().map(Sym).collect();
                rel.push(&row);
            }
            rel
        })
}

fn op_strategy() -> impl Strategy<Value = WalOp> {
    // One tuple with every payload, discriminated by `kind` (the stand-in
    // has no prop_oneof).
    (
        0u32..5,
        0u32..200,
        pattern_strategy(),
        batch_strategy(),
        0u64..1000,
    )
        .prop_map(|(kind, name, pattern, updates, ckpt_seq)| match kind {
            0 => WalOp::Intern {
                name: format!("sym{name}"),
            },
            1 => WalOp::Register { pattern },
            2 => WalOp::Batch { updates },
            3 => WalOp::InternBatch {
                names: (0..name % 5).map(|i| format!("sym{name}-{i}")).collect(),
            },
            _ => WalOp::Checkpoint { ckpt_seq },
        })
}

fn encode_relation(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_relation(&mut out, rel);
    out
}

/// Writes `ops` through a [`Wal`] (fsync every record) and returns the
/// resulting storage image.
fn wal_image(ops: &[WalOp]) -> Vec<u8> {
    let store = MemStorage::new("prop-wal");
    let mut wal = Wal::new(Box::new(store.handle()), 1);
    for (seq, op) in ops.iter().enumerate() {
        wal.append(seq as u64, op).expect("append");
    }
    let raw = store.raw();
    let bytes = raw.lock().unwrap().clone();
    bytes
}

fn read_image(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let store = MemStorage::new("prop-wal-read");
    {
        let raw = store.raw();
        raw.lock().unwrap().extend_from_slice(bytes);
    }
    let mut boxed: Box<dyn Storage> = Box::new(store);
    wal::read_records(boxed.as_mut()).expect("read_records never errors on a readable store")
}

// ---------------------------------------------------------------------------
// Deterministic large-relation spill case
// ---------------------------------------------------------------------------

/// A relation of a few thousand rows round-trips with its generation and
/// row order intact.
#[test]
fn large_relation_roundtrip() {
    let arity = 3;
    let mut rel = Relation::restore(arity, 42);
    for i in 0..2055 {
        rel.push(&[Sym(i), Sym(i ^ 1), Sym(i / 3)]);
    }

    let bytes = encode_relation(&rel);
    let mut c = Cursor::new(&bytes);
    let back = codec::get_relation(&mut c).expect("decode");
    assert!(c.is_exhausted());
    assert_eq!(back.arity(), rel.arity());
    assert_eq!(back.generation(), rel.generation());
    assert_eq!(back.len(), rel.len());
    assert_eq!(back.to_vec(), rel.to_vec());
    assert_eq!(encode_relation(&back), bytes, "re-encode must be bit-exact");
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Signed update batches round-trip bit-exactly.
    #[test]
    fn updates_roundtrip_bit_exact(batch in batch_strategy()) {
        let mut bytes = Vec::new();
        codec::put_updates(&mut bytes, &batch);
        let mut c = Cursor::new(&bytes);
        let back = codec::get_updates(&mut c).expect("decode");
        prop_assert!(c.is_exhausted());
        prop_assert_eq!(&back, &batch);
        let mut again = Vec::new();
        codec::put_updates(&mut again, &back);
        prop_assert_eq!(again, bytes);
    }

    /// Query patterns round-trip bit-exactly (including the re-validation
    /// pass the decoder runs through `QueryPattern::from_edges`).
    #[test]
    fn patterns_roundtrip_bit_exact(pattern in pattern_strategy()) {
        let mut bytes = Vec::new();
        codec::put_pattern(&mut bytes, &pattern);
        let mut c = Cursor::new(&bytes);
        let back = codec::get_pattern(&mut c).expect("decode");
        prop_assert!(c.is_exhausted());
        let mut again = Vec::new();
        codec::put_pattern(&mut again, &back);
        prop_assert_eq!(again, bytes);
    }

    /// Symbol tables round-trip with the identical dense `Sym` assignment.
    #[test]
    fn symbols_roundtrip_bit_exact(names in proptest::collection::vec(0u32..60, 0..=40)) {
        let mut table = SymbolTable::new();
        for name in &names {
            table.intern(&format!("name-{name}"));
        }
        let mut bytes = Vec::new();
        codec::put_symbols(&mut bytes, &table);
        let mut c = Cursor::new(&bytes);
        let back = codec::get_symbols(&mut c).expect("decode");
        prop_assert!(c.is_exhausted());
        prop_assert_eq!(back.len(), table.len());
        for i in 0..table.len() as u32 {
            prop_assert_eq!(back.resolve(Sym(i)), table.resolve(Sym(i)));
        }
        let mut again = Vec::new();
        codec::put_symbols(&mut again, &back);
        prop_assert_eq!(again, bytes);
    }

    /// Relations (arbitrary arity, generation and row set) round-trip
    /// bit-exactly, preserving row order and the compaction generation.
    #[test]
    fn relations_roundtrip_bit_exact(rel in relation_strategy()) {
        let bytes = encode_relation(&rel);
        let mut c = Cursor::new(&bytes);
        let back = codec::get_relation(&mut c).expect("decode");
        prop_assert!(c.is_exhausted());
        prop_assert_eq!(back.arity(), rel.arity());
        prop_assert_eq!(back.generation(), rel.generation());
        prop_assert_eq!(back.to_vec(), rel.to_vec());
        prop_assert_eq!(encode_relation(&back), bytes);
    }

    /// Every WAL operation kind round-trips through its on-disk frame.
    #[test]
    fn wal_records_roundtrip(ops in proptest::collection::vec(op_strategy(), 0..=12)) {
        let bytes = wal_image(&ops);
        let (records, prefix) = read_image(&bytes);
        prop_assert_eq!(prefix, bytes.len() as u64);
        prop_assert_eq!(records.len(), ops.len());
        for (seq, (rec, op)) in records.iter().zip(&ops).enumerate() {
            prop_assert_eq!(rec.seq, seq as u64);
            prop_assert_eq!(&rec.op, op);
        }
    }

    /// The WAL reader stops cleanly at ANY truncation offset: it returns a
    /// prefix of the written records, its valid-prefix offset never exceeds
    /// the cut, and that offset is a fixed point of truncate-and-reread.
    #[test]
    fn wal_reader_stops_cleanly_at_any_cut(
        ops in proptest::collection::vec(op_strategy(), 1..=10),
        cut_seed in any::<u64>(),
    ) {
        let bytes = wal_image(&ops);
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let (records, prefix) = read_image(&bytes[..cut]);
        prop_assert!(prefix <= cut as u64);
        prop_assert!(records.len() <= ops.len());
        for (seq, (rec, op)) in records.iter().zip(&ops).enumerate() {
            prop_assert_eq!(rec.seq, seq as u64);
            prop_assert_eq!(&rec.op, op);
        }
        // Fixed point: the valid prefix re-reads to exactly the same state.
        let (again, prefix2) = read_image(&bytes[..prefix as usize]);
        prop_assert_eq!(prefix2, prefix);
        prop_assert_eq!(again, records);
    }

    /// One flipped bit anywhere in the image never panics the reader and
    /// never produces a record that was not written: the CRC (or the frame
    /// geometry) stops the scan at or before the damaged record.
    #[test]
    fn wal_reader_survives_any_bit_flip(
        ops in proptest::collection::vec(op_strategy(), 1..=10),
        pos_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut bytes = wal_image(&ops);
        prop_assume!(!bytes.is_empty());
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1u8 << bit;
        let (records, prefix) = read_image(&bytes);
        prop_assert!(prefix <= bytes.len() as u64);
        // Any record that does survive must be one of the originals, in
        // order, except possibly a final Intern whose flipped bit landed in
        // the name and re-validated by luck — the CRC makes even that
        // astronomically unlikely, so insist on exact prefix equality.
        prop_assert!(records.len() <= ops.len());
        for (seq, (rec, op)) in records.iter().zip(&ops).enumerate() {
            prop_assert_eq!(rec.seq, seq as u64);
            prop_assert_eq!(&rec.op, op);
        }
    }
}

//! Checkpoint files: the logical snapshot recovery starts from.
//!
//! A checkpoint captures everything needed to rebuild *any* of the engines
//! to report-equivalence without replaying the whole WAL: the interner
//! table (explicitly, in `Sym` order — recovery must not depend on
//! registration order re-interning the same ids), the registered queries in
//! registration order, the per-query notification totals accumulated so
//! far, the engine's cumulative [`EngineStats`], and the **survivor edge
//! store** — the live graph, an [`EdgeViewStore`] with one [`Relation`]
//! per edge label holding exactly the edges alive at the checkpoint, with
//! its retraction generation. Each relation spills to disk as its
//! row-major rows (see [`crate::codec::put_relation`]), labels in
//! increasing order, so the `(generation, version)` watermark pair
//! survives the round trip.
//!
//! Why survivor edges suffice: every engine's future reports are a
//! function of (registered queries, current live edge set), because a
//! query registered at time *t* matches against the live graph at *t*
//! ([`gsm_core::ContinuousEngine::register_query`]). Recovery therefore
//! feeds the survivor store to a factory-fresh engine, registers the
//! queries — which seed from it — and replays only the WAL suffix.
//!
//! The file format is `magic ∥ version ∥ body ∥ crc32(magic ∥ version ∥
//! body)`. Checkpoint files are written once under a sequence-stamped name
//! (`checkpoint-<seq>.ckpt`) and never overwritten; recovery picks the
//! highest *valid* one, so a crash mid-checkpoint-write at worst wastes the
//! newest file.

use std::collections::BTreeSet;

use gsm_core::engine::EngineStats;
use gsm_core::interner::{Sym, SymbolTable};
use gsm_core::query::pattern::QueryPattern;
use gsm_core::relation::Relation;
use gsm_core::views::EdgeViewStore;

use crate::codec::{self, crc32, put_u32, put_u64, CodecError, CodecResult, Cursor};
use crate::storage::Storage;

const MAGIC: &[u8; 8] = b"GSMCKPT1";
const VERSION: u32 = 2;

/// Per-query durable totals: what the per-query answer stream has summed to
/// so far. The crash suites compare these against an uninterrupted oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTotals {
    /// Total new embeddings reported for the query.
    pub embeddings: u64,
    /// Total retracted embeddings reported for the query.
    pub retracted: u64,
    /// Total notifications (reports naming the query).
    pub notifications: u64,
}

/// The full logical snapshot stored in one checkpoint file, as [`decode`]
/// returns it. (No `PartialEq`: compare via [`encode`], which is canonical
/// — equal snapshots encode to identical bytes.)
#[derive(Debug)]
pub struct CheckpointData {
    /// Operations with `seq < covered_seq` are captured by this snapshot;
    /// WAL replay resumes at `covered_seq`.
    pub covered_seq: u64,
    /// Cumulative engine counters at the checkpoint.
    pub stats: EngineStats,
    /// The interner table, explicitly, in dense `Sym` order.
    pub symbols: SymbolTable,
    /// Registered queries in registration order (`QueryId` = index),
    /// including tombstoned slots — ids are never reused, so recovery
    /// re-registers every slot in order and then unregisters the dead ones.
    pub queries: Vec<QueryPattern>,
    /// Ids of unregistered (tombstoned) `queries` slots.
    pub dead_queries: BTreeSet<u32>,
    /// Durable per-query totals, indexed like `queries` (dead slots keep
    /// their accumulated totals).
    pub totals: Vec<QueryTotals>,
    /// Survivor edge store: the live graph, one `(src, tgt)` relation per
    /// edge label.
    pub shadow: EdgeViewStore,
}

/// Encodes a checkpoint into its on-disk bytes (magic, version, body,
/// trailing CRC), straight from borrowed state: the fields of
/// [`CheckpointData`], in its order, wherever they live.
pub fn encode(
    covered_seq: u64,
    stats: &EngineStats,
    symbols: &SymbolTable,
    queries: &[QueryPattern],
    dead_queries: &BTreeSet<u32>,
    totals: &[QueryTotals],
    shadow: &EdgeViewStore,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, covered_seq);
    put_u64(&mut out, stats.updates_processed);
    put_u64(&mut out, stats.notifications);
    put_u64(&mut out, stats.embeddings);
    put_u64(&mut out, stats.retracted);
    codec::put_symbols(&mut out, symbols);
    put_u32(&mut out, queries.len() as u32);
    for q in queries {
        codec::put_pattern(&mut out, q);
    }
    put_u32(&mut out, dead_queries.len() as u32);
    for &qid in dead_queries {
        put_u32(&mut out, qid);
    }
    put_u32(&mut out, totals.len() as u32);
    for t in totals {
        put_u64(&mut out, t.embeddings);
        put_u64(&mut out, t.retracted);
        put_u64(&mut out, t.notifications);
    }
    let labels = shadow.labels();
    put_u32(&mut out, labels.len() as u32);
    for (label, rel) in labels {
        put_u32(&mut out, label.0);
        codec::put_relation(&mut out, rel);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decodes checkpoint bytes, verifying magic, version and trailing CRC
/// before touching the body.
pub fn decode(bytes: &[u8]) -> CodecResult<CheckpointData> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(CodecError {
            offset: 0,
            detail: format!("checkpoint too short: {} bytes", bytes.len()),
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(CodecError {
            offset: 0,
            detail: "bad checkpoint magic".to_string(),
        });
    }
    let body_end = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(CodecError {
            offset: body_end as u64,
            detail: "checkpoint CRC mismatch".to_string(),
        });
    }
    let mut c = Cursor::new(&bytes[MAGIC.len()..body_end]);
    let version = c.u32()?;
    if version != VERSION {
        return Err(CodecError {
            offset: MAGIC.len() as u64,
            detail: format!("unsupported checkpoint version {version}"),
        });
    }
    let covered_seq = c.u64()?;
    let stats = EngineStats {
        updates_processed: c.u64()?,
        notifications: c.u64()?,
        embeddings: c.u64()?,
        retracted: c.u64()?,
    };
    let symbols = codec::get_symbols(&mut c)?;
    let num_queries = c.u32()? as usize;
    if num_queries > c.remaining() / 4 {
        return Err(CodecError {
            offset: c.pos() as u64,
            detail: format!("query count {num_queries} exceeds remaining bytes"),
        });
    }
    let queries: Vec<QueryPattern> = (0..num_queries)
        .map(|_| codec::get_pattern(&mut c))
        .collect::<CodecResult<_>>()?;
    let at = c.pos();
    let num_dead = c.u32()? as usize;
    if num_dead > num_queries {
        return Err(CodecError {
            offset: at as u64,
            detail: format!("dead count {num_dead} exceeds query count {num_queries}"),
        });
    }
    let mut dead_queries = BTreeSet::new();
    for _ in 0..num_dead {
        let at = c.pos();
        let qid = c.u32()?;
        if qid as usize >= num_queries || dead_queries.last().is_some_and(|&p| p >= qid) {
            return Err(CodecError {
                offset: at as u64,
                detail: format!("dead query id {qid} out of range or out of order"),
            });
        }
        dead_queries.insert(qid);
    }
    let at = c.pos();
    let num_totals = c.u32()? as usize;
    if num_totals > c.remaining() / 24 {
        return Err(CodecError {
            offset: at as u64,
            detail: format!("totals count {num_totals} exceeds remaining bytes"),
        });
    }
    let mut totals = Vec::with_capacity(num_totals);
    for _ in 0..num_totals {
        totals.push(QueryTotals {
            embeddings: c.u64()?,
            retracted: c.u64()?,
            notifications: c.u64()?,
        });
    }
    let at = c.pos();
    let num_shadow = c.u32()? as usize;
    if num_shadow > c.remaining() / 4 {
        return Err(CodecError {
            offset: at as u64,
            detail: format!("shadow count {num_shadow} exceeds remaining bytes"),
        });
    }
    let mut shadow: Vec<(Sym, Relation)> = Vec::new();
    for _ in 0..num_shadow {
        let at = c.pos();
        let label = Sym(c.u32()?);
        if shadow.last().is_some_and(|&(p, _)| p >= label) {
            return Err(CodecError {
                offset: at as u64,
                detail: format!("shadow labels out of order at {}", label.0),
            });
        }
        let at = c.pos();
        let rel = codec::get_relation(&mut c)?;
        if rel.arity() != 2 {
            return Err(CodecError {
                offset: at as u64,
                detail: format!(
                    "shadow relation of label {} has arity {}",
                    label.0,
                    rel.arity()
                ),
            });
        }
        shadow.push((label, rel));
    }
    if !c.is_exhausted() {
        return Err(CodecError {
            offset: c.pos() as u64,
            detail: format!("{} trailing bytes in checkpoint body", c.remaining()),
        });
    }
    Ok(CheckpointData {
        covered_seq,
        stats,
        symbols,
        queries,
        dead_queries,
        totals,
        shadow: shadow.into_iter().collect(),
    })
}

/// The file name of the checkpoint covering through `seq`.
pub fn file_name(seq: u64) -> String {
    format!("checkpoint-{seq:020}.ckpt")
}

/// Parses a checkpoint file name back to its covered sequence number.
pub fn parse_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// Writes encoded checkpoint `bytes` (see [`encode`]) to `storage` (a
/// fresh store) and fsyncs it.
pub fn write(storage: &mut dyn Storage, bytes: &[u8]) -> gsm_core::error::Result<()> {
    storage.append(bytes)?;
    storage.sync()
}

/// Reads a checkpoint from `storage`, returning `None` (not an error) when
/// the bytes are truncated or corrupt — recovery treats an invalid
/// checkpoint file as absent and falls back to an older one.
pub fn read(storage: &mut dyn Storage) -> gsm_core::error::Result<Option<CheckpointData>> {
    let bytes = storage.read_all()?;
    Ok(decode(&bytes).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn encode_data(data: &CheckpointData) -> Vec<u8> {
        encode(
            data.covered_seq,
            &data.stats,
            &data.symbols,
            &data.queries,
            &data.dead_queries,
            &data.totals,
            &data.shadow,
        )
    }

    fn sample() -> CheckpointData {
        let mut symbols = SymbolTable::new();
        let q0 = QueryPattern::parse("?x -knows-> ?y", &mut symbols).unwrap();
        let q1 = QueryPattern::parse("?x -knows-> ?y; ?y -likes-> ?z", &mut symbols).unwrap();
        let knows = symbols.get("knows").unwrap();
        let likes = symbols.get("likes").unwrap();
        let mut rel = Relation::new(2);
        rel.push(&[Sym(7), Sym(8)]);
        rel.push(&[Sym(8), Sym(9)]);
        let mut rel2 = Relation::new(2);
        rel2.push(&[Sym(1), Sym(2)]);
        CheckpointData {
            covered_seq: 42,
            stats: EngineStats {
                updates_processed: 10,
                notifications: 4,
                embeddings: 6,
                retracted: 1,
            },
            symbols,
            queries: vec![q0, q1],
            dead_queries: BTreeSet::from([1]),
            totals: vec![
                QueryTotals {
                    embeddings: 5,
                    retracted: 1,
                    notifications: 3,
                },
                QueryTotals {
                    embeddings: 1,
                    retracted: 0,
                    notifications: 1,
                },
            ],
            shadow: [(knows, rel), (likes, rel2)].into_iter().collect(),
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let data = sample();
        let bytes = encode_data(&data);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.covered_seq, data.covered_seq);
        assert_eq!(decoded.stats, data.stats);
        assert_eq!(decoded.queries, data.queries);
        assert_eq!(decoded.dead_queries, data.dead_queries);
        assert_eq!(decoded.totals, data.totals);
        assert_eq!(decoded.symbols.len(), data.symbols.len());
        assert_eq!(decoded.shadow.labels().len(), data.shadow.labels().len());
        for ((la, ra), (lb, rb)) in decoded
            .shadow
            .labels()
            .into_iter()
            .zip(data.shadow.labels())
        {
            assert_eq!(la, lb);
            assert_eq!(ra.generation(), rb.generation());
            let rows_a: Vec<Vec<Sym>> = ra.iter().map(|r| r.to_vec()).collect();
            let rows_b: Vec<Vec<Sym>> = rb.iter().map(|r| r.to_vec()).collect();
            assert_eq!(rows_a, rows_b);
        }
        // Encoding the decoded value reproduces the identical bytes.
        assert_eq!(encode_data(&decoded), bytes);
    }

    #[test]
    fn corrupt_or_truncated_checkpoints_are_rejected() {
        let bytes = encode_data(&sample());
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
        let mut flipped = bytes.clone();
        flipped[MAGIC.len() + 20] ^= 0x01;
        let err = decode(&flipped).unwrap_err();
        assert!(err.detail.contains("CRC"), "{}", err.detail);
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(decode(&bad_magic).unwrap_err().detail.contains("magic"));
    }

    #[test]
    fn malformed_dead_query_lists_are_rejected() {
        // Out of range: a dead id must name an existing slot.
        let mut data = sample();
        data.dead_queries = BTreeSet::from([2]);
        let err = decode(&encode_data(&data)).unwrap_err();
        assert!(err.detail.contains("dead query id"), "{}", err.detail);
        // Out of order / duplicated ids are rejected too. A set cannot hold
        // them, so splice the list `[1, 1]` over the encoded `[1]`: the
        // count is where the encodings with and without a dead id part.
        data.dead_queries = BTreeSet::from([1]);
        let one = encode_data(&data);
        data.dead_queries.clear();
        let none = encode_data(&data);
        let at = one.iter().zip(&none).position(|(a, b)| a != b).unwrap();
        let mut spliced = one[..at].to_vec();
        for v in [2, 1, 1] {
            put_u32(&mut spliced, v);
        }
        spliced.extend_from_slice(&one[at + 8..one.len() - 4]);
        let crc = crc32(&spliced);
        put_u32(&mut spliced, crc);
        let err = decode(&spliced).unwrap_err();
        assert!(err.detail.contains("out of range or out of order"));
    }

    #[test]
    fn shadow_relations_without_two_columns_are_rejected() {
        // Recovery reads every shadow row as `(src, tgt)`.
        let mut data = sample();
        let knows = data.symbols.get("knows").unwrap();
        data.shadow = [(knows, Relation::singleton(&[Sym(1), Sym(2), Sym(3)]))]
            .into_iter()
            .collect();
        let err = decode(&encode_data(&data)).unwrap_err();
        assert!(err.detail.contains("arity 3"), "{}", err.detail);
    }

    #[test]
    fn storage_write_read_round_trips_and_tolerates_garbage() {
        let data = sample();
        let store = MemStorage::new("mem:ckpt");
        let mut handle = store.handle();
        let mut w = store.handle();
        write(&mut w, &encode_data(&data)).unwrap();
        let back = read(&mut handle).unwrap().expect("valid checkpoint");
        assert_eq!(encode_data(&back), encode_data(&data));
        // A torn checkpoint write reads back as None, not an error.
        let torn_len = {
            let raw = store.raw();
            let mut bytes = raw.lock().unwrap();
            let keep = bytes.len() / 2;
            bytes.truncate(keep);
            keep
        };
        assert!(torn_len > 0);
        assert!(read(&mut handle).unwrap().is_none());
    }

    #[test]
    fn file_names_round_trip_and_sort_by_seq() {
        assert_eq!(parse_file_name(&file_name(42)), Some(42));
        assert_eq!(parse_file_name("checkpoint-x.ckpt"), None);
        assert_eq!(parse_file_name("wal-0.log"), None);
        // Zero-padding makes lexicographic order equal numeric order.
        assert!(file_name(9) < file_name(10));
    }
}

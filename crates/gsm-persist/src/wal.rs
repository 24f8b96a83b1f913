//! The write-ahead update log.
//!
//! Every durable operation — symbol interning, query registration, signed
//! update batches, checkpoint markers — is appended to a WAL stripe as one
//! checksummed, length-prefixed record **before** the in-memory engine sees
//! it: a pipelined flush is one batch record, mixed signs included, and a
//! run of newly interned symbols is one intern record. The frame is
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [kind: u8][seq: u64 LE][operation body]
//! ```
//!
//! `seq` is the global operation sequence number; with `wal_stripes > 1`
//! record `seq` lands on stripe `seq % stripes`, and recovery merges the
//! stripes back into one sequence (see [`merge_stripes`]).
//!
//! Durability is group-commit, counted in **updates**, the unit recovery
//! resumes in ([`crate::RecoveryReport::resume_updates`]): a batch record
//! weighs the updates it carries, any other record weighs one, and
//! [`Wal::append`] buffers in the backing storage until the unsynced weight
//! reaches `group_commit`, then fsyncs before it returns (and on
//! [`Wal::sync`]). After any append returns, a stripe therefore holds
//! fewer than `group_commit` unsynced updates. Reading ([`read_records`]) is
//! prefix-tolerant by construction — a torn tail, a short header, or a
//! bit-flipped payload fails its length/CRC/decode check and reading stops
//! cleanly at the last valid record, returning the byte offset of the valid
//! prefix so recovery can [`Storage::truncate`] the garbage away.

use gsm_core::engine::QueryId;
use gsm_core::error::Result;
use gsm_core::model::update::Update;
use gsm_core::query::pattern::QueryPattern;

use crate::codec::{self, crc32, put_str, put_u32, put_u64, Cursor};
use crate::storage::{persistence_error, Storage};

/// One logical WAL operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// One symbol interned into the table, the form logs written before
    /// [`WalOp::InternBatch`] hold; replaying interns in seq order
    /// reproduces the identical dense `Sym` assignment.
    Intern {
        /// The interned name.
        name: String,
    },
    /// A continuous query registered with the engine.
    Register {
        /// The registered pattern.
        pattern: QueryPattern,
    },
    /// A signed update batch applied (or staged) by the engine.
    Batch {
        /// The batch's updates, in application order.
        updates: Vec<Update>,
    },
    /// A checkpoint completed; state up to (and including) `ckpt_seq` is
    /// captured in the checkpoint file, so replay may start after it.
    Checkpoint {
        /// Sequence number the checkpoint covers through.
        ckpt_seq: u64,
    },
    /// A continuous query unregistered from the engine. The id's slot is
    /// tombstoned, never reused — replay re-registers every slot in order,
    /// then unregisters the dead ones, so later ids keep their meaning.
    Unregister {
        /// The unregistered query id.
        query: QueryId,
    },
    /// Symbols interned into the table, in dense `Sym` order: what
    /// [`PersistentEngine::note_symbols`](crate::PersistentEngine::note_symbols)
    /// logs, one record however many names it adopts.
    InternBatch {
        /// The interned names, in `Sym` order.
        names: Vec<String>,
    },
}

const KIND_INTERN: u8 = 1;
const KIND_REGISTER: u8 = 2;
const KIND_BATCH: u8 = 3;
const KIND_CHECKPOINT: u8 = 4;
const KIND_UNREGISTER: u8 = 5;
const KIND_INTERN_BATCH: u8 = 6;

/// A decoded WAL record: the global sequence number plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Global operation sequence number (dense, starting at 0).
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// Encodes one record into its on-disk frame.
pub fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let mut payload = Vec::new();
    match op {
        WalOp::Intern { name } => {
            payload.push(KIND_INTERN);
            put_u64(&mut payload, seq);
            put_str(&mut payload, name);
        }
        WalOp::Register { pattern } => {
            payload.push(KIND_REGISTER);
            put_u64(&mut payload, seq);
            codec::put_pattern(&mut payload, pattern);
        }
        WalOp::Batch { updates } => {
            payload.push(KIND_BATCH);
            put_u64(&mut payload, seq);
            codec::put_updates(&mut payload, updates);
        }
        WalOp::Checkpoint { ckpt_seq } => {
            payload.push(KIND_CHECKPOINT);
            put_u64(&mut payload, seq);
            put_u64(&mut payload, *ckpt_seq);
        }
        WalOp::Unregister { query } => {
            payload.push(KIND_UNREGISTER);
            put_u64(&mut payload, seq);
            put_u32(&mut payload, query.0);
        }
        WalOp::InternBatch { names } => {
            payload.push(KIND_INTERN_BATCH);
            put_u64(&mut payload, seq);
            put_u32(&mut payload, names.len() as u32);
            for name in names {
                put_str(&mut payload, name);
            }
        }
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

fn decode_payload(payload: &[u8]) -> codec::CodecResult<WalRecord> {
    let mut c = Cursor::new(payload);
    let kind = c.u8()?;
    let seq = c.u64()?;
    let op = match kind {
        KIND_INTERN => WalOp::Intern { name: c.str()? },
        KIND_REGISTER => WalOp::Register {
            pattern: codec::get_pattern(&mut c)?,
        },
        KIND_BATCH => WalOp::Batch {
            updates: codec::get_updates(&mut c)?,
        },
        KIND_CHECKPOINT => WalOp::Checkpoint { ckpt_seq: c.u64()? },
        KIND_UNREGISTER => WalOp::Unregister {
            query: QueryId(c.u32()?),
        },
        // Collecting grows the list only as names decode, so a corrupt
        // count fails at the end of the payload, not in an allocation.
        KIND_INTERN_BATCH => WalOp::InternBatch {
            names: (0..c.u32()?)
                .map(|_| c.str())
                .collect::<codec::CodecResult<_>>()?,
        },
        other => {
            return Err(codec::CodecError {
                offset: 0,
                detail: format!("invalid WAL record kind {other}"),
            })
        }
    };
    if !c.is_exhausted() {
        return Err(codec::CodecError {
            offset: c.pos() as u64,
            detail: format!("{} trailing bytes in WAL payload", c.remaining()),
        });
    }
    Ok(WalRecord { seq, op })
}

/// Reads every valid record from the start of `storage`, stopping cleanly
/// at the first record whose frame is truncated, whose CRC mismatches, or
/// whose payload fails to decode. Returns the records together with the
/// byte length of the valid prefix; everything past that offset is a torn
/// or corrupt tail the caller should truncate before appending again.
pub fn read_records(storage: &mut dyn Storage) -> Result<(Vec<WalRecord>, u64)> {
    let bytes = storage.read_all()?;
    let mut records = Vec::new();
    let mut valid = 0usize;
    while bytes.len() - valid >= 8 {
        let len = u32::from_le_bytes(bytes[valid..valid + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[valid + 4..valid + 8].try_into().unwrap());
        let Some(end) = valid.checked_add(8 + len) else {
            break; // length overflows: corrupt header
        };
        if end > bytes.len() {
            break; // torn tail: frame extends past the storage end
        }
        let payload = &bytes[valid + 8..end];
        if crc32(payload) != crc {
            break; // bit flip (or torn overwrite) inside the record
        }
        let Ok(record) = decode_payload(payload) else {
            break; // checksum fine but vocabulary invalid: treat as corrupt
        };
        records.push(record);
        valid = end;
    }
    Ok((records, valid as u64))
}

/// Merges per-stripe record lists back into one ascending `seq` sequence
/// and cuts it at the first gap at or after `start_seq`.
///
/// A gap means a stripe lost its tail (torn write on one file while its
/// sibling kept later records), so every record after the gap must be
/// discarded — replaying around a hole would reorder the stream. Returns
/// the contiguous records with `seq >= start_seq` and, per stripe, the byte
/// offset of the last *kept* record's end (the truncation point that
/// discards the stripe's now-unreachable suffix). Stripe offsets start from
/// the valid-prefix offsets passed in, so CRC-level garbage is already
/// excluded.
pub fn merge_stripes(
    stripes: Vec<(Vec<WalRecord>, u64)>,
    start_seq: u64,
) -> (Vec<WalRecord>, Vec<u64>) {
    let stripe_count = stripes.len().max(1) as u64;
    // Highest contiguous seq: walk upward from start_seq while every seq is
    // present in its home stripe.
    let mut present: Vec<std::collections::HashMap<u64, usize>> = Vec::new();
    for (records, _) in &stripes {
        present.push(
            records
                .iter()
                .enumerate()
                .map(|(i, r)| (r.seq, i))
                .collect(),
        );
    }
    let mut merged = Vec::new();
    let mut next = start_seq;
    loop {
        let stripe = (next % stripe_count) as usize;
        match present.get(stripe).and_then(|m| m.get(&next)) {
            Some(&idx) => {
                merged.push(stripes[stripe].0[idx].clone());
                next += 1;
            }
            None => break,
        }
    }
    // Truncation points: for each stripe, the end offset of its last record
    // with seq < next (kept), computed by re-walking the frames.
    let mut cuts = Vec::with_capacity(stripes.len());
    for (records, valid) in &stripes {
        let keep = records.iter().take_while(|r| r.seq < next).count();
        if keep == records.len() {
            cuts.push(*valid);
        } else {
            let mut offset = 0u64;
            for r in &records[..keep] {
                offset += encode_record(r.seq, &r.op).len() as u64;
            }
            cuts.push(offset);
        }
    }
    (merged, cuts)
}

/// An append handle over one WAL stripe with group-commit durability.
pub struct Wal {
    storage: Box<dyn Storage>,
    group_commit: usize,
    /// Weight (updates, see the module docs) appended since the last sync.
    pending: usize,
}

impl Wal {
    /// Wraps `storage` as a WAL stripe that syncs once `group_commit`
    /// updates are unsynced (`0` is treated as `1`: sync every record).
    pub fn new(storage: Box<dyn Storage>, group_commit: usize) -> Self {
        Wal {
            storage,
            group_commit: group_commit.max(1),
            pending: 0,
        }
    }

    /// Appends one record and fsyncs if the unsynced weight — a batch
    /// record's update count, one for any other record — reaches the
    /// group-commit bound. Returns whether this append synced.
    pub fn append(&mut self, seq: u64, op: &WalOp) -> Result<bool> {
        let frame = encode_record(seq, op);
        self.storage.append(&frame)?;
        // Every record weighs at least one, so the bound syncs it too.
        self.pending += match op {
            WalOp::Batch { updates } => updates.len().max(1),
            _ => 1,
        };
        if self.pending >= self.group_commit {
            self.sync()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Forces everything appended so far to durable media.
    pub fn sync(&mut self) -> Result<()> {
        if self.pending > 0 {
            self.storage.sync()?;
            self.pending = 0;
        }
        Ok(())
    }

    /// Updates appended since the last sync, counting one for every
    /// non-batch record (durability debt).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The underlying storage label (for error context in callers).
    pub fn label(&self) -> &str {
        self.storage.label()
    }

    /// Truncates the stripe to `len` bytes — recovery's torn-tail cut.
    pub fn truncate(&mut self, len: u64) -> Result<()> {
        self.storage.truncate(len)
    }

    /// Reads the stripe's valid records (see [`read_records`]).
    pub fn read(&mut self) -> Result<(Vec<WalRecord>, u64)> {
        read_records(self.storage.as_mut())
    }

    /// Verifies the stripe ends exactly at its valid prefix, failing with a
    /// typed error naming the first corrupt offset otherwise.
    pub fn check_clean(&mut self) -> Result<()> {
        let (_, valid) = self.read()?;
        let len = self.storage.len()?;
        if valid != len {
            return Err(persistence_error(
                self.storage.label(),
                valid,
                format!("torn or corrupt WAL tail: {} trailing bytes", len - valid),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultPlan, FaultStorage, MemStorage};
    use gsm_core::interner::{Sym, SymbolTable};

    fn sample_ops() -> Vec<WalOp> {
        let mut symbols = SymbolTable::new();
        let pattern = QueryPattern::parse("?x -knows-> ?y", &mut symbols).unwrap();
        vec![
            WalOp::Intern {
                name: "knows".to_string(),
            },
            WalOp::Register { pattern },
            WalOp::Batch {
                updates: vec![
                    Update::new(Sym(0), Sym(1), Sym(2)),
                    Update::retraction(Sym(0), Sym(1), Sym(2)),
                ],
            },
            WalOp::Checkpoint { ckpt_seq: 2 },
            WalOp::Unregister { query: QueryId(0) },
            WalOp::InternBatch {
                names: vec!["likes".to_string(), String::new(), "ü".to_string()],
            },
        ]
    }

    #[test]
    fn records_round_trip_in_order() {
        let store = MemStorage::new("mem:wal");
        let mut handle = store.handle();
        let mut wal = Wal::new(Box::new(store), 2);
        for (seq, op) in sample_ops().into_iter().enumerate() {
            wal.append(seq as u64, &op).unwrap();
        }
        wal.sync().unwrap();
        let (records, valid) = read_records(&mut handle).unwrap();
        assert_eq!(records.len(), 6);
        assert_eq!(valid, handle.len().unwrap());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(records[3].op, WalOp::Checkpoint { ckpt_seq: 2 });
        assert_eq!(records[4].op, WalOp::Unregister { query: QueryId(0) });
        assert_eq!(records[5].op, sample_ops()[5]);
    }

    #[test]
    fn reader_stops_cleanly_at_every_truncation_offset() {
        let store = MemStorage::new("mem:wal");
        let raw = store.raw();
        let mut wal = Wal::new(Box::new(store.handle()), 1);
        for (seq, op) in sample_ops().into_iter().enumerate() {
            wal.append(seq as u64, &op).unwrap();
        }
        let full = raw.lock().unwrap().clone();
        // Record boundaries, for checking the expected record count.
        let mut boundaries = vec![0usize];
        for (seq, op) in sample_ops().into_iter().enumerate() {
            boundaries.push(boundaries.last().unwrap() + encode_record(seq as u64, &op).len());
        }
        for cut in 0..=full.len() {
            *raw.lock().unwrap() = full[..cut].to_vec();
            let mut handle = store.handle();
            let (records, valid) = read_records(&mut handle).unwrap();
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(records.len(), expect, "cut at {cut}");
            assert_eq!(valid as usize, boundaries[expect], "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_invalidates_exactly_the_flipped_suffix() {
        let store = MemStorage::new("mem:wal");
        let raw = store.raw();
        let mut wal = Wal::new(Box::new(store.handle()), 1);
        for (seq, op) in sample_ops().into_iter().enumerate() {
            wal.append(seq as u64, &op).unwrap();
        }
        let first_len = encode_record(0, &sample_ops()[0]).len();
        // Flip one bit inside record 1's payload: records 0 stays valid,
        // everything from record 1 on is rejected.
        raw.lock().unwrap()[first_len + 10] ^= 0x40;
        let mut handle = store.handle();
        let (records, valid) = read_records(&mut handle).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(valid as usize, first_len);
        assert_eq!(records[0].seq, 0);
    }

    #[test]
    fn group_commit_syncs_at_the_boundary() {
        // FailSync makes every fsync fail, so the group-commit boundary is
        // observable: appends below the boundary succeed (no sync yet), the
        // append that reaches it surfaces the typed sync error.
        let store = FaultStorage::new(MemStorage::new("mem:wal"), FaultPlan::FailSync);
        let mut wal = Wal::new(Box::new(store), 3);
        let op = WalOp::Intern {
            name: "x".to_string(),
        };
        assert!(!wal.append(0, &op).unwrap());
        assert!(!wal.append(1, &op).unwrap());
        assert_eq!(wal.pending(), 2);
        let err = wal.append(2, &op).unwrap_err();
        match err {
            gsm_core::error::Error::Persistence { detail, .. } => {
                assert!(detail.contains("fsync"), "{detail}");
            }
            other => panic!("expected persistence error, got {other:?}"),
        }
    }

    #[test]
    fn group_commit_counts_updates() {
        // FailSync makes every fsync fail, so whether an append synced is
        // observable. The bound is 32 updates: a batch record weighs its
        // update count, any other record weighs one.
        let failing = || {
            Wal::new(
                Box::new(FaultStorage::new(
                    MemStorage::new("mem:wal"),
                    FaultPlan::FailSync,
                )),
                32,
            )
        };
        let batch = |n: u32| WalOp::Batch {
            updates: (0..n)
                .map(|i| Update::new(Sym(0), Sym(i), Sym(i + 1)))
                .collect(),
        };
        let syncs = |result: Result<bool>| match result {
            Ok(synced) => synced,
            Err(gsm_core::error::Error::Persistence { detail, .. }) => {
                assert!(detail.contains("fsync"), "{detail}");
                true
            }
            Err(other) => panic!("expected persistence error, got {other:?}"),
        };

        // One 64-update record is past the bound on its own.
        assert!(syncs(failing().append(0, &batch(64))));

        // 31 one-update records stay below it...
        let mut wal = failing();
        for seq in 0..31 {
            assert!(!syncs(wal.append(seq, &batch(1))), "record {seq}");
        }
        assert_eq!(wal.pending(), 31);
        // ...and an intern record weighs one, so it reaches the bound.
        let intern = WalOp::InternBatch {
            names: (0..100).map(|i| format!("n{i}")).collect(),
        };
        assert!(syncs(wal.append(31, &intern)));

        // A 31-update record plus one more update reaches it too.
        let mut wal = failing();
        assert!(!syncs(wal.append(0, &batch(31))));
        assert!(syncs(wal.append(1, &batch(1))));
    }

    #[test]
    fn merge_stripes_replays_only_the_contiguous_prefix() {
        // Two stripes; stripe 1 lost the record for seq 3, so replay must
        // stop at seq 2 even though stripe 0 still has seq 4.
        let ops = |seq| WalOp::Checkpoint { ckpt_seq: seq };
        let stripe0: Vec<WalRecord> = [0u64, 2, 4]
            .iter()
            .map(|&seq| WalRecord { seq, op: ops(seq) })
            .collect();
        let stripe1: Vec<WalRecord> = [1u64]
            .iter()
            .map(|&seq| WalRecord { seq, op: ops(seq) })
            .collect();
        let len = |records: &[WalRecord]| {
            records
                .iter()
                .map(|r| encode_record(r.seq, &r.op).len() as u64)
                .sum::<u64>()
        };
        let (v0, v1) = (len(&stripe0), len(&stripe1));
        let (merged, cuts) = merge_stripes(vec![(stripe0.clone(), v0), (stripe1, v1)], 0);
        assert_eq!(
            merged.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Stripe 0 must drop its record for seq 4; stripe 1 keeps its whole
        // prefix.
        assert_eq!(cuts[0], len(&stripe0[..2]));
        assert_eq!(cuts[1], v1);
    }

    #[test]
    fn merge_stripes_starts_from_the_checkpoint_seq() {
        let ops = |seq| WalOp::Checkpoint { ckpt_seq: seq };
        let records: Vec<WalRecord> = (0..5u64)
            .map(|seq| WalRecord { seq, op: ops(seq) })
            .collect();
        let valid = records
            .iter()
            .map(|r| encode_record(r.seq, &r.op).len() as u64)
            .sum::<u64>();
        let (merged, cuts) = merge_stripes(vec![(records, valid)], 3);
        assert_eq!(merged.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(cuts, vec![valid]);
    }
}

//! Byte-level serialization of the persistent record vocabulary.
//!
//! Everything durable — WAL payloads and checkpoint bodies — is encoded
//! through this module: little-endian fixed-width integers, length-prefixed
//! UTF-8 strings, and the domain values built from them (signed
//! [`Update`]s, [`QueryPattern`]s, [`SymbolTable`]s and [`Relation`]s).
//! Decoding is fully defensive: every read is bounds-checked and returns a
//! positional [`CodecError`] instead of panicking, so a torn or bit-flipped
//! record surfaces as a typed corruption at a byte offset, never as an
//! out-of-bounds slice.
//!
//! The encoding is deliberately simple rather than clever: the round-trip
//! property suite (`tests/property_persist.rs`) pins bit-exactness, and the
//! WAL/checksum layer above adds integrity, so this layer only has to be
//! unambiguous and total on valid inputs.

use gsm_core::interner::{Sym, SymbolTable};
use gsm_core::model::term::{PatternEdge, Term};
use gsm_core::model::update::Update;
use gsm_core::query::pattern::QueryPattern;
use gsm_core::relation::Relation;

/// A decoding failure: what went wrong and at which byte offset of the
/// buffer being decoded. The storage layer wraps this into
/// [`gsm_core::error::Error::Persistence`] together with the storage path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset within the decoded buffer at which decoding failed.
    pub offset: u64,
    /// Human-readable description of the corruption.
    pub detail: String,
}

impl CodecError {
    fn new(offset: usize, detail: impl Into<String>) -> Self {
        CodecError {
            offset: offset as u64,
            detail: detail.into(),
        }
    }
}

/// Decoding result.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// A bounds-checked reading cursor over an immutable byte buffer.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Current byte position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::new(
                self.pos,
                format!(
                    "truncated {what}: need {n} bytes, {} remain",
                    self.remaining()
                ),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32` length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CodecResult<String> {
        let at = self.pos;
        let len = self.u32()? as usize;
        let bytes = self.take(len, "string body")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::new(at, format!("invalid UTF-8 string: {e}")))
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the per-record and
/// per-checkpoint integrity check. Table-driven; the table is built at
/// compile time so the hot append path is four shifts per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Domain values
// ---------------------------------------------------------------------------

/// Encodes one signed update as `label, src, tgt` (3 × u32) plus a sign
/// byte.
pub fn put_update(out: &mut Vec<u8>, u: &Update) {
    put_u32(out, u.label.0);
    put_u32(out, u.src.0);
    put_u32(out, u.tgt.0);
    out.push(u.retract as u8);
}

/// Decodes one signed update.
pub fn get_update(c: &mut Cursor<'_>) -> CodecResult<Update> {
    let label = Sym(c.u32()?);
    let src = Sym(c.u32()?);
    let tgt = Sym(c.u32()?);
    let at = c.pos();
    let sign = c.u8()?;
    match sign {
        0 => Ok(Update::new(label, src, tgt)),
        1 => Ok(Update::retraction(label, src, tgt)),
        other => Err(CodecError::new(at, format!("invalid update sign {other}"))),
    }
}

/// Encodes a batch of signed updates (u32 count + each update).
pub fn put_updates(out: &mut Vec<u8>, updates: &[Update]) {
    put_u32(out, updates.len() as u32);
    for u in updates {
        put_update(out, u);
    }
}

/// Decodes a batch of signed updates.
pub fn get_updates(c: &mut Cursor<'_>) -> CodecResult<Vec<Update>> {
    let at = c.pos();
    let n = c.u32()? as usize;
    // 13 bytes per update; reject counts the remaining bytes cannot hold so
    // a corrupt count cannot trigger a huge allocation.
    if n > c.remaining() / 13 {
        return Err(CodecError::new(
            at,
            format!("update count {n} exceeds remaining bytes"),
        ));
    }
    (0..n).map(|_| get_update(c)).collect()
}

const TERM_CONST: u8 = 0;
const TERM_VAR: u8 = 1;

fn put_term(out: &mut Vec<u8>, t: &Term) {
    match t {
        Term::Const(s) => {
            out.push(TERM_CONST);
            put_u32(out, s.0);
        }
        Term::Var(v) => {
            out.push(TERM_VAR);
            put_u32(out, *v);
        }
    }
}

fn get_term(c: &mut Cursor<'_>) -> CodecResult<Term> {
    let at = c.pos();
    let tag = c.u8()?;
    let v = c.u32()?;
    match tag {
        TERM_CONST => Ok(Term::Const(Sym(v))),
        TERM_VAR => Ok(Term::Var(v)),
        other => Err(CodecError::new(at, format!("invalid term tag {other}"))),
    }
}

/// Encodes a query pattern as its edge list (the canonical constructor
/// input of [`QueryPattern::from_edges`], so decoding re-validates
/// connectivity for free).
pub fn put_pattern(out: &mut Vec<u8>, q: &QueryPattern) {
    put_u32(out, q.num_edges() as u32);
    for e in q.edges() {
        put_u32(out, e.label.0);
        put_term(out, &e.src);
        put_term(out, &e.tgt);
    }
}

/// Decodes a query pattern, re-running full pattern validation.
pub fn get_pattern(c: &mut Cursor<'_>) -> CodecResult<QueryPattern> {
    let at = c.pos();
    let n = c.u32()? as usize;
    if n > c.remaining() / 14 {
        return Err(CodecError::new(
            at,
            format!("edge count {n} exceeds remaining bytes"),
        ));
    }
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        let label = Sym(c.u32()?);
        let src = get_term(c)?;
        let tgt = get_term(c)?;
        edges.push(PatternEdge::new(label, src, tgt));
    }
    QueryPattern::from_edges(edges)
        .map_err(|e| CodecError::new(at, format!("invalid persisted pattern: {e}")))
}

/// Encodes a symbol table as its names in symbol order, so re-interning
/// them in sequence reproduces the identical `Sym` assignment.
pub fn put_symbols(out: &mut Vec<u8>, symbols: &SymbolTable) {
    put_u32(out, symbols.len() as u32);
    for i in 0..symbols.len() {
        put_str(out, symbols.resolve(Sym(i as u32)));
    }
}

/// Decodes a symbol table by interning the persisted names in order.
/// Symbol identifiers are **first-seen dense indices**, so restoring the
/// table name-by-name in persisted order is exactly what pins every `Sym`
/// referenced by WAL updates and checkpointed relations to its original
/// meaning — the interner-order invariant recovery depends on.
pub fn get_symbols(c: &mut Cursor<'_>) -> CodecResult<SymbolTable> {
    let at = c.pos();
    let n = c.u32()? as usize;
    if n > c.remaining() / 4 {
        return Err(CodecError::new(
            at,
            format!("symbol count {n} exceeds remaining bytes"),
        ));
    }
    let mut table = SymbolTable::new();
    for i in 0..n {
        let at = c.pos();
        let name = c.str()?;
        let sym = table.intern(&name);
        if sym.index() != i {
            return Err(CodecError::new(
                at,
                format!("duplicate symbol name `{name}` at index {i}"),
            ));
        }
    }
    Ok(table)
}

/// Encodes a relation: header (`arity`, `generation`, row count, chunk
/// count), then its rows as chunk records — a row count plus the rows' raw
/// `Sym` words. The whole relation is written as **one** chunk record; the
/// `(generation, version)` watermark pair rides in the header.
pub fn put_relation(out: &mut Vec<u8>, rel: &Relation) {
    put_u32(out, rel.arity() as u32);
    put_u64(out, rel.generation());
    put_u64(out, rel.len() as u64);
    put_u32(out, 1);
    let rows = u32::try_from(rel.len()).expect("a relation's dedup index caps it at u32 rows");
    put_u32(out, rows);
    for s in rel.iter().flatten() {
        put_u32(out, s.0);
    }
}

/// Decodes a relation, rebuilding the dedup index row by row and restoring
/// the persisted generation ([`Relation::restore`]). Any number of chunk
/// records is accepted: checkpoints written by earlier versions split a
/// relation into records of at most 1024 rows each.
pub fn get_relation(c: &mut Cursor<'_>) -> CodecResult<Relation> {
    let start = c.pos();
    let arity = c.u32()? as usize;
    if arity == 0 || arity > 1024 {
        return Err(CodecError::new(start, format!("invalid arity {arity}")));
    }
    let generation = c.u64()?;
    let total_rows = c.u64()? as usize;
    let chunk_count = c.u32()? as usize;
    if total_rows > c.remaining() / (4 * arity).max(1) || chunk_count > c.remaining() / 4 {
        return Err(CodecError::new(
            start,
            format!("relation of {total_rows} rows / {chunk_count} chunks exceeds remaining bytes"),
        ));
    }
    let mut rel = Relation::restore(arity, generation);
    let mut row = vec![Sym(0); arity];
    for _ in 0..chunk_count {
        let at = c.pos();
        let rows = c.u32()? as usize;
        if rows > c.remaining() / (4 * arity) {
            return Err(CodecError::new(
                at,
                format!("chunk of {rows} rows exceeds remaining bytes"),
            ));
        }
        for _ in 0..rows {
            for slot in row.iter_mut() {
                *slot = Sym(c.u32()?);
            }
            if !rel.push(&row) {
                return Err(CodecError::new(
                    at,
                    "duplicate row in persisted relation".to_string(),
                ));
            }
        }
    }
    if rel.len() != total_rows {
        return Err(CodecError::new(
            start,
            format!(
                "relation row count mismatch: header {total_rows}, chunks {}",
                rel.len()
            ),
        ));
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_and_strings_round_trip() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 7);
        put_str(&mut out, "héllo wörld");
        let mut c = Cursor::new(&out);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 7);
        assert_eq!(c.str().unwrap(), "héllo wörld");
        assert!(c.is_exhausted());
    }

    #[test]
    fn truncated_reads_fail_with_offset() {
        let mut out = Vec::new();
        put_u64(&mut out, 42);
        let mut c = Cursor::new(&out[..5]);
        let err = c.u64().unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.detail.contains("truncated"), "{}", err.detail);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn updates_round_trip_with_sign() {
        let batch = vec![
            Update::new(Sym(1), Sym(2), Sym(3)),
            Update::retraction(Sym(4), Sym(5), Sym(6)),
        ];
        let mut out = Vec::new();
        put_updates(&mut out, &batch);
        let mut c = Cursor::new(&out);
        assert_eq!(get_updates(&mut c).unwrap(), batch);
        assert!(c.is_exhausted());
    }

    #[test]
    fn invalid_update_sign_is_rejected() {
        let mut out = Vec::new();
        put_update(&mut out, &Update::new(Sym(1), Sym(2), Sym(3)));
        *out.last_mut().unwrap() = 7;
        let err = get_update(&mut Cursor::new(&out)).unwrap_err();
        assert!(err.detail.contains("invalid update sign"), "{}", err.detail);
    }

    #[test]
    fn insane_counts_are_rejected_not_allocated() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX); // count far beyond the buffer
        let err = get_updates(&mut Cursor::new(&out)).unwrap_err();
        assert!(err.detail.contains("exceeds"), "{}", err.detail);
    }

    #[test]
    fn pattern_round_trips_and_revalidates() {
        let mut symbols = SymbolTable::new();
        let q = QueryPattern::parse("?x -knows-> ?y; ?y -likes-> rio", &mut symbols).unwrap();
        let mut out = Vec::new();
        put_pattern(&mut out, &q);
        let decoded = get_pattern(&mut Cursor::new(&out)).unwrap();
        assert_eq!(decoded, q);
    }

    #[test]
    fn symbols_round_trip_preserving_sym_order() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        let mut out = Vec::new();
        put_symbols(&mut out, &t);
        let restored = get_symbols(&mut Cursor::new(&out)).unwrap();
        assert_eq!(restored.get("alpha"), Some(a));
        assert_eq!(restored.get("beta"), Some(b));
        assert_eq!(restored.len(), 2);
    }

    #[test]
    fn relation_round_trips_after_a_retraction() {
        let mut rel = Relation::new(2);
        for i in 0..1041 {
            rel.push(&[Sym(i), Sym(i + 1)]);
        }
        let removed = Relation::singleton(&[Sym(3), Sym(4)]);
        rel.retract_rows(&removed);
        let mut out = Vec::new();
        put_relation(&mut out, &rel);
        let decoded = get_relation(&mut Cursor::new(&out)).unwrap();
        assert_eq!(decoded.arity(), rel.arity());
        assert_eq!(decoded.generation(), rel.generation());
        assert_eq!(decoded.len(), rel.len());
        let a: Vec<Vec<Sym>> = rel.iter().map(|r| r.to_vec()).collect();
        let b: Vec<Vec<Sym>> = decoded.iter().map(|r| r.to_vec()).collect();
        assert_eq!(a, b, "rows must round-trip bit-exactly in order");
        // The dedup index is live again after decoding.
        assert!(decoded.contains(&[Sym(0), Sym(1)]));
        assert!(!decoded.contains(&[Sym(3), Sym(4)]));
    }

    #[test]
    fn relation_split_into_several_chunk_records_decodes() {
        // The layout older checkpoints use: one record per 1024-row chunk
        // plus the tail. Here three records of 2, 0 and 1 rows.
        let mut out = Vec::new();
        put_u32(&mut out, 2); // arity
        put_u64(&mut out, 5); // generation
        put_u64(&mut out, 3); // rows
        put_u32(&mut out, 3); // chunk records
        let chunks: [&[[u32; 2]]; 3] = [&[[1, 2], [3, 4]], &[], &[[5, 6]]];
        for chunk in chunks {
            put_u32(&mut out, chunk.len() as u32);
            for s in chunk.iter().flatten() {
                put_u32(&mut out, *s);
            }
        }
        let mut c = Cursor::new(&out);
        let decoded = get_relation(&mut c).unwrap();
        assert!(c.is_exhausted());
        assert_eq!(decoded.generation(), 5);
        let rows =
            |v: &[[u32; 2]]| -> Vec<Vec<Sym>> { v.iter().map(|r| r.map(Sym).to_vec()).collect() };
        assert_eq!(decoded.to_vec(), rows(&[[1, 2], [3, 4], [5, 6]]));
        assert!(
            decoded.contains(&[Sym(3), Sym(4)]),
            "the dedup index is live"
        );

        // The current encoder writes the same relation as one record.
        let mut one = Vec::new();
        put_relation(&mut one, &decoded);
        assert_eq!(one.len(), out.len() - 2 * 4, "two fewer record headers");
        assert_eq!(
            get_relation(&mut Cursor::new(&one)).unwrap().to_vec(),
            decoded.to_vec()
        );
    }

    /// A single-column relation in the multi-record layout: the header
    /// claims `rows`, and each record holds the given values.
    fn single_column_records(rows: u64, records: &[&[u32]]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, 1); // arity
        put_u64(&mut out, 0); // generation
        put_u64(&mut out, rows);
        put_u32(&mut out, records.len() as u32);
        for record in records {
            put_u32(&mut out, record.len() as u32);
            for &v in record.iter() {
                put_u32(&mut out, v);
            }
        }
        out
    }

    #[test]
    fn empty_relation_round_trips_as_one_empty_record() {
        let mut rel = Relation::new(3);
        rel.push(&[Sym(1), Sym(2), Sym(3)]);
        assert!(rel.retract_row(&[Sym(1), Sym(2), Sym(3)]));
        let mut out = Vec::new();
        put_relation(&mut out, &rel);
        assert_eq!(
            out.len(),
            4 + 8 + 8 + 4 + 4,
            "header and one zero-row record"
        );
        let mut c = Cursor::new(&out);
        let decoded = get_relation(&mut c).unwrap();
        assert!(c.is_exhausted());
        assert!(decoded.is_empty());
        assert_eq!((decoded.arity(), decoded.generation()), (3, 1));
    }

    #[test]
    fn chunk_records_must_add_up_to_the_header_row_count() {
        let out = single_column_records(3, &[&[7], &[8]]);
        let err = get_relation(&mut Cursor::new(&out)).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.detail.contains("row count mismatch"), "{}", err.detail);
    }

    #[test]
    fn a_row_repeated_across_chunk_records_is_rejected() {
        let out = single_column_records(2, &[&[5], &[5]]);
        let err = get_relation(&mut Cursor::new(&out)).unwrap_err();
        // The header is 24 bytes and the first record 8: the error points
        // at the second record.
        assert_eq!(err.offset, 32);
        assert!(err.detail.contains("duplicate row"), "{}", err.detail);
    }
}

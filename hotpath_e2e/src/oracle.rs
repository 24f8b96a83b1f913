//! Correctness in the same command: per-query `(new, retracted)` totals a
//! composition reported are checked against a from-scratch reference — a
//! bare `TricEngine::tric()` fed through `apply_batch` — and the default
//! seed's warm-up digest is compared with the recorded one.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use gsm_core::{ContinuousEngine, MatchReport, QueryPattern, Update};
use gsm_tric::TricEngine;

use crate::input::Fnv;

/// Per-query `(new, retracted)` embedding totals, indexed by query.
pub type Totals = Vec<(u64, u64)>;

pub fn fold(totals: &mut Totals, report: &MatchReport) {
    for m in &report.matches {
        let i = m.query.index();
        if i >= totals.len() {
            totals.resize(i + 1, (0, 0));
        }
        totals[i].0 += m.new_embeddings;
        totals[i].1 += m.retracted_embeddings;
    }
}

/// `(new, retracted)` summed over all queries.
pub fn sum(totals: &Totals) -> (u64, u64) {
    totals
        .iter()
        .fold((0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1))
}

fn reference_engine(queries: &[QueryPattern]) -> TricEngine {
    let mut engine = TricEngine::tric();
    for q in queries {
        engine.register_query(q).expect("generated query registers");
    }
    engine
}

/// The edges still live after `updates`, in stream order of first mention.
pub fn survivors(updates: &[Update]) -> Vec<Update> {
    let mut live: HashSet<Update> = HashSet::new();
    for u in updates {
        if u.is_retraction() {
            live.remove(&u.edge());
        } else {
            live.insert(u.edge());
        }
    }
    let mut seen: HashSet<Update> = HashSet::new();
    updates
        .iter()
        .map(Update::edge)
        .filter(|e| live.contains(e) && seen.insert(*e))
        .collect()
}

/// Embeddings per query in the graph `updates` leaves behind, evaluated
/// from scratch: what `new − retracted` must equal for every query.
pub fn reference_net(queries: &[QueryPattern], updates: &[Update]) -> Vec<u64> {
    let mut totals = vec![(0, 0); queries.len()];
    let report = reference_engine(queries).apply_batch(&survivors(updates));
    fold(&mut totals, &report);
    totals.iter().map(|t| t.0).collect()
}

/// Gross per-query totals of the whole stream, replayed sequentially in
/// `chunk`-sized batches on the reference engine.
pub fn reference_gross(queries: &[QueryPattern], updates: &[Update], chunk: usize) -> Totals {
    let mut engine = reference_engine(queries);
    let mut totals = vec![(0, 0); queries.len()];
    for batch in updates.chunks(chunk.max(1)) {
        fold(&mut totals, &engine.apply_batch(batch));
    }
    totals
}

fn padded(totals: &Totals, len: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
    (0..len.max(totals.len())).map(|i| totals.get(i).copied().unwrap_or((0, 0)))
}

pub fn check_net(got: &Totals, want: &[u64]) -> Result<(), String> {
    for (q, (new, retracted)) in padded(got, want.len()).enumerate() {
        let want = want.get(q).copied().unwrap_or(0);
        if new.checked_sub(retracted) != Some(want) {
            return Err(format!(
                "query {q}: reported new {new} - retracted {retracted}, reference holds {want} embeddings"
            ));
        }
    }
    Ok(())
}

pub fn check_gross(got: &Totals, want: &Totals) -> Result<(), String> {
    for (q, (g, w)) in padded(got, want.len())
        .zip(padded(want, got.len()))
        .enumerate()
    {
        if g != w {
            return Err(format!(
                "query {q}: reported (new, retracted) = {g:?}, reference replay gives {w:?}"
            ));
        }
    }
    Ok(())
}

/// Checks reported totals against the reference within a time budget: a
/// from-scratch evaluation of a dear input costs as much as streaming it.
pub struct Verifier {
    budget: Duration,
    spent: Duration,
    /// Sub-runs checked so far.
    pub verified: usize,
}

impl Verifier {
    pub fn new(budget: Duration) -> Self {
        Verifier {
            budget,
            spent: Duration::ZERO,
            verified: 0,
        }
    }

    /// The first call always checks, in full: the net check and a
    /// sequential replay of the whole stream, in `chunk`-sized batches, for
    /// the gross totals. Later calls run the net check while the budget
    /// lasts.
    pub fn verify(
        &mut self,
        queries: &[QueryPattern],
        processed: &[Update],
        chunk: usize,
        got: &Totals,
    ) -> Result<(), String> {
        let first = self.verified == 0;
        if !first && self.spent >= self.budget {
            return Ok(());
        }
        let start = Instant::now();
        self.verified += 1;
        let result = check_net(got, &reference_net(queries, processed)).and_then(|()| {
            if first {
                check_gross(got, &reference_gross(queries, processed, chunk))
            } else {
                Ok(())
            }
        });
        self.spent += start.elapsed();
        result
    }
}

/// What a run's fixed warm-up prefixes produced, folded over all sub-runs:
/// a function of the seed alone, so the default seed's value is recorded
/// and every routine run is compared with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub embeddings_total: u64,
    pub retracted_total: u64,
    /// FNV-1a over every sub-run's input hash and per-query warm-up totals.
    pub hash: u64,
}

pub struct DigestBuilder {
    digest: Digest,
    fnv: Fnv,
}

impl DigestBuilder {
    pub fn new() -> Self {
        DigestBuilder {
            digest: Digest::default(),
            fnv: Fnv::new(),
        }
    }

    pub fn absorb(&mut self, input_hash: u64, warm_totals: &Totals) {
        self.fnv.u64(input_hash);
        self.fnv.u64(warm_totals.len() as u64);
        for &(new, retracted) in warm_totals {
            self.digest.embeddings_total += new;
            self.digest.retracted_total += retracted;
            self.fnv.u64(new);
            self.fnv.u64(retracted);
        }
    }

    pub fn finish(mut self) -> Digest {
        self.digest.hash = self.fnv.finish();
        self.digest
    }
}

/// The seed whose digests are recorded.
pub const DEFAULT_SEED: u64 = 1;

/// Warm-up digests of [`DEFAULT_SEED`], per workload. Re-record with
/// `--print-digest` only in a change that means to alter the generator or
/// the workload shapes.
pub const RECORDED: [(&str, Digest); 4] = [
    (
        "serve_snb_win500",
        Digest {
            embeddings_total: 20490,
            retracted_total: 308,
            hash: 0x72c2_113d_adcc_eb4d,
        },
    ),
    (
        "engine_taxi_qdb300",
        Digest {
            embeddings_total: 405821,
            retracted_total: 0,
            hash: 0x580a_a77e_84b4_de2e,
        },
    ),
    (
        "engine_snb_win1k",
        Digest {
            embeddings_total: 149870,
            retracted_total: 0,
            hash: 0x02c8_11fe_0233_4916,
        },
    ),
    (
        "durable_taxi_win500",
        Digest {
            embeddings_total: 43876,
            retracted_total: 862,
            hash: 0x8507_8fd2_0a99_b8bb,
        },
    ),
];

pub fn compare_digest(got: &Digest, recorded: &Digest) -> Result<(), String> {
    if got == recorded {
        return Ok(());
    }
    Err(format!(
        "warm-up digest {got:?} differs from the recorded {recorded:?}: the generator, the workload shape or an engine's answers changed"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsm_core::SymbolTable;

    fn digest_of(totals: &Totals) -> Digest {
        let mut b = DigestBuilder::new();
        b.absorb(42, totals);
        b.finish()
    }

    #[test]
    fn digest_comparer_rejects_a_tampered_total() {
        let totals: Totals = vec![(5, 1), (0, 0), (7, 7)];
        let recorded = digest_of(&totals);
        assert!(compare_digest(&digest_of(&totals), &recorded).is_ok());
        // One embedding moved between queries: the sums agree, the hash
        // does not.
        let moved: Totals = vec![(6, 1), (0, 0), (6, 7)];
        assert_eq!(
            digest_of(&moved).embeddings_total,
            recorded.embeddings_total
        );
        assert!(compare_digest(&digest_of(&moved), &recorded).is_err());
        // A tampered recorded total is rejected too.
        let mut tampered = recorded;
        tampered.retracted_total += 1;
        assert!(compare_digest(&digest_of(&totals), &tampered).is_err());
    }

    #[test]
    fn net_and_gross_checks_agree_with_the_reference() {
        let mut symbols = SymbolTable::new();
        let q = QueryPattern::parse("?a -l-> ?b; ?b -l-> ?c", &mut symbols).unwrap();
        let l = symbols.intern("l");
        let v: Vec<_> = (0..4).map(|i| symbols.intern(&format!("v{i}"))).collect();
        let stream = vec![
            Update::new(l, v[0], v[1]),
            Update::new(l, v[1], v[2]),
            Update::new(l, v[2], v[3]),
            Update::retraction(l, v[0], v[1]),
        ];
        let queries = [q];
        // Two 2-chains appeared, one disappeared with its first edge.
        let gross = reference_gross(&queries, &stream, 1);
        assert_eq!(gross, vec![(2, 1)]);
        assert_eq!(reference_net(&queries, &stream), vec![1]);
        assert!(check_net(&gross, &[1]).is_ok());
        assert!(check_gross(&gross, &vec![(2, 1)]).is_ok());
        // A lost retraction or a double-counted embedding is caught.
        assert!(check_net(&vec![(2, 0)], &[1]).is_err());
        assert!(check_gross(&vec![(3, 2)], &gross).is_err());
        assert!(check_net(&vec![], &[1]).is_err());
        assert_eq!(survivors(&stream).len(), 2);
    }
}

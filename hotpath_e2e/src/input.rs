//! Inputs: the four frozen workload shapes, sub-seed derivation, and the
//! wire rendering of a generated workload. The system under test only ever
//! sees what `gsm_datagen::Workload::generate` produced from the seed.

use gsm_core::{QueryPattern, SymbolTable, Term, Update};
use gsm_datagen::{Dataset, Workload, WorkloadConfig};

/// Signed updates handed over per `push` frame / per 64 `push_at` calls.
pub const FRAME: usize = 64;

/// Stride between the sub-seed ranges of consecutive seeds; at least the
/// largest `sub_runs` of any workload.
const SUB_SEED_STRIDE: u64 = 1024;

/// Label of the probe edges the served workload adds to every frame.
pub const PROBE_LABEL: &str = "__probe";

/// Which composition a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `gsm-server` on loopback over TRIC+.
    Serve,
    /// In-process threaded pipeline over TRIC+.
    Threaded,
    /// In-process inline pipeline over TRIC+.
    Inline,
    /// In-process inline pipeline over persistent, sharded TRIC+.
    Durable,
}

/// One frozen workload shape. Sizes were calibrated once on the recorded
/// machine (README, "Calibration") and are part of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Independent sub-runs per run. Every run replays the workload shape on
    /// this many freshly generated inputs (one sub-seed each), gives each an
    /// equal share of the timed region, and reports the median over them:
    /// one seed can make a stream many times dearer than the next (one
    /// query's embedding count explodes), and only a median over many draws
    /// keeps a comparison steady across seeds. Workloads whose cost the
    /// engine dominates need more draws than those a fixed overhead (the
    /// server, the fsync) dominates.
    pub sub_runs: usize,
    pub dataset: Dataset,
    /// Base (insert) edges generated per sub-run; a sliding window roughly
    /// doubles this into signed updates.
    pub base_edges: usize,
    pub queries: usize,
    /// Average query size in edges (the paper's `l`).
    pub query_size: usize,
    /// Sliding-window width in inserts; 0 = insert-only stream.
    pub window: usize,
    /// Untimed warm-up prefix per sub-run, in frames.
    pub warm_frames: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "serve_snb_win500",
        why: "engine work is cheap, so gsm-server (JSON, interning, channels, sockets) carries most of the cost; the only workload with user-visible push-to-notify latency",
        kind: Kind::Serve,
        sub_runs: 64,
        dataset: Dataset::Snb,
        base_edges: 16_000,
        queries: 20,
        query_size: 3,
        window: 500,
        warm_frames: 24,
    },
    Spec {
        name: "engine_taxi_qdb300",
        why: "insert-only, 300 queries: trie propagation and covering-path join dominate; no sockets, WAL or retractions, so a change to those must show no change here",
        kind: Kind::Threaded,
        sub_runs: 96,
        dataset: Dataset::Taxi,
        base_edges: 40_000,
        queries: 300,
        query_size: 3,
        window: 0,
        warm_frames: 16,
    },
    Spec {
        name: "engine_snb_win1k",
        why: "half the updates are retractions over a 1000-edge live graph: remove_deltas, snapshot pins, compaction and sign-run splitting; an insert-path gain that costs deletions shows here",
        kind: Kind::Inline,
        sub_runs: 96,
        dataset: Dataset::Snb,
        base_edges: 24_000,
        queries: 60,
        query_size: 3,
        window: 1_000,
        warm_frames: 48,
    },
    Spec {
        name: "durable_taxi_win500",
        why: "small engine work per batch under PersistentEngine over 2 shards: WAL append, fsync, checkpoints and shard routing carry their largest share; no other workload touches gsm-persist or shard.rs",
        kind: Kind::Durable,
        sub_runs: 48,
        dataset: Dataset::Taxi,
        base_edges: 16_000,
        queries: 60,
        query_size: 3,
        window: 500,
        warm_frames: 16,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// SplitMix64 step: decorrelates `(seed, sub-run)` into a generator seed.
pub fn sub_seed(seed: u64, sub_run: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(SUB_SEED_STRIDE)
        .wrapping_add(sub_run as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sub-run's input: queries plus the signed update stream, cut into
/// [`FRAME`]-sized frames by the drivers.
pub struct Input {
    pub symbols: SymbolTable,
    pub queries: Vec<QueryPattern>,
    pub updates: Vec<Update>,
    /// Index into `queries` of the probe query (served workload only).
    pub probe_query: Option<usize>,
    /// FNV-1a over the generated stream and query set: a silent change in
    /// `gsm-datagen` changes it.
    pub hash: u64,
}

pub fn generate(spec: &Spec, seed: u64, sub_run: usize) -> Input {
    let mut config = WorkloadConfig::new(spec.dataset, spec.base_edges, spec.queries)
        .with_query_size(spec.query_size)
        .with_seed(sub_seed(seed, sub_run));
    if spec.window > 0 {
        config = config.with_sliding_window(spec.window);
    }
    let Workload {
        mut symbols,
        stream,
        mut queries,
        ..
    } = Workload::generate(config);
    let mut updates = stream.as_slice().to_vec();
    let mut probe_query = None;
    if spec.kind == Kind::Serve {
        // Every frame = 63 stream edges + 1 probe edge `p<i> -__probe-> q<i>`
        // that the probe query matches exactly once.
        let probe = QueryPattern::parse(&format!("?a -{PROBE_LABEL}-> ?b"), &mut symbols)
            .expect("probe pattern is valid");
        probe_query = Some(queries.len());
        queries.push(probe);
        let label = symbols.intern(PROBE_LABEL);
        let mut framed = Vec::with_capacity(updates.len() + updates.len() / (FRAME - 1) + 1);
        for (i, chunk) in updates.chunks(FRAME - 1).enumerate() {
            if chunk.len() < FRAME - 1 {
                break; // keep every frame full
            }
            framed.extend_from_slice(chunk);
            let (p, q) = (
                symbols.intern(&format!("p{i}")),
                symbols.intern(&format!("q{i}")),
            );
            framed.push(Update::new(label, p, q));
        }
        updates = framed;
    }
    let mut hash = Fnv::new();
    for u in &updates {
        hash.u64(u.label.0 as u64 | (u.retract as u64) << 32);
        hash.u64(u.src.0 as u64 | (u.tgt.0 as u64) << 32);
    }
    for q in &queries {
        hash.bytes(render_query(q, &symbols).as_bytes());
    }
    Input {
        symbols,
        queries,
        updates,
        probe_query,
        hash: hash.finish(),
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn render_term(term: &Term, symbols: &SymbolTable) -> String {
    match term {
        Term::Var(v) => format!("?x{v}"),
        Term::Const(s) => symbols.resolve(*s).to_string(),
    }
}

/// The pattern in the wire syntax `QueryPattern::parse` reads.
pub fn render_query(query: &QueryPattern, symbols: &SymbolTable) -> String {
    query
        .edges()
        .iter()
        .map(|e| {
            format!(
                "{} -{}-> {}",
                render_term(&e.src, symbols),
                symbols.resolve(e.label),
                render_term(&e.tgt, symbols)
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// One signed edge in wire form: `(retract?, label, src, tgt)`.
pub type WireEdge = (bool, String, String, String);

pub fn render_update(u: &Update, symbols: &SymbolTable) -> WireEdge {
    (
        u.is_retraction(),
        symbols.resolve(u.label).to_string(),
        symbols.resolve(u.src).to_string(),
        symbols.resolve(u.tgt).to_string(),
    )
}

pub fn borrow_frame(frame: &[WireEdge]) -> Vec<(bool, &str, &str, &str)> {
    frame
        .iter()
        .map(|(r, l, s, t)| (*r, l.as_str(), s.as_str(), t.as_str()))
        .collect()
}

//! What one retraction costs a [`Relation`], as a function of how many rows
//! it holds: the storage-variant bench ROADMAP asked for before settling how
//! `retract_rows` removes a row.
//!
//! Every series is a steady sliding window at the relation level — the
//! timed unit is one **slide**: retract the oldest live row, push one fresh
//! row — over 500 / 2 000 / 10⁴ / 10⁵ live rows and arity 2–4, which is what
//! every node and edge view of the engines does on a windowed stream.
//!
//! The file uses only `Relation::{new, push, retract_rows}`, so it compiles
//! and runs unchanged on any checkout: to compare two storage variants,
//! build this bench on each (`cargo bench -p gsm-bench --bench
//! relation_retract --no-run`) and alternate the two executables. A slide
//! whose cost does not depend on the live row count is the reading to look
//! for; CHANGES.md records the chunk-rewrite and swap-remove variants and
//! the flat row store that replaced the chunks.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gsm_core::interner::Sym;
use gsm_core::relation::Relation;
use std::time::Duration;

/// Live row counts of the series.
const LIVE_ROWS: [usize; 4] = [500, 2_000, 10_000, 100_000];

/// Row `i` of the stream: distinct in the first column, so every arity
/// 2–4 prefix is a distinct row.
fn stream_row(i: u32, arity: usize) -> Vec<Sym> {
    [i, i.wrapping_mul(31).wrapping_add(7), i ^ 0x5555, i / 2][..arity]
        .iter()
        .copied()
        .map(Sym)
        .collect()
}

/// A relation holding rows `0..live` of the stream, and the slide that
/// moves its window forward by one row.
struct Window {
    rel: Relation,
    arity: usize,
    oldest: u32,
    next: u32,
}

impl Window {
    fn filled(live: usize, arity: usize) -> Self {
        let mut rel = Relation::new(arity);
        for i in 0..live as u32 {
            rel.push(&stream_row(i, arity));
        }
        Window {
            rel,
            arity,
            oldest: 0,
            next: live as u32,
        }
    }

    fn slide(&mut self) -> usize {
        let mut expired = Relation::new(self.arity);
        expired.push(&stream_row(self.oldest, self.arity));
        let dropped = self.rel.retract_rows(&expired);
        self.rel.push(&stream_row(self.next, self.arity));
        self.oldest += 1;
        self.next += 1;
        dropped
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation_retract");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    group.throughput(Throughput::Elements(1));

    for arity in 2..=4usize {
        for live in LIVE_ROWS {
            let mut window = Window::filled(live, arity);
            group.bench_function(BenchmarkId::new(format!("slide/arity{arity}"), live), |b| {
                b.iter(|| {
                    let dropped = window.slide();
                    assert_eq!(dropped, 1, "the oldest row was live");
                    black_box(dropped)
                });
            });
            assert_eq!(window.rel.len(), live, "the window stayed full");
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

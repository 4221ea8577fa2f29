//! Substrate ablation: hierarchical vs flat matrix accumulation and a
//! single serial COO compaction — the design choices behind refs [34][35]
//! of the paper. (`window_throughput` compares serial and radix
//! compaction.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use obscor_hypersparse::{hier, Coo, HierarchicalAccumulator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn synth_triples(n: usize, sources: u32) -> Vec<(u32, u32, u64)> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n)
        .map(|_| {
            // Heavy-ish head: low source ids much more likely.
            let r: f64 = rng.random();
            let src = ((r * r * sources as f64) as u32).min(sources - 1);
            let dst = rng.random_range(0u32..1 << 24) | (44 << 24);
            (src, dst, 1u64)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let n = 1 << 20;
    let triples = synth_triples(n, 50_000);

    let mut g = c.benchmark_group("hypersparse_insert");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));

    g.bench_function("flat_single_sort", |b| {
        b.iter(|| black_box(hier::accumulate_flat(triples.iter().copied())))
    });

    for leaf_log2 in [14u32, 17] {
        g.bench_with_input(
            BenchmarkId::new("hierarchical", format!("leaf=2^{leaf_log2}")),
            &leaf_log2,
            |b, &ll| {
                b.iter(|| {
                    let mut acc = HierarchicalAccumulator::with_leaf_capacity(1 << ll);
                    acc.extend(triples.iter().copied());
                    black_box(acc.finalize())
                })
            },
        );
    }

    g.bench_function("coo_compact_serial", |b| {
        b.iter(|| {
            black_box(Coo::from_triples(triples.iter().copied()).into_csr_serial())
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

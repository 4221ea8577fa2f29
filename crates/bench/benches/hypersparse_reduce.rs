//! Substrate bench: Table II reduction kernels and element-wise merge on
//! window-scale matrices.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use obscor_hypersparse::{ops, reduce, Coo, Csr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn synth_matrix(n: usize, seed: u64) -> Csr<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n);
    for _ in 0..n {
        let r: f64 = rng.random();
        let src = (r * r * 40_000.0) as u32;
        let dst = rng.random_range(0u32..1 << 22);
        coo.push(src, dst, 1u64);
    }
    coo.into_csr()
}

fn bench(c: &mut Criterion) {
    let n = 1 << 20;
    let a = synth_matrix(n, 1);
    let b2 = synth_matrix(n, 2);

    let mut g = c.benchmark_group("hypersparse_reduce");
    g.sample_size(20);
    g.throughput(Throughput::Elements(a.nnz() as u64));

    g.bench_function("valid_packets", |b| b.iter(|| black_box(reduce::valid_packets(&a))));
    g.bench_function("source_packets", |b| b.iter(|| black_box(reduce::source_packets(&a))));
    g.bench_function("source_fan_out", |b| b.iter(|| black_box(reduce::source_fan_out(&a))));
    g.bench_function("destination_packets", |b| {
        b.iter(|| black_box(reduce::destination_packets(&a)))
    });
    g.bench_function("zero_norm", |b| b.iter(|| black_box(ops::zero_norm(&a))));
    g.bench_function("ewise_add", |b| b.iter(|| black_box(ops::ewise_add(&a, &b2))));
    g.bench_function("transpose", |b| b.iter(|| black_box(a.transpose())));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Table II (and Fig 2): every network quantity of a window's traffic
//! matrix, with the matrix build included as its own benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use obscor_bench::{bench_nv, fixture};
use obscor_hypersparse::reduce::{self, NetworkQuantities};
use obscor_telescope::matrix;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let f = fixture(bench_nv(), 42);
    let w = &f.windows[0];
    let m = matrix::build_matrix(w);

    eprintln!("\n=== TABLE II (regenerated, window {}) ===", w.label);
    eprintln!("{}", NetworkQuantities::compute(&m).render());

    let mut g = c.benchmark_group("table2");
    g.sample_size(20);
    g.bench_function("build_matrix_hierarchical", |b| {
        b.iter(|| black_box(matrix::build_matrix(w)))
    });
    g.bench_function("all_quantities", |b| {
        b.iter(|| black_box(NetworkQuantities::compute(&m)))
    });
    g.bench_function("source_packets_reduce", |b| {
        b.iter(|| black_box(reduce::source_packets(&m)))
    });
    g.bench_function("destination_fan_in", |b| {
        b.iter(|| black_box(reduce::destination_fan_in(&m)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Fig 4: coeval CAIDA∩GreyNoise fraction per log2 degree bin, with the
//! `log2(d)/log2(sqrt(N_V))` law alongside.

use criterion::{criterion_group, criterion_main, Criterion};
use obscor_bench::{bench_nv, fixture};
use obscor_core::peak::peak_correlation;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let f = fixture(bench_nv(), 42);
    let bright_log2 = f.scenario.bright_log2();

    eprintln!("\n=== FIG 4 (regenerated) ===");
    eprintln!("knee at sqrt(N_V) = 2^{bright_log2:.1}");
    for wd in &f.degrees {
        let peak = peak_correlation(wd, &f.monthly_sources[wd.month], bright_log2, 10);
        eprintln!("window {} (month {}):", wd.label, wd.month);
        eprintln!("  d        n        measured  law");
        for p in &peak.points {
            eprintln!(
                "  2^{:<6} {:>7} {:>9.3} {:>8.3}",
                p.bin, p.n_sources, p.fraction, p.empirical_law
            );
        }
    }

    let wd = &f.degrees[0];
    let gn = &f.monthly_sources[wd.month];
    let mut g = c.benchmark_group("fig4");
    g.sample_size(30);
    g.bench_function("bin_bit_sets", |b| b.iter(|| black_box(wd.bin_bit_sets(10))));
    g.bench_function("peak_correlation", |b| {
        b.iter(|| black_box(peak_correlation(wd, gn, bright_log2, 10)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

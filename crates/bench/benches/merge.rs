//! Wall-clock benchmark of the merge stage in isolation on the paper's
//! busiest scene type (circles), plus the merge-only baseline quantifying
//! the split stage's benefit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rg_core::engine::merge_from_split;
use rg_core::{split, Config};
use rg_imaging::synth;

fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge");
    g.sample_size(20);
    for &n in &[128usize, 256] {
        let img = synth::circle_collection(n);
        let cfg = Config::with_threshold(10);
        let pre = split(&img, &cfg);
        g.bench_with_input(BenchmarkId::new("seq", n), &pre, |b, pre| {
            b.iter(|| merge_from_split(pre, &cfg))
        });
        // Merge-only baseline: every pixel starts as a region — the work
        // the split stage saves (the paper's motivation for splitting).
        let cfg0 = Config::with_threshold(10).max_square_log2(Some(0));
        let pre0 = split(&img, &cfg0);
        g.bench_with_input(BenchmarkId::new("seq/no-split", n), &pre0, |b, pre| {
            b.iter(|| merge_from_split(pre, &cfg0))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);

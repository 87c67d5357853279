//! Baseline comparison: the paper's parallel split-and-merge vs the
//! sequential classics it builds on (CCL, seeded growing,
//! Horowitz-Pavlidis), wall clock on the host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rg_baselines::{ccl, hp, seeded};
use rg_core::{segment, Config, Connectivity};
use rg_imaging::synth;

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("baselines");
    g.sample_size(20);
    let img = synth::circle_collection(256);
    let cfg = Config::with_threshold(10);
    g.bench_function(BenchmarkId::new("split_merge_seq", 256), |b| {
        b.iter(|| segment(&img, &cfg))
    });
    g.bench_function(BenchmarkId::new("seeded_growing", 256), |b| {
        b.iter(|| seeded::grow_regions(&img, &cfg))
    });
    g.bench_function(BenchmarkId::new("horowitz_pavlidis", 256), |b| {
        b.iter(|| hp::split_and_merge(&img, &cfg))
    });
    g.bench_function(BenchmarkId::new("ccl", 256), |b| {
        b.iter(|| ccl::label_components(&img, Connectivity::Four))
    });
    g.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);

//! Wall-clock benchmark of the split stage across image sizes and scene
//! types (the modern analogue of the paper's split rows).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rg_core::{split, Config};
use rg_imaging::synth;

fn bench_split(c: &mut Criterion) {
    let mut g = c.benchmark_group("split");
    for &n in &[128usize, 256, 512] {
        let nested = synth::nested_rects(n);
        let noise = synth::uniform_noise(n, n, 100, 105, 7);
        let cfg = Config::with_threshold(10);
        g.throughput(Throughput::Elements((n * n) as u64));
        g.bench_with_input(BenchmarkId::new("seq/nested", n), &nested, |b, img| {
            b.iter(|| split(img, &cfg))
        });
        // Noise within threshold: the best case (everything coalesces).
        g.bench_with_input(BenchmarkId::new("seq/noise", n), &noise, |b, img| {
            b.iter(|| split(img, &cfg))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_split);
criterion_main!(benches);

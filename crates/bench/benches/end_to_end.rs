//! Wall-clock benchmark of the full pipeline on the paper's six images.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rg_core::{segment, Config};
use rg_imaging::synth::PaperImage;

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(20);
    for pi in PaperImage::ALL {
        let img = pi.generate();
        let cfg = Config::with_threshold(10);
        g.bench_with_input(
            BenchmarkId::new("seq", format!("{pi:?}")),
            &img,
            |b, img| b.iter(|| segment(img, &cfg)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);

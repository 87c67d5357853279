//! Domain scenario: measure object geometry in a synthetic "parts on a
//! conveyor" scene — the kind of industrial-vision workload region growing
//! was used for. Segments with the host engine, then reports
//! per-region area, bounding box, centroid, and mean intensity via the
//! `rg_core::regions` API, and writes a boundary overlay as PGM.
//!
//! ```text
//! cargo run --release --example shape_segmentation
//! ```

use rg_core::regions::{overlay_boundaries, summarize_regions};
use rg_core::{segment, Config};
use rg_imaging::draw::{fill_circle, fill_rect, Rect};
use rg_imaging::{pgm, GrayImage, Image};

fn main() {
    // Build the scene: a belt background, three machined parts, a washer
    // (annulus: the hole stays background-coloured but enclosed).
    let mut img: GrayImage = Image::new(512, 384, 48);
    fill_rect(&mut img, Rect::new(40, 60, 120, 90), 140); // plate
    fill_rect(&mut img, Rect::new(230, 50, 60, 200), 190); // bar
    fill_circle(&mut img, 400, 120, 55, 230); // disc
    fill_circle(&mut img, 170, 280, 60, 120); // washer body
    fill_circle(&mut img, 170, 280, 25, 48); // washer hole

    let cfg = Config::with_threshold(12);
    let t0 = std::time::Instant::now();
    let seg = segment(&img, &cfg);
    let dt = t0.elapsed();

    println!(
        "segmented {}x{} scene into {} regions in {:.1} ms ({} squares after split)",
        seg.width,
        seg.height,
        seg.num_regions,
        dt.as_secs_f64() * 1e3,
        seg.num_squares
    );

    let mut rows = summarize_regions(&img, &seg);
    rows.sort_by_key(|r| std::cmp::Reverse(r.area()));
    println!(
        "{:<8} {:>9} {:>22} {:>16} {:>8}",
        "region", "area(px)", "bbox", "centroid", "mean"
    );
    for r in &rows {
        println!(
            "{:<8} {:>9} {:>22} {:>16} {:>8.1}",
            r.label,
            r.area(),
            format!("({},{})-({},{})", r.bbox.0, r.bbox.1, r.bbox.2, r.bbox.3),
            format!("({:.1},{:.1})", r.centroid.0, r.centroid.1),
            r.mean()
        );
    }

    // 6 regions: belt, plate, bar, disc, washer, hole.
    assert_eq!(seg.num_regions, 6, "expected 6 regions in the scene");

    let out = std::env::temp_dir().join("shape_segmentation_overlay.pgm");
    pgm::save(&overlay_boundaries(&img, &seg), &out).expect("write overlay");
    println!("boundary overlay written to {}", out.display());
}

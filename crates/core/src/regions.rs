//! Per-region summaries and boundary extraction — the downstream-facing
//! output API (object measurement, overlay rendering).

use crate::config::RegionStats;
use crate::engine::Segmentation;
use rg_imaging::{Image, Intensity};

/// Geometry and intensity summary of one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSummary<P: Intensity> {
    /// Compact region label.
    pub label: u32,
    /// Intensity statistics (min/max/sum/count).
    pub stats: RegionStats<P>,
    /// Bounding box `(x0, y0, x1, y1)`, half-open.
    pub bbox: (usize, usize, usize, usize),
    /// Pixel-centroid `(x, y)`.
    pub centroid: (f64, f64),
}

impl<P: Intensity> RegionSummary<P> {
    /// Region area in pixels.
    pub fn area(&self) -> usize {
        self.stats.count as usize
    }

    /// Mean intensity.
    pub fn mean(&self) -> f64 {
        self.stats.sum as f64 / self.stats.count as f64
    }
}

/// Summarises every region of a segmentation in one pass.
///
/// # Panics
/// Panics if the segmentation does not match the image dimensions.
pub fn summarize_regions<P: Intensity>(
    img: &Image<P>,
    seg: &Segmentation,
) -> Vec<RegionSummary<P>> {
    assert_eq!(img.width(), seg.width, "image/segmentation width mismatch");
    assert_eq!(
        img.height(),
        seg.height,
        "image/segmentation height mismatch"
    );
    struct Acc<P: Intensity> {
        stats: Option<RegionStats<P>>,
        min_x: usize,
        min_y: usize,
        max_x: usize,
        max_y: usize,
        sum_x: u64,
        sum_y: u64,
    }
    let mut accs: Vec<Acc<P>> = (0..seg.num_regions)
        .map(|_| Acc {
            stats: None,
            min_x: usize::MAX,
            min_y: usize::MAX,
            max_x: 0,
            max_y: 0,
            sum_x: 0,
            sum_y: 0,
        })
        .collect();
    for (i, &l) in seg.labels.iter().enumerate() {
        let (x, y) = (i % seg.width, i / seg.width);
        let a = &mut accs[l as usize];
        let s = RegionStats::of_pixel(img.pixels()[i]);
        a.stats = Some(a.stats.map_or(s, |prev| prev.fold(s)));
        a.min_x = a.min_x.min(x);
        a.min_y = a.min_y.min(y);
        a.max_x = a.max_x.max(x);
        a.max_y = a.max_y.max(y);
        a.sum_x += x as u64;
        a.sum_y += y as u64;
    }
    accs.into_iter()
        .enumerate()
        .map(|(label, a)| {
            let stats = a.stats.expect("every label has pixels (labels are dense)");
            RegionSummary {
                label: label as u32,
                stats,
                bbox: (a.min_x, a.min_y, a.max_x + 1, a.max_y + 1),
                centroid: (
                    a.sum_x as f64 / stats.count as f64,
                    a.sum_y as f64 / stats.count as f64,
                ),
            }
        })
        .collect()
}

/// Marks pixels lying on a region boundary (4-adjacent to a different
/// label). Image borders do not count as boundaries.
pub fn boundary_mask(seg: &Segmentation) -> Vec<bool> {
    let (w, h) = (seg.width, seg.height);
    let l = &seg.labels;
    let mut mask = vec![false; w * h];
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            let me = l[i];
            let boundary = (x + 1 < w && l[i + 1] != me)
                || (x > 0 && l[i - 1] != me)
                || (y + 1 < h && l[i + w] != me)
                || (y > 0 && l[i - w] != me);
            mask[i] = boundary;
        }
    }
    mask
}

/// Renders the image with region boundaries painted white — the usual
/// "show me the segmentation" overlay.
pub fn overlay_boundaries<P: Intensity>(img: &Image<P>, seg: &Segmentation) -> Image<P> {
    assert_eq!(img.len(), seg.labels.len(), "image/segmentation mismatch");
    let mask = boundary_mask(seg);
    let mut out = img.clone();
    for (i, &b) in mask.iter().enumerate() {
        if b {
            let (x, y) = (i % seg.width, i / seg.width);
            out.set(x, y, P::MAX_VALUE);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::segment;
    use crate::Config;
    use rg_imaging::synth;

    #[test]
    fn summaries_cover_all_pixels() {
        let img = synth::rect_collection(64);
        let seg = segment(&img, &Config::with_threshold(10));
        let sums = summarize_regions(&img, &seg);
        assert_eq!(sums.len(), 7);
        let total: usize = sums.iter().map(|s| s.area()).sum();
        assert_eq!(total, 64 * 64);
        // Labels ascend and match indices.
        for (i, s) in sums.iter().enumerate() {
            assert_eq!(s.label, i as u32);
        }
    }

    #[test]
    fn flat_region_geometry_is_exact() {
        // One 4x3 rectangle of intensity 200 at (2,1) on a 0 background.
        let mut img: rg_imaging::GrayImage = rg_imaging::Image::new(10, 8, 0);
        rg_imaging::draw::fill_rect(&mut img, rg_imaging::draw::Rect::new(2, 1, 4, 3), 200);
        let seg = segment(&img, &Config::with_threshold(5));
        let sums = summarize_regions(&img, &seg);
        let rect = sums.iter().find(|s| s.stats.min == 200).unwrap();
        assert_eq!(rect.area(), 12);
        assert_eq!(rect.bbox, (2, 1, 6, 4));
        assert_eq!(rect.centroid, (3.5, 2.0));
        assert_eq!(rect.mean(), 200.0);
        assert_eq!(rect.stats.range(), 0);
    }

    #[test]
    fn summaries_match_per_label_pixel_statistics() {
        let img = synth::uniform_noise(48, 40, 60, 140, 3);
        let seg = segment(&img, &Config::with_threshold(12));
        let sums = summarize_regions(&img, &seg);
        assert_eq!(sums.len(), seg.num_regions);
        for s in &sums {
            let pixels: Vec<u8> = seg
                .labels
                .iter()
                .zip(img.pixels())
                .filter(|&(&l, _)| l == s.label)
                .map(|(_, &p)| p)
                .collect();
            assert_eq!(s.stats.min, *pixels.iter().min().unwrap());
            assert_eq!(s.stats.max, *pixels.iter().max().unwrap());
            assert_eq!(
                s.stats.sum,
                pixels.iter().map(|&p| u64::from(p)).sum::<u64>()
            );
            assert_eq!(s.stats.count, pixels.len() as u64);
        }
    }

    #[test]
    fn boundary_mask_separates_regions() {
        let img = synth::nested_rects(32);
        let cfg = Config::with_threshold(10);
        let seg = segment(&img, &cfg);
        let mask = boundary_mask(&seg);
        // There must be boundary pixels (two regions) but not everywhere.
        let count = mask.iter().filter(|&&b| b).count();
        assert!(count > 0 && count < 32 * 32 / 2);
        // Every masked pixel really touches another label.
        for (i, &b) in mask.iter().enumerate() {
            if b {
                let (x, y) = (i % 32, i / 32);
                let me = seg.labels[i];
                let touches = [
                    (x > 0).then(|| seg.labels[i - 1]),
                    (x + 1 < 32).then(|| seg.labels[i + 1]),
                    (y > 0).then(|| seg.labels[i - 32]),
                    (y + 1 < 32).then(|| seg.labels[i + 32]),
                ];
                assert!(touches.into_iter().flatten().any(|l| l != me));
            }
        }
    }

    #[test]
    fn overlay_paints_only_boundaries() {
        let img = synth::circle_collection(64);
        let cfg = Config::with_threshold(10);
        let seg = segment(&img, &cfg);
        let overlay = overlay_boundaries(&img, &seg);
        let mask = boundary_mask(&seg);
        for (i, &b) in mask.iter().enumerate() {
            let (x, y) = (i % 64, i / 64);
            if b {
                assert_eq!(overlay.get(x, y), u8::MAX);
            } else {
                assert_eq!(overlay.get(x, y), img.get(x, y));
            }
        }
    }

    #[test]
    fn single_region_has_no_boundary() {
        let img: rg_imaging::GrayImage = rg_imaging::Image::new(8, 8, 7);
        let seg = segment(&img, &Config::with_threshold(0));
        assert!(boundary_mask(&seg).iter().all(|&b| !b));
    }
}

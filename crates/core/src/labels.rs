//! Label post-processing: dense compaction and visualisation helpers.

use rg_imaging::Image;

/// Renumbers arbitrary labels into `0..n` by order of first appearance.
///
/// First-appearance (raster) order makes compact labels canonical: two
/// segmentations induce the same partition iff their compacted label
/// buffers are equal — the property every cross-engine test relies on.
pub fn compact_first_appearance(raw: &[u32]) -> (Vec<u32>, usize) {
    let mut map = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(raw.len());
    for &r in raw {
        let next = map.len() as u32;
        let id = *map.entry(r).or_insert(next);
        out.push(id);
    }
    (out, map.len())
}

/// Pixel counts per compact label.
pub fn region_sizes(labels: &[u32], num_regions: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; num_regions];
    for &l in labels {
        sizes[l as usize] += 1;
    }
    sizes
}

/// Renders compact labels as a grey image with well-separated grey levels
/// (multiplicative hashing spreads consecutive labels across the range),
/// for writing segmentations out as PGM.
pub fn labels_to_image(labels: &[u32], width: usize, height: usize) -> Image<u8> {
    assert_eq!(labels.len(), width * height, "label buffer size mismatch");
    Image::from_fn(width, height, |x, y| {
        let l = labels[y * width + x];
        // Fibonacci hashing onto 8 bits, avoiding pure black.
        (((l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8) | 0x10
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_first_appearance_order() {
        let raw = vec![7, 7, 3, 9, 3, 7];
        let (c, n) = compact_first_appearance(&raw);
        assert_eq!(c, vec![0, 0, 1, 2, 1, 0]);
        assert_eq!(n, 3);
    }

    #[test]
    fn region_sizes_sum_to_total() {
        let labels = vec![0, 1, 1, 2, 2, 2];
        let sizes = region_sizes(&labels, 3);
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn labels_image_distinct_regions_distinct_grey() {
        let labels = vec![0, 1, 2, 3];
        let img = labels_to_image(&labels, 2, 2);
        let mut greys: Vec<u8> = img.pixels().to_vec();
        greys.sort_unstable();
        greys.dedup();
        assert_eq!(greys.len(), 4);
    }
}

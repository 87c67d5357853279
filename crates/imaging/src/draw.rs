//! Minimal rasterisation helpers used to synthesise test scenes.
//!
//! All primitives clip against the image bounds, so generators can place
//! shapes partially off-canvas without special-casing.

use crate::image::{Image, Intensity};

/// An axis-aligned rectangle, `x0..x0+w` by `y0..y0+h` in pixel units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: usize,
    /// Top edge (inclusive).
    pub y0: usize,
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
}

impl Rect {
    /// Convenience constructor.
    pub fn new(x0: usize, y0: usize, w: usize, h: usize) -> Self {
        Self { x0, y0, w, h }
    }

    /// `true` iff `(x, y)` lies inside the rectangle.
    #[inline]
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x0 && x < self.x0 + self.w && y >= self.y0 && y < self.y0 + self.h
    }

    /// Area in pixels.
    pub fn area(&self) -> usize {
        self.w * self.h
    }
}

/// Fills `rect` (clipped to the image) with intensity `v`.
pub fn fill_rect<P: Intensity>(img: &mut Image<P>, rect: Rect, v: P) {
    let x1 = (rect.x0 + rect.w).min(img.width());
    let y1 = (rect.y0 + rect.h).min(img.height());
    for y in rect.y0.min(y1)..y1 {
        for cell in &mut img.row_mut(y)[rect.x0.min(x1)..x1] {
            *cell = v;
        }
    }
}

/// Fills the disc of radius `r` centred at `(cx, cy)` (clipped) with `v`.
///
/// A pixel belongs to the disc when its centre lies within distance `r`
/// of the centre, i.e. `(x-cx)^2 + (y-cy)^2 <= r^2`.
pub fn fill_circle<P: Intensity>(img: &mut Image<P>, cx: i64, cy: i64, r: i64, v: P) {
    if r < 0 {
        return;
    }
    let y_lo = (cy - r).max(0) as usize;
    let y_hi = ((cy + r) as usize).min(img.height().saturating_sub(1));
    let rr = r * r;
    for y in y_lo..=y_hi.min(img.height().saturating_sub(1)) {
        let dy = y as i64 - cy;
        // Horizontal half-extent of the disc at this scanline.
        let span = ((rr - dy * dy) as f64).sqrt().floor() as i64;
        let x_lo = (cx - span).max(0) as usize;
        let x_hi = (cx + span).min(img.width() as i64 - 1);
        if x_hi < 0 {
            continue;
        }
        for cell in &mut img.row_mut(y)[x_lo..=x_hi as usize] {
            *cell = v;
        }
    }
}

/// Fills the convex polygon given by `pts` (clockwise or counter-clockwise)
/// with `v`, using a scanline even-odd fill.
///
/// Intended for the small convex pieces of the synthetic "tool" image; not a
/// general polygon rasteriser.
pub fn fill_convex_poly<P: Intensity>(img: &mut Image<P>, pts: &[(i64, i64)], v: P) {
    if pts.len() < 3 {
        return;
    }
    let y_min = pts.iter().map(|p| p.1).min().unwrap().max(0);
    let y_max = pts
        .iter()
        .map(|p| p.1)
        .max()
        .unwrap()
        .min(img.height() as i64 - 1);
    for y in y_min..=y_max {
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        let n = pts.len();
        for i in 0..n {
            let (x0, y0) = pts[i];
            let (x1, y1) = pts[(i + 1) % n];
            if y0 == y1 {
                if y == y0 {
                    lo = lo.min(x0.min(x1));
                    hi = hi.max(x0.max(x1));
                }
                continue;
            }
            let (ya, yb) = (y0.min(y1), y0.max(y1));
            if y < ya || y > yb {
                continue;
            }
            // Intersection of the scanline with this edge.
            let x = x0 + (x1 - x0) * (y - y0) / (y1 - y0);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if lo > hi {
            continue;
        }
        let x_lo = lo.max(0) as usize;
        let x_hi = (hi.min(img.width() as i64 - 1)).max(0) as usize;
        if x_lo <= x_hi && x_hi < img.width() {
            for cell in &mut img.row_mut(y as usize)[x_lo..=x_hi] {
                *cell = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_contains_and_area() {
        let r = Rect::new(2, 3, 4, 5);
        assert!(r.contains(2, 3));
        assert!(r.contains(5, 7));
        assert!(!r.contains(6, 3));
        assert!(!r.contains(2, 8));
        assert_eq!(r.area(), 20);
    }

    #[test]
    fn fill_rect_clips() {
        let mut img: Image<u8> = Image::new(4, 4, 0);
        fill_rect(&mut img, Rect::new(2, 2, 10, 10), 9);
        assert_eq!(img.get(1, 1), 0);
        assert_eq!(img.get(2, 2), 9);
        assert_eq!(img.get(3, 3), 9);
    }

    #[test]
    fn fill_rect_exact_cells() {
        let mut img: Image<u8> = Image::new(5, 5, 0);
        fill_rect(&mut img, Rect::new(1, 1, 2, 3), 7);
        let painted: Vec<_> = (0..img.len())
            .filter(|&i| img.pixels()[i] == 7)
            .map(|i| img.coords(i))
            .collect();
        assert_eq!(
            painted,
            vec![(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
        );
    }

    #[test]
    fn circle_is_symmetric_and_clipped() {
        let mut img: Image<u8> = Image::new(21, 21, 0);
        fill_circle(&mut img, 10, 10, 5, 1);
        assert_eq!(img.get(10, 10), 1);
        assert_eq!(img.get(15, 10), 1);
        assert_eq!(img.get(16, 10), 0);
        // Four-fold symmetry.
        for dy in -5i64..=5 {
            for dx in -5i64..=5 {
                let a = img.get((10 + dx) as usize, (10 + dy) as usize);
                let b = img.get((10 - dx) as usize, (10 - dy) as usize);
                assert_eq!(a, b);
            }
        }
        // Clipping must not panic.
        let mut edge: Image<u8> = Image::new(8, 8, 0);
        fill_circle(&mut edge, 0, 0, 5, 2);
        assert_eq!(edge.get(0, 0), 2);
        assert_eq!(edge.get(7, 7), 0);
    }

    #[test]
    fn convex_poly_triangle() {
        let mut img: Image<u8> = Image::new(10, 10, 0);
        fill_convex_poly(&mut img, &[(1, 1), (8, 1), (1, 8)], 3);
        assert_eq!(img.get(1, 1), 3);
        assert_eq!(img.get(7, 1), 3);
        assert_eq!(img.get(1, 7), 3);
        assert_eq!(img.get(8, 8), 0);
        // A point well inside.
        assert_eq!(img.get(3, 3), 3);
    }

    #[test]
    fn degenerate_poly_is_noop() {
        let mut img: Image<u8> = Image::new(4, 4, 0);
        fill_convex_poly(&mut img, &[(1, 1), (2, 2)], 5);
        assert!(img.pixels().iter().all(|&p| p == 0));
    }
}

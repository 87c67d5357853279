//! Dense row-major 2-D rasters.
//!
//! [`Image`] is deliberately simple: a `Vec` of intensities plus a width and
//! height. The region-growing crates index it heavily in hot loops, so the
//! accessors are `#[inline]` and there is an unchecked-free fast path via
//! [`Image::row`].

use std::fmt;
use std::ops::{Index, IndexMut};

/// An integer grey-level intensity.
///
/// The paper's *pixel range* homogeneity criterion only needs ordering and a
/// widening conversion so that `max - min` can be computed without overflow;
/// this trait captures exactly that. It is implemented for `u8`, `u16` and
/// `u32`.
pub trait Intensity:
    Copy + Ord + Eq + Send + Sync + fmt::Debug + fmt::Display + Default + 'static
{
    /// Widen to `u32` for range arithmetic.
    fn to_u32(self) -> u32;
    /// Narrow from `u32`, saturating at the type's maximum.
    fn from_u32_saturating(v: u32) -> Self;
    /// The maximum representable intensity (white).
    const MAX_VALUE: Self;
    /// The minimum representable intensity (black).
    const MIN_VALUE: Self;
}

macro_rules! impl_intensity {
    ($($t:ty),*) => {$(
        impl Intensity for $t {
            #[inline]
            fn to_u32(self) -> u32 { self as u32 }
            #[inline]
            fn from_u32_saturating(v: u32) -> Self {
                if v > <$t>::MAX as u32 { <$t>::MAX } else { v as $t }
            }
            const MAX_VALUE: Self = <$t>::MAX;
            const MIN_VALUE: Self = <$t>::MIN;
        }
    )*};
}

impl_intensity!(u8, u16, u32);

/// A dense, row-major grey-scale raster.
///
/// Pixel `(x, y)` lives at `data[y * width + x]`; `x` grows rightwards and
/// `y` grows downwards, matching PGM and the paper's figures.
#[derive(Clone, PartialEq, Eq)]
pub struct Image<P: Intensity> {
    width: usize,
    height: usize,
    data: Vec<P>,
}

impl<P: Intensity> Image<P> {
    /// Creates an image filled with `fill`.
    ///
    /// # Panics
    /// Panics if `width * height` overflows or either dimension is zero.
    pub fn new(width: usize, height: usize, fill: P) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        let len = width
            .checked_mul(height)
            .expect("image dimensions overflow");
        Self {
            width,
            height,
            data: vec![fill; len],
        }
    }

    /// Builds an image from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height` or either dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<P>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert_eq!(
            data.len(),
            width * height,
            "buffer length {} does not match {}x{}",
            data.len(),
            width,
            height
        );
        Self {
            width,
            height,
            data,
        }
    }

    /// Builds an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> P) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the image holds no pixels (never true for a constructed
    /// image, but required by clippy's `len_without_is_empty`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Intensity at `(x, y)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> P {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Sets the intensity at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: P) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Row `y` as a slice (fast path for scanline algorithms).
    #[inline]
    pub fn row(&self, y: usize) -> &[P] {
        let start = y * self.width;
        &self.data[start..start + self.width]
    }

    /// Row `y` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [P] {
        let start = y * self.width;
        &mut self.data[start..start + self.width]
    }

    /// The raw row-major pixel buffer.
    #[inline]
    pub fn pixels(&self) -> &[P] {
        &self.data
    }

    /// Consumes the image, returning the raw buffer.
    pub fn into_vec(self) -> Vec<P> {
        self.data
    }

    /// Linear index of pixel `(x, y)` in the row-major buffer.
    #[inline]
    pub fn idx(&self, x: usize, y: usize) -> usize {
        y * self.width + x
    }

    /// Inverse of [`Image::idx`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        (idx % self.width, idx / self.width)
    }

    /// Minimum and maximum intensity over the whole image.
    pub fn min_max(&self) -> (P, P) {
        let mut lo = self.data[0];
        let mut hi = self.data[0];
        for &p in &self.data[1..] {
            if p < lo {
                lo = p;
            }
            if p > hi {
                hi = p;
            }
        }
        (lo, hi)
    }

    /// Extracts the `w × h` sub-image whose top-left corner is `(x0, y0)`.
    ///
    /// Used by the message-passing implementation to scatter the image onto
    /// the node grid (step 0 of the paper's message-passing algorithm).
    ///
    /// # Panics
    /// Panics if the window exceeds the image bounds.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Self {
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop window out of bounds"
        );
        let mut data = Vec::with_capacity(w * h);
        for y in y0..y0 + h {
            data.extend_from_slice(&self.row(y)[x0..x0 + w]);
        }
        Self {
            width: w,
            height: h,
            data,
        }
    }

    /// [`Image::crop`] into a recyclable image: refills `out`'s pixel
    /// buffer in place (no allocation once `out` has reached the window's
    /// high-water capacity) and resets its dimensions to `w × h`.
    ///
    /// # Panics
    /// Panics if the window exceeds the image bounds or either dimension
    /// is zero.
    pub fn crop_into(&self, x0: usize, y0: usize, w: usize, h: usize, out: &mut Self) {
        assert!(w > 0 && h > 0, "image dimensions must be nonzero");
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop window out of bounds"
        );
        out.data.clear();
        out.data.reserve(w * h);
        for y in y0..y0 + h {
            out.data.extend_from_slice(&self.row(y)[x0..x0 + w]);
        }
        out.width = w;
        out.height = h;
    }

    /// Maps every pixel through `f`, producing an image of a possibly
    /// different intensity type.
    pub fn map<Q: Intensity>(&self, mut f: impl FnMut(P) -> Q) -> Image<Q> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&p| f(p)).collect(),
        }
    }
}

impl<P: Intensity> Index<(usize, usize)> for Image<P> {
    type Output = P;
    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &P {
        &self.data[y * self.width + x]
    }
}

impl<P: Intensity> IndexMut<(usize, usize)> for Image<P> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut P {
        &mut self.data[y * self.width + x]
    }
}

impl<P: Intensity> fmt::Debug for Image<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Image {}x{} [", self.width, self.height)?;
        let show_rows = self.height.min(16);
        for y in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.width.min(16);
            for x in 0..show_cols {
                write!(f, "{:>4}", self.get(x, y))?;
            }
            if self.width > show_cols {
                write!(f, " ...")?;
            }
            writeln!(f)?;
        }
        if self.height > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills() {
        let img: Image<u8> = Image::new(4, 3, 7);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.len(), 12);
        assert!(img.pixels().iter().all(|&p| p == 7));
    }

    #[test]
    fn from_fn_row_major() {
        let img: Image<u16> = Image::from_fn(3, 2, |x, y| (10 * y + x) as u16);
        assert_eq!(img.pixels(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(img.get(2, 1), 12);
        assert_eq!(img[(1, 0)], 1);
    }

    #[test]
    fn idx_coords_roundtrip() {
        let img: Image<u8> = Image::new(7, 5, 0);
        for y in 0..5 {
            for x in 0..7 {
                let i = img.idx(x, y);
                assert_eq!(img.coords(i), (x, y));
            }
        }
    }

    #[test]
    fn crop_extracts_window() {
        let img: Image<u8> = Image::from_fn(4, 4, |x, y| (y * 4 + x) as u8);
        let c = img.crop(1, 2, 2, 2);
        assert_eq!(c.pixels(), &[9, 10, 13, 14]);
    }

    #[test]
    fn crop_into_matches_crop_and_reuses_buffer() {
        let img: Image<u8> = Image::from_fn(6, 5, |x, y| (y * 6 + x) as u8);
        let mut out: Image<u8> = Image::new(1, 1, 0);
        img.crop_into(1, 2, 3, 2, &mut out);
        assert_eq!(out, img.crop(1, 2, 3, 2));
        let cap = out.data.capacity();
        // A smaller window refills in place without reallocating.
        img.crop_into(0, 0, 2, 2, &mut out);
        assert_eq!(out, img.crop(0, 0, 2, 2));
        assert_eq!(out.data.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn crop_oob_panics() {
        let img: Image<u8> = Image::new(4, 4, 0);
        let _ = img.crop(3, 3, 2, 2);
    }

    #[test]
    fn min_max_scans_all() {
        let img: Image<u8> = Image::from_vec(2, 2, vec![9, 3, 250, 17]);
        assert_eq!(img.min_max(), (3, 250));
    }

    #[test]
    fn rows_and_mutation() {
        let mut img: Image<u8> = Image::new(3, 2, 0);
        img.row_mut(1).copy_from_slice(&[4, 5, 6]);
        assert_eq!(img.row(1), &[4, 5, 6]);
        img.set(0, 0, 9);
        assert_eq!(img.get(0, 0), 9);
        img[(1, 0)] = 8;
        assert_eq!(img[(1, 0)], 8);
    }

    #[test]
    fn map_changes_type() {
        let img: Image<u8> = Image::from_vec(2, 1, vec![200, 100]);
        let wide: Image<u16> = img.map(|p| p as u16 * 2);
        assert_eq!(wide.pixels(), &[400, 200]);
    }

    #[test]
    fn intensity_saturating() {
        assert_eq!(u8::from_u32_saturating(300), 255);
        assert_eq!(u8::from_u32_saturating(30), 30);
        assert_eq!(u16::from_u32_saturating(70_000), u16::MAX);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_panic() {
        let _: Image<u8> = Image::new(0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_len_mismatch() {
        let _: Image<u8> = Image::from_vec(2, 2, vec![1, 2, 3]);
    }
}

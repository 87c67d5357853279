//! # rg-imaging
//!
//! Image substrate for the reproduction of *"Solving the Region Growing
//! Problem on the Connection Machine"* (Copty, Ranka, Fox, Shankar; ICPP
//! 1993).
//!
//! The paper segments grey-scale rasters; this crate provides everything the
//! algorithm crates need from the image side, with no external image
//! dependencies:
//!
//! * [`Image`] — a dense row-major 2-D raster generic over an integer
//!   intensity type ([`Intensity`]);
//! * [`pgm`] — a reader/writer for the portable grey-map format (both the
//!   ASCII `P2` and binary `P5` flavours) so inputs/outputs interoperate with
//!   standard tools;
//! * [`draw`] — minimal rasterisation helpers (filled rectangles, circles,
//!   polygons) used to synthesise test scenes;
//! * [`synth`] — generators for the six evaluation images of the paper
//!   (nested rectangles, rectangle collections, circle collections, and the
//!   256×256 "tool"), plus randomised workloads for property tests.
//!
//! Everything is deterministic: generators take explicit seeds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod draw;
pub mod image;
pub mod pgm;
pub mod synth;

pub use image::{Image, Intensity};

/// Convenient alias for the intensity type used throughout the paper
/// reproduction (8-bit grey levels, as on the CM frame buffers).
pub type GrayImage = Image<u8>;

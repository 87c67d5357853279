//! # rg-dsu
//!
//! Disjoint-set (union-find) substrate for the region-growing reproduction.
//!
//! [`seq::DisjointSets`] is the classic sequential structure with union by
//! rank and path compression (amortised inverse-Ackermann operations). The
//! host merge engine, the baselines and segmentation verification all use
//! it; the paper's parallelism is simulated by the Connection Machine
//! engines, not by this structure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod seq;

pub use seq::DisjointSets;

//! # rg-dsu
//!
//! Disjoint-set (union-find) substrate for the region-growing reproduction.
//!
//! [`seq::DisjointSets`] is the classic sequential structure with union by
//! rank and path compression (amortised inverse-Ackermann operations). Its
//! surface is what its callers use: `union` and `find` for the baselines,
//! `union_min_rep` (the paper's smaller-ID representative) for the host
//! merge engine's history and segmentation verification, and the batched
//! `resolve_all` that reads every element's root in one sweep. The paper's
//! parallelism is simulated by the Connection Machine engines, not by this
//! structure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod seq;

pub use seq::DisjointSets;

//! # rg-bench
//!
//! Benchmark harness for the reproduction: shared machinery for the
//! table/figure regeneration binaries (`paper_tables`, `figures`), the
//! recorded per-stage suites (`bench_record`, gated by [`diff`]) and the
//! journal analyzer (`trace_analyze`).
//!
//! [`tables`] runs one of the paper's six evaluation images across the five
//! platform configurations (CM-2 8K, CM-2 16K, CM-5 data-parallel, CM-5
//! message-passing LP and Async) and pairs each measured row with the
//! paper's published row so drift is visible at a glance.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod diff;
pub mod tables;

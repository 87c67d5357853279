//! # rg-msgpass
//!
//! The **message-passing** implementation of split-and-merge region
//! growing — the paper's F77 + CMMD program on the 32-node CM-5, its
//! fastest configuration — running on the `cmmd-sim` node runtime.
//!
//! The image is block-decomposed onto a P1 × P2 node grid (step 0); each
//! node splits its sub-image independently (step 1), builds its share of
//! the region adjacency graph with a boundary exchange (step 2), and the
//! nodes then cooperate through all-to-many personalized communication to
//! merge regions and update the distributed graph (steps 3–5). Both of the
//! paper's communication schemes are supported:
//! [`cmmd_sim::CommScheme::LinearPermutation`] and
//! [`cmmd_sim::CommScheme::Async`].
//!
//! Given the same square-size cap (the decomposition's
//! [`decomp::Decomposition::max_safe_square_log2`]), the segmentation is
//! bit-identical to every other engine in the workspace.
//!
//! ```
//! use cmmd_sim::CommScheme;
//! use rg_core::Config;
//! use rg_imaging::synth;
//! use rg_msgpass::segment_msgpass;
//!
//! let img = synth::nested_rects(64);
//! let out = segment_msgpass(&img, &Config::with_threshold(10), 8, CommScheme::Async);
//! assert_eq!(out.seg.num_regions, 2);
//! println!("{} nodes, merge took {:.3} simulated s", out.nodes, out.merge_seconds);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod boundary;
pub mod decomp;
pub mod driver;
pub mod merge_mp;
pub mod pipeline_mp;

pub use decomp::Decomposition;
pub use driver::{
    segment_msgpass, segment_msgpass_chaos, segment_msgpass_chaos_with_telemetry,
    segment_msgpass_with_telemetry, MsgPassBackend, MsgPassOutcome,
};
pub use merge_mp::{ExchangeComm, EXCHANGES_PER_ITERATION};
pub use pipeline_mp::MsgPassPipeline;

//! # cmmd-sim
//!
//! A simulator for CMMD — the CM-5's message-passing library — built for
//! the reproduction of *"Solving the Region Growing Problem on the
//! Connection Machine"* (ICPP 1993).
//!
//! The paper's fastest implementation is Fortran 77 + CMMD on a 32-node
//! CM-5. This crate recreates that execution model: [`try_run_spmd`]
//! launches one thread per node running the same node program; each
//! [`Node`] carries point-to-point blocking/async sends and receives,
//! control-network collectives (barrier, global concatenation,
//! reductions), and — the paper's focus — two **all-to-many personalized
//! communication** schemes, [`CommScheme::LinearPermutation`] and
//! [`CommScheme::Async`].
//!
//! Timing is *virtual*: every node advances its own clock by calibrated
//! per-operation costs ([`TimeParams`]); receives synchronise clocks
//! conservatively with sender timestamps. The reported makespan is the
//! maximum node clock — deterministic for a fixed program, independent of
//! host scheduling.
//!
//! Every communication call returns `Result`: an optional [`FaultPlan`]
//! injects deterministic faults, and a [`Fault`] the retry machinery
//! cannot absorb aborts the run with an [`SpmdAbort`]. Without a plan no
//! call fails.
//!
//! ```
//! use cmmd_sim::channel::{encode_u32s, try_decode_u32s};
//! use cmmd_sim::{try_run_spmd, Fault, TimeParams};
//!
//! let res = try_run_spmd(4, TimeParams::cm5_mp(), None, |node| {
//!     let rank = node.rank();
//!     let mut sum = 0;
//!     for part in node.try_concat(encode_u32s(&[rank as u32]))? {
//!         let malformed = |_| Fault::Malformed { rank, what: "rank word" };
//!         sum += try_decode_u32s(part).map_err(malformed)?.iter().sum::<u32>();
//!     }
//!     Ok(sum)
//! })
//! .expect("no fault plan, so no abort");
//! assert_eq!(res.results, vec![6, 6, 6, 6]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alltomany;
pub mod channel;
pub mod collectives;
pub mod fault;
pub mod runtime;
pub mod time;
pub mod trace;

pub use alltomany::{try_all_to_many, CommScheme};
pub use fault::{
    Fault, FaultCounters, FaultEvent, FaultKind, FaultPlan, FaultProfile, RetryPolicy,
    PROFILE_NAMES,
};
pub use runtime::{try_run_spmd, Node, SpmdAbort, SpmdResult};
pub use time::TimeParams;
pub use trace::{TraceEvent, TraceKind};

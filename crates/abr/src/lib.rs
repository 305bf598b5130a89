//! Adaptive-bitrate controllers (Sections IV-B, IV-C, V-A).
//!
//! Five schemes stream the same videos over the same traces:
//!
//! * **Ctile** — conventional 4×8 tiling; FoV tiles at the best
//!   sustainable quality, the rest at the lowest quality, four concurrent
//!   decoders.
//! * **Ftile** — 450 fine blocks clustered into ten variable-size tiles
//!   (ClusTile-style); same rate rule.
//! * **Nontile** — the whole frame as one stream (YouTube-style).
//! * **Ptile** — the popularity tile at the original frame rate plus
//!   low-quality background blocks; one decoder.
//! * **Ours** — the paper's contribution: an MPC controller that solves
//!   Eq. 8 with dynamic programming over discretised buffer states,
//!   picking the (bitrate, frame-rate) tuple that minimises energy subject
//!   to the ε = 5% QoE-loss constraint (8c) and the no-rebuffering buffer
//!   constraint (8a/Eq. 7).
//!
//! Modules: [`plan`] (contexts and decisions), [`sizer`] (per-scheme
//! segment sizes), [`baselines`] (the four rate-based schemes), [`mpc`]
//! (Ours), [`robust`] (the beyond-paper chance-constrained variant that
//! plans against FoV/bandwidth uncertainty quantiles), [`oracle`] (a
//! brute-force optimum used to certify the DP in tests and ablations).
//!
//! # Example
//!
//! ```
//! use ee360_abr::baselines::RateBasedController;
//! use ee360_abr::controller::{Controller, Scheme};
//! use ee360_abr::plan::SegmentContext;
//! use ee360_video::content::SiTi;
//!
//! let mut ctile = RateBasedController::new(Scheme::Ctile);
//! let ctx = SegmentContext::example(SiTi::new(60.0, 25.0), 8.0e6);
//! let plan = ctile.plan(&ctx);
//! assert!(plan.bits > 0.0);
//! ```

pub mod baselines;
pub mod controller;
pub mod mpc;
pub mod oracle;
pub mod plan;
pub mod reference;
pub mod robust;
pub mod sizer;

pub use baselines::RateBasedController;
pub use controller::{Controller, RobustStats, Scheme};
pub use mpc::{MpcConfig, MpcController};
pub use plan::{SegmentContext, SegmentPlan};
pub use robust::RobustMpcController;
pub use sizer::SchemeSizer;

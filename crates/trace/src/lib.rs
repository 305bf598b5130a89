//! Trace substrate: synthetic head-movement and LTE bandwidth traces.
//!
//! The paper evaluates over two external artifacts we cannot ship:
//!
//! 1. the MMSys'17 head-movement dataset \[8\] (48 users watching 360°
//!    videos), and
//! 2. an LTE throughput trace \[27\] (linearly scaled into *trace 1* and
//!    *trace 2*).
//!
//! This crate provides their synthetic stand-ins (see DESIGN.md for the
//! substitution argument):
//!
//! * [`head`] — a stochastic gaze simulator with fixation, smooth-pursuit
//!   and exploration phases, driven by each video's behaviour profile
//!   (focused videos 1–4 vs. exploratory videos 5–8). Calibrated so the
//!   view-switching-speed distribution matches Fig. 5 (switching above
//!   10°/s roughly 30% of the time).
//! * [`network`] — a bounded AR(1) LTE-like bandwidth trace; *trace 2*
//!   averages 3.9 Mbps within \[2.3, 8.4\] Mbps and *trace 1* is exactly
//!   2× trace 2, the paper's own construction.
//! * [`dataset`] — bundles per-video user populations and the train/eval
//!   split (40 users construct Ptiles, 8 users evaluate).
//! * [`fault`] — seedable, replay-deterministic fault schedules layered
//!   over any network trace: zero-bandwidth outages, latency spikes,
//!   segment loss/corruption and decoder failures, for the resilience
//!   pipeline and chaos runs.
//!
//! Everything is deterministic given a `u64` seed.
//!
//! # Example
//!
//! ```
//! use ee360_trace::head::{GazeConfig, HeadTraceGenerator};
//! use ee360_video::catalog::VideoCatalog;
//!
//! let catalog = VideoCatalog::paper_default();
//! let generator = HeadTraceGenerator::new(GazeConfig::default());
//! let trace = generator.generate(catalog.video(1).unwrap(), 0, 42);
//! assert_eq!(trace.video_id(), 1);
//! assert!(trace.duration_sec() > 300.0);
//! ```

pub mod dataset;
pub mod derived;
pub mod fault;
pub mod head;
pub mod io;
pub mod mmsys;
pub mod network;

pub use dataset::{Dataset, VideoTraces};
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultyLink};
pub use head::{GazeConfig, HeadTrace, HeadTraceError, HeadTraceGenerator};
pub use io::{load_dataset, save_dataset, TraceIoError};
pub use mmsys::{load_head_trace as load_mmsys_trace, MmsysError};
pub use network::{LteProfile, NetworkTrace};

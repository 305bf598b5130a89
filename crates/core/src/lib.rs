//! End-to-end experiments: the paper's evaluation pipeline.
//!
//! This crate is the top of the `ee360` stack. It wires the substrates
//! together the way Section V does:
//!
//! * [`server`] — server-side preparation: per-segment Ptile construction
//!   from the 40 training users' traces, Ptile lookup for a predicted
//!   viewport,
//! * [`client`] — one user's streaming session under one scheme: viewport
//!   prediction (ridge regression), bandwidth estimation (harmonic mean),
//!   the controller decision, the simulated download, and the energy/QoE
//!   bookkeeping of Eqs. 1 and 2,
//! * [`experiment`] — sweeps over videos × schemes × traces × users and
//!   aggregates (Figs. 9–11),
//! * [`report`] — plain-text tables matching the figures' rows/series.
//!
//! # Example
//!
//! ```
//! use ee360_core::experiment::{Evaluation, ExperimentConfig};
//! use ee360_abr::controller::Scheme;
//! use ee360_video::catalog::VideoCatalog;
//!
//! let mut config = ExperimentConfig::quick_test();
//! config.max_segments = Some(20); // keep the doctest fast
//! let catalog = VideoCatalog::paper_default();
//! let eval = Evaluation::prepare_videos(config, &catalog, Some(&[6]));
//! let outcome = eval.run(6, Scheme::Ptile);
//! assert!(outcome.mean_energy_mj_per_segment > 0.0);
//! assert!(outcome.mean_qoe > 0.0);
//! ```

pub mod client;
pub mod experiment;
pub mod fleet;
pub mod gaze;
pub mod parallel;
pub mod report;
pub mod server;

pub use client::{
    make_controller, run_session_resilient, run_session_traced, try_run_session_traced,
    SessionError, SessionSetup,
};
pub use experiment::{ExperimentConfig, SchemeOutcome};
pub use fleet::{fleet_sessions_traced, FleetSessionDriver};
pub use parallel::{default_threads, run_matrix};
pub use report::{BarChart, TableWriter};
pub use server::{PrepareError, VideoServer};

//! The client-side streaming simulator.
//!
//! Ties the substrates together into the download-and-play loop the paper's
//! evaluation runs:
//!
//! * [`buffer`] — the playback buffer dynamics of Eq. 6/7, including the
//!   buffer-threshold wait `Δt_k` and stall accounting,
//! * [`decoder`] — the multi-decoder pipeline model behind Fig. 2(b):
//!   decode time shrinks sublinearly and power grows superlinearly with
//!   the number of concurrent decoders,
//! * [`metrics`] — per-segment timing and records, and whole-session
//!   aggregates (energy breakdown, QoE decomposition, stall statistics),
//! * [`resilience`] — the one download engine: a
//!   [`resilience::SessionCore`] (buffer, clock, counters) downloads over
//!   a [`resilience::DownloadEnv`] (network trace, fault plan, retry
//!   policy) with the Eq. 6 wait, per-attempt timeouts, exponential-backoff
//!   retries, mid-download abandon with ladder degradation, and
//!   skip-with-blackout when a segment's deadline is exhausted, each
//!   download ending in a [`resilience::DownloadOutcome`] — the paper's
//!   benign world is the same engine with no faults and the wait-forever
//!   policy,
//! * [`fleet`] — the discrete-event fleet engine: one loop
//!   ([`fleet::drive_sessions`]) runs many sessions on one logical-time
//!   queue with O(100 B) hot state each, deterministically sharded and
//!   bit-identical to the loop engine at any thread count.
//!
//! # Example
//!
//! ```
//! use ee360_sim::buffer::PlaybackBuffer;
//!
//! let mut buf = PlaybackBuffer::paper_default(); // β = 3 s
//! let first = buf.advance(0.4, 1.0); // startup: empty buffer stalls
//! assert_eq!(first.stall_sec, 0.4);
//! let second = buf.advance(0.4, 1.0); // now 1 s is buffered — no stall
//! assert_eq!(second.stall_sec, 0.0);
//! assert!(buf.level_sec() > 0.0);
//! ```

pub mod buffer;
pub mod decoder;
pub mod fleet;
pub mod metrics;
pub mod resilience;

pub use buffer::{BufferStep, PlaybackBuffer};
pub use decoder::DecoderPipeline;
pub use fleet::{
    drive_sessions, run_scale_fleet, shard_ranges, EngineStats, EventKind, FleetConfig,
    FleetReport, Scheduler, SessionDriver,
};
pub use metrics::{SegmentRecord, SegmentTiming, SessionMetrics};
pub use resilience::{
    DownloadEnv, DownloadOutcome, DownloadState, PolicyError, ResilienceCounters, RetryPolicy,
    SessionCore,
};

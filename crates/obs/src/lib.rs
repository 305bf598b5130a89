//! `ee360-obs` — deterministic structured tracing, metrics registry,
//! and opt-in per-stage profiling for the streaming pipeline.
//!
//! The workspace's replay policy is *byte-identical same-seed output*,
//! so observability here is deterministic by construction:
//!
//! * **Events and spans** ([`event`], [`record`]) are keyed on logical
//!   simulation time — segment index and sim clock — never wall-clock.
//!   A serialized trace is therefore a pure function of the seed.
//! * **Metrics** ([`metrics`]) are counters, gauges, and log-bucketed
//!   histograms in sorted maps; per-session registries merge in index
//!   order after threaded fan-outs so thread count never changes the
//!   aggregate.
//! * **Profiling** ([`profile`]) is the single sanctioned wall-clock
//!   island. It is opt-in (`EE360_OBS_PROFILE=1`), gated behind
//!   [`Record::profiling`], and never enabled on replay paths.
//! * **Windowed series** ([`timeseries`]) bucket the same emissions by
//!   logical simulation time into fixed-width windows, merged with the
//!   same user-index-order discipline, so per-window counters partition
//!   the whole-run registry exactly.
//! * **Sampling and exemplars** ([`sample`]) pick trace-keeping
//!   sessions by a pure `(seed, session)` hash and keep bounded worst-K
//!   tail snapshots whose membership is offer-order independent.
//! * **SLOs** ([`slo`]) evaluate declarative objectives per window with
//!   burn-rate accounting over the deterministic series.
//!
//! Instrumented code writes to `&mut dyn Record` and never checks a
//! level: the sink alone decides what it keeps. A [`Recorder`] keeps
//! events at or below its [`Level`], and at [`Level::Off`] keeps
//! nothing at all — no event, span, metric or window. Benign paths
//! pass [`NoopRecorder`], whose methods are all default no-ops, so the
//! un-instrumented hot path costs a virtual call per site at most;
//! events are heap-free, so building one a sink drops costs only its
//! fields.
//!
//! Exporters ([`export`]) produce `results/obs_report.json` (aggregate
//! registry + span tree) and a JSONL per-session trace.

pub mod event;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod sample;
pub mod slo;
pub mod timeseries;

pub use event::{Event, Level};
pub use metrics::{Histogram, Registry};
pub use record::{NoopRecorder, Record, Recorder};
pub use sample::{sampled, splitmix64, ExemplarSet, ExemplarSummary, Exemplars};
pub use slo::{default_slos, evaluate_all, Objective, SloResult, SloSpec};
pub use timeseries::{
    window_index, FleetSeries, TelemetryConfig, TimeSeries, WindowCell, WindowCums,
    TIMESERIES_SCHEMA,
};

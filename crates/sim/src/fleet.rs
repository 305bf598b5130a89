//! Event-driven fleet engine: many sessions, one logical-time queue.
//!
//! The loop engines ([`crate::resilience::SessionCore`] driven to
//! completion, and the full client loop in `ee360-core`) run one session
//! at a time. This module interleaves many:
//!
//! * a **discrete-event core** — [`drive_sessions`], the engine's one
//!   loop, pops queued events (replan, download-complete, fault-fire,
//!   stall-start/stall-end) off one binary heap ordered by `(time,
//!   session, seq)` and dispatches them to [`SessionDriver`]s, which
//!   are given everything they write to when they are built;
//! * **deterministic sharding** — [`shard_ranges`] splits the fleet
//!   into contiguous index ranges driven on the `ee360-support` worker
//!   pool; sessions never interact, so per-shard queues are
//!   observationally identical to one global queue, and summaries (and
//!   each session's run of its shard's window log, regrouped by session
//!   in the worker) are folded back in user-index order so results are
//!   independent of the thread count;
//! * a **floor driver for engine overhead** — the private `ScaleDriver`
//!   is a synthetic session with a few hundred bytes of scalar state (the
//!   download core, one in-flight [`DownloadState`], an RNG, an EWMA
//!   bandwidth estimate, the running summary and a pointer to the
//!   shard's window log). It books energy and QoE through the same
//!   `ee360-power`/`ee360-qoe` models as the full client, but has no
//!   viewport prediction, Ptiles or MPC solve. Real paper sessions
//!   (`ee360-core`'s fleet driver) cost 9–12 KB each, so this driver is
//!   what the 100k-session memory budgets, the telemetry artifact and
//!   the `BENCH_perf.json` fleet row measure: the engine's own cost with
//!   the session work taken out. It is reached only through
//!   [`run_scale_fleet`] and [`run_scale_fleet_telemetry`], and its only
//!   inputs are the fleet's size, seed, thread count and telemetry switch
//!   ([`FleetConfig`]); the phone, retry policy and start spread are
//!   fixed.
//!
//! **Equivalence argument.** The event engine does not reimplement any
//! streaming semantics: every event handler calls the *same*
//! [`SessionCore::begin_download`]/[`SessionCore::step_download`] step
//! functions the loop engine runs, in the same per-session order (a
//! session only ever has one outstanding event, so its chain replays its
//! loop exactly). Cross-session interleaving cannot change per-session
//! state because sessions share only immutable inputs. Hence per-session
//! outcomes are bit-identical to the loop engine — which
//! `tests/fleet_equivalence.rs` pins across the paper matrix.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use ee360_obs::profile::StageTimer;
use ee360_obs::timeseries::window_index;
use ee360_obs::{
    evaluate_all, sampled, ExemplarSummary, Exemplars, FleetSeries, Level, Record, Recorder,
    SloSpec, TelemetryConfig, WindowCell, WindowCums, TIMESERIES_SCHEMA,
};
use ee360_power::energy::{SegmentEnergy, SegmentEnergyParams};
use ee360_power::model::{DecoderScheme, Phone, PowerModel};
use ee360_qoe::impairment::{QoeWeights, SegmentQoe};
use ee360_qoe::quality::QoModel;
use ee360_support::parallel::parallel_map_indexed;
use ee360_support::rng::StdRng;
use ee360_trace::fault::FaultPlan;
use ee360_trace::network::NetworkTrace;
use ee360_video::content::SiTi;
use ee360_video::segment::{BUFFER_THRESHOLD_SEC, SEGMENT_DURATION_SEC};

use crate::decoder::DecoderPipeline;
use crate::resilience::{
    DownloadEnv, DownloadOutcome, DownloadState, ResilienceCounters, RetryPolicy, SessionCore,
};

/// What a queued event means to the session it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Plan the next segment and open its download.
    Replan,
    /// The in-flight segment finished (delivered or skipped) and was
    /// booked; advance to the next slot.
    DownloadComplete,
    /// A fault/timeout resolution point: run the next recovery attempt.
    FaultFire,
    /// Playback stalled (informational; derived from the booked timing).
    StallStart,
    /// Playback resumed (informational).
    StallEnd,
}

/// One entry in the global logical-time queue. Ordered by `(time,
/// session, seq)`: `time_bits` is the IEEE-754 bit pattern of the event
/// time, which sorts identically to the `f64` for the non-negative
/// finite times [`Scheduler::schedule`] enforces, so the heap never
/// compares floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueuedEvent {
    time_bits: u64,
    session: u32,
    seq: u64,
    kind: EventKind,
}

/// The scheduling surface handed to a driver: events it pushes here are
/// stamped with its session index and a global sequence number, then
/// merged into the engine's queue.
#[derive(Debug, Default)]
pub struct Scheduler {
    pending: Vec<(f64, EventKind)>,
}

impl Scheduler {
    /// Schedules `kind` at logical time `t_sec` for the session whose
    /// handler is currently running.
    ///
    /// # Panics
    ///
    /// Panics if `t_sec` is negative or not finite (the bit-pattern
    /// ordering of the queue requires non-negative finite times).
    pub fn schedule(&mut self, t_sec: f64, kind: EventKind) {
        assert!(
            t_sec.is_finite() && t_sec >= 0.0,
            "event time must be finite and non-negative, got {t_sec}"
        );
        // lint:allow(hot-path-alloc, "amortised: a handler schedules at most a few events and the Vec retains its capacity across the drain cycle")
        self.pending.push((t_sec, kind));
    }
}

/// A session the event engine can drive. Drivers own all their mutable
/// state (including any recorder); the engine only routes events. A
/// driver that schedules nothing from a handler is finished.
pub trait SessionDriver {
    /// Called once before any event; schedule the session's first event
    /// here (typically a [`EventKind::Replan`] at the session's start
    /// offset).
    fn start(&mut self, sched: &mut Scheduler);

    /// Handles one event previously scheduled by this driver.
    fn on_event(&mut self, kind: EventKind, sched: &mut Scheduler);
}

/// Engine-side tallies of one [`drive_sessions`] run. The per-kind
/// counts are intrinsic to the sessions (identical across thread counts
/// and shardings); `peak_queue_len` depends on how many sessions share
/// the queue and must never be folded into replay-compared reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events dispatched in total.
    pub events: u64,
    /// [`EventKind::Replan`] events dispatched.
    pub replans: u64,
    /// [`EventKind::DownloadComplete`] events dispatched.
    pub download_completes: u64,
    /// [`EventKind::FaultFire`] events dispatched.
    pub fault_fires: u64,
    /// [`EventKind::StallStart`] events dispatched.
    pub stall_starts: u64,
    /// [`EventKind::StallEnd`] events dispatched.
    pub stall_ends: u64,
    /// High-water mark of the event queue (schedule-dependent).
    pub peak_queue_len: usize,
}

impl EngineStats {
    /// Component-wise accumulation; `peak_queue_len` takes the max (the
    /// shards run disjoint queues, so their peaks don't add).
    pub fn accumulate(&mut self, other: &EngineStats) {
        self.events += other.events;
        self.replans += other.replans;
        self.download_completes += other.download_completes;
        self.fault_fires += other.fault_fires;
        self.stall_starts += other.stall_starts;
        self.stall_ends += other.stall_ends;
        self.peak_queue_len = self.peak_queue_len.max(other.peak_queue_len);
    }
}

fn enqueue_pending(
    heap: &mut BinaryHeap<Reverse<QueuedEvent>>,
    sched: &mut Scheduler,
    session: u32,
    seq: &mut u64,
) {
    for (t_sec, kind) in sched.pending.drain(..) {
        heap.push(Reverse(QueuedEvent {
            time_bits: t_sec.to_bits(),
            session,
            seq: *seq,
            kind,
        }));
        *seq += 1;
    }
}

/// Runs every driver to completion on one shared logical-time queue.
///
/// Events pop in `(time, session index, schedule order)` order, so the
/// dispatch sequence is a pure function of the drivers — independent of
/// platform, allocator or wall clock. Because each driver only ever
/// reacts to its own events, the per-session call sequence equals the
/// sequence a dedicated single-session loop would make, which is the
/// engine half of the bit-identical-equivalence argument.
pub fn drive_sessions<D: SessionDriver>(drivers: &mut [D]) -> EngineStats {
    let mut heap: BinaryHeap<Reverse<QueuedEvent>> = BinaryHeap::new();
    let mut sched = Scheduler::default();
    let mut seq = 0u64;
    let mut stats = EngineStats::default();
    for (index, driver) in drivers.iter_mut().enumerate() {
        driver.start(&mut sched);
        enqueue_pending(&mut heap, &mut sched, index as u32, &mut seq);
    }
    stats.peak_queue_len = heap.len();
    while let Some(Reverse(event)) = heap.pop() {
        stats.events += 1;
        match event.kind {
            EventKind::Replan => stats.replans += 1,
            EventKind::DownloadComplete => stats.download_completes += 1,
            EventKind::FaultFire => stats.fault_fires += 1,
            EventKind::StallStart => stats.stall_starts += 1,
            EventKind::StallEnd => stats.stall_ends += 1,
        }
        if let Some(driver) = drivers.get_mut(event.session as usize) {
            driver.on_event(event.kind, &mut sched);
        }
        enqueue_pending(&mut heap, &mut sched, event.session, &mut seq);
        stats.peak_queue_len = stats.peak_queue_len.max(heap.len());
    }
    stats
}

/// Splits `0..n` into at most `shards` contiguous, near-equal ranges —
/// a pure function of `(n, shards)`, so the assignment of sessions to
/// workers is deterministic.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(n.max(1));
    let chunk = n.div_ceil(shards);
    (0..shards)
        .map(|i| (i * chunk).min(n)..((i + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Decorrelation stride between fleet sessions sharing one
/// [`FaultPlan`]: session `i` keys its per-attempt faults at
/// `i * FLEET_FAULT_STRIDE + segment`. The stride is far longer than any
/// video's segment count, so no session's fault keys overlap another
/// session's fault stream.
const FLEET_FAULT_STRIDE: usize = 100_000;

/// Bitrate (Mbps) of each rung of the scale driver's ladder
/// (top-to-bottom). A one-second segment at a rung is `mbps × 1e6`
/// bits, exact for every rung.
const SCALE_LADDER_MBPS: [f64; 5] = [16.0, 10.0, 6.0, 3.5, 1.5];

/// Sessions start uniformly spread over `[0, START_SPREAD_SEC)`.
const START_SPREAD_SEC: f64 = 2.0;

fn ladder_bits(level: usize, rung: usize) -> f64 {
    let wanted = level + rung;
    let idx = wanted.min(SCALE_LADDER_MBPS.len() - 1);
    // Degradation past the ladder floor keeps halving so the recovery
    // path always has somewhere cheaper to go.
    let extra = (wanted - idx).min(8);
    SCALE_LADDER_MBPS[idx] * 1e6 / (1u64 << extra) as f64
}

/// Configuration of a scale-fleet run: the fleet's shape, its seed, the
/// worker count and the telemetry switch. Every session runs on the
/// Pixel 3 power models under [`RetryPolicy::default_mobile`], starting
/// within the fleet's first 2 s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of sessions in the fleet.
    pub sessions: usize,
    /// Segment slots each session streams.
    pub segments: usize,
    /// Master seed; session `i` derives its RNG stream from
    /// `seed + i` (SplitMix64-decorrelated).
    pub seed: u64,
    /// Worker threads for the sharded run (results are identical at any
    /// thread count).
    pub threads: usize,
    /// Telemetry switch (windowed series, sampled tracing and exemplar
    /// capture together). Off by default, which keeps the fleet's outputs
    /// and heap profile byte-identical to the pre-telemetry engine.
    pub telemetry: TelemetryConfig,
}

impl FleetConfig {
    /// A fleet of `sessions` × `segments` on one thread, telemetry off.
    pub fn new(sessions: usize, segments: usize, seed: u64) -> Self {
        Self {
            sessions,
            segments,
            seed,
            threads: 1,
            telemetry: TelemetryConfig::off(),
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the telemetry switch (windowed series, sampled tracing,
    /// exemplars).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Per-session scalar outcome of a scale-fleet session — everything the
/// fold retains (≈180 bytes, no vectors).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SessionSummary {
    /// Segment slots consumed (delivered + skipped).
    pub segments: usize,
    /// Segments delivered.
    pub delivered: usize,
    /// Segments skipped after an exhausted deadline.
    pub skipped: usize,
    /// Sum of per-segment QoE totals (Eq. 2).
    pub qoe_sum: f64,
    /// Total energy booked, millijoules.
    pub energy_mj: f64,
    /// Total stall time, seconds.
    pub stall_sec: f64,
    /// Total bits moved (delivered + wasted).
    pub bits: f64,
    /// Session wall clock at completion, seconds.
    pub clock_sec: f64,
    /// Startup latency: seconds from session start to the first
    /// delivered segment's booking; negative while/if nothing was ever
    /// delivered.
    pub startup_sec: f64,
    /// The session's resilience tallies.
    pub counters: ResilienceCounters,
}

ee360_support::impl_json_struct!(SessionSummary {
    segments,
    delivered,
    skipped,
    qoe_sum,
    energy_mj,
    stall_sec,
    bits,
    clock_sec,
    startup_sec,
    counters
});

/// Fleet-level aggregate of a scale run. Contains only thread-count
/// independent quantities (per-session sums folded in user order and
/// intrinsic event counts) — safe to compare byte-for-byte across
/// replays and worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetReport {
    /// Sessions simulated.
    pub sessions: usize,
    /// Segment slots consumed across the fleet.
    pub segments: usize,
    /// Segments delivered across the fleet.
    pub delivered: usize,
    /// Segments skipped across the fleet.
    pub skipped: usize,
    /// Mean per-segment QoE across all consumed slots.
    pub mean_qoe: f64,
    /// Total energy, millijoules.
    pub total_energy_mj: f64,
    /// Total stall time, seconds.
    pub total_stall_sec: f64,
    /// Total bits moved.
    pub total_bits: f64,
    /// Replan events dispatched (intrinsic).
    pub replans: u64,
    /// Download-complete events dispatched (intrinsic).
    pub download_completes: u64,
    /// Fault-fire events dispatched (intrinsic).
    pub fault_fires: u64,
    /// Stall-start events dispatched (intrinsic).
    pub stall_starts: u64,
    /// Fleet-wide resilience tallies.
    pub counters: ResilienceCounters,
}

ee360_support::impl_json_struct!(FleetReport {
    sessions,
    segments,
    delivered,
    skipped,
    mean_qoe,
    total_energy_mj,
    total_stall_sec,
    total_bits,
    replans,
    download_completes,
    fault_fires,
    stall_starts,
    counters
});

/// Read-only inputs shared by every session of one shard: the traces by
/// reference, the models by value (constructed deterministically).
#[derive(Debug)]
struct ScaleEnv<'a> {
    config: FleetConfig,
    network: &'a NetworkTrace,
    faults: &'a FaultPlan,
    policy: RetryPolicy,
    power: PowerModel,
    qo_model: QoModel,
    weights: QoeWeights,
    decoder: DecoderPipeline,
    content: SiTi,
}

impl<'a> ScaleEnv<'a> {
    /// Builds the shared environment for one fleet run.
    fn new(config: &FleetConfig, network: &'a NetworkTrace, faults: &'a FaultPlan) -> Self {
        Self {
            config: *config,
            network,
            faults,
            policy: RetryPolicy::default_mobile(),
            power: PowerModel::for_phone(Phone::Pixel3),
            qo_model: QoModel::paper_default(),
            weights: QoeWeights::paper_default(),
            decoder: DecoderPipeline::paper_default(),
            // The reference content of Fig. 4a's cloud (SI 60, TI 25).
            content: SiTi::new(60.0, 25.0),
        }
    }
}

/// One scale session as an event-queue driver. All hot state is scalar:
/// the [`SessionCore`] (buffer, clock, counters), at most one in-flight
/// [`DownloadState`], a 32-byte RNG, an EWMA bandwidth estimate, the
/// running [`SessionSummary`] and a pointer to its shard's window log.
/// No allocation after construction but the log's amortised growth.
#[derive(Debug)]
struct ScaleDriver<'a> {
    env: &'a ScaleEnv<'a>,
    index: usize,
    core: SessionCore,
    rng: StdRng,
    st: Option<DownloadState>,
    next_segment: usize,
    level: usize,
    coverage: f64,
    bw_est_bps: f64,
    prev_qo: Option<f64>,
    summary: SessionSummary,
    /// Session start offset (clock after the start spread), the zero
    /// point for startup latency.
    start_sec: f64,
    /// The window the most recent booking landed in; [`WINDOW_NONE`]
    /// until the first booking. Cells are sealed lazily: the booking hot
    /// path only tracks `cur_window`, and a snapshot is appended to
    /// [`Self::windows`] when a booking lands in a *later* window (plus
    /// a final seal in [`Self::finish`]), so the per-booking cost is one
    /// float compare, not a struct copy, and each window is sealed once.
    cur_window: u32,
    /// End of `cur_window` in simulation seconds (0.0 until the first
    /// booking), so the same-window fast path is a single compare with
    /// no divide.
    window_end_sec: f64,
    /// Full `Detail` trace for sessions picked by the `(seed, session)`
    /// sampling hash; `None` (no heap) for everyone else.
    trace: Option<Box<Recorder>>,
    /// The shard's one append-only window log (see
    /// [`run_scale_shards`]), shared by every driver of the shard and
    /// touched only on a window transition (a handful of times per
    /// session). It stays empty when telemetry is off.
    windows: &'a RefCell<Vec<WindowCell>>,
}

/// Ring-buffer bound for one sampled session's `Detail` trace: deep
/// enough for every per-attempt event of a smoke-scale session, small
/// enough that a 1% sample of a 100k fleet stays tens of megabytes.
const TRACE_EVENT_CAPACITY: usize = 512;

/// Sentinel for [`ScaleDriver::cur_window`]: no booking yet. Real window
/// indices are clamped to [`ee360_obs::timeseries::MAX_WINDOWS`], far
/// below this.
const WINDOW_NONE: u32 = u32::MAX;

impl<'a> ScaleDriver<'a> {
    /// Builds session `index` of the fleet: its RNG stream is derived
    /// from `config.seed + index` (SplitMix64 decorrelates neighbours)
    /// and its fault keys live at `index * FLEET_FAULT_STRIDE`. When
    /// telemetry is on, the session's window cells are appended to
    /// `windows`, in window order.
    fn new(env: &'a ScaleEnv<'a>, index: usize, windows: &'a RefCell<Vec<WindowCell>>) -> Self {
        let rng = StdRng::seed_from_u64(env.config.seed.wrapping_add(index as u64));
        Self {
            env,
            index,
            core: SessionCore::new(BUFFER_THRESHOLD_SEC),
            rng,
            st: None,
            next_segment: 0,
            level: 0,
            coverage: 1.0,
            bw_est_bps: 0.7 * env.network.bandwidth_at(0.0),
            prev_qo: None,
            summary: SessionSummary {
                startup_sec: -1.0,
                ..SessionSummary::default()
            },
            start_sec: 0.0,
            cur_window: WINDOW_NONE,
            window_end_sec: 0.0,
            trace: (env.config.telemetry.enabled()
                && sampled(env.config.seed, index as u64, TelemetryConfig::SAMPLE_PPM))
            .then(|| Box::new(Recorder::new(Level::Detail).with_capacity(TRACE_EVENT_CAPACITY))),
            windows,
        }
    }

    /// Seals the driver into its per-session summary (counters and final
    /// clock stamped from the core) plus the `Detail` trace it carried
    /// (for sampled sessions), sealing the last booked window into the
    /// window log. That final snapshot is the session's final
    /// accumulators, which is what makes the series' final row bit-exact
    /// against the fleet report.
    fn finish(mut self) -> (SessionSummary, Option<Box<Recorder>>) {
        self.seal_window();
        let mut summary = self.summary;
        summary.counters = *self.core.counters();
        summary.clock_sec = self.core.clock_sec();
        (summary, self.trace)
    }

    /// Appends bit-copies of the running accumulators the fold will
    /// total to the window log, as the cell for `cur_window` (nothing
    /// before the first booking, so nothing with telemetry off).
    fn seal_window(&mut self) {
        if self.cur_window == WINDOW_NONE {
            return;
        }
        let s = &self.summary;
        // lint:allow(hot-path-alloc, "amortised: one append-only log per shard, pushed once per window a session leaves, so its growth is a few doublings per shard, not an allocation per session")
        self.windows.borrow_mut().push(WindowCell {
            window: self.cur_window,
            session: self.index as u32,
            cums: WindowCums {
                stall_sec: s.stall_sec,
                qoe_sum: s.qoe_sum,
                energy_mj: s.energy_mj,
                bits: s.bits,
                segments: s.segments as u32,
                delivered: s.delivered as u32,
                skipped: s.skipped as u32,
            },
        });
    }

    fn download_env(&self) -> DownloadEnv<'a> {
        DownloadEnv {
            network: self.env.network,
            plan: self.env.faults,
            policy: &self.env.policy,
            decoder: &self.env.decoder,
            fault_base: self.index * FLEET_FAULT_STRIDE,
        }
    }

    fn replan(&mut self, sched: &mut Scheduler) {
        if self.next_segment >= self.env.config.segments {
            return; // session finished; schedule nothing
        }
        // Per-segment viewport-prediction miss, drawn from the session's
        // own stream: 85–100% of the FoV lands on the fetched tiles.
        self.coverage = 0.85 + 0.15 * self.rng.gen_f64();
        // Rate-based rung-0 pick: the cheapest rung that fits 80% of the
        // EWMA estimate, stepped down once more when the buffer is thin.
        let budget_bits = 0.8 * self.bw_est_bps * SEGMENT_DURATION_SEC;
        let mut level = SCALE_LADDER_MBPS.len() - 1;
        for (i, &mbps) in SCALE_LADDER_MBPS.iter().enumerate() {
            if mbps * 1e6 <= budget_bits {
                level = i;
                break;
            }
        }
        if self.core.buffer_level_sec() < 1.0 && level + 1 < SCALE_LADDER_MBPS.len() {
            level += 1;
        }
        self.level = level;
        let denv = self.download_env();
        self.st = Some(self.core.begin_download(&denv, self.next_segment));
        self.step(sched);
    }

    fn step(&mut self, sched: &mut Scheduler) {
        let denv = self.download_env();
        let level = self.level;
        let Some(st) = self.st.as_mut() else {
            return;
        };
        let mut request = |rung: usize| ladder_bits(level, rung);
        // Sampled sessions step through a live Detail recorder; recording
        // never changes the simulation (pinned by the obs reconcile
        // tests), so sampled and unsampled sessions stay bit-identical.
        let mut noop = ee360_obs::NoopRecorder;
        let rec: &mut dyn Record = match self.trace.as_deref_mut() {
            Some(trace) => trace,
            None => &mut noop,
        };
        let stepped = self.core.step_download(&denv, st, &mut request, rec);
        match stepped {
            None => sched.schedule(self.core.clock_sec(), EventKind::FaultFire),
            Some(outcome) => {
                self.st = None;
                self.book(outcome, sched);
            }
        }
    }

    fn book(&mut self, outcome: DownloadOutcome, sched: &mut Scheduler) {
        if self.env.config.telemetry.enabled() && self.core.clock_sec() >= self.window_end_sec {
            // Lazy seal: the summary still holds the previous booking's
            // accumulators here, so a booking that lands in a later
            // window first snapshots the window it is leaving. The
            // cached window end makes the same-window fast path a single
            // compare; the divide only runs on a window transition.
            let w = window_index(self.core.clock_sec(), TelemetryConfig::WINDOW_SEC);
            if w != self.cur_window {
                self.seal_window();
                self.cur_window = w;
            }
            self.window_end_sec = (f64::from(w) + 1.0) * TelemetryConfig::WINDOW_SEC;
        }
        let k = self.next_segment;
        self.next_segment += 1;
        self.summary.segments += 1;
        let stall_sec = outcome.stall_sec();
        self.summary.stall_sec += stall_sec;
        match outcome {
            DownloadOutcome::Delivered {
                timing,
                bits,
                wasted_bits,
                degraded_rungs,
                ..
            } => {
                self.summary.delivered += 1;
                if self.summary.delivered == 1 {
                    self.summary.startup_sec = self.core.clock_sec() - self.start_sec;
                }
                self.summary.bits += bits + wasted_bits;
                self.bw_est_bps = 0.8 * self.bw_est_bps + 0.2 * timing.throughput_bps;
                let energy = SegmentEnergy::compute(
                    &self.env.power,
                    SegmentEnergyParams {
                        bits: bits + wasted_bits,
                        bandwidth_bps: timing.throughput_bps,
                        fps: 30.0,
                        duration_sec: SEGMENT_DURATION_SEC,
                        scheme: DecoderScheme::Ctile,
                    },
                );
                self.summary.energy_mj += energy.total_mj();
                let floor = SCALE_LADDER_MBPS.len() - 1;
                let served = (self.level + degraded_rungs).min(floor);
                let qo_hi = self
                    .env
                    .qo_model
                    .q_o(self.env.content, SCALE_LADDER_MBPS[served]);
                let qo_lo = self
                    .env
                    .qo_model
                    .q_o(self.env.content, SCALE_LADDER_MBPS[floor]);
                let qo_eff = self.coverage * qo_hi + (1.0 - self.coverage) * qo_lo;
                // Startup (k = 0) is not a rebuffering event.
                let download_for_qoe = if k == 0 { 0.0 } else { timing.download_sec };
                let qoe = SegmentQoe::evaluate(
                    self.env.weights,
                    qo_eff,
                    self.prev_qo,
                    download_for_qoe,
                    timing.buffer_at_request_sec,
                );
                self.prev_qo = Some(qo_eff);
                self.summary.qoe_sum += qoe.total;
            }
            DownloadOutcome::Skipped {
                blackout_sec,
                wasted_bits,
                elapsed_sec,
                ..
            } => {
                self.summary.skipped += 1;
                self.summary.bits += wasted_bits;
                self.summary.energy_mj += self.env.power.transmission_power_mw() * elapsed_sec;
                let qoe =
                    SegmentQoe::evaluate(self.env.weights, 0.0, self.prev_qo, blackout_sec, 0.0);
                self.prev_qo = Some(0.0);
                self.summary.qoe_sum += qoe.total;
            }
        }
        if stall_sec > 0.0 {
            let end = self.core.clock_sec();
            sched.schedule((end - stall_sec).max(0.0), EventKind::StallStart);
            sched.schedule(end, EventKind::StallEnd);
        }
        sched.schedule(self.core.clock_sec(), EventKind::DownloadComplete);
    }
}

impl SessionDriver for ScaleDriver<'_> {
    fn start(&mut self, sched: &mut Scheduler) {
        let offset = self.rng.gen_f64() * START_SPREAD_SEC;
        self.core.advance_clock(offset);
        self.start_sec = self.core.clock_sec();
        sched.schedule(self.core.clock_sec(), EventKind::Replan);
    }

    fn on_event(&mut self, kind: EventKind, sched: &mut Scheduler) {
        match kind {
            EventKind::Replan => self.replan(sched),
            EventKind::FaultFire => self.step(sched),
            EventKind::DownloadComplete => {
                sched.schedule(self.core.clock_sec(), EventKind::Replan);
            }
            EventKind::StallStart | EventKind::StallEnd => {}
        }
    }
}

/// Sessions per shard: bounds the live driver memory of one worker (a
/// shard of 16 Ki drivers is ~16 MB) so a million-session fleet streams
/// through in waves instead of materialising at once.
const MAX_SHARD_SESSIONS: usize = 16_384;

/// Everything one shard hands back to the fold: summaries (always),
/// the window log and sampled traces (when telemetry is on), the
/// engine stats, and — under `EE360_OBS_PROFILE=1` — the shard's own
/// wall-clock phase timings.
struct ShardOut {
    summaries: Vec<SessionSummary>,
    /// The shard's window log, sorted by session: each session's cells
    /// are one contiguous run in window order, and the runs follow
    /// `summaries`. Empty when telemetry is off.
    windows: Vec<WindowCell>,
    /// Dense window count this shard needs (`max(window) + 1`), read in
    /// the worker while its cells are cache-hot, so the fold thread
    /// never re-scans the log just to size the series.
    n_windows: usize,
    traces: Vec<(u64, Box<Recorder>)>,
    stats: EngineStats,
    setup_wall_sec: Option<f64>,
    loop_wall_sec: Option<f64>,
}

fn run_scale_shards(
    config: &FleetConfig,
    network: &NetworkTrace,
    faults: &FaultPlan,
    profiling: bool,
) -> Vec<ShardOut> {
    let threads = config.threads.max(1);
    let shard_count = threads.max(config.sessions.div_ceil(MAX_SHARD_SESSIONS));
    let ranges = shard_ranges(config.sessions, shard_count);
    parallel_map_indexed(threads, ranges.len(), |shard| {
        let range = ranges.get(shard).cloned().unwrap_or(0..0);
        let env = ScaleEnv::new(config, network, faults);
        let setup_timer = StageTimer::start(profiling);
        // The shard's one window log, shared by all its drivers: each
        // appends a cell per window it leaves, so sessions interleave
        // in booking order. With windows off nothing is appended and it
        // never allocates.
        let window_log = RefCell::new(Vec::new());
        let mut drivers: Vec<ScaleDriver> = range
            .map(|index| ScaleDriver::new(&env, index, &window_log))
            .collect();
        let setup_wall_sec = setup_timer.stop();
        let loop_timer = StageTimer::start(profiling);
        let stats = drive_sessions(&mut drivers);
        let loop_wall_sec = loop_timer.stop();
        let mut summaries = Vec::with_capacity(drivers.len());
        let mut traces = Vec::new();
        for driver in drivers {
            let index = driver.index as u64;
            let (summary, trace) = driver.finish();
            summaries.push(summary);
            if let Some(trace) = trace {
                traces.push((index, trace));
            }
        }
        // Regroup by session. Each session appends its cells in window
        // order and the sort is stable, so every session's run keeps
        // that order.
        let mut window_log = window_log.into_inner();
        window_log.sort_by_key(|cell| cell.session);
        let n_windows = window_log
            .iter()
            .fold(1, |n, cell| n.max(cell.window as usize + 1));
        ShardOut {
            summaries,
            windows: window_log,
            n_windows,
            traces,
            stats,
            setup_wall_sec,
            loop_wall_sec,
        }
    })
}

/// Splits the run of `session`'s cells off the front of a shard's window
/// log, which is sorted by session.
fn take_session_cells<'c>(log: &mut &'c [WindowCell], session: u64) -> &'c [WindowCell] {
    let run = log
        .iter()
        .take_while(|cell| u64::from(cell.session) == session)
        .count();
    let (cells, rest) = log.split_at(run);
    *log = rest;
    cells
}

/// Runs a scale fleet and folds it into a [`FleetReport`], streaming the
/// per-session summaries into the recorder's registry (`fleet.*`
/// counters and histograms) **in user-index order** — the shards are
/// contiguous index ranges, so concatenating their summaries restores
/// the sequential fold order and the report plus registry are
/// byte-identical at every thread count.
///
/// Returns the report together with the engine stats (whose
/// `peak_queue_len` is schedule-dependent and deliberately kept out of
/// the report).
pub fn run_scale_fleet(
    config: &FleetConfig,
    network: &NetworkTrace,
    faults: &FaultPlan,
    rec: &mut dyn Record,
) -> (FleetReport, EngineStats) {
    let (report, stats, _telemetry) = run_scale_fleet_telemetry(config, network, faults, rec);
    (report, stats)
}

/// The telemetry a scale-fleet run produced beyond its report: the
/// windowed series, the tail exemplars, and the sampled sessions'
/// `Detail` traces (user-index order).
#[derive(Debug)]
pub struct FleetTelemetry {
    /// Cumulative windowed series (always `Some` in a run with
    /// telemetry on).
    pub series: Option<FleetSeries>,
    /// Worst-K tail exemplars (always `Some` in a run with telemetry on).
    pub exemplars: Option<Exemplars>,
    /// `(session index, trace)` for every sampled session, in user
    /// order.
    pub traces: Vec<(u64, Box<Recorder>)>,
}

impl FleetTelemetry {
    /// The sampled session indices, in user order.
    #[must_use]
    pub fn sampled_sessions(&self) -> Vec<u64> {
        self.traces.iter().map(|(i, _)| *i).collect()
    }

    /// Total events held across every sampled trace.
    #[must_use]
    pub fn trace_events(&self) -> u64 {
        self.traces.iter().map(|(_, t)| t.events_len() as u64).sum()
    }
}

/// [`run_scale_fleet`] plus the telemetry pipeline: same report, same
/// registry stream, and — when [`FleetConfig::telemetry`] asks for it —
/// the windowed [`FleetSeries`] (folded per session in user-index
/// order, so bit-identical at every thread count), the worst-K
/// [`Exemplars`], and the sampled `Detail` traces. With telemetry off
/// this *is* `run_scale_fleet`, byte for byte.
pub fn run_scale_fleet_telemetry(
    config: &FleetConfig,
    network: &NetworkTrace,
    faults: &FaultPlan,
    rec: &mut dyn Record,
) -> (FleetReport, EngineStats, Option<FleetTelemetry>) {
    let profiling = rec.profiling();
    let dispatch_timer = StageTimer::start(profiling);
    let shards = run_scale_shards(config, network, faults, profiling);
    if let Some(t) = dispatch_timer.stop() {
        rec.observe("profile.fleet.dispatch_wall_sec", t);
    }
    let fold_timer = StageTimer::start(profiling);
    let on = config.telemetry.enabled();
    let mut report = FleetReport {
        sessions: config.sessions,
        ..FleetReport::default()
    };
    let mut stats = EngineStats::default();
    let mut qoe_sum = 0.0f64;
    let mut series = if on {
        // Dense windows sized by the shard-local maxima (computed while
        // the cells were hot in the workers), so every session folds
        // over the same window range.
        let n_windows = shards.iter().map(|s| s.n_windows).max().unwrap_or(1);
        // lint:allow(hot-path-alloc, "one allocation per fleet run: the dense window vector is sized once by the pre-pass, never grown")
        Some(FleetSeries::new(TelemetryConfig::WINDOW_SEC, n_windows))
    } else {
        None
    };
    let mut exemplars = on.then(|| Exemplars::new(TelemetryConfig::EXEMPLAR_K as usize));
    let mut traces: Vec<(u64, Box<Recorder>)> = Vec::new();
    let mut session_index = 0u64;
    for shard in shards {
        let mut cells = shard.windows.as_slice();
        stats.accumulate(&shard.stats);
        if let Some(t) = shard.setup_wall_sec {
            rec.observe("profile.fleet.shard_setup_wall_sec", t);
        }
        if let Some(t) = shard.loop_wall_sec {
            rec.observe("profile.fleet.event_loop_wall_sec", t);
        }
        for s in &shard.summaries {
            report.segments += s.segments;
            report.delivered += s.delivered;
            report.skipped += s.skipped;
            qoe_sum += s.qoe_sum;
            report.total_energy_mj += s.energy_mj;
            report.total_stall_sec += s.stall_sec;
            report.total_bits += s.bits;
            report.counters.accumulate(&s.counters);
            rec.count("fleet.sessions", 1);
            rec.count("fleet.segments", s.segments as u64);
            rec.count("fleet.delivered", s.delivered as u64);
            rec.count("fleet.skipped", s.skipped as u64);
            rec.observe("fleet.session_qoe", s.qoe_sum / s.segments.max(1) as f64);
            rec.observe("fleet.session_energy_mj", s.energy_mj);
            rec.observe("fleet.session_stall_sec", s.stall_sec);
            if let Some(series) = series.as_mut() {
                let mine = take_session_cells(&mut cells, session_index);
                series.fold_session(mine, (s.startup_sec >= 0.0).then_some(s.startup_sec));
            }
            if let Some(ex) = exemplars.as_mut() {
                ex.offer(ExemplarSummary {
                    session: session_index,
                    stall_sec: s.stall_sec,
                    mean_qoe: s.qoe_sum / s.segments.max(1) as f64,
                    energy_mj: s.energy_mj,
                    delivered: s.delivered as u32,
                    skipped: s.skipped as u32,
                    startup_sec: s.startup_sec,
                });
            }
            session_index += 1;
        }
        traces.extend(shard.traces);
    }
    report.replans = stats.replans;
    report.download_completes = stats.download_completes;
    report.fault_fires = stats.fault_fires;
    report.stall_starts = stats.stall_starts;
    rec.count("fleet.events.replan", stats.replans);
    rec.count("fleet.events.download_complete", stats.download_completes);
    rec.count("fleet.events.fault_fire", stats.fault_fires);
    rec.count("fleet.events.stall_start", stats.stall_starts);
    if on {
        rec.count("fleet.sampled_sessions", traces.len() as u64);
        rec.count(
            "fleet.trace_events",
            traces.iter().map(|(_, t)| t.events_len() as u64).sum(),
        );
    }
    report.mean_qoe = if report.segments > 0 {
        qoe_sum / report.segments as f64
    } else {
        0.0
    };
    if let Some(t) = fold_timer.stop() {
        rec.observe("profile.fleet.fold_wall_sec", t);
    }
    let telemetry = on.then(|| FleetTelemetry {
        series,
        exemplars,
        traces,
    });
    (report, stats, telemetry)
}

/// Assembles the versioned `ee360.timeseries.v1` artifact for a
/// telemetry-enabled fleet run: the windowed series, exemplars,
/// sampling accounting, SLO verdicts, and the whole-run totals the
/// reconciliation tests compare against.
#[must_use]
pub fn fleet_timeseries_json(
    config: &FleetConfig,
    report: &FleetReport,
    telemetry: &FleetTelemetry,
    slos: &[SloSpec],
) -> ee360_support::json::Json {
    use ee360_support::json::{Json, ToJson};
    let slo_json = match telemetry.series.as_ref() {
        Some(series) => Json::Arr(
            evaluate_all(slos, series)
                .iter()
                .map(ToJson::to_json)
                .collect(),
        ),
        None => Json::Arr(Vec::new()),
    };
    let sampling = Json::Obj(vec![
        (
            "rate_ppm".to_owned(),
            Json::Int(i64::from(TelemetryConfig::SAMPLE_PPM)),
        ),
        (
            "sampled_sessions".to_owned(),
            Json::Int(telemetry.traces.len() as i64),
        ),
        (
            "sessions".to_owned(),
            Json::Arr(
                telemetry
                    .traces
                    .iter()
                    .map(|(i, _)| Json::Int(*i as i64))
                    .collect(),
            ),
        ),
        (
            "trace_events".to_owned(),
            Json::Int(telemetry.trace_events() as i64),
        ),
    ]);
    let totals = Json::Obj(vec![
        ("segments".to_owned(), Json::Int(report.segments as i64)),
        ("delivered".to_owned(), Json::Int(report.delivered as i64)),
        ("skipped".to_owned(), Json::Int(report.skipped as i64)),
        (
            "total_stall_sec".to_owned(),
            Json::Num(report.total_stall_sec),
        ),
        (
            "total_energy_mj".to_owned(),
            Json::Num(report.total_energy_mj),
        ),
        ("total_bits".to_owned(), Json::Num(report.total_bits)),
        ("mean_qoe".to_owned(), Json::Num(report.mean_qoe)),
    ]);
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(TIMESERIES_SCHEMA.to_owned())),
        ("seed".to_owned(), Json::Int(config.seed as i64)),
        ("sessions".to_owned(), Json::Int(config.sessions as i64)),
        (
            "window_sec".to_owned(),
            Json::Num(TelemetryConfig::WINDOW_SEC),
        ),
        (
            "timeseries".to_owned(),
            match telemetry.series.as_ref() {
                Some(series) => series.to_json(),
                None => Json::Null,
            },
        ),
        (
            "exemplars".to_owned(),
            match telemetry.exemplars.as_ref() {
                Some(ex) => ex.to_json(),
                None => Json::Null,
            },
        ),
        ("sampling".to_owned(), sampling),
        ("slo".to_owned(), slo_json),
        ("totals".to_owned(), totals),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::json::to_string;
    use ee360_trace::fault::FaultConfig;

    fn chaos_inputs() -> (NetworkTrace, FaultPlan) {
        let network = NetworkTrace::paper_trace2(300, 11);
        let faults =
            FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 42).and_outage(40.0, 6.0);
        (network, faults)
    }

    #[test]
    fn queue_orders_by_time_then_session_then_seq() {
        let a = QueuedEvent {
            time_bits: 1.0f64.to_bits(),
            session: 3,
            seq: 9,
            kind: EventKind::Replan,
        };
        let b = QueuedEvent {
            time_bits: 2.0f64.to_bits(),
            session: 0,
            seq: 0,
            kind: EventKind::Replan,
        };
        let c = QueuedEvent {
            time_bits: 1.0f64.to_bits(),
            session: 4,
            seq: 0,
            kind: EventKind::Replan,
        };
        assert!(a < b, "earlier time wins regardless of session");
        assert!(a < c, "same time: lower session index first");
        let mut heap = BinaryHeap::new();
        for e in [b, c, a] {
            heap.push(Reverse(e));
        }
        assert_eq!(heap.pop().map(|Reverse(e)| e), Some(a));
        assert_eq!(heap.pop().map(|Reverse(e)| e), Some(c));
        assert_eq!(heap.pop().map(|Reverse(e)| e), Some(b));
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for n in [0usize, 1, 7, 48, 100, 1000] {
            for shards in [1usize, 2, 3, 7, 16, 200] {
                let ranges = shard_ranges(n, shards);
                let mut covered = 0usize;
                let mut expected_start = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expected_start, "n={n} shards={shards}");
                    assert!(r.end > r.start);
                    covered += r.len();
                    expected_start = r.end;
                }
                assert_eq!(covered, n, "n={n} shards={shards}");
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    /// The interleaved engine's per-session summaries in user order.
    fn run_scale_summaries(
        config: &FleetConfig,
        network: &NetworkTrace,
        faults: &FaultPlan,
    ) -> Vec<SessionSummary> {
        run_scale_shards(config, network, faults, false)
            .into_iter()
            .flat_map(|shard| shard.summaries)
            .collect()
    }

    /// Reference semantics: every session driven alone on its own queue
    /// (no interleaving at all). `run_scale_summaries` must match this
    /// exactly — sessions share nothing mutable, so the global queue is
    /// observationally a bundle of independent per-session queues.
    fn run_scale_sessions_isolated(
        config: &FleetConfig,
        network: &NetworkTrace,
        faults: &FaultPlan,
    ) -> Vec<SessionSummary> {
        let env = ScaleEnv::new(config, network, faults);
        (0..config.sessions)
            .map(|index| {
                let windows = RefCell::new(Vec::new());
                let mut drivers = vec![ScaleDriver::new(&env, index, &windows)];
                let _ = drive_sessions(&mut drivers);
                drivers
                    .pop()
                    .map(|driver| driver.finish().0)
                    .unwrap_or_default()
            })
            .collect()
    }

    #[test]
    fn interleaved_fleet_matches_isolated_sessions() {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(16, 20, 99);
        let interleaved = run_scale_summaries(&config, &network, &faults);
        let isolated = run_scale_sessions_isolated(&config, &network, &faults);
        assert_eq!(interleaved.len(), isolated.len());
        for (i, (a, b)) in interleaved.iter().zip(&isolated).enumerate() {
            assert_eq!(a, b, "session {i} diverged under interleaving");
        }
        // Byte-level too: the JSON carries every f64 exactly.
        assert_eq!(
            to_string(&interleaved).unwrap(),
            to_string(&isolated).unwrap()
        );
    }

    #[test]
    fn windowed_shard_logs_match_sessions_driven_alone() {
        // 5 s windows over 40 segments: sessions span more than 7
        // windows, and each shard's drivers interleave in its log.
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(24, 40, 31)
            .with_threads(2)
            .with_telemetry(TelemetryConfig::standard());
        let shards = run_scale_shards(&config, &network, &faults, false);
        let log: Vec<WindowCell> = shards.into_iter().flat_map(|shard| shard.windows).collect();
        let env = ScaleEnv::new(&config, &network, &faults);
        let mut rest = log.as_slice();
        let mut longest = 0;
        for index in 0..config.sessions {
            let cells = take_session_cells(&mut rest, index as u64);
            longest = longest.max(cells.len());
            assert!(
                cells.windows(2).all(|pair| pair[0].window < pair[1].window),
                "session {index} sealed a window twice or out of order"
            );
            let alone = RefCell::new(Vec::new());
            let mut drivers = vec![ScaleDriver::new(&env, index, &alone)];
            drive_sessions(&mut drivers);
            drivers.pop().expect("one driver").finish();
            drop(drivers);
            assert_eq!(
                alone.into_inner(),
                cells,
                "session {index} diverged under interleaving"
            );
        }
        assert!(
            rest.is_empty(),
            "every cell belongs to a session, in user order"
        );
        assert!(longest > 7, "some session spans more than 7 windows");
    }

    #[test]
    fn report_is_thread_count_independent_and_replays() {
        let (network, faults) = chaos_inputs();
        let run = |threads: usize| {
            let config = FleetConfig::new(64, 12, 7).with_threads(threads);
            let (report, _) =
                run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
            to_string(&report).unwrap()
        };
        let baseline = run(1);
        assert_eq!(run(1), baseline, "same seed must replay byte-identically");
        for threads in [2usize, 4, 16] {
            assert_eq!(run(threads), baseline, "{threads} threads diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (network, faults) = chaos_inputs();
        let run = |seed: u64| {
            let config = FleetConfig::new(8, 10, seed);
            let (report, _) =
                run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
            to_string(&report).unwrap()
        };
        assert_ne!(run(1), run(2), "seeds must matter");
    }

    #[test]
    fn chaos_fleet_records_faults_and_completes_every_slot() {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(32, 15, 5);
        let (report, stats) =
            run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
        assert_eq!(report.segments, 32 * 15, "every slot consumed");
        assert_eq!(report.delivered + report.skipped, report.segments);
        assert!(report.total_energy_mj > 0.0);
        assert!(
            !report.counters.is_clean(),
            "chaos must leave a resilience trace"
        );
        assert_eq!(
            stats.replans as usize,
            32 * 15 + 32,
            "one replan per slot plus one terminal replan per session"
        );
        assert_eq!(stats.download_completes as usize, report.segments);
    }

    /// Report JSON of `FleetConfig::new(64, 10, 31)` on [`chaos_inputs`],
    /// recorded from an earlier build.
    const RECORDED_64X10: &str = r#"{"sessions":64,"segments":640,"delivered":640,"skipped":0,"mean_qoe":61.17926131809762,"total_energy_mj":1166006.696475546,"total_stall_sec":68.49664824319916,"total_bits":969000000.0,"replans":704,"download_completes":640,"fault_fires":22,"stall_starts":83,"counters":{"attempts":662,"retries":22,"timeouts":16,"abandons":0,"losses":16,"corruptions":6,"decoder_failures":8,"skipped_segments":0,"degraded_segments":0,"degraded_rungs":0,"backoff_sec":5.5,"blackout_sec":0.0,"recovery_sec":83.94144624457999,"wasted_bits":9000000.0}}"#;

    /// Report JSON of `FleetConfig::new(16, 60, 11)` on [`chaos_inputs`];
    /// these sessions outlive the outage at t = 40 s, so abandons and the
    /// degradation ladder are pinned too.
    const RECORDED_16X60: &str = r#"{"sessions":16,"segments":960,"delivered":960,"skipped":0,"mean_qoe":72.35468227344515,"total_energy_mj":2089165.4593244877,"total_stall_sec":121.04972228568138,"total_bits":2696692654.0755534,"replans":976,"download_completes":960,"fault_fires":45,"stall_starts":57,"counters":{"attempts":1005,"retries":45,"timeouts":22,"abandons":16,"losses":22,"corruptions":7,"decoder_failures":9,"skipped_segments":0,"degraded_segments":16,"degraded_rungs":16,"backoff_sec":11.5,"blackout_sec":0.0,"recovery_sec":181.60897145141655,"wasted_bits":42692654.07555307}}"#;

    #[test]
    fn chaos_fleet_report_matches_recorded_bytes() {
        // Replay and reconcile tests only compare a run with itself; this
        // pins the scale driver's outputs against recorded bytes, so a
        // refactor that shifts a rung choice, an RNG draw or an energy
        // term fails here.
        let (network, faults) = chaos_inputs();
        for (config, recorded) in [
            (FleetConfig::new(64, 10, 31), RECORDED_64X10),
            (FleetConfig::new(16, 60, 11), RECORDED_16X60),
        ] {
            let (report, _) =
                run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
            assert_eq!(to_string(&report).unwrap(), recorded, "{config:?}");
        }
    }

    #[test]
    fn telemetry_final_row_reconciles_bit_exactly_with_the_report() {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(48, 20, 31).with_telemetry(TelemetryConfig::standard());
        let (report, _, telemetry) =
            run_scale_fleet_telemetry(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
        let telemetry = telemetry.expect("telemetry on");
        let series = telemetry.series.as_ref().expect("telemetry on");
        let last = series.final_row().expect("windows");
        // f64 accumulators: bit-exact (identical += chain in user order).
        assert_eq!(last.stall_sec.to_bits(), report.total_stall_sec.to_bits());
        assert_eq!(last.energy_mj.to_bits(), report.total_energy_mj.to_bits());
        assert_eq!(last.bits.to_bits(), report.total_bits.to_bits());
        // u64 counters: integer-exact.
        assert_eq!(last.segments as usize, report.segments);
        assert_eq!(last.delivered as usize, report.delivered);
        assert_eq!(last.skipped as usize, report.skipped);
        // Exemplars exist and are bounded by K per tail.
        let ex = telemetry.exemplars.as_ref().expect("exemplars on");
        assert!(ex.worst_stall.len() <= 8 && !ex.worst_stall.is_empty());
        assert!(ex.worst_qoe.len() <= 8 && !ex.worst_qoe.is_empty());
    }

    #[test]
    fn telemetry_artifact_is_thread_count_independent() {
        let (network, faults) = chaos_inputs();
        let run = |threads: usize| {
            let config = FleetConfig::new(512, 12, 7)
                .with_threads(threads)
                .with_telemetry(TelemetryConfig::standard());
            let (report, _, telemetry) =
                run_scale_fleet_telemetry(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
            let telemetry = telemetry.expect("telemetry on");
            let json =
                fleet_timeseries_json(&config, &report, &telemetry, &ee360_obs::default_slos());
            (to_string(&json).unwrap(), telemetry.sampled_sessions())
        };
        let (baseline, sampled_set) = run(1);
        assert!(!sampled_set.is_empty(), "1% of 512 sessions should sample");
        for threads in [4usize, 16] {
            let (json, sampled) = run(threads);
            assert_eq!(json, baseline, "{threads} threads diverged");
            assert_eq!(sampled, sampled_set, "sampled set must be thread-free");
        }
        for key in ["ee360.timeseries.v1", "worst_stall", "verdict", "sampling"] {
            assert!(baseline.contains(key), "artifact missing {key}");
        }
    }

    #[test]
    fn telemetry_off_fleet_matches_plain_fleet_byte_for_byte() {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(32, 10, 13);
        let (plain, _) = run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
        let (tele_report, _, telemetry) =
            run_scale_fleet_telemetry(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
        assert!(telemetry.is_none(), "off config must produce no telemetry");
        assert_eq!(to_string(&plain).unwrap(), to_string(&tele_report).unwrap());
        // And telemetry *on* must not change the simulation itself.
        let on = FleetConfig::new(32, 10, 13).with_telemetry(TelemetryConfig::standard());
        let (on_report, _, _) =
            run_scale_fleet_telemetry(&on, &network, &faults, &mut ee360_obs::NoopRecorder);
        assert_eq!(to_string(&plain).unwrap(), to_string(&on_report).unwrap());
    }

    #[test]
    fn sampled_sessions_carry_detail_traces() {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(800, 10, 17).with_telemetry(TelemetryConfig::standard());
        let (_, _, telemetry) =
            run_scale_fleet_telemetry(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
        let telemetry = telemetry.expect("telemetry on");
        let expected: Vec<u64> = (0..config.sessions as u64)
            .filter(|&i| sampled(config.seed, i, TelemetryConfig::SAMPLE_PPM))
            .collect();
        assert!(!expected.is_empty(), "1% of 800 sessions should sample");
        assert_eq!(
            telemetry.sampled_sessions(),
            expected,
            "exactly the hash-sampled sessions trace, in user-index order"
        );
        assert!(
            telemetry.trace_events() > 0,
            "chaos sessions must emit Detail events"
        );
    }

    #[test]
    fn driver_hot_state_is_compact() {
        // The fleet's memory story rests on the driver being a bundle of
        // scalars; the window log and sampled trace are kept out so the
        // event loop's hot working set stays small, and a per-segment
        // vector here would blow both budgets immediately.
        assert!(
            std::mem::size_of::<ScaleDriver>() <= 640,
            "ScaleDriver grew to {} bytes",
            std::mem::size_of::<ScaleDriver>()
        );
        assert!(std::mem::size_of::<SessionSummary>() <= 256);
        assert!(std::mem::size_of::<DownloadState>() <= 128);
    }
}

//! One user's streaming session under one scheme.
//!
//! Per segment the client (Section IV-B):
//!
//! 1. predicts the viewing center with ridge regression over its recent
//!    gaze history,
//! 2. asks the server whether a Ptile covers the predicted viewport,
//! 3. estimates bandwidth with the harmonic mean of past throughputs,
//! 4. lets the scheme's controller pick (quality, frame rate),
//! 5. downloads over the network trace through the buffer dynamics, and
//! 6. books energy (Eq. 1, from the downloaded bits and the Table I
//!    models) and QoE (Eq. 2, from what the user *actually* looked at —
//!    a missed prediction shows the low-quality background, not the
//!    high-quality Ptile).
//!
//! The session is factored as a [`SessionRunner`] state machine
//! (plan → step → book) so the event-driven fleet engine
//! ([`crate::fleet`]) can interleave many sessions on one event queue
//! while executing the very same statements as the classic loop —
//! [`run_session_traced`] is the runner driven in a tight loop, and the
//! one session loop in the workspace. Downloads run on
//! [`ee360_sim::resilience::SessionCore`], the one download engine.
//!
//! The paper's benign world is the same loop under [`FaultPlan::none`]
//! and [`RetryPolicy::disabled`]: no fault fires and no timer expires.

use std::error::Error;
use std::fmt;

use ee360_abr::baselines::RateBasedController;
use ee360_abr::controller::{Controller, Scheme};
use ee360_abr::mpc::{MpcConfig, MpcController};
use ee360_abr::plan::{SegmentContext, SegmentPlan};
use ee360_abr::robust::RobustMpcController;
use ee360_cluster::ftile::FtileSet;
use ee360_geom::grid::TileGrid;
use ee360_geom::projection::{coverage_from_counts, pixel_coverage};
use ee360_geom::region::TileRegion;
use ee360_geom::viewport::{ViewCenter, Viewport};
use ee360_obs::profile::StageTimer;
use ee360_obs::{Event, NoopRecorder, Record};
use ee360_power::energy::{SegmentEnergy, SegmentEnergyParams};
use ee360_power::model::{DecoderScheme, Phone, PowerModel};
use ee360_predict::bandwidth::{BandwidthEstimator, HarmonicMeanEstimator};
use ee360_qoe::framerate::{alpha, framerate_factor};
use ee360_qoe::impairment::{QoeWeights, SegmentQoe};
use ee360_qoe::quality::QoModel;
use ee360_sim::decoder::DecoderPipeline;
use ee360_sim::metrics::{SegmentRecord, SegmentTiming, SessionMetrics};
use ee360_sim::resilience::{
    DownloadEnv, DownloadOutcome, DownloadState, PolicyError, RetryPolicy, SessionCore,
};
use ee360_trace::fault::FaultPlan;
use ee360_trace::head::{HeadTrace, VIEW_FOV_DEG, VIEW_SAMPLES};
use ee360_trace::network::NetworkTrace;
use ee360_video::ladder::QualityLevel;
use ee360_video::segment::{BUFFER_THRESHOLD_SEC, LOOKAHEAD_SEGMENTS, SEGMENT_DURATION_SEC};

use crate::gaze::SessionGaze;
use crate::server::VideoServer;

/// Everything one session needs.
#[derive(Debug, Clone, Copy)]
pub struct SessionSetup<'a> {
    /// The prepared server for the video being watched.
    pub server: &'a VideoServer,
    /// The evaluation user's head-movement trace.
    pub user: &'a HeadTrace,
    /// The network condition.
    pub network: &'a NetworkTrace,
    /// Which phone's power models price the energy.
    pub phone: Phone,
    /// Optional cap on the number of segments (for fast tests).
    pub max_segments: Option<usize>,
}

/// Why a session refused to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The user's trace and the server describe different videos.
    VideoMismatch {
        /// The video id of the user's trace.
        trace: usize,
        /// The video id of the server.
        server: usize,
    },
    /// The retry policy is malformed.
    Policy(PolicyError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::VideoMismatch { trace, server } => write!(
                f,
                "user trace and server must describe the same video \
                 (trace of video {trace}, server of video {server})"
            ),
            SessionError::Policy(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SessionError {}

/// The value of a session entry point whose panicking form was called.
fn or_panic<T>(result: Result<T, SessionError>) -> T {
    match result {
        Ok(value) => value,
        // lint:allow(no-panic-paths, "documented panic: the panicking session entry points reject a mismatched trace or a malformed policy")
        Err(e) => panic!("{e}"),
    }
}

/// Builds the controller for a scheme.
pub fn make_controller(scheme: Scheme, phone: Phone) -> Box<dyn Controller> {
    match scheme {
        Scheme::Ours => {
            let mut cfg = MpcConfig::paper_default();
            cfg.phone = phone;
            Box::new(MpcController::new(cfg))
        }
        Scheme::RobustMpc => {
            let mut cfg = MpcConfig::paper_default();
            cfg.phone = phone;
            Box::new(RobustMpcController::new(cfg))
        }
        other => Box::new(RateBasedController::new(other)),
    }
}

/// Pixel-weighted fraction of what the user sees in segment `k` that a
/// region stores — the rectilinear render mapping of Section II, sampled
/// at 16×16. `actual` is the segment's realised viewport. Its sample
/// counts come from the trace's per-segment table, filled once per
/// segment for every session over the trace. Without a table entry (no
/// recorded centre, or a non-paper grid) the viewport is sampled afresh;
/// both paths give the same bits.
fn overlap_fraction(
    user: &HeadTrace,
    k: usize,
    region: &TileRegion,
    grid: &TileGrid,
    actual: &Viewport,
) -> f64 {
    match user.segment_view_counts(k, grid) {
        Some(counts) => coverage_from_counts(counts, region, grid, VIEW_SAMPLES),
        None => pixel_coverage(actual, region, grid, VIEW_SAMPLES),
    }
}

/// Runs one complete session under a fault plan with the scheme's standard
/// controller. Pass [`FaultPlan::none`] and [`RetryPolicy::disabled`] for
/// the paper's benign world. Timeouts are retried with backoff, abandoned
/// downloads are re-requested down the degradation ladder via
/// [`Controller::replan_degraded`], and segments whose deadline is
/// exhausted are skipped with the blackout charged to QoE. The returned
/// metrics carry the session's resilience counters.
///
/// # Panics
///
/// Panics if the user's trace belongs to a different video than the server,
/// or the retry policy is malformed; [`try_run_session_resilient`] returns
/// those cases as a [`SessionError`].
pub fn run_session_resilient(
    scheme: Scheme,
    setup: &SessionSetup,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> SessionMetrics {
    let mut controller = make_controller(scheme, setup.phone);
    run_session_resilient_with(controller.as_mut(), setup, faults, policy)
}

/// Fallible [`run_session_resilient`]: a mismatched trace or a malformed
/// retry policy is an error instead of a panic.
pub fn try_run_session_resilient(
    scheme: Scheme,
    setup: &SessionSetup,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<SessionMetrics, SessionError> {
    let mut controller = make_controller(scheme, setup.phone);
    try_run_session_resilient_with(controller.as_mut(), setup, faults, policy)
}

/// [`run_session_resilient`] with a caller-supplied controller (used by
/// the ablation benches: custom ε, custom frame-rate ladder, …).
///
/// # Panics
///
/// Panics if the user's trace belongs to a different video than the server,
/// or the retry policy is malformed; [`try_run_session_resilient_with`]
/// returns those cases as a [`SessionError`].
pub fn run_session_resilient_with(
    controller: &mut dyn Controller,
    setup: &SessionSetup,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> SessionMetrics {
    run_session_traced(controller, setup, faults, policy, &mut NoopRecorder)
}

/// Fallible [`run_session_resilient_with`].
pub fn try_run_session_resilient_with(
    controller: &mut dyn Controller,
    setup: &SessionSetup,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<SessionMetrics, SessionError> {
    try_run_session_traced(controller, setup, faults, policy, &mut NoopRecorder)
}

/// The session loop: [`SessionRunner`] driven to completion. Every other
/// entry point is this function with the scheme's standard controller
/// ([`make_controller`]) or a [`NoopRecorder`].
///
/// Observability: every controller decision, download outcome, stall and
/// energy booking is mirrored into `rec` as typed events,
/// `session.*`/`energy.*`/`mpc.*` metrics and (when [`Record::profiling`]
/// is on) wall-clock stage timings.
///
/// The recorder is strictly write-only: nothing the simulation computes
/// depends on it, so the returned metrics are bit-identical whether `rec`
/// is a [`NoopRecorder`] or a live [`ee360_obs::Recorder`]. Metric sums
/// are accumulated in the same order as [`SessionMetrics`]' own
/// aggregates, so `session.stall_sec` and the `energy.*_mj` histogram
/// sums reconcile with [`SessionMetrics::total_stall_sec`] and
/// [`SessionMetrics::energy_breakdown_mj`] exactly, not approximately.
///
/// # Panics
///
/// Panics if the user's trace belongs to a different video than the server,
/// or the retry policy is malformed; [`try_run_session_traced`] returns
/// those cases as a [`SessionError`].
pub fn run_session_traced(
    controller: &mut dyn Controller,
    setup: &SessionSetup,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    rec: &mut dyn Record,
) -> SessionMetrics {
    or_panic(try_run_session_traced(
        controller, setup, faults, policy, rec,
    ))
}

/// Fallible [`run_session_traced`]: checks the setup and the policy
/// before the session starts, so an error leaves `rec` untouched.
pub fn try_run_session_traced(
    controller: &mut dyn Controller,
    setup: &SessionSetup,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    rec: &mut dyn Record,
) -> Result<SessionMetrics, SessionError> {
    let mut runner = SessionRunner::try_new(controller.scheme(), setup, faults, policy)?;
    runner.start(rec);
    while runner.plan_segment(controller, rec) {
        while runner.step_download(controller, rec).is_none() {}
    }
    Ok(runner.finish(rec))
}

/// The in-flight download a [`SessionRunner`] is waiting on: the plan,
/// the latest rung requested of the degradation ladder, and the values
/// booking needs once the outcome lands. The planning context stays on
/// the runner.
struct PendingDownload {
    plan: SegmentPlan,
    /// The rung last requested and its plan. A download starts at rung 0
    /// (the plan itself) and its rung only rises, so this one slot holds
    /// the delivering attempt's plan once the outcome lands.
    rung: (usize, SegmentPlan),
    st: DownloadState,
    /// Buffer level read at the top of the segment iteration.
    buffer: f64,
    predicted: ViewCenter,
    observed_s_fov: f64,
    ptile_region: Option<TileRegion>,
    ftile_selection: Option<(FtileSet, f64)>,
    /// FoV widening (degrees) the robust controller applied to this plan;
    /// 0.0 for point plans, so the booking path is untouched for them.
    robust_width_deg: f64,
    download_timer: StageTimer,
}

/// One session decomposed into resumable phases: `start` (startup
/// metadata fetch), then per segment `plan_segment` (prediction, Ptile
/// lookup, bandwidth estimate, controller decision, download open)
/// followed by `step_download` until the outcome lands and is booked.
///
/// [`run_session_traced`] drives the runner in a tight loop; the
/// event-driven fleet engine interleaves many runners on one queue. Both
/// execute the same statements in the same per-session order, which is
/// why their outputs are bit-identical.
pub struct SessionRunner<'a> {
    setup: SessionSetup<'a>,
    scheme: Scheme,
    power: PowerModel,
    qo_model: QoModel,
    weights: QoeWeights,
    bw_estimator: HarmonicMeanEstimator,
    core: SessionCore,
    faults: FaultPlan,
    policy: RetryPolicy,
    decoder: DecoderPipeline,
    metrics: SessionMetrics,
    grid: TileGrid,
    n: usize,
    q1_bitrate: f64,
    prev_qo: Option<f64>,
    prev_decode: Option<DecoderScheme>,
    k: usize,
    pending: Option<PendingDownload>,
    /// The context the controller planned segment `k` from, refilled in
    /// place by each `plan_segment`; degraded replans and booking read it.
    ctx: SegmentContext,
    /// The user's gaze: the plan window's prediction and speed, the
    /// booked segment's realised centre and speed, over the tables every
    /// live session over the trace shares.
    gaze: SessionGaze<'a>,
}

impl<'a> SessionRunner<'a> {
    /// Builds the runner (controller state lives outside, passed to each
    /// phase, so one driver can own both without self-references).
    ///
    /// # Panics
    ///
    /// Panics if the user's trace belongs to a different video than the
    /// server, or the retry policy is malformed; [`Self::try_new`] returns
    /// those cases as a [`SessionError`].
    pub fn new(
        scheme: Scheme,
        setup: &SessionSetup<'a>,
        faults: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Self {
        or_panic(Self::try_new(scheme, setup, faults, policy))
    }

    /// Fallible [`Self::new`].
    pub fn try_new(
        scheme: Scheme,
        setup: &SessionSetup<'a>,
        faults: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Result<Self, SessionError> {
        if setup.user.video_id() != setup.server.video_id() {
            return Err(SessionError::VideoMismatch {
                trace: setup.user.video_id(),
                server: setup.server.video_id(),
            });
        }
        policy.check().map_err(SessionError::Policy)?;
        let n = setup
            .max_segments
            .map_or(setup.server.segment_count(), |m| {
                m.min(setup.server.segment_count())
            });
        let q1_bitrate =
            ee360_abr::sizer::SchemeSizer::paper_default().effective_bitrate_mbps(QualityLevel::Q1);
        Ok(Self {
            setup: *setup,
            scheme,
            power: PowerModel::for_phone(setup.phone),
            qo_model: QoModel::paper_default(),
            weights: QoeWeights::paper_default(),
            bw_estimator: HarmonicMeanEstimator::paper_default(),
            core: SessionCore::new(BUFFER_THRESHOLD_SEC),
            faults: faults.clone(),
            policy: *policy,
            decoder: DecoderPipeline::paper_default(),
            metrics: SessionMetrics::with_capacity(n),
            grid: *setup.server.grid(),
            n,
            q1_bitrate,
            prev_qo: None,
            prev_decode: None,
            k: 0,
            pending: None,
            ctx: SegmentContext::default(),
            gaze: SessionGaze::new(setup.user),
        })
    }

    /// The download engine, the inputs it runs over and the planning
    /// context the degradation ladder replans from. The network is
    /// borrowed from the setup; fault keys are the segment indices
    /// themselves (`fault_base: 0`), the single-session behaviour.
    fn download_parts(&mut self) -> (&mut SessionCore, DownloadEnv<'_>, &SegmentContext) {
        let env = DownloadEnv {
            network: self.setup.network,
            plan: &self.faults,
            policy: &self.policy,
            decoder: &self.decoder,
            fault_base: 0,
        };
        (&mut self.core, env, &self.ctx)
    }

    /// Startup: fetch the manifests of the first H segments (Section IV-C
    /// step (a)) before the first media request. ~16 kB per segment of
    /// representation metadata. Under faults the fetch rides the same
    /// timeout/backoff machinery; if even that fails the session proceeds
    /// with the time (and radio energy) burned.
    pub fn start(&mut self, rec: &mut dyn Record) {
        let metadata_bits = 128_000.0 * LOOKAHEAD_SEGMENTS as f64;
        rec.span_open("session", self.core.clock_sec());
        rec.span_open("startup", self.core.clock_sec());
        let clock_before_metadata = self.core.clock_sec();
        let (core, env, _) = self.download_parts();
        let _ = core.fetch_metadata_traced(&env, metadata_bits, rec);
        let metadata_sec = self.core.clock_sec() - clock_before_metadata;
        let startup_energy_mj = self.power.transmission_power_mw() * metadata_sec;
        self.metrics.set_startup(ee360_sim::metrics::StartupRecord {
            bits: metadata_bits,
            duration_sec: metadata_sec,
            energy_mj: startup_energy_mj,
        });
        // The startup fetch counts as transmission energy and is added first
        // in `SessionMetrics::energy_breakdown_mj`; observing it first keeps
        // the histogram sum bit-identical to that aggregate.
        rec.observe_at(
            "energy.transmission_mj",
            self.core.clock_sec(),
            startup_energy_mj,
        );
        rec.span_close(self.core.clock_sec());
    }

    /// Current wall-clock time of the underlying session, seconds.
    pub fn clock_sec(&self) -> f64 {
        self.core.clock_sec()
    }

    /// Index of the segment currently planned or about to be planned.
    pub fn segment_index(&self) -> usize {
        self.k
    }

    /// Number of segment slots this session will run.
    pub fn segment_count(&self) -> usize {
        self.n
    }

    /// Plans the next segment (phases 1–4: prediction, Ptile/Ftile
    /// lookup, bandwidth estimate, controller decision) and opens its
    /// download. Returns `false` when every segment slot has been
    /// consumed — time to [`Self::finish`].
    ///
    /// # Panics
    ///
    /// Panics if a download is already in flight.
    pub fn plan_segment(&mut self, controller: &mut dyn Controller, rec: &mut dyn Record) -> bool {
        assert!(
            self.pending.is_none(),
            "plan_segment while a download is in flight"
        );
        if self.k >= self.n {
            return false;
        }
        let k = self.k;
        let buffer = self.core.buffer_level_sec();
        let timeline = self.setup.server.timeline();
        // --- 1. viewport prediction from the playback-time history -----
        // The controller plans frame-rate reduction around the *fast*
        // phases of the gaze (Eq. 4's blur argument): use the 75th
        // percentile of recent switching speeds, not the diluted mean.
        let playback_pos = (k as f64 - buffer).max(0.0);
        let (predicted, observed_s_fov) = self.gaze.plan(playback_pos, buffer.max(0.0));

        // --- 2. Ptile lookup ------------------------------------------
        let covering = self.setup.server.covering_ptile(k, predicted);
        let (ptile_available, ptile_area, bg_blocks, ptile_region) = match covering {
            Some((p, area, bg)) => (true, area, bg, Some(p.region)),
            None => (false, 0.0, 0, None),
        };
        // Ftile layout lookup (which variable-size tiles the predicted
        // viewport needs). Only the Ftile controller and the Ftile QoE
        // branch read the selection, so other schemes skip the layout
        // walk; their context carries the same `(0, 0.0)` the
        // selection-less path always produced.
        let predicted_vp = Viewport::new(predicted, VIEW_FOV_DEG, VIEW_FOV_DEG);
        let ftile_selection = if self.scheme == Scheme::Ftile {
            self.setup
                .server
                .ftile_layout(k)
                .map(|layout| layout.tiles_for_viewport(&predicted_vp))
        } else {
            None
        };
        let (ftile_fov_tiles, ftile_fov_area) = ftile_selection
            .map(|(chosen, area)| (chosen.len(), area))
            .unwrap_or((0, 0.0));

        // --- 3. bandwidth estimate ------------------------------------
        // Before the first download there is no throughput history; the
        // startup phase (metadata fetch, Section IV-C) gives the client a
        // rough initial figure — we use a conservative 70% of the first
        // trace sample.
        let bw_est = self
            .bw_estimator
            .estimate()
            .unwrap_or_else(|| 0.7 * self.setup.network.bandwidth_at(0.0));

        // --- 4. controller decision ------------------------------------
        // The context is rebuilt around last segment's horizon vector,
        // whose capacity it keeps.
        let mut upcoming = std::mem::take(&mut self.ctx.upcoming);
        upcoming.clear();
        upcoming.extend((k..k + LOOKAHEAD_SEGMENTS).map(|i| {
            timeline
                .segment(i.min(timeline.len() - 1))
                // lint:allow(no-panic-paths, "documented invariant: index is clamped to len-1")
                .expect("clamped index is valid")
                .si_ti
        }));
        self.ctx = SegmentContext {
            index: k,
            upcoming,
            predicted_bandwidth_bps: bw_est,
            buffer_sec: buffer,
            switching_speed_deg_s: observed_s_fov,
            ptile_available,
            ptile_area_frac: ptile_area,
            background_blocks: bg_blocks,
            ftile_fov_area,
            ftile_fov_tiles,
        };
        // lint:allow(hot-path-alloc, "live recorder only: NoopRecorder::span_open records nothing")
        rec.span_open("segment", self.core.clock_sec());
        let stats_before = controller.solver_stats();
        let robust_before = controller.robust_stats();
        let solver_timer = StageTimer::start(rec.profiling());
        let plan = controller.plan(&self.ctx);
        if let Some(dt) = solver_timer.stop() {
            rec.observe("profile.solver_wall_sec", dt);
        }
        // Uncertainty accounting: diff the robust controller's own
        // counters around the plan and mirror them into the registry,
        // observing the exact width value the controller accumulated so
        // the histogram sum reconciles bit-exactly with its books.
        let robust_delta = match (robust_before, controller.robust_stats()) {
            (Some(before), Some(after)) => Some(after.since(&before)),
            _ => None,
        };
        let robust_width_deg = robust_delta
            .as_ref()
            .filter(|d| d.widened_plans > 0)
            .map(|d| d.last_width_deg)
            .unwrap_or(0.0);
        let t_plan = self.core.clock_sec();
        if let Some(delta) = &robust_delta {
            rec.count_at("robust.margin_applied", t_plan, delta.margin_applied);
            rec.count_at("robust.widened_plans", t_plan, delta.widened_plans);
            if delta.widened_plans > 0 {
                rec.observe_at("robust.quantile_width_deg", t_plan, delta.last_width_deg);
            }
        }
        let delta = match (stats_before, controller.solver_stats()) {
            (Some(before), Some(after)) => after.since(&before),
            _ => ee360_abr::controller::SolverStats::default(),
        };
        let cause = if delta.plans > 0 {
            "mpc"
        } else if stats_before.is_some() {
            // An MPC controller that ran no DP solve took its
            // no-Ptile fallback path for this segment.
            "fallback_no_ptile"
        } else {
            "baseline"
        };
        rec.count("mpc.plans", delta.plans);
        rec.count("mpc.memo_hits", delta.memo_hits);
        rec.count("mpc.memo_misses", delta.memo_misses);
        rec.count("mpc.states_expanded", delta.states_expanded);
        rec.record(Event::SolverPlan {
            segment: k,
            t_sec: t_plan,
            quality: plan.quality.index(),
            fps: plan.fps,
            bits: plan.bits,
            cause,
            memo_hits: delta.memo_hits,
            memo_misses: delta.memo_misses,
            states_expanded: delta.states_expanded,
        });

        // --- 5. download (with retry/abandon/degrade/skip) --------------
        // Rung 0 is the controller's plan; deeper rungs are produced by
        // its replan hook when the pipeline abandons a download.
        let download_timer = StageTimer::start(rec.profiling());
        let (core, env, _) = self.download_parts();
        let st = core.begin_download(&env, k);
        self.pending = Some(PendingDownload {
            plan,
            rung: (0, plan),
            st,
            buffer,
            predicted,
            observed_s_fov,
            ptile_region,
            ftile_selection,
            robust_width_deg,
            download_timer,
        });
        true
    }

    /// Runs one attempt of the open download. `None` means it is still
    /// in flight — call again (the event engine schedules the next event
    /// here). `Some(outcome)` means the segment finished and its energy,
    /// QoE and metrics record have been booked; the runner has advanced
    /// to the next segment slot.
    pub fn step_download(
        &mut self,
        controller: &mut dyn Controller,
        rec: &mut dyn Record,
    ) -> Option<DownloadOutcome> {
        let Some(mut pending) = self.pending.take() else {
            return None;
        };
        let stepped = {
            let PendingDownload { plan, rung, st, .. } = &mut pending;
            let (core, env, ctx) = self.download_parts();
            let mut request = |requested: usize| {
                if requested != rung.0 {
                    *rung = (requested, controller.replan_degraded(ctx, plan, requested));
                }
                rung.1.bits
            };
            core.step_download(&env, st, &mut request, rec)
        };
        let Some(outcome) = stepped else {
            // Still in flight: put the download back and wait for the
            // next step.
            self.pending = Some(pending);
            return None;
        };
        let download_timer =
            std::mem::replace(&mut pending.download_timer, StageTimer::start(false));
        if let Some(dt) = download_timer.stop() {
            rec.observe("profile.download_wall_sec", dt);
        }
        self.book_outcome(pending, outcome, controller, rec);
        self.k += 1;
        Some(outcome)
    }

    /// Phase 6: books energy (Eq. 1) and QoE (Eq. 2) for a finished
    /// download, then [`Self::record_segment`].
    fn book_outcome(
        &mut self,
        pending: PendingDownload,
        outcome: DownloadOutcome,
        controller: &mut dyn Controller,
        rec: &mut dyn Record,
    ) {
        let k = self.k;
        let (timing, used_plan, delivered_bits, wasted_bits) = match outcome {
            DownloadOutcome::Delivered {
                timing,
                bits,
                wasted_bits,
                ..
            } => {
                self.bw_estimator.observe(timing.throughput_bps);
                controller.observe_throughput(timing.throughput_bps);
                // The delivering attempt's rung is the last one requested.
                (timing, pending.rung.1, bits, wasted_bits)
            }
            DownloadOutcome::Skipped {
                request_time_sec,
                wait_sec,
                elapsed_sec,
                blackout_sec,
                wasted_bits,
                ..
            } => {
                // The player jumps past the segment: nothing decoded or
                // displayed, the radio burned `elapsed_sec`, and the
                // blackout is charged as rebuffering.
                let timing = SegmentTiming {
                    request_time_sec,
                    wait_sec,
                    download_sec: elapsed_sec,
                    throughput_bps: 0.0,
                    buffer_at_request_sec: (pending.buffer - wait_sec).max(0.0),
                    stall_sec: (blackout_sec - SEGMENT_DURATION_SEC).max(0.0),
                    buffer_after_sec: self.core.buffer_level_sec(),
                };
                let energy = SegmentEnergy {
                    transmission_mj: self.power.transmission_power_mw() * elapsed_sec,
                    decode_mj: 0.0,
                    render_mj: 0.0,
                };
                let qoe = SegmentQoe::evaluate(
                    self.weights,
                    0.0,
                    self.prev_qo,
                    blackout_sec + timing.buffer_at_request_sec,
                    timing.buffer_at_request_sec,
                );
                self.prev_qo = Some(0.0);
                let record = SegmentRecord {
                    index: k,
                    quality_level: 0,
                    fps: 0.0,
                    bits: wasted_bits,
                    decode_scheme: pending.plan.decode_scheme,
                    timing,
                    energy,
                    qoe,
                };
                self.record_segment(record, None, rec);
                return;
            }
        };

        // --- 6a. energy (Eq. 1): wasted attempts still cost radio -------
        let book_timer = StageTimer::start(rec.profiling());
        let energy = SegmentEnergy::compute(
            &self.power,
            SegmentEnergyParams {
                bits: delivered_bits + wasted_bits,
                bandwidth_bps: timing.throughput_bps,
                fps: used_plan.fps,
                duration_sec: SEGMENT_DURATION_SEC,
                scheme: used_plan.decode_scheme,
            },
        );

        // --- 6b. QoE (Eq. 2) against the ACTUAL gaze --------------------
        let content = self.ctx.content();
        let predicted = pending.predicted;
        let actual = self.gaze.segment_center(k).unwrap_or(predicted);
        // The played segment reveals the true viewing center: feed the
        // realised prediction error back so the robust controller's
        // residual sketch tracks this user's actual miss distribution.
        let robust_before = controller.robust_stats();
        controller.observe_prediction_error(predicted.distance_deg(&actual));
        if let (Some(before), Some(after)) = (robust_before, controller.robust_stats()) {
            rec.count_at(
                "robust.coverage_miss_saved",
                self.core.clock_sec(),
                after.since(&before).coverage_miss_saved,
            );
        }
        let actual_s_fov = self
            .gaze
            .segment_fast_speed(k)
            .unwrap_or(pending.observed_s_fov);
        let actual_vp = Viewport::new(actual, VIEW_FOV_DEG, VIEW_FOV_DEG);
        let frac = match (self.scheme, &pending.ptile_region) {
            (Scheme::Nontile, _) => 1.0,
            (Scheme::Ftile, _) => {
                // The Ftile layout knows exactly which blocks the chosen
                // variable-size tiles cover.
                match (self.setup.server.ftile_layout(k), pending.ftile_selection) {
                    (Some(layout), Some((chosen, _))) => {
                        layout.coverage_fraction(chosen, &actual_vp)
                    }
                    _ => 1.0,
                }
            }
            (Scheme::RobustMpc, Some(region))
                if used_plan.decode_scheme == DecoderScheme::Ptile
                    && pending.robust_width_deg > 0.0 =>
            {
                // The widened plan paid for guard blocks around the
                // predicted viewport: book coverage against the union of
                // the Ptile and the widened-FoV block, matching the area
                // the controller charged itself for.
                let w = pending.robust_width_deg;
                let widened = Viewport::new(
                    predicted,
                    (100.0 + 2.0 * w).min(360.0),
                    (100.0 + 2.0 * w).min(180.0),
                );
                let union = region.union(&self.grid.fov_block_region(&widened));
                overlap_fraction(self.setup.user, k, &union, &self.grid, &actual_vp)
            }
            (_, Some(region)) if used_plan.decode_scheme == DecoderScheme::Ptile => {
                overlap_fraction(self.setup.user, k, region, &self.grid, &actual_vp)
            }
            _ => {
                // Conventional tiles were fetched around the *predicted*
                // center: the quality the user sees depends on how much of
                // the actual FoV those tiles cover. Coverage reads only
                // the region's tile set, which is the block's.
                let predicted_vp = Viewport::new(predicted, VIEW_FOV_DEG, VIEW_FOV_DEG);
                let predicted_region = self.grid.fov_block_region(&predicted_vp);
                overlap_fraction(
                    self.setup.user,
                    k,
                    &predicted_region,
                    &self.grid,
                    &actual_vp,
                )
            }
        };
        let a = alpha(actual_s_fov, content.ti());
        let ff = framerate_factor(used_plan.fps, 30.0, a);
        let qo_hi = self.qo_model.q_o(content, used_plan.effective_bitrate_mbps) * ff;
        let qo_lo = self.qo_model.q_o(content, self.q1_bitrate);
        let qo_eff = frac * qo_hi + (1.0 - frac) * qo_lo;
        // Startup (k = 0) is not a rebuffering event: players display
        // nothing until the first segment arrives.
        let download_for_qoe = if k == 0 { 0.0 } else { timing.download_sec };
        let qoe = SegmentQoe::evaluate(
            self.weights,
            qo_eff,
            self.prev_qo,
            download_for_qoe,
            timing.buffer_at_request_sec,
        );
        self.prev_qo = Some(qo_eff);
        if let Some(dt) = book_timer.stop() {
            rec.observe("profile.booking_wall_sec", dt);
        }

        let scheme = used_plan.decode_scheme;
        let switched_from = self
            .prev_decode
            .replace(scheme)
            .filter(|&prev| prev != scheme);
        let record = SegmentRecord {
            index: k,
            quality_level: used_plan.quality.index(),
            fps: used_plan.fps,
            bits: delivered_bits,
            decode_scheme: scheme,
            timing,
            energy,
            qoe,
        };
        self.record_segment(record, switched_from, rec);
    }

    /// Mirrors a booked segment into `rec` — the stall and energy
    /// histograms, the Stall, DecoderSwitch and EnergySample events —
    /// then pushes its record and closes the segment span.
    /// `switched_from` is the decoder scheme of the last delivered
    /// segment when this one changed it.
    fn record_segment(
        &mut self,
        record: SegmentRecord,
        switched_from: Option<DecoderScheme>,
        rec: &mut dyn Record,
    ) {
        let (k, timing, energy) = (record.index, record.timing, record.energy);
        let t_book = self.core.clock_sec();
        rec.observe_at("session.stall_sec", t_book, timing.stall_sec);
        rec.observe_at("energy.transmission_mj", t_book, energy.transmission_mj);
        rec.observe_at("energy.decode_mj", t_book, energy.decode_mj);
        rec.observe_at("energy.render_mj", t_book, energy.render_mj);
        if timing.stall_sec > 0.0 {
            rec.record(Event::Stall {
                segment: k,
                t_sec: t_book,
                duration_sec: timing.stall_sec,
            });
        }
        if let Some(from) = switched_from {
            rec.record(Event::DecoderSwitch {
                segment: k,
                t_sec: t_book,
                from: from.label(),
                to: record.decode_scheme.label(),
            });
        }
        rec.record(Event::EnergySample {
            segment: k,
            transmission_mj: energy.transmission_mj,
            decode_mj: energy.decode_mj,
            render_mj: energy.render_mj,
            total_mj: energy.total_mj(),
        });
        self.metrics.push(record);
        rec.span_close(t_book);
    }

    /// Seals the session: stamps the resilience counters, records the
    /// final gauges, closes the session span and returns the metrics.
    pub fn finish(mut self, rec: &mut dyn Record) -> SessionMetrics {
        self.metrics.set_resilience(*self.core.counters());
        rec.set_gauge("session.segments", self.metrics.len() as f64);
        rec.span_close(self.core.clock_sec());
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_cluster::ptile::PtileConfig;
    use ee360_geom::grid::TileGrid;
    use ee360_trace::dataset::VideoTraces;
    use ee360_trace::head::GazeConfig;
    use ee360_video::catalog::VideoCatalog;

    fn setup_video(
        video: usize,
        users: usize,
        seed: u64,
    ) -> (VideoServer, VideoTraces, NetworkTrace) {
        let catalog = VideoCatalog::paper_default();
        let spec = catalog.video(video).unwrap();
        let traces = VideoTraces::generate(spec, users, seed, GazeConfig::default());
        let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
        let server = VideoServer::prepare(
            spec,
            &refs[..users - 2],
            TileGrid::paper_default(),
            PtileConfig::paper_default(),
        );
        let network = NetworkTrace::paper_trace2(400, seed);
        (server, traces, network)
    }

    fn benign(scheme: Scheme, setup: &SessionSetup) -> SessionMetrics {
        run_session_resilient(scheme, setup, &FaultPlan::none(), &RetryPolicy::disabled())
    }

    fn run(scheme: Scheme, cap: usize) -> SessionMetrics {
        let (server, traces, network) = setup_video(2, 10, 5);
        let user = traces.traces().last().unwrap();
        let setup = SessionSetup {
            server: &server,
            user,
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(cap),
        };
        benign(scheme, &setup)
    }

    #[test]
    fn all_schemes_complete_a_session() {
        for scheme in Scheme::ALL {
            let m = run(scheme, 30);
            assert_eq!(m.len(), 30, "{scheme:?}");
            assert!(m.total_energy_mj() > 0.0, "{scheme:?}");
            assert!(m.mean_qoe() > 0.0, "{scheme:?}");
        }
    }

    #[test]
    fn ptile_uses_less_energy_than_ctile() {
        let ctile = run(Scheme::Ctile, 60);
        let ptile = run(Scheme::Ptile, 60);
        assert!(
            ptile.total_energy_mj() < ctile.total_energy_mj(),
            "ptile {} >= ctile {}",
            ptile.total_energy_mj(),
            ctile.total_energy_mj()
        );
    }

    #[test]
    fn ours_uses_less_energy_than_ptile() {
        let ptile = run(Scheme::Ptile, 60);
        let ours = run(Scheme::Ours, 60);
        assert!(
            ours.total_energy_mj() < ptile.total_energy_mj(),
            "ours {} >= ptile {}",
            ours.total_energy_mj(),
            ptile.total_energy_mj()
        );
    }

    #[test]
    fn ours_qoe_not_much_below_ptile() {
        let ptile = run(Scheme::Ptile, 60);
        let ours = run(Scheme::Ours, 60);
        // Constraint (8c): within ~ε plus prediction noise.
        assert!(
            ours.mean_qoe() > 0.85 * ptile.mean_qoe(),
            "ours {} vs ptile {}",
            ours.mean_qoe(),
            ptile.mean_qoe()
        );
    }

    #[test]
    fn deterministic_given_identical_inputs() {
        let a = run(Scheme::Ours, 25);
        let b = run(Scheme::Ours, 25);
        assert_eq!(a, b);
    }

    #[test]
    fn nontile_never_misses_coverage() {
        // Nontile ships the whole frame; its Q_o never blends with the
        // low-quality floor, so with ample bandwidth its quality is high.
        let (server, traces, _) = setup_video(2, 10, 5);
        let fast = NetworkTrace::from_samples(vec![40.0e6]);
        let user = traces.traces().last().unwrap();
        let setup = SessionSetup {
            server: &server,
            user,
            network: &fast,
            phone: Phone::Pixel3,
            max_segments: Some(20),
        };
        let m = benign(Scheme::Nontile, &setup);
        assert!(m.mean_quality() > 90.0, "quality {}", m.mean_quality());
    }

    #[test]
    fn benign_sessions_are_clean() {
        for scheme in Scheme::ALL {
            let m = run(scheme, 25);
            assert!(m.resilience().is_clean(), "{scheme:?}");
        }
    }

    #[test]
    fn outage_mid_stream_degrades_but_finishes() {
        // 10 s of dead radio at t = 30 on the paper's LTE trace: the
        // session must complete every segment slot (delivered or skipped),
        // record at least one abandon or downgrade, and stay deterministic.
        let (server, traces, network) = setup_video(2, 10, 5);
        let user = traces.traces().last().unwrap();
        let setup = SessionSetup {
            server: &server,
            user,
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(60),
        };
        let faults = FaultPlan::single_outage(30.0, 10.0);
        let policy = RetryPolicy::default_mobile();
        let run = || run_session_resilient(Scheme::Ours, &setup, &faults, &policy);
        let m = run();
        assert_eq!(m.len(), 60, "every segment slot must be accounted for");
        let r = m.resilience();
        assert!(
            r.abandons + r.degraded_segments + r.skipped_segments >= 1,
            "a 10 s outage must leave a resilience trace: {r:?}"
        );
        assert!(
            m.rebuffer_ratio() < 0.5,
            "graceful degradation must bound the rebuffer ratio, got {}",
            m.rebuffer_ratio()
        );
        // Byte-identical same-seed replay.
        let a = ee360_support::json::to_string(&m).unwrap();
        let b = ee360_support::json::to_string(&run()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_storm_never_panics_or_hangs() {
        use ee360_trace::fault::FaultConfig;
        let (server, traces, network) = setup_video(2, 10, 5);
        let user = traces.traces().last().unwrap();
        let setup = SessionSetup {
            server: &server,
            user,
            network: &network,
            phone: Phone::GalaxyS20,
            max_segments: Some(40),
        };
        let faults = FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77);
        let m = run_session_resilient(
            Scheme::Ours,
            &setup,
            &faults,
            &RetryPolicy::default_mobile(),
        );
        assert_eq!(m.len(), 40);
        assert!(m.total_energy_mj() > 0.0);
        // Skipped segments carry zero quality but the session keeps going.
        for rec in m.records() {
            assert!(rec.qoe.q_o >= 0.0 && rec.qoe.q_o <= 100.0);
        }
    }

    #[test]
    #[should_panic(expected = "same video")]
    fn mismatched_video_panics() {
        let (server, _, network) = setup_video(2, 8, 5);
        let catalog = VideoCatalog::paper_default();
        let other = catalog.video(3).unwrap();
        let other_traces = VideoTraces::generate(other, 4, 5, GazeConfig::default());
        let setup = SessionSetup {
            server: &server,
            user: &other_traces.traces()[0],
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(5),
        };
        let _ = benign(Scheme::Ctile, &setup);
    }

    #[test]
    fn try_entry_points_report_a_video_mismatch() {
        let (server, _, network) = setup_video(2, 8, 5);
        let catalog = VideoCatalog::paper_default();
        let other = catalog.video(3).unwrap();
        let other_traces = VideoTraces::generate(other, 4, 5, GazeConfig::default());
        let setup = SessionSetup {
            server: &server,
            user: &other_traces.traces()[0],
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(5),
        };
        let err = SessionError::VideoMismatch {
            trace: other.id,
            server: server.video_id(),
        };
        let (faults, policy) = (FaultPlan::none(), RetryPolicy::disabled());
        assert_eq!(
            SessionRunner::try_new(Scheme::Ctile, &setup, &faults, &policy).err(),
            Some(err)
        );
        assert_eq!(
            try_run_session_resilient(Scheme::Ctile, &setup, &faults, &policy).err(),
            Some(err)
        );
        assert!(err.to_string().contains("same video"));
    }

    #[test]
    fn try_entry_points_report_a_malformed_policy() {
        let (server, traces, network) = setup_video(2, 8, 5);
        let setup = SessionSetup {
            server: &server,
            user: traces.traces().last().unwrap(),
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(5),
        };
        let policy = RetryPolicy {
            segment_deadline_sec: 0.0,
            ..RetryPolicy::default_mobile()
        };
        let err = SessionError::Policy(PolicyError::SegmentDeadline);
        let mut controller = make_controller(Scheme::Ours, setup.phone);
        let mut rec = ee360_obs::Recorder::new(ee360_obs::Level::Detail);
        assert_eq!(
            try_run_session_traced(
                controller.as_mut(),
                &setup,
                &FaultPlan::none(),
                &policy,
                &mut rec
            )
            .err(),
            Some(err)
        );
        assert_eq!(err.to_string(), "segment deadline must be positive");
        // A valid policy still runs the session.
        assert!(try_run_session_resilient(
            Scheme::Ours,
            &setup,
            &FaultPlan::none(),
            &RetryPolicy::default_mobile()
        )
        .is_ok());
    }
}

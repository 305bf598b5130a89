//! Per-layer spans, recorded from outside the program.
//!
//! Each span is the wall-clock interval of one call into a layer. The
//! calls are wrapped here, in benchmark code: a [`TimedController`]
//! forwards every `Controller` method to the scheme's own controller, a
//! timed mirror of `core::client::run_session_traced` drives the loop
//! engine, and [`TimedDriver`] mirrors `core::fleet::FleetSessionDriver`
//! on the event engine. A layer's self time is its span minus the spans
//! of the layer calls made inside it (the controller calls inside
//! `plan_segment` and `step_download`). Whatever part of a driver's wall
//! time no span covers is the driver's own: the event queue of
//! `drive_sessions`, or the bare loop on the loop engine.

// lint:allow-file(determinism, "benchmark harness: spans are wall-clock intervals by design")

use std::time::{Duration, Instant};

use ee360_abr::controller::{Controller, RobustStats, Scheme, SolverStats};
use ee360_abr::plan::{PlanBuffers, SegmentContext, SegmentPlan};
use ee360_core::client::{make_controller, SessionRunner, SessionSetup};
use ee360_obs::{Level, NoopRecorder, Recorder};
use ee360_sim::fleet::{drive_sessions, shard_ranges, EngineStats, EventKind, Scheduler};
use ee360_sim::metrics::SessionMetrics;
use ee360_sim::resilience::{DownloadOutcome, RetryPolicy};
use ee360_sim::SessionDriver;
use ee360_support::parallel::parallel_map_indexed;
use ee360_trace::fault::FaultPlan;
use ee360_video::segment::SEGMENT_DURATION_SEC;

/// The layers a session's time is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Head traces, network traces and fault plans.
    TraceGenerate,
    /// The train/eval split and `VideoServer::prepare`: Ptile and Ftile
    /// construction.
    ServerPrepare,
    /// Controller and `SessionRunner` construction plus `start`.
    ClientStart,
    /// `SessionRunner::plan_segment` minus its controller call: viewport
    /// prediction, `covering_ptile` and the bandwidth estimate.
    PlanSegment,
    /// `Controller::plan_into` (and `plan`).
    PlanInto,
    /// `SessionRunner::step_download` minus its controller calls:
    /// resilient download stepping, energy/QoE booking and pixel coverage.
    StepDownload,
    /// `Controller::replan_degraded`.
    ReplanDegraded,
    /// `Controller::observe_throughput` and `observe_prediction_error`.
    Observe,
    /// `SessionRunner::finish`.
    ClientFinish,
    /// A session driver's wall time outside every other span.
    FleetEngine,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 10] = [
        Layer::TraceGenerate,
        Layer::ServerPrepare,
        Layer::ClientStart,
        Layer::PlanSegment,
        Layer::PlanInto,
        Layer::StepDownload,
        Layer::ReplanDegraded,
        Layer::Observe,
        Layer::ClientFinish,
        Layer::FleetEngine,
    ];

    /// The layers that also report per-call percentiles.
    pub const SAMPLED: [Layer; 3] = [Layer::PlanInto, Layer::PlanSegment, Layer::StepDownload];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::TraceGenerate => "trace.generate",
            Layer::ServerPrepare => "core.server.prepare",
            Layer::ClientStart => "core.client.start",
            Layer::PlanSegment => "core.client.plan_segment",
            Layer::PlanInto => "abr.plan_into",
            Layer::StepDownload => "core.client.step_download",
            Layer::ReplanDegraded => "abr.replan_degraded",
            Layer::Observe => "abr.observe",
            Layer::ClientFinish => "core.client.finish",
            Layer::FleetEngine => "sim.fleet.engine",
        }
    }

    fn sample_slot(self) -> Option<usize> {
        Layer::SAMPLED.iter().position(|l| *l == self)
    }
}

/// A duration in whole nanoseconds, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Span totals of one worker task, or of many merged.
#[derive(Debug, Default)]
pub struct LayerAcc {
    calls: [u64; 10],
    self_ns: [u64; 10],
    /// Per-call self times of the [`Layer::SAMPLED`] layers, ns.
    samples: [Vec<u32>; 3],
    /// Time inside leaf spans so far; an enclosing span subtracts it.
    leaf_ns: u64,
    /// Time inside top-level spans since the last [`Self::driver`].
    top_ns: u64,
    /// Wall time of the worker tasks the spans were recorded in.
    worker_ns: u64,
    /// Solver work of the wrapped controllers.
    pub solver: SolverStats,
    /// Plans made by robust controllers.
    pub robust_plans: u64,
    /// Of those, plans whose FoV target was widened.
    pub widened_plans: u64,
}

impl LayerAcc {
    fn record(&mut self, layer: Layer, self_ns: u64) {
        let i = layer as usize;
        self.calls[i] += 1;
        self.self_ns[i] += self_ns;
        if let Some(slot) = layer.sample_slot() {
            self.samples[slot].push(u32::try_from(self_ns).unwrap_or(u32::MAX));
        }
    }

    /// Closes a leaf span opened at `start`.
    fn leaf(&mut self, layer: Layer, start: Instant) {
        let d = nanos(start.elapsed());
        self.leaf_ns += d;
        self.record(layer, d);
    }

    /// Books a top-level span of `total_ns`, of which everything the
    /// leaf spans accumulated since `leaf_before` was spent in children.
    fn top(&mut self, layer: Layer, total_ns: u64, leaf_before: u64) {
        self.top_ns += total_ns;
        let children = self.leaf_ns - leaf_before;
        self.record(layer, total_ns.saturating_sub(children));
    }

    /// Books a top-level span of `total_ns` that made no layer calls.
    fn childless(&mut self, layer: Layer, total_ns: u64) {
        self.top(layer, total_ns, self.leaf_ns);
    }

    /// Books a set-up task of wall `wall_ns`, whose spans are already in.
    pub fn task(&mut self, wall_ns: u64) {
        self.worker_ns += wall_ns;
    }

    /// Books a session driver's run of wall `wall_ns`: the part no
    /// top-level span covered is [`Layer::FleetEngine`] time.
    pub fn driver(&mut self, wall_ns: u64) {
        self.worker_ns += wall_ns;
        let engine = wall_ns.saturating_sub(self.top_ns);
        self.top_ns = 0;
        self.record(Layer::FleetEngine, engine);
    }

    /// Times `f` as a top-level span of `layer` with no children.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.childless(layer, nanos(start.elapsed()));
        out
    }

    /// Adds another accumulator's totals.
    pub fn merge(&mut self, other: LayerAcc) {
        for i in 0..self.calls.len() {
            self.calls[i] += other.calls[i];
            self.self_ns[i] += other.self_ns[i];
        }
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        self.top_ns += other.top_ns;
        self.worker_ns += other.worker_ns;
        self.solver.plans += other.solver.plans;
        self.solver.memo_hits += other.solver.memo_hits;
        self.solver.memo_misses += other.solver.memo_misses;
        self.solver.states_expanded += other.solver.states_expanded;
        self.robust_plans += other.robust_plans;
        self.widened_plans += other.widened_plans;
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Self time of `layer`, seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }

    /// Self time of every layer together, seconds.
    pub fn total_self_s(&self) -> f64 {
        Layer::ALL.iter().map(|l| self.self_s(*l)).sum()
    }

    /// Wall time of the worker tasks, seconds.
    pub fn worker_s(&self) -> f64 {
        self.worker_ns as f64 * 1e-9
    }

    /// The `q`-quantile (0..=1) of a sampled layer's per-call self time,
    /// microseconds; 0 when it was never called.
    pub fn quantile_us(&mut self, layer: Layer, q: f64) -> f64 {
        let Some(slot) = layer.sample_slot() else {
            return 0.0;
        };
        let samples = &mut self.samples[slot];
        if samples.is_empty() {
            return 0.0;
        }
        samples.sort_unstable();
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        f64::from(samples[idx]) * 1e-3
    }
}

/// A `Controller` that forwards every method to the scheme's controller
/// and times the calls that do work.
pub struct TimedController {
    inner: Box<dyn Controller>,
    acc: LayerAcc,
    solver_start: Option<SolverStats>,
    robust_start: Option<RobustStats>,
}

impl TimedController {
    /// Wraps `inner`, snapshotting its solver and robust counters.
    pub fn new(inner: Box<dyn Controller>) -> Self {
        Self {
            solver_start: inner.solver_stats(),
            robust_start: inner.robust_stats(),
            inner,
            acc: LayerAcc::default(),
        }
    }

    /// Runs `f` as a top-level span of `layer`; controller calls made
    /// inside it are its children.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> R) -> R {
        let leaf_before = self.acc.leaf_ns;
        let start = Instant::now();
        let out = f(self);
        self.acc.top(layer, nanos(start.elapsed()), leaf_before);
        out
    }

    /// The spans recorded so far plus the solver and robust work done
    /// since wrapping.
    pub fn into_acc(mut self) -> LayerAcc {
        if let (Some(before), Some(after)) = (self.solver_start, self.inner.solver_stats()) {
            let d = after.since(&before);
            let s = &mut self.acc.solver;
            s.plans += d.plans;
            s.memo_hits += d.memo_hits;
            s.memo_misses += d.memo_misses;
            s.states_expanded += d.states_expanded;
        }
        if let (Some(before), Some(after)) = (self.robust_start, self.inner.robust_stats()) {
            self.acc.widened_plans += after.since(&before).widened_plans;
            self.acc.robust_plans += self.acc.calls(Layer::PlanInto);
        }
        self.acc
    }
}

impl Controller for TimedController {
    fn plan(&mut self, ctx: &SegmentContext) -> SegmentPlan {
        let start = Instant::now();
        let plan = self.inner.plan(ctx);
        self.acc.leaf(Layer::PlanInto, start);
        plan
    }

    fn plan_into(&mut self, ctx: &SegmentContext, buffers: &mut PlanBuffers) -> SegmentPlan {
        let start = Instant::now();
        let plan = self.inner.plan_into(ctx, buffers);
        self.acc.leaf(Layer::PlanInto, start);
        plan
    }

    fn scheme(&self) -> Scheme {
        self.inner.scheme()
    }

    fn observe_throughput(&mut self, throughput_bps: f64) {
        let start = Instant::now();
        self.inner.observe_throughput(throughput_bps);
        self.acc.leaf(Layer::Observe, start);
    }

    fn replan_degraded(
        &mut self,
        ctx: &SegmentContext,
        original: &SegmentPlan,
        rungs: usize,
    ) -> SegmentPlan {
        let start = Instant::now();
        let plan = self.inner.replan_degraded(ctx, original, rungs);
        self.acc.leaf(Layer::ReplanDegraded, start);
        plan
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn solver_stats(&self) -> Option<SolverStats> {
        self.inner.solver_stats()
    }

    fn robust_stats(&self) -> Option<RobustStats> {
        self.inner.robust_stats()
    }

    fn observe_prediction_error(&mut self, error_deg: f64) {
        let start = Instant::now();
        self.inner.observe_prediction_error(error_deg);
        self.acc.leaf(Layer::Observe, start);
    }
}

/// Timed mirror of `core::client::run_session_traced` with the scheme's
/// standard controller and a no-op recorder, which is what
/// `Evaluation::run_user` runs.
pub fn loop_session(
    scheme: Scheme,
    setup: &SessionSetup,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> (SessionMetrics, LayerAcc) {
    let task = Instant::now();
    let mut rec = NoopRecorder;
    let mut ctrl = TimedController::new(make_controller(scheme, setup.phone));
    let mut runner = SessionRunner::new(ctrl.scheme(), setup, faults, policy);
    runner.start(&mut rec);
    ctrl.acc
        .childless(Layer::ClientStart, nanos(task.elapsed()));
    while ctrl.span(Layer::PlanSegment, |c| runner.plan_segment(c, &mut rec)) {
        while ctrl
            .span(Layer::StepDownload, |c| runner.step_download(c, &mut rec))
            .is_none()
        {}
    }
    let metrics = ctrl.span(Layer::ClientFinish, |_| runner.finish(&mut rec));
    let mut acc = ctrl.into_acc();
    acc.driver(nanos(task.elapsed()));
    (metrics, acc)
}

/// Timed mirror of `core::fleet::FleetSessionDriver`: the same calls on
/// the same events, each wrapped in its layer's span.
pub struct TimedDriver<'a> {
    ctrl: TimedController,
    runner: Option<SessionRunner<'a>>,
    rec: Recorder,
    metrics: Option<SessionMetrics>,
    /// Construction time, booked with `start` as one `ClientStart` call.
    construct_ns: u64,
}

impl<'a> TimedDriver<'a> {
    /// Builds the driver as `FleetSessionDriver::new` does, with an
    /// `Off` recorder and profiling off.
    pub fn new(
        scheme: Scheme,
        setup: &SessionSetup<'a>,
        faults: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Self {
        let start = Instant::now();
        let ctrl = TimedController::new(make_controller(scheme, setup.phone));
        let runner = Some(SessionRunner::new(scheme, setup, faults, policy));
        let rec = Recorder::new(Level::Off)
            .with_profiling(false)
            .with_windows(0.0);
        Self {
            ctrl,
            runner,
            rec,
            metrics: None,
            construct_ns: nanos(start.elapsed()),
        }
    }

    /// The finalised metrics (if the session completed) and the spans.
    pub fn into_parts(self) -> (Option<SessionMetrics>, LayerAcc) {
        (self.metrics, self.ctrl.into_acc())
    }

    fn dispatch_step(&mut self, sched: &mut Scheduler) {
        let Some(runner) = self.runner.as_mut() else {
            return;
        };
        let rec = &mut self.rec;
        match self
            .ctrl
            .span(Layer::StepDownload, |c| runner.step_download(c, rec))
        {
            None => sched.schedule(runner.clock_sec(), EventKind::FaultFire),
            Some(outcome) => {
                let stall_sec = match outcome {
                    DownloadOutcome::Delivered { timing, .. } => timing.stall_sec,
                    DownloadOutcome::Skipped { blackout_sec, .. } => {
                        (blackout_sec - SEGMENT_DURATION_SEC).max(0.0)
                    }
                };
                if stall_sec > 0.0 {
                    let end = runner.clock_sec();
                    sched.schedule((end - stall_sec).max(0.0), EventKind::StallStart);
                    sched.schedule(end, EventKind::StallEnd);
                }
                sched.schedule(runner.clock_sec(), EventKind::DownloadComplete);
            }
        }
    }

    fn replan(&mut self, sched: &mut Scheduler) {
        let planned = match self.runner.as_mut() {
            Some(runner) => {
                let rec = &mut self.rec;
                self.ctrl
                    .span(Layer::PlanSegment, |c| runner.plan_segment(c, rec))
            }
            None => return,
        };
        if planned {
            self.dispatch_step(sched);
        } else if let Some(runner) = self.runner.take() {
            let rec = &mut self.rec;
            let metrics = self.ctrl.span(Layer::ClientFinish, |_| runner.finish(rec));
            self.metrics = Some(metrics);
        }
    }
}

impl SessionDriver for TimedDriver<'_> {
    fn start(&mut self, sched: &mut Scheduler) {
        let Some(runner) = self.runner.as_mut() else {
            return;
        };
        let start = Instant::now();
        runner.start(&mut self.rec);
        let total = self.construct_ns + nanos(start.elapsed());
        self.ctrl.acc.childless(Layer::ClientStart, total);
        sched.schedule(runner.clock_sec(), EventKind::Replan);
    }

    fn on_event(&mut self, kind: EventKind, sched: &mut Scheduler) {
        match kind {
            EventKind::Replan => self.replan(sched),
            EventKind::FaultFire => self.dispatch_step(sched),
            EventKind::DownloadComplete => {
                if let Some(runner) = self.runner.as_ref() {
                    sched.schedule(runner.clock_sec(), EventKind::Replan);
                }
            }
            EventKind::StallStart | EventKind::StallEnd => {}
        }
    }
}

/// Runs `setups` on the event engine as `core::fleet` does: sharded
/// with `shard_ranges` over `threads` queues, one `drive_sessions` per
/// shard. Returns the per-session metrics in input order, the spans and
/// the engine tallies.
pub fn drive_traced(
    setups: &[SessionSetup],
    scheme: Scheme,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    threads: usize,
) -> (Vec<Option<SessionMetrics>>, LayerAcc, EngineStats) {
    let ranges = shard_ranges(setups.len(), threads);
    let shards = parallel_map_indexed(threads, ranges.len(), |shard| {
        let task = Instant::now();
        let range = ranges.get(shard).cloned().unwrap_or(0..0);
        let mut drivers: Vec<TimedDriver> = setups[range]
            .iter()
            .map(|setup| TimedDriver::new(scheme, setup, faults, policy))
            .collect();
        let stats = drive_sessions(&mut drivers);
        let wall = nanos(task.elapsed());
        let mut acc = LayerAcc::default();
        let metrics: Vec<Option<SessionMetrics>> = drivers
            .into_iter()
            .map(|d| {
                let (m, a) = d.into_parts();
                acc.merge(a);
                m
            })
            .collect();
        acc.driver(wall);
        (metrics, acc, stats)
    });
    let mut sessions = Vec::with_capacity(setups.len());
    let mut acc = LayerAcc::default();
    let mut stats = EngineStats::default();
    for (metrics, shard_acc, shard_stats) in shards {
        sessions.extend(metrics);
        acc.merge(shard_acc);
        stats.accumulate(&shard_stats);
    }
    (sessions, acc, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_core::client::{run_session_resilient, run_session_resilient_with};
    use ee360_core::experiment::{Evaluation, ExperimentConfig};
    use ee360_support::json::to_string;
    use ee360_trace::fault::FaultConfig;
    use ee360_video::catalog::VideoCatalog;

    /// A missing or wrong forward changes the session, so the wrapped
    /// chaos sessions must match the unwrapped ones bit for bit.
    #[test]
    fn timed_controller_changes_nothing() {
        let mut config = ExperimentConfig::quick_test();
        config.max_segments = Some(60);
        let eval = Evaluation::prepare_videos_threaded(
            config,
            &VideoCatalog::paper_default(),
            Some(&[5]),
            1,
        );
        let server = eval.server(5).unwrap();
        let faults =
            FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77).and_outage(30.0, 8.0);
        let policy = RetryPolicy::default_mobile();
        for scheme in [Scheme::Ours, Scheme::RobustMpc] {
            let mut acc = LayerAcc::default();
            let mut margin_applied = 0;
            for user in eval.eval_users(5) {
                let setup = SessionSetup {
                    server,
                    user,
                    network: eval.network(),
                    phone: config.phone,
                    max_segments: config.max_segments,
                };
                let plain = run_session_resilient(scheme, &setup, &faults, &policy);
                let mut timed = TimedController::new(make_controller(scheme, setup.phone));
                let wrapped = run_session_resilient_with(&mut timed, &setup, &faults, &policy);
                assert_eq!(to_string(&wrapped).unwrap(), to_string(&plain).unwrap());
                margin_applied += timed.robust_stats().map_or(0, |r| r.margin_applied);
                acc.merge(timed.into_acc());
            }
            // The calls that feed controller state were made, and timed.
            assert!(acc.calls(Layer::PlanInto) > 0, "{scheme:?}");
            assert!(acc.calls(Layer::Observe) > 0, "{scheme:?}");
            assert!(acc.calls(Layer::ReplanDegraded) > 0, "{scheme:?}");
            assert!(acc.solver.plans > 0, "{scheme:?}");
            if scheme == Scheme::RobustMpc {
                assert!(acc.widened_plans > 0, "the robust widening must engage");
                assert!(margin_applied > 0, "the bandwidth margin must engage");
            }
        }
    }

    #[test]
    fn parent_spans_exclude_their_children() {
        let mut acc = LayerAcc::default();
        let leaf_before = acc.leaf_ns;
        acc.leaf_ns += 300;
        acc.record(Layer::PlanInto, 300);
        acc.top(Layer::PlanSegment, 1_000, leaf_before);
        acc.driver(1_500);
        assert_eq!(acc.calls(Layer::PlanSegment), 1);
        assert_eq!(acc.self_ns[Layer::PlanSegment as usize], 700);
        assert_eq!(acc.self_ns[Layer::FleetEngine as usize], 500);
        assert!((acc.total_self_s() - acc.worker_s()).abs() < 1e-15);
    }
}

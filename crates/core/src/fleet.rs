//! Event-driven fan-out of full paper sessions.
//!
//! [`crate::experiment::Evaluation::run_traced`] runs each evaluation
//! user as one closed loop. This module drives the *same* sessions —
//! controller, predictor, resilient download, energy/QoE booking and
//! per-session recorder, all via [`SessionRunner`] — on the
//! discrete-event engine of [`ee360_sim::fleet`] instead: each session
//! becomes a [`FleetSessionDriver`] reacting to replan /
//! download-complete / fault-fire events on a shared logical-time queue,
//! sharded deterministically across the worker pool; a cell's entry
//! point is [`Evaluation::run_fleet_traced`].
//!
//! Because every event handler calls the same [`SessionRunner`] phase
//! the loop engine would call next, and sessions share nothing mutable,
//! the per-session [`SessionMetrics`] are **bit-identical** to
//! [`crate::client::run_session_traced`] — the property
//! `tests/fleet_equivalence.rs` pins across the paper matrix. Session
//! recorders ([`Recorder::worker`]s) are merged into the caller's in
//! user-index order, exactly as `run_traced` does, so the merged obs
//! report bytes match too.

use ee360_abr::controller::Scheme;
use ee360_obs::Recorder;
use ee360_sim::fleet::{drive_sessions, shard_ranges, EngineStats, EventKind, Scheduler};
use ee360_sim::metrics::SessionMetrics;
use ee360_sim::resilience::RetryPolicy;
use ee360_sim::SessionDriver;
use ee360_support::parallel::parallel_map_indexed;
use ee360_trace::fault::FaultPlan;

use crate::client::{make_controller, SessionRunner, SessionSetup};
use crate::experiment::{merge_session, Evaluation};

/// One full paper session as an event-queue driver: the boxed
/// controller, the phase-decomposed [`SessionRunner`], and the session's
/// private recorder. The runner moves out on the terminal replan (the
/// one that finds no segment left), which finalises the metrics.
pub struct FleetSessionDriver<'a> {
    controller: Box<dyn ee360_abr::controller::Controller>,
    runner: Option<SessionRunner<'a>>,
    rec: Recorder,
    metrics: Option<SessionMetrics>,
}

impl<'a> FleetSessionDriver<'a> {
    /// Builds the driver for one user with the scheme's standard
    /// controller and a fresh recorder (level/profiling as given).
    ///
    /// # Panics
    ///
    /// Panics if the user's trace belongs to a different video than the
    /// server.
    pub fn new(
        scheme: Scheme,
        setup: &SessionSetup<'a>,
        faults: &FaultPlan,
        policy: &RetryPolicy,
        level: ee360_obs::Level,
        profiling: bool,
    ) -> Self {
        let rec = Recorder::new(level).with_profiling(profiling);
        Self::with_recorder(scheme, setup, faults, policy, rec)
    }

    /// [`FleetSessionDriver::new`] recording into `rec`, typically a
    /// [`Recorder::worker`] of the caller's recorder, which the caller
    /// merges back in user-index order after the run.
    ///
    /// # Panics
    ///
    /// Panics if the user's trace belongs to a different video than the
    /// server.
    pub fn with_recorder(
        scheme: Scheme,
        setup: &SessionSetup<'a>,
        faults: &FaultPlan,
        policy: &RetryPolicy,
        rec: Recorder,
    ) -> Self {
        Self {
            controller: make_controller(scheme, setup.phone),
            runner: Some(SessionRunner::new(scheme, setup, faults, policy)),
            rec,
            metrics: None,
        }
    }

    /// Seals the driver into its results: the finalised metrics (if the
    /// session ran to completion) and the session's recorder.
    pub fn into_parts(self) -> (Option<SessionMetrics>, Recorder) {
        (self.metrics, self.rec)
    }

    /// Runs one recovery step of the in-flight download and schedules
    /// the resolution event: `FaultFire` while unresolved,
    /// `DownloadComplete` (plus the stall window, informationally) once
    /// the outcome is booked.
    fn dispatch_step(&mut self, sched: &mut Scheduler) {
        let Some(runner) = self.runner.as_mut() else {
            return;
        };
        match runner.step_download(self.controller.as_mut(), &mut self.rec) {
            None => sched.schedule(runner.clock_sec(), EventKind::FaultFire),
            Some(outcome) => {
                let stall_sec = outcome.stall_sec();
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
            Some(runner) => runner.plan_segment(self.controller.as_mut(), &mut self.rec),
            None => return,
        };
        if planned {
            self.dispatch_step(sched);
        } else if let Some(runner) = self.runner.take() {
            // Terminal replan: no segment left — finalise and go quiet.
            self.metrics = Some(runner.finish(&mut self.rec));
        }
    }
}

impl SessionDriver for FleetSessionDriver<'_> {
    fn start(&mut self, sched: &mut Scheduler) {
        let Some(runner) = self.runner.as_mut() else {
            return;
        };
        runner.start(&mut self.rec);
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
            // Stall windows are informational queue entries; the booking
            // already happened when the outcome landed.
            EventKind::StallStart | EventKind::StallEnd => {}
        }
    }
}

/// Runs one (video, scheme) cell's evaluation users on the event engine,
/// sharded across `threads` workers, and merges each session's recorder
/// into `rec` in user-index order with exactly the
/// [`Evaluation::run_traced`] merge sequence. Returns the per-session
/// metrics in user order plus the engine stats (whose `peak_queue_len`
/// is schedule-dependent; everything else is intrinsic).
///
/// # Panics
///
/// Panics if the video was not prepared.
pub fn fleet_sessions_traced(
    eval: &Evaluation,
    video_id: usize,
    scheme: Scheme,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    threads: usize,
    rec: &mut Recorder,
) -> (Vec<SessionMetrics>, EngineStats) {
    let (server, users) = eval.prepared(video_id);
    let threads = threads.max(1);
    let ranges = shard_ranges(users.len(), threads);
    let shards = parallel_map_indexed(threads, ranges.len(), |shard| {
        let range = ranges.get(shard).cloned().unwrap_or(0..0);
        let mut drivers: Vec<FleetSessionDriver> = range
            .map(|i| {
                FleetSessionDriver::with_recorder(
                    scheme,
                    &eval.setup(server, &users[i]),
                    faults,
                    policy,
                    rec.worker(),
                )
            })
            .collect();
        let stats = drive_sessions(&mut drivers);
        let parts: Vec<(Option<SessionMetrics>, Recorder)> = drivers
            .into_iter()
            .map(FleetSessionDriver::into_parts)
            .collect();
        (parts, stats)
    });
    let mut sessions = Vec::with_capacity(users.len());
    let mut stats = EngineStats::default();
    for (parts, shard_stats) in shards {
        stats.accumulate(&shard_stats);
        for (metrics, session_rec) in parts {
            merge_session(rec, &session_rec);
            if let Some(m) = metrics {
                sessions.push(m);
            }
        }
    }
    (sessions, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use ee360_obs::Level;
    use ee360_support::json;
    use ee360_trace::fault::FaultConfig;
    use ee360_video::catalog::VideoCatalog;

    fn quick_eval() -> Evaluation {
        let mut config = ExperimentConfig::quick_test();
        config.max_segments = Some(30);
        Evaluation::prepare_videos_threaded(config, &VideoCatalog::paper_default(), Some(&[2]), 1)
    }

    #[test]
    fn event_engine_matches_loop_engine_bit_for_bit() {
        let eval = quick_eval();
        let faults = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 11);
        let policy = RetryPolicy::default_mobile();
        let mut loop_rec = Recorder::new(Level::Detail);
        let loop_outcome = eval.run_traced(2, Scheme::Ours, &faults, &policy, &mut loop_rec);
        let mut fleet_rec = Recorder::new(Level::Detail);
        let eval = eval.clone().with_session_threads(1);
        let fleet_outcome =
            eval.run_fleet_traced(2, Scheme::Ours, &faults, &policy, &mut fleet_rec);
        assert_eq!(
            json::to_string(&fleet_outcome).unwrap(),
            json::to_string(&loop_outcome).unwrap()
        );
        assert_eq!(
            json::to_string(&ee360_obs::export::report_json(&fleet_rec)).unwrap(),
            json::to_string(&ee360_obs::export::report_json(&loop_rec)).unwrap(),
            "merged obs reports must match byte-for-byte"
        );
    }

    #[test]
    fn off_driver_keeps_nothing_and_runs_the_detail_session() {
        let eval = quick_eval();
        let faults = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 11);
        let policy = RetryPolicy::default_mobile();
        let (server, users) = eval.prepared(2);
        let setup = eval.setup(server, &users[0]);
        let run = |level: Level| {
            let mut drivers = vec![FleetSessionDriver::new(
                Scheme::RobustMpc,
                &setup,
                &faults,
                &policy,
                level,
                false,
            )];
            drive_sessions(&mut drivers);
            let (metrics, rec) = drivers.pop().expect("one driver").into_parts();
            (metrics.expect("session completes"), rec)
        };
        let report = |rec: &Recorder| json::to_string(&ee360_obs::export::report_json(rec));
        let (off_metrics, off_rec) = run(Level::Off);
        let (detail_metrics, detail_rec) = run(Level::Detail);
        assert!(
            !detail_metrics.resilience().is_clean(),
            "the plan must fire"
        );
        assert!(detail_rec.events_len() > 0);
        assert_eq!(
            report(&off_rec).unwrap(),
            report(&Recorder::new(Level::Off)).unwrap()
        );
        assert_eq!(off_metrics, detail_metrics);
    }

    #[test]
    fn fleet_threads_do_not_change_results() {
        let eval = quick_eval();
        let faults = FaultPlan::generate(FaultConfig::none(), 300.0, 3);
        let policy = RetryPolicy::default_mobile();
        let run = |threads: usize| {
            let mut rec = Recorder::new(Level::Summary);
            let eval = eval.clone().with_session_threads(threads);
            let out = eval.run_fleet_traced(2, Scheme::Ptile, &faults, &policy, &mut rec);
            (
                json::to_string(&out).unwrap(),
                json::to_string(&ee360_obs::export::report_json(&rec)).unwrap(),
            )
        };
        let baseline = run(1);
        for threads in [2usize, 4, 16] {
            assert_eq!(run(threads), baseline, "{threads} threads diverged");
        }
    }
}

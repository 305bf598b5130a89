//! The heart of the fleet PR: the event engine must be a *perfect*
//! stand-in for the loop engine.
//!
//! `ee360::core::fleet` drives full paper sessions from a discrete-event
//! queue; `run_session_traced` runs the same sessions as
//! closed loops. These tests pin them **bit-identical** — per-session
//! metrics JSON (every QoE/energy/stall f64), the per-session
//! QoE/energy/stall tuples and `ResilienceCounters` by exact bits, the
//! aggregated `SchemeOutcome`, and the merged obs report bytes — across
//! fleet sizes N ∈ {1, 4, 48}, benign and chaos fault plans, and
//! worker counts ∈ {1, 4, 16}. A seeded property test varies the fault
//! plan itself. The `#[ignore]`d matrix test extends the same pin to the
//! paper's full 48-user × 8-video evaluation and is run in release by
//! `scripts/ci.sh`.

use std::sync::OnceLock;

use ee360::abr::controller::Scheme;
use ee360::core::client::{make_controller, run_session_traced, SessionSetup};
use ee360::core::experiment::{Evaluation, ExperimentConfig};
use ee360::core::fleet::fleet_sessions_traced;
use ee360::obs::{export, Level, Record, Recorder};
use ee360::sim::metrics::SessionMetrics;
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::fault::{FaultConfig, FaultPlan};
use ee360::video::catalog::VideoCatalog;
use ee360_support::json::to_string;
use ee360_support::{prop_assert_eq, proptest};

fn benign_plan() -> FaultPlan {
    FaultPlan::generate(FaultConfig::none(), 400.0, 3)
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77).and_outage(30.0, 8.0)
}

/// Prepares an evaluation whose video 2 has exactly `n` eval users.
fn eval_with_users(n: usize, max_segments: usize) -> Evaluation {
    let mut config = ExperimentConfig::quick_test();
    config.train_users = 8;
    config.users_total = 8 + n;
    config.max_segments = Some(max_segments);
    Evaluation::prepare_videos_threaded(config, &VideoCatalog::paper_default(), Some(&[2]), 1)
}

/// The loop-engine reference: every user as one closed loop, recorders
/// merged in user order — the exact `Evaluation::run_traced` sequence,
/// spelled out so the per-session metrics stay accessible.
fn loop_reference(
    eval: &Evaluation,
    video: usize,
    scheme: Scheme,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    level: Level,
) -> (Vec<SessionMetrics>, Recorder) {
    let server = eval.server(video).expect("video prepared");
    let users = eval.eval_users(video);
    let mut rec = Recorder::new(level);
    let mut sessions = Vec::with_capacity(users.len());
    for user in users {
        let mut session_rec = Recorder::new(level);
        let metrics = run_session_traced(
            make_controller(scheme, eval.config().phone).as_mut(),
            &SessionSetup {
                server,
                user,
                network: eval.network(),
                phone: eval.config().phone,
                max_segments: eval.config().max_segments,
            },
            faults,
            policy,
            &mut session_rec,
        );
        rec.count("experiment.sessions", 1);
        rec.merge_registry(session_rec.registry());
        for event in session_rec.events() {
            rec.record(event.clone());
        }
        sessions.push(metrics);
    }
    (sessions, rec)
}

fn report_bytes(rec: &Recorder) -> String {
    to_string(&export::report_json(rec)).expect("obs report serializes")
}

/// Asserts loop and fleet runs are bit-identical at every level the
/// ISSUE names: session JSON, QoE/energy/stall bits, counters, report.
fn assert_bit_identical(
    label: &str,
    loop_sessions: &[SessionMetrics],
    loop_rec: &Recorder,
    fleet_sessions: &[SessionMetrics],
    fleet_rec: &Recorder,
) {
    assert_eq!(
        loop_sessions.len(),
        fleet_sessions.len(),
        "{label}: session count"
    );
    for (i, (a, b)) in loop_sessions.iter().zip(fleet_sessions).enumerate() {
        assert_eq!(
            a.mean_qoe().to_bits(),
            b.mean_qoe().to_bits(),
            "{label}: session {i} QoE bits"
        );
        assert_eq!(
            a.total_energy_mj().to_bits(),
            b.total_energy_mj().to_bits(),
            "{label}: session {i} energy bits"
        );
        assert_eq!(
            a.total_stall_sec().to_bits(),
            b.total_stall_sec().to_bits(),
            "{label}: session {i} stall bits"
        );
        assert_eq!(
            a.resilience(),
            b.resilience(),
            "{label}: session {i} counters"
        );
        assert_eq!(
            to_string(a).unwrap(),
            to_string(b).unwrap(),
            "{label}: session {i} full metrics JSON"
        );
    }
    assert_eq!(
        report_bytes(loop_rec),
        report_bytes(fleet_rec),
        "{label}: merged obs report bytes"
    );
}

#[test]
fn fleet_matches_loop_across_sizes_plans_and_threads() {
    let policy = RetryPolicy::default_mobile();
    for n in [1usize, 4, 48] {
        // Keep the 48-session case affordable in debug builds.
        let segments = if n == 48 { 8 } else { 15 };
        let eval = eval_with_users(n, segments);
        for (faults, plan_label) in [(benign_plan(), "benign"), (chaos_plan(), "chaos")] {
            let (loop_sessions, loop_rec) =
                loop_reference(&eval, 2, Scheme::Ours, &faults, &policy, Level::Summary);
            for threads in [1usize, 4, 16] {
                let mut fleet_rec = Recorder::new(Level::Summary);
                let (fleet_sessions, stats) = fleet_sessions_traced(
                    &eval,
                    2,
                    Scheme::Ours,
                    &faults,
                    &policy,
                    threads,
                    &mut fleet_rec,
                );
                assert!(stats.events > 0, "engine must dispatch events");
                assert_bit_identical(
                    &format!("N={n} plan={plan_label} threads={threads}"),
                    &loop_sessions,
                    &loop_rec,
                    &fleet_sessions,
                    &fleet_rec,
                );
            }
        }
    }
}

/// The robust controller is stateful across segments (residual and
/// margin sketches warm as outcomes arrive), which makes it the
/// sharpest probe of engine equivalence: any ordering difference in how
/// the engines deliver outcomes would skew a sketch and fork the plans.
#[test]
fn robust_mpc_fleet_matches_loop() {
    let policy = RetryPolicy::default_mobile();
    let eval = eval_with_users(4, 15);
    for (faults, plan_label) in [(benign_plan(), "benign"), (chaos_plan(), "chaos")] {
        let (loop_sessions, loop_rec) = loop_reference(
            &eval,
            2,
            Scheme::RobustMpc,
            &faults,
            &policy,
            Level::Summary,
        );
        for threads in [1usize, 4] {
            let mut fleet_rec = Recorder::new(Level::Summary);
            let (fleet_sessions, _stats) = fleet_sessions_traced(
                &eval,
                2,
                Scheme::RobustMpc,
                &faults,
                &policy,
                threads,
                &mut fleet_rec,
            );
            assert_bit_identical(
                &format!("robust plan={plan_label} threads={threads}"),
                &loop_sessions,
                &loop_rec,
                &fleet_sessions,
                &fleet_rec,
            );
        }
    }
}

#[test]
fn fleet_outcome_aggregate_matches_run_traced() {
    let eval = eval_with_users(4, 15);
    let faults = chaos_plan();
    let policy = RetryPolicy::default_mobile();
    let mut loop_rec = Recorder::new(Level::Detail);
    let loop_outcome = eval.run_traced(2, Scheme::Ours, &faults, &policy, &mut loop_rec);
    let mut fleet_rec = Recorder::new(Level::Detail);
    let fleet_outcome = eval.run_fleet_traced(2, Scheme::Ours, &faults, &policy, &mut fleet_rec);
    assert_eq!(
        to_string(&fleet_outcome).unwrap(),
        to_string(&loop_outcome).unwrap(),
        "aggregated SchemeOutcome must match byte-for-byte"
    );
    assert_eq!(report_bytes(&loop_rec), report_bytes(&fleet_rec));
}

fn shared_eval() -> &'static Evaluation {
    static EVAL: OnceLock<Evaluation> = OnceLock::new();
    EVAL.get_or_init(|| eval_with_users(2, 12))
}

proptest! {
    /// Seeded property: whatever the chaos plan (fault seed, outage
    /// window) and worker count, the event engine replays the loop
    /// engine bit-for-bit.
    #[test]
    fn random_fault_plans_stay_bit_identical(
        seed in 0u64..10_000,
        outage_start in 5.0f64..60.0,
        outage_sec in 1.0f64..10.0,
        threads in 1usize..6
    ) {
        let eval = shared_eval();
        let faults = FaultPlan::generate(FaultConfig::chaos_default(), 400.0, seed)
            .and_outage(outage_start, outage_sec);
        let policy = RetryPolicy::default_mobile();
        let (loop_sessions, loop_rec) =
            loop_reference(eval, 2, Scheme::Ours, &faults, &policy, Level::Summary);
        let mut fleet_rec = Recorder::new(Level::Summary);
        let (fleet_sessions, _stats) =
            fleet_sessions_traced(eval, 2, Scheme::Ours, &faults, &policy, threads, &mut fleet_rec);
        prop_assert_eq!(loop_sessions.len(), fleet_sessions.len());
        for (a, b) in loop_sessions.iter().zip(&fleet_sessions) {
            prop_assert_eq!(to_string(a).unwrap(), to_string(b).unwrap());
        }
        prop_assert_eq!(report_bytes(&loop_rec), report_bytes(&fleet_rec));
    }
}

/// The acceptance-criteria pin: the paper's full 48-user × 8-video
/// matrix (40 train + 8 eval streamers per video, full-length videos),
/// benign and chaos, loop vs event engine, bit-identical. Heavy — run in
/// release via `scripts/ci.sh` (`--include-ignored`).
#[test]
#[ignore = "full paper matrix; scripts/ci.sh runs it in release"]
fn full_paper_matrix_is_bit_identical() {
    let config = ExperimentConfig::paper_trace2();
    let catalog = VideoCatalog::paper_default();
    let eval = Evaluation::prepare_videos(config, &catalog, None);
    let videos: Vec<usize> = catalog.videos().iter().map(|s| s.id).collect();
    assert_eq!(videos.len(), 8, "paper catalog has 8 videos");
    let policy = RetryPolicy::default_mobile();
    for (faults, plan_label) in [(benign_plan(), "benign"), (chaos_plan(), "chaos")] {
        for &video in &videos {
            let (loop_sessions, loop_rec) =
                loop_reference(&eval, video, Scheme::Ours, &faults, &policy, Level::Summary);
            let mut fleet_rec = Recorder::new(Level::Summary);
            let (fleet_sessions, _stats) = fleet_sessions_traced(
                &eval,
                video,
                Scheme::Ours,
                &faults,
                &policy,
                4,
                &mut fleet_rec,
            );
            assert_bit_identical(
                &format!("matrix video={video} plan={plan_label}"),
                &loop_sessions,
                &loop_rec,
                &fleet_sessions,
                &fleet_rec,
            );
        }
    }
}

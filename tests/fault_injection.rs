//! Fault injection end to end: chaos is deterministic, recovery is graceful.
//!
//! The fault substrate extends the repo's replay policy to adversity:
//! a seeded `FaultPlan` must produce the identical event schedule every
//! time, a full resilient session under that plan must serialize to
//! byte-identical metrics JSON, and each recovery mechanism (timeout,
//! backoff, abandon-then-downgrade, skip-with-rebuffer) must behave
//! exactly as specified.

use ee360::abr::controller::Scheme;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{run_session_resilient, SessionSetup};
use ee360::core::server::VideoServer;
use ee360::geom::grid::TileGrid;
use ee360::obs::NoopRecorder;
use ee360::power::model::Phone;
use ee360::sim::decoder::DecoderPipeline;
use ee360::sim::metrics::SessionMetrics;
use ee360::sim::resilience::{DownloadEnv, DownloadOutcome, RetryPolicy, SessionCore};
use ee360::trace::dataset::VideoTraces;
use ee360::trace::fault::{FaultConfig, FaultPlan};
use ee360::trace::head::{GazeConfig, HeadTrace};
use ee360::trace::network::NetworkTrace;
use ee360::video::catalog::VideoCatalog;
use ee360_support::json::to_string;
use ee360_support::prelude::*;

fn chaos_session(scheme: Scheme, faults: &FaultPlan, policy: &RetryPolicy) -> SessionMetrics {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(2).expect("catalog has video 2");
    let traces = VideoTraces::generate(spec, 10, 5, GazeConfig::default());
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..8],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(400, 5);
    let user = traces.traces().last().expect("generated users");
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: Some(50),
    };
    run_session_resilient(scheme, &setup, faults, policy)
}

/// One session's download engine over an owned link, driven segment by
/// segment the way every session loop drives it.
struct Engine {
    network: NetworkTrace,
    plan: FaultPlan,
    policy: RetryPolicy,
    decoder: DecoderPipeline,
    core: SessionCore,
}

impl Engine {
    fn new(network: NetworkTrace, plan: FaultPlan, policy: RetryPolicy) -> Self {
        policy.validate();
        Self {
            network,
            plan,
            policy,
            decoder: DecoderPipeline::paper_default(),
            core: SessionCore::new(3.0),
        }
    }

    /// Begins segment `k` and steps it until it is delivered or skipped.
    fn download(&mut self, k: usize, request: &mut dyn FnMut(usize) -> f64) -> DownloadOutcome {
        let env = DownloadEnv {
            network: &self.network,
            plan: &self.plan,
            policy: &self.policy,
            decoder: &self.decoder,
            fault_base: 0,
        };
        let core = &mut self.core;
        let mut st = core.begin_download(&env, k);
        loop {
            if let Some(out) = core.step_download(&env, &mut st, request, &mut NoopRecorder) {
                return out;
            }
        }
    }
}

proptest! {
    /// Same seed ⇒ identical fault-event sequence, any seed, byte for
    /// byte through the JSON layer.
    #[test]
    fn fault_schedule_is_a_pure_function_of_its_seed(seed in 0u64..1000) {
        let a = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, seed);
        let b = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, seed);
        prop_assert_eq!(a.events(), b.events());
        prop_assert_eq!(
            to_string(&a).expect("plans serialize"),
            to_string(&b).expect("plans serialize")
        );
    }

    /// Per-attempt fates are stable under replay and unaffected by other
    /// segments' retries: segment k's fate depends only on (seed, k,
    /// attempt).
    #[test]
    fn attempt_fates_are_retry_stable(seed in 0u64..500, segment in 0usize..200) {
        let plan = FaultPlan::none().with_attempt_faults(
            FaultConfig { loss_prob: 0.4, corruption_prob: 0.2, ..FaultConfig::none() },
            seed,
        );
        for attempt in 0..4 {
            prop_assert_eq!(
                plan.segment_lost(segment, attempt),
                plan.segment_lost(segment, attempt)
            );
            prop_assert_eq!(
                plan.segment_corrupt(segment, attempt),
                plan.segment_corrupt(segment, attempt)
            );
        }
    }
}

/// A full resilient session under a seeded outage storm serializes to
/// byte-identical metrics JSON on replay — the post-degradation metrics,
/// not just the schedule.
#[test]
fn chaos_session_metrics_json_is_byte_identical() {
    let faults =
        FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 31).and_outage(30.0, 10.0);
    let policy = RetryPolicy::default_mobile();
    let a = to_string(&chaos_session(Scheme::Ours, &faults, &policy)).expect("serialize");
    let b = to_string(&chaos_session(Scheme::Ours, &faults, &policy)).expect("serialize");
    assert_eq!(a, b);
}

/// The acceptance scenario: a 10 s zero-bandwidth outage mid-stream on
/// paper trace 2 completes, records the degradation, and bounds the
/// damage.
#[test]
fn ten_second_blackout_degrades_gracefully() {
    let faults = FaultPlan::single_outage(30.0, 10.0);
    let m = chaos_session(Scheme::Ours, &faults, &RetryPolicy::default_mobile());
    assert_eq!(m.len(), 50, "every segment slot accounted for");
    let r = m.resilience();
    assert!(
        r.abandons + r.degraded_segments + r.skipped_segments >= 1,
        "blackout must be visible in the counters: {r:?}"
    );
    assert!(m.rebuffer_ratio() < 0.5, "ratio {}", m.rebuffer_ratio());

    // And the no-fault baseline is strictly cleaner.
    let clean = chaos_session(
        Scheme::Ours,
        &FaultPlan::none(),
        &RetryPolicy::default_mobile(),
    );
    assert!(clean.resilience().abandons <= r.abandons);
    assert!(clean.mean_qoe() >= m.mean_qoe() - 1e-9);
}

/// Timeout: an attempt against a dead link burns exactly its budget, no
/// more, and the failure is committed to the session clock.
#[test]
fn timeout_burns_exactly_the_attempt_budget() {
    let net = NetworkTrace::from_samples(vec![0.0; 60]);
    let policy = RetryPolicy {
        attempt_timeout_sec: 2.0,
        max_retries: 0,
        backoff_base_sec: 0.5,
        backoff_factor: 2.0,
        backoff_cap_sec: 2.0,
        segment_deadline_sec: 10.0,
    };
    let mut s = Engine::new(net, FaultPlan::none(), policy);
    let out = s.download(0, &mut |_| 1.0e6);
    match out {
        DownloadOutcome::Skipped {
            elapsed_sec,
            attempts,
            ..
        } => {
            assert_eq!(attempts, 1);
            assert!(
                (elapsed_sec - 2.0).abs() < 1e-9,
                "one attempt, one timeout budget: {elapsed_sec}"
            );
        }
        other => panic!("dead link must time out: {other:?}"),
    }
    assert_eq!(s.core.counters().abandons, 1);
}

/// Backoff timing: with losses forcing every retry, the wall clock walks
/// the exponential schedule exactly (timeout + min(base·2^i, cap) pauses).
#[test]
fn backoff_schedule_is_exact_on_the_session_clock() {
    let plan = FaultPlan::none().with_attempt_faults(
        FaultConfig {
            loss_prob: 1.0,
            ..FaultConfig::none()
        },
        3,
    );
    let policy = RetryPolicy {
        attempt_timeout_sec: 1.0,
        max_retries: 3,
        backoff_base_sec: 0.25,
        backoff_factor: 2.0,
        backoff_cap_sec: 0.75,
        segment_deadline_sec: 60.0,
    };
    let net = NetworkTrace::from_samples(vec![8.0e6; 120]);
    let mut s = Engine::new(net, plan, policy);
    let out = s.download(0, &mut |_| 1.0e6);
    assert!(!out.is_delivered());
    // 4 attempts × 1 s timeouts + backoffs 0.25 + 0.5 + 0.75 (capped).
    let expected = 4.0 * 1.0 + 0.25 + 0.5 + 0.75;
    assert!(
        (s.core.clock_sec() - expected).abs() < 1e-9,
        "clock {} vs expected {expected}",
        s.core.clock_sec()
    );
    assert!((s.core.counters().backoff_sec - 1.5).abs() < 1e-9);
}

/// Abandon-then-downgrade: after a mid-download abandon the next request
/// must come from one rung lower, and the delivered payload is cheaper.
#[test]
fn abandon_requests_the_next_rung_down() {
    let net = NetworkTrace::from_samples(vec![4.0e6; 120]);
    let plan = FaultPlan::single_outage(1.0, 6.0);
    let policy = RetryPolicy {
        attempt_timeout_sec: 3.0,
        max_retries: 3,
        backoff_base_sec: 0.25,
        backoff_factor: 2.0,
        backoff_cap_sec: 1.0,
        segment_deadline_sec: 20.0,
    };
    let mut s = Engine::new(net, plan, policy);
    let mut requested = Vec::new();
    let out = s.download(0, &mut |rung| {
        let bits = 8.0e6 / (1u64 << rung) as f64;
        requested.push((rung, bits));
        bits
    });
    match out {
        DownloadOutcome::Delivered {
            degraded_rungs,
            bits,
            ..
        } => {
            assert!(degraded_rungs >= 1, "outage must degrade the delivery");
            assert!(bits < 8.0e6, "delivered payload must be cheaper");
        }
        other => panic!("the link recovers at t=7: {other:?}"),
    }
    assert!(requested.len() >= 2);
    for pair in requested.windows(2) {
        assert!(pair[1].0 >= pair[0].0, "rungs never climb during recovery");
        assert!(pair[1].1 <= pair[0].1, "requests never get more expensive");
    }
}

/// Skip-with-rebuffer: an exhausted deadline drains the buffer, charges
/// the blackout (stall + skipped content), and moves the session on.
#[test]
fn skip_charges_rebuffer_and_moves_on() {
    let net = NetworkTrace::from_samples([vec![64.0e6; 1], vec![0.0; 60]].concat());
    let policy = RetryPolicy {
        attempt_timeout_sec: 2.0,
        max_retries: 1,
        backoff_base_sec: 0.25,
        backoff_factor: 2.0,
        backoff_cap_sec: 1.0,
        segment_deadline_sec: 5.0,
    };
    let mut s = Engine::new(net, FaultPlan::none(), policy);
    for k in 0..2 {
        assert!(s.download(k, &mut |_| 1.0e6).is_delivered());
    }
    let before = s.core.segments_completed();
    let out = s.download(2, &mut |_| 100.0e6);
    match out {
        DownloadOutcome::Skipped { blackout_sec, .. } => {
            assert!(
                blackout_sec >= 1.0,
                "at least the skipped second: {blackout_sec}"
            );
        }
        other => panic!("dead tail must skip: {other:?}"),
    }
    assert_eq!(s.core.segments_completed(), before, "skips deliver nothing");
    assert_eq!(s.core.counters().skipped_segments, 1);
    assert!(s.core.counters().blackout_sec >= 1.0);
    // The session is still usable: counters and clock are consistent.
    assert!(s.core.clock_sec().is_finite());
}

/// The paper's benign world — no faults, the wait-forever policy — runs
/// on the same engine and never touches the recovery ladder: every slot
/// is delivered and the resilience counters stay clean for every scheme.
#[test]
fn benign_sessions_are_unchanged_by_the_resilient_pipeline() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(2).expect("catalog has video 2");
    let traces = VideoTraces::generate(spec, 8, 9, GazeConfig::default());
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..6],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(300, 9);
    let user = traces.traces().last().expect("generated users");
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: Some(30),
    };
    for scheme in Scheme::ALL {
        let benign =
            run_session_resilient(scheme, &setup, &FaultPlan::none(), &RetryPolicy::disabled());
        assert_eq!(benign.len(), 30, "{scheme:?}");
        assert!(benign.resilience().is_clean(), "{scheme:?}");
        assert_eq!(benign.resilience().attempts, 30, "{scheme:?}");
    }
}

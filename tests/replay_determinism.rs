//! Replay determinism: same seed ⇒ byte-identical artifacts.
//!
//! The repo policy is stronger than "statistically equal": every figure,
//! trace, and session must reproduce *bit for bit* from its seed, which
//! is what lets the regenerated paper figures be diffed as text. These
//! tests pin that at three levels — trace generation, a full client
//! session, and the serialized end-to-end evaluation JSON.

use ee360::abr::controller::Scheme;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{
    make_controller, run_session_resilient, run_session_traced, SessionSetup,
};
use ee360::core::experiment::{Evaluation, ExperimentConfig};
use ee360::core::server::VideoServer;
use ee360::geom::grid::TileGrid;
use ee360::obs::{export, Level, Recorder};
use ee360::power::model::Phone;
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::dataset::{Dataset, VideoTraces};
use ee360::trace::fault::{FaultConfig, FaultPlan};
use ee360::trace::head::{GazeConfig, HeadTraceGenerator};
use ee360::trace::network::NetworkTrace;
use ee360::video::catalog::VideoCatalog;
use ee360_support::json::{to_string, to_string_pretty};

/// Two head-trace generations from the same seed serialize to the same
/// bytes — not just `==`, byte-identical JSON.
#[test]
fn head_trace_generation_is_byte_identical() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(3).unwrap();
    let gen = |seed| {
        let trace = HeadTraceGenerator::new(GazeConfig::default()).generate(spec, seed, 17);
        to_string(&trace).expect("head traces serialize")
    };
    assert_eq!(gen(17), gen(17));
    assert_ne!(gen(17), gen(18), "different seeds must differ");
}

/// Same for a whole multi-user dataset and a network trace.
#[test]
fn dataset_and_network_trace_are_byte_identical() {
    let catalog = VideoCatalog::paper_default();
    let a = to_string(&Dataset::generate(&catalog, 4, 23)).unwrap();
    let b = to_string(&Dataset::generate(&catalog, 4, 23)).unwrap();
    assert_eq!(a, b);

    let n1 = to_string(&NetworkTrace::paper_trace2(300, 5)).unwrap();
    let n2 = to_string(&NetworkTrace::paper_trace2(300, 5)).unwrap();
    assert_eq!(n1, n2);
}

/// A full client session replayed from identical inputs reports identical
/// per-segment metrics: every record (timing, energy split, QoE terms)
/// must match exactly, segment by segment.
#[test]
fn session_replay_has_identical_per_segment_metrics() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(6).unwrap();

    let run_once = || {
        let traces = VideoTraces::generate(spec, 12, 7, GazeConfig::default());
        let refs: Vec<_> = traces.traces().iter().collect();
        let server = VideoServer::prepare(
            spec,
            &refs[..10],
            TileGrid::paper_default(),
            PtileConfig::paper_default(),
        );
        let network = NetworkTrace::paper_trace2(400, 7);
        let user = traces.traces().last().unwrap().clone();
        let setup = SessionSetup {
            server: &server,
            user: &user,
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(50),
        };
        run_session_resilient(
            Scheme::Ours,
            &setup,
            &FaultPlan::none(),
            &RetryPolicy::disabled(),
        )
    };

    let a = run_once();
    let b = run_once();
    assert_eq!(a.records().len(), b.records().len());
    for (ra, rb) in a.records().iter().zip(b.records()) {
        assert_eq!(ra, rb, "segment {} diverged on replay", ra.index);
    }
    assert_eq!(a.startup(), b.startup());
    // And the serialized form is byte-identical too.
    assert_eq!(to_string(&a).unwrap(), to_string(&b).unwrap());
}

/// The end-to-end check the CI gate uses: two same-seed evaluations of
/// every scheme serialize to byte-identical JSON.
#[test]
fn end_to_end_evaluation_json_is_byte_identical() {
    let catalog = VideoCatalog::paper_default();
    let run = || {
        let mut config = ExperimentConfig::quick_test();
        config.max_segments = Some(30);
        let eval = Evaluation::prepare_videos(config, &catalog, Some(&[2]));
        let outcomes: Vec<_> = Scheme::ALL.into_iter().map(|s| eval.run(2, s)).collect();
        to_string(&outcomes).expect("outcomes serialize")
    };
    assert_eq!(run(), run());
}

/// The robust controller extends the replay policy: its quantile
/// sketches, widening decisions, and margin gating are all seeded-input
/// functions, so a `RobustMpc` session — traced, under chaos faults,
/// with wandering gaze so the widening actually engages — replays to a
/// byte-identical serialized form, and so does its obs trace.
#[test]
fn robust_mpc_session_replay_is_byte_identical() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(5).unwrap();
    let run_once = || {
        let gaze = GazeConfig {
            roam_probability: 0.15,
            exploratory_offset_deg: 14.0,
            flick_rate_hz: 1.8,
            ..GazeConfig::default()
        };
        let traces = VideoTraces::generate(spec, 12, 41, gaze);
        let refs: Vec<_> = traces.traces().iter().collect();
        let server = VideoServer::prepare(
            spec,
            &refs[..10],
            TileGrid::paper_default(),
            PtileConfig::paper_default(),
        );
        let network = NetworkTrace::paper_trace2(400, 41);
        let user = traces.traces().last().unwrap();
        let setup = SessionSetup {
            server: &server,
            user,
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(60),
        };
        let faults =
            FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77).and_outage(30.0, 8.0);
        let mut rec = Recorder::new(Level::Detail);
        let metrics = run_session_traced(
            make_controller(Scheme::RobustMpc, setup.phone).as_mut(),
            &setup,
            &faults,
            &RetryPolicy::default_mobile(),
            &mut rec,
        );
        (
            to_string(&metrics).expect("metrics serialize"),
            rec.trace_jsonl().expect("trace serializes"),
            rec.registry().counter("robust.widened_plans"),
        )
    };
    let a = run_once();
    let b = run_once();
    assert!(a.2 > 0, "the wandering-gaze run must exercise the widening");
    assert_eq!(a, b, "RobustMpc must replay byte-for-byte");
}

/// Runs one instrumented chaos session and returns its recorder plus the
/// serialized session metrics. Profiling stays off: wall-clock timers are
/// the one sanctioned nondeterminism and must never leak into replays.
fn traced_chaos_run(level: Level) -> (Recorder, String) {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(2).unwrap();
    let traces = VideoTraces::generate(spec, 10, 5, GazeConfig::default());
    let refs: Vec<_> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..8],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(400, 5);
    let user = traces.traces().last().unwrap();
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: Some(40),
    };
    let faults = FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77).and_outage(30.0, 8.0);
    let mut rec = Recorder::new(level);
    let metrics = run_session_traced(
        make_controller(Scheme::Ours, setup.phone).as_mut(),
        &setup,
        &faults,
        &RetryPolicy::default_mobile(),
        &mut rec,
    );
    let json = to_string(&metrics).expect("metrics serialize");
    (rec, json)
}

/// Observability extends the replay policy: with profiling off, the same
/// seed produces a byte-identical serialized event trace *and* a
/// byte-identical aggregate report (registry, span tree, accounting).
#[test]
fn obs_trace_and_report_are_byte_identical_across_replays() {
    let (rec_a, _) = traced_chaos_run(Level::Detail);
    let (rec_b, _) = traced_chaos_run(Level::Detail);
    assert!(rec_a.events_len() > 0, "chaos must record events");
    let trace_a = rec_a.trace_jsonl().expect("trace serializes");
    let trace_b = rec_b.trace_jsonl().expect("trace serializes");
    assert_eq!(trace_a, trace_b, "same seed must yield one trace");
    let report_a = to_string_pretty(&export::report_json(&rec_a)).expect("report serializes");
    let report_b = to_string_pretty(&export::report_json(&rec_b)).expect("report serializes");
    assert_eq!(report_a, report_b);
}

/// The fleet engine extends the replay policy: one seed, one fleet.
/// Both fleet flavours — the scale fleet (`sim::fleet`) and the
/// event-driven paper sessions (`core::fleet`) — must reproduce their
/// JSON report, merged obs report, and JSONL trace byte-for-byte, at
/// any worker count.
#[test]
fn fleet_runs_are_byte_identical_across_replays() {
    // Scale fleet: aggregate report + folded registry.
    let scale_run = |threads: usize| {
        let network = NetworkTrace::paper_trace2(300, 9);
        let faults =
            FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 13).and_outage(40.0, 6.0);
        let config = ee360::sim::fleet::FleetConfig::new(500, 10, 31).with_threads(threads);
        let mut rec = Recorder::new(Level::Summary);
        let (report, _stats) =
            ee360::sim::fleet::run_scale_fleet(&config, &network, &faults, &mut rec);
        (
            to_string(&report).expect("fleet report serializes"),
            to_string_pretty(&export::report_json(&rec)).expect("obs report serializes"),
            rec.trace_jsonl().expect("trace serializes"),
        )
    };
    let scale_baseline = scale_run(1);
    assert_eq!(scale_run(1), scale_baseline, "scale fleet must replay");
    assert_eq!(
        scale_run(4),
        scale_baseline,
        "scale fleet must be thread-count independent"
    );

    // Event-driven paper sessions: outcome + merged obs report + trace.
    let paper_run = || {
        let mut config = ExperimentConfig::quick_test();
        config.max_segments = Some(25);
        let eval = Evaluation::prepare_videos(config, &VideoCatalog::paper_default(), Some(&[2]));
        let faults =
            FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77).and_outage(30.0, 8.0);
        let mut rec = Recorder::new(Level::Detail);
        let outcome = eval.run_fleet_traced(
            2,
            Scheme::Ours,
            &faults,
            &RetryPolicy::default_mobile(),
            &mut rec,
        );
        (
            to_string(&outcome).expect("outcome serializes"),
            to_string_pretty(&export::report_json(&rec)).expect("obs report serializes"),
            rec.trace_jsonl().expect("trace serializes"),
        )
    };
    let paper_baseline = paper_run();
    assert!(
        !paper_baseline.2.is_empty(),
        "Detail trace must have events"
    );
    assert_eq!(paper_run(), paper_baseline, "paper fleet must replay");
}

/// The telemetry pipeline extends the replay policy to its artifact:
/// one seed, one `fleet_timeseries.json` — the serialized windowed
/// series, exemplars, sampled-trace index, and SLO report card are
/// byte-identical across replays and across worker counts {1, 4, 16}.
#[test]
fn fleet_timeseries_artifact_is_byte_identical_across_threads() {
    use ee360::obs::{default_slos, TelemetryConfig};
    use ee360::sim::fleet::{fleet_timeseries_json, run_scale_fleet_telemetry, FleetConfig};
    let run = |threads: usize| {
        let network = NetworkTrace::paper_trace2(300, 9);
        let faults =
            FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 13).and_outage(40.0, 6.0);
        let config = FleetConfig::new(800, 10, 31)
            .with_threads(threads)
            .with_telemetry(TelemetryConfig::standard());
        let mut rec = Recorder::new(Level::Summary);
        let (report, _stats, telemetry) =
            run_scale_fleet_telemetry(&config, &network, &faults, &mut rec);
        let tel = telemetry.expect("telemetry requested");
        to_string_pretty(&fleet_timeseries_json(
            &config,
            &report,
            &tel,
            &default_slos(),
        ))
        .expect("timeseries artifact serializes")
    };
    let baseline = run(1);
    assert!(baseline.contains("ee360.timeseries.v1"));
    assert_eq!(run(1), baseline, "telemetry artifact must replay");
    for threads in [4usize, 16] {
        assert_eq!(
            run(threads),
            baseline,
            "{threads} threads changed the telemetry artifact"
        );
    }
}

/// Recording is observation, not participation: the simulation output is
/// byte-identical whether the session runs silent (`Level::Off` recorder,
/// which keeps nothing) or fully instrumented at `Detail`.
#[test]
fn recording_level_never_changes_the_simulation() {
    let (rec_off, json_off) = traced_chaos_run(Level::Off);
    let (rec_detail, json_detail) = traced_chaos_run(Level::Detail);
    assert_eq!(json_off, json_detail, "recorder must be write-only");
    assert_eq!(rec_off.events_len(), 0, "Off keeps nothing");
    assert!(rec_detail.events_len() > 0);
    // Summary is a strict subset of Detail — filtering drops events, it
    // never alters the run.
    let (rec_summary, json_summary) = traced_chaos_run(Level::Summary);
    assert_eq!(json_summary, json_detail);
    assert!(rec_summary.events_len() < rec_detail.events_len());
}

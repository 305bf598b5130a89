//! Fleet smoke: a 10k-session event-driven fleet, offline + deterministic.
//!
//! ```sh
//! cargo run --release --example fleet_smoke
//! cargo run --release --example fleet_smoke -- --telemetry
//! ```
//!
//! Runs the `sim::fleet` scale engine over a seeded chaos plan and
//! verifies the fleet contract `scripts/ci.sh` gates on:
//!
//! 1. the fleet completes every segment slot (delivered + skipped),
//! 2. two same-seed runs serialize byte-identically (fleet report JSON
//!    *and* the folded obs report),
//! 3. the worker count does not change a single byte of either,
//! 4. the folded registry carries the `fleet.*` keys with reconciling
//!    values (sessions counter = config, segments counter = report).
//!
//! With `--telemetry` the fleet's one telemetry switch is on
//! (`TelemetryConfig::standard()`: 5 s windows, 1% sampled `Detail`
//! traces, 8 exemplars per tail) and the default SLO report card is
//! evaluated. The smoke additionally verifies:
//!
//! 5. `results/fleet_timeseries.json` is byte-identical at 1/4/16
//!    threads,
//! 6. the windowed series reconciles against the whole-run report —
//!    integer-exact counters, bit-exact f64 accumulators,
//! 7. the 1% hash sample keeps traces (the sampled set is a pure
//!    function of the seed), and the SLO report card carries a verdict
//!    per objective,
//! 8. the same fleet with telemetry off serializes the same fleet report
//!    byte for byte, and its registry differs only by the two sampling
//!    counters (`fleet.sampled_sessions`, `fleet.trace_events`), so the
//!    committed `results/fleet_report.json` pins the telemetry-off
//!    report too.
//!
//! Writes `results/fleet_report.json` (+ `results/fleet_timeseries.json`
//! when telemetry is on) and exits non-zero if any check fails.

use ee360::obs::{default_slos, export, Level, Recorder, TelemetryConfig};
use ee360::sim::fleet::{
    fleet_timeseries_json, run_scale_fleet_telemetry, EngineStats, FleetConfig, FleetReport,
    FleetTelemetry,
};
use ee360::trace::fault::{FaultConfig, FaultPlan};
use ee360::trace::network::NetworkTrace;
use ee360_support::json::{to_string, to_string_pretty, Json, ToJson};

const SESSIONS: usize = 10_000;
const SEGMENTS: usize = 8;
const SEED: u64 = 2022;
/// The fleet counters that only a telemetry run writes.
const SAMPLING_COUNTERS: [&str; 2] = ["fleet.sampled_sessions", "fleet.trace_events"];

struct RunOut {
    report: FleetReport,
    stats: EngineStats,
    rec: Recorder,
    report_json: String,
    obs_json: String,
    telemetry: Option<FleetTelemetry>,
    timeseries_json: Option<String>,
}

fn run(threads: usize, telemetry: TelemetryConfig) -> RunOut {
    let network = NetworkTrace::paper_trace2(300, 11);
    let faults = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 42).and_outage(40.0, 6.0);
    let config = FleetConfig::new(SESSIONS, SEGMENTS, SEED)
        .with_threads(threads)
        .with_telemetry(telemetry);
    let mut rec = Recorder::new(Level::Summary);
    let (report, stats, telemetry) =
        run_scale_fleet_telemetry(&config, &network, &faults, &mut rec);
    let report_json = to_string(&report).expect("fleet report serializes");
    let obs_json = to_string(&export::report_json(&rec)).expect("obs report serializes");
    let timeseries_json = telemetry.as_ref().map(|tel| {
        to_string_pretty(&fleet_timeseries_json(
            &config,
            &report,
            tel,
            &default_slos(),
        ))
        .expect("timeseries artifact serializes")
    });
    RunOut {
        report,
        stats,
        rec,
        report_json,
        obs_json,
        telemetry,
        timeseries_json,
    }
}

fn main() {
    let telemetry = if std::env::args().any(|arg| arg == "--telemetry") {
        TelemetryConfig::standard()
    } else {
        TelemetryConfig::off()
    };
    println!("fleet smoke: {SESSIONS} sessions x {SEGMENTS} segments, seeded chaos");
    if telemetry.enabled() {
        println!(
            "  telemetry: window {:.1} s, sample {} ppm, exemplar k={}, {} SLOs",
            TelemetryConfig::WINDOW_SEC,
            TelemetryConfig::SAMPLE_PPM,
            TelemetryConfig::EXEMPLAR_K,
            default_slos().len()
        );
    }

    // 1. Completion.
    let out = run(1, telemetry);
    let report = out.report;
    assert_eq!(
        report.segments,
        SESSIONS * SEGMENTS,
        "every slot must be consumed"
    );
    assert_eq!(
        report.delivered + report.skipped,
        report.segments,
        "slots are delivered or skipped, nothing else"
    );
    assert!(
        !report.counters.is_clean(),
        "chaos plan must leave a resilience trace"
    );
    println!(
        "  completed: {} delivered, {} skipped, mean QoE {:.2}, {} events",
        report.delivered, report.skipped, report.mean_qoe, out.stats.events
    );

    // 2. Same-seed replay, byte for byte.
    let replay = run(1, telemetry);
    assert_eq!(
        out.report_json, replay.report_json,
        "fleet report must replay"
    );
    assert_eq!(out.obs_json, replay.obs_json, "obs report must replay");
    assert_eq!(
        out.timeseries_json, replay.timeseries_json,
        "timeseries artifact must replay"
    );
    println!(
        "  replay: byte-identical (report {} B)",
        out.report_json.len()
    );

    // 3. Thread-count independence.
    for threads in [4usize, 16] {
        let threaded = run(threads, telemetry);
        assert_eq!(
            out.report_json, threaded.report_json,
            "{threads} threads changed the fleet report"
        );
        assert_eq!(
            out.obs_json, threaded.obs_json,
            "{threads} threads changed the obs report"
        );
        assert_eq!(
            out.timeseries_json, threaded.timeseries_json,
            "{threads} threads changed the timeseries artifact"
        );
    }
    println!("  threads: 1/4/16 byte-identical");

    // 4. Registry keys present and reconciling.
    let reg = out.rec.registry();
    assert_eq!(
        reg.counter("fleet.sessions"),
        SESSIONS as u64,
        "fleet.sessions must equal the configured fleet size"
    );
    assert_eq!(
        reg.counter("fleet.segments"),
        report.segments as u64,
        "fleet.segments must reconcile with the report"
    );
    assert_eq!(reg.counter("fleet.delivered"), report.delivered as u64);
    assert_eq!(reg.counter("fleet.skipped"), report.skipped as u64);
    assert_eq!(reg.counter("fleet.events.replan"), report.replans);
    let qoe_hist = reg
        .histogram("fleet.session_qoe")
        .expect("fleet.session_qoe histogram present");
    assert_eq!(qoe_hist.count(), SESSIONS as u64);
    println!("  registry: fleet.* keys present and reconciling");

    // 5–8. Telemetry pipeline checks.
    if let Some(tel) = out.telemetry.as_ref() {
        let series = tel.series.as_ref().expect("telemetry on implies windows");
        let last = series.final_row().expect("series has windows");
        assert_eq!(last.segments as usize, report.segments);
        assert_eq!(last.delivered as usize, report.delivered);
        assert_eq!(last.skipped as usize, report.skipped);
        assert_eq!(
            last.stall_sec.to_bits(),
            report.total_stall_sec.to_bits(),
            "cumulative stall must be bit-exact vs the report"
        );
        assert_eq!(last.energy_mj.to_bits(), report.total_energy_mj.to_bits());
        assert_eq!(last.bits.to_bits(), report.total_bits.to_bits());
        println!(
            "  timeseries: {} windows, final row reconciles bit-exactly",
            series.len()
        );
        assert!(
            !tel.traces.is_empty(),
            "a 1% sample of 10k sessions must keep traces"
        );
        println!(
            "  sampling: {} sessions kept Detail traces ({} events)",
            tel.traces.len(),
            tel.trace_events()
        );
        let ex = tel
            .exemplars
            .as_ref()
            .expect("telemetry on implies exemplars");
        assert!(!ex.worst_stall.is_empty() && !ex.worst_qoe.is_empty());
        println!(
            "  exemplars: worst stall {:.2} s (session {}), worst QoE {:.2} (session {})",
            ex.worst_stall.entries()[0].0,
            ex.worst_stall.entries()[0].1.session,
            ex.worst_qoe.entries()[0].0,
            ex.worst_qoe.entries()[0].1.session
        );

        let plain = run(1, TelemetryConfig::off());
        assert!(
            plain.telemetry.is_none(),
            "telemetry off keeps no telemetry"
        );
        assert_eq!(
            out.report_json, plain.report_json,
            "telemetry changed the fleet report"
        );
        // The plain registry plus the two sampling counters must be the
        // telemetry registry exactly: every other fleet.* entry is equal.
        let mut expected = plain.rec.registry().clone();
        for name in SAMPLING_COUNTERS {
            assert!(reg.counter(name) > 0, "telemetry run must count {name}");
            assert_eq!(expected.counter(name), 0, "plain run must not count {name}");
            expected.inc(name, reg.counter(name));
        }
        assert!(
            expected == *reg,
            "telemetry changed a fleet.* registry entry beyond the sampling counters"
        );
        println!("  telemetry off: fleet report byte-identical, registry equal apart from the sampling counters");
    }

    // Export: fleet report + obs report in one artifact.
    let artifact = Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("ee360-fleet-smoke-v1".to_string()),
        ),
        ("sessions".to_string(), Json::Int(SESSIONS as i64)),
        (
            "segments_per_session".to_string(),
            Json::Int(SEGMENTS as i64),
        ),
        ("seed".to_string(), Json::Int(SEED as i64)),
        ("fleet_report".to_string(), report.to_json()),
        ("obs_report".to_string(), export::report_json(&out.rec)),
    ]);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(
        "results/fleet_report.json",
        to_string_pretty(&artifact).expect("artifact serializes"),
    )
    .expect("write results/fleet_report.json");
    println!("  wrote results/fleet_report.json");
    if let Some(ts) = out.timeseries_json.as_ref() {
        std::fs::write("results/fleet_timeseries.json", ts)
            .expect("write results/fleet_timeseries.json");
        println!("  wrote results/fleet_timeseries.json");
    }
    println!("fleet contract held: deterministic, thread-independent, reconciled");
}

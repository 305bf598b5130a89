//! Seeded chaos scenario: a mid-stream radio blackout plus a fault storm.
//!
//! ```sh
//! cargo run --release --example chaos_run [Nexus5X|Pixel3|GalaxyS20] \
//!     [--storm] [--obs] [--scheme ours|robust-mpc]
//! ```
//!
//! Streams the paper's `Ours` scheme (or, with `--scheme robust-mpc`,
//! the beyond-paper uncertainty-aware controller) over LTE trace 2 with
//! a 10 s zero-bandwidth outage injected at t = 30 s (plus, with
//! `--storm`, a seeded storm of outages, latency spikes, losses and
//! corruptions), and verifies the resilience contract:
//!
//! 1. the session completes without panicking or hanging,
//! 2. the outage leaves a trace in the resilience counters (an abandon,
//!    downgrade or skip),
//! 3. the rebuffer ratio stays bounded despite the blackout,
//! 4. two same-seed runs serialize to byte-identical metrics JSON.
//!
//! Exits non-zero if any of those fail — `scripts/ci.sh` runs this once
//! per phone profile as its fault-injection smoke stage.
//!
//! With `--obs` the same scenario additionally runs with a live
//! [`ee360::obs::Recorder`] at `Detail` level and verifies the
//! observability contract: the recorder is write-only (traced metrics are
//! byte-identical to untraced), the registry reconciles *exactly* with
//! the end-of-run resilience counters and session aggregates, two
//! same-seed traces serialize byte-identically, and the exported
//! `results/obs_report.json` re-parses with every required key present.
//! `scripts/ci.sh` runs this as its observability smoke stage.
//!
//! `--scheme robust-mpc` switches to [`Scheme::RobustMpc`] and streams
//! the wandering-gaze fixture (video 5) instead, so the robust widening
//! actually engages; with `--obs` the exported report then carries the
//! `robust.*` uncertainty counters — `scripts/ci.sh` greps those as its
//! robust-control smoke stage.

use ee360::abr::controller::Scheme;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{make_controller, run_session_traced, SessionSetup};
use ee360::core::server::VideoServer;
use ee360::geom::grid::TileGrid;
use ee360::power::model::Phone;
use ee360::sim::metrics::SessionMetrics;
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::dataset::VideoTraces;
use ee360::trace::fault::{FaultConfig, FaultPlan};
use ee360::trace::head::{GazeConfig, HeadTrace};
use ee360::trace::network::NetworkTrace;
use ee360::video::catalog::VideoCatalog;
use ee360_support::json::to_string;

const SEGMENTS: usize = 60;
const SEED: u64 = 5;
/// Head-trace seed for the robust fixture — the wandering-gaze regime
/// where the residual tracker's width clears [`MIN_GROW_DEG`] (same
/// fixture as `tests/robustness.rs`).
///
/// [`MIN_GROW_DEG`]: ee360::abr::robust::MIN_GROW_DEG
const ROBUST_TRACE_SEED: u64 = 41;

fn parse_phone(arg: &str) -> Option<Phone> {
    match arg {
        "Nexus5X" => Some(Phone::Nexus5X),
        "Pixel3" => Some(Phone::Pixel3),
        "GalaxyS20" => Some(Phone::GalaxyS20),
        _ => None,
    }
}

fn chaos_metrics(scheme: Scheme, phone: Phone, faults: &FaultPlan) -> SessionMetrics {
    chaos_metrics_traced(scheme, phone, faults, &mut ee360::obs::NoopRecorder)
}

fn chaos_metrics_traced(
    scheme: Scheme,
    phone: Phone,
    faults: &FaultPlan,
    rec: &mut dyn ee360::obs::Record,
) -> SessionMetrics {
    let catalog = VideoCatalog::paper_default();
    // The robust scheme streams the wandering-gaze fixture: prediction
    // misses escape the point slack often enough for the widening to
    // engage, while Ptiles keep covering the predicted viewport.
    // (Fixture matches tests/robustness.rs::exploratory_fixture.)
    let (video, users, trace_seed, gaze) = if scheme == Scheme::RobustMpc {
        (
            5,
            12,
            ROBUST_TRACE_SEED,
            GazeConfig {
                roam_probability: 0.15,
                exploratory_offset_deg: 14.0,
                flick_rate_hz: 1.8,
                ..GazeConfig::default()
            },
        )
    } else {
        (2, 10, SEED, GazeConfig::default())
    };
    let spec = catalog.video(video).expect("catalog has the video");
    let traces = VideoTraces::generate(spec, users, trace_seed, gaze);
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let refs = &refs[..users - 2];
    let server = VideoServer::prepare(
        spec,
        refs,
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(400, SEED);
    let user = traces.traces().last().expect("generated users");
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone,
        max_segments: Some(SEGMENTS),
    };
    run_session_traced(
        make_controller(scheme, setup.phone).as_mut(),
        &setup,
        faults,
        &RetryPolicy::default_mobile(),
        rec,
    )
}

/// Runs the observability smoke: live recording, exact reconciliation
/// against the session aggregates, byte-identical same-seed traces, and
/// an exported report that re-parses with all required keys. Appends any
/// violations to `failures`.
fn obs_smoke(
    scheme: Scheme,
    phone: Phone,
    faults: &FaultPlan,
    untraced_json: &str,
    failures: &mut Vec<String>,
) {
    use ee360::obs::{export, profile, Level, Recorder};

    // Wall-clock stage timers are opt-in (`EE360_OBS_PROFILE=1`); they
    // feed `profile.*` histograms in the report but never the event
    // trace, so the byte-identical replay check below survives them.
    let profiling = profile::profiling_from_env();
    // Logical-time windows: 5 s buckets over the session clock. Windowed
    // counters partition the whole-run registry exactly, which the
    // reconciliation below checks per key.
    let window_sec = 5.0;
    let mut rec = Recorder::new(Level::Detail)
        .with_profiling(profiling)
        .with_windows(window_sec);
    let metrics = chaos_metrics_traced(scheme, phone, faults, &mut rec);
    let traced_json = to_string(&metrics).expect("metrics serialize");
    if traced_json != untraced_json {
        failures.push("recorder is not write-only: traced metrics diverged from untraced".into());
    }

    // Exact reconciliation: every obs counter/histogram mirrors a
    // ResilienceCounters bump at the same statement with the same value,
    // and sums accumulate in the same order — so `==`, not "approx".
    let r = *metrics.resilience();
    let reg = rec.registry();
    let counter_pairs: [(&str, u64); 10] = [
        ("resilience.attempts", r.attempts as u64),
        ("resilience.retries", r.retries as u64),
        ("resilience.timeouts", r.timeouts as u64),
        ("resilience.losses", r.losses as u64),
        ("resilience.corruptions", r.corruptions as u64),
        ("resilience.abandons", r.abandons as u64),
        ("resilience.decoder_failures", r.decoder_failures as u64),
        ("resilience.skipped_segments", r.skipped_segments as u64),
        ("resilience.degraded_segments", r.degraded_segments as u64),
        ("resilience.degraded_rungs", r.degraded_rungs as u64),
    ];
    for (name, expected) in counter_pairs {
        let got = reg.counter(name);
        if got != expected {
            failures.push(format!("obs counter {name}={got} != counters {expected}"));
        }
    }
    let hist_pairs: [(&str, f64); 6] = [
        ("resilience.backoff_sec", r.backoff_sec),
        ("resilience.blackout_sec", r.blackout_sec),
        ("resilience.recovery_sec", r.recovery_sec),
        ("resilience.wasted_bits", r.wasted_bits),
        ("session.stall_sec", metrics.total_stall_sec()),
        (
            "energy.transmission_mj",
            metrics.energy_breakdown_mj().transmission_mj,
        ),
    ];
    for (name, expected) in hist_pairs {
        let got = reg.hist_sum(name);
        if got.to_bits() != expected.to_bits() {
            failures.push(format!(
                "obs histogram {name} sum {got} != aggregate {expected} (bit-exact)"
            ));
        }
    }
    let energy_obs = reg.hist_sum("energy.transmission_mj")
        + reg.hist_sum("energy.decode_mj")
        + reg.hist_sum("energy.render_mj");
    if (energy_obs - metrics.total_energy_mj()).abs() > 1e-9 {
        failures.push(format!(
            "obs energy total {energy_obs} != session {}",
            metrics.total_energy_mj()
        ));
    }

    // Windowed telemetry: the per-window registries partition the
    // whole-run registry — counter sums must match integer-exactly and
    // histogram counts must match per key.
    match rec.windows() {
        None => failures.push("windowed recorder lost its timeseries".into()),
        Some(windows) => {
            if windows.is_empty() {
                failures.push("session booked nothing into any logical-time window".into());
            }
            for (name, expected) in counter_pairs {
                let got = windows.counter_total(name);
                if got != expected {
                    failures.push(format!(
                        "windowed counter {name} sums to {got} != whole-run {expected}"
                    ));
                }
            }
            for (name, _) in hist_pairs {
                let got = windows.hist_count_total(name);
                let expected = reg.histogram(name).map_or(0, ee360::obs::Histogram::count);
                if got != expected {
                    failures.push(format!(
                        "windowed histogram {name} count {got} != whole-run {expected}"
                    ));
                }
            }
        }
    }

    // The robust scheme's uncertainty accounting must surface in the
    // registry: the wandering-gaze fixture is tuned so the widening
    // engages, and the exported report is what the CI robust smoke greps.
    if scheme == Scheme::RobustMpc {
        if reg.counter("robust.widened_plans") == 0 {
            failures.push("robust run never widened a plan".into());
        }
        println!("\nrobust counters:");
        println!(
            "  margin applied     {}",
            reg.counter("robust.margin_applied")
        );
        println!(
            "  widened plans      {}",
            reg.counter("robust.widened_plans")
        );
        println!(
            "  coverage saved     {}",
            reg.counter("robust.coverage_miss_saved")
        );
        println!(
            "  width sum          {:.1} deg",
            reg.hist_sum("robust.quantile_width_deg")
        );
    }

    // Same-seed trace replay: byte-identical JSONL (profiling off).
    let mut rec2 = Recorder::new(Level::Detail)
        .with_profiling(profiling)
        .with_windows(window_sec);
    let _ = chaos_metrics_traced(scheme, phone, faults, &mut rec2);
    let trace_a = rec.trace_jsonl().expect("trace serializes");
    let trace_b = rec2.trace_jsonl().expect("trace serializes");
    if trace_a != trace_b {
        failures.push("same-seed obs traces are not byte-identical".into());
    }

    // Export, then re-parse the artifacts the way a dashboard would.
    export::write_report("results/obs_report.json", &rec).expect("write obs report");
    export::write_trace("results/obs_trace.jsonl", &rec).expect("write obs trace");
    let report_text = std::fs::read_to_string("results/obs_report.json").expect("report readable");
    match ee360_support::json::parse(&report_text) {
        Ok(report) => {
            for key in [
                "schema",
                "level",
                "events_recorded",
                "events_dropped",
                "spans",
                "metrics",
                "timeseries",
            ] {
                if report.get(key).is_none() {
                    failures.push(format!("obs report is missing required key {key:?}"));
                }
            }
            if report
                .get("schema")
                .and_then(ee360_support::json::Json::as_str)
                != Some(export::REPORT_SCHEMA)
            {
                failures.push("obs report schema tag mismatch".into());
            }
        }
        Err(e) => failures.push(format!("obs report does not re-parse: {e}")),
    }

    println!("\nobservability:");
    println!(
        "  profiling          {}",
        if profiling { "on" } else { "off" }
    );
    println!("  events recorded    {}", rec.events_len());
    println!("  events dropped     {}", rec.dropped());
    println!(
        "  trace bytes        {} (byte-identical replay)",
        trace_a.len()
    );
    println!("  report             results/obs_report.json");
    println!("  trace              results/obs_trace.jsonl");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let phone = args
        .iter()
        .find_map(|a| parse_phone(a))
        .unwrap_or(Phone::Pixel3);
    let storm = args.iter().any(|a| a == "--storm");
    let obs = args.iter().any(|a| a == "--obs");
    let scheme = match args
        .iter()
        .position(|a| a == "--scheme")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None => Scheme::Ours,
        Some(token) => match Scheme::from_cli_token(token) {
            Some(s @ (Scheme::Ours | Scheme::RobustMpc)) => s,
            _ => {
                eprintln!("unknown --scheme {token:?}; expected ours or robust-mpc");
                std::process::exit(2);
            }
        },
    };

    // The headline scenario: a 10 s dead radio starting at t = 30.
    let mut faults = FaultPlan::single_outage(30.0, 10.0);
    if storm {
        // Layer a seeded storm on top: scheduled outages/spikes plus
        // per-attempt loss, corruption and decoder failures.
        faults =
            FaultPlan::generate(FaultConfig::chaos_default(), 400.0, SEED).and_outage(30.0, 10.0);
    }

    println!(
        "chaos run: scheme={} phone={phone:?} storm={storm} obs={obs} \
         segments={SEGMENTS} seed={SEED}",
        scheme.label()
    );
    println!(
        "fault plan: {} scheduled event(s), {:.1} s total outage",
        faults.events().len(),
        faults.total_outage_sec()
    );

    let metrics = chaos_metrics(scheme, phone, &faults);
    let replay = chaos_metrics(scheme, phone, &faults);

    let mut failures = Vec::new();

    if metrics.len() != SEGMENTS {
        failures.push(format!(
            "expected {SEGMENTS} segment slots, got {}",
            metrics.len()
        ));
    }

    let r = *metrics.resilience();
    if r.abandons + r.degraded_segments + r.skipped_segments == 0 {
        failures.push("the outage left no abandon/downgrade/skip in the counters".into());
    }

    let ratio = metrics.rebuffer_ratio();
    if !(ratio.is_finite() && ratio < 0.5) {
        failures.push(format!("rebuffer ratio {ratio:.3} not bounded below 0.5"));
    }

    let json_a = to_string(&metrics).expect("metrics serialize");
    let json_b = to_string(&replay).expect("metrics serialize");
    if json_a != json_b {
        failures.push("same-seed replays diverged: metrics JSON not byte-identical".into());
    }

    if obs {
        obs_smoke(scheme, phone, &faults, &json_a, &mut failures);
    }

    println!("\nresilience counters:");
    println!("  attempts           {}", r.attempts);
    println!("  retries            {}", r.retries);
    println!("  timeouts           {}", r.timeouts);
    println!("  abandons           {}", r.abandons);
    println!("  losses             {}", r.losses);
    println!("  corruptions        {}", r.corruptions);
    println!("  decoder failures   {}", r.decoder_failures);
    println!(
        "  degraded segments  {} ({} rung(s))",
        r.degraded_segments, r.degraded_rungs
    );
    println!("  skipped segments   {}", r.skipped_segments);
    println!("  backoff            {:.2} s", r.backoff_sec);
    println!("  blackout           {:.2} s", r.blackout_sec);
    println!("  recovery           {:.2} s", r.recovery_sec);
    println!("  wasted bits        {:.2} Mb", r.wasted_bits / 1e6);
    println!("\nsession:");
    println!("  mean QoE           {:.2}", metrics.mean_qoe());
    println!("  mean quality       {:.2}", metrics.mean_quality());
    println!("  rebuffer ratio     {:.3}", ratio);
    println!("  total energy       {:.0} mJ", metrics.total_energy_mj());
    println!(
        "  replay JSON        {} bytes, byte-identical",
        json_a.len()
    );

    if failures.is_empty() {
        println!("\nchaos contract held: degraded gracefully, replayed identically.");
    } else {
        eprintln!("\nchaos contract VIOLATED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

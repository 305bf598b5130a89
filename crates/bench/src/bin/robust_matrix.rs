//! Robust-vs-point evaluation matrix (`results/robust_matrix.json`).
//!
//! Runs the point MPC (`Ours`) and the chance-constrained
//! `RobustMpc` head-to-head over three gaze regimes × two networks and
//! records per-cell QoE, stalls, and the robust controller's uncertainty
//! accounting. The table this prints is the source for the
//! robust-vs-point section of `EXPERIMENTS.md`:
//!
//! * **wandering** — the regime the widening targets: raised roam, wider
//!   offsets, frequent flicks, but gaze still close enough to popularity
//!   for Ptiles to cover the predicted viewport (the
//!   `tests/robustness.rs` fixture).
//! * **focused** — the paper's default gaze, where predictions are good;
//!   the acceptance rule must keep the robust controller from paying for
//!   coverage nobody needs, so the deltas here should be ~0.
//! * **wild** — gaze so erratic the Ptile no longer covers the predicted
//!   viewport; `ptile_available` goes false for every scheme, the
//!   widening lever is structurally dead, and both controllers fall back
//!   to identical plans (a designed tie, recorded to prove the robust
//!   path cannot lose there).
//!
//! Everything is seeded; two runs of this binary produce byte-identical
//! JSON.

use ee360_abr::controller::{Controller, RobustStats, Scheme};
use ee360_abr::robust::RobustMpcController;
use ee360_cluster::ptile::PtileConfig;
use ee360_core::client::{run_session_resilient, run_session_resilient_with, SessionSetup};
use ee360_core::server::VideoServer;
use ee360_geom::grid::TileGrid;
use ee360_power::model::Phone;
use ee360_sim::metrics::SessionMetrics;
use ee360_sim::resilience::RetryPolicy;
use ee360_support::json::{to_string_pretty, Json};
use ee360_trace::dataset::VideoTraces;
use ee360_trace::fault::FaultPlan;
use ee360_trace::head::{GazeConfig, HeadTrace};
use ee360_trace::network::NetworkTrace;
use ee360_video::catalog::VideoCatalog;

struct Fixture {
    name: &'static str,
    server: VideoServer,
    traces: VideoTraces,
    trace_seed: u64,
}

fn build_fixture(name: &'static str, video: usize, seed: u64, gaze: GazeConfig) -> Fixture {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(video).expect("catalog video");
    let traces = VideoTraces::generate(spec, 12, seed, gaze);
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..10],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    Fixture {
        name,
        server,
        traces,
        trace_seed: seed,
    }
}

fn fixtures() -> Vec<Fixture> {
    vec![
        build_fixture(
            "wandering",
            5,
            41,
            GazeConfig {
                roam_probability: 0.15,
                exploratory_offset_deg: 14.0,
                flick_rate_hz: 1.8,
                ..GazeConfig::default()
            },
        ),
        build_fixture("focused", 2, 17, GazeConfig::default()),
        build_fixture(
            "wild",
            5,
            41,
            GazeConfig {
                roam_probability: 0.35,
                exploratory_offset_deg: 26.0,
                flick_rate_hz: 3.0,
                ..GazeConfig::default()
            },
        ),
    ]
}

fn setup<'a>(fixture: &'a Fixture, network: &'a NetworkTrace) -> SessionSetup<'a> {
    SessionSetup {
        server: &fixture.server,
        user: fixture.traces.traces().last().expect("generated users"),
        network,
        phone: Phone::Pixel3,
        max_segments: Some(80),
    }
}

/// Runs the robust controller through the benign path (the exact
/// `run_session_resilient(Scheme::RobustMpc, ..)` semantics under
/// `FaultPlan::none()` and `RetryPolicy::disabled()`) but keeps the
/// controller, so the cell can report its uncertainty accounting.
fn run_robust(s: &SessionSetup) -> (SessionMetrics, RobustStats) {
    let mut controller = RobustMpcController::paper_default();
    let metrics = run_session_resilient_with(
        &mut controller,
        s,
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    );
    let stats = controller
        .robust_stats()
        .expect("robust controller reports stats");
    (metrics, stats)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    let mut cells = Vec::new();
    println!(
        "{:<11} {:<7} {:>9} {:>9} {:>7} {:>8} {:>8} {:>7} {:>6}",
        "gaze", "network", "point", "robust", "dqoe", "p-stall", "r-stall", "widened", "saved"
    );
    for fixture in fixtures() {
        let clean = NetworkTrace::paper_trace2(400, fixture.trace_seed);
        let b2b = clean
            .clone()
            .with_outage(20, 6, 0.3e6)
            .with_outage(35, 6, 0.3e6);
        for (network, net_label) in [(&clean, "clean"), (&b2b, "b2b")] {
            let s = setup(&fixture, network);
            let point = run_session_resilient(
                Scheme::Ours,
                &s,
                &FaultPlan::none(),
                &RetryPolicy::disabled(),
            );
            let (robust, stats) = run_robust(&s);
            assert_eq!(point.len(), robust.len(), "both must finish the session");
            let dqoe = robust.mean_qoe() - point.mean_qoe();
            let dstall = robust.total_stall_sec() - point.total_stall_sec();
            println!(
                "{:<11} {:<7} {:>9.3} {:>9.3} {:>+7.3} {:>8.2} {:>8.2} {:>7} {:>6}",
                fixture.name,
                net_label,
                point.mean_qoe(),
                robust.mean_qoe(),
                dqoe,
                point.total_stall_sec(),
                robust.total_stall_sec(),
                stats.widened_plans,
                stats.coverage_miss_saved
            );
            assert!(
                dqoe >= -1e-9,
                "{} / {net_label}: robust must never trail the point MPC, dqoe {dqoe}",
                fixture.name
            );
            assert!(
                dstall <= 1.0,
                "{} / {net_label}: robust must not add stalls, dstall {dstall}",
                fixture.name
            );
            cells.push(obj(vec![
                ("gaze", Json::Str(fixture.name.to_string())),
                ("network", Json::Str(net_label.to_string())),
                ("point_qoe", Json::Num(point.mean_qoe())),
                ("robust_qoe", Json::Num(robust.mean_qoe())),
                ("dqoe", Json::Num(dqoe)),
                ("point_stall_sec", Json::Num(point.total_stall_sec())),
                ("robust_stall_sec", Json::Num(robust.total_stall_sec())),
                ("dstall_sec", Json::Num(dstall)),
                ("widened_plans", Json::Int(stats.widened_plans as i64)),
                (
                    "coverage_miss_saved",
                    Json::Int(stats.coverage_miss_saved as i64),
                ),
                ("margin_applied", Json::Int(stats.margin_applied as i64)),
                ("width_sum_deg", Json::Num(stats.width_sum_deg)),
            ]));
        }
    }
    let report = obj(vec![
        ("schema", Json::Str("ee360-robust-matrix-v1".to_string())),
        ("segments_per_session", Json::Int(80)),
        ("phone", Json::Str("Pixel3".to_string())),
        ("cells", Json::Arr(cells)),
    ]);
    std::fs::create_dir_all("results").expect("create results dir");
    let text = to_string_pretty(&report).expect("report serialises");
    std::fs::write("results/robust_matrix.json", &text).expect("write robust_matrix.json");
    println!("wrote results/robust_matrix.json");
}

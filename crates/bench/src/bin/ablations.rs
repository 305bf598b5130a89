//! Design-choice ablations (the DESIGN.md §4 list).
//!
//! 1. Algorithm 1's σ split vs. unbounded density growth (Fig. 6's
//!    failure mode),
//! 2. harmonic-mean vs. arithmetic-mean vs. last-sample bandwidth
//!    estimation under the bursty LTE trace,
//! 3. ridge vs. OLS vs. last-sample viewport prediction,
//! 4. the ε tolerance and the frame-rate ladder in the MPC controller.

use ee360_abr::mpc::{MpcConfig, MpcController};
use ee360_bench::{figure_header, RunScale};
use ee360_cluster::algorithm1::{
    cluster_viewing_centers, cluster_without_sigma, diameter_deg, ClusteringParams,
};
use ee360_core::client::{run_session_resilient_with, SessionSetup};
use ee360_core::experiment::Evaluation;
use ee360_core::report::{fmt3, fmt_pct, TableWriter};
use ee360_geom::viewport::ViewCenter;
use ee360_predict::bandwidth::{
    ArithmeticMeanEstimator, BandwidthEstimator, HarmonicMeanEstimator, LastSampleEstimator,
};
use ee360_predict::viewport::{PredictorKind, ViewportPredictor};
use ee360_sim::resilience::RetryPolicy;
use ee360_trace::fault::FaultPlan;
use ee360_trace::head::{GazeConfig, HeadTraceGenerator};
use ee360_trace::network::NetworkTrace;
use ee360_video::catalog::VideoCatalog;
use ee360_video::ladder::EncodingLadder;

fn ablation_sigma_split() {
    println!("\n[1] Algorithm 1: σ split vs unbounded density growth");
    // The Fig. 6(a) scenario: a chain of viewing centers drifting across
    // the frame (the Freestyle Skiing pack following the skier).
    let centers: Vec<ViewCenter> = (0..30)
        .map(|i| ViewCenter::new(-60.0 + i as f64 * 3.5, (i % 5) as f64 * 2.0))
        .collect();
    let with = cluster_viewing_centers(&centers, &ClusteringParams::paper_default());
    let without = cluster_without_sigma(&centers, ClusteringParams::paper_default().delta_deg);
    let max_diam = |clusters: &[Vec<usize>]| {
        clusters
            .iter()
            .map(|c| diameter_deg(&centers, c))
            .fold(0.0f64, f64::max)
    };
    let mut table = TableWriter::new(vec!["variant", "clusters", "max diameter [°]"]);
    table.row(vec![
        "with σ split (paper)".into(),
        format!("{}", with.len()),
        fmt3(max_diam(&with)),
    ]);
    table.row(vec![
        "without σ split".into(),
        format!("{}", without.len()),
        fmt3(max_diam(&without)),
    ]);
    println!("{}", table.render());
    println!("without the split, the Ptile grows past σ = 45° and loses its encoding advantage");
}

fn ablation_bandwidth_estimators() {
    println!("\n[2] Bandwidth estimation vs the next 5 s (the MPC horizon) of the LTE trace");
    let trace = NetworkTrace::paper_trace2(600, 99);
    let mut table = TableWriter::new(vec![
        "estimator",
        "mean abs error [Mbps]",
        "mean overshoot [Mbps]",
    ]);
    let mut run = |label: &str, est: &mut dyn BandwidthEstimator| {
        let mut abs_err = 0.0;
        let mut overshoot = 0.0;
        let mut n = 0;
        for t in 0..594 {
            let now = trace.bandwidth_at(t as f64);
            est.observe(now);
            // What the MPC actually needs: the mean bandwidth over its
            // whole look-ahead window.
            let horizon_mean = (1..=5)
                .map(|d| trace.bandwidth_at((t + d) as f64))
                .sum::<f64>()
                / 5.0;
            if let Some(e) = est.estimate() {
                abs_err += (e - horizon_mean).abs() / 1e6;
                overshoot += ((e - horizon_mean) / 1e6).max(0.0);
                n += 1;
            }
        }
        table.row(vec![
            label.into(),
            fmt3(abs_err / n as f64),
            fmt3(overshoot / n as f64),
        ]);
    };
    run(
        "harmonic mean (paper)",
        &mut HarmonicMeanEstimator::paper_default(),
    );
    run("arithmetic mean", &mut ArithmeticMeanEstimator::new(5));
    run("last sample", &mut LastSampleEstimator::new());
    println!("{}", table.render());
    println!("overshoot is what causes rebuffering; the harmonic mean is the most conservative of the windowed estimators");
}

fn ablation_viewport_prediction() {
    println!("\n[3] Viewport prediction error at a 1 s horizon (degrees, mean over users)");
    let catalog = VideoCatalog::paper_default();
    let generator = HeadTraceGenerator::new(GazeConfig::default());
    let predictors = [
        ("ridge (paper)", ViewportPredictor::paper_default()),
        (
            "OLS",
            ViewportPredictor::new(PredictorKind::OrdinaryLeastSquares, 0.0, 2.0),
        ),
        (
            "last sample",
            ViewportPredictor::new(PredictorKind::LastSample, 0.0, 2.0),
        ),
    ];
    let mut table = TableWriter::new(vec!["video", "ridge (paper)", "OLS", "last sample"]);
    for spec in catalog.videos() {
        let mut errors = [0.0f64; 3];
        let mut count = 0usize;
        for u in 0..4 {
            let trace = generator.generate(spec, u, 1234);
            let mut history = Vec::new();
            for k in (2..spec.segment_count().min(120)).step_by(3) {
                let t_end = k as f64;
                trace.switching_window_into(t_end - 2.0, t_end, &mut history);
                let truth = match trace.segment_center(k + 1) {
                    Some(c) => c,
                    None => continue,
                };
                for (i, (_, p)) in predictors.iter().enumerate() {
                    if let Some(e) = p.error_deg(&history, 1.0, truth) {
                        errors[i] += e;
                    }
                }
                count += 1;
            }
        }
        table.row(vec![
            format!("{}", spec.id),
            fmt3(errors[0] / count as f64),
            fmt3(errors[1] / count as f64),
            fmt3(errors[2] / count as f64),
        ]);
    }
    println!("{}", table.render());
}

fn ablation_mpc_knobs(scale: RunScale) {
    // Video 5 has the lowest TI, so Eq. 4's frame-rate headroom is widest
    // there — the ladder ablation is visible.
    println!("\n[4] MPC ε and frame-rate ladder (video 5, trace 2)");
    let mut config = scale.config_trace2();
    config.max_segments = config.max_segments.or(Some(200));
    let eval = Evaluation::prepare_videos(config, &VideoCatalog::paper_default(), Some(&[5]));
    let server = eval.server(5).expect("prepared");
    let users = eval.eval_users(5);

    let mut table = TableWriter::new(vec!["variant", "energy [mJ/seg]", "QoE", "mean fps"]);
    let variants: Vec<(String, MpcController)> = vec![
        ("ε = 0 (no loss allowed)".into(), {
            let mut c = MpcConfig::paper_default();
            c.epsilon = 0.0;
            MpcController::new(c)
        }),
        ("ε = 5% (paper)".into(), MpcController::paper_default()),
        ("ε = 15%".into(), {
            let mut c = MpcConfig::paper_default();
            c.epsilon = 0.15;
            MpcController::new(c)
        }),
        (
            "single-rate ladder (no frame adaptation)".into(),
            MpcController::paper_default().with_ladder(EncodingLadder::single_rate(30.0)),
        ),
        (
            "aggressive ladder (−50% rate available)".into(),
            MpcController::paper_default()
                .with_ladder(EncodingLadder::new(30.0, vec![0.1, 0.3, 0.5])),
        ),
    ];
    for (label, mut controller) in variants {
        let mut energy = 0.0;
        let mut qoe = 0.0;
        let mut fps = 0.0;
        for user in users {
            let metrics = run_session_resilient_with(
                &mut controller,
                &SessionSetup {
                    server,
                    user,
                    network: eval.network(),
                    phone: eval.config().phone,
                    max_segments: eval.config().max_segments,
                },
                &FaultPlan::none(),
                &RetryPolicy::disabled(),
            );
            energy += metrics.total_energy_mj() / metrics.len() as f64;
            qoe += metrics.mean_qoe();
            fps += metrics.mean_fps();
        }
        let n = users.len() as f64;
        table.row(vec![label, fmt3(energy / n), fmt3(qoe / n), fmt3(fps / n)]);
    }
    println!("{}", table.render());
    println!("larger ε trades QoE for energy; the ladder engages where α = S_fov/TI is large");
}

fn ablation_horizon_and_buffer(scale: RunScale) {
    println!("\n[5] MPC horizon H and buffer threshold β (video 3, trace 2 + 10 s outage)");
    let mut config = scale.config_trace2();
    config.max_segments = config.max_segments.or(Some(200));
    let eval = Evaluation::prepare_videos(config, &VideoCatalog::paper_default(), Some(&[3]));
    let server = eval.server(3).expect("prepared");
    let users = eval.eval_users(3);
    // A throughput collapse makes the buffer constraint bind, which is the
    // only regime where the horizon and β matter (with a horizon-constant
    // bandwidth estimate, the DP is otherwise effectively myopic).
    let outage_net = eval.network().with_outage(40, 10, 0.4e6);

    let mut table = TableWriter::new(vec![
        "variant",
        "energy [mJ/seg]",
        "QoE",
        "stall [s/session]",
    ]);
    let mut run_variant = |label: String, mut controller: MpcController| {
        let mut energy = 0.0;
        let mut qoe = 0.0;
        let mut stall = 0.0;
        for user in users {
            let metrics = run_session_resilient_with(
                &mut controller,
                &SessionSetup {
                    server,
                    user,
                    network: &outage_net,
                    phone: eval.config().phone,
                    max_segments: eval.config().max_segments,
                },
                &FaultPlan::none(),
                &RetryPolicy::disabled(),
            );
            energy += metrics.total_energy_mj() / metrics.len() as f64;
            qoe += metrics.mean_qoe();
            stall += metrics.total_stall_sec();
        }
        let n = users.len() as f64;
        table.row(vec![
            label,
            fmt3(energy / n),
            fmt3(qoe / n),
            fmt3(stall / n),
        ]);
    };
    for h in [1usize, 3, 5, 10] {
        let mut cfg = MpcConfig::paper_default();
        cfg.horizon = h;
        run_variant(
            format!("H = {h}{}", if h == 5 { " (paper)" } else { "" }),
            MpcController::new(cfg),
        );
    }
    for beta in [2.0f64, 3.0, 4.0, 6.0] {
        let mut cfg = MpcConfig::paper_default();
        cfg.buffer_threshold_sec = beta;
        // lint:allow(float-compare, "intentional exact check: tags the literal 3.0 from the sweep list")
        let label = format!("β = {beta} s{}", if beta == 3.0 { " (paper)" } else { "" });
        run_variant(label, MpcController::new(cfg));
    }
    println!("{}", table.render());
    println!("finding: the rows are identical — with a horizon-constant bandwidth");
    println!("estimate and slowly varying content metadata, Eq. 8's per-segment costs");
    println!("separate and the DP's first decision coincides with the greedy one, even");
    println!("through an unforeseen outage (the estimator, not the horizon, is the");
    println!("bottleneck). H and β would matter with a time-varying bandwidth forecast;");
    println!("the paper's H = 5 is robustness insurance, not a tuning knob.");
}

fn ablation_forecast(scale: RunScale) {
    println!("\n[6] Constant (harmonic) vs AR(1)-forecast MPC (video 3, trace 2 + outage)");
    let mut config = scale.config_trace2();
    config.max_segments = config.max_segments.or(Some(200));
    let eval = Evaluation::prepare_videos(config, &VideoCatalog::paper_default(), Some(&[3]));
    let server = eval.server(3).expect("prepared");
    let users = eval.eval_users(3);
    let outage_net = eval.network().with_outage(40, 10, 0.4e6);

    let mut table = TableWriter::new(vec!["planner", "energy [mJ/seg]", "QoE", "stall [s]"]);
    for use_forecast in [false, true] {
        let mut cfg = MpcConfig::paper_default();
        cfg.use_forecast = use_forecast;
        let mut energy = 0.0;
        let mut qoe = 0.0;
        let mut stall = 0.0;
        for user in users {
            let mut controller = MpcController::new(cfg);
            let metrics = run_session_resilient_with(
                &mut controller,
                &SessionSetup {
                    server,
                    user,
                    network: &outage_net,
                    phone: eval.config().phone,
                    max_segments: eval.config().max_segments,
                },
                &FaultPlan::none(),
                &RetryPolicy::disabled(),
            );
            energy += metrics.total_energy_mj() / metrics.len() as f64;
            qoe += metrics.mean_qoe();
            stall += metrics.total_stall_sec();
        }
        let n = users.len() as f64;
        table.row(vec![
            if use_forecast {
                "AR(1) per-step forecast (extension)".into()
            } else {
                "constant harmonic estimate (paper)".into()
            },
            fmt3(energy / n),
            fmt3(qoe / n),
            fmt3(stall / n),
        ]);
    }
    println!("{}", table.render());
    println!("the AR(1) forecast gives the horizon something to plan over: it trims");
    println!("both the recovery stall and the energy spent during the collapse");
}

fn main() {
    let scale = RunScale::from_args();
    figure_header("Ablations", "design choices called out in DESIGN.md §4");
    ablation_sigma_split();
    ablation_bandwidth_estimators();
    ablation_viewport_prediction();
    ablation_mpc_knobs(scale);
    ablation_horizon_and_buffer(scale);
    ablation_forecast(scale);
    let _ = fmt_pct(0.0); // keep the helper linked for table consistency
}

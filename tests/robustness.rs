//! Failure injection: throughput collapses mid-session.
//!
//! The controllers must degrade gracefully — lower quality, bounded
//! stalls, recovery after the outage — rather than wedging or panicking.
//! The second half targets the robust controller: exploratory gaze and
//! back-to-back outages are exactly where planning against uncertainty
//! quantiles must beat the point MPC, and at zero uncertainty the robust
//! plans must be bit-identical to the point plans.

use ee360::abr::controller::{Controller, Scheme};
use ee360::abr::mpc::MpcController;
use ee360::abr::plan::SegmentContext;
use ee360::abr::robust::RobustMpcController;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{run_session_resilient, SessionSetup};
use ee360::core::server::VideoServer;
use ee360::geom::grid::TileGrid;
use ee360::power::model::Phone;
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::dataset::VideoTraces;
use ee360::trace::fault::FaultPlan;
use ee360::trace::head::{GazeConfig, HeadTrace};
use ee360::trace::network::NetworkTrace;
use ee360::video::catalog::VideoCatalog;
use ee360::video::content::SiTi;
use ee360_support::prelude::*;

fn fixture() -> (VideoServer, VideoTraces) {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(2).unwrap();
    let traces = VideoTraces::generate(spec, 12, 17, GazeConfig::default());
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..10],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    (server, traces)
}

fn run(
    server: &VideoServer,
    traces: &VideoTraces,
    network: &NetworkTrace,
    scheme: Scheme,
) -> ee360::sim::metrics::SessionMetrics {
    run_session_resilient(
        scheme,
        &SessionSetup {
            server,
            user: traces.traces().last().unwrap(),
            network,
            phone: Phone::Pixel3,
            max_segments: Some(80),
        },
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    )
}

#[test]
fn all_schemes_survive_a_deep_outage() {
    let (server, traces) = fixture();
    let base = NetworkTrace::paper_trace2(400, 17);
    let outage = base.with_outage(30, 10, 0.15e6); // 10 s at 150 kbps
    for scheme in Scheme::ALL {
        let m = run(&server, &traces, &outage, scheme);
        assert_eq!(m.len(), 80, "{scheme:?} completed the session");
        assert!(m.total_energy_mj().is_finite());
        // Some stall is unavoidable at 150 kbps, but it must be bounded by
        // roughly the outage duration plus the drained downloads.
        assert!(
            m.total_stall_sec() < 60.0,
            "{scheme:?} stalled {}s",
            m.total_stall_sec()
        );
    }
}

#[test]
fn controllers_downshift_during_outage() {
    let (server, traces) = fixture();
    let base = NetworkTrace::paper_trace2(400, 17);
    let outage = base.with_outage(30, 10, 0.3e6);
    let hit = run(&server, &traces, &outage, Scheme::Ours);
    let clean = run(&server, &traces, &base, Scheme::Ours);
    // The bandwidth estimator needs a few segments to register the
    // collapse, so compare the window's mean quality against the clean run
    // rather than demanding an instant drop to the bottom rung.
    let window_mean = |m: &ee360::sim::metrics::SessionMetrics| {
        let during: Vec<f64> = m
            .records()
            .iter()
            .filter(|r| r.timing.request_time_sec >= 32.0 && r.timing.request_time_sec <= 44.0)
            .map(|r| r.quality_level as f64)
            .collect();
        assert!(!during.is_empty(), "some requests land inside the window");
        during.iter().sum::<f64>() / during.len() as f64
    };
    let q_hit = window_mean(&hit);
    let q_clean = window_mean(&clean);
    assert!(
        q_hit <= q_clean - 0.5,
        "outage quality {q_hit} not clearly below clean {q_clean}"
    );
}

#[test]
fn quality_recovers_after_outage() {
    let (server, traces) = fixture();
    let base = NetworkTrace::paper_trace2(400, 17);
    let outage = base.with_outage(20, 8, 0.3e6);
    let m = run(&server, &traces, &outage, Scheme::Ours);
    let late: Vec<&ee360::sim::metrics::SegmentRecord> = m
        .records()
        .iter()
        .filter(|r| r.timing.request_time_sec > 45.0)
        .collect();
    assert!(!late.is_empty());
    let mean_q: f64 = late.iter().map(|r| r.quality_level as f64).sum::<f64>() / late.len() as f64;
    assert!(
        mean_q >= 3.0,
        "post-outage quality {mean_q} never recovered"
    );
}

#[test]
fn outage_costs_qoe_but_not_unboundedly() {
    let (server, traces) = fixture();
    let base = NetworkTrace::paper_trace2(400, 17);
    let clean = run(&server, &traces, &base, Scheme::Ours);
    let outage = base.with_outage(30, 6, 0.3e6);
    let hit = run(&server, &traces, &outage, Scheme::Ours);
    assert!(hit.mean_qoe() <= clean.mean_qoe() + 1e-9);
    // A 6 s dip in an 80 s session must not wipe out the whole session.
    assert!(
        hit.mean_qoe() > 0.5 * clean.mean_qoe(),
        "outage QoE {} vs clean {}",
        hit.mean_qoe(),
        clean.mean_qoe()
    );
}

/// An exploratory video watched with wandering gaze: raised roam
/// probability, wider per-user offsets, frequent flicks. The regime the
/// robust widening targets: the ridge predictor misses beyond the point
/// plan's slack often enough for coverage quantiles to matter, while the
/// gaze stays close enough to popularity for Ptiles to keep covering the
/// predicted viewport. (Wilder gaze than this loses Ptile coverage
/// entirely, and both controllers fall back to the same plans.)
fn exploratory_fixture() -> (VideoServer, VideoTraces) {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(5).unwrap();
    let gaze = GazeConfig {
        roam_probability: 0.15,
        exploratory_offset_deg: 14.0,
        flick_rate_hz: 1.8,
        ..GazeConfig::default()
    };
    let traces = VideoTraces::generate(spec, 12, 41, gaze);
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..10],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    (server, traces)
}

#[test]
fn robust_mpc_beats_point_mpc_on_exploratory_gaze() {
    let (server, traces) = exploratory_fixture();
    let network = NetworkTrace::paper_trace2(400, 41);
    let point = run(&server, &traces, &network, Scheme::Ours);
    let robust = run(&server, &traces, &network, Scheme::RobustMpc);
    assert_eq!(robust.len(), point.len(), "both complete the session");
    // Viewport-weighted QoE: qo_eff already folds viewport coverage into
    // every record, so mean QoE is the viewport-hit quality. The widened
    // coverage must deliver a strict improvement here, not a tie.
    assert!(
        robust.mean_qoe() > point.mean_qoe(),
        "robust QoE {} must beat point QoE {} under exploratory gaze",
        robust.mean_qoe(),
        point.mean_qoe()
    );
    assert!(
        robust.total_stall_sec() <= point.total_stall_sec() + 1.0,
        "robust stalls {} vs point {}",
        robust.total_stall_sec(),
        point.total_stall_sec()
    );
}

#[test]
fn robust_mpc_survives_back_to_back_outages() {
    let (server, traces) = exploratory_fixture();
    let network = NetworkTrace::paper_trace2(400, 41)
        .with_outage(20, 6, 0.3e6)
        .with_outage(35, 6, 0.3e6);
    let point = run(&server, &traces, &network, Scheme::Ours);
    let robust = run(&server, &traces, &network, Scheme::RobustMpc);
    assert_eq!(robust.len(), 80, "robust completed every segment");
    assert!(robust.total_energy_mj().is_finite());
    assert!(
        robust.total_stall_sec() < 60.0,
        "stalls must stay bounded, got {}",
        robust.total_stall_sec()
    );
    assert!(
        robust.mean_qoe() > point.mean_qoe(),
        "robust QoE {} must beat point QoE {} across repeated outages",
        robust.mean_qoe(),
        point.mean_qoe()
    );
    assert!(
        robust.total_stall_sec() <= point.total_stall_sec() + 1.0,
        "robust stalls {} vs point {}",
        robust.total_stall_sec(),
        point.total_stall_sec()
    );
}

proptest! {
    /// The reduction argument, pinned across the context space: a cold
    /// robust controller (zero residual width, unit margin) must produce
    /// plans bit-identical to the point MPC — same quality, same fps
    /// bits, same payload bits, same effective bitrate, to the last ULP.
    #[test]
    fn zero_uncertainty_robust_plans_are_bit_identical(
        bw_mbps in 0.5f64..40.0,
        buffer in 0.0f64..6.0,
        switching in 0.0f64..40.0,
        area in 0.1f64..0.9,
        si in 20.0f64..90.0,
        ptile in 0usize..2,
    ) {
        let ctx = SegmentContext {
            index: 0,
            upcoming: vec![SiTi::new(si, 25.0); 5],
            predicted_bandwidth_bps: bw_mbps * 1.0e6,
            buffer_sec: buffer,
            switching_speed_deg_s: switching,
            ptile_available: ptile == 1,
            ptile_area_frac: if ptile == 1 { area } else { 0.0 },
            background_blocks: 3,
            ftile_fov_area: 0.0,
            ftile_fov_tiles: 0,
        };
        let mut point = MpcController::paper_default();
        let mut robust = RobustMpcController::paper_default();
        let p = point.plan(&ctx);
        let r = robust.plan(&ctx);
        prop_assert_eq!(p.quality, r.quality);
        prop_assert_eq!(p.fps.to_bits(), r.fps.to_bits());
        prop_assert_eq!(p.bits.to_bits(), r.bits.to_bits());
        prop_assert_eq!(
            p.effective_bitrate_mbps.to_bits(),
            r.effective_bitrate_mbps.to_bits()
        );
        prop_assert_eq!(p.decode_scheme, r.decode_scheme);
    }
}

#[test]
fn ours_stalls_no_more_than_ptile_under_outage() {
    let (server, traces) = fixture();
    let outage = NetworkTrace::paper_trace2(400, 17).with_outage(30, 10, 0.2e6);
    let ours = run(&server, &traces, &outage, Scheme::Ours);
    let ptile = run(&server, &traces, &outage, Scheme::Ptile);
    assert!(
        ours.total_stall_sec() <= ptile.total_stall_sec() + 1.0,
        "ours {} vs ptile {}",
        ours.total_stall_sec(),
        ptile.total_stall_sec()
    );
}

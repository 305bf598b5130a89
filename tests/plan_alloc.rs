//! A warm `Controller::plan` call allocates nothing.
//!
//! Each planner owns its scratch: the MPC keeps its horizon bandwidths
//! in its solver scratch, and the robust controller keeps its two hedged
//! contexts as fields it refills in place. So once one call in a state
//! has grown those buffers, every later call in that state plans in the
//! storage it already holds. This gate checks the MPC on the Ptile path
//! and the robust controller in each of its three states: passthrough
//! (cold trackers), margin only (a warm bandwidth margin under a thin
//! buffer) and widened (a warm FoV residual tracker).
//!
//! The allocator's peak is process-global, so this measurement lives in
//! its own test binary with a single test.

use ee360::abr::controller::Controller;
use ee360::abr::mpc::MpcController;
use ee360::abr::plan::SegmentContext;
use ee360::abr::robust::RobustMpcController;
use ee360::video::content::SiTi;
use ee360_support::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A five-segment context with a covering Ptile.
fn ctx(bandwidth_bps: f64, buffer_sec: f64) -> SegmentContext {
    SegmentContext {
        index: 7,
        upcoming: (0..5)
            .map(|i| SiTi::new(55.0 + i as f64, 20.0 + i as f64))
            .collect(),
        predicted_bandwidth_bps: bandwidth_bps,
        buffer_sec,
        switching_speed_deg_s: 12.0,
        ptile_available: true,
        ptile_area_frac: 9.0 / 32.0,
        background_blocks: 3,
        ftile_fov_area: 0.0,
        ftile_fov_tiles: 0,
    }
}

/// Plans `ctx` once to warm the state, then returns the bytes a second
/// call allocated (its peak above the live heap it started from).
fn warm_plan_bytes(controller: &mut dyn Controller, ctx: &SegmentContext) -> usize {
    let _ = controller.plan(ctx);
    let before = ALLOC.reset_peak();
    let _ = controller.plan(ctx);
    ALLOC.peak_bytes().saturating_sub(before)
}

#[test]
fn warm_plans_allocate_nothing() {
    let mut mpc = MpcController::paper_default();
    let bytes = warm_plan_bytes(&mut mpc, &ctx(6.0e6, 2.0));
    assert_eq!(
        bytes, 0,
        "MpcController: a warm Ptile plan allocated {bytes} B"
    );

    let mut robust = RobustMpcController::paper_default();
    let passthrough = ctx(6.0e6, 2.0);
    let bytes = warm_plan_bytes(&mut robust, &passthrough);
    let stats = robust.robust_stats().expect("robust stats");
    assert_eq!((stats.margin_applied, stats.widened_plans), (0, 0));
    assert_eq!(
        bytes, 0,
        "RobustMpc passthrough: a warm plan allocated {bytes} B"
    );

    // Margin only: every download delivers half the estimate, and the
    // buffer is thin enough for the margin to engage.
    let thin = ctx(10.0e6, 1.0);
    for _ in 0..8 {
        let _ = robust.plan(&thin);
        robust.observe_throughput(5.0e6);
    }
    assert!(robust.margin_factor() < 1.0, "the margin must be warm");
    let before = robust.robust_stats().expect("robust stats");
    let bytes = warm_plan_bytes(&mut robust, &thin);
    let delta = robust.robust_stats().expect("robust stats").since(&before);
    assert_eq!((delta.margin_applied, delta.widened_plans), (2, 0));
    assert_eq!(
        bytes, 0,
        "RobustMpc margin only: a warm plan allocated {bytes} B"
    );

    // Widened: every realised error escapes the point plan's slack, and
    // the buffer is deep enough that the margin stays off.
    for _ in 0..8 {
        robust.observe_prediction_error(30.0);
    }
    let ample = ctx(40.0e6, 3.0);
    let before = robust.robust_stats().expect("robust stats");
    let bytes = warm_plan_bytes(&mut robust, &ample);
    let delta = robust.robust_stats().expect("robust stats").since(&before);
    assert_eq!((delta.margin_applied, delta.widened_plans), (0, 2));
    assert_eq!(
        bytes, 0,
        "RobustMpc widened: a warm plan allocated {bytes} B"
    );
}

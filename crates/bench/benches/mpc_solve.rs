//! Bench: the MPC dynamic program vs. the brute-force oracle.
//!
//! The paper's complexity claim is `O(HVF)`; the oracle is `O((VF)^H)`.
//! The DP must stay microseconds-fast because it runs once per segment on
//! the client.

use std::hint::black_box;

use ee360_abr::controller::Controller;
use ee360_abr::mpc::{MpcConfig, MpcController, StepPricing};
use ee360_abr::oracle::brute_force_optimum;
use ee360_abr::plan::SegmentContext;
use ee360_bench::bench_harness;
use ee360_video::content::SiTi;

fn context(horizon: usize) -> SegmentContext {
    SegmentContext {
        index: 0,
        upcoming: (0..horizon)
            .map(|i| SiTi::new(55.0 + i as f64, 20.0 + (i % 5) as f64))
            .collect(),
        predicted_bandwidth_bps: 3.9e6,
        buffer_sec: 2.5,
        switching_speed_deg_s: 9.0,
        ptile_available: true,
        ptile_area_frac: 12.0 / 32.0,
        background_blocks: 3,
        ftile_fov_area: 0.0,
        ftile_fov_tiles: 0,
    }
}

fn controller(horizon: usize) -> MpcController {
    let mut cfg = MpcConfig::paper_default();
    cfg.horizon = horizon;
    MpcController::new(cfg)
}

fn main() {
    let mut bench = bench_harness();
    for h in [1usize, 3, 5, 10, 20] {
        let mut ctrl = controller(h);
        let ctx = context(h);
        bench.run(&format!("mpc_dp/plan/{h}"), || ctrl.plan(black_box(&ctx)));
    }

    // One horizon step's candidate set: the solver's hoisted pricing vs
    // the per-variant pricing the reference solver reads. Both build the
    // same 20 candidates bit for bit.
    let ctrl = controller(5);
    let ctx = context(5);
    let area = ctx.ptile_area_frac;
    let mut step = StepPricing::default();
    bench.run("mpc_dp/candidates_step/hot", || {
        ctrl.candidates_into(
            black_box(ctx.content()),
            black_box(ctx.switching_speed_deg_s),
            black_box(area),
            ctx.background_blocks,
            &mut step,
        );
        step.candidates().len()
    });
    bench.run("mpc_dp/candidates_step/reference", || {
        ctrl.candidates(
            black_box(ctx.content()),
            black_box(ctx.switching_speed_deg_s),
            black_box(area),
            ctx.background_blocks,
        )
    });

    // The exponential oracle, for the speed-up story (kept tiny).
    for h in [1usize, 2, 3] {
        let ctrl = controller(h);
        let ctx = context(h);
        bench.run(&format!("brute_force_oracle/enumerate/{h}"), || {
            brute_force_optimum(black_box(&ctrl), black_box(&ctx))
        });
    }

    bench.print_table();
}

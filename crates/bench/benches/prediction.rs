//! Bench: per-segment prediction costs.
//!
//! Viewport prediction (a ridge fit over the 2 s gaze window) and
//! bandwidth estimation run once per downloaded segment on the client.

use std::hint::black_box;

use ee360_bench::bench_harness;
use ee360_geom::switching::SwitchingSample;
use ee360_geom::viewport::ViewCenter;
use ee360_predict::bandwidth::{BandwidthEstimator, HarmonicMeanEstimator};
use ee360_predict::viewport::ViewportPredictor;

fn history(samples: usize) -> Vec<SwitchingSample> {
    (0..samples)
        .map(|i| {
            let t = i as f64 * 0.1;
            SwitchingSample::new(
                t,
                ViewCenter::new(12.0 * t + (i % 3) as f64, 5.0 * (t * 0.7).sin()),
            )
        })
        .collect()
}

fn main() {
    let mut bench = bench_harness();
    let predictor = ViewportPredictor::paper_default();
    for n in [10usize, 20, 50, 100] {
        let h = history(n);
        bench.run(&format!("viewport_predict/ridge/{n}"), || {
            predictor.predict(black_box(&h), 1.0)
        });
    }

    // The per-segment render-coverage computation (16×16 pixel samples).
    {
        use ee360_geom::grid::TileGrid;
        use ee360_geom::region::TileRegion;
        use ee360_geom::viewport::{ViewCenter, Viewport};
        let grid = TileGrid::paper_default();
        let region = TileRegion::new(&grid, 1, 3, 3, 3);
        let vp = Viewport::paper_fov(ViewCenter::new(12.0, -8.0));
        // One viewport: after the first call every call is a cache hit.
        bench.run("projection/pixel_coverage_16", || {
            ee360_geom::projection::pixel_coverage(black_box(&vp), &region, &grid, 16)
        });
        // A cycle of distinct viewports longer than the per-thread weights
        // cache holds, so every call misses and runs the sampling pass.
        const COLD_CYCLE: usize = 8191;
        let mut i = 0usize;
        bench.run("projection/pixel_coverage_16_cold", || {
            i = (i + 1) % COLD_CYCLE;
            let yaw = -180.0 + 360.0 * i as f64 / COLD_CYCLE as f64;
            let pitch = -60.0 + 120.0 * ((i * 37) % COLD_CYCLE) as f64 / COLD_CYCLE as f64;
            let vp = Viewport::paper_fov(ViewCenter::new(yaw, pitch));
            ee360_geom::projection::pixel_coverage(black_box(&vp), &region, &grid, 16)
        });
    }

    {
        let mut est = HarmonicMeanEstimator::paper_default();
        for s in [3.1e6, 4.4e6, 2.9e6, 5.0e6, 3.8e6] {
            est.observe(s);
        }
        bench.run("bandwidth/harmonic_estimate", || {
            est.observe(black_box(4.1e6));
            est.estimate()
        });
    }

    bench.print_table();
}

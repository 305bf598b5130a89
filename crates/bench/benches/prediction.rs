//! Bench: per-segment prediction costs.
//!
//! Viewport prediction (a ridge fit over the 2 s gaze window), the fast
//! switching speed of that window and bandwidth estimation run once per
//! downloaded segment on the client; the `window/*` rows time the
//! session's whole plan-window step.

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
    // The slice API: each call builds its three series afresh.
    for n in [10usize, 20, 50, 100] {
        let h = history(n);
        bench.run(&format!("viewport_predict/ridge/{n}"), || {
            predictor.predict(black_box(&h), 1.0)
        });
    }

    // A session's plan-window step over a stored trace: the forward
    // search from the last window, the fit read in place and the p75
    // speed ("fused", one live session, so every plan fits its window),
    // and the same windows for a second live session while the first
    // has shared their fits ("shared_hit"). The positions cycle over
    // 5 s of a 10 Hz trace: 51 window ends, all in distinct ring slots.
    {
        use ee360_core::gaze::SessionGaze;
        use ee360_trace::head::HeadTrace;
        let trace = HeadTrace::from_samples(
            0,
            0,
            history(200)
                .iter()
                .map(|s| (s.t_sec, s.center.yaw_deg(), s.center.pitch_deg()))
                .collect(),
        );
        let positions: Vec<f64> = (0..50).map(|i| 8.0 + 0.1 * i as f64 + 0.03).collect();
        let mut step = 0usize;
        let mut next = move || {
            step = (step + 1) % positions.len();
            positions[step]
        };
        let mut first = SessionGaze::new(&trace);
        bench.run("window/plan_fused", || first.plan(black_box(next()), 1.0));
        let mut second = SessionGaze::new(&trace);
        for _ in 0..50 {
            first.plan(next(), 1.0);
        }
        bench.run("window/plan_shared_hit", || {
            second.plan(black_box(next()), 1.0)
        });
    }

    // The fast (p75) switching speed of the 2 s planning window: computed
    // from scratch (every interval's Eq. 5 speed), and served by a warm
    // interval-speed table (every interval already computed once). Then a
    // booking window's speed for a new session: "cold" on a fresh table
    // (ten new intervals, whose shared endpoints are each converted
    // once), "shared" on the table another live session over the trace
    // has already filled.
    {
        use ee360_geom::switching::fast_switching_speed;
        use ee360_trace::head::{HeadTrace, IntervalSpeeds};
        let h = history(200);
        let trace = HeadTrace::from_samples(
            0,
            0,
            h.iter()
                .map(|s| (s.t_sec, s.center.yaw_deg(), s.center.pitch_deg()))
                .collect(),
        );
        let (lo, hi) = (8.0, 10.0 + 1e-9);
        let mut window = Vec::new();
        let range = trace.switching_window_into(lo, hi, &mut window);
        bench.run("switching/fast_speed_2s_fresh", || {
            fast_switching_speed(black_box(&window))
        });
        let mut speeds = IntervalSpeeds::new(&trace);
        bench.run("switching/fast_speed_2s_session_warm", || {
            speeds.fast_speed(black_box(range.clone()))
        });
        drop(speeds);
        let mut k = 0usize;
        bench.run("switching/booking_window_cold", || {
            k = (k + 1) % 19;
            IntervalSpeeds::new(&trace).segment_fast_speed(black_box(k))
        });
        let mut filler = IntervalSpeeds::new(&trace);
        for k in 0..19 {
            filler.segment_fast_speed(k);
        }
        bench.run("switching/booking_window_shared", || {
            k = (k + 1) % 19;
            IntervalSpeeds::new(&trace).segment_fast_speed(black_box(k))
        });
    }

    // The per-segment render coverage (16×16 pixel samples). A trace's
    // view table runs the sampling pass once per segment ("fill") through
    // a sampler built once per process; every later booking of that
    // segment sums the stored counts over a region ("book").
    {
        use ee360_geom::grid::TileGrid;
        use ee360_geom::projection::{coverage_from_counts, PixelSampler};
        use ee360_geom::region::TileRegion;
        use ee360_trace::head::{HeadTrace, VIEW_FOV_DEG, VIEW_SAMPLES};
        let grid = TileGrid::paper_default();
        let region = TileRegion::new(&grid, 1, 3, 3, 3);
        let trace = HeadTrace::from_samples(
            0,
            0,
            history(200)
                .iter()
                .map(|s| (s.t_sec, s.center.yaw_deg(), s.center.pitch_deg()))
                .collect(),
        );
        let segments = (0..)
            .take_while(|&k| trace.segment_center(k).is_some())
            .count();
        let sampler = PixelSampler::new(&grid, VIEW_FOV_DEG, VIEW_FOV_DEG, VIEW_SAMPLES);
        let mut k = 0usize;
        bench.run("projection/view_table_fill_segment", || {
            k = (k + 1) % segments;
            let center = trace.segment_center(k).unwrap_or_default();
            let mut counts = [0u16; 32];
            sampler.for_each_tile(black_box(center), |t| {
                counts[grid.flat_index(t)] += 1;
            });
            counts
        });
        bench.run("projection/view_table_book", || {
            k = (k + 1) % segments;
            let counts = trace
                .segment_view_counts(black_box(k), &grid)
                .unwrap_or(&[]);
            coverage_from_counts(counts, &region, &grid, VIEW_SAMPLES)
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

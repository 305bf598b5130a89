//! A session's per-segment gaze work (Section IV-B): the viewport
//! prediction and fast switching speed of the 2 s planning window, and
//! the realised centre, speed and viewport coverage each booking reads.
//!
//! The window is read in place from the trace's stored samples, found
//! by searches that start where the previous segment's ended, and fitted
//! in one two-pass sweep. While two or more sessions over a trace are
//! live, a plan window's fit and fast speed are shared through the
//! trace's window-fit ring, so the sessions that reach the same window
//! compute it once. [`SessionGaze`] is a session's only way to its
//! trace's derived state ([`ee360_trace::derived`]).

use ee360_geom::grid::TileGrid;
use ee360_geom::projection::{coverage_from_counts, pixel_coverage};
use ee360_geom::region::TileRegion;
use ee360_geom::viewport::{ViewCenter, Viewport};
use ee360_predict::viewport::{LinearFit, SingleRidge, ViewportPredictor, WindowFit};
use ee360_trace::derived::{IntervalSpeeds, SharedFit, WindowKey, VIEW_SAMPLES};
use ee360_trace::head::HeadTrace;

/// The predictor every session plans with: the paper's ridge regression
/// over 2 s. The ring's key names a window's samples and nothing else,
/// which is complete because every fit stored in it comes from this one
/// predictor.
const PREDICTOR: ViewportPredictor = ViewportPredictor::paper_default();

/// One session's gaze state over its user's trace.
#[derive(Debug)]
pub struct SessionGaze<'a> {
    trace: &'a HeadTrace,
    /// The trace's interval speeds and window-fit ring, counted as a live
    /// session.
    speeds: IntervalSpeeds<'a>,
    /// Start of the last plan window: the next window's search hint.
    plan: usize,
    /// The last booking's partition point (the first sample at or after
    /// `k − 1e-9`): the next booking's search hint.
    booking: usize,
}

impl<'a> SessionGaze<'a> {
    /// The gaze state of a new session over `trace`.
    pub fn new(trace: &'a HeadTrace) -> Self {
        Self {
            trace,
            speeds: IntervalSpeeds::for_session(trace),
            plan: 0,
            booking: 0,
        }
    }

    /// The viewport predicted `horizon_sec` ahead from the gaze in
    /// `[playback_pos − 2, playback_pos + 1e-9]`, and that window's fast
    /// switching speed. With no usable history the prediction is the
    /// trace's first centre.
    ///
    /// Bit-identical to `PREDICTOR.predict(&window, horizon_sec)` and
    /// `fast_switching_speed(&window)` over the window converted to a
    /// `Vec`: the fit is [`ViewportPredictor::fit_window`], and a shared
    /// fit was computed the same way from the same samples by another
    /// session. Only regular ridge fits are shared; the other outcomes
    /// are cheap and always computed here.
    pub fn plan(&mut self, playback_pos: f64, horizon_sec: f64) -> (ViewCenter, f64) {
        let range =
            self.trace
                .sample_range_from(&mut self.plan, playback_pos - 2.0, playback_pos + 1e-9);
        let (start, end) = (range.start, range.end);
        let window = self.trace.window_samples(range);
        // lint:allow(hot-path-alloc, "clones an iterator over borrowed samples: no heap allocation")
        let Some((stale, span)) = PREDICTOR.recent_span(window.clone()) else {
            // An empty window: nothing to fit and no interval.
            return (self.first_center(), self.speeds.fast_speed(start..end));
        };
        let key = WindowKey {
            plan_start: start,
            fit_start: start + stale,
            end,
        };
        if let Some(shared) = self.speeds.shared_fit(&key) {
            let fit = LinearFit {
                span,
                yaw: ridge(shared.yaw),
                pitch: ridge(shared.pitch),
            };
            return (fit.predict(horizon_sec), shared.fast_speed);
        }
        let fit = PREDICTOR.fit_window(window);
        let fast_speed = self.speeds.fast_speed(start..end);
        if let WindowFit::Linear(fit) = &fit {
            let shared = SharedFit {
                yaw: (fit.yaw.weight, fit.yaw.intercept),
                pitch: (fit.pitch.weight, fit.pitch.intercept),
                fast_speed,
            };
            self.speeds.share_fit(&key, &shared);
        }
        let predicted = fit
            .predict(horizon_sec)
            .unwrap_or_else(|| self.first_center());
        (predicted, fast_speed)
    }

    /// The fallback prediction without a usable history.
    fn first_center(&self) -> ViewCenter {
        self.trace.first_center().unwrap_or_default()
    }

    /// [`HeadTrace::segment_center`] of `segment`, searched from the last
    /// booking.
    pub fn segment_center(&mut self, segment: usize) -> Option<ViewCenter> {
        self.trace.segment_center_from(&mut self.booking, segment)
    }

    /// [`IntervalSpeeds::segment_fast_speed`] of `segment`. Its window
    /// starts at the sample [`Self::segment_center`] of the same segment
    /// left as the hint, so after that lookup the search for the start
    /// ends next to the hint.
    pub fn segment_fast_speed(&mut self, segment: usize) -> Option<f64> {
        self.speeds
            .segment_fast_speed_from(&mut self.booking, segment)
    }

    /// Pixel-weighted fraction of `segment`'s realised viewport `actual`
    /// that `region` stores (Section II's render mapping at 16×16 rays),
    /// from the trace's shared view counts, or by sampling `actual` when
    /// the trace has none for it: both paths give the same bits.
    pub fn overlap_fraction(
        &self,
        segment: usize,
        region: &TileRegion,
        grid: &TileGrid,
        actual: &Viewport,
    ) -> f64 {
        match self.trace.segment_view_counts(segment, grid) {
            Some(counts) => coverage_from_counts(counts, region, grid, VIEW_SAMPLES),
            None => pixel_coverage(actual, region, grid, VIEW_SAMPLES),
        }
    }
}

/// A shared `(weight, intercept)` pair as the model it came from.
fn ridge((weight, intercept): (f64, f64)) -> SingleRidge {
    SingleRidge { weight, intercept }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_geom::switching::fast_switching_speed;
    use ee360_support::prelude::*;

    /// The plan of `pos` the way it was made before the fused path: the
    /// window copied out, `predict` and `fast_switching_speed`.
    fn reference(trace: &HeadTrace, pos: f64, horizon: f64) -> (ViewCenter, f64) {
        let mut window = Vec::new();
        trace.switching_window_into(pos - 2.0, pos + 1e-9, &mut window);
        let predicted = PREDICTOR
            .predict(&window, horizon)
            .unwrap_or_else(|| trace.first_center().unwrap_or_default());
        (predicted, fast_switching_speed(&window))
    }

    fn bits((c, speed): (ViewCenter, f64)) -> [u64; 3] {
        [c.yaw_deg(), c.pitch_deg(), speed].map(f64::to_bits)
    }

    /// The ring's key for the plan window at `pos`, as `plan` forms it.
    fn key_at(trace: &HeadTrace, pos: f64) -> Option<WindowKey> {
        let range = trace.sample_range(pos - 2.0, pos + 1e-9);
        let (stale, _) = PREDICTOR.recent_span(trace.window_samples(range.clone()))?;
        Some(WindowKey {
            plan_start: range.start,
            fit_start: range.start + stale,
            end: range.end,
        })
    }

    /// A trace at 10 Hz, 60 Hz or irregular steps (`rate` 0, 1, 2).
    fn trace_at_rate(rate: usize, t0: f64, steps: &[(f64, f64, f64)]) -> HeadTrace {
        let mut t = t0;
        let samples = steps
            .iter()
            .enumerate()
            .map(|(i, &(dt, y, p))| {
                t = match rate {
                    0 => t0 + i as f64 / 10.0,
                    1 => t0 + i as f64 / 60.0,
                    _ => t + dt,
                };
                (t, y, p)
            })
            .collect();
        HeadTrace::from_samples(0, 0, samples)
    }

    proptest! {
        #[test]
        fn shared_window_fits_match_predict_across_two_threads(
            steps in prop::collection::vec(
                (0.02f64..0.3, -400.0f64..400.0, -120.0f64..120.0),
                2..400,
            ),
            rate in 0usize..3,
            t0 in -1.0f64..1.0,
            plans in (
                prop::collection::vec((0.0f64..1.0, 0.0f64..3.0), 1..80),
                prop::collection::vec((0.0f64..1.0, 0.0f64..3.0), 1..80),
            ),
            stretch in 1.0f64..8.0,
        ) {
            // Plan positions crowd into the first `stretch` seconds, so
            // the two sessions meet the same windows often, and race to
            // store and read the same slots.
            let trace = trace_at_rate(rate, t0, &steps);
            let first = t0;
            let span = (trace.duration_sec() - first).min(stretch) + 2.5;
            let at = |u: f64| first - 0.5 + span * u;
            let mut a = SessionGaze::new(&trace);
            let mut b = SessionGaze::new(&trace);
            let barrier = std::sync::Barrier::new(2);
            let run = |gaze: &mut SessionGaze<'_>, seq: &[(f64, f64)]| {
                barrier.wait();
                seq.iter()
                    .map(|&(u, horizon)| bits(gaze.plan(at(u), horizon)))
                    .collect::<Vec<_>>()
            };
            let (from_a, from_b) = std::thread::scope(|s| {
                let ta = s.spawn(|| run(&mut a, &plans.0));
                let tb = s.spawn(|| run(&mut b, &plans.1));
                (ta.join().expect("thread a"), tb.join().expect("thread b"))
            });
            for (got, &(u, horizon)) in from_a.iter().zip(&plans.0).chain(from_b.iter().zip(&plans.1)) {
                prop_assert_eq!(*got, bits(reference(&trace, at(u), horizon)));
            }
            // Every fit the ring holds now is its window's own.
            let mut stored = 0;
            for &(u, horizon) in plans.0.iter().chain(&plans.1) {
                let Some(key) = key_at(&trace, at(u)) else { continue };
                if let Some(shared) = a.speeds.shared_fit(&key) {
                    let (c, speed) = reference(&trace, at(u), horizon);
                    let (_, span) = PREDICTOR
                        .recent_span(trace.window_samples(key.plan_start..key.end))
                        .unwrap_or_default();
                    let fit = LinearFit { span, yaw: ridge(shared.yaw), pitch: ridge(shared.pitch) };
                    prop_assert_eq!(bits((fit.predict(horizon), shared.fast_speed)), bits((c, speed)));
                    stored += 1;
                }
            }
            // Any window of two or more recent samples is a regular fit,
            // so some plan stored one.
            let fitted = plans.0.iter().any(|&(u, _)| {
                key_at(&trace, at(u)).is_some_and(|k| k.end >= k.fit_start + 2)
            });
            prop_assert!(!fitted || stored > 0);
        }
    }

    #[test]
    fn a_second_session_reads_the_fit_the_first_shared() {
        let steps: Vec<_> = (0..60)
            .map(|i| (0.1, 4.0 * i as f64, 10.0 - 0.2 * i as f64))
            .collect();
        let trace = trace_at_rate(0, 0.0, &steps);
        let mut a = SessionGaze::new(&trace);
        let mut b = SessionGaze::new(&trace);
        let (pos, horizon) = (3.0, 1.5);
        assert_eq!(
            bits(a.plan(pos, horizon)),
            bits(reference(&trace, pos, horizon))
        );
        // Replace the shared fit with a marker: b's plan of the same
        // window must come from the ring, not from its own fit.
        let key = key_at(&trace, pos).expect("a non-empty window");
        let marker = SharedFit {
            yaw: (0.0, 33.0),
            pitch: (0.0, -12.0),
            fast_speed: 7.5,
        };
        a.speeds.share_fit(&key, &marker);
        let (center, speed) = b.plan(pos, horizon);
        assert_eq!((center, speed), (ViewCenter::new(33.0, -12.0), 7.5));
        // Another window is b's own fit again.
        assert_eq!(
            bits(b.plan(4.2, horizon)),
            bits(reference(&trace, 4.2, horizon))
        );
    }

    #[test]
    fn booking_lookups_match_the_trace() {
        let steps: Vec<_> = (0..95)
            .map(|i| (0.1, 7.0 * i as f64, 30.0 - i as f64))
            .collect();
        let trace = trace_at_rate(2, 0.3, &steps);
        let mut gaze = SessionGaze::new(&trace);
        let mut speeds = IntervalSpeeds::new(&trace);
        for k in (0..14).chain([3, 2, 12, 0]) {
            assert_eq!(
                gaze.segment_center(k),
                trace.segment_center(k),
                "segment {k}"
            );
            assert_eq!(
                gaze.segment_fast_speed(k).map(f64::to_bits),
                speeds.segment_fast_speed(k).map(f64::to_bits),
                "segment {k}"
            );
        }
    }
}

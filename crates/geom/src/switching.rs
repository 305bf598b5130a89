//! View-switching speed (Eq. 5 of the paper).
//!
//! The switching speed between two gaze samples is the great-circle angle
//! between their orientation vectors divided by the elapsed time:
//!
//! ```text
//! S_fov = arccos( (O_{i-1} · O_i) / (‖O_{i-1}‖ ‖O_i‖) ) / (t_i − t_{i-1})
//! ```
//!
//! Speeds are in degrees per second. The paper observes (Fig. 5) that users
//! exceed 10°/s for more than 30% of the time, which is what makes
//! frame-rate reduction worthwhile.

use crate::sphere::Orientation;
use crate::viewport::ViewCenter;

/// A timestamped gaze sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingSample {
    /// Sample time in seconds.
    pub t_sec: f64,
    /// Gaze direction at that time.
    pub center: ViewCenter,
}

ee360_support::impl_json_struct!(SwitchingSample { t_sec, center });

impl SwitchingSample {
    /// Creates a sample.
    pub fn new(t_sec: f64, center: ViewCenter) -> Self {
        Self { t_sec, center }
    }
}

/// View-switching speed between two samples, in degrees per second (Eq. 5).
///
/// # Panics
///
/// Panics if the samples are not strictly increasing in time.
///
/// # Example
///
/// ```
/// use ee360_geom::switching::{switching_speed_deg_per_sec, SwitchingSample};
/// use ee360_geom::viewport::ViewCenter;
///
/// let a = SwitchingSample::new(0.0, ViewCenter::new(0.0, 0.0));
/// let b = SwitchingSample::new(1.0, ViewCenter::new(20.0, 0.0));
/// assert!((switching_speed_deg_per_sec(&a, &b) - 20.0).abs() < 1e-9);
/// ```
pub fn switching_speed_deg_per_sec(prev: &SwitchingSample, next: &SwitchingSample) -> f64 {
    let dt = next.t_sec - prev.t_sec;
    assert!(dt > 0.0, "samples must be strictly increasing in time");
    let o0 = Orientation::from_view_center(prev.center);
    let o1 = Orientation::from_view_center(next.center);
    o0.angle_to_deg(&o1) / dt
}

/// Per-interval switching speeds over a whole gaze trace.
///
/// Returns one speed per consecutive pair; an input of fewer than two
/// samples yields an empty vector.
pub fn switching_speeds(samples: &[SwitchingSample]) -> Vec<f64> {
    samples
        .windows(2)
        .map(|w| switching_speed_deg_per_sec(&w[0], &w[1]))
        .collect()
}

/// The *fast* switching speed of a window: the 75th percentile of its
/// per-interval speeds, in degrees per second. Eq. 4's blur argument is
/// about the fast phases of the gaze ("during fast view switching"), which
/// a plain mean dilutes away. Returns `0.0` for windows with fewer than two
/// samples.
pub fn fast_switching_speed(samples: &[SwitchingSample]) -> f64 {
    fast_speed_of(&mut switching_speeds(samples))
}

/// The percentile rule behind [`fast_switching_speed`]: the 75th
/// percentile (element `⌊0.75·n⌋` in `total_cmp` order) of per-interval
/// speeds, `0.0` for an empty slice. Reorders `speeds` in place.
///
/// Under a total order the k-th order statistic does not depend on how
/// the input is permuted, so any caller that gathers the same speed
/// values gets the same bits back.
pub fn fast_speed_of(speeds: &mut [f64]) -> f64 {
    if speeds.is_empty() {
        return 0.0;
    }
    let idx = ((speeds.len() as f64) * 0.75).floor() as usize;
    let idx = idx.min(speeds.len() - 1);
    // Selection instead of a full sort: `total_cmp` is a total order, so
    // the idx-th order statistic is the same value a sort would index.
    let (_, kth, _) = speeds.select_nth_unstable_by(idx, |a, b| a.total_cmp(b));
    *kth
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    #[test]
    fn static_gaze_has_zero_speed() {
        let c = ViewCenter::new(42.0, -13.0);
        let a = SwitchingSample::new(0.0, c);
        let b = SwitchingSample::new(0.5, c);
        assert!(switching_speed_deg_per_sec(&a, &b) < 1e-9);
    }

    #[test]
    fn speed_scales_with_time() {
        let a = SwitchingSample::new(0.0, ViewCenter::new(0.0, 0.0));
        let b = SwitchingSample::new(2.0, ViewCenter::new(30.0, 0.0));
        assert!((switching_speed_deg_per_sec(&a, &b) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn speed_across_antimeridian_uses_short_arc() {
        let a = SwitchingSample::new(0.0, ViewCenter::new(175.0, 0.0));
        let b = SwitchingSample::new(1.0, ViewCenter::new(-175.0, 0.0));
        assert!((switching_speed_deg_per_sec(&a, &b) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pitch_only_motion() {
        let a = SwitchingSample::new(0.0, ViewCenter::new(0.0, 0.0));
        let b = SwitchingSample::new(1.0, ViewCenter::new(0.0, 45.0));
        assert!((switching_speed_deg_per_sec(&a, &b) - 45.0).abs() < 1e-9);
    }

    #[test]
    fn trace_speeds_length() {
        let samples: Vec<_> = (0..5)
            .map(|i| SwitchingSample::new(i as f64 * 0.02, ViewCenter::new(i as f64, 0.0)))
            .collect();
        assert_eq!(switching_speeds(&samples).len(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_time_panics() {
        let a = SwitchingSample::new(1.0, ViewCenter::default());
        let b = SwitchingSample::new(1.0, ViewCenter::default());
        let _ = switching_speed_deg_per_sec(&a, &b);
    }

    proptest! {
        #[test]
        fn speed_nonnegative(
            y1 in -180.0f64..180.0, p1 in -90.0f64..90.0,
            y2 in -180.0f64..180.0, p2 in -90.0f64..90.0,
            dt in 0.001f64..10.0,
        ) {
            let a = SwitchingSample::new(0.0, ViewCenter::new(y1, p1));
            let b = SwitchingSample::new(dt, ViewCenter::new(y2, p2));
            prop_assert!(switching_speed_deg_per_sec(&a, &b) >= 0.0);
        }

        #[test]
        fn speed_bounded_by_max_angle(
            y1 in -180.0f64..180.0, p1 in -90.0f64..90.0,
            y2 in -180.0f64..180.0, p2 in -90.0f64..90.0,
        ) {
            let a = SwitchingSample::new(0.0, ViewCenter::new(y1, p1));
            let b = SwitchingSample::new(1.0, ViewCenter::new(y2, p2));
            // Max great-circle angle is 180°.
            prop_assert!(switching_speed_deg_per_sec(&a, &b) <= 180.0 + 1e-9);
        }
    }
}

//! View centers and viewports on the equirectangular plane.
//!
//! A user's gaze is summarised by a [`ViewCenter`] — the (yaw, pitch) point
//! the head-mounted display reports — and the visible area is the
//! [`Viewport`]: the view center plus the device field of view (100°×100°
//! in the paper, Section II).

use crate::angles::{angular_diff_deg, clamp_pitch_deg, wrap_yaw_deg};

/// Field of view used throughout the paper: 100° horizontally and vertically.
pub const PAPER_FOV_DEG: f64 = 100.0;

/// A gaze point on the equirectangular plane.
///
/// Yaw is wrapped into `[-180, 180)`; pitch is clamped into `[-90, 90]`.
///
/// # Example
///
/// ```
/// use ee360_geom::viewport::ViewCenter;
/// let c = ViewCenter::new(190.0, 95.0);
/// assert_eq!(c.yaw_deg(), -170.0);
/// assert_eq!(c.pitch_deg(), 90.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewCenter {
    yaw_deg: f64,
    pitch_deg: f64,
}

ee360_support::impl_json_struct!(ViewCenter { yaw_deg, pitch_deg });

impl ViewCenter {
    /// Creates a view center, canonicalising yaw and pitch.
    pub fn new(yaw_deg: f64, pitch_deg: f64) -> Self {
        Self {
            yaw_deg: wrap_yaw_deg(yaw_deg),
            pitch_deg: clamp_pitch_deg(pitch_deg),
        }
    }

    /// Yaw (longitude) in degrees, `[-180, 180)`.
    pub fn yaw_deg(&self) -> f64 {
        self.yaw_deg
    }

    /// Pitch (latitude) in degrees, `[-90, 90]`.
    pub fn pitch_deg(&self) -> f64 {
        self.pitch_deg
    }

    /// Planar distance to another view center, in degrees.
    ///
    /// This is the Euclidean distance on the equirectangular plane with
    /// longitude wraparound — the `dist(u, n)` used by the paper's
    /// Algorithm 1 to cluster viewing centers.
    ///
    /// # Example
    ///
    /// ```
    /// use ee360_geom::viewport::ViewCenter;
    /// let a = ViewCenter::new(175.0, 0.0);
    /// let b = ViewCenter::new(-175.0, 0.0);
    /// assert!((a.distance_deg(&b) - 10.0).abs() < 1e-9);
    /// ```
    pub fn distance_deg(&self, other: &Self) -> f64 {
        let dy = angular_diff_deg(self.yaw_deg, other.yaw_deg);
        let dp = self.pitch_deg - other.pitch_deg;
        (dy * dy + dp * dp).sqrt()
    }
}

impl Default for ViewCenter {
    fn default() -> Self {
        Self::new(0.0, 0.0)
    }
}

/// A viewport: a view center plus a field of view.
///
/// The viewport is the axis-aligned box `[yaw - w/2, yaw + w/2] ×
/// [pitch - h/2, pitch + h/2]` on the equirectangular plane, with yaw
/// wraparound and pitch clamping (the box saturates at the poles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    center: ViewCenter,
    fov_h_deg: f64,
    fov_v_deg: f64,
}

ee360_support::impl_json_struct!(Viewport {
    center,
    fov_h_deg,
    fov_v_deg
});

impl Viewport {
    /// Creates a viewport.
    ///
    /// # Panics
    ///
    /// Panics if either field-of-view dimension is not in `(0, 360]`
    /// (horizontal) / `(0, 180]` (vertical).
    pub fn new(center: ViewCenter, fov_h_deg: f64, fov_v_deg: f64) -> Self {
        assert!(
            fov_h_deg > 0.0 && fov_h_deg <= 360.0,
            "horizontal FoV must be in (0, 360], got {fov_h_deg}"
        );
        assert!(
            fov_v_deg > 0.0 && fov_v_deg <= 180.0,
            "vertical FoV must be in (0, 180], got {fov_v_deg}"
        );
        Self {
            center,
            fov_h_deg,
            fov_v_deg,
        }
    }

    /// Creates the paper's standard 100°×100° viewport.
    pub fn paper_fov(center: ViewCenter) -> Self {
        Self::new(center, PAPER_FOV_DEG, PAPER_FOV_DEG)
    }

    /// The view center.
    pub fn center(&self) -> ViewCenter {
        self.center
    }

    /// Horizontal field of view in degrees.
    pub fn fov_h_deg(&self) -> f64 {
        self.fov_h_deg
    }

    /// Vertical field of view in degrees.
    pub fn fov_v_deg(&self) -> f64 {
        self.fov_v_deg
    }

    /// Lower pitch bound of the viewport box (clamped at the pole).
    pub fn pitch_min_deg(&self) -> f64 {
        clamp_pitch_deg(self.center.pitch_deg() - self.fov_v_deg / 2.0)
    }

    /// Upper pitch bound of the viewport box (clamped at the pole).
    pub fn pitch_max_deg(&self) -> f64 {
        clamp_pitch_deg(self.center.pitch_deg() + self.fov_v_deg / 2.0)
    }

    /// Returns `true` if the given point lies inside the viewport box.
    ///
    /// # Example
    ///
    /// ```
    /// use ee360_geom::viewport::{ViewCenter, Viewport};
    /// let vp = Viewport::paper_fov(ViewCenter::new(170.0, 0.0));
    /// assert!(vp.contains(&ViewCenter::new(-160.0, 10.0))); // across the seam
    /// assert!(!vp.contains(&ViewCenter::new(0.0, 0.0)));
    /// ```
    pub fn contains(&self, p: &ViewCenter) -> bool {
        let dy = angular_diff_deg(p.yaw_deg(), self.center.yaw_deg());
        if dy > self.fov_h_deg / 2.0 + 1e-9 {
            return false;
        }
        p.pitch_deg() >= self.pitch_min_deg() - 1e-9 && p.pitch_deg() <= self.pitch_max_deg() + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    #[test]
    fn view_center_canonicalises() {
        let c = ViewCenter::new(360.0 + 10.0, -100.0);
        assert!((c.yaw_deg() - 10.0).abs() < 1e-12);
        assert_eq!(c.pitch_deg(), -90.0);
    }

    #[test]
    fn distance_simple() {
        let a = ViewCenter::new(0.0, 0.0);
        let b = ViewCenter::new(3.0, 4.0);
        assert!((a.distance_deg(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_across_seam() {
        let a = ViewCenter::new(179.0, 0.0);
        let b = ViewCenter::new(-179.0, 0.0);
        assert!((a.distance_deg(&b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn viewport_contains_center() {
        let vp = Viewport::paper_fov(ViewCenter::new(42.0, 13.0));
        assert!(vp.contains(&vp.center()));
    }

    #[test]
    fn viewport_excludes_far_points() {
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
        assert!(!vp.contains(&ViewCenter::new(120.0, 0.0)));
        assert!(!vp.contains(&ViewCenter::new(0.0, 80.0)));
    }

    #[test]
    fn viewport_saturates_at_pole() {
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 80.0));
        assert_eq!(vp.pitch_max_deg(), 90.0);
        assert!((vp.pitch_min_deg() - 30.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "horizontal FoV")]
    fn zero_fov_panics() {
        let _ = Viewport::new(ViewCenter::default(), 0.0, 100.0);
    }

    proptest! {
        #[test]
        fn distance_symmetric(
            y1 in -180.0f64..180.0, p1 in -90.0f64..90.0,
            y2 in -180.0f64..180.0, p2 in -90.0f64..90.0,
        ) {
            let a = ViewCenter::new(y1, p1);
            let b = ViewCenter::new(y2, p2);
            prop_assert!((a.distance_deg(&b) - b.distance_deg(&a)).abs() < 1e-9);
        }

        #[test]
        fn distance_nonnegative_and_zero_to_self(
            y in -180.0f64..180.0, p in -90.0f64..90.0,
        ) {
            let a = ViewCenter::new(y, p);
            prop_assert!(a.distance_deg(&a) < 1e-12);
        }

        #[test]
        fn boundary_points_contained(
            y in -180.0f64..180.0, p in -40.0f64..40.0,
        ) {
            let vp = Viewport::paper_fov(ViewCenter::new(y, p));
            let edge = ViewCenter::new(y + 50.0, p);
            prop_assert!(vp.contains(&edge));
        }
    }
}

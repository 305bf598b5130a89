//! Degree arithmetic with longitude wraparound.
//!
//! Yaw (longitude) lives on a circle: `-180` and `180` are the same point,
//! and the distance between `170°` and `-170°` is `20°`, not `340°`. The
//! helpers here keep every yaw computation in the canonical `[-180, 180)`
//! range and measure differences along the shorter arc.

/// Wraps an arbitrary yaw (longitude) into the canonical `[-180, 180)` range.
///
/// # Example
///
/// ```
/// use ee360_geom::angles::wrap_yaw_deg;
/// assert_eq!(wrap_yaw_deg(190.0), -170.0);
/// assert_eq!(wrap_yaw_deg(-540.0), -180.0); // 180 wraps to -180
/// assert_eq!(wrap_yaw_deg(-180.0), -180.0);
/// ```
pub fn wrap_yaw_deg(yaw: f64) -> f64 {
    // Bit-identical to `(yaw + 180.0) % 360.0` without the `fmod` call on
    // the common inputs: for `s` in (−360, 360) the remainder is `s`
    // itself (signed zeros included), and for `s` in [360, 720) it is
    // `s − 360`, which is exact by Sterbenz's lemma. Everything else —
    // larger magnitudes, ±∞, NaN — keeps `%`.
    let s = yaw + 180.0;
    let mut y = if s > -360.0 && s < 360.0 {
        s
    } else if (360.0..720.0).contains(&s) {
        s - 360.0
    } else {
        s % 360.0
    };
    if y < 0.0 {
        y += 360.0;
    }
    y - 180.0
}

/// Clamps a pitch (latitude) into `[-90, 90]`.
///
/// Pitch is not circular: looking "past" the pole keeps you at the pole
/// (head-mounted displays clamp the same way).
pub fn clamp_pitch_deg(pitch: f64) -> f64 {
    pitch.clamp(-90.0, 90.0)
}

/// Signed shortest-arc difference `a - b` between two yaw angles, in degrees.
///
/// The result is always in `[-180, 180)`.
///
/// # Example
///
/// ```
/// use ee360_geom::angles::signed_yaw_diff_deg;
/// assert_eq!(signed_yaw_diff_deg(170.0, -170.0), -20.0);
/// assert_eq!(signed_yaw_diff_deg(-170.0, 170.0), 20.0);
/// ```
pub fn signed_yaw_diff_deg(a: f64, b: f64) -> f64 {
    wrap_yaw_deg(a - b)
}

/// Absolute shortest-arc difference between two yaw angles, in degrees.
///
/// Always in `[0, 180]`.
///
/// # Example
///
/// ```
/// use ee360_geom::angles::angular_diff_deg;
/// assert_eq!(angular_diff_deg(170.0, -170.0), 20.0);
/// assert_eq!(angular_diff_deg(0.0, 90.0), 90.0);
/// ```
pub fn angular_diff_deg(a: f64, b: f64) -> f64 {
    signed_yaw_diff_deg(a, b).abs()
}

/// Linear interpolation between two yaw angles along the shorter arc.
///
/// `t = 0` yields `from`, `t = 1` yields `to` (modulo wraparound).
pub fn lerp_yaw_deg(from: f64, to: f64, t: f64) -> f64 {
    let d = signed_yaw_diff_deg(to, from);
    wrap_yaw_deg(from + d * t)
}

/// Converts degrees to radians.
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * std::f64::consts::PI / 180.0
}

/// Converts radians to degrees.
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / std::f64::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    #[test]
    fn wrap_identity_in_range() {
        assert_eq!(wrap_yaw_deg(0.0), 0.0);
        assert!((wrap_yaw_deg(179.9) - 179.9).abs() < 1e-9);
        assert_eq!(wrap_yaw_deg(-180.0), -180.0);
    }

    #[test]
    fn wrap_180_maps_to_minus_180() {
        assert_eq!(wrap_yaw_deg(180.0), -180.0);
        assert_eq!(wrap_yaw_deg(540.0), -180.0);
    }

    #[test]
    fn wrap_multiple_turns() {
        assert!((wrap_yaw_deg(720.0 + 10.0) - 10.0).abs() < 1e-12);
        assert!((wrap_yaw_deg(-720.0 - 10.0) + 10.0).abs() < 1e-12);
    }

    #[test]
    fn signed_diff_shorter_arc() {
        assert_eq!(signed_yaw_diff_deg(10.0, 350.0 - 360.0), 20.0);
        assert_eq!(signed_yaw_diff_deg(-170.0, 170.0), 20.0);
        assert_eq!(signed_yaw_diff_deg(170.0, -170.0), -20.0);
    }

    #[test]
    fn lerp_crosses_antimeridian() {
        let mid = lerp_yaw_deg(170.0, -170.0, 0.5);
        assert!((angular_diff_deg(mid, 180.0)).abs() < 1e-9);
    }

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp_yaw_deg(30.0, 60.0, 0.0), 30.0);
        assert_eq!(lerp_yaw_deg(30.0, 60.0, 1.0), 60.0);
    }

    #[test]
    fn clamp_pitch_bounds() {
        assert_eq!(clamp_pitch_deg(95.0), 90.0);
        assert_eq!(clamp_pitch_deg(-95.0), -90.0);
        assert_eq!(clamp_pitch_deg(45.0), 45.0);
    }

    #[test]
    fn deg_rad_roundtrip() {
        for d in [-180.0, -90.0, 0.0, 45.0, 180.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-12);
        }
    }

    /// The `fmod` formulation `wrap_yaw_deg` must match bit for bit.
    fn reference_wrap_yaw_deg(yaw: f64) -> f64 {
        let mut y = (yaw + 180.0) % 360.0;
        if y < 0.0 {
            y += 360.0;
        }
        y - 180.0
    }

    fn assert_wrap_matches_reference(yaw: f64) {
        assert_eq!(
            wrap_yaw_deg(yaw).to_bits(),
            reference_wrap_yaw_deg(yaw).to_bits(),
            "wrap_yaw_deg({yaw:e}) ({:#x})",
            yaw.to_bits()
        );
    }

    #[test]
    fn wrap_matches_fmod_on_special_values() {
        for yaw in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_wrap_matches_reference(yaw);
        }
    }

    #[test]
    fn wrap_matches_fmod_on_ulp_perturbed_multiples_of_180() {
        // The branch edges sit at s = yaw + 180 ∈ {−360, 360, 720}; every
        // multiple of 180 up to ±1440, nudged by up to 4 ulps either way,
        // straddles them and the `y < 0` fix-up.
        for k in -8i32..=8 {
            let base = f64::from(k) * 180.0;
            let (mut up, mut down) = (base, base);
            for _ in 0..=4 {
                assert_wrap_matches_reference(up);
                assert_wrap_matches_reference(down);
                up = up.next_up();
                down = down.next_down();
            }
        }
    }

    #[test]
    fn wrap_matches_fmod_on_a_seeded_sweep() {
        // Raw bit patterns reach every exponent (subnormals, huge values,
        // NaN payloads); the scaled draws concentrate on the fast branches.
        let mut rng = StdRng::seed_from_u64(0x5EED_0360);
        for _ in 0..100_000 {
            assert_wrap_matches_reference(f64::from_bits(rng.next_u64()));
            assert_wrap_matches_reference(rng.gen_range(-1080.0..1080.0));
        }
    }

    proptest! {
        #[test]
        fn wrap_matches_fmod_bit_for_bit(y in -2000.0f64..2000.0) {
            prop_assert_eq!(wrap_yaw_deg(y).to_bits(), reference_wrap_yaw_deg(y).to_bits());
        }

        #[test]
        fn wrap_always_in_range(y in -1e6f64..1e6f64) {
            let w = wrap_yaw_deg(y);
            prop_assert!((-180.0..180.0).contains(&w));
        }

        #[test]
        fn wrap_is_idempotent(y in -1e6f64..1e6f64) {
            let w = wrap_yaw_deg(y);
            prop_assert!((wrap_yaw_deg(w) - w).abs() < 1e-9);
        }

        #[test]
        fn diff_symmetric(a in -180.0f64..180.0, b in -180.0f64..180.0) {
            prop_assert!((angular_diff_deg(a, b) - angular_diff_deg(b, a)).abs() < 1e-9);
        }

        #[test]
        fn diff_bounded(a in -1e4f64..1e4, b in -1e4f64..1e4) {
            let d = angular_diff_deg(a, b);
            prop_assert!((0.0..=180.0).contains(&d));
        }

        #[test]
        fn diff_triangle_inequality(
            a in -180.0f64..180.0,
            b in -180.0f64..180.0,
            c in -180.0f64..180.0,
        ) {
            let ab = angular_diff_deg(a, b);
            let bc = angular_diff_deg(b, c);
            let ac = angular_diff_deg(a, c);
            prop_assert!(ac <= ab + bc + 1e-9);
        }
    }
}

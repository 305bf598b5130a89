//! Per-segment energy accounting (Eq. 1).
//!
//! The energy to fetch and play segment `k` at bitrate level `v` and frame
//! rate `f` is
//!
//! ```text
//! E(T_k^{v,f}) = E_t + E_d + E_r
//!   E_t = P_t · S / R      (radio active for the download duration)
//!   E_d = P_d(f) · L       (decode runs for the segment duration)
//!   E_r = P_r(f) · L       (render runs for the segment duration)
//! ```
//!
//! with `S` the segment size in bits, `R` the download bandwidth in bits
//! per second, and `L` the segment duration in seconds. Powers are in mW so
//! energies come out in millijoules.

use crate::model::{DecoderScheme, PowerModel};

/// Inputs to the per-segment energy computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentEnergyParams {
    /// Segment size in bits (`S`).
    pub bits: f64,
    /// Download bandwidth in bits per second (`R`).
    pub bandwidth_bps: f64,
    /// Displayed frame rate in fps (`f`).
    pub fps: f64,
    /// Segment duration in seconds (`L`).
    pub duration_sec: f64,
    /// Which decode pipeline is used.
    pub scheme: DecoderScheme,
}

ee360_support::impl_json_struct!(SegmentEnergyParams {
    bits,
    bandwidth_bps,
    fps,
    duration_sec,
    scheme
});

/// The three-part energy breakdown of one segment, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegmentEnergy {
    /// Radio energy for the download (`E_t`), mJ.
    pub transmission_mj: f64,
    /// Decoder energy (`E_d`), mJ.
    pub decode_mj: f64,
    /// Render energy (`E_r`), mJ.
    pub render_mj: f64,
}

ee360_support::impl_json_struct!(SegmentEnergy {
    transmission_mj,
    decode_mj,
    render_mj
});

impl SegmentEnergy {
    /// Computes Eq. 1 for one segment under a phone's power model.
    ///
    /// # Panics
    ///
    /// Panics if any input is non-finite or non-positive where positivity
    /// is required (`bits` may be zero for a skipped download).
    pub fn compute(model: &PowerModel, p: SegmentEnergyParams) -> Self {
        assert!(p.bits.is_finite() && p.bits >= 0.0, "bits must be >= 0");
        assert!(
            p.bandwidth_bps.is_finite() && p.bandwidth_bps > 0.0,
            "bandwidth must be positive"
        );
        assert!(p.fps.is_finite() && p.fps > 0.0, "fps must be positive");
        assert!(
            p.duration_sec.is_finite() && p.duration_sec > 0.0,
            "duration must be positive"
        );
        let download_sec = p.bits / p.bandwidth_bps;
        Self {
            transmission_mj: model.transmission_power_mw() * download_sec,
            decode_mj: model.decode_power_mw(p.scheme, p.fps) * p.duration_sec,
            render_mj: model.render_power_mw(p.fps) * p.duration_sec,
        }
    }

    /// Total energy (`E_t + E_d + E_r`), mJ.
    pub fn total_mj(&self) -> f64 {
        self.transmission_mj + self.decode_mj + self.render_mj
    }

    /// Element-wise sum, for accumulating a whole streaming session.
    pub fn accumulate(&mut self, other: &SegmentEnergy) {
        self.transmission_mj += other.transmission_mj;
        self.decode_mj += other.decode_mj;
        self.render_mj += other.render_mj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Phone;

    fn params(bits: f64, scheme: DecoderScheme) -> SegmentEnergyParams {
        SegmentEnergyParams {
            bits,
            bandwidth_bps: 4.0e6,
            fps: 30.0,
            duration_sec: 1.0,
            scheme,
        }
    }

    #[test]
    fn known_pixel3_segment() {
        let m = PowerModel::for_phone(Phone::Pixel3);
        // 4 Mb over 4 Mbps = 1 s of radio at 1429.08 mW.
        let e = SegmentEnergy::compute(&m, params(4.0e6, DecoderScheme::Ptile));
        assert!((e.transmission_mj - 1429.08).abs() < 1e-9);
        assert!((e.decode_mj - (140.73 + 5.96 * 30.0)).abs() < 1e-9);
        assert!((e.render_mj - (57.76 + 4.19 * 30.0)).abs() < 1e-9);
        assert!((e.total_mj() - (1429.08 + 319.53 + 183.46)).abs() < 1e-6);
    }

    #[test]
    fn transmission_scales_with_bits() {
        let m = PowerModel::for_phone(Phone::Pixel3);
        let small = SegmentEnergy::compute(&m, params(1.0e6, DecoderScheme::Ctile));
        let large = SegmentEnergy::compute(&m, params(2.0e6, DecoderScheme::Ctile));
        assert!((large.transmission_mj / small.transmission_mj - 2.0).abs() < 1e-12);
        // Processing energy does not depend on bits.
        assert_eq!(small.decode_mj, large.decode_mj);
        assert_eq!(small.render_mj, large.render_mj);
    }

    #[test]
    fn zero_bits_means_no_radio_energy() {
        let m = PowerModel::for_phone(Phone::GalaxyS20);
        let e = SegmentEnergy::compute(&m, params(0.0, DecoderScheme::Nontile));
        assert_eq!(e.transmission_mj, 0.0);
        assert!(e.decode_mj > 0.0 && e.render_mj > 0.0);
    }

    #[test]
    fn ptile_segment_cheaper_than_ctile() {
        // Same downloaded bits: the pipeline difference alone should favour
        // the Ptile (one decoder vs four).
        let m = PowerModel::for_phone(Phone::Pixel3);
        let ctile = SegmentEnergy::compute(&m, params(3.0e6, DecoderScheme::Ctile));
        let ptile = SegmentEnergy::compute(&m, params(3.0e6, DecoderScheme::Ptile));
        assert!(ptile.total_mj() < ctile.total_mj());
    }

    #[test]
    fn reduced_framerate_saves_processing_energy() {
        let m = PowerModel::for_phone(Phone::Nexus5X);
        let mut p = params(2.0e6, DecoderScheme::Ptile);
        let full = SegmentEnergy::compute(&m, p);
        p.fps = 21.0;
        let reduced = SegmentEnergy::compute(&m, p);
        assert!(reduced.decode_mj < full.decode_mj);
        assert!(reduced.render_mj < full.render_mj);
        assert_eq!(reduced.transmission_mj, full.transmission_mj);
    }

    #[test]
    fn accumulate_sums_parts() {
        let m = PowerModel::for_phone(Phone::Pixel3);
        let e1 = SegmentEnergy::compute(&m, params(1.0e6, DecoderScheme::Ctile));
        let e2 = SegmentEnergy::compute(&m, params(2.0e6, DecoderScheme::Ctile));
        let mut sum = SegmentEnergy::default();
        sum.accumulate(&e1);
        sum.accumulate(&e2);
        assert!((sum.total_mj() - (e1.total_mj() + e2.total_mj())).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        let m = PowerModel::for_phone(Phone::Pixel3);
        let mut p = params(1.0e6, DecoderScheme::Ctile);
        p.bandwidth_bps = 0.0;
        let _ = SegmentEnergy::compute(&m, p);
    }

    #[test]
    #[should_panic(expected = "fps")]
    fn zero_fps_panics() {
        let m = PowerModel::for_phone(Phone::Pixel3);
        let mut p = params(1.0e6, DecoderScheme::Ctile);
        p.fps = 0.0;
        let _ = SegmentEnergy::compute(&m, p);
    }
}

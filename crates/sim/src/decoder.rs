//! The multi-decoder pipeline model (Section II, Fig. 2b).
//!
//! Decoding the nine FoV tiles with `n` concurrent hardware decoders
//! shortens the decode but complicates the pipeline: CPU context switches
//! make power grow much faster than time shrinks. The paper measures, on a
//! Pixel 3 at 30 fps:
//!
//! | configuration | decode time | power |
//! |---------------|-------------|-------|
//! | 1 decoder     | 1.3 s       | 241 mW |
//! | 9 decoders    | 0.5 s       | 846 mW |
//! | Ptile (1 decoder, one large tile) | 0.24 s | 287 mW |
//!
//! We model time as `t(n) = t₁ / (1 + a(n−1))` (diminishing parallel
//! speed-up) and power as `p(n) = p₁ · (1 + b(n−1))` (linear context-switch
//! overhead), with `a`, `b` solved exactly from the 1- and 9-decoder
//! anchors; the Ptile is its own measured point.

/// Paper anchor: decode time of the 9 FoV tiles with one decoder, seconds.
pub const CTILE_ONE_DECODER_TIME_SEC: f64 = 1.3;
/// Paper anchor: decode power with one decoder, mW.
pub const CTILE_ONE_DECODER_POWER_MW: f64 = 241.0;
/// Paper anchor: decode time with nine decoders, seconds.
pub const CTILE_NINE_DECODER_TIME_SEC: f64 = 0.5;
/// Paper anchor: decode power with nine decoders, mW.
pub const CTILE_NINE_DECODER_POWER_MW: f64 = 846.0;
/// Paper anchor: Ptile decode time (one decoder, one large tile), seconds.
pub const PTILE_DECODE_TIME_SEC: f64 = 0.24;
/// Paper anchor: Ptile decode power, mW.
pub const PTILE_DECODE_POWER_MW: f64 = 287.0;
/// Time to tear down and reinitialise a wedged hardware codec before the
/// retry decode (MediaCodec `reset()` + configure + first-frame latency;
/// ~200 ms is the ballpark Android vendors quote).
pub const DECODER_REINIT_SEC: f64 = 0.2;

/// The calibrated decode-pipeline model.
///
/// # Example
///
/// ```
/// use ee360_sim::decoder::DecoderPipeline;
///
/// let pipe = DecoderPipeline::paper_default();
/// // More decoders: faster but much more power (Fig. 2b's crossover).
/// assert!(pipe.decode_time_sec(9) < pipe.decode_time_sec(1));
/// assert!(pipe.decode_power_mw(9) > 3.0 * pipe.decode_power_mw(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderPipeline {
    t1_sec: f64,
    p1_mw: f64,
    /// Parallel speed-up coefficient: `t(n) = t1 / (1 + a(n−1))`.
    speedup_a: f64,
    /// Context-switch overhead coefficient: `p(n) = p1 (1 + b(n−1))`.
    overhead_b: f64,
}

ee360_support::impl_json_struct!(DecoderPipeline {
    t1_sec,
    p1_mw,
    speedup_a,
    overhead_b
});

impl DecoderPipeline {
    /// The model calibrated to the paper's Pixel 3 measurements.
    pub fn paper_default() -> Self {
        // Solve t(9) and p(9) from the anchors.
        let a = (CTILE_ONE_DECODER_TIME_SEC / CTILE_NINE_DECODER_TIME_SEC - 1.0) / 8.0;
        let b = (CTILE_NINE_DECODER_POWER_MW / CTILE_ONE_DECODER_POWER_MW - 1.0) / 8.0;
        Self {
            t1_sec: CTILE_ONE_DECODER_TIME_SEC,
            p1_mw: CTILE_ONE_DECODER_POWER_MW,
            speedup_a: a,
            overhead_b: b,
        }
    }

    /// Time to decode one segment's FoV tiles with `n` concurrent decoders.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn decode_time_sec(&self, n_decoders: usize) -> f64 {
        assert!(n_decoders > 0, "need at least one decoder");
        self.t1_sec / (1.0 + self.speedup_a * (n_decoders as f64 - 1.0))
    }

    /// Power while decoding with `n` concurrent decoders, mW.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn decode_power_mw(&self, n_decoders: usize) -> f64 {
        assert!(n_decoders > 0, "need at least one decoder");
        self.p1_mw * (1.0 + self.overhead_b * (n_decoders as f64 - 1.0))
    }

    /// Per-segment decode *energy* with `n` decoders, mJ (time × power —
    /// the quantity whose minimum motivates the Ptile design).
    pub fn decode_energy_mj(&self, n_decoders: usize) -> f64 {
        self.decode_time_sec(n_decoders) * self.decode_power_mw(n_decoders)
    }

    /// The Ptile decode point: (time, power) with a single decoder on one
    /// large tile.
    pub fn ptile_decode(&self) -> (f64, f64) {
        (PTILE_DECODE_TIME_SEC, PTILE_DECODE_POWER_MW)
    }

    /// The Ptile decode energy, mJ.
    pub fn ptile_decode_energy_mj(&self) -> f64 {
        PTILE_DECODE_TIME_SEC * PTILE_DECODE_POWER_MW
    }

    /// Wall-clock cost of recovering from a wedged decoder with `n`
    /// concurrent decoders: codec reinitialisation plus the re-decode.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn recovery_time_sec(&self, n_decoders: usize) -> f64 {
        DECODER_REINIT_SEC + self.decode_time_sec(n_decoders)
    }
}

impl Default for DecoderPipeline {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe() -> DecoderPipeline {
        DecoderPipeline::paper_default()
    }

    #[test]
    fn anchors_reproduced_exactly() {
        let p = pipe();
        assert!((p.decode_time_sec(1) - 1.3).abs() < 1e-12);
        assert!((p.decode_power_mw(1) - 241.0).abs() < 1e-12);
        assert!((p.decode_time_sec(9) - 0.5).abs() < 1e-9);
        assert!((p.decode_power_mw(9) - 846.0).abs() < 1e-9);
    }

    #[test]
    fn paper_quoted_ratios() {
        // "decoding time reduces ... around 2.5X, but the power increases
        // ... around 3.5X" (Section II).
        let p = pipe();
        let time_ratio = p.decode_time_sec(1) / p.decode_time_sec(9);
        let power_ratio = p.decode_power_mw(9) / p.decode_power_mw(1);
        assert!((time_ratio - 2.6).abs() < 0.2);
        assert!((power_ratio - 3.5).abs() < 0.2);
    }

    #[test]
    fn time_monotone_decreasing_power_increasing() {
        let p = pipe();
        for n in 1..9 {
            assert!(p.decode_time_sec(n + 1) < p.decode_time_sec(n));
            assert!(p.decode_power_mw(n + 1) > p.decode_power_mw(n));
        }
    }

    #[test]
    fn one_decoder_is_not_realtime_for_ctile() {
        // 1.3 s to decode a 1 s segment: why multiple decoders are needed.
        let p = pipe();
        assert!(p.decode_time_sec(1) > 1.0);
        assert!(p.decode_time_sec(4) <= 1.0);
    }

    #[test]
    fn ptile_beats_every_multi_decoder_configuration() {
        // Fig. 2's punchline: the Ptile achieves both lower time and lower
        // energy than any concurrent-decoder setup.
        let p = pipe();
        let (pt_time, _) = p.ptile_decode();
        let pt_energy = p.ptile_decode_energy_mj();
        for n in 1..=9 {
            assert!(pt_time < p.decode_time_sec(n), "time at n={n}");
            assert!(pt_energy < p.decode_energy_mj(n), "energy at n={n}");
        }
    }

    #[test]
    fn decode_energy_has_interior_minimum() {
        // Energy n=1: 1.3·241 ≈ 313; n=9: 0.5·846 = 423 — adding decoders
        // eventually wastes energy even though time keeps dropping.
        let p = pipe();
        assert!(p.decode_energy_mj(9) > p.decode_energy_mj(1));
    }

    #[test]
    #[should_panic(expected = "at least one decoder")]
    fn zero_decoders_panics() {
        let _ = pipe().decode_time_sec(0);
    }

    #[test]
    fn recovery_costs_reinit_plus_redecode() {
        let p = pipe();
        let r = p.recovery_time_sec(4);
        assert!((r - (DECODER_REINIT_SEC + p.decode_time_sec(4))).abs() < 1e-12);
        assert!(r > p.decode_time_sec(4));
    }
}

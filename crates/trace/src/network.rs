//! LTE-like network bandwidth traces.
//!
//! The paper drives its evaluation with the HTTP/2-over-LTE throughput
//! trace of van der Hooft et al. \[27\], linearly scaled into two
//! conditions: *trace 2* averages 3.9 Mbps and varies between 2.3 and
//! 8.4 Mbps, and *trace 1* is exactly twice trace 2 (Section V-A). We
//! synthesise trace 2 as a mean-reverting bounded random walk with bursty
//! excursions, then obtain trace 1 with the paper's own `scale` rule.

use ee360_support::rng::StdRng;

/// Shape parameters of the synthetic LTE trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LteProfile {
    /// Long-run mean throughput, bits per second.
    pub mean_bps: f64,
    /// Hard lower bound, bits per second.
    pub min_bps: f64,
    /// Hard upper bound, bits per second.
    pub max_bps: f64,
    /// Mean-reversion strength per second (0..1).
    pub reversion: f64,
    /// Per-second volatility, bits per second.
    pub volatility_bps: f64,
}

ee360_support::impl_json_struct!(LteProfile {
    mean_bps,
    min_bps,
    max_bps,
    reversion,
    volatility_bps
});

impl LteProfile {
    /// The paper's *trace 2*: mean 3.9 Mbps, range \[2.3, 8.4\] Mbps.
    pub fn paper_trace2() -> Self {
        Self {
            mean_bps: 3.9e6,
            min_bps: 2.3e6,
            max_bps: 8.4e6,
            reversion: 0.18,
            volatility_bps: 0.9e6,
        }
    }
}

/// A bandwidth trace with one sample per second, looping past its end.
///
/// # Example
///
/// ```
/// use ee360_trace::network::{LteProfile, NetworkTrace};
///
/// let t2 = NetworkTrace::generate_lte(LteProfile::paper_trace2(), 300, 7);
/// let t1 = t2.scaled(2.0); // the paper's trace 1
/// assert!((t1.mean_bps() / t2.mean_bps() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTrace {
    samples_bps: Vec<f64>,
}

ee360_support::impl_json_struct!(NetworkTrace { samples_bps });

impl NetworkTrace {
    /// Builds a trace from explicit per-second samples.
    ///
    /// Zero samples are legal — they model a dead radio (tunnel, airplane
    /// mode, deep outage). Downloads make no progress during zero-bandwidth
    /// seconds; see [`NetworkTrace::download_time`] for the all-zero
    /// sentinel and [`FaultyLink::try_download`](crate::fault::FaultyLink::try_download)
    /// for the deadline-bounded download resilient clients use.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains a negative or non-finite
    /// value.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "trace must have at least one sample");
        assert!(
            samples.iter().all(|s| s.is_finite() && *s >= 0.0),
            "bandwidth samples must be non-negative"
        );
        Self {
            samples_bps: samples,
        }
    }

    /// Synthesises an LTE-like trace of `duration_sec` seconds.
    ///
    /// The walk mean-reverts towards `profile.mean_bps`, takes occasional
    /// multi-second bursts towards the bounds (cell handovers, contention),
    /// and is clamped into `[min_bps, max_bps]`.
    pub fn generate_lte(profile: LteProfile, duration_sec: usize, seed: u64) -> Self {
        assert!(duration_sec > 0, "trace duration must be positive");
        assert!(
            profile.min_bps > 0.0 && profile.max_bps > profile.min_bps,
            "profile bounds must satisfy 0 < min < max"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = profile.mean_bps;
        let mut burst: f64 = 0.0; // additive burst state, decays
        let mut samples = Vec::with_capacity(duration_sec);
        for _ in 0..duration_sec {
            // Occasional bursts towards either bound.
            if rng.gen_range(0.0..1.0) < 0.06 {
                let up = rng.gen_range(0.0..1.0) < 0.5;
                let magnitude = rng.gen_range(0.8..2.4) * profile.volatility_bps;
                burst = if up { magnitude } else { -magnitude };
            }
            burst *= 0.75;
            let noise = rng.gen_range(-1.0..1.0) * profile.volatility_bps * 0.6;
            x += profile.reversion * (profile.mean_bps - x) + noise + burst * 0.4;
            x = x.clamp(profile.min_bps, profile.max_bps);
            samples.push(x);
        }
        Self {
            samples_bps: samples,
        }
    }

    /// The paper's *trace 2* at a given length and seed.
    pub fn paper_trace2(duration_sec: usize, seed: u64) -> Self {
        Self::generate_lte(LteProfile::paper_trace2(), duration_sec, seed)
    }

    /// The paper's *trace 1*: trace 2 linearly scaled by 2×.
    pub fn paper_trace1(duration_sec: usize, seed: u64) -> Self {
        Self::paper_trace2(duration_sec, seed).scaled(2.0)
    }

    /// A copy with a throughput collapse injected: samples in
    /// `[start_sec, start_sec + duration_sec)` are clamped down to
    /// `floor_bps` (a cell handover, a tunnel, a congested basestation).
    /// Used by the robustness tests and failure-injection ablations.
    ///
    /// A floor of `0.0` is legal and models a true dead-radio window:
    /// downloads crossing it make no progress until the window ends, and
    /// resilient clients bound their exposure with
    /// [`FaultyLink::try_download`](crate::fault::FaultyLink::try_download).
    ///
    /// # Panics
    ///
    /// Panics if `floor_bps` is negative or not finite, or the window is
    /// empty or out of range.
    pub fn with_outage(&self, start_sec: usize, duration_sec: usize, floor_bps: f64) -> Self {
        assert!(
            floor_bps.is_finite() && floor_bps >= 0.0,
            "outage floor must be non-negative"
        );
        assert!(duration_sec > 0, "outage must last at least one second");
        assert!(
            start_sec + duration_sec <= self.samples_bps.len(),
            "outage window exceeds the trace"
        );
        let mut samples = self.samples_bps.clone();
        for s in samples.iter_mut().skip(start_sec).take(duration_sec) {
            *s = s.min(floor_bps);
        }
        Self {
            samples_bps: samples,
        }
    }

    /// A copy with every sample multiplied by `factor` (the paper's linear
    /// scaling between network conditions).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        Self {
            samples_bps: self.samples_bps.iter().map(|s| s * factor).collect(),
        }
    }

    /// Number of one-second samples.
    pub fn len(&self) -> usize {
        self.samples_bps.len()
    }

    /// `true` if the trace has no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.samples_bps.is_empty()
    }

    /// Bandwidth at absolute time `t_sec` (piecewise constant per second;
    /// the trace loops past its end, as the paper replays its trace over
    /// videos longer than the capture).
    pub fn bandwidth_at(&self, t_sec: f64) -> f64 {
        assert!(t_sec >= 0.0, "time must be non-negative");
        let idx = (t_sec.floor() as usize) % self.samples_bps.len();
        self.samples_bps.get(idx).copied().unwrap_or(0.0)
    }

    /// Mean throughput over the whole trace, bits per second.
    pub fn mean_bps(&self) -> f64 {
        self.samples_bps.iter().sum::<f64>() / self.samples_bps.len() as f64
    }

    /// Minimum sample, bits per second.
    pub fn min_bps(&self) -> f64 {
        self.samples_bps
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample, bits per second.
    pub fn max_bps(&self) -> f64 {
        self.samples_bps
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Time to download `bits` starting at `start_sec`, integrating the
    /// piecewise-constant bandwidth. Returns the duration in seconds.
    ///
    /// Zero-bandwidth seconds contribute time but no progress. If the
    /// trace has no positive sample at all the download can never finish
    /// and the sentinel `f64::INFINITY` is returned — callers that must
    /// bound their exposure use
    /// [`FaultyLink::try_download`](crate::fault::FaultyLink::try_download).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is negative or `start_sec` is negative.
    pub fn download_time(&self, bits: f64, start_sec: f64) -> f64 {
        assert!(bits >= 0.0, "bits must be non-negative");
        assert!(start_sec >= 0.0, "start time must be non-negative");
        if bits <= 0.0 {
            return 0.0;
        }
        if self.max_bps() <= 0.0 {
            return f64::INFINITY;
        }
        let mut remaining = bits;
        let mut t = start_sec;
        loop {
            let bw = self.bandwidth_at(t);
            // Time left in the current one-second slot.
            let slot_end = t.floor() + 1.0;
            let slot_left = slot_end - t;
            let capacity = bw * slot_left;
            if bw > 0.0 && remaining <= capacity {
                return t + remaining / bw - start_sec;
            }
            remaining -= capacity;
            t = slot_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    fn trace2() -> NetworkTrace {
        NetworkTrace::paper_trace2(600, 42)
    }

    #[test]
    fn trace2_statistics_match_paper() {
        let t = trace2();
        let mean = t.mean_bps();
        assert!(
            (3.3e6..=4.7e6).contains(&mean),
            "mean {mean} outside the paper's 3.9 Mbps neighbourhood"
        );
        assert!(t.min_bps() >= 2.3e6);
        assert!(t.max_bps() <= 8.4e6);
        // The trace actually explores its range.
        assert!(t.max_bps() - t.min_bps() > 2.0e6);
    }

    #[test]
    fn trace1_is_double_trace2() {
        let t2 = NetworkTrace::paper_trace2(300, 9);
        let t1 = NetworkTrace::paper_trace1(300, 9);
        for t in 0..300 {
            let a = t1.bandwidth_at(t as f64);
            let b = t2.bandwidth_at(t as f64);
            assert!((a / b - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(
            NetworkTrace::paper_trace2(100, 5),
            NetworkTrace::paper_trace2(100, 5)
        );
        assert_ne!(
            NetworkTrace::paper_trace2(100, 5),
            NetworkTrace::paper_trace2(100, 6)
        );
    }

    #[test]
    fn trace_loops_past_end() {
        let t = NetworkTrace::from_samples(vec![1.0e6, 2.0e6]);
        assert_eq!(t.bandwidth_at(0.5), 1.0e6);
        assert_eq!(t.bandwidth_at(1.5), 2.0e6);
        assert_eq!(t.bandwidth_at(2.5), 1.0e6);
        assert_eq!(t.bandwidth_at(7.0), 2.0e6);
    }

    #[test]
    fn download_time_constant_bandwidth() {
        let t = NetworkTrace::from_samples(vec![4.0e6]);
        assert!((t.download_time(2.0e6, 0.0) - 0.5).abs() < 1e-12);
        assert!((t.download_time(8.0e6, 0.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn download_time_spans_slots() {
        // 1 Mbps then 3 Mbps: 2 Mb takes 1 s (1 Mb) + 1/3 s (remaining 1 Mb).
        let t = NetworkTrace::from_samples(vec![1.0e6, 3.0e6]);
        let d = t.download_time(2.0e6, 0.0);
        assert!((d - (1.0 + 1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn download_time_mid_slot_start() {
        let t = NetworkTrace::from_samples(vec![2.0e6, 4.0e6]);
        // Start at 0.75 s: 0.25 s of 2 Mbps (0.5 Mb) then 4 Mbps.
        let d = t.download_time(1.5e6, 0.75);
        assert!((d - (0.25 + 1.0e6 / 4.0e6)).abs() < 1e-9);
    }

    #[test]
    fn zero_bits_downloads_instantly() {
        let t = trace2();
        assert_eq!(t.download_time(0.0, 3.0), 0.0);
    }

    #[test]
    fn outage_clamps_window_only() {
        let t = NetworkTrace::from_samples(vec![4.0e6; 10]);
        let o = t.with_outage(3, 4, 0.5e6);
        for i in 0..10 {
            let expected = if (3..7).contains(&i) { 0.5e6 } else { 4.0e6 };
            assert_eq!(o.bandwidth_at(i as f64), expected, "second {i}");
        }
    }

    #[test]
    fn outage_never_raises_bandwidth() {
        let t = NetworkTrace::from_samples(vec![0.3e6, 4.0e6]);
        let o = t.with_outage(0, 2, 1.0e6);
        assert_eq!(o.bandwidth_at(0.0), 0.3e6); // already below the floor
        assert_eq!(o.bandwidth_at(1.0), 1.0e6);
    }

    #[test]
    fn download_crawls_through_outage() {
        let t = NetworkTrace::from_samples(vec![4.0e6; 10]).with_outage(1, 3, 0.2e6);
        // 2 Mb starting at t=0.9: 0.1 s at 4 Mbps (0.4 Mb), 3 s crawling
        // at 0.2 Mbps (0.6 Mb), then 1.0 Mb at 4 Mbps (0.25 s) = 3.35 s,
        // vs 0.5 s without the outage.
        let d = t.download_time(2.0e6, 0.9);
        assert!((d - 3.35).abs() < 1e-9, "got {d}");
    }

    /// The pre-resilience behaviour: a *positive* floor still clamps the
    /// window exactly as it always did. Kept as the deprecated-path pin
    /// now that zero floors are additionally legal.
    #[test]
    fn deprecated_positive_floor_path_still_clamps() {
        let t = NetworkTrace::from_samples(vec![4.0e6; 10]);
        let o = t.with_outage(2, 3, 0.25e6);
        for i in 0..10 {
            let expected = if (2..5).contains(&i) { 0.25e6 } else { 4.0e6 };
            assert_eq!(o.bandwidth_at(i as f64), expected, "second {i}");
        }
        // And downloads crawl through it at the floor rate, as before.
        assert!(o.download_time(1.0e6, 2.0) > t.download_time(1.0e6, 2.0));
    }

    #[test]
    fn zero_floor_outage_is_legal_and_dead() {
        let t = NetworkTrace::from_samples(vec![4.0e6; 10]);
        let o = t.with_outage(3, 4, 0.0);
        for i in 3..7 {
            assert_eq!(o.bandwidth_at(i as f64), 0.0, "second {i}");
        }
        // A download issued mid-outage waits out the dead window, then
        // completes: 2 s dead (t=5..7) + 0.5 s at 4 Mbps.
        let d = o.download_time(2.0e6, 5.0);
        assert!((d - 2.5).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn all_zero_trace_returns_infinity_sentinel() {
        let t = NetworkTrace::from_samples(vec![0.0, 0.0]);
        assert_eq!(t.download_time(1.0e6, 0.0), f64::INFINITY);
        // The deadline-bounded download terminates with None instead.
        let plan = crate::fault::FaultPlan::none();
        let link = crate::fault::FaultyLink::new(&t, &plan);
        assert_eq!(link.try_download(1.0e6, 0.0, 30.0), None);
    }

    #[test]
    #[should_panic(expected = "exceeds the trace")]
    fn outage_out_of_range_panics() {
        let _ = NetworkTrace::from_samples(vec![1.0e6; 5]).with_outage(4, 3, 0.5e6);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_panics() {
        let _ = NetworkTrace::from_samples(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bandwidth_sample_panics() {
        let _ = NetworkTrace::from_samples(vec![1.0e6, -0.5e6]);
    }

    proptest! {
        #[test]
        fn download_time_superadditive_in_bits(
            a in 1.0e5f64..1.0e7, b in 1.0e5f64..1.0e7, start in 0.0f64..50.0,
        ) {
            // Downloading a then b back-to-back takes exactly as long as
            // downloading a+b (work conservation of the integrator).
            let t = trace2();
            let whole = t.download_time(a + b, start);
            let first = t.download_time(a, start);
            let second = t.download_time(b, start + first);
            prop_assert!((whole - (first + second)).abs() < 1e-6);
        }

        #[test]
        fn outage_never_speeds_up_downloads(
            bits in 1.0e5f64..1.0e7, start in 0.0f64..30.0,
            o_start in 0usize..40, o_len in 1usize..10,
        ) {
            let t = trace2();
            let hit = t.with_outage(o_start, o_len.min(600 - o_start), 0.5e6);
            prop_assert!(hit.download_time(bits, start) >= t.download_time(bits, start) - 1e-9);
        }

        #[test]
        fn download_time_monotone_in_bits(
            bits in 1.0e5f64..2.0e7, extra in 1.0e5f64..1.0e7, start in 0.0f64..50.0,
        ) {
            let t = trace2();
            let small = t.download_time(bits, start);
            let large = t.download_time(bits + extra, start);
            prop_assert!(large > small);
        }

        #[test]
        fn download_time_bounded_by_min_max_bandwidth(
            bits in 1.0e5f64..2.0e7, start in 0.0f64..50.0,
        ) {
            let t = trace2();
            let d = t.download_time(bits, start);
            prop_assert!(d <= bits / t.min_bps() + 1e-9);
            prop_assert!(d >= bits / t.max_bps() - 1e-9);
        }

        #[test]
        fn scaled_mean_scales(factor in 0.1f64..5.0) {
            let t = trace2();
            let s = t.scaled(factor);
            prop_assert!((s.mean_bps() / t.mean_bps() - factor).abs() < 1e-9);
        }
    }
}

//! Deterministic fault injection on top of a [`NetworkTrace`].
//!
//! The paper's evaluation (Section V) only exercises *benign* bandwidth
//! fluctuation; real LTE clients additionally survive dead-radio windows,
//! lost or corrupt segments and decoder hiccups. This module composes a
//! seedable, replay-deterministic fault schedule — a [`FaultPlan`] — over
//! any trace:
//!
//! * **Outages** — true zero-bandwidth windows (tunnels, airplane-mode
//!   toggles, deep handover failures); downloads make no progress.
//! * **Latency spikes** — windows where every request pays an extra RTT
//!   before its first byte (bufferbloat, congested basestations).
//! * **Segment loss** — a request vanishes entirely; the client only
//!   learns via its own timeout.
//! * **Segment corruption** — the payload arrives but fails its checksum
//!   and must be refetched.
//! * **Decoder failures** — the hardware decoder wedges on a segment and
//!   must be reinitialised before a retry decodes.
//!
//! Two determinism rules make same-seed replay byte-identical:
//!
//! 1. *Windowed* faults (outages, spikes) are pre-generated into a sorted
//!    event list by a seeded [`StdRng`] walk, so the schedule is a pure
//!    function of `(config, seed)`.
//! 2. *Per-attempt* faults (loss, corruption, decoder) are pure hashes of
//!    `(seed, kind, segment, attempt)` — retrying segment 7 never shifts
//!    the fate of segment 8, no matter how many attempts it takes.

use ee360_support::rng::StdRng;

use crate::network::NetworkTrace;

/// The kinds of fault a plan can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Zero-bandwidth window.
    Outage,
    /// Extra first-byte latency window.
    LatencySpike,
}

ee360_support::impl_json_enum!(FaultKind {
    Outage,
    LatencySpike
});

/// One scheduled (windowed) fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Which fault this is.
    pub kind: FaultKind,
    /// Window start, seconds of wall-clock time.
    pub start_sec: f64,
    /// Window length, seconds.
    pub duration_sec: f64,
    /// Kind-specific magnitude: unused (0) for outages, the extra
    /// first-byte latency in seconds for latency spikes.
    pub magnitude: f64,
}

ee360_support::impl_json_struct!(FaultEvent {
    kind,
    start_sec,
    duration_sec,
    magnitude
});

impl FaultEvent {
    /// Whether `t_sec` falls inside this event's window.
    pub fn covers(&self, t_sec: f64) -> bool {
        t_sec >= self.start_sec && t_sec < self.start_sec + self.duration_sec
    }

    /// The window's end time, seconds.
    pub fn end_sec(&self) -> f64 {
        self.start_sec + self.duration_sec
    }
}

/// Rates and probabilities a generated [`FaultPlan`] draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Expected zero-bandwidth outages per minute of wall-clock time.
    pub outage_rate_per_min: f64,
    /// Outage length bounds, seconds (uniform).
    pub outage_min_sec: f64,
    /// Upper outage length bound, seconds.
    pub outage_max_sec: f64,
    /// Expected latency-spike windows per minute.
    pub spike_rate_per_min: f64,
    /// Spike window length bounds, seconds (uniform).
    pub spike_min_sec: f64,
    /// Upper spike window length bound, seconds.
    pub spike_max_sec: f64,
    /// Extra first-byte latency inside a spike window, seconds (uniform
    /// upper bound; lower bound is half of it).
    pub spike_extra_sec: f64,
    /// Per-(segment, attempt) probability the request vanishes.
    pub loss_prob: f64,
    /// Per-(segment, attempt) probability the payload arrives corrupt.
    pub corruption_prob: f64,
    /// Per-segment probability the decoder wedges on first decode.
    pub decoder_failure_prob: f64,
}

ee360_support::impl_json_struct!(FaultConfig {
    outage_rate_per_min,
    outage_min_sec,
    outage_max_sec,
    spike_rate_per_min,
    spike_min_sec,
    spike_max_sec,
    spike_extra_sec,
    loss_prob,
    corruption_prob,
    decoder_failure_prob
});

impl FaultConfig {
    /// No faults at all (the benign baseline).
    pub fn none() -> Self {
        Self {
            outage_rate_per_min: 0.0,
            outage_min_sec: 0.0,
            outage_max_sec: 0.0,
            spike_rate_per_min: 0.0,
            spike_min_sec: 0.0,
            spike_max_sec: 0.0,
            spike_extra_sec: 0.0,
            loss_prob: 0.0,
            corruption_prob: 0.0,
            decoder_failure_prob: 0.0,
        }
    }

    /// A moderately hostile LTE environment: roughly one short outage and
    /// one latency-spike window per two minutes, 2% loss, 1% corruption,
    /// 1% decoder failures.
    pub fn chaos_default() -> Self {
        Self {
            outage_rate_per_min: 0.5,
            outage_min_sec: 2.0,
            outage_max_sec: 8.0,
            spike_rate_per_min: 0.5,
            spike_min_sec: 3.0,
            spike_max_sec: 10.0,
            spike_extra_sec: 0.8,
            loss_prob: 0.02,
            corruption_prob: 0.01,
            decoder_failure_prob: 0.01,
        }
    }

    fn validate(&self) {
        assert!(
            self.outage_rate_per_min >= 0.0 && self.spike_rate_per_min >= 0.0,
            "fault rates must be non-negative"
        );
        assert!(
            self.outage_max_sec >= self.outage_min_sec && self.outage_min_sec >= 0.0,
            "outage duration bounds must satisfy 0 <= min <= max"
        );
        assert!(
            self.spike_max_sec >= self.spike_min_sec && self.spike_min_sec >= 0.0,
            "spike duration bounds must satisfy 0 <= min <= max"
        );
        assert!(self.spike_extra_sec >= 0.0, "spike latency must be >= 0");
        for p in [
            self.loss_prob,
            self.corruption_prob,
            self.decoder_failure_prob,
        ] {
            assert!((0.0..=1.0).contains(&p), "probability {p} not in [0, 1]");
        }
    }
}

/// Salts separating the per-attempt fault hash streams.
const SALT_LOSS: u64 = 0x4C4F_5353; // "LOSS"
const SALT_CORRUPT: u64 = 0x434F_5252; // "CORR"
const SALT_DECODER: u64 = 0x4445_4344; // "DECD"

/// A deterministic fault schedule.
///
/// # Example
///
/// ```
/// use ee360_trace::fault::{FaultConfig, FaultPlan};
///
/// let plan = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 7);
/// // Same seed, same schedule — byte-identical JSON.
/// let replay = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 7);
/// assert_eq!(plan, replay);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
    seed: u64,
    events: Vec<FaultEvent>,
}

ee360_support::impl_json_struct!(FaultPlan {
    config,
    seed,
    events
});

impl FaultPlan {
    /// A plan with no faults (all queries report a healthy link).
    pub fn none() -> Self {
        Self {
            config: FaultConfig::none(),
            seed: 0,
            events: Vec::new(),
        }
    }

    /// A plan with exactly one zero-bandwidth outage — the canonical chaos
    /// scenario (10 s dead radio mid-stream) and the building block for
    /// hand-written schedules.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or starts in the past.
    pub fn single_outage(start_sec: f64, duration_sec: f64) -> Self {
        Self::none().and_outage(start_sec, duration_sec)
    }

    /// Adds one zero-bandwidth outage window (builder-style composition).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or starts before time zero.
    pub fn and_outage(mut self, start_sec: f64, duration_sec: f64) -> Self {
        assert!(start_sec >= 0.0, "outage must start at or after time zero");
        assert!(duration_sec > 0.0, "outage must have positive duration");
        self.events.push(FaultEvent {
            kind: FaultKind::Outage,
            start_sec,
            duration_sec,
            magnitude: 0.0,
        });
        self.sort_events();
        self
    }

    /// Adds one latency-spike window adding `extra_sec` of first-byte
    /// latency to every request issued inside it.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty, starts before time zero, or the
    /// extra latency is negative.
    pub fn and_latency_spike(mut self, start_sec: f64, duration_sec: f64, extra_sec: f64) -> Self {
        assert!(start_sec >= 0.0, "spike must start at or after time zero");
        assert!(duration_sec > 0.0, "spike must have positive duration");
        assert!(extra_sec >= 0.0, "extra latency must be non-negative");
        self.events.push(FaultEvent {
            kind: FaultKind::LatencySpike,
            start_sec,
            duration_sec,
            magnitude: extra_sec,
        });
        self.sort_events();
        self
    }

    /// Overrides the per-attempt fault probabilities of a hand-built plan
    /// (loss / corruption / decoder failures), keeping its windows.
    pub fn with_attempt_faults(mut self, config: FaultConfig, seed: u64) -> Self {
        config.validate();
        self.config = config;
        self.seed = seed;
        self
    }

    /// Generates a schedule over `[0, horizon_sec)` from rates in
    /// `config`, fully determined by `seed`.
    ///
    /// The walk visits whole seconds; at each second outside an existing
    /// window it starts an outage with probability `rate/60` (and
    /// likewise for spikes), drawing the window length uniformly from the
    /// configured bounds. Windows never overlap windows of the same kind.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_sec` is not positive or the config is invalid.
    pub fn generate(config: FaultConfig, horizon_sec: f64, seed: u64) -> Self {
        assert!(
            horizon_sec.is_finite() && horizon_sec > 0.0,
            "horizon must be positive"
        );
        config.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut outage_free_at = 0.0f64;
        let mut spike_free_at = 0.0f64;
        // One Bernoulli draw per whole second, stepping in f64 so the
        // loop variable never round-trips through an integer cast.
        let mut t = 0.0f64;
        while t < horizon_sec {
            if t >= outage_free_at
                && config.outage_rate_per_min > 0.0
                && rng.gen_bool((config.outage_rate_per_min / 60.0).min(1.0))
            {
                let duration = if config.outage_max_sec > config.outage_min_sec {
                    rng.gen_range(config.outage_min_sec..config.outage_max_sec)
                } else {
                    config.outage_min_sec
                };
                if duration > 0.0 {
                    events.push(FaultEvent {
                        kind: FaultKind::Outage,
                        start_sec: t,
                        duration_sec: duration,
                        magnitude: 0.0,
                    });
                    outage_free_at = t + duration;
                }
            }
            if t >= spike_free_at
                && config.spike_rate_per_min > 0.0
                && rng.gen_bool((config.spike_rate_per_min / 60.0).min(1.0))
            {
                let duration = if config.spike_max_sec > config.spike_min_sec {
                    rng.gen_range(config.spike_min_sec..config.spike_max_sec)
                } else {
                    config.spike_min_sec
                };
                let extra = rng.gen_range(config.spike_extra_sec * 0.5..=config.spike_extra_sec);
                if duration > 0.0 && extra > 0.0 {
                    events.push(FaultEvent {
                        kind: FaultKind::LatencySpike,
                        start_sec: t,
                        duration_sec: duration,
                        magnitude: extra,
                    });
                    spike_free_at = t + duration;
                }
            }
            t += 1.0;
        }
        let mut plan = Self {
            config,
            seed,
            events,
        };
        plan.sort_events();
        plan
    }

    fn sort_events(&mut self) {
        self.events.sort_by(|a, b| {
            a.start_sec
                .total_cmp(&b.start_sec)
                .then_with(|| (a.kind as usize).cmp(&(b.kind as usize)))
        });
    }

    /// The scheduled windowed events, sorted by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The per-attempt fault configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// `true` while a zero-bandwidth outage covers `t_sec`.
    pub fn in_outage(&self, t_sec: f64) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == FaultKind::Outage && e.covers(t_sec))
    }

    /// Extra first-byte latency a request issued at `t_sec` pays, seconds.
    pub fn extra_latency_sec(&self, t_sec: f64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::LatencySpike && e.covers(t_sec))
            .map(|e| e.magnitude)
            .fold(0.0, f64::max)
    }

    /// Whether attempt `attempt` at segment `segment` vanishes (loss).
    /// Pure in `(seed, segment, attempt)`.
    pub fn segment_lost(&self, segment: usize, attempt: usize) -> bool {
        self.attempt_fault(SALT_LOSS, segment, attempt, self.config.loss_prob)
    }

    /// Whether attempt `attempt` at segment `segment` arrives corrupt.
    pub fn segment_corrupt(&self, segment: usize, attempt: usize) -> bool {
        self.attempt_fault(SALT_CORRUPT, segment, attempt, self.config.corruption_prob)
    }

    /// Whether the decoder wedges on its first decode of `segment`.
    pub fn decoder_fails(&self, segment: usize) -> bool {
        self.attempt_fault(SALT_DECODER, segment, 0, self.config.decoder_failure_prob)
    }

    fn attempt_fault(&self, salt: u64, segment: usize, attempt: usize, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        // One fresh SplitMix64-seeded stream per (salt, segment, attempt):
        // a pure hash, so retries elsewhere never perturb this draw.
        let mix = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.rotate_left(17))
            .wrapping_add((segment as u64).wrapping_mul(0xD134_2543_DE82_EF95))
            .wrapping_add((attempt as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD));
        StdRng::seed_from_u64(mix).gen_f64() < prob
    }

    /// Total scheduled outage time, seconds.
    pub fn total_outage_sec(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::Outage)
            .map(|e| e.duration_sec)
            .sum()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// A [`NetworkTrace`] with a [`FaultPlan`] composed on top: the link the
/// resilient download pipeline actually sees.
///
/// # Example
///
/// ```
/// use ee360_trace::fault::{FaultPlan, FaultyLink};
/// use ee360_trace::network::NetworkTrace;
///
/// let net = NetworkTrace::from_samples(vec![4.0e6; 60]);
/// let plan = FaultPlan::single_outage(10.0, 5.0);
/// let link = FaultyLink::new(&net, &plan);
/// assert_eq!(link.bandwidth_at(12.0), 0.0); // dead mid-outage
/// assert_eq!(link.bandwidth_at(20.0), 4.0e6);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FaultyLink<'a> {
    trace: &'a NetworkTrace,
    plan: &'a FaultPlan,
}

impl<'a> FaultyLink<'a> {
    /// Composes a plan over a trace.
    pub fn new(trace: &'a NetworkTrace, plan: &'a FaultPlan) -> Self {
        Self { trace, plan }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &NetworkTrace {
        self.trace
    }

    /// The composed fault plan.
    pub fn plan(&self) -> &FaultPlan {
        self.plan
    }

    /// Bandwidth at `t_sec` with outages applied, bits per second.
    pub fn bandwidth_at(&self, t_sec: f64) -> f64 {
        if self.plan.in_outage(t_sec) {
            0.0
        } else {
            self.trace.bandwidth_at(t_sec)
        }
    }

    /// Deadline-bounded download over the faulty link: latency spikes
    /// delay the first byte, outages freeze progress. Returns the elapsed
    /// time (including the spike latency) or `None` when `deadline_sec`
    /// expires first. Always terminates.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `start_sec` is negative, or `deadline_sec` is
    /// not positive.
    pub fn try_download(&self, bits: f64, start_sec: f64, deadline_sec: f64) -> Option<f64> {
        assert!(bits >= 0.0, "bits must be non-negative");
        assert!(start_sec >= 0.0, "start time must be non-negative");
        assert!(
            deadline_sec.is_finite() && deadline_sec > 0.0,
            "deadline must be positive"
        );
        let latency = self.plan.extra_latency_sec(start_sec);
        if latency >= deadline_sec {
            return None;
        }
        if bits <= 0.0 {
            return Some(latency);
        }
        let end = start_sec + deadline_sec;
        let mut remaining = bits;
        let mut t = start_sec + latency;
        while t < end {
            let bw = self.bandwidth_at(t);
            let slot_end = (t.floor() + 1.0).min(end);
            let capacity = bw * (slot_end - t);
            if bw > 0.0 && remaining <= capacity {
                return Some(t + remaining / bw - start_sec);
            }
            remaining -= capacity;
            t = slot_end;
        }
        None
    }

    /// Bits delivered over `[start_sec, start_sec + duration_sec)` with
    /// outages (but not spike latency) applied — the salvageable part of
    /// an abandoned download.
    pub fn bits_delivered(&self, start_sec: f64, duration_sec: f64) -> f64 {
        assert!(start_sec >= 0.0, "start time must be non-negative");
        assert!(
            duration_sec.is_finite() && duration_sec >= 0.0,
            "duration must be non-negative and finite"
        );
        let end = start_sec + duration_sec;
        let mut delivered = 0.0;
        let mut t = start_sec;
        while t < end {
            let slot_end = (t.floor() + 1.0).min(end);
            delivered += self.bandwidth_at(t) * (slot_end - t);
            t = slot_end;
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::json::to_string;
    use ee360_support::prelude::*;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::generate(FaultConfig::chaos_default(), 600.0, 11);
        let b = FaultPlan::generate(FaultConfig::chaos_default(), 600.0, 11);
        assert_eq!(a, b);
        assert_eq!(to_string(&a).unwrap(), to_string(&b).unwrap());
        let c = FaultPlan::generate(FaultConfig::chaos_default(), 600.0, 12);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn chaos_default_actually_schedules_faults() {
        let plan = FaultPlan::generate(FaultConfig::chaos_default(), 600.0, 3);
        assert!(!plan.events().is_empty(), "10 minutes must draw something");
        assert!(plan.total_outage_sec() > 0.0);
        assert!(plan
            .events()
            .iter()
            .any(|e| e.kind == FaultKind::LatencySpike));
    }

    #[test]
    fn windows_of_one_kind_never_overlap() {
        let plan = FaultPlan::generate(FaultConfig::chaos_default(), 1200.0, 5);
        for kind in [FaultKind::Outage, FaultKind::LatencySpike] {
            let mut windows: Vec<&FaultEvent> =
                plan.events().iter().filter(|e| e.kind == kind).collect();
            windows.sort_by(|a, b| a.start_sec.partial_cmp(&b.start_sec).unwrap());
            for pair in windows.windows(2) {
                assert!(
                    pair[1].start_sec >= pair[0].end_sec() - 1e-9,
                    "{kind:?} windows overlap: {:?} then {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn attempt_faults_are_pure_hashes() {
        let plan = FaultPlan::none().with_attempt_faults(
            FaultConfig {
                loss_prob: 0.3,
                corruption_prob: 0.3,
                decoder_failure_prob: 0.3,
                ..FaultConfig::none()
            },
            99,
        );
        for segment in 0..50 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.segment_lost(segment, attempt),
                    plan.segment_lost(segment, attempt)
                );
                assert_eq!(
                    plan.segment_corrupt(segment, attempt),
                    plan.segment_corrupt(segment, attempt)
                );
            }
            assert_eq!(plan.decoder_fails(segment), plan.decoder_fails(segment));
        }
        // The draws are not all identical across segments.
        let losses: Vec<bool> = (0..200).map(|k| plan.segment_lost(k, 0)).collect();
        assert!(losses.iter().any(|l| *l) && losses.iter().any(|l| !*l));
    }

    #[test]
    fn zero_probability_never_faults() {
        let plan = FaultPlan::none();
        for k in 0..100 {
            assert!(!plan.segment_lost(k, 0));
            assert!(!plan.segment_corrupt(k, 1));
            assert!(!plan.decoder_fails(k));
        }
    }

    #[test]
    fn outage_queries() {
        let plan = FaultPlan::single_outage(10.0, 5.0);
        assert!(!plan.in_outage(9.9));
        assert!(plan.in_outage(10.0));
        assert!(plan.in_outage(14.9));
        assert!(!plan.in_outage(15.0));
    }

    #[test]
    fn latency_spike_queries() {
        let plan = FaultPlan::none().and_latency_spike(5.0, 4.0, 0.7);
        assert_eq!(plan.extra_latency_sec(4.9), 0.0);
        assert!((plan.extra_latency_sec(6.0) - 0.7).abs() < 1e-12);
        assert_eq!(plan.extra_latency_sec(9.0), 0.0);
    }

    #[test]
    fn faulty_link_freezes_during_outage() {
        let net = NetworkTrace::from_samples(vec![4.0e6; 30]);
        let plan = FaultPlan::single_outage(2.0, 3.0);
        let link = FaultyLink::new(&net, &plan);
        // 2 Mb starting at t=2: 3 s dead, then 0.5 s at 4 Mbps.
        let d = link.try_download(2.0e6, 2.0, 10.0).expect("fits");
        assert!((d - 3.5).abs() < 1e-9, "got {d}");
        // Issued with too tight a deadline, it gives up.
        assert_eq!(link.try_download(2.0e6, 2.0, 3.2), None);
        // Clean portions behave exactly like the raw trace.
        let clean = net.download_time(2.0e6, 10.0);
        let faulty = link.try_download(2.0e6, 10.0, 10.0).expect("fits");
        assert!((clean - faulty).abs() < 1e-9);
    }

    #[test]
    fn spike_latency_delays_first_byte() {
        let net = NetworkTrace::from_samples(vec![4.0e6; 10]);
        let plan = FaultPlan::none().and_latency_spike(0.0, 5.0, 0.5);
        let link = FaultyLink::new(&net, &plan);
        let d = link.try_download(2.0e6, 1.0, 5.0).expect("fits");
        assert!((d - 1.0).abs() < 1e-9, "0.5 s latency + 0.5 s payload: {d}");
    }

    #[test]
    fn bits_delivered_sees_outages() {
        let net = NetworkTrace::from_samples(vec![4.0e6; 10]);
        let plan = FaultPlan::single_outage(1.0, 2.0);
        let link = FaultyLink::new(&net, &plan);
        assert!((link.bits_delivered(0.0, 4.0) - 8.0e6).abs() < 1e-6);
    }

    #[test]
    fn json_roundtrip() {
        let plan = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 42);
        let json = to_string(&plan).unwrap();
        let back: FaultPlan = ee360_support::json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn empty_outage_panics() {
        let _ = FaultPlan::single_outage(3.0, 0.0);
    }

    proptest! {
        #[test]
        fn schedule_determinism_under_any_seed(seed in 0u64..1_000_000) {
            let a = FaultPlan::generate(FaultConfig::chaos_default(), 240.0, seed);
            let b = FaultPlan::generate(FaultConfig::chaos_default(), 240.0, seed);
            prop_assert_eq!(to_string(&a).unwrap(), to_string(&b).unwrap());
        }

        #[test]
        fn events_stay_inside_horizon(seed in 0u64..10_000, horizon in 60.0f64..900.0) {
            let plan = FaultPlan::generate(FaultConfig::chaos_default(), horizon, seed);
            for e in plan.events() {
                prop_assert!(e.start_sec >= 0.0 && e.start_sec < horizon);
                prop_assert!(e.duration_sec > 0.0);
            }
        }

        #[test]
        fn outage_download_never_faster_than_clean(
            bits in 1.0e5f64..8.0e6, start in 0.0f64..20.0,
        ) {
            let net = NetworkTrace::paper_trace2(120, 3);
            let plan = FaultPlan::single_outage(10.0, 6.0);
            let link = FaultyLink::new(&net, &plan);
            let clean = net.download_time(bits, start);
            if let Some(faulty) = link.try_download(bits, start, 120.0) {
                prop_assert!(faulty >= clean - 1e-9);
            }
        }
    }
}

//! The download engine: Eq. 6 wait, then timeout, retry, abandon,
//! degrade, skip.
//!
//! Every segment download in the workspace runs through this module. A
//! session streams over a [`FaultyLink`] and survives everything a
//! [`FaultPlan`] throws at it, degrading QoE gracefully instead of
//! stalling forever or crashing:
//!
//! 1. every attempt runs under a per-request **timeout**;
//! 2. a failed attempt (timeout, loss, corruption) is **retried** with
//!    exponential **backoff**;
//! 3. a mid-download **abandon** re-requests the segment one rung lower
//!    on the (bitrate, frame-rate) ladder — the caller supplies the
//!    degradation via a `rung → bits` closure, so any ABR controller can
//!    plug in its own replan;
//! 4. when the segment's total deadline is blown the player **skips** it,
//!    charging the blackout to the rebuffer/QoE account and moving on.
//!
//! The paper's benign world (every request eventually completes) is the
//! same engine under [`FaultPlan::none`] and [`RetryPolicy::disabled`]:
//! no fault fires and no timer expires, so each download is the Eq. 6
//! wait followed by the integrated transfer over the trace.
//!
//! The machinery is factored as a **step-wise machine** so both the
//! classic loop engine and the event-driven fleet engine
//! ([`crate::fleet`]) execute literally the same code: a
//! [`SessionCore`] holds the mutable per-session state (buffer, clock,
//! counters), a [`DownloadEnv`] borrows the shared read-only inputs
//! (trace, fault plan, policy), and one download is
//! [`SessionCore::begin_download`] followed by repeated
//! [`SessionCore::step_download`] calls — each step is exactly one
//! attempt (plus its backoff), and the skip path fires when the budget
//! is exhausted.
//!
//! Every path is deterministic: the fault plan is a pure function of its
//! seed and the policy arithmetic is plain `f64`, so same-seed replays
//! serialize byte-identically.

use std::error::Error;
use std::fmt;

use ee360_obs::{Event, Record};
use ee360_trace::fault::{FaultPlan, FaultyLink};
use ee360_trace::network::NetworkTrace;
use ee360_video::segment::SEGMENT_DURATION_SEC;

use crate::buffer::PlaybackBuffer;
use crate::decoder::DecoderPipeline;
use crate::metrics::SegmentTiming;

/// Stand-in for an infinite per-attempt budget ([`RetryPolicy::disabled`]):
/// [`FaultyLink::try_download`] needs a finite deadline, and ~11 days of
/// wall-clock is beyond any trace horizon (it also bounds the slot walk so
/// a dead link costs ~10⁶ iterations, not forever).
const EFFECTIVELY_FOREVER_SEC: f64 = 1.0e6;

fn finite_budget(sec: f64) -> f64 {
    if sec.is_finite() {
        sec
    } else {
        EFFECTIVELY_FOREVER_SEC
    }
}

/// Timeout / retry / abandon configuration of the resilient pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Per-attempt timeout, seconds: how long the client waits for one
    /// request before abandoning it.
    pub attempt_timeout_sec: f64,
    /// Retries after the first attempt (total attempts = `max_retries+1`).
    pub max_retries: usize,
    /// First backoff pause, seconds.
    pub backoff_base_sec: f64,
    /// Multiplier applied per retry (exponential backoff).
    pub backoff_factor: f64,
    /// Backoff ceiling, seconds.
    pub backoff_cap_sec: f64,
    /// Total wall-clock budget per segment, seconds, across all attempts
    /// and backoffs; once blown the segment is skipped.
    pub segment_deadline_sec: f64,
}

ee360_support::impl_json_struct!(RetryPolicy {
    attempt_timeout_sec,
    max_retries,
    backoff_base_sec,
    backoff_factor,
    backoff_cap_sec,
    segment_deadline_sec
});

impl RetryPolicy {
    /// A sane mobile-client default: 4 s per attempt, 3 retries, 0.25 s
    /// backoff doubling to a 2 s cap, 12 s total per segment.
    pub fn default_mobile() -> Self {
        Self {
            attempt_timeout_sec: 4.0,
            max_retries: 3,
            backoff_base_sec: 0.25,
            backoff_factor: 2.0,
            backoff_cap_sec: 2.0,
            segment_deadline_sec: 12.0,
        }
    }

    /// The paper's benign behaviour: wait forever, never retry, never
    /// skip. Paired with [`FaultPlan::none`] it reproduces the seed
    /// semantics exactly.
    pub fn disabled() -> Self {
        Self {
            attempt_timeout_sec: f64::INFINITY,
            max_retries: 0,
            backoff_base_sec: 0.0,
            backoff_factor: 1.0,
            backoff_cap_sec: 0.0,
            segment_deadline_sec: f64::INFINITY,
        }
    }

    /// The pause before retry number `retry` (zero-based):
    /// `min(base · factor^retry, cap)`.
    pub fn backoff_sec(&self, retry: usize) -> f64 {
        (self.backoff_base_sec * self.backoff_factor.powi(retry as i32)).min(self.backoff_cap_sec)
    }

    /// Checks the policy is well formed.
    ///
    /// # Panics
    ///
    /// Panics if a timeout or deadline is not positive, or a backoff
    /// parameter is negative or the factor is below 1; [`Self::check`]
    /// returns those cases as a [`PolicyError`].
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            // lint:allow(no-panic-paths, "documented panic: validate() rejects a malformed policy")
            panic!("{e}");
        }
    }

    /// Fallible [`Self::validate`]: the first malformed field, if any.
    pub fn check(&self) -> Result<(), PolicyError> {
        // Each condition is false on NaN, so a NaN field is malformed too.
        let rules = [
            (self.attempt_timeout_sec > 0.0, PolicyError::AttemptTimeout),
            (
                self.segment_deadline_sec > 0.0,
                PolicyError::SegmentDeadline,
            ),
            (
                self.backoff_base_sec >= 0.0
                    && self.backoff_factor >= 1.0
                    && self.backoff_cap_sec >= 0.0,
                PolicyError::Backoff,
            ),
        ];
        match rules.into_iter().find(|&(ok, _)| !ok) {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

/// Why [`RetryPolicy::check`] rejected a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyError {
    /// The per-attempt timeout is not positive.
    AttemptTimeout,
    /// The per-segment deadline is not positive.
    SegmentDeadline,
    /// A backoff parameter is negative, or the factor is below 1.
    Backoff,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PolicyError::AttemptTimeout => "attempt timeout must be positive",
            PolicyError::SegmentDeadline => "segment deadline must be positive",
            PolicyError::Backoff => "backoff parameters must be non-negative with factor >= 1",
        })
    }
}

impl Error for PolicyError {}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::default_mobile()
    }
}

/// Resilience tallies accumulated over a session — the tail-behaviour
/// numbers fleet runs report alongside energy and QoE.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceCounters {
    /// Download attempts issued (including first attempts).
    pub attempts: usize,
    /// Attempts that failed and were retried.
    pub retries: usize,
    /// Attempts that timed out with no payload at all (losses included).
    pub timeouts: usize,
    /// Mid-download abandons (deadline expired with partial payload).
    pub abandons: usize,
    /// Requests that vanished in transit.
    pub losses: usize,
    /// Payloads that arrived corrupt and were refetched.
    pub corruptions: usize,
    /// Decoder wedges recovered by reinitialising the codec.
    pub decoder_failures: usize,
    /// Segments skipped after exhausting their deadline.
    pub skipped_segments: usize,
    /// Segments delivered below their originally planned rung.
    pub degraded_segments: usize,
    /// Total rungs dropped across all degraded deliveries.
    pub degraded_rungs: usize,
    /// Time spent in backoff pauses, seconds.
    pub backoff_sec: f64,
    /// Blackout charged to playback by skipped segments, seconds (stall
    /// while waiting plus the skipped content itself).
    pub blackout_sec: f64,
    /// Extra wall-clock time faults cost beyond the successful attempts'
    /// own download time, seconds (the recovery bill).
    pub recovery_sec: f64,
    /// Bits burned on attempts that did not deliver (partial payloads).
    pub wasted_bits: f64,
}

ee360_support::impl_json_struct!(ResilienceCounters {
    attempts,
    retries,
    timeouts,
    abandons,
    losses,
    corruptions,
    decoder_failures,
    skipped_segments,
    degraded_segments,
    degraded_rungs,
    backoff_sec,
    blackout_sec,
    recovery_sec,
    wasted_bits
});

impl ResilienceCounters {
    /// Component-wise accumulation (fleet aggregation).
    pub fn accumulate(&mut self, other: &ResilienceCounters) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.abandons += other.abandons;
        self.losses += other.losses;
        self.corruptions += other.corruptions;
        self.decoder_failures += other.decoder_failures;
        self.skipped_segments += other.skipped_segments;
        self.degraded_segments += other.degraded_segments;
        self.degraded_rungs += other.degraded_rungs;
        self.backoff_sec += other.backoff_sec;
        self.blackout_sec += other.blackout_sec;
        self.recovery_sec += other.recovery_sec;
        self.wasted_bits += other.wasted_bits;
    }

    /// `true` when no fault ever fired.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.timeouts == 0
            && self.abandons == 0
            && self.losses == 0
            && self.corruptions == 0
            && self.decoder_failures == 0
            && self.skipped_segments == 0
            && self.degraded_segments == 0
    }
}

/// How one segment's resilient download ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DownloadOutcome {
    /// The segment arrived (possibly after retries, possibly degraded).
    Delivered {
        /// Timing record; `download_sec` covers the whole recovery
        /// (failed attempts, backoffs and the successful download), so
        /// buffer and stall accounting see the true elapsed time.
        timing: SegmentTiming,
        /// Bits of the delivered (possibly degraded) payload.
        bits: f64,
        /// Bits burned on failed attempts before it.
        wasted_bits: f64,
        /// Attempts it took.
        attempts: usize,
        /// Rungs dropped below the original plan (0 = as planned).
        degraded_rungs: usize,
    },
    /// The deadline was exhausted; the player skipped the segment.
    Skipped {
        /// Wall-clock time of the request (after the Eq. 6 wait).
        request_time_sec: f64,
        /// Eq. 6 wait before the first attempt, seconds.
        wait_sec: f64,
        /// Time burned across all attempts and backoffs, seconds.
        elapsed_sec: f64,
        /// Stall while the buffer sat empty during the attempts, plus the
        /// skipped segment's own blacked-out duration, seconds.
        blackout_sec: f64,
        /// Bits burned on the failed attempts.
        wasted_bits: f64,
        /// Attempts made before giving up.
        attempts: usize,
    },
}

impl DownloadOutcome {
    /// `true` for the delivered arm.
    pub fn is_delivered(&self) -> bool {
        matches!(self, DownloadOutcome::Delivered { .. })
    }

    /// Rebuffering this download charged, seconds: the delivered
    /// segment's stall, or for a skip the blackout less the skipped
    /// segment's own duration (the time the buffer sat empty).
    pub fn stall_sec(&self) -> f64 {
        match *self {
            DownloadOutcome::Delivered { timing, .. } => timing.stall_sec,
            DownloadOutcome::Skipped { blackout_sec, .. } => {
                (blackout_sec - SEGMENT_DURATION_SEC).max(0.0)
            }
        }
    }
}

/// The shared, read-only inputs of a step-wise download: everything a
/// [`SessionCore`] needs besides its own mutable state. Borrowing these
/// (instead of owning clones per session) is what lets a fleet of 10⁶
/// sessions share one trace and one fault plan.
#[derive(Debug, Clone, Copy)]
pub struct DownloadEnv<'a> {
    /// Bandwidth trace the downloads run over.
    pub network: &'a NetworkTrace,
    /// Fault plan injected into every attempt.
    pub plan: &'a FaultPlan,
    /// Timeout / retry / backoff policy in force.
    pub policy: &'a RetryPolicy,
    /// Decoder pipeline model (wedge-recovery time).
    pub decoder: &'a DecoderPipeline,
    /// Offset added to the segment index when keying per-attempt faults
    /// (`segment_lost` / `segment_corrupt` / `decoder_fails`), so fleet
    /// sessions sharing one plan draw decorrelated fault streams.
    /// Zero means the fault key is the segment index itself, which is
    /// the single-session behaviour.
    pub fault_base: usize,
}

/// In-flight state of one segment's resilient download — the "program
/// counter" between [`SessionCore::step_download`] calls. `Copy` and a
/// handful of scalars by design: this is the only per-download state the
/// event-driven fleet engine retains, so its size bounds fleet memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownloadState {
    /// Segment being fetched (also the fault key, offset by
    /// [`DownloadEnv::fault_base`]).
    pub segment: usize,
    /// Current degradation rung (starts at 0, bumps on abandon).
    pub rung: usize,
    /// Attempts issued so far.
    pub attempts: usize,
    /// Bits burned on failed attempts so far.
    pub wasted_bits: f64,
    /// Eq. 6 wait charged before the first attempt, seconds.
    pub wait_sec: f64,
    /// Wall-clock time of the request (after the wait), seconds.
    pub request_time_sec: f64,
    /// Absolute deadline: request time plus the per-segment budget.
    pub deadline_end_sec: f64,
}

/// The mutable heart of a resilient session: playback buffer, wall
/// clock, delivery count and fault tallies — 144 B on x86-64, no vectors.
/// Both engines (the loop and the [`crate::fleet`] event queue) drive
/// downloads through this same struct, which is the mechanical half of
/// the bit-identical-replay argument.
///
/// # Example
///
/// ```
/// use ee360_obs::NoopRecorder;
/// use ee360_sim::decoder::DecoderPipeline;
/// use ee360_sim::resilience::{DownloadEnv, RetryPolicy, SessionCore};
/// use ee360_trace::fault::FaultPlan;
/// use ee360_trace::network::NetworkTrace;
///
/// let network = NetworkTrace::from_samples(vec![4.0e6; 120]);
/// let plan = FaultPlan::single_outage(2.0, 10.0); // 10 s dead radio
/// let policy = RetryPolicy::default_mobile();
/// let decoder = DecoderPipeline::paper_default();
/// let env = DownloadEnv {
///     network: &network,
///     plan: &plan,
///     policy: &policy,
///     decoder: &decoder,
///     fault_base: 0,
/// };
/// let mut core = SessionCore::new(3.0);
/// // Startup metadata: the elapsed time comes back even if every attempt
/// // times out.
/// let startup_sec = core.fetch_metadata(&env, 640_000.0, &mut NoopRecorder);
/// assert_eq!(core.clock_sec(), startup_sec);
/// let mut st = core.begin_download(&env, 0);
/// // 2 Mb planned, halving per degradation rung.
/// let mut request = |rung: usize| 2.0e6 / (1u64 << rung) as f64;
/// let out = loop {
///     if let Some(out) = core.step_download(&env, &mut st, &mut request, &mut NoopRecorder) {
///         break out;
///     }
/// };
/// assert!(out.is_delivered() || core.counters().skipped_segments == 1);
/// assert!(out.stall_sec() >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SessionCore {
    buffer: PlaybackBuffer,
    clock_sec: f64,
    segments_completed: usize,
    counters: ResilienceCounters,
}

impl SessionCore {
    /// Creates a core at time zero with an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer threshold is malformed.
    pub fn new(buffer_threshold_sec: f64) -> Self {
        Self {
            buffer: PlaybackBuffer::new(buffer_threshold_sec),
            clock_sec: 0.0,
            segments_completed: 0,
            counters: ResilienceCounters::default(),
        }
    }

    /// Current wall-clock time, seconds.
    pub fn clock_sec(&self) -> f64 {
        self.clock_sec
    }

    /// Current buffer level, seconds of video.
    pub fn buffer_level_sec(&self) -> f64 {
        self.buffer.level_sec()
    }

    /// Segments delivered so far (skips excluded).
    pub fn segments_completed(&self) -> usize {
        self.segments_completed
    }

    /// The running resilience tallies.
    pub fn counters(&self) -> &ResilienceCounters {
        &self.counters
    }

    /// Advances the wall clock without touching the buffer — staggered
    /// fleet session starts.
    ///
    /// # Panics
    ///
    /// Panics if `sec` is negative or not finite.
    pub fn advance_clock(&mut self, sec: f64) {
        assert!(sec.is_finite() && sec >= 0.0, "clock advance must be >= 0");
        self.clock_sec += sec;
    }

    /// Fetches startup metadata (the manifests of the first `H` segments,
    /// Section IV-C step (a)), riding out outages with the same
    /// timeout/backoff machinery (metadata is small but the radio can
    /// still be dead). Advances the clock only, never the buffer, and
    /// returns the elapsed time, whether the fetch succeeded or every
    /// attempt timed out (the session then proceeds without it). Counter
    /// bumps are mirrored into the recorder and retries emit
    /// detail-level events under segment index 0.
    pub fn fetch_metadata(
        &mut self,
        env: &DownloadEnv<'_>,
        bits: f64,
        rec: &mut dyn Record,
    ) -> f64 {
        let started = self.clock_sec;
        let link = FaultyLink::new(env.network, env.plan);
        for attempt in 0..=env.policy.max_retries {
            let budget = finite_budget(env.policy.attempt_timeout_sec);
            if let Some(d) = link.try_download(bits, self.clock_sec, budget) {
                self.clock_sec += d;
                break;
            }
            self.counters.attempts += 1;
            self.counters.timeouts += 1;
            rec.count_at("resilience.attempts", self.clock_sec, 1);
            rec.count_at("resilience.timeouts", self.clock_sec, 1);
            self.clock_sec += budget;
            if attempt < env.policy.max_retries {
                self.counters.retries += 1;
                rec.count_at("resilience.retries", self.clock_sec, 1);
                let pause = env.policy.backoff_sec(attempt);
                self.counters.backoff_sec += pause;
                rec.observe_at("resilience.backoff_sec", self.clock_sec, pause);
                rec.record(Event::Retry {
                    segment: 0,
                    attempt,
                    t_sec: self.clock_sec,
                    backoff_sec: pause,
                });
                self.clock_sec += pause;
            }
        }
        self.clock_sec - started
    }

    /// Opens a segment download: charges the Eq. 6 wait, stamps the
    /// request time and arms the per-segment deadline. The returned
    /// [`DownloadState`] is then fed to [`Self::step_download`] until it
    /// yields an outcome.
    pub fn begin_download(&mut self, env: &DownloadEnv<'_>, segment: usize) -> DownloadState {
        // Eq. 6 wait: don't request while the buffer is above β.
        let wait_sec = (self.buffer.level_sec() - self.buffer.threshold_sec()).max(0.0);
        self.clock_sec += wait_sec;
        let request_time_sec = self.clock_sec;
        DownloadState {
            segment,
            rung: 0,
            attempts: 0,
            wasted_bits: 0.0,
            wait_sec,
            request_time_sec,
            deadline_end_sec: request_time_sec + env.policy.segment_deadline_sec,
        }
    }

    /// Runs exactly one attempt of the recovery ladder (including its
    /// trailing backoff): `None` means the download is still in flight —
    /// call again; `Some` is the final outcome (delivered, or skipped
    /// once attempts/deadline are exhausted). One call corresponds to
    /// one iteration of the original retry loop, which is what makes the
    /// loop and event engines bit-identical.
    ///
    /// `request(rung)` maps a degradation rung to the bits to fetch:
    /// rung 0 is the controller's original plan and each subsequent rung
    /// is one step down the (bitrate, frame-rate) ladder — the caller
    /// wires in its ABR's replan hook. The returned bits must be positive,
    /// finite, and non-increasing in `rung`.
    ///
    /// Fault handling per attempt:
    /// * scheduled **loss** → the request vanishes; the client burns the
    ///   full attempt timeout, then retries after backoff;
    /// * **timeout** (outage / slow link) → mid-download abandon; the
    ///   partial payload is wasted and the *next* attempt degrades one
    ///   rung;
    /// * **corruption** → full download time burned, then refetched;
    /// * **decoder wedge** → recovered inline by reinitialising the codec
    ///   (charged as recovery time, never fails the segment).
    ///
    /// When attempts or the per-segment deadline run out the segment is
    /// skipped: the elapsed time drains the buffer (stalling if it runs
    /// dry), the blackout is tallied, and the session moves on.
    ///
    /// Instrumentation contract: every [`ResilienceCounters`] bump is
    /// mirrored — at the same statement, with the same value — into the
    /// recorder's registry (`resilience.*` counters and histograms), so
    /// at end of session the registry reconciles *exactly* with the
    /// counters. The recorder is write-only: nothing it does can feed
    /// back into control flow, so a `NoopRecorder` run and a recording
    /// run produce bit-identical outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `request` returns non-positive or non-finite bits.
    pub fn step_download(
        &mut self,
        env: &DownloadEnv<'_>,
        st: &mut DownloadState,
        request: &mut dyn FnMut(usize) -> f64,
        rec: &mut dyn Record,
    ) -> Option<DownloadOutcome> {
        if !(st.attempts <= env.policy.max_retries && self.clock_sec < st.deadline_end_sec - 1e-9) {
            // Deadline exhausted: skip the segment, charge the blackout.
            return Some(self.finish_skip(st, rec));
        }
        let segment = st.segment;
        let rung = st.rung;
        let deadline_end = st.deadline_end_sec;
        let bits = request(rung);
        assert!(
            bits.is_finite() && bits > 0.0,
            "degradation ladder must return positive bits (segment {segment}, rung {rung})"
        );
        let attempt = st.attempts;
        st.attempts += 1;
        self.counters.attempts += 1;
        rec.count_at("resilience.attempts", self.clock_sec, 1);
        let budget = finite_budget(
            env.policy
                .attempt_timeout_sec
                .min(deadline_end - self.clock_sec),
        );
        let link = FaultyLink::new(env.network, env.plan);

        if env.plan.segment_lost(env.fault_base + segment, attempt) {
            // The request vanished; only the timer tells the client.
            self.clock_sec += budget;
            self.counters.losses += 1;
            self.counters.timeouts += 1;
            rec.count_at("resilience.losses", self.clock_sec, 1);
            rec.count_at("resilience.timeouts", self.clock_sec, 1);
            rec.record(Event::DownloadAttempt {
                segment,
                attempt,
                t_sec: self.clock_sec,
                rung,
                outcome: "lost",
                bits,
                elapsed_sec: budget,
                deadline_margin_sec: deadline_end - self.clock_sec,
            });
        } else {
            match link.try_download(bits, self.clock_sec, budget) {
                Some(dur) => {
                    if env.plan.segment_corrupt(env.fault_base + segment, attempt) {
                        // Full transfer burned, checksum failed.
                        self.clock_sec += dur;
                        st.wasted_bits += bits;
                        self.counters.corruptions += 1;
                        rec.count_at("resilience.corruptions", self.clock_sec, 1);
                        rec.record(Event::DownloadAttempt {
                            segment,
                            attempt,
                            t_sec: self.clock_sec,
                            rung,
                            outcome: "corrupt",
                            bits,
                            elapsed_sec: dur,
                            deadline_margin_sec: deadline_end - self.clock_sec,
                        });
                    } else {
                        // Success — maybe after a decoder wedge.
                        self.clock_sec += dur;
                        if env.plan.decoder_fails(env.fault_base + segment) {
                            self.clock_sec += env.decoder.recovery_time_sec(1);
                            self.counters.decoder_failures += 1;
                            rec.count_at("resilience.decoder_failures", self.clock_sec, 1);
                        }
                        let elapsed = self.clock_sec - st.request_time_sec;
                        let step = self.buffer.advance(elapsed, SEGMENT_DURATION_SEC);
                        debug_assert!((step.wait_sec - st.wait_sec).abs() < 1e-9);
                        self.segments_completed += 1;
                        if rung > 0 {
                            self.counters.degraded_segments += 1;
                            self.counters.degraded_rungs += rung;
                            rec.count_at("resilience.degraded_segments", self.clock_sec, 1);
                            rec.count_at("resilience.degraded_rungs", self.clock_sec, rung as u64);
                        }
                        // `elapsed` already includes the reinit time,
                        // failed attempts and backoffs; only the
                        // payload's own transfer is not "recovery".
                        self.counters.recovery_sec += elapsed - dur;
                        self.counters.wasted_bits += st.wasted_bits;
                        rec.observe_at("resilience.recovery_sec", self.clock_sec, elapsed - dur);
                        rec.observe_at("resilience.wasted_bits", self.clock_sec, st.wasted_bits);
                        rec.record(Event::DownloadAttempt {
                            segment,
                            attempt,
                            t_sec: self.clock_sec,
                            rung,
                            outcome: "delivered",
                            bits,
                            elapsed_sec: dur,
                            deadline_margin_sec: deadline_end - self.clock_sec,
                        });
                        rec.record(Event::BufferSample {
                            segment,
                            t_sec: self.clock_sec,
                            level_sec: step.buffer_after_sec,
                        });
                        let spike = env.plan.extra_latency_sec(st.request_time_sec);
                        let payload_sec = (dur - spike).max(1e-9);
                        return Some(DownloadOutcome::Delivered {
                            timing: SegmentTiming {
                                request_time_sec: st.request_time_sec,
                                wait_sec: st.wait_sec,
                                download_sec: elapsed,
                                throughput_bps: bits / payload_sec,
                                buffer_at_request_sec: step.buffer_at_request_sec,
                                stall_sec: step.stall_sec,
                                buffer_after_sec: step.buffer_after_sec,
                            },
                            bits,
                            wasted_bits: st.wasted_bits,
                            attempts: st.attempts,
                            degraded_rungs: rung,
                        });
                    }
                }
                None => {
                    // Mid-download abandon: count what had arrived,
                    // then degrade the next request one rung.
                    let partial = link.bits_delivered(self.clock_sec, budget).min(bits);
                    st.wasted_bits += partial;
                    self.clock_sec += budget;
                    self.counters.abandons += 1;
                    rec.count_at("resilience.abandons", self.clock_sec, 1);
                    rec.record(Event::Abandon {
                        segment,
                        attempt,
                        t_sec: self.clock_sec,
                        rung,
                        wasted_bits: partial,
                    });
                    st.rung += 1;
                }
            }
        }

        // Failed attempt: back off before the next one (bounded by
        // the segment deadline).
        if st.attempts <= env.policy.max_retries && self.clock_sec < deadline_end - 1e-9 {
            self.counters.retries += 1;
            rec.count_at("resilience.retries", self.clock_sec, 1);
            let pause = env
                .policy
                .backoff_sec(attempt)
                .min(deadline_end - self.clock_sec);
            self.counters.backoff_sec += pause;
            rec.observe_at("resilience.backoff_sec", self.clock_sec, pause);
            rec.record(Event::Retry {
                segment,
                attempt,
                t_sec: self.clock_sec,
                backoff_sec: pause,
            });
            self.clock_sec += pause;
        }
        None
    }

    /// The skip path: drains the buffer over the burned time, charges
    /// the blackout and reports the [`DownloadOutcome::Skipped`] record.
    fn finish_skip(&mut self, st: &DownloadState, rec: &mut dyn Record) -> DownloadOutcome {
        let elapsed = self.clock_sec - st.request_time_sec;
        self.buffer.drain(st.wait_sec);
        let stall_sec = self.buffer.drain(elapsed);
        let blackout_sec = stall_sec + SEGMENT_DURATION_SEC;
        self.counters.skipped_segments += 1;
        self.counters.blackout_sec += blackout_sec;
        self.counters.recovery_sec += elapsed;
        self.counters.wasted_bits += st.wasted_bits;
        rec.count_at("resilience.skipped_segments", self.clock_sec, 1);
        rec.observe_at("resilience.blackout_sec", self.clock_sec, blackout_sec);
        rec.observe_at("resilience.recovery_sec", self.clock_sec, elapsed);
        rec.observe_at("resilience.wasted_bits", self.clock_sec, st.wasted_bits);
        rec.record(Event::Skip {
            segment: st.segment,
            t_sec: self.clock_sec,
            blackout_sec,
            attempts: st.attempts,
        });
        DownloadOutcome::Skipped {
            request_time_sec: st.request_time_sec,
            wait_sec: st.wait_sec,
            elapsed_sec: elapsed,
            blackout_sec,
            wasted_bits: st.wasted_bits,
            attempts: st.attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_obs::NoopRecorder;
    use ee360_trace::fault::FaultConfig;

    fn constant_net(bps: f64, len: usize) -> NetworkTrace {
        NetworkTrace::from_samples(vec![bps; len])
    }

    fn fixed_request(bits: f64) -> impl FnMut(usize) -> f64 {
        move |rung| bits / (1u64 << rung.min(8)) as f64
    }

    /// One test session: a [`SessionCore`] plus the owned inputs its
    /// [`DownloadEnv`] borrows.
    struct Session {
        network: NetworkTrace,
        plan: FaultPlan,
        policy: RetryPolicy,
        decoder: DecoderPipeline,
        core: SessionCore,
    }

    impl Session {
        fn new(network: NetworkTrace, plan: FaultPlan, policy: RetryPolicy) -> Self {
            policy.validate();
            Self {
                network,
                plan,
                policy,
                decoder: DecoderPipeline::paper_default(),
                core: SessionCore::new(3.0),
            }
        }

        /// The core and the environment it downloads over.
        fn parts(&mut self) -> (&mut SessionCore, DownloadEnv<'_>) {
            let env = DownloadEnv {
                network: &self.network,
                plan: &self.plan,
                policy: &self.policy,
                decoder: &self.decoder,
                fault_base: 0,
            };
            (&mut self.core, env)
        }

        /// The paper's benign world: no faults, wait forever.
        fn benign(network: NetworkTrace) -> Self {
            Self::new(network, FaultPlan::none(), RetryPolicy::disabled())
        }

        /// Begins segment `k` and steps it to its outcome.
        fn download(&mut self, k: usize, request: &mut dyn FnMut(usize) -> f64) -> DownloadOutcome {
            let (core, env) = self.parts();
            let mut st = core.begin_download(&env, k);
            loop {
                if let Some(out) = core.step_download(&env, &mut st, request, &mut NoopRecorder) {
                    return out;
                }
            }
        }

        /// A benign download that must deliver; returns its timing.
        fn delivered(&mut self, k: usize, bits: f64) -> SegmentTiming {
            match self.download(k, &mut fixed_request(bits)) {
                DownloadOutcome::Delivered { timing, .. } => timing,
                other => panic!("segment {k} must deliver: {other:?}"),
            }
        }
    }

    #[test]
    fn steady_state_paces_at_segment_rate() {
        // Downloads faster than playback: after warm-up, each request waits
        // so that (wait + download) = 1 segment duration at β.
        let mut s = Session::benign(constant_net(8.0e6, 1));
        for k in 0..6 {
            s.delivered(k, 2.0e6);
        }
        let t = s.delivered(6, 2.0e6);
        assert!((t.wait_sec + t.download_sec - 1.0).abs() < 1e-9);
        assert!((t.buffer_at_request_sec - 3.0).abs() < 1e-9);
        assert_eq!(t.stall_sec, 0.0);
    }

    #[test]
    fn slow_network_stalls() {
        // 6 Mb over 4 Mbps = 1.5 s per 1 s segment: the buffer drains.
        let mut s = Session::benign(constant_net(4.0e6, 1));
        let total_stall: f64 = (0..10).map(|k| s.delivered(k, 6.0e6).stall_sec).sum();
        assert!(total_stall > 1.0, "stall {total_stall}");
    }

    #[test]
    fn clock_advances_by_wait_plus_download() {
        let mut s = Session::benign(constant_net(4.0e6, 1));
        for k in 0..8 {
            let before = s.core.clock_sec();
            let t = s.delivered(k, 2.0e6);
            assert!((s.core.clock_sec() - (before + t.wait_sec + t.download_sec)).abs() < 1e-12);
            assert!((t.request_time_sec - (before + t.wait_sec)).abs() < 1e-12);
        }
        assert_eq!(s.core.segments_completed(), 8);
        assert!(s.core.counters().is_clean());
    }

    #[test]
    fn throughput_matches_a_constant_and_a_variable_link() {
        let mut s = Session::benign(constant_net(5.0e6, 1));
        assert!((s.delivered(0, 1.0e6).throughput_bps - 5.0e6).abs() < 1e-6);

        let mut s = Session::benign(NetworkTrace::from_samples(vec![1.0e6, 3.0e6]));
        let t = s.delivered(0, 2.0e6); // 1 s @1 Mbps + 1/3 s @3 Mbps
        assert!((t.download_sec - (1.0 + 1.0 / 3.0)).abs() < 1e-9);
        assert!((t.throughput_bps - 2.0e6 / (1.0 + 1.0 / 3.0)).abs() < 1e-3);
    }

    #[test]
    fn metadata_fetch_advances_clock_only() {
        let mut s = Session::benign(constant_net(4.0e6, 1));
        let (core, env) = s.parts();
        let d = core.fetch_metadata(&env, 1.0e6, &mut NoopRecorder);
        assert!((d - 0.25).abs() < 1e-9);
        assert!((s.core.clock_sec() - 0.25).abs() < 1e-9);
        assert_eq!(s.core.buffer_level_sec(), 0.0);
    }

    #[test]
    fn failed_metadata_fetch_returns_the_burned_time() {
        let policy = RetryPolicy::default_mobile();
        let mut s = Session::new(constant_net(0.0, 60), FaultPlan::none(), policy);
        let (core, env) = s.parts();
        let d = core.fetch_metadata(&env, 1.0e6, &mut NoopRecorder);
        let backoffs: f64 = (0..policy.max_retries).map(|r| policy.backoff_sec(r)).sum();
        let burned = (policy.max_retries + 1) as f64 * policy.attempt_timeout_sec + backoffs;
        assert!((d - burned).abs() < 1e-9, "{d} vs {burned}");
        assert_eq!(s.core.clock_sec().to_bits(), d.to_bits());
        assert_eq!(s.core.buffer_level_sec(), 0.0);
        let c = s.core.counters();
        assert_eq!(c.timeouts, policy.max_retries + 1);
        assert_eq!(c.retries, policy.max_retries);
    }

    #[test]
    fn stall_sec_is_the_stall_or_the_blackout_past_the_segment() {
        // 6 Mb over 4 Mbps into an empty buffer: a 1.5 s startup stall.
        let mut s = Session::benign(constant_net(4.0e6, 1));
        assert_eq!(s.download(0, &mut fixed_request(6.0e6)).stall_sec(), 1.5);
        let skip = |blackout_sec| DownloadOutcome::Skipped {
            request_time_sec: 0.0,
            wait_sec: 0.0,
            elapsed_sec: 4.0,
            blackout_sec,
            wasted_bits: 0.0,
            attempts: 1,
        };
        assert_eq!(skip(0.5 * SEGMENT_DURATION_SEC).stall_sec(), 0.0);
        assert_eq!(skip(SEGMENT_DURATION_SEC + 2.5).stall_sec(), 2.5);
    }

    #[test]
    fn dead_link_under_the_benign_policy_skips_instead_of_hanging() {
        let mut s = Session::benign(NetworkTrace::from_samples(vec![0.0, 0.0]));
        let out = s.download(0, &mut fixed_request(1.0e6));
        assert!(!out.is_delivered());
        assert_eq!(s.core.counters().skipped_segments, 1);
        assert!((s.core.clock_sec() - EFFECTIVELY_FOREVER_SEC).abs() < 1e-6);
    }

    #[test]
    fn clean_link_under_the_mobile_policy_matches_the_benign_policy() {
        let mut mobile = Session::new(
            constant_net(8.0e6, 60),
            FaultPlan::none(),
            RetryPolicy::default_mobile(),
        );
        let mut benign = Session::benign(constant_net(8.0e6, 60));
        for k in 0..10 {
            assert_eq!(mobile.delivered(k, 2.0e6), benign.delivered(k, 2.0e6));
        }
        assert!(mobile.core.counters().is_clean());
        assert_eq!(
            mobile.core.clock_sec().to_bits(),
            benign.core.clock_sec().to_bits()
        );
    }

    #[test]
    fn outage_triggers_abandon_then_downgrade() {
        // 10 s dead radio from t=1: the first attempt abandons, later
        // attempts degrade, and eventually a cheaper payload squeaks
        // through once the radio recovers.
        let policy = RetryPolicy {
            attempt_timeout_sec: 4.0,
            max_retries: 4,
            segment_deadline_sec: 20.0,
            ..RetryPolicy::default_mobile()
        };
        let mut s = Session::new(
            constant_net(4.0e6, 120),
            FaultPlan::single_outage(1.0, 10.0),
            policy,
        );
        let mut rungs_seen = Vec::new();
        // 8 Mb at rung 0 needs 2 s of the 4 Mbps link: the outage at t=1
        // guarantees the first attempt cannot finish before its timeout.
        let out = s.download(0, &mut |rung| {
            rungs_seen.push(rung);
            8.0e6 / (1u64 << rung) as f64
        });
        match out {
            DownloadOutcome::Delivered {
                degraded_rungs,
                attempts,
                ..
            } => {
                assert!(attempts > 1, "the outage must cost attempts");
                assert!(degraded_rungs >= 1, "the ladder must have degraded");
            }
            DownloadOutcome::Skipped { .. } => panic!("20 s deadline outlives a 10 s outage"),
        }
        assert!(s.core.counters().abandons >= 1);
        assert!(rungs_seen.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn hopeless_outage_skips_with_bounded_blackout() {
        // Radio dead for the entire deadline: the segment must be skipped
        // in bounded time, never hanging.
        let net = constant_net(4.0e6, 200).with_outage(0, 200, 0.0);
        let policy = RetryPolicy::default_mobile();
        let mut s = Session::new(net, FaultPlan::none(), policy);
        match s.download(0, &mut fixed_request(2.0e6)) {
            DownloadOutcome::Skipped {
                elapsed_sec,
                blackout_sec,
                attempts,
                ..
            } => {
                assert!(elapsed_sec <= policy.segment_deadline_sec + 1e-9);
                assert!(blackout_sec > 0.0);
                assert!(attempts <= policy.max_retries + 1);
            }
            other => panic!("dead radio must skip: {other:?}"),
        }
        assert_eq!(s.core.counters().skipped_segments, 1);
        assert!(s.core.clock_sec() <= policy.segment_deadline_sec + 1e-9);
    }

    #[test]
    fn lost_segments_burn_the_timeout_then_retry() {
        let plan = FaultPlan::none().with_attempt_faults(
            FaultConfig {
                loss_prob: 1.0, // every attempt vanishes
                ..FaultConfig::none()
            },
            7,
        );
        let mut s = Session::new(
            constant_net(8.0e6, 120),
            plan,
            RetryPolicy::default_mobile(),
        );
        assert!(!s.download(3, &mut fixed_request(2.0e6)).is_delivered());
        let c = s.core.counters();
        assert_eq!(c.losses, c.attempts);
        assert!(c.timeouts >= 1);
        assert_eq!(c.skipped_segments, 1);
    }

    #[test]
    fn corruption_burns_the_full_download_before_retrying() {
        let always = FaultPlan::none().with_attempt_faults(
            FaultConfig {
                corruption_prob: 1.0,
                ..FaultConfig::none()
            },
            1,
        );
        let mut s = Session::new(
            constant_net(8.0e6, 120),
            always,
            RetryPolicy::default_mobile(),
        );
        let out = s.download(0, &mut fixed_request(2.0e6));
        assert!(!out.is_delivered(), "all-corrupt link cannot deliver");
        assert!(s.core.counters().corruptions >= 1);
        assert!(
            s.core.counters().wasted_bits > 0.0,
            "corrupt payloads are wasted"
        );
    }

    #[test]
    fn decoder_failure_recovers_inline() {
        let plan = FaultPlan::none().with_attempt_faults(
            FaultConfig {
                decoder_failure_prob: 1.0,
                ..FaultConfig::none()
            },
            5,
        );
        let mut s = Session::new(
            constant_net(8.0e6, 120),
            plan,
            RetryPolicy::default_mobile(),
        );
        let out = s.download(0, &mut fixed_request(2.0e6));
        assert!(out.is_delivered(), "decoder wedge must not fail delivery");
        assert_eq!(s.core.counters().decoder_failures, 1);
        assert!(s.core.counters().recovery_sec > 0.0);
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let p = RetryPolicy {
            backoff_base_sec: 0.25,
            backoff_factor: 2.0,
            backoff_cap_sec: 2.0,
            ..RetryPolicy::default_mobile()
        };
        assert!((p.backoff_sec(0) - 0.25).abs() < 1e-12);
        assert!((p.backoff_sec(1) - 0.5).abs() < 1e-12);
        assert!((p.backoff_sec(2) - 1.0).abs() < 1e-12);
        assert!((p.backoff_sec(3) - 2.0).abs() < 1e-12);
        assert!((p.backoff_sec(7) - 2.0).abs() < 1e-12, "cap holds");
    }

    #[test]
    #[should_panic(expected = "attempt timeout must be positive")]
    fn malformed_policy_is_rejected() {
        RetryPolicy {
            attempt_timeout_sec: 0.0,
            ..RetryPolicy::default_mobile()
        }
        .validate();
    }

    #[test]
    fn check_names_each_malformed_field() {
        let ok = RetryPolicy::default_mobile();
        assert_eq!(ok.check(), Ok(()));
        assert_eq!(RetryPolicy::disabled().check(), Ok(()));
        let cases = [
            (
                RetryPolicy {
                    attempt_timeout_sec: f64::NAN,
                    ..ok
                },
                PolicyError::AttemptTimeout,
            ),
            (
                RetryPolicy {
                    segment_deadline_sec: -1.0,
                    ..ok
                },
                PolicyError::SegmentDeadline,
            ),
            (
                RetryPolicy {
                    backoff_factor: 0.5,
                    ..ok
                },
                PolicyError::Backoff,
            ),
        ];
        for (policy, err) in cases {
            assert_eq!(policy.check(), Err(err));
        }
        assert_eq!(
            PolicyError::SegmentDeadline.to_string(),
            "segment deadline must be positive"
        );
    }

    #[test]
    fn skip_charges_stall_into_blackout() {
        // Prime the buffer on a fast first second, then hit a hopeless
        // window: part of the elapsed time is covered by buffer, the
        // rest is stall.
        let net = NetworkTrace::from_samples([vec![64.0e6; 1], vec![0.0; 40]].concat());
        let policy = RetryPolicy {
            attempt_timeout_sec: 3.0,
            max_retries: 1,
            segment_deadline_sec: 6.0,
            ..RetryPolicy::default_mobile()
        };
        let mut s = Session::new(net, FaultPlan::none(), policy);
        // Three quick segments fill the buffer to ~3 s within slot 0.
        for k in 0..3 {
            s.delivered(k, 1.0e6);
        }
        let buffered = s.core.buffer_level_sec();
        assert!(buffered > 1.0);
        // 200 Mb can never finish before the radio dies at t=1.
        match s.download(3, &mut fixed_request(200.0e6)) {
            DownloadOutcome::Skipped {
                elapsed_sec,
                blackout_sec,
                ..
            } => {
                // Blackout = stall (elapsed − buffer) + 1 s skipped content.
                let expected = (elapsed_sec - buffered).max(0.0) + SEGMENT_DURATION_SEC;
                assert!(
                    (blackout_sec - expected).abs() < 1e-6,
                    "blackout {blackout_sec} vs expected {expected}"
                );
            }
            other => panic!("expected skip, got {other:?}"),
        }
    }

    #[test]
    fn same_seed_replay_is_identical() {
        let run = || {
            let mut s = Session::new(
                NetworkTrace::paper_trace2(300, 9),
                FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 21),
                RetryPolicy::default_mobile(),
            );
            let log: Vec<_> = (0..60)
                .map(|k| s.download(k, &mut fixed_request(3.0e6)))
                .collect();
            (log, *s.core.counters(), s.core.clock_sec().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_accumulate_componentwise() {
        let mut a = ResilienceCounters {
            retries: 2,
            blackout_sec: 1.5,
            ..ResilienceCounters::default()
        };
        let b = ResilienceCounters {
            retries: 3,
            skipped_segments: 1,
            blackout_sec: 0.5,
            ..ResilienceCounters::default()
        };
        a.accumulate(&b);
        assert_eq!(a.retries, 5);
        assert_eq!(a.skipped_segments, 1);
        assert!((a.blackout_sec - 2.0).abs() < 1e-12);
        assert!(!a.is_clean());
        assert!(ResilienceCounters::default().is_clean());
    }
}

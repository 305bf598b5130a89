//! Multiple clients sharing one bottleneck link.
//!
//! The paper evaluates one client at a time; a deployment serves many
//! phones behind the same cell. This tick-based simulator runs `K`
//! concurrent sessions over a shared capacity with processor-sharing
//! (active downloads split the instantaneous capacity equally — the
//! steady-state behaviour of per-flow-fair TCP), so contention effects
//! (downshifts when a neighbour joins, stall storms at low capacity) can
//! be studied with the same per-segment decision logic.
//!
//! The per-segment decision is abstracted as a closure from
//! `(segment, buffer, bandwidth estimate) → bits`, so any controller can
//! be adapted without this crate depending on the ABR layer.
//!
//! Every client runs through a shared [`FaultPlan`] under a
//! [`RetryPolicy`]: cell-wide outages zero the shared capacity, lost
//! requests burn their timeout, corrupt payloads are refetched, and
//! clients that exhaust a segment's retries or deadline skip it rather
//! than wedging the whole cell. [`FaultPlan::none`] with
//! [`RetryPolicy::disabled`] is the benign, wait-forever cell.

use ee360_obs::Record;
use ee360_trace::fault::FaultPlan;
use ee360_trace::network::NetworkTrace;
use ee360_video::segment::SEGMENT_DURATION_SEC;

use crate::resilience::RetryPolicy;

/// Decorrelates per-attempt fault draws between clients sharing one plan.
const CLIENT_FAULT_STRIDE: usize = 100_000;

/// Configuration of the shared-link simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulticlientConfig {
    /// Simulation tick, seconds (0.1 s default).
    pub tick_sec: f64,
    /// Buffer threshold β per client, seconds.
    pub buffer_threshold_sec: f64,
    /// Segments each client streams.
    pub segments: usize,
}

impl Default for MulticlientConfig {
    fn default() -> Self {
        Self {
            tick_sec: 0.1,
            buffer_threshold_sec: 3.0,
            segments: 60,
        }
    }
}

/// Per-client results.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// Index of the client in the input order.
    pub client_id: usize,
    /// Segments the client advanced past (completed plus skipped).
    pub segments: usize,
    /// Mean throughput experienced across downloads, bits per second.
    pub mean_throughput_bps: f64,
    /// Total stall time, seconds (excluding the initial startup fill).
    pub total_stall_sec: f64,
    /// Mean downloaded bits per completed segment.
    pub mean_bits_per_segment: f64,
    /// Wall-clock time when the client finished its last segment.
    pub finished_at_sec: f64,
    /// Download attempts retried after a timeout, loss or corruption.
    pub retries: usize,
    /// Attempts abandoned because their per-request timer expired.
    pub timeouts: usize,
    /// Segments given up on after exhausting retries or the deadline.
    pub skipped_segments: usize,
}

/// A per-segment planner: `(segment index, buffer seconds, bandwidth
/// estimate bps) → bits to download`.
pub type Planner<'a> = Box<dyn FnMut(usize, f64, f64) -> f64 + 'a>;

/// One client's live state.
struct ClientState<'a> {
    plan: Planner<'a>,
    buffer_sec: f64,
    next_segment: usize,
    /// Remaining bits of the in-flight download (`None` while waiting).
    downloading: Option<(f64, f64, f64)>, // (remaining, total, started_at)
    /// The in-flight request vanished: it holds no capacity and can only
    /// end by timing out.
    in_flight_lost: bool,
    /// Zero-based attempt number for the current segment.
    attempt: usize,
    /// When the current segment's first attempt was issued.
    segment_started: f64,
    wait_until: f64,
    est_bps: f64,
    started_playing: bool,
    // accumulators
    total_bits: f64,
    download_time: f64,
    stall: f64,
    finished_at: f64,
    retries: usize,
    timeouts: usize,
    skipped: usize,
    completed: usize,
    done: bool,
}

impl ClientState<'_> {
    /// The decorrelated key for this client's current segment in the
    /// shared fault plan.
    fn fault_key(&self, client_id: usize) -> usize {
        client_id * CLIENT_FAULT_STRIDE + self.next_segment
    }

    /// Ends the current attempt in failure; schedules the retry backoff
    /// or, when retries/deadline are exhausted, skips the segment.
    fn fail_attempt(&mut self, now: f64, policy: &RetryPolicy, config: &MulticlientConfig) {
        self.downloading = None;
        self.in_flight_lost = false;
        let deadline_blown = now - self.segment_started >= policy.segment_deadline_sec;
        if self.attempt >= policy.max_retries || deadline_blown {
            // Skip: move on without buffer credit; playback will drain
            // (and stall) naturally.
            self.skipped += 1;
            self.attempt = 0;
            self.next_segment += 1;
            if self.next_segment >= config.segments {
                self.done = true;
                self.finished_at = now;
            }
        } else {
            self.retries += 1;
            self.wait_until = now + policy.backoff_sec(self.attempt);
            self.attempt += 1;
        }
    }
}

/// Runs `K` clients over a shared link through a [`FaultPlan`] under a
/// [`RetryPolicy`].
///
/// Each element of `planners` maps `(segment index, buffer seconds,
/// bandwidth estimate bps)` to the bits to download for that segment. The
/// initial bandwidth estimate is the fair share of the first capacity
/// sample; afterwards each client estimates from its own observed
/// throughput (exponential moving average, α = 0.3).
///
/// Outages in the plan zero the *shared* capacity (the whole cell goes
/// dark); per-attempt faults (loss, corruption) are drawn per client with
/// decorrelated keys so one plan exercises `K` independent fates. Clients
/// retry with backoff and skip segments whose retries or deadline run
/// out, so a finite fault plan can never wedge the simulation.
///
/// After the tick loop finishes, the per-client outcomes are merged into
/// `rec` in client order (`multiclient.*` counters and histograms).
/// Recording happens once, from the already-final outcomes, so the
/// recorder is strictly write-only: the simulation result is
/// bit-identical with or without a live recorder.
///
/// # Panics
///
/// Panics if `planners` is empty, the configuration is non-positive, or a
/// planner returns non-positive bits.
pub fn simulate_shared_link<'a>(
    capacity: &NetworkTrace,
    config: MulticlientConfig,
    planners: Vec<Planner<'a>>,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    rec: &mut dyn Record,
) -> Vec<ClientOutcome> {
    let outcomes = run_clients(capacity, config, planners, faults, policy);
    rec.count("multiclient.clients", outcomes.len() as u64);
    for o in &outcomes {
        // Keyed on the client's finish time so a window-enabled recorder
        // buckets each client into the window it completed in; the
        // whole-run registry sees the identical statement and value.
        let t = o.finished_at_sec;
        rec.count_at("multiclient.segments", t, o.segments as u64);
        rec.count_at("multiclient.retries", t, o.retries as u64);
        rec.count_at("multiclient.timeouts", t, o.timeouts as u64);
        rec.count_at("multiclient.skipped_segments", t, o.skipped_segments as u64);
        rec.observe_at("multiclient.stall_sec", t, o.total_stall_sec);
        rec.observe_at("multiclient.throughput_bps", t, o.mean_throughput_bps);
        rec.observe_at("multiclient.finished_at_sec", t, o.finished_at_sec);
    }
    outcomes
}

fn run_clients<'a>(
    capacity: &NetworkTrace,
    config: MulticlientConfig,
    planners: Vec<Planner<'a>>,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> Vec<ClientOutcome> {
    assert!(!planners.is_empty(), "need at least one client");
    assert!(config.tick_sec > 0.0, "tick must be positive");
    assert!(config.segments > 0, "need at least one segment");
    assert!(
        config.buffer_threshold_sec > 0.0,
        "buffer threshold must be positive"
    );

    let n = planners.len();
    let initial_share = capacity.bandwidth_at(0.0) / n as f64;
    let mut clients: Vec<ClientState> = planners
        .into_iter()
        .map(|plan| ClientState {
            plan,
            buffer_sec: 0.0,
            next_segment: 0,
            downloading: None,
            in_flight_lost: false,
            attempt: 0,
            segment_started: 0.0,
            wait_until: 0.0,
            est_bps: initial_share,
            started_playing: false,
            total_bits: 0.0,
            download_time: 0.0,
            stall: 0.0,
            finished_at: 0.0,
            retries: 0,
            timeouts: 0,
            skipped: 0,
            completed: 0,
            done: false,
        })
        .collect();

    let tick = config.tick_sec;
    let mut t = 0.0f64;
    // Hard cap so a pathological planner cannot loop forever.
    let max_time = config.segments as f64 * 60.0 + 600.0;

    while clients.iter().any(|c| !c.done) && t < max_time {
        // 1. Start pending downloads.
        for (id, c) in clients.iter_mut().enumerate() {
            if c.done || c.downloading.is_some() || t + 1e-12 < c.wait_until {
                continue;
            }
            let bits = (c.plan)(c.next_segment, c.buffer_sec, c.est_bps);
            assert!(
                bits.is_finite() && bits > 0.0,
                "planner must return positive bits"
            );
            if c.attempt == 0 {
                c.segment_started = t;
            }
            c.in_flight_lost = faults.segment_lost(c.fault_key(id), c.attempt);
            c.downloading = Some((bits, bits, t));
        }

        // 2. Share capacity among active (non-lost) downloads; an outage
        //    takes the whole cell dark.
        let cell_bps = if faults.in_outage(t) {
            0.0
        } else {
            capacity.bandwidth_at(t)
        };
        let active = clients
            .iter()
            .filter(|c| !c.done && c.downloading.is_some() && !c.in_flight_lost)
            .count();
        if active > 0 && cell_bps > 0.0 {
            let share = cell_bps / active as f64 * tick;
            for (id, c) in clients.iter_mut().enumerate() {
                if c.done || c.in_flight_lost {
                    continue;
                }
                if let Some((remaining, total, started)) = c.downloading {
                    let left = remaining - share;
                    if left <= 0.0 {
                        // Segment completed this tick — unless it arrives
                        // corrupt and must be refetched.
                        if faults.segment_corrupt(c.fault_key(id), c.attempt) {
                            c.fail_attempt(t + tick, policy, &config);
                            continue;
                        }
                        let elapsed = (t + tick - started).max(tick);
                        c.total_bits += total;
                        c.download_time += elapsed;
                        let throughput = total / elapsed;
                        c.est_bps = 0.7 * c.est_bps + 0.3 * throughput;
                        c.buffer_sec += SEGMENT_DURATION_SEC;
                        c.started_playing = true;
                        c.next_segment += 1;
                        c.completed += 1;
                        c.attempt = 0;
                        c.downloading = None;
                        if c.next_segment >= config.segments {
                            c.done = true;
                            c.finished_at = t + tick;
                        } else if c.buffer_sec > config.buffer_threshold_sec {
                            c.wait_until = t + tick + (c.buffer_sec - config.buffer_threshold_sec);
                        }
                    } else {
                        c.downloading = Some((left, total, started));
                    }
                }
            }
        }

        // 3. Expire attempts whose per-request timer ran out (lost
        //    requests can only end here).
        for c in clients.iter_mut() {
            if c.done {
                continue;
            }
            if let Some((_, _, started)) = c.downloading {
                if t + tick - started >= policy.attempt_timeout_sec {
                    c.timeouts += 1;
                    c.fail_attempt(t + tick, policy, &config);
                }
            }
        }

        // 4. Playback drains buffers; empty buffers stall.
        for c in clients.iter_mut() {
            if c.done {
                continue;
            }
            if c.buffer_sec > 0.0 {
                c.buffer_sec = (c.buffer_sec - tick).max(0.0);
            } else if c.started_playing {
                c.stall += tick;
            }
        }

        t += tick;
    }

    clients
        .into_iter()
        .enumerate()
        .map(|(client_id, c)| ClientOutcome {
            client_id,
            segments: c.next_segment,
            mean_throughput_bps: if c.download_time > 0.0 {
                c.total_bits / c.download_time
            } else {
                0.0
            },
            total_stall_sec: c.stall,
            mean_bits_per_segment: c.total_bits / c.completed.max(1) as f64,
            finished_at_sec: c.finished_at,
            retries: c.retries,
            timeouts: c.timeouts,
            skipped_segments: c.skipped,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_obs::NoopRecorder;
    use ee360_trace::fault::FaultConfig;

    /// The benign cell: no faults, wait forever, no recorder.
    fn benign_link(
        capacity: &NetworkTrace,
        config: MulticlientConfig,
        planners: Vec<Planner<'_>>,
    ) -> Vec<ClientOutcome> {
        simulate_shared_link(
            capacity,
            config,
            planners,
            &FaultPlan::none(),
            &RetryPolicy::disabled(),
            &mut NoopRecorder,
        )
    }

    fn constant_net(bps: f64) -> NetworkTrace {
        NetworkTrace::from_samples(vec![bps])
    }

    fn fixed_planner(bits: f64) -> Box<dyn FnMut(usize, f64, f64) -> f64> {
        Box::new(move |_, _, _| bits)
    }

    /// A simple rate-based planner: download est × 1 s, floored.
    fn adaptive_planner() -> Box<dyn FnMut(usize, f64, f64) -> f64> {
        Box::new(|_, _, est| (est * SEGMENT_DURATION_SEC).max(0.2e6))
    }

    #[test]
    fn single_client_completes_without_contention() {
        let out = benign_link(
            &constant_net(8.0e6),
            MulticlientConfig {
                segments: 30,
                ..Default::default()
            },
            vec![fixed_planner(2.0e6)],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].segments, 30);
        // 2 Mb at 8 Mbps = 0.25 s per segment: no stalls after startup.
        assert!(
            out[0].total_stall_sec < 0.5,
            "stall {}",
            out[0].total_stall_sec
        );
        // Tick quantisation rounds the 0.25 s download up to 3 ticks
        // (0.3 s), so the measured throughput is 2 Mb / 0.3 s ≈ 6.7 Mbps.
        assert!(
            out[0].mean_throughput_bps > 6.0e6 && out[0].mean_throughput_bps <= 8.0e6 + 1.0,
            "throughput {}",
            out[0].mean_throughput_bps
        );
        // The benign path records a clean resilience story.
        assert_eq!(out[0].retries, 0);
        assert_eq!(out[0].timeouts, 0);
        assert_eq!(out[0].skipped_segments, 0);
    }

    #[test]
    fn two_equal_clients_split_the_link_fairly() {
        let out = benign_link(
            &constant_net(8.0e6),
            MulticlientConfig {
                segments: 40,
                ..Default::default()
            },
            vec![fixed_planner(2.0e6), fixed_planner(2.0e6)],
        );
        // Each sees ~4 Mbps while both are downloading; allow slack for the
        // phases where only one is active.
        for o in &out {
            assert!(
                o.mean_throughput_bps > 3.0e6 && o.mean_throughput_bps < 8.5e6,
                "client {} saw {}",
                o.client_id,
                o.mean_throughput_bps
            );
            assert_eq!(o.segments, 40);
        }
        let diff = (out[0].mean_throughput_bps - out[1].mean_throughput_bps).abs();
        assert!(diff < 0.5e6, "unfair split: {diff}");
    }

    #[test]
    fn adaptive_clients_downshift_under_contention() {
        let solo = benign_link(
            &constant_net(6.0e6),
            MulticlientConfig {
                segments: 40,
                ..Default::default()
            },
            vec![adaptive_planner()],
        );
        let crowd = benign_link(
            &constant_net(6.0e6),
            MulticlientConfig {
                segments: 40,
                ..Default::default()
            },
            vec![adaptive_planner(), adaptive_planner(), adaptive_planner()],
        );
        let solo_bits = solo[0].mean_bits_per_segment;
        let crowd_bits = crowd[0].mean_bits_per_segment;
        assert!(
            crowd_bits < 0.6 * solo_bits,
            "crowded client should downshift: solo {solo_bits}, crowded {crowd_bits}"
        );
    }

    #[test]
    fn oversubscribed_link_causes_stalls() {
        // Three clients each insisting on 4 Mb/segment over a 6 Mbps link:
        // 12 Mb of demand per second of video — sustained stalling.
        let out = benign_link(
            &constant_net(6.0e6),
            MulticlientConfig {
                segments: 20,
                ..Default::default()
            },
            vec![
                fixed_planner(4.0e6),
                fixed_planner(4.0e6),
                fixed_planner(4.0e6),
            ],
        );
        let total_stall: f64 = out.iter().map(|o| o.total_stall_sec).sum();
        assert!(total_stall > 10.0, "stall {total_stall}");
        assert!(out.iter().all(|o| o.segments == 20));
    }

    #[test]
    fn staggered_finish_frees_capacity() {
        // A light client finishes early; the heavy one must then speed up,
        // finishing faster than if the link were split throughout.
        let out = benign_link(
            &constant_net(8.0e6),
            MulticlientConfig {
                segments: 30,
                ..Default::default()
            },
            vec![fixed_planner(0.4e6), fixed_planner(4.0e6)],
        );
        assert!(out[0].finished_at_sec < out[1].finished_at_sec);
        // The heavy client's mean throughput exceeds a permanent half-share.
        assert!(out[1].mean_throughput_bps > 4.0e6);
    }

    #[test]
    fn deterministic() {
        let run = || {
            benign_link(
                &NetworkTrace::paper_trace2(200, 9),
                MulticlientConfig::default(),
                vec![adaptive_planner(), adaptive_planner()],
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cell_outage_forces_retries_but_every_client_finishes() {
        // A 12 s blackout mid-run: clients must time out, retry or skip,
        // and the run must still terminate with everyone done.
        let faults = FaultPlan::single_outage(5.0, 12.0);
        let policy = RetryPolicy {
            attempt_timeout_sec: 3.0,
            max_retries: 2,
            segment_deadline_sec: 8.0,
            ..RetryPolicy::default_mobile()
        };
        let out = simulate_shared_link(
            &constant_net(8.0e6),
            MulticlientConfig {
                segments: 30,
                ..Default::default()
            },
            vec![fixed_planner(2.0e6), fixed_planner(2.0e6)],
            &faults,
            &policy,
            &mut NoopRecorder,
        );
        for o in &out {
            assert_eq!(o.segments, 30, "client {} wedged", o.client_id);
            assert!(
                o.timeouts >= 1,
                "client {} should have timed out in the blackout",
                o.client_id
            );
        }
        let skipped: usize = out.iter().map(|o| o.skipped_segments).sum();
        let retries: usize = out.iter().map(|o| o.retries).sum();
        assert!(skipped + retries >= 1, "the blackout must leave a trace");
    }

    #[test]
    fn lossy_cell_is_survivable_and_deterministic() {
        let faults = FaultPlan::none().with_attempt_faults(
            FaultConfig {
                loss_prob: 0.3,
                corruption_prob: 0.1,
                ..FaultConfig::none()
            },
            17,
        );
        let policy = RetryPolicy {
            attempt_timeout_sec: 2.0,
            ..RetryPolicy::default_mobile()
        };
        let run = || {
            simulate_shared_link(
                &constant_net(8.0e6),
                MulticlientConfig {
                    segments: 25,
                    ..Default::default()
                },
                vec![fixed_planner(2.0e6), fixed_planner(2.0e6)],
                &faults,
                &policy,
                &mut NoopRecorder,
            )
        };
        let out = run();
        assert_eq!(out, run(), "same plan, same fates");
        for o in &out {
            assert_eq!(o.segments, 25);
            assert!(o.retries >= 1, "30% loss must force retries");
        }
        // Decorrelated keys: the two clients should not share one fate.
        assert_ne!(
            (out[0].retries, out[0].timeouts),
            (out[1].retries, out[1].timeouts),
            "clients must draw independent per-attempt faults"
        );
    }

    #[test]
    fn hopeless_cell_skips_everything_but_terminates() {
        // Radio dead the whole run: every segment must be skipped in
        // bounded wall-clock, not hung.
        let faults = FaultPlan::single_outage(0.0, 10_000.0);
        let policy = RetryPolicy {
            attempt_timeout_sec: 2.0,
            max_retries: 1,
            segment_deadline_sec: 5.0,
            ..RetryPolicy::default_mobile()
        };
        let out = simulate_shared_link(
            &constant_net(8.0e6),
            MulticlientConfig {
                segments: 10,
                ..Default::default()
            },
            vec![fixed_planner(2.0e6)],
            &faults,
            &policy,
            &mut NoopRecorder,
        );
        assert_eq!(out[0].skipped_segments, 10);
        assert_eq!(out[0].segments, 10);
        assert!((out[0].mean_throughput_bps - 0.0).abs() < 1e-9);
    }

    #[test]
    fn traced_run_reconciles_and_matches_untraced() {
        let faults = FaultPlan::none().with_attempt_faults(
            FaultConfig {
                loss_prob: 0.3,
                corruption_prob: 0.1,
                ..FaultConfig::none()
            },
            17,
        );
        let policy = RetryPolicy {
            attempt_timeout_sec: 2.0,
            ..RetryPolicy::default_mobile()
        };
        let config = MulticlientConfig {
            segments: 25,
            ..Default::default()
        };
        let plain = simulate_shared_link(
            &constant_net(8.0e6),
            config,
            vec![fixed_planner(2.0e6), fixed_planner(2.0e6)],
            &faults,
            &policy,
            &mut NoopRecorder,
        );
        let mut rec = ee360_obs::Recorder::new(ee360_obs::Level::Detail);
        let traced = simulate_shared_link(
            &constant_net(8.0e6),
            config,
            vec![fixed_planner(2.0e6), fixed_planner(2.0e6)],
            &faults,
            &policy,
            &mut rec,
        );
        assert_eq!(plain, traced, "recorder must be write-only");
        let reg = rec.registry();
        assert_eq!(reg.counter("multiclient.clients"), 2);
        let retries: usize = traced.iter().map(|o| o.retries).sum();
        assert_eq!(reg.counter("multiclient.retries"), retries as u64);
        let stall: f64 = traced.iter().map(|o| o.total_stall_sec).sum();
        assert_eq!(reg.hist_sum("multiclient.stall_sec"), stall);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_clients_panics() {
        let _ = benign_link(&constant_net(1.0e6), MulticlientConfig::default(), vec![]);
    }

    #[test]
    #[should_panic(expected = "positive bits")]
    fn bad_planner_panics() {
        let _ = benign_link(
            &constant_net(1.0e6),
            MulticlientConfig::default(),
            vec![fixed_planner(0.0)],
        );
    }
}

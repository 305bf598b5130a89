//! Typed trace events and verbosity levels.
//!
//! Every event is keyed on *logical* simulation time — a segment index
//! plus the simulator clock in seconds — never on wall-clock time, so a
//! serialized trace is a pure function of the seed and the replay policy
//! stays byte-identical. Wall-clock measurement lives exclusively in
//! [`crate::profile`] and is opt-in.

use ee360_support::json::{Json, ToJson};

/// Verbosity threshold for a recorder. Events carry an intrinsic level
/// ([`Event::level`]) and are kept only when `event.level() <=
/// recorder.level()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing (the [`crate::record::NoopRecorder`] contract).
    Off,
    /// Per-segment decisions and incidents: plans, stalls, skips,
    /// abandons, decoder switches, energy samples.
    Summary,
    /// Everything, including per-attempt download outcomes, retries,
    /// and buffer occupancy samples.
    Detail,
}

impl Level {
    /// Stable string form used in exported reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Detail => "detail",
        }
    }
}

/// A structured trace event emitted by an instrumented pipeline stage.
///
/// Field conventions: `segment` is the media segment index the event
/// concerns, `t_sec` is the simulation clock when it happened, byte
/// quantities are in bits (matching the rest of the workspace) and
/// energies in millijoules.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The ABR controller produced a plan for a segment.
    SolverPlan {
        segment: usize,
        t_sec: f64,
        quality: usize,
        fps: f64,
        bits: f64,
        /// Why this plan was produced: `"mpc"`, `"fallback_no_ptile"`,
        /// `"baseline"`, or `"degraded"` (abandon-ladder replan).
        cause: &'static str,
        /// Candidate sets the solver reused while producing this plan
        /// (always 0: the MPC solver keeps no cache).
        memo_hits: u64,
        /// Candidate sets the solver built while producing this plan
        /// (one per horizon step).
        memo_misses: u64,
        /// DP states expanded while producing this plan.
        states_expanded: u64,
    },
    /// One download attempt finished (delivered or failed).
    DownloadAttempt {
        segment: usize,
        attempt: usize,
        t_sec: f64,
        /// Degradation-ladder rung the attempt was fetched at.
        rung: usize,
        /// `"delivered"`, `"lost"`, `"corrupt"`, or `"abandoned"`.
        outcome: &'static str,
        bits: f64,
        elapsed_sec: f64,
        /// Seconds left until the segment deadline when the attempt
        /// ended; negative when the deadline had already passed.
        deadline_margin_sec: f64,
    },
    /// The pipeline is backing off before another attempt.
    Retry {
        segment: usize,
        attempt: usize,
        t_sec: f64,
        backoff_sec: f64,
    },
    /// An attempt was abandoned mid-flight and the ladder stepped down.
    Abandon {
        segment: usize,
        attempt: usize,
        t_sec: f64,
        rung: usize,
        wasted_bits: f64,
    },
    /// Playback stalled (rebuffering) while waiting for a segment.
    Stall {
        segment: usize,
        t_sec: f64,
        duration_sec: f64,
    },
    /// A segment was skipped after its retry deadline expired.
    Skip {
        segment: usize,
        t_sec: f64,
        blackout_sec: f64,
        attempts: usize,
    },
    /// The decode pipeline changed scheme between segments.
    DecoderSwitch {
        segment: usize,
        t_sec: f64,
        from: String,
        to: String,
    },
    /// Per-segment energy breakdown (Eq. 1 terms).
    EnergySample {
        segment: usize,
        transmission_mj: f64,
        decode_mj: f64,
        render_mj: f64,
        total_mj: f64,
    },
    /// Playback-buffer occupancy right after a segment was enqueued.
    BufferSample {
        segment: usize,
        t_sec: f64,
        level_sec: f64,
    },
}

impl Event {
    /// Stable type tag used as the `"type"` field of the JSON form.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SolverPlan { .. } => "solver_plan",
            Event::DownloadAttempt { .. } => "download_attempt",
            Event::Retry { .. } => "retry",
            Event::Abandon { .. } => "abandon",
            Event::Stall { .. } => "stall",
            Event::Skip { .. } => "skip",
            Event::DecoderSwitch { .. } => "decoder_switch",
            Event::EnergySample { .. } => "energy_sample",
            Event::BufferSample { .. } => "buffer_sample",
        }
    }

    /// The verbosity level at which this event starts being recorded.
    #[must_use]
    pub fn level(&self) -> Level {
        match self {
            Event::DownloadAttempt { .. } | Event::Retry { .. } | Event::BufferSample { .. } => {
                Level::Detail
            }
            _ => Level::Summary,
        }
    }

    /// The segment index the event concerns.
    #[must_use]
    pub fn segment(&self) -> usize {
        match self {
            Event::SolverPlan { segment, .. }
            | Event::DownloadAttempt { segment, .. }
            | Event::Retry { segment, .. }
            | Event::Abandon { segment, .. }
            | Event::Stall { segment, .. }
            | Event::Skip { segment, .. }
            | Event::DecoderSwitch { segment, .. }
            | Event::EnergySample { segment, .. }
            | Event::BufferSample { segment, .. } => *segment,
        }
    }
}

fn push(fields: &mut Vec<(String, Json)>, name: &str, v: Json) {
    fields.push((name.to_owned(), v));
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let mut f: Vec<(String, Json)> = Vec::with_capacity(10);
        push(&mut f, "type", Json::Str(self.kind().to_owned()));
        match self {
            Event::SolverPlan {
                segment,
                t_sec,
                quality,
                fps,
                bits,
                cause,
                memo_hits,
                memo_misses,
                states_expanded,
            } => {
                push(&mut f, "segment", Json::Int(*segment as i64));
                push(&mut f, "t_sec", Json::Num(*t_sec));
                push(&mut f, "quality", Json::Int(*quality as i64));
                push(&mut f, "fps", Json::Num(*fps));
                push(&mut f, "bits", Json::Num(*bits));
                push(&mut f, "cause", Json::Str((*cause).to_owned()));
                push(&mut f, "memo_hits", Json::Int(*memo_hits as i64));
                push(&mut f, "memo_misses", Json::Int(*memo_misses as i64));
                push(
                    &mut f,
                    "states_expanded",
                    Json::Int(*states_expanded as i64),
                );
            }
            Event::DownloadAttempt {
                segment,
                attempt,
                t_sec,
                rung,
                outcome,
                bits,
                elapsed_sec,
                deadline_margin_sec,
            } => {
                push(&mut f, "segment", Json::Int(*segment as i64));
                push(&mut f, "attempt", Json::Int(*attempt as i64));
                push(&mut f, "t_sec", Json::Num(*t_sec));
                push(&mut f, "rung", Json::Int(*rung as i64));
                push(&mut f, "outcome", Json::Str((*outcome).to_owned()));
                push(&mut f, "bits", Json::Num(*bits));
                push(&mut f, "elapsed_sec", Json::Num(*elapsed_sec));
                push(
                    &mut f,
                    "deadline_margin_sec",
                    Json::Num(*deadline_margin_sec),
                );
            }
            Event::Retry {
                segment,
                attempt,
                t_sec,
                backoff_sec,
            } => {
                push(&mut f, "segment", Json::Int(*segment as i64));
                push(&mut f, "attempt", Json::Int(*attempt as i64));
                push(&mut f, "t_sec", Json::Num(*t_sec));
                push(&mut f, "backoff_sec", Json::Num(*backoff_sec));
            }
            Event::Abandon {
                segment,
                attempt,
                t_sec,
                rung,
                wasted_bits,
            } => {
                push(&mut f, "segment", Json::Int(*segment as i64));
                push(&mut f, "attempt", Json::Int(*attempt as i64));
                push(&mut f, "t_sec", Json::Num(*t_sec));
                push(&mut f, "rung", Json::Int(*rung as i64));
                push(&mut f, "wasted_bits", Json::Num(*wasted_bits));
            }
            Event::Stall {
                segment,
                t_sec,
                duration_sec,
            } => {
                push(&mut f, "segment", Json::Int(*segment as i64));
                push(&mut f, "t_sec", Json::Num(*t_sec));
                push(&mut f, "duration_sec", Json::Num(*duration_sec));
            }
            Event::Skip {
                segment,
                t_sec,
                blackout_sec,
                attempts,
            } => {
                push(&mut f, "segment", Json::Int(*segment as i64));
                push(&mut f, "t_sec", Json::Num(*t_sec));
                push(&mut f, "blackout_sec", Json::Num(*blackout_sec));
                push(&mut f, "attempts", Json::Int(*attempts as i64));
            }
            Event::DecoderSwitch {
                segment,
                t_sec,
                from,
                to,
            } => {
                push(&mut f, "segment", Json::Int(*segment as i64));
                push(&mut f, "t_sec", Json::Num(*t_sec));
                push(&mut f, "from", Json::Str(from.clone()));
                push(&mut f, "to", Json::Str(to.clone()));
            }
            Event::EnergySample {
                segment,
                transmission_mj,
                decode_mj,
                render_mj,
                total_mj,
            } => {
                push(&mut f, "segment", Json::Int(*segment as i64));
                push(&mut f, "transmission_mj", Json::Num(*transmission_mj));
                push(&mut f, "decode_mj", Json::Num(*decode_mj));
                push(&mut f, "render_mj", Json::Num(*render_mj));
                push(&mut f, "total_mj", Json::Num(*total_mj));
            }
            Event::BufferSample {
                segment,
                t_sec,
                level_sec,
            } => {
                push(&mut f, "segment", Json::Int(*segment as i64));
                push(&mut f, "t_sec", Json::Num(*t_sec));
                push(&mut f, "level_sec", Json::Num(*level_sec));
            }
        }
        Json::Obj(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::json::to_string;

    #[test]
    fn level_ordering_matches_filtering_semantics() {
        assert!(Level::Off < Level::Summary);
        assert!(Level::Summary < Level::Detail);
    }

    #[test]
    fn event_levels_partition_the_taxonomy() {
        let detail = Event::Retry {
            segment: 3,
            attempt: 1,
            t_sec: 1.5,
            backoff_sec: 0.25,
        };
        let summary = Event::Stall {
            segment: 3,
            t_sec: 1.5,
            duration_sec: 0.4,
        };
        assert_eq!(detail.level(), Level::Detail);
        assert_eq!(summary.level(), Level::Summary);
        assert_eq!(detail.segment(), 3);
    }

    #[test]
    fn json_form_is_tagged_and_ordered() {
        let e = Event::Skip {
            segment: 7,
            t_sec: 12.0,
            blackout_sec: 3.5,
            attempts: 4,
        };
        let s = to_string(&e.to_json()).expect("serialises");
        assert!(s.starts_with("{\"type\":\"skip\""), "{s}");
        assert!(s.contains("\"segment\":7"));
        assert!(s.contains("\"blackout_sec\":3.5"));
    }
}

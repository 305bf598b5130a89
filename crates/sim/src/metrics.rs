//! Per-segment records and session-level aggregates.
//!
//! Everything Figs. 9–11 plot comes out of a [`SessionMetrics`]: the
//! three-part energy breakdown (transmission / decoding / rendering), the
//! QoE decomposition (average quality, quality variation, rebuffering), and
//! stall statistics.

use ee360_power::energy::SegmentEnergy;
use ee360_power::model::DecoderScheme;
use ee360_qoe::impairment::SegmentQoe;
use ee360_video::segment::SEGMENT_DURATION_SEC;

use crate::resilience::ResilienceCounters;

/// Timing of one downloaded segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentTiming {
    /// Wall-clock time when the request was issued (after any wait), sec.
    pub request_time_sec: f64,
    /// Time spent waiting for the buffer to drain to β before requesting.
    pub wait_sec: f64,
    /// Download duration `S/R`, sec.
    pub download_sec: f64,
    /// Mean throughput experienced during the download, bits per second.
    pub throughput_bps: f64,
    /// Buffered video at request time (`B_k`), sec.
    pub buffer_at_request_sec: f64,
    /// Stall (rebuffering) time incurred, sec.
    pub stall_sec: f64,
    /// Buffer after the segment arrived (`B_{k+1}`), sec.
    pub buffer_after_sec: f64,
}

ee360_support::impl_json_struct!(SegmentTiming {
    request_time_sec,
    wait_sec,
    download_sec,
    throughput_bps,
    buffer_at_request_sec,
    stall_sec,
    buffer_after_sec
});

/// Everything recorded about one streamed segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRecord {
    /// Segment index within the video.
    pub index: usize,
    /// The paper's 1-based quality level chosen (1..=5).
    pub quality_level: usize,
    /// Displayed frame rate, fps.
    pub fps: f64,
    /// Downloaded bits for the segment (FoV + background).
    pub bits: f64,
    /// Which decode pipeline ran (Ptile schemes fall back to Ctile when no
    /// Ptile covers the predicted viewport).
    pub decode_scheme: DecoderScheme,
    /// Download/wait/stall timing.
    pub timing: SegmentTiming,
    /// Eq. 1 energy breakdown.
    pub energy: SegmentEnergy,
    /// Eq. 2 QoE decomposition.
    pub qoe: SegmentQoe,
}

ee360_support::impl_json_struct!(SegmentRecord {
    index,
    quality_level,
    fps,
    bits,
    decode_scheme,
    timing,
    energy,
    qoe
});

/// The startup phase: metadata fetch before the first segment request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartupRecord {
    /// Metadata payload, bits.
    pub bits: f64,
    /// Time the fetch took, seconds.
    pub duration_sec: f64,
    /// Radio energy spent, mJ.
    pub energy_mj: f64,
}

ee360_support::impl_json_struct!(StartupRecord {
    bits,
    duration_sec,
    energy_mj
});

/// Aggregates over a whole streaming session (one user × one video × one
/// network trace × one scheme).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionMetrics {
    startup: Option<StartupRecord>,
    records: Vec<SegmentRecord>,
    resilience: ResilienceCounters,
}

ee360_support::impl_json_struct!(SessionMetrics {
    startup,
    records,
    resilience
});

impl SessionMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty accumulator with room for `segments` records, so
    /// a session that knows its length books them without regrowing.
    pub fn with_capacity(segments: usize) -> Self {
        Self {
            records: Vec::with_capacity(segments),
            ..Self::default()
        }
    }

    /// Appends one segment's record.
    pub fn push(&mut self, record: SegmentRecord) {
        self.records.push(record);
    }

    /// Records the startup metadata fetch.
    pub fn set_startup(&mut self, startup: StartupRecord) {
        self.startup = Some(startup);
    }

    /// The startup record, if the session modelled one.
    pub fn startup(&self) -> Option<&StartupRecord> {
        self.startup.as_ref()
    }

    /// Startup delay: metadata fetch plus the first segment's download —
    /// the time from "play" to the first displayed frame.
    pub fn startup_delay_sec(&self) -> f64 {
        let meta = self.startup.map_or(0.0, |s| s.duration_sec);
        let first = self.records.first().map_or(0.0, |r| r.timing.download_sec);
        meta + first
    }

    /// All records in playback order.
    pub fn records(&self) -> &[SegmentRecord] {
        &self.records
    }

    /// Number of segments recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total energy over the session, mJ (including the startup fetch).
    pub fn total_energy_mj(&self) -> f64 {
        self.startup.map_or(0.0, |s| s.energy_mj)
            + self
                .records
                .iter()
                .map(|r| r.energy.total_mj())
                .sum::<f64>()
    }

    /// Summed energy breakdown (transmission, decode, render), mJ. The
    /// startup metadata fetch counts as transmission energy.
    pub fn energy_breakdown_mj(&self) -> SegmentEnergy {
        let mut total = SegmentEnergy::default();
        if let Some(s) = self.startup {
            total.transmission_mj += s.energy_mj;
        }
        for r in &self.records {
            total.accumulate(&r.energy);
        }
        total
    }

    /// Mean per-segment QoE (Eq. 2 totals averaged), the paper's headline
    /// QoE number.
    pub fn mean_qoe(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.qoe.total).sum::<f64>() / self.records.len() as f64
    }

    /// Mean original quality `Q_o` ("average video quality" in Fig. 11d).
    pub fn mean_quality(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.qoe.q_o).sum::<f64>() / self.records.len() as f64
    }

    /// Mean quality-variation impairment (Fig. 11d's second bar).
    pub fn mean_variation(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.qoe.variation).sum::<f64>() / self.records.len() as f64
    }

    /// Mean rebuffering impairment (Fig. 11d's third bar).
    pub fn mean_rebuffering(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.qoe.rebuffering).sum::<f64>() / self.records.len() as f64
    }

    /// Total stall time, seconds.
    pub fn total_stall_sec(&self) -> f64 {
        self.records.iter().map(|r| r.timing.stall_sec).sum()
    }

    /// Number of segments that incurred a stall.
    pub fn stall_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.timing.stall_sec > 1e-9)
            .count()
    }

    /// Total bits downloaded.
    pub fn total_bits(&self) -> f64 {
        self.records.iter().map(|r| r.bits).sum()
    }

    /// Mean chosen quality level.
    pub fn mean_quality_level(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.quality_level as f64)
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Mean displayed frame rate, fps.
    pub fn mean_fps(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.fps).sum::<f64>() / self.records.len() as f64
    }

    /// The session's resilience tallies (all-zero for a fault-free run).
    pub fn resilience(&self) -> &ResilienceCounters {
        &self.resilience
    }

    /// Replaces the resilience tallies wholesale (single-session runs).
    pub fn set_resilience(&mut self, counters: ResilienceCounters) {
        self.resilience = counters;
    }

    /// Fraction of wall-clock playback spent frozen: stalls plus skip
    /// blackouts over frozen-plus-played time. Zero for an empty session —
    /// no playback means nothing rebuffered.
    pub fn rebuffer_ratio(&self) -> f64 {
        let frozen = self.total_stall_sec() + self.resilience.blackout_sec;
        let played = self.records.len() as f64 * SEGMENT_DURATION_SEC;
        let denom = frozen + played;
        if denom <= 0.0 {
            0.0
        } else {
            frozen / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize, energy_mj: f64, qoe: f64, stall: f64) -> SegmentRecord {
        SegmentRecord {
            index,
            quality_level: 3,
            fps: 30.0,
            bits: 2.0e6,
            decode_scheme: DecoderScheme::Ctile,
            timing: SegmentTiming {
                request_time_sec: index as f64,
                wait_sec: 0.0,
                download_sec: 0.5,
                throughput_bps: 4.0e6,
                buffer_at_request_sec: 2.0,
                stall_sec: stall,
                buffer_after_sec: 2.5,
            },
            energy: SegmentEnergy {
                transmission_mj: energy_mj * 0.5,
                decode_mj: energy_mj * 0.3,
                render_mj: energy_mj * 0.2,
            },
            qoe: SegmentQoe {
                q_o: qoe + 5.0,
                variation: 2.0,
                rebuffering: 3.0,
                total: qoe,
            },
        }
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = SessionMetrics::new();
        assert!(m.is_empty());
        assert_eq!(m.total_energy_mj(), 0.0);
        assert_eq!(m.mean_qoe(), 0.0);
        assert_eq!(m.mean_quality(), 0.0);
        assert_eq!(m.stall_count(), 0);
        assert_eq!(m.mean_fps(), 0.0);
        assert_eq!(m.rebuffer_ratio(), 0.0);
        assert_eq!(m.resilience().skipped_segments, 0);
        assert!(m.resilience().is_clean());
    }

    #[test]
    fn totals_and_means() {
        let mut m = SessionMetrics::new();
        m.push(record(0, 1000.0, 70.0, 0.0));
        m.push(record(1, 2000.0, 80.0, 0.4));
        assert_eq!(m.len(), 2);
        assert!((m.total_energy_mj() - 3000.0).abs() < 1e-9);
        assert!((m.mean_qoe() - 75.0).abs() < 1e-12);
        assert!((m.mean_quality() - 80.0).abs() < 1e-12);
        assert!((m.mean_variation() - 2.0).abs() < 1e-12);
        assert!((m.mean_rebuffering() - 3.0).abs() < 1e-12);
        assert_eq!(m.stall_count(), 1);
        assert!((m.total_stall_sec() - 0.4).abs() < 1e-12);
        assert!((m.total_bits() - 4.0e6).abs() < 1e-6);
        assert_eq!(m.mean_quality_level(), 3.0);
        assert_eq!(m.mean_fps(), 30.0);
    }

    #[test]
    fn breakdown_sums_componentwise() {
        let mut m = SessionMetrics::new();
        m.push(record(0, 1000.0, 70.0, 0.0));
        m.push(record(1, 1000.0, 70.0, 0.0));
        let b = m.energy_breakdown_mj();
        assert!((b.transmission_mj - 1000.0).abs() < 1e-9);
        assert!((b.decode_mj - 600.0).abs() < 1e-9);
        assert!((b.render_mj - 400.0).abs() < 1e-9);
        assert!((b.total_mj() - m.total_energy_mj()).abs() < 1e-9);
    }

    #[test]
    fn startup_delay_and_energy() {
        let mut m = SessionMetrics::new();
        assert_eq!(m.startup_delay_sec(), 0.0);
        m.set_startup(StartupRecord {
            bits: 8.0e5,
            duration_sec: 0.2,
            energy_mj: 280.0,
        });
        m.push(record(0, 1000.0, 70.0, 0.0));
        assert!((m.startup_delay_sec() - 0.7).abs() < 1e-12); // 0.2 + 0.5
        assert!((m.total_energy_mj() - 1280.0).abs() < 1e-9);
        assert!(m.startup().is_some());
    }

    #[test]
    fn serde_roundtrip() -> Result<(), ee360_support::json::JsonError> {
        let mut m = SessionMetrics::new();
        m.push(record(0, 500.0, 60.0, 0.1));
        m.set_resilience(ResilienceCounters {
            retries: 2,
            skipped_segments: 1,
            blackout_sec: 1.25,
            ..ResilienceCounters::default()
        });
        let json = ee360_support::json::to_string(&m)?;
        let back: SessionMetrics = ee360_support::json::from_str(&json)?;
        assert_eq!(back, m);
        assert_eq!(back.resilience().retries, 2);
        Ok(())
    }

    #[test]
    fn empty_session_roundtrips_to_zeroed_summaries() -> Result<(), ee360_support::json::JsonError>
    {
        // An empty session must serialize and come back as the same
        // all-zero aggregate, never erroring on the missing records.
        let m = SessionMetrics::new();
        let json = ee360_support::json::to_string(&m)?;
        let back: SessionMetrics = ee360_support::json::from_str(&json)?;
        assert_eq!(back, m);
        assert!(back.is_empty());
        assert_eq!(back.mean_qoe(), 0.0);
        assert_eq!(back.rebuffer_ratio(), 0.0);
        assert_eq!(back.startup_delay_sec(), 0.0);
        Ok(())
    }

    #[test]
    fn rebuffer_ratio_counts_stalls_and_blackouts() {
        let mut m = SessionMetrics::new();
        m.push(record(0, 1000.0, 70.0, 0.5));
        m.push(record(1, 1000.0, 70.0, 0.0));
        // Two 1 s segments played, 0.5 s stall: ratio 0.5/2.5.
        assert!((m.rebuffer_ratio() - 0.5 / 2.5).abs() < 1e-12);
        m.set_resilience(ResilienceCounters {
            skipped_segments: 1,
            blackout_sec: 1.5,
            ..ResilienceCounters::default()
        });
        assert!((m.rebuffer_ratio() - 2.0 / 4.0).abs() < 1e-12);
        assert_eq!(m.resilience().skipped_segments, 1);
    }
}

//! Failure taxonomy of the download-and-decode pipeline.
//!
//! The seed simulator treated every anomaly as a panic; production
//! clients treat them as *outcomes*: a timeout is retried, an abandoned
//! download is re-requested lower on the ladder, an exhausted deadline
//! skips the segment and charges the blackout to QoE. [`SimError`] is the
//! currency those paths trade in.

use std::error::Error;
use std::fmt;

/// A recoverable failure in the streaming pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// An attempt's per-request timer expired before the payload finished
    /// (mid-download abandon).
    Timeout {
        /// Segment being fetched.
        segment: usize,
        /// Zero-based attempt number.
        attempt: usize,
        /// Wall-clock time the attempt burned, seconds.
        elapsed_sec: f64,
    },
    /// The request vanished entirely (detected only by the timeout).
    SegmentLost {
        /// Segment being fetched.
        segment: usize,
        /// Zero-based attempt number.
        attempt: usize,
    },
    /// The payload arrived but failed its integrity check.
    SegmentCorrupt {
        /// Segment being fetched.
        segment: usize,
        /// Zero-based attempt number.
        attempt: usize,
    },
    /// The hardware decoder wedged and had to be reinitialised.
    DecoderFailed {
        /// Segment being decoded.
        segment: usize,
    },
    /// The segment's total deadline was exhausted across all retries; the
    /// player skips it.
    DeadlineExhausted {
        /// Segment given up on.
        segment: usize,
        /// Attempts made before giving up.
        attempts: usize,
    },
    /// The caller's request was malformed (non-positive bits, metadata
    /// after playback started, …).
    InvalidRequest(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout {
                segment,
                attempt,
                elapsed_sec,
            } => write!(
                f,
                "segment {segment} attempt {attempt} timed out after {elapsed_sec:.2}s"
            ),
            SimError::SegmentLost { segment, attempt } => {
                write!(f, "segment {segment} attempt {attempt} was lost in transit")
            }
            SimError::SegmentCorrupt { segment, attempt } => {
                write!(f, "segment {segment} attempt {attempt} arrived corrupt")
            }
            SimError::DecoderFailed { segment } => {
                write!(f, "decoder wedged on segment {segment}")
            }
            SimError::DeadlineExhausted { segment, attempts } => write!(
                f,
                "segment {segment} deadline exhausted after {attempts} attempts; skipping"
            ),
            SimError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_segment() {
        let e = SimError::Timeout {
            segment: 7,
            attempt: 2,
            elapsed_sec: 3.5,
        };
        let s = e.to_string();
        assert!(s.contains("segment 7") && s.contains("attempt 2"), "{s}");
        let skip = SimError::DeadlineExhausted {
            segment: 3,
            attempts: 4,
        };
        assert!(skip.to_string().contains("segment 3"), "{skip}");
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn Error) {}
        takes_error(&SimError::DecoderFailed { segment: 0 });
    }
}

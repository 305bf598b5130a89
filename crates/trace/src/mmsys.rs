//! Adapter for the real MMSys'17 head-movement dataset.
//!
//! The paper evaluates on Wu et al., *"A Dataset for Exploring User
//! Behaviors in VR Spherical Video Streaming"* (ACM MMSys 2017). We cannot
//! ship that data, but a reproduction repo should accept it: this module
//! parses the dataset's CSV layout and converts it into [`HeadTrace`]s, so
//! every experiment can be re-run on the real gaze data by pointing the
//! loader at the extracted archive.
//!
//! ## Format
//!
//! One CSV per (user, video): an optional header line, then rows of
//!
//! ```text
//! Timestamp, PlaybackTime, UnitQuaternion.w, .x, .y, .z, [HmdPosition...]
//! ```
//!
//! The quaternion rotates the head from its reference pose; the gaze
//! direction is the rotated `-Z` axis (the OpenGL/Unity camera forward),
//! which we convert to our yaw/pitch convention (`x` front, `y` east,
//! `z` up).

use std::error::Error;
use std::fmt;
use std::path::Path;

use ee360_geom::angles::rad_to_deg;

use crate::head::{HeadTrace, HeadTraceError};

/// One parsed sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmsysSample {
    /// Playback time, seconds.
    pub playback_sec: f64,
    /// Head orientation as a unit quaternion `(w, x, y, z)`.
    pub quaternion: (f64, f64, f64, f64),
}

/// Error returned by the MMSys parser.
#[derive(Debug)]
pub enum MmsysError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A row did not have enough numeric columns.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The file contained no data rows.
    Empty,
}

impl fmt::Display for MmsysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmsysError::Io(e) => write!(f, "cannot read dataset file: {e}"),
            MmsysError::Malformed { line, reason } => {
                write!(f, "malformed dataset row at line {line}: {reason}")
            }
            MmsysError::Empty => write!(f, "dataset file has no data rows"),
        }
    }
}

impl Error for MmsysError {}

impl From<std::io::Error> for MmsysError {
    fn from(e: std::io::Error) -> Self {
        MmsysError::Io(e)
    }
}

/// Parses the CSV text of one (user, video) file.
///
/// Tolerates an optional header row, surrounding whitespace, and extra
/// trailing columns (HMD position). Rows must be in playback order.
///
/// # Errors
///
/// Returns [`MmsysError::Malformed`] on short or non-numeric rows and
/// [`MmsysError::Empty`] when no data rows survive.
pub fn parse_csv(text: &str) -> Result<Vec<MmsysSample>, MmsysError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').map(str::trim).collect();
        // Header row: skip if the second column is not numeric.
        if idx == 0 && cols.get(1).is_none_or(|c| c.parse::<f64>().is_err()) {
            continue;
        }
        if cols.len() < 6 {
            return Err(MmsysError::Malformed {
                line: line_no,
                reason: format!("expected at least 6 columns, got {}", cols.len()),
            });
        }
        let num = |i: usize| -> Result<f64, MmsysError> {
            cols[i].parse::<f64>().map_err(|_| MmsysError::Malformed {
                line: line_no,
                reason: format!("column {} is not a number: `{}`", i + 1, cols[i]),
            })
        };
        out.push(MmsysSample {
            playback_sec: num(1)?,
            quaternion: (num(2)?, num(3)?, num(4)?, num(5)?),
        });
    }
    if out.is_empty() {
        return Err(MmsysError::Empty);
    }
    Ok(out)
}

/// Converts a head quaternion to (yaw, pitch) in our convention.
///
/// The gaze is the rotated `-Z` axis of the Unity/OpenGL camera frame
/// (x right, y up, z backwards); our world frame is x front, y east,
/// z up.
pub fn quaternion_to_yaw_pitch(q: (f64, f64, f64, f64)) -> (f64, f64) {
    let (w, x, y, z) = q;
    // Rotate v = (0, 0, -1) by q: standard quaternion-vector product.
    let vx = -(2.0 * (x * z + w * y));
    let vy = -(2.0 * (y * z - w * x));
    let vz = -(1.0 - 2.0 * (x * x + y * y));
    // Unity frame (right, up, back) → ours (front, east, up):
    // forward = -z_unity → our x; right = x_unity → our y; up = y_unity → z.
    let fx = -vz;
    let fy = vx;
    let fz = vy;
    let norm = (fx * fx + fy * fy + fz * fz).sqrt().max(1e-12);
    let pitch = rad_to_deg((fz / norm).clamp(-1.0, 1.0).asin());
    let yaw = rad_to_deg(fy.atan2(fx));
    (yaw, pitch)
}

/// Builds a [`HeadTrace`] from parsed samples.
///
/// # Errors
///
/// Returns [`MmsysError::Empty`] for an empty sample list and
/// [`MmsysError::Malformed`] if playback times are not finite and
/// strictly increasing, or a quaternion gives a non-finite yaw or pitch.
pub fn to_head_trace(
    samples: &[MmsysSample],
    video_id: usize,
    user_id: usize,
) -> Result<HeadTrace, MmsysError> {
    let rows = samples
        .iter()
        .map(|s| {
            let (yaw, pitch) = quaternion_to_yaw_pitch(s.quaternion);
            (s.playback_sec, yaw, pitch)
        })
        .collect();
    HeadTrace::try_from_samples(video_id, user_id, rows).map_err(|e| match e {
        HeadTraceError::EmptyTrace => MmsysError::Empty,
        HeadTraceError::NonFiniteTime { index }
        | HeadTraceError::NonFiniteAngle { index }
        | HeadTraceError::NonIncreasingTime { index } => MmsysError::Malformed {
            line: index + 1,
            reason: e.to_string(),
        },
    })
}

/// Loads one (user, video) CSV file into a [`HeadTrace`].
///
/// # Errors
///
/// Propagates I/O and parse errors.
pub fn load_head_trace(
    path: impl AsRef<Path>,
    video_id: usize,
    user_id: usize,
) -> Result<HeadTrace, MmsysError> {
    let text = std::fs::read_to_string(path)?;
    let samples = parse_csv(&text)?;
    to_head_trace(&samples, video_id, user_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_CSV: &str = "\
Timestamp,PlaybackTime,UnitQuaternion.w,UnitQuaternion.x,UnitQuaternion.y,UnitQuaternion.z,HmdPosition.x,HmdPosition.y,HmdPosition.z
1234.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0
1234.1,0.1,0.9238795,0.0,0.3826834,0.0,0.0,0.0,0.0
1234.2,0.2,0.7071068,0.0,0.7071068,0.0,0.0,0.0,0.0
";

    #[test]
    fn parses_with_header_and_extra_columns() {
        let samples = parse_csv(SAMPLE_CSV).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].playback_sec, 0.0);
        assert_eq!(samples[0].quaternion, (1.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn parses_without_header() {
        let body = "0.0,0.5,1.0,0.0,0.0,0.0\n0.1,0.6,1.0,0.0,0.0,0.0\n";
        let samples = parse_csv(body).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].playback_sec, 0.5);
    }

    #[test]
    fn identity_quaternion_looks_front() {
        let (yaw, pitch) = quaternion_to_yaw_pitch((1.0, 0.0, 0.0, 0.0));
        assert!(yaw.abs() < 1e-9);
        assert!(pitch.abs() < 1e-9);
    }

    #[test]
    fn yaw_rotation_about_up_axis() {
        // 90° about Unity's y (up): the camera turns; with q = (cos45, 0,
        // sin45, 0) the forward −Z maps to −X (Unity left) → our yaw −90°.
        let s = std::f64::consts::FRAC_PI_4.sin();
        let c = std::f64::consts::FRAC_PI_4.cos();
        let (yaw, pitch) = quaternion_to_yaw_pitch((c, 0.0, s, 0.0));
        assert!((yaw.abs() - 90.0).abs() < 1e-6, "yaw {yaw}");
        assert!(pitch.abs() < 1e-6);
    }

    #[test]
    fn pitch_rotation_about_right_axis() {
        // 45° about Unity's x (right): looking up or down by 45°.
        let s = (std::f64::consts::FRAC_PI_4 / 2.0).sin();
        let c = (std::f64::consts::FRAC_PI_4 / 2.0).cos();
        let (_, pitch) = quaternion_to_yaw_pitch((c, s, 0.0, 0.0));
        assert!((pitch.abs() - 45.0).abs() < 1e-6, "pitch {pitch}");
    }

    #[test]
    fn converts_to_head_trace() {
        let samples = parse_csv(SAMPLE_CSV).unwrap();
        let trace = to_head_trace(&samples, 3, 7).unwrap();
        assert_eq!(trace.video_id(), 3);
        assert_eq!(trace.user_id(), 7);
        assert_eq!(trace.len(), 3);
        // The 45°-about-up sample must yield ±45° yaw at t = 0.1.
        let speeds = trace.switching_speeds();
        assert_eq!(speeds.len(), 2);
        assert!(speeds.iter().all(|s| *s > 100.0), "{speeds:?}"); // 45° per 0.1 s
    }

    #[test]
    fn load_from_file_roundtrip() {
        let mut path = std::env::temp_dir();
        path.push(format!("ee360-mmsys-{}.csv", std::process::id()));
        std::fs::write(&path, SAMPLE_CSV).unwrap();
        let trace = load_head_trace(&path, 1, 0).unwrap();
        assert_eq!(trace.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_row_is_malformed() {
        let err = parse_csv("0.0,1.0,0.5\n").unwrap_err();
        assert!(matches!(err, MmsysError::Malformed { line: 1, .. }));
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn non_numeric_is_malformed() {
        let err = parse_csv("0.0,1.0,abc,0.0,0.0,0.0\n").unwrap_err();
        assert!(matches!(err, MmsysError::Malformed { .. }));
    }

    #[test]
    fn header_only_is_empty() {
        let err = parse_csv("Timestamp,PlaybackTime,w,x,y,z\n").unwrap_err();
        assert!(matches!(err, MmsysError::Empty));
    }

    #[test]
    fn nan_playback_time_is_malformed() {
        // `f64::from_str` accepts "NaN", so the parser passes it through
        // and the trace builder must reject it.
        let samples = parse_csv(
            "0.0,0.0,1.0,0.0,0.0,0.0\n0.1,NaN,1.0,0.0,0.0,0.0\n0.2,0.2,1.0,0.0,0.0,0.0\n",
        )
        .unwrap();
        assert!(samples[1].playback_sec.is_nan());
        assert!(matches!(
            to_head_trace(&samples, 1, 1),
            Err(MmsysError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn nan_quaternion_component_is_malformed() {
        // A parsed `NaN` component turns the row's yaw and pitch into NaN.
        let samples = parse_csv(
            "0.0,0.0,1.0,0.0,0.0,0.0\n0.1,0.1,1.0,0.0,0.0,0.0\n0.2,0.2,1.0,NaN,0.0,0.0\n",
        )
        .unwrap();
        assert!(samples[2].quaternion.1.is_nan());
        assert!(matches!(
            to_head_trace(&samples, 1, 1),
            Err(MmsysError::Malformed { line: 3, .. })
        ));
    }

    #[test]
    fn non_monotonic_time_rejected() {
        let samples = vec![
            MmsysSample {
                playback_sec: 0.5,
                quaternion: (1.0, 0.0, 0.0, 0.0),
            },
            MmsysSample {
                playback_sec: 0.5,
                quaternion: (1.0, 0.0, 0.0, 0.0),
            },
        ];
        assert!(matches!(
            to_head_trace(&samples, 1, 1),
            Err(MmsysError::Malformed { .. })
        ));
    }
}

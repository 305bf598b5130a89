//! Quality levels and the frame-rate ladder (Section III-A, V-A).
//!
//! Each tile is encoded at `V = 5` quality levels obtained by varying the
//! x264 constant rate factor from CRF 38 (level 1, lowest quality) to
//! CRF 18 (level 5, highest) in steps of 5. Ptiles are additionally encoded
//! at reduced frame rates: the paper constructs three reduced versions at
//! −10%, −20% and −30% of the original rate.

/// One of the paper's five encoding quality levels.
///
/// Level 1 is the lowest quality (CRF 38), level 5 the highest (CRF 18).
///
/// # Example
///
/// ```
/// use ee360_video::ladder::QualityLevel;
/// assert_eq!(QualityLevel::Q5.index(), 5);
/// assert!(QualityLevel::Q5 > QualityLevel::Q1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QualityLevel {
    /// Level 1: CRF 38 (lowest quality).
    Q1,
    /// Level 2: CRF 33.
    Q2,
    /// Level 3: CRF 28.
    Q3,
    /// Level 4: CRF 23.
    Q4,
    /// Level 5: CRF 18 (highest quality).
    Q5,
}

ee360_support::impl_json_enum!(QualityLevel { Q1, Q2, Q3, Q4, Q5 });

impl QualityLevel {
    /// All levels, lowest to highest.
    pub const ALL: [QualityLevel; 5] = [
        QualityLevel::Q1,
        QualityLevel::Q2,
        QualityLevel::Q3,
        QualityLevel::Q4,
        QualityLevel::Q5,
    ];

    /// The paper's 1-based index (1 = lowest, 5 = highest).
    pub fn index(&self) -> usize {
        match self {
            QualityLevel::Q1 => 1,
            QualityLevel::Q2 => 2,
            QualityLevel::Q3 => 3,
            QualityLevel::Q4 => 4,
            QualityLevel::Q5 => 5,
        }
    }

    /// Builds a level from the paper's 1-based index.
    ///
    /// Returns `None` if `idx` is not in `1..=5`.
    pub fn from_index(idx: usize) -> Option<Self> {
        match idx {
            1 => Some(QualityLevel::Q1),
            2 => Some(QualityLevel::Q2),
            3 => Some(QualityLevel::Q3),
            4 => Some(QualityLevel::Q4),
            5 => Some(QualityLevel::Q5),
            _ => None,
        }
    }

    /// The next lower level, or `None` at the bottom.
    pub fn lower(&self) -> Option<Self> {
        Self::from_index(self.index() - 1)
    }

    /// The next higher level, or `None` at the top.
    pub fn higher(&self) -> Option<Self> {
        Self::from_index(self.index() + 1)
    }
}

/// A concrete frame rate in frames per second.
///
/// The paper's source videos run at 30 fps; the frame-rate ladder for
/// Ptiles adds 27, 24 and 21 fps variants (−10%/−20%/−30%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRate {
    fps: f64,
}

ee360_support::impl_json_struct!(FrameRate { fps });

impl FrameRate {
    /// Creates a frame rate.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not finite and positive.
    pub fn new(fps: f64) -> Self {
        assert!(fps.is_finite() && fps > 0.0, "frame rate must be positive");
        Self { fps }
    }

    /// Frames per second.
    pub fn fps(&self) -> f64 {
        self.fps
    }
}

/// The full encoding ladder: quality levels × frame rates.
///
/// The highest frame-rate index corresponds to the original video rate,
/// matching the paper's convention that index `F` is the maximum.
///
/// # Example
///
/// ```
/// use ee360_video::ladder::EncodingLadder;
/// let ladder = EncodingLadder::paper_default();
/// assert_eq!(ladder.frame_rates().len(), 4); // 21, 24, 27, 30 fps
/// assert_eq!(ladder.max_frame_rate().fps(), 30.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EncodingLadder {
    original_fps: f64,
    /// Reduction fractions for the reduced-rate variants, e.g. `[0.1, 0.2, 0.3]`.
    reductions: Vec<f64>,
}

ee360_support::impl_json_struct!(EncodingLadder {
    original_fps,
    reductions
});

impl EncodingLadder {
    /// Creates a ladder from an original frame rate and reduction fractions.
    ///
    /// # Panics
    ///
    /// Panics if `original_fps` is not positive, or any reduction is outside
    /// `(0, 1)`.
    pub fn new(original_fps: f64, reductions: Vec<f64>) -> Self {
        assert!(
            original_fps.is_finite() && original_fps > 0.0,
            "original frame rate must be positive"
        );
        assert!(
            reductions.iter().all(|r| *r > 0.0 && *r < 1.0),
            "reductions must be fractions in (0, 1)"
        );
        Self {
            original_fps,
            reductions,
        }
    }

    /// The paper's ladder: 30 fps original, reductions of 10%, 20%, 30%.
    pub fn paper_default() -> Self {
        Self::new(30.0, vec![0.1, 0.2, 0.3])
    }

    /// A ladder with only the original frame rate (used by the Ptile
    /// baseline, which does not adapt frame rate).
    pub fn single_rate(original_fps: f64) -> Self {
        Self::new(original_fps, Vec::new())
    }

    /// All frame rates, lowest to highest; the last one is the original.
    pub fn frame_rates(&self) -> Vec<FrameRate> {
        let mut rates: Vec<FrameRate> = self
            .reductions
            .iter()
            .map(|r| FrameRate::new(self.original_fps * (1.0 - r)))
            .collect();
        rates.sort_by(|a, b| a.fps().total_cmp(&b.fps()));
        rates.push(FrameRate::new(self.original_fps));
        rates
    }

    /// The original (maximum) frame rate.
    pub fn max_frame_rate(&self) -> FrameRate {
        FrameRate::new(self.original_fps)
    }

    /// Number of frame-rate variants (`F` in the paper).
    pub fn frame_rate_count(&self) -> usize {
        self.reductions.len() + 1
    }

    /// Iterates over every (quality, frame-rate) tuple of the ladder.
    pub fn variants(&self) -> Vec<(QualityLevel, FrameRate)> {
        let rates = self.frame_rates();
        QualityLevel::ALL
            .iter()
            .flat_map(|q| rates.iter().map(move |f| (*q, *f)))
            .collect()
    }
}

impl Default for EncodingLadder {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for q in QualityLevel::ALL {
            assert_eq!(QualityLevel::from_index(q.index()), Some(q));
        }
        assert_eq!(QualityLevel::from_index(0), None);
        assert_eq!(QualityLevel::from_index(6), None);
    }

    #[test]
    fn lower_higher_navigation() {
        assert_eq!(QualityLevel::Q1.lower(), None);
        assert_eq!(QualityLevel::Q5.higher(), None);
        assert_eq!(QualityLevel::Q3.higher(), Some(QualityLevel::Q4));
        assert_eq!(QualityLevel::Q3.lower(), Some(QualityLevel::Q2));
    }

    #[test]
    fn ordering_is_by_quality() {
        assert!(QualityLevel::Q1 < QualityLevel::Q2);
        assert!(QualityLevel::Q4 < QualityLevel::Q5);
    }

    #[test]
    fn paper_ladder_rates() {
        let ladder = EncodingLadder::paper_default();
        let fps: Vec<f64> = ladder.frame_rates().iter().map(|f| f.fps()).collect();
        assert_eq!(fps, vec![21.0, 24.0, 27.0, 30.0]);
        assert_eq!(ladder.frame_rate_count(), 4);
    }

    #[test]
    fn single_rate_ladder() {
        let ladder = EncodingLadder::single_rate(30.0);
        assert_eq!(ladder.frame_rate_count(), 1);
        assert_eq!(ladder.frame_rates().len(), 1);
        assert_eq!(ladder.frame_rates()[0].fps(), 30.0);
    }

    #[test]
    fn variants_cartesian_product() {
        let ladder = EncodingLadder::paper_default();
        let vs = ladder.variants();
        assert_eq!(vs.len(), 5 * 4);
        // First tuple pairs the lowest quality with the lowest rate.
        assert_eq!(vs[0].0, QualityLevel::Q1);
        assert_eq!(vs[0].1.fps(), 21.0);
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn bad_reduction_panics() {
        let _ = EncodingLadder::new(30.0, vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_fps_panics() {
        let _ = FrameRate::new(0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let ladder = EncodingLadder::paper_default();
        let json = ee360_support::json::to_string(&ladder).unwrap();
        let back: EncodingLadder = ee360_support::json::from_str(&json).unwrap();
        assert_eq!(back, ladder);
    }
}

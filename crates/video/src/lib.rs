//! Video model for tile-based 360° streaming.
//!
//! Implements Section III-A of the paper: each video is a sequence of
//! `L = 1 s` segments, each segment is divided into `C` tiles (4 × 8 by
//! default), every tile is encoded at `V = 5` quality levels, and Ptiles are
//! additionally encoded at `F` frame rates.
//!
//! Modules:
//!
//! * [`ladder`] — quality levels (CRF 38..18) and the frame-rate ladder
//!   (original rate plus 10%/20%/30% reductions),
//! * [`content`] — SI/TI perceptual content descriptors (ITU-T P.910),
//! * [`catalog`] — the eight test videos of Table III,
//! * [`segment`] — segment timing and per-segment content,
//! * [`size_model`] — encoded sizes for tiles, Ptiles, background blocks
//!   and whole-frame encodings, calibrated to the paper's Fig. 8.
//!
//! # Example
//!
//! ```
//! use ee360_video::ladder::{EncodingLadder, QualityLevel};
//! use ee360_video::size_model::SizeModel;
//! use ee360_video::content::SiTi;
//!
//! let model = SizeModel::paper_default();
//! let content = SiTi::new(60.0, 25.0);
//! // One 3×3-tile FoV region at the top quality, full frame rate:
//! let ptile = model.region_bits(9.0 / 32.0, 1, QualityLevel::Q5, 30.0, content);
//! let ctile = model.region_bits(9.0 / 32.0, 9, QualityLevel::Q5, 30.0, content);
//! assert!(ptile < ctile); // the Ptile always compresses better
//! let _ = EncodingLadder::paper_default();
//! ```

pub mod catalog;
pub mod content;
pub mod error;
pub mod ladder;
pub mod segment;
pub mod size_model;

pub use catalog::{BehaviorProfile, VideoCatalog, VideoSpec};
pub use content::SiTi;
pub use error::VideoError;
pub use ladder::{EncodingLadder, FrameRate, QualityLevel};
pub use segment::{SegmentContent, SegmentTimeline, SEGMENT_DURATION_SEC};
pub use size_model::SizeModel;

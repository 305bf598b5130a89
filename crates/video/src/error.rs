//! Failure taxonomy of the video catalog.
//!
//! Construction problems that the seed treated as panics become values
//! a caller can route — a CLI can name the bad video id, a server can
//! reject a malformed catalog upload without dying.

use std::error::Error;
use std::fmt;

/// A recoverable failure while building or querying video metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoError {
    /// A catalog was constructed with no videos.
    EmptyCatalog,
    /// Two catalog entries share a Table III id.
    DuplicateVideoId {
        /// The id that appears more than once.
        id: usize,
    },
    /// A lookup named an id the catalog does not hold.
    UnknownVideo {
        /// The requested id.
        id: usize,
    },
}

impl fmt::Display for VideoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VideoError::EmptyCatalog => write!(f, "catalog must not be empty"),
            VideoError::DuplicateVideoId { id } => {
                write!(
                    f,
                    "video ids must be unique: id {id} appears more than once"
                )
            }
            VideoError::UnknownVideo { id } => write!(f, "no video with id {id} in the catalog"),
        }
    }
}

impl Error for VideoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_id() {
        let e = VideoError::UnknownVideo { id: 9 };
        assert!(e.to_string().contains("id 9"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn Error) {}
        takes_error(&VideoError::EmptyCatalog);
    }
}

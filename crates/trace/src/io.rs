//! Persistence for traces and datasets.
//!
//! The synthetic dataset plays the role of the MMSys'17 capture, so it
//! should be storable and reloadable like one: generate once, archive the
//! JSON, and rerun experiments against the exact same bits.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::dataset::Dataset;

/// Error returned by the persistence helpers.
#[derive(Debug)]
pub enum TraceIoError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file contents were not valid JSON for the expected type.
    Format(ee360_support::json::JsonError),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace file I/O failed: {e}"),
            TraceIoError::Format(e) => write!(f, "trace file is not valid: {e}"),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Format(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<ee360_support::json::JsonError> for TraceIoError {
    fn from(e: ee360_support::json::JsonError) -> Self {
        TraceIoError::Format(e)
    }
}

/// Saves a dataset to a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] when the file cannot be written.
pub fn save_dataset(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    let json = ee360_support::json::to_string(dataset)?;
    fs::write(path, json)?;
    Ok(())
}

/// Loads a dataset from a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] when the file cannot be read and
/// [`TraceIoError::Format`] when it does not contain a dataset.
pub fn load_dataset(path: impl AsRef<Path>) -> Result<Dataset, TraceIoError> {
    let json = fs::read_to_string(path)?;
    Ok(ee360_support::json::from_str(&json)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_video::catalog::VideoCatalog;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ee360-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn dataset_roundtrip() {
        let catalog = VideoCatalog::paper_default();
        let dataset = Dataset::generate(&catalog, 2, 5);
        let path = tmp("dataset.json");
        save_dataset(&dataset, &path).unwrap();
        let back = load_dataset(&path).unwrap();
        assert_eq!(back, dataset);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_dataset("/definitely/not/a/path.json").unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn malformed_file_is_format_error() {
        let path = tmp("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = load_dataset(&path).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)));
        let _ = std::fs::remove_file(&path);
    }
}

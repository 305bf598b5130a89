//! Prediction: where the user will look, and how fast the network will be.
//!
//! Section IV-B of the paper:
//!
//! * **Viewport** — "The ridge regression model is applied to better
//!   predict the user's viewing area (i.e., the viewing center), since it
//!   is more robust to deal with overfitting." The recent (x, y) gaze
//!   coordinate time series is regressed against time and extrapolated one
//!   buffer-depth ahead. See [`viewport`].
//! * **Bandwidth** — "We use the harmonic mean of the downloading
//!   throughput of the past several segments to estimate the network
//!   bandwidth," which damps LTE bursts. See [`bandwidth`].
//!
//! Both modules also provide the naïve baselines used by the ablation
//! benches (last-sample and arithmetic-mean estimators, OLS prediction).
//!
//! # Example
//!
//! ```
//! use ee360_predict::bandwidth::{BandwidthEstimator, HarmonicMeanEstimator};
//!
//! let mut est = HarmonicMeanEstimator::new(5);
//! for bw in [4.0e6, 3.5e6, 30.0e6, 3.8e6] {
//!     est.observe(bw);
//! }
//! // The burst barely moves the harmonic mean.
//! assert!(est.estimate().unwrap() < 6.0e6);
//! ```

pub mod bandwidth;
pub mod forecast;
pub mod viewport;

pub use bandwidth::{
    ArithmeticMeanEstimator, BandwidthEstimator, BandwidthMargin, HarmonicMeanEstimator,
    LastSampleEstimator,
};
pub use forecast::ArForecaster;
pub use viewport::{PredictError, PredictorKind, ResidualTracker, ViewportPredictor};

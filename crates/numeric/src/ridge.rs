//! Ridge regression.
//!
//! The paper predicts the user's future viewing center with ridge regression
//! over the recent (x, y) gaze coordinate time series (Section IV-B),
//! because the ℓ₂ penalty is "more robust to deal with overfitting" on the
//! short, noisy history window. This module solves the regularised normal
//! equations `(XᵀX + λI) w = Xᵀy` with the Cholesky solver; the intercept
//! column is never penalised.

use std::error::Error;
use std::fmt;

use crate::matrix::Matrix;
use crate::solve::{cholesky_solve, SolveError};

/// Error returned by [`RidgeRegression::fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RidgeError {
    /// No training samples were provided.
    EmptyTrainingSet,
    /// Feature rows have inconsistent lengths, or targets mismatch.
    ShapeMismatch,
    /// The regularisation is non-positive and the system is singular.
    Singular,
    /// `lambda` must be non-negative.
    NegativeLambda,
}

impl fmt::Display for RidgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RidgeError::EmptyTrainingSet => write!(f, "training set is empty"),
            RidgeError::ShapeMismatch => {
                write!(f, "feature rows or targets have mismatched shapes")
            }
            RidgeError::Singular => write!(f, "normal equations are singular; increase lambda"),
            RidgeError::NegativeLambda => write!(f, "lambda must be non-negative"),
        }
    }
}

impl Error for RidgeError {}

impl From<SolveError> for RidgeError {
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::ShapeMismatch => RidgeError::ShapeMismatch,
            SolveError::Singular => RidgeError::Singular,
        }
    }
}

/// A fitted ridge regression model `y ≈ w·x + b`.
///
/// # Example
///
/// ```
/// use ee360_numeric::ridge::RidgeRegression;
///
/// // Predict the next coordinate of a linear head motion.
/// let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = (0..8).map(|i| 5.0 + 3.0 * i as f64).collect();
/// let model = RidgeRegression::fit(&xs, &ys, 1e-6)?;
/// assert!((model.predict(&[10.0]) - 35.0).abs() < 1e-3);
/// # Ok::<(), ee360_numeric::ridge::RidgeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    intercept: f64,
    lambda: f64,
}

impl RidgeRegression {
    /// Fits a ridge model to feature rows `xs` and targets `ys`.
    ///
    /// The intercept is fitted but not penalised (features and targets are
    /// centered before solving, the standard formulation).
    ///
    /// # Errors
    ///
    /// Returns an error if inputs are empty or ragged, `lambda < 0`, or the
    /// (regularised) normal equations are singular — the latter only happens
    /// with `lambda == 0` and collinear features.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<Self, RidgeError> {
        if xs.is_empty() || ys.is_empty() {
            return Err(RidgeError::EmptyTrainingSet);
        }
        if xs.len() != ys.len() {
            return Err(RidgeError::ShapeMismatch);
        }
        if lambda < 0.0 {
            return Err(RidgeError::NegativeLambda);
        }
        let d = xs[0].len();
        if d == 0 || xs.iter().any(|r| r.len() != d) {
            return Err(RidgeError::ShapeMismatch);
        }
        let n = xs.len();

        // Center features and targets so the intercept is unpenalised.
        let mut x_mean = vec![0.0f64; d];
        for row in xs {
            for (m, v) in x_mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut x_mean {
            *m /= n as f64;
        }
        let y_mean = ys.iter().sum::<f64>() / n as f64;

        let centered: Vec<Vec<f64>> = xs
            .iter()
            .map(|row| row.iter().zip(&x_mean).map(|(v, m)| v - m).collect())
            .collect();
        let x_mat = Matrix::from_rows(&centered);
        let mut gram = x_mat.gram();
        // A tiny jitter keeps lambda=0 solvable for well-posed problems while
        // still surfacing truly singular systems.
        gram.add_diagonal(lambda.max(1e-12));

        let xty: Vec<f64> = (0..d)
            .map(|j| {
                centered
                    .iter()
                    .zip(ys)
                    .map(|(row, &y)| row[j] * (y - y_mean))
                    .sum()
            })
            .collect();

        let weights = cholesky_solve(&gram, &xty)?;
        let intercept = y_mean - weights.iter().zip(&x_mean).map(|(w, m)| w * m).sum::<f64>();
        Ok(Self {
            weights,
            intercept,
            lambda,
        })
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted dimensionality.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.weights.len(),
            "feature dimensionality mismatch"
        );
        self.intercept + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
    }

    /// The fitted weight vector (excluding the intercept).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The regularisation strength the model was fitted with.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

/// A fitted single-feature ridge model `y ≈ w·x + b`, held by value.
///
/// Bit-for-bit identical to [`RidgeRegression::fit`] called with
/// one-element rows: every accumulation below mirrors the generic path's
/// operation order for `d == 1` — gram and Xᵀy fold from `0.0` in sample
/// order, the 1×1 Cholesky divides by `sqrt(gram)` twice rather than once
/// by `gram`, and the intercept dot product keeps the iterator sum's `0.0`
/// seed. The hot viewport predictor fits one per coordinate per segment,
/// so neither fitting nor predicting allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleRidge {
    /// The fitted slope.
    pub weight: f64,
    /// The fitted intercept.
    pub intercept: f64,
}

impl SingleRidge {
    /// Fits the model to samples `xs` and targets `ys`.
    ///
    /// # Errors
    ///
    /// Same contract as [`RidgeRegression::fit`].
    pub fn fit(xs: &[f64], ys: &[f64], lambda: f64) -> Result<Self, RidgeError> {
        if xs.is_empty() || ys.is_empty() {
            return Err(RidgeError::EmptyTrainingSet);
        }
        if xs.len() != ys.len() {
            return Err(RidgeError::ShapeMismatch);
        }
        if lambda < 0.0 {
            return Err(RidgeError::NegativeLambda);
        }
        let n = xs.len();
        let mut x_mean = 0.0f64;
        for v in xs {
            x_mean += v;
        }
        x_mean /= n as f64;
        let y_mean = ys.iter().sum::<f64>() / n as f64;

        let mut gram = 0.0f64;
        for v in xs {
            let c = v - x_mean;
            gram += c * c;
        }
        gram += lambda.max(1e-12);

        let xty = xs
            .iter()
            .zip(ys)
            .map(|(v, &y)| (v - x_mean) * (y - y_mean))
            .sum::<f64>();

        if gram <= 0.0 || !gram.is_finite() {
            return Err(RidgeError::Singular);
        }
        let l = gram.sqrt();
        let weight = (xty / l) / l;
        let intercept = y_mean - (0.0f64 + weight * x_mean);
        Ok(Self { weight, intercept })
    }

    /// Fits two models over one feature series in two passes: the
    /// samples are `(x, y_a, y_b)` and the result is
    /// `(fit(xs, ys_a), fit(xs, ys_b))`, bit for bit, without storing
    /// any series.
    ///
    /// Pass 1 accumulates the feature mean and both target sums; pass 2
    /// (over a clone of the iterator, which must yield the same samples)
    /// accumulates the gram term once and both cross terms. Each
    /// accumulator keeps [`Self::fit`]'s start value and operation
    /// order: the feature mean and the gram term fold from `0.0`, the
    /// target sums and cross terms from the start value of
    /// `Iterator::sum`, read from an empty sum rather than written out.
    /// Both fits share one gram term, so they fail together.
    ///
    /// # Errors
    ///
    /// [`RidgeError::EmptyTrainingSet`] for no samples,
    /// [`RidgeError::NegativeLambda`] and [`RidgeError::Singular`] as in
    /// [`Self::fit`].
    pub fn fit_pair<I>(samples: I, lambda: f64) -> Result<(Self, Self), RidgeError>
    where
        I: Iterator<Item = (f64, f64, f64)> + Clone,
    {
        let sum_start: f64 = std::iter::empty::<f64>().sum();
        let mut n = 0usize;
        let mut x_mean = 0.0f64;
        let (mut sum_a, mut sum_b) = (sum_start, sum_start);
        // lint:allow(hot-path-alloc, "clones the caller's sample iterator for the first pass: no heap allocation for the borrowed windows the predictor passes")
        for (x, a, b) in samples.clone() {
            n += 1;
            x_mean += x;
            sum_a += a;
            sum_b += b;
        }
        if n == 0 {
            return Err(RidgeError::EmptyTrainingSet);
        }
        if lambda < 0.0 {
            return Err(RidgeError::NegativeLambda);
        }
        x_mean /= n as f64;
        let mean_a = sum_a / n as f64;
        let mean_b = sum_b / n as f64;

        let mut gram = 0.0f64;
        let (mut xty_a, mut xty_b) = (sum_start, sum_start);
        for (x, a, b) in samples {
            let c = x - x_mean;
            gram += c * c;
            xty_a += c * (a - mean_a);
            xty_b += c * (b - mean_b);
        }
        gram += lambda.max(1e-12);

        if gram <= 0.0 || !gram.is_finite() {
            return Err(RidgeError::Singular);
        }
        let l = gram.sqrt();
        let model = |xty: f64, y_mean: f64| {
            let weight = (xty / l) / l;
            Self {
                weight,
                intercept: y_mean - (0.0f64 + weight * x_mean),
            }
        };
        Ok((model(xty_a, mean_a), model(xty_b, mean_b)))
    }

    /// Predicts the target at `x`, with the same operations as
    /// [`RidgeRegression::predict`] on a one-element row.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + std::iter::once(self.weight * x).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    #[test]
    fn recovers_exact_line() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| 1.5 * i as f64 - 4.0).collect();
        let m = RidgeRegression::fit(&xs, &ys, 0.0).unwrap();
        assert!((m.weights()[0] - 1.5).abs() < 1e-6);
        assert!((m.intercept() + 4.0).abs() < 1e-6);
    }

    #[test]
    fn recovers_plane() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                xs.push(vec![i as f64, j as f64]);
                ys.push(2.0 * i as f64 - 3.0 * j as f64 + 7.0);
            }
        }
        let m = RidgeRegression::fit(&xs, &ys, 1e-9).unwrap();
        assert!((m.weights()[0] - 2.0).abs() < 1e-5);
        assert!((m.weights()[1] + 3.0).abs() < 1e-5);
        assert!((m.intercept() - 7.0).abs() < 1e-4);
    }

    #[test]
    fn large_lambda_shrinks_weights() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        let loose = RidgeRegression::fit(&xs, &ys, 0.0).unwrap();
        let tight = RidgeRegression::fit(&xs, &ys, 1000.0).unwrap();
        assert!(tight.weights()[0].abs() < loose.weights()[0].abs());
    }

    #[test]
    fn handles_collinear_features_with_lambda() {
        // Second feature is an exact copy of the first: singular without ridge.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| 4.0 * i as f64).collect();
        let m = RidgeRegression::fit(&xs, &ys, 0.1).unwrap();
        // Weight mass splits across the duplicated features.
        let total: f64 = m.weights().iter().sum();
        assert!((total - 4.0).abs() < 0.1);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            RidgeRegression::fit(&[], &[], 0.1),
            Err(RidgeError::EmptyTrainingSet)
        );
        assert_eq!(
            RidgeRegression::fit(&[vec![1.0]], &[1.0, 2.0], 0.1),
            Err(RidgeError::ShapeMismatch)
        );
        assert_eq!(
            RidgeRegression::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], 0.1),
            Err(RidgeError::ShapeMismatch)
        );
        assert_eq!(
            RidgeRegression::fit(&[vec![1.0]], &[1.0], -1.0),
            Err(RidgeError::NegativeLambda)
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn predict_wrong_dim_panics() {
        let m = RidgeRegression::fit(&[vec![1.0], vec![2.0]], &[1.0, 2.0], 0.1).unwrap();
        let _ = m.predict(&[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn fit_is_finite(
            n in 2usize..30,
            slope in -10.0f64..10.0,
            icpt in -10.0f64..10.0,
            lambda in 0.0f64..10.0,
        ) {
            let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let ys: Vec<f64> = (0..n).map(|i| slope * i as f64 + icpt).collect();
            let m = RidgeRegression::fit(&xs, &ys, lambda).unwrap();
            prop_assert!(m.weights()[0].is_finite());
            prop_assert!(m.intercept().is_finite());
        }

        #[test]
        fn single_ridge_matches_generic_bit_for_bit(
            n in 2usize..40,
            seed in 0u64..5000,
            lambda in 0.0f64..10.0,
        ) {
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) * 200.0 - 100.0
            };
            let ts: Vec<f64> = (0..n).map(|_| next()).collect();
            let ys: Vec<f64> = (0..n).map(|_| next()).collect();
            let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![t]).collect();
            let x = next();
            let generic = RidgeRegression::fit(&rows, &ys, lambda);
            let single = SingleRidge::fit(&ts, &ys, lambda);
            match (generic, single) {
                (Ok(g), Ok(s)) => {
                    prop_assert_eq!(g.weights()[0].to_bits(), s.weight.to_bits());
                    prop_assert_eq!(g.intercept().to_bits(), s.intercept.to_bits());
                    prop_assert_eq!(g.predict(&[x]).to_bits(), s.predict(x).to_bits());
                }
                (g, s) => prop_assert_eq!(g.err(), s.err()),
            }
        }

        #[test]
        fn fit_pair_matches_two_single_fits_bit_for_bit(
            n in 0usize..40,
            seed in 0u64..5000,
            lambda in -0.5f64..10.0,
            signed_zeros in 0usize..3,
            scale in 0usize..3,
        ) {
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) * 200.0 - 100.0
            };
            // Huge features overflow the gram term (a singular fit);
            // all-`±0.0` targets pin the sums' start value.
            let x_scale = [1.0, 1e-3, 1e160][scale];
            let xs: Vec<f64> = (0..n).map(|_| next() * x_scale).collect();
            let ys_a: Vec<f64> = (0..n).map(|_| next()).collect();
            let ys_b: Vec<f64> = (0..n)
                .map(|_| match signed_zeros {
                    0 => -0.0,
                    1 => 0.0,
                    _ => next(),
                })
                .collect();
            let samples = xs.iter().zip(&ys_a).zip(&ys_b).map(|((&x, &a), &b)| (x, a, b));
            let pair = SingleRidge::fit_pair(samples, lambda);
            let a = SingleRidge::fit(&xs, &ys_a, lambda);
            let b = SingleRidge::fit(&xs, &ys_b, lambda);
            match (pair, a, b) {
                (Ok((pa, pb)), Ok(a), Ok(b)) => {
                    for (p, s) in [(pa, a), (pb, b)] {
                        prop_assert_eq!(p.weight.to_bits(), s.weight.to_bits());
                        prop_assert_eq!(p.intercept.to_bits(), s.intercept.to_bits());
                    }
                }
                (pair, a, b) => {
                    prop_assert_eq!(pair.as_ref().err(), a.as_ref().err());
                    prop_assert_eq!(pair.err(), b.err());
                }
            }
        }

        #[test]
        fn more_lambda_never_increases_weight_norm(
            n in 3usize..20,
            slope in -5.0f64..5.0,
        ) {
            let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let ys: Vec<f64> = (0..n).map(|i| slope * i as f64).collect();
            let small = RidgeRegression::fit(&xs, &ys, 0.01).unwrap();
            let big = RidgeRegression::fit(&xs, &ys, 100.0).unwrap();
            prop_assert!(big.weights()[0].abs() <= small.weights()[0].abs() + 1e-9);
        }
    }
}

//! Levenberg–Marquardt nonlinear least squares.
//!
//! The paper fits its logistic quality model (Eq. 3) with nonlinear
//! least-squares regression ("nlinfit in Matlab"). This module provides the
//! same capability: given a residual function `r(θ)` it minimises
//! `‖r(θ)‖²` with the damped Gauss–Newton iteration
//!
//! ```text
//! (JᵀJ + μ diag(JᵀJ)) δ = −Jᵀ r,   θ ← θ + δ
//! ```
//!
//! using a forward-difference Jacobian, with the damping factor `μ` adapted
//! multiplicatively on success/failure (Marquardt's scheme).

use std::error::Error;
use std::fmt;

use crate::matrix::Matrix;
use crate::solve::{lu_solve, SolveError};

/// Error returned by [`LevenbergMarquardt::minimize`].
#[derive(Debug, Clone, PartialEq)]
pub enum LmError {
    /// The residual function returned a vector of different length than on
    /// the first call, or an empty one.
    InconsistentResiduals,
    /// The initial parameter vector is empty.
    EmptyParameters,
    /// The damped normal equations became singular even at maximum damping.
    Singular,
    /// The residual function produced non-finite values at the initial point.
    NonFiniteResidual,
}

impl fmt::Display for LmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LmError::InconsistentResiduals => {
                write!(f, "residual vector length changed or is zero")
            }
            LmError::EmptyParameters => write!(f, "parameter vector is empty"),
            LmError::Singular => write!(f, "normal equations singular at maximum damping"),
            LmError::NonFiniteResidual => write!(f, "residuals are not finite at the start point"),
        }
    }
}

impl Error for LmError {}

impl From<SolveError> for LmError {
    fn from(_: SolveError) -> Self {
        LmError::Singular
    }
}

/// Convergence report returned by a successful minimisation.
#[derive(Debug, Clone, PartialEq)]
pub struct LmReport {
    /// The optimised parameter vector.
    pub params: Vec<f64>,
    /// Final value of `‖r(θ)‖²`.
    pub cost: f64,
    /// Number of accepted iterations performed.
    pub iterations: usize,
    /// Whether the tolerance (rather than the iteration cap) stopped the run.
    pub converged: bool,
}

/// Configurable Levenberg–Marquardt minimiser.
///
/// # Example
///
/// Fit `y = a · exp(b x)` to noiseless data:
///
/// ```
/// use ee360_numeric::lm::LevenbergMarquardt;
///
/// let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 2.0 * (0.5 * x).exp()).collect();
/// let lm = LevenbergMarquardt::new();
/// let report = lm.minimize(&[1.0, 0.0], |theta| {
///     xs.iter()
///         .zip(&ys)
///         .map(|(x, y)| theta[0] * (theta[1] * x).exp() - y)
///         .collect()
/// })?;
/// assert!((report.params[0] - 2.0).abs() < 1e-4);
/// assert!((report.params[1] - 0.5).abs() < 1e-4);
/// # Ok::<(), ee360_numeric::lm::LmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LevenbergMarquardt {
    max_iterations: usize,
    tolerance: f64,
    initial_damping: f64,
}

impl LevenbergMarquardt {
    /// Creates a minimiser with default settings (200 iterations, 1e-12
    /// cost-change tolerance, initial damping 1e-3).
    pub fn new() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-12,
            initial_damping: 1e-3,
        }
    }

    /// Sets the iteration cap.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Minimises `‖residuals(θ)‖²` starting from `initial`.
    ///
    /// # Errors
    ///
    /// See [`LmError`]. The residual closure must return the same number of
    /// residuals on every call.
    pub fn minimize<F>(&self, initial: &[f64], residuals: F) -> Result<LmReport, LmError>
    where
        F: Fn(&[f64]) -> Vec<f64>,
    {
        if initial.is_empty() {
            return Err(LmError::EmptyParameters);
        }
        let mut theta = initial.to_vec();
        let mut r = residuals(&theta);
        if r.is_empty() {
            return Err(LmError::InconsistentResiduals);
        }
        if r.iter().any(|v| !v.is_finite()) {
            return Err(LmError::NonFiniteResidual);
        }
        let m = r.len();
        let n = theta.len();
        let mut cost: f64 = r.iter().map(|v| v * v).sum();
        let mut mu = self.initial_damping;
        let mut iterations = 0;
        let mut converged = false;

        'outer: for _ in 0..self.max_iterations {
            // Forward-difference Jacobian.
            let mut jac = Matrix::zeros(m, n);
            for j in 0..n {
                let h = 1e-7 * theta[j].abs().max(1e-7);
                let mut bumped = theta.clone();
                bumped[j] += h;
                let rb = residuals(&bumped);
                if rb.len() != m {
                    return Err(LmError::InconsistentResiduals);
                }
                for i in 0..m {
                    jac[(i, j)] = (rb[i] - r[i]) / h;
                }
            }
            let jtj = jac.gram();
            let jtr: Vec<f64> = (0..n)
                .map(|j| (0..m).map(|i| jac[(i, j)] * r[i]).sum::<f64>())
                .collect();

            // Gradient small ⇒ converged.
            if jtr.iter().map(|v| v.abs()).fold(0.0, f64::max) < 1e-14 {
                converged = true;
                break;
            }

            // Try increasing damping until a step reduces the cost.
            for _attempt in 0..30 {
                let mut damped = jtj.clone();
                for i in 0..n {
                    let d = jtj[(i, i)].max(1e-12);
                    damped[(i, i)] += mu * d;
                }
                let neg_jtr: Vec<f64> = jtr.iter().map(|v| -v).collect();
                let delta = match lu_solve(&damped, &neg_jtr) {
                    Ok(d) => d,
                    Err(_) => {
                        mu *= 10.0;
                        if mu > 1e12 {
                            return Err(LmError::Singular);
                        }
                        continue;
                    }
                };
                let candidate: Vec<f64> = theta.iter().zip(&delta).map(|(t, d)| t + d).collect();
                let rc = residuals(&candidate);
                if rc.len() != m {
                    return Err(LmError::InconsistentResiduals);
                }
                let new_cost: f64 = rc.iter().map(|v| v * v).sum();
                if new_cost.is_finite() && new_cost < cost {
                    let improvement = (cost - new_cost) / cost.max(1e-300);
                    theta = candidate;
                    r = rc;
                    cost = new_cost;
                    mu = (mu * 0.3).max(1e-12);
                    iterations += 1;
                    if improvement < self.tolerance {
                        converged = true;
                        break 'outer;
                    }
                    continue 'outer;
                }
                mu *= 10.0;
                if mu > 1e12 {
                    // Cannot improve any further: treat as converged.
                    converged = true;
                    break 'outer;
                }
            }
        }

        Ok(LmReport {
            params: theta,
            cost,
            iterations,
            converged,
        })
    }
}

impl Default for LevenbergMarquardt {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_model() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let lm = LevenbergMarquardt::new();
        let report = lm
            .minimize(&[0.0, 0.0], |t| {
                xs.iter()
                    .zip(&ys)
                    .map(|(x, y)| t[0] * x + t[1] - y)
                    .collect()
            })
            .unwrap();
        assert!((report.params[0] - 3.0).abs() < 1e-6);
        assert!((report.params[1] + 1.0).abs() < 1e-6);
        assert!(report.cost < 1e-10);
    }

    #[test]
    fn fits_logistic_curve() {
        // Same functional family as the paper's Eq. 3.
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
        let truth = |x: f64| 100.0 / (1.0 + (-(0.8 * x - 4.0)).exp());
        let ys: Vec<f64> = xs.iter().map(|&x| truth(x)).collect();
        let lm = LevenbergMarquardt::new().with_max_iterations(500);
        let report = lm
            .minimize(&[0.5, -2.0], |t| {
                xs.iter()
                    .zip(&ys)
                    .map(|(&x, y)| 100.0 / (1.0 + (-(t[0] * x + t[1])).exp()) - y)
                    .collect()
            })
            .unwrap();
        assert!((report.params[0] - 0.8).abs() < 1e-4, "{:?}", report.params);
        assert!((report.params[1] + 4.0).abs() < 1e-3, "{:?}", report.params);
    }

    #[test]
    fn rosenbrock_as_least_squares() {
        // Classic: minimum at (1, 1).
        let lm = LevenbergMarquardt::new().with_max_iterations(2000);
        let report = lm
            .minimize(&[-1.2, 1.0], |t| {
                vec![10.0 * (t[1] - t[0] * t[0]), 1.0 - t[0]]
            })
            .unwrap();
        assert!((report.params[0] - 1.0).abs() < 1e-5, "{:?}", report.params);
        assert!((report.params[1] - 1.0).abs() < 1e-5, "{:?}", report.params);
    }

    #[test]
    fn already_optimal_converges_quickly() {
        let lm = LevenbergMarquardt::new();
        let report = lm.minimize(&[2.0], |t| vec![t[0] - 2.0]).unwrap();
        assert!(report.cost < 1e-20);
        assert!(report.converged);
    }

    #[test]
    fn empty_parameters_error() {
        let lm = LevenbergMarquardt::new();
        assert_eq!(
            lm.minimize(&[], |_| vec![0.0]).unwrap_err(),
            LmError::EmptyParameters
        );
    }

    #[test]
    fn empty_residuals_error() {
        let lm = LevenbergMarquardt::new();
        assert_eq!(
            lm.minimize(&[1.0], |_| vec![]).unwrap_err(),
            LmError::InconsistentResiduals
        );
    }

    #[test]
    fn non_finite_residual_error() {
        let lm = LevenbergMarquardt::new();
        assert_eq!(
            lm.minimize(&[1.0], |_| vec![f64::NAN]).unwrap_err(),
            LmError::NonFiniteResidual
        );
    }

    #[test]
    fn respects_iteration_cap() {
        let lm = LevenbergMarquardt::new().with_max_iterations(1);
        let report = lm
            .minimize(&[-1.2, 1.0], |t| {
                vec![10.0 * (t[1] - t[0] * t[0]), 1.0 - t[0]]
            })
            .unwrap();
        assert!(report.iterations <= 1);
    }

    #[test]
    fn noisy_fit_recovers_approximate_params() {
        // Deterministic "noise" from a simple LCG.
        let mut state = 42u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.05
        };
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0 + noise()).collect();
        let lm = LevenbergMarquardt::new();
        let report = lm
            .minimize(&[0.0, 0.0], |t| {
                xs.iter()
                    .zip(&ys)
                    .map(|(x, y)| t[0] * x + t[1] - y)
                    .collect()
            })
            .unwrap();
        assert!((report.params[0] - 2.0).abs() < 0.05);
        assert!((report.params[1] - 1.0).abs() < 0.05);
    }
}

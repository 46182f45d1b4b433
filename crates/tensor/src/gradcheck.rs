//! Finite-difference gradient checking utilities.
//!
//! Used by the test suites of every crate that builds differentiable
//! computations on [`Tensor`]: construct the loss twice with a perturbed
//! input and compare the central difference against the autograd result.

use crate::Tensor;

/// Result of a gradient check: the largest absolute and relative error
/// across the checked coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Maximum absolute difference between analytic and numeric gradient.
    pub max_abs_err: f32,
    /// Maximum relative difference (normalised by magnitudes + 1).
    pub max_rel_err: f32,
    /// Number of coordinates compared.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether the check passed at the given relative tolerance.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_err <= tol
    }
}

/// Compare the autograd gradient of `f` at `x0` against central finite
/// differences.
///
/// `f` must build a *scalar* loss from a constant tensor of shape
/// `shape`. `indices` selects which coordinates to probe (probing all of
/// a large tensor is slow); pass `&[]` to probe every coordinate.
///
/// # Panics
///
/// Panics if `f` returns a non-scalar tensor or an index is out of
/// bounds.
///
/// # Example
///
/// ```
/// use dcdiff_tensor::gradcheck::check_gradient;
///
/// let report = check_gradient(
///     &[4],
///     &[0.5, -1.0, 2.0, 0.0],
///     &[],
///     1e-2,
///     |x| x.square().sum_all(),
/// );
/// assert!(report.passes(1e-2), "{report:?}");
/// ```
pub fn check_gradient(
    shape: &[usize],
    x0: &[f32],
    indices: &[usize],
    step: f32,
    f: impl Fn(&Tensor) -> Tensor,
) -> GradCheckReport {
    assert_eq!(
        shape.iter().product::<usize>(),
        x0.len(),
        "x0 must match shape"
    );
    // analytic gradient
    let x = Tensor::param(shape.to_vec(), x0.to_vec());
    let loss = f(&x);
    assert_eq!(loss.len(), 1, "loss must be scalar");
    loss.backward();
    let analytic = x.grad_vec();

    let probe: Vec<usize> = if indices.is_empty() {
        (0..x0.len()).collect()
    } else {
        indices.to_vec()
    };
    let mut report = GradCheckReport {
        max_abs_err: 0.0,
        max_rel_err: 0.0,
        checked: probe.len(),
    };
    for &i in &probe {
        assert!(i < x0.len(), "probe index out of bounds");
        let mut plus = x0.to_vec();
        plus[i] += step;
        let mut minus = x0.to_vec();
        minus[i] -= step;
        let fp = f(&Tensor::from_vec(shape.to_vec(), plus)).item();
        let fm = f(&Tensor::from_vec(shape.to_vec(), minus)).item();
        let numeric = (fp - fm) / (2.0 * step);
        let abs = (numeric - analytic[i]).abs();
        let rel = abs / (numeric.abs() + analytic[i].abs() + 1.0);
        report.max_abs_err = report.max_abs_err.max(abs);
        report.max_rel_err = report.max_rel_err.max(rel);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn passes_on_polynomial() {
        let report = check_gradient(&[3], &[1.0, -2.0, 0.5], &[], 1e-3, |x| {
            x.square().mul(x).sum_all() // x^3
        });
        assert!(report.passes(1e-2), "{report:?}");
        assert_eq!(report.checked, 3);
    }

    #[test]
    fn catches_wrong_gradients() {
        // detach() deliberately breaks the gradient: check must fail
        let report = check_gradient(&[2], &[1.0, 2.0], &[], 1e-3, |x| {
            x.detach().square().sum_all().add(&x.sum_all())
        });
        assert!(!report.passes(1e-3), "detached path must be flagged");
    }

    #[test]
    fn subset_probing() {
        let report = check_gradient(&[8], &[0.3; 8], &[0, 7], 1e-3, |x| x.square().sum_all());
        assert_eq!(report.checked, 2);
        assert!(report.passes(1e-2));
    }

    #[test]
    fn composite_network_gradients() {
        let mut rng = seeded_rng(0);
        let w = Tensor::randn(vec![4, 4], 0.5, &mut rng);
        let x0 = Tensor::randn(vec![2, 4], 1.0, &mut rng).to_vec();
        let report = check_gradient(&[2, 4], &x0, &[], 1e-2, |x| {
            x.matmul(&w).silu().square().mean_all()
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn conv_and_norm_gradients() {
        let mut rng = seeded_rng(1);
        let k = Tensor::randn(vec![2, 1, 3, 3], 0.5, &mut rng);
        let gamma = Tensor::from_vec(vec![2], vec![1.2, 0.8]);
        let beta = Tensor::from_vec(vec![2], vec![0.1, -0.1]);
        let x0 = Tensor::randn(vec![1, 1, 4, 4], 1.0, &mut rng).to_vec();
        let report = check_gradient(&[1, 1, 4, 4], &x0, &[0, 5, 10, 15], 1e-2, |x| {
            x.conv2d(&k, None, 1, 1)
                .group_norm(1, &gamma, &beta, 1e-5)
                .silu()
                .mean_all()
        });
        assert!(report.passes(5e-2), "{report:?}");
        // The fused op is the same function with the same gradient.
        let fused = check_gradient(&[1, 1, 4, 4], &x0, &[0, 5, 10, 15], 1e-2, |x| {
            x.conv2d(&k, None, 1, 1)
                .group_norm_silu(1, &gamma, &beta, 1e-5)
                .mean_all()
        });
        assert!(fused.passes(5e-2), "{fused:?}");
    }
}

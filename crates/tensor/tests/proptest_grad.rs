//! Property-based gradient verification: for randomly generated inputs,
//! every differentiable op's autograd gradient must agree with central
//! finite differences.

use dcdiff_tensor::gradcheck::check_gradient;
use dcdiff_tensor::Tensor;
use proptest::prelude::*;

fn small_values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn elementwise_chain_gradients(x0 in small_values(6)) {
        let report = check_gradient(&[6], &x0, &[], 1e-3, |x| {
            x.scale(1.5).add_scalar(0.3).mul(x).sub(&x.abs()).sum_all()
        });
        // abs has a kink at 0; skip cases that sit on it
        prop_assume!(x0.iter().all(|v| v.abs() > 1e-2));
        prop_assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn activation_gradients(x0 in small_values(8)) {
        prop_assume!(x0.iter().all(|v| v.abs() > 5e-2)); // avoid relu kink
        let report = check_gradient(&[8], &x0, &[], 1e-3, |x| {
            x.silu().add(&x.sigmoid()).add(&x.tanh()).add(&x.relu()).square().mean_all()
        });
        prop_assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn matmul_gradients(x0 in small_values(6), w0 in small_values(6)) {
        let w = Tensor::from_vec(vec![3, 2], w0);
        let report = check_gradient(&[2, 3], &x0, &[], 1e-3, |x| {
            x.matmul(&w).square().sum_all()
        });
        prop_assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn conv_pool_gradients(x0 in small_values(16)) {
        let k = Tensor::from_vec(vec![1, 1, 3, 3], vec![0.1, -0.2, 0.3, 0.0, 0.5, -0.1, 0.2, 0.1, -0.3]);
        let report = check_gradient(&[1, 1, 4, 4], &x0, &[], 1e-3, |x| {
            x.conv2d(&k, None, 1, 1).avg_pool2().square().sum_all()
        });
        prop_assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn concat_slice_gradients(x0 in small_values(8)) {
        let other = Tensor::from_vec(vec![1, 1, 2, 2], vec![0.5, -0.5, 1.0, -1.0]);
        let report = check_gradient(&[1, 2, 2, 2], &x0, &[], 1e-3, |x| {
            x.concat_channels(&other)
                .slice_channels(1, 3)
                .square()
                .mean_all()
        });
        prop_assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn softmax_cross_entropy_gradients(x0 in small_values(6), label in 0usize..3) {
        let report = check_gradient(&[2, 3], &x0, &[], 1e-3, |x| {
            x.softmax_cross_entropy(&[label, (label + 1) % 3])
        });
        prop_assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn upsample_reshape_gradients(x0 in small_values(4)) {
        let report = check_gradient(&[1, 1, 2, 2], &x0, &[], 1e-3, |x| {
            x.upsample_nearest2().reshape(vec![16]).square().sum_all()
        });
        prop_assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn optimizer_reduces_any_quadratic(target in small_values(4)) {
        // Adam must make progress on min ||x - target||^2 from zero init
        let x = Tensor::param(vec![4], vec![0.0; 4]);
        let t = Tensor::from_vec(vec![4], target.clone());
        let mut opt = dcdiff_tensor::optim::Adam::new(vec![x.clone()], 0.05);
        let initial = x.mse(&t).item();
        for _ in 0..100 {
            opt.zero_grad();
            x.mse(&t).backward();
            opt.step();
        }
        let fin = x.mse(&t).item();
        prop_assert!(fin <= initial + 1e-6, "loss went up: {initial} -> {fin}");
    }
}

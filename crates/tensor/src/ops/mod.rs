//! Differentiable operations on [`Tensor`].
//!
//! Each op computes its forward value eagerly and registers a backward
//! closure that routes the output gradient to its parents.

mod batched;
mod conv;
mod elementwise;
mod loss;
mod matmul;
mod norm;
mod shape;

#[allow(unused_imports)]
use crate::Tensor;

/// Ops that read their inputs in place return the same values under
/// [`crate::no_grad`] as on a tape, and there record nothing.
#[cfg(test)]
mod copy_free {
    use crate::{no_grad, Tensor};

    /// Parameter inputs, so every op records a node outside `no_grad`.
    struct Inputs {
        a: Tensor,
        b: Tensor,
        s: Tensor,
        gamma: Tensor,
        beta: Tensor,
        m: Tensor,
    }

    type Op = fn(&Inputs) -> Tensor;

    const OPS: &[(&str, Op)] = &[
        ("silu", |i| i.a.silu()),
        ("tanh", |i| i.a.tanh()),
        ("sigmoid", |i| i.a.sigmoid()),
        ("relu", |i| i.a.relu()),
        ("abs", |i| i.a.abs()),
        ("mul", |i| i.a.mul(&i.b)),
        ("scale_per_sample", |i| i.a.scale_per_sample(&i.s)),
        ("group_norm", |i| i.a.group_norm(2, &i.gamma, &i.beta, 1e-5)),
        ("group_norm_silu", |i| {
            i.a.group_norm_silu(2, &i.gamma, &i.beta, 1e-5)
        }),
        ("concat_channels", |i| i.a.concat_channels(&i.b)),
        ("slice_channels", |i| i.a.slice_channels(1, 3)),
        ("upsample_nearest2", |i| i.a.upsample_nearest2()),
        ("avg_pool2", |i| i.a.avg_pool2()),
        ("global_avg_pool", |i| i.a.global_avg_pool()),
        ("matmul", |i| i.a.reshape(vec![48, 6]).matmul(&i.m)),
        ("bmm", |i| {
            i.a.reshape(vec![8, 6, 6]).bmm(&i.b.reshape(vec![8, 6, 6]))
        }),
        ("transpose_last2", |i| {
            i.a.reshape(vec![8, 6, 6]).transpose_last2()
        }),
        ("softmax_last", |i| {
            i.a.reshape(vec![8, 6, 6]).softmax_last()
        }),
    ];

    #[test]
    fn copy_free_ops_match_the_taped_values_and_keep_no_parents() {
        let mut rng = crate::seeded_rng(21);
        let mut param = |shape: Vec<usize>| {
            let values = Tensor::randn(shape.clone(), 1.5, &mut rng).to_vec();
            Tensor::param(shape, values)
        };
        let inputs = Inputs {
            a: param(vec![2, 4, 6, 6]),
            b: param(vec![2, 4, 6, 6]),
            s: param(vec![2]),
            gamma: param(vec![4]),
            beta: param(vec![4]),
            m: param(vec![6, 4]),
        };
        let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, op) in OPS {
            let taped = op(&inputs);
            assert!(
                taped.tracks_grad(),
                "{name}: a parameter input must record a node"
            );
            let inference = no_grad(|| op(&inputs));
            assert_eq!(
                bits(&inference),
                bits(&taped),
                "{name}: values differ under no_grad"
            );
            assert!(
                inference.0.parents.is_empty() && inference.0.backward.is_none(),
                "{name}: keeps its parents under no_grad"
            );
        }
    }
}

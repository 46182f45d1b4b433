use dcdiff_tensor::serial::{Checkpoint, CheckpointError};
use dcdiff_tensor::{Rng, Tensor};

use crate::module::{scoped, Module};

/// 2-D convolution layer with bias.
///
/// Weights use He (Kaiming) initialisation scaled for the fan-in
/// `C * k * k`, the standard choice for ReLU/SiLU networks.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Create a `k`×`k` convolution from `in_ch` to `out_ch` channels.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && k > 0 && stride > 0);
        let fan_in = (in_ch * k * k) as f32;
        let std = (2.0 / fan_in).sqrt();
        Self {
            weight: Tensor::randn_param(vec![out_ch, in_ch, k, k], std, rng),
            bias: Tensor::param(vec![out_ch], vec![0.0; out_ch]),
            stride,
            pad,
        }
    }

    /// Create a convolution whose weights and bias start at zero
    /// (ControlNet-style zero injection layers).
    pub fn zeroed(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize) -> Self {
        Self {
            weight: Tensor::param(vec![out_ch, in_ch, k, k], vec![0.0; out_ch * in_ch * k * k]),
            bias: Tensor::param(vec![out_ch], vec![0.0; out_ch]),
            stride,
            pad,
        }
    }

    /// Apply the convolution to an NCHW tensor.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.conv2d(&self.weight, Some(&self.bias), self.stride, self.pad)
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.shape()[0]
    }
}

impl Module for Conv2d {
    fn params(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }

    fn save(&self, prefix: &str, ckpt: &mut Checkpoint) {
        ckpt.insert(&scoped(prefix, "weight"), &self.weight);
        ckpt.insert(&scoped(prefix, "bias"), &self.bias);
    }

    fn load(&self, prefix: &str, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        ckpt.load_into(&scoped(prefix, "weight"), &self.weight)?;
        ckpt.load_into(&scoped(prefix, "bias"), &self.bias)
    }
}

/// Fully-connected layer `[N, in] -> [N, out]` with bias.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
}

impl Linear {
    /// Create a linear layer with Xavier-uniform-equivalent normal init.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        assert!(in_dim > 0 && out_dim > 0);
        let std = (2.0 / (in_dim + out_dim) as f32).sqrt();
        Self {
            weight: Tensor::randn_param(vec![in_dim, out_dim], std, rng),
            bias: Tensor::param(vec![out_dim], vec![0.0; out_dim]),
        }
    }

    /// Apply the layer to a `[N, in]` matrix.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.matmul(&self.weight).add_bias_row(&self.bias)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.shape()[1]
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }

    fn save(&self, prefix: &str, ckpt: &mut Checkpoint) {
        ckpt.insert(&scoped(prefix, "weight"), &self.weight);
        ckpt.insert(&scoped(prefix, "bias"), &self.bias);
    }

    fn load(&self, prefix: &str, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        ckpt.load_into(&scoped(prefix, "weight"), &self.weight)?;
        ckpt.load_into(&scoped(prefix, "bias"), &self.bias)
    }
}

/// Group normalisation with learned affine parameters.
#[derive(Debug, Clone)]
pub struct GroupNorm {
    gamma: Tensor,
    beta: Tensor,
    groups: usize,
}

impl GroupNorm {
    /// Create a group norm over `channels` split into `groups`.
    ///
    /// The group count is reduced automatically when it does not divide
    /// the channel count (falling back to per-channel normalisation at
    /// worst), so callers can pass a single global default.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert!(channels > 0, "channels must be nonzero");
        let mut g = groups.clamp(1, channels);
        while !channels.is_multiple_of(g) {
            g -= 1;
        }
        Self {
            gamma: Tensor::param(vec![channels], vec![1.0; channels]),
            beta: Tensor::param(vec![channels], vec![0.0; channels]),
            groups: g,
        }
    }

    /// Apply the normalisation to an NCHW tensor.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.group_norm(self.groups, &self.gamma, &self.beta, 1e-5)
    }

    /// The normalisation followed by SiLU as one fused op
    /// ([`Tensor::group_norm_silu`]): the same values and gradients as
    /// `forward(x).silu()`, bit for bit.
    pub fn forward_silu(&self, x: &Tensor) -> Tensor {
        x.group_norm_silu(self.groups, &self.gamma, &self.beta, 1e-5)
    }

    /// Effective group count after divisor adjustment.
    pub fn groups(&self) -> usize {
        self.groups
    }
}

impl Module for GroupNorm {
    fn params(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn save(&self, prefix: &str, ckpt: &mut Checkpoint) {
        ckpt.insert(&scoped(prefix, "gamma"), &self.gamma);
        ckpt.insert(&scoped(prefix, "beta"), &self.beta);
    }

    fn load(&self, prefix: &str, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        ckpt.load_into(&scoped(prefix, "gamma"), &self.gamma)?;
        ckpt.load_into(&scoped(prefix, "beta"), &self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_tensor::seeded_rng;

    #[test]
    fn conv_shapes_and_param_count() {
        let mut rng = seeded_rng(0);
        let conv = Conv2d::new(3, 16, 3, 1, 1, &mut rng);
        let y = conv.forward(&Tensor::zeros(vec![1, 3, 8, 8]));
        assert_eq!(y.shape(), &[1, 16, 8, 8]);
        assert_eq!(conv.param_count(), 3 * 16 * 9 + 16);
    }

    #[test]
    fn conv_stride_halves_resolution() {
        let mut rng = seeded_rng(0);
        let conv = Conv2d::new(4, 4, 3, 2, 1, &mut rng);
        let y = conv.forward(&Tensor::zeros(vec![1, 4, 16, 16]));
        assert_eq!(y.shape(), &[1, 4, 8, 8]);
    }

    #[test]
    fn zeroed_conv_outputs_zero() {
        let conv = Conv2d::zeroed(2, 3, 1, 1, 0);
        let mut rng = seeded_rng(1);
        let x = Tensor::randn(vec![1, 2, 4, 4], 1.0, &mut rng);
        assert!(conv.forward(&x).to_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn linear_forward_shape() {
        let mut rng = seeded_rng(2);
        let lin = Linear::new(6, 4, &mut rng);
        let y = lin.forward(&Tensor::zeros(vec![3, 6]));
        assert_eq!(y.shape(), &[3, 4]);
        assert_eq!(lin.out_dim(), 4);
    }

    #[test]
    fn group_norm_adjusts_group_count() {
        let gn = GroupNorm::new(6, 4); // 4 does not divide 6 -> falls to 3
        assert_eq!(gn.groups(), 3);
        let gn1 = GroupNorm::new(7, 4); // prime channels -> 1 group... 7 % 1 == 0
        assert_eq!(gn1.groups(), 1);
    }

    #[test]
    fn layers_checkpoint_round_trip() {
        let mut rng = seeded_rng(3);
        let conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        let mut ckpt = Checkpoint::new();
        conv.save("conv", &mut ckpt);
        let conv2 = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        assert_ne!(conv.params()[0].to_vec(), conv2.params()[0].to_vec());
        conv2.load("conv", &ckpt).unwrap();
        assert_eq!(conv.params()[0].to_vec(), conv2.params()[0].to_vec());
    }

    #[test]
    fn conv_trains_toward_identity() {
        // teach a 1x1 conv to copy its input
        let mut rng = seeded_rng(4);
        let conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        let mut opt = dcdiff_tensor::optim::Adam::new(conv.params(), 0.05);
        for _ in 0..200 {
            opt.zero_grad();
            let x = Tensor::randn(vec![4, 1, 3, 3], 1.0, &mut rng);
            conv.forward(&x).mse(&x).backward();
            opt.step();
        }
        let x = Tensor::randn(vec![1, 1, 3, 3], 1.0, &mut rng);
        let err = conv.forward(&x).mse(&x).item();
        assert!(err < 1e-3, "err {err}");
    }
}

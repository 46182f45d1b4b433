use dcdiff_tensor::serial::{Checkpoint, CheckpointError};
use dcdiff_tensor::{Rng, Tensor};

use crate::layers::{Conv2d, GroupNorm, Linear};
use crate::module::{scoped, Module};

/// Default group count for normalisation layers across the workspace.
pub(crate) const NORM_GROUPS: usize = 8;

/// DDPM-style residual block: `GN → SiLU → conv → (+time) → GN → SiLU →
/// conv`, with a learned 1×1 skip when the channel count changes.
#[derive(Debug, Clone)]
pub struct ResBlock {
    norm1: GroupNorm,
    conv1: Conv2d,
    norm2: GroupNorm,
    conv2: Conv2d,
    time_proj: Option<Linear>,
    skip: Option<Conv2d>,
}

impl ResBlock {
    /// Create a residual block mapping `in_ch -> out_ch`.
    ///
    /// When `time_dim` is `Some(d)`, a projection from the timestep
    /// embedding (shape `[N, d]`) is added between the convolutions.
    pub fn new(in_ch: usize, out_ch: usize, time_dim: Option<usize>, rng: &mut Rng) -> Self {
        Self {
            norm1: GroupNorm::new(in_ch, NORM_GROUPS),
            conv1: Conv2d::new(in_ch, out_ch, 3, 1, 1, rng),
            norm2: GroupNorm::new(out_ch, NORM_GROUPS),
            conv2: Conv2d::new(out_ch, out_ch, 3, 1, 1, rng),
            time_proj: time_dim.map(|d| Linear::new(d, out_ch, rng)),
            skip: (in_ch != out_ch).then(|| Conv2d::new(in_ch, out_ch, 1, 1, 0, rng)),
        }
    }

    /// Apply the block. `temb` must be provided iff the block was built
    /// with a `time_dim`.
    ///
    /// # Panics
    ///
    /// Panics when the timestep embedding presence disagrees with the
    /// block configuration.
    pub fn forward(&self, x: &Tensor, temb: Option<&Tensor>) -> Tensor {
        assert_eq!(
            self.time_proj.is_some(),
            temb.is_some(),
            "time embedding presence must match block configuration"
        );
        let mut h = self.conv1.forward(&self.norm1.forward_silu(x));
        if let (Some(proj), Some(t)) = (&self.time_proj, temb) {
            h = h.add_per_channel(&proj.forward(&t.silu()));
        }
        let h = self.conv2.forward(&self.norm2.forward_silu(&h));
        match &self.skip {
            Some(skip) => h.add(&skip.forward(x)),
            None => h.add(x),
        }
    }
}

impl Module for ResBlock {
    fn params(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        p.extend(self.norm1.params());
        p.extend(self.conv1.params());
        p.extend(self.norm2.params());
        p.extend(self.conv2.params());
        if let Some(t) = &self.time_proj {
            p.extend(t.params());
        }
        if let Some(s) = &self.skip {
            p.extend(s.params());
        }
        p
    }

    fn save(&self, prefix: &str, ckpt: &mut Checkpoint) {
        self.norm1.save(&scoped(prefix, "norm1"), ckpt);
        self.conv1.save(&scoped(prefix, "conv1"), ckpt);
        self.norm2.save(&scoped(prefix, "norm2"), ckpt);
        self.conv2.save(&scoped(prefix, "conv2"), ckpt);
        if let Some(t) = &self.time_proj {
            t.save(&scoped(prefix, "time_proj"), ckpt);
        }
        if let Some(s) = &self.skip {
            s.save(&scoped(prefix, "skip"), ckpt);
        }
    }

    fn load(&self, prefix: &str, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.norm1.load(&scoped(prefix, "norm1"), ckpt)?;
        self.conv1.load(&scoped(prefix, "conv1"), ckpt)?;
        self.norm2.load(&scoped(prefix, "norm2"), ckpt)?;
        self.conv2.load(&scoped(prefix, "conv2"), ckpt)?;
        if let Some(t) = &self.time_proj {
            t.load(&scoped(prefix, "time_proj"), ckpt)?;
        }
        if let Some(s) = &self.skip {
            s.load(&scoped(prefix, "skip"), ckpt)?;
        }
        Ok(())
    }
}

/// Learned 2× downsampling (stride-2 3×3 convolution).
#[derive(Debug, Clone)]
pub struct Downsample {
    conv: Conv2d,
}

impl Downsample {
    /// Create a downsampler preserving the channel count.
    pub fn new(channels: usize, rng: &mut Rng) -> Self {
        Self {
            conv: Conv2d::new(channels, channels, 3, 2, 1, rng),
        }
    }

    /// Halve the spatial resolution.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.conv.forward(x)
    }
}

impl Module for Downsample {
    fn params(&self) -> Vec<Tensor> {
        self.conv.params()
    }

    fn save(&self, prefix: &str, ckpt: &mut Checkpoint) {
        self.conv.save(&scoped(prefix, "conv"), ckpt);
    }

    fn load(&self, prefix: &str, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.conv.load(&scoped(prefix, "conv"), ckpt)
    }
}

/// Learned 2× upsampling (nearest-neighbour + 3×3 convolution).
#[derive(Debug, Clone)]
pub struct Upsample {
    conv: Conv2d,
}

impl Upsample {
    /// Create an upsampler preserving the channel count.
    pub fn new(channels: usize, rng: &mut Rng) -> Self {
        Self {
            conv: Conv2d::new(channels, channels, 3, 1, 1, rng),
        }
    }

    /// Double the spatial resolution.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.conv.forward(&x.upsample_nearest2())
    }
}

impl Module for Upsample {
    fn params(&self) -> Vec<Tensor> {
        self.conv.params()
    }

    fn save(&self, prefix: &str, ckpt: &mut Checkpoint) {
        self.conv.save(&scoped(prefix, "conv"), ckpt);
    }

    fn load(&self, prefix: &str, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.conv.load(&scoped(prefix, "conv"), ckpt)
    }
}

/// Sinusoidal timestep embedding followed by a two-layer MLP, as in DDPM.
#[derive(Debug, Clone)]
pub struct TimeEmbedding {
    dim: usize,
    lin1: Linear,
    lin2: Linear,
}

impl TimeEmbedding {
    /// Create an embedding of base dimension `dim` projecting to
    /// `dim * 4` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not even.
    pub fn new(dim: usize, rng: &mut Rng) -> Self {
        assert!(dim >= 2 && dim.is_multiple_of(2), "time embedding dim must be even");
        Self {
            dim,
            lin1: Linear::new(dim, dim * 4, rng),
            lin2: Linear::new(dim * 4, dim * 4, rng),
        }
    }

    /// Output dimension of [`TimeEmbedding::forward`].
    pub fn out_dim(&self) -> usize {
        self.dim * 4
    }

    /// Raw sinusoidal features `[N, dim]` for integer timesteps.
    pub fn sinusoid(&self, timesteps: &[usize]) -> Tensor {
        let half = self.dim / 2;
        let mut data = Vec::with_capacity(timesteps.len() * self.dim);
        for &t in timesteps {
            for i in 0..half {
                let freq = (-(i as f32) * (10_000f32).ln() / (half.max(2) - 1) as f32).exp();
                data.push((t as f32 * freq).sin());
            }
            for i in 0..half {
                let freq = (-(i as f32) * (10_000f32).ln() / (half.max(2) - 1) as f32).exp();
                data.push((t as f32 * freq).cos());
            }
        }
        Tensor::from_vec(vec![timesteps.len(), self.dim], data)
    }

    /// Embed integer timesteps into `[N, dim*4]` conditioning vectors.
    pub fn forward(&self, timesteps: &[usize]) -> Tensor {
        let s = self.sinusoid(timesteps);
        self.lin2.forward(&self.lin1.forward(&s).silu())
    }
}

impl Module for TimeEmbedding {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.lin1.params();
        p.extend(self.lin2.params());
        p
    }

    fn save(&self, prefix: &str, ckpt: &mut Checkpoint) {
        self.lin1.save(&scoped(prefix, "lin1"), ckpt);
        self.lin2.save(&scoped(prefix, "lin2"), ckpt);
    }

    fn load(&self, prefix: &str, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.lin1.load(&scoped(prefix, "lin1"), ckpt)?;
        self.lin2.load(&scoped(prefix, "lin2"), ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_tensor::seeded_rng;

    #[test]
    fn resblock_preserves_shape_same_channels() {
        let mut rng = seeded_rng(0);
        let block = ResBlock::new(8, 8, None, &mut rng);
        let x = Tensor::randn(vec![2, 8, 4, 4], 1.0, &mut rng);
        assert_eq!(block.forward(&x, None).shape(), x.shape());
    }

    #[test]
    fn resblock_changes_channels_with_skip() {
        let mut rng = seeded_rng(1);
        let block = ResBlock::new(4, 12, None, &mut rng);
        let x = Tensor::randn(vec![1, 4, 4, 4], 1.0, &mut rng);
        assert_eq!(block.forward(&x, None).shape(), &[1, 12, 4, 4]);
    }

    #[test]
    fn resblock_accepts_time_embedding() {
        let mut rng = seeded_rng(2);
        let temb = TimeEmbedding::new(8, &mut rng);
        let block = ResBlock::new(4, 4, Some(temb.out_dim()), &mut rng);
        let x = Tensor::randn(vec![2, 4, 4, 4], 1.0, &mut rng);
        let t = temb.forward(&[0, 500]);
        assert_eq!(block.forward(&x, Some(&t)).shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "time embedding presence")]
    fn resblock_rejects_missing_time() {
        let mut rng = seeded_rng(3);
        let block = ResBlock::new(4, 4, Some(32), &mut rng);
        let x = Tensor::zeros(vec![1, 4, 4, 4]);
        let _ = block.forward(&x, None);
    }

    #[test]
    fn down_then_up_restores_resolution() {
        let mut rng = seeded_rng(4);
        let down = Downsample::new(3, &mut rng);
        let up = Upsample::new(3, &mut rng);
        let x = Tensor::zeros(vec![1, 3, 8, 8]);
        let y = up.forward(&down.forward(&x));
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn time_embedding_distinguishes_timesteps() {
        let mut rng = seeded_rng(5);
        let temb = TimeEmbedding::new(16, &mut rng);
        let e = temb.forward(&[0, 100, 999]);
        assert_eq!(e.shape(), &[3, 64]);
        let d = e.to_vec();
        let (a, b) = (&d[0..64], &d[64..128]);
        let dist: f32 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
        assert!(dist > 1e-3, "embeddings for t=0 and t=100 should differ");
    }

    #[test]
    fn sinusoid_is_bounded() {
        let mut rng = seeded_rng(6);
        let temb = TimeEmbedding::new(8, &mut rng);
        let s = temb.sinusoid(&[0, 1, 10, 100, 1000]);
        assert!(s.to_vec().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn block_checkpoint_round_trip() {
        let mut rng = seeded_rng(7);
        let b1 = ResBlock::new(3, 6, Some(8), &mut rng);
        let b2 = ResBlock::new(3, 6, Some(8), &mut rng);
        let mut ckpt = Checkpoint::new();
        b1.save("blk", &mut ckpt);
        b2.load("blk", &ckpt).unwrap();
        for (p1, p2) in b1.params().iter().zip(b2.params().iter()) {
            assert_eq!(p1.to_vec(), p2.to_vec());
        }
    }
}

use dcdiff_tensor::serial::{Checkpoint, CheckpointError};
use dcdiff_tensor::{Rng, Tensor};

use crate::attention::AttentionBlock;
use crate::blocks::{Downsample, ResBlock, TimeEmbedding, Upsample};
use crate::layers::{Conv2d, GroupNorm};
use crate::module::{scoped, Module};

/// Configuration for a [`UNet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UNetConfig {
    /// Channels of the noisy input (latent channels for DCDiff).
    pub in_channels: usize,
    /// Channels of the predicted noise (usually equals `in_channels`).
    pub out_channels: usize,
    /// Width of the first feature level.
    pub base_channels: usize,
    /// Channel multiplier per resolution level; the network downsamples
    /// `channel_mults.len() - 1` times.
    pub channel_mults: Vec<usize>,
    /// Base dimension of the sinusoidal timestep embedding (must be even).
    pub time_dim: usize,
    /// Insert a self-attention block at the bottleneck (between the two
    /// mid residual blocks), as DDPM U-Nets do.
    pub attention: bool,
}

impl Default for UNetConfig {
    fn default() -> Self {
        Self {
            in_channels: 4,
            out_channels: 4,
            base_channels: 32,
            channel_mults: vec![1, 2],
            time_dim: 32,
            attention: true,
        }
    }
}

impl UNetConfig {
    fn level_channels(&self) -> Vec<usize> {
        self.channel_mults
            .iter()
            .map(|m| m * self.base_channels)
            .collect()
    }
}

/// A DDPM-style U-Net noise-prediction network.
///
/// The architecture follows the standard latent-diffusion encoder /
/// bottleneck / decoder layout with additive skip connections and
/// timestep conditioning. Two extension points reproduce the paper's
/// machinery:
///
/// * **Control injection** (§III-B): features produced by a
///   [`ControlModule`] over the DC-less image `x̃` are added (through
///   zero-initialised convolutions) at each encoder stage and at the
///   bottleneck, mirroring ControlNet.
/// * **Frequency modulation** (§III-D): per-sample scale factors `(s, b)`
///   re-weight backbone features (`s`) and skip features (`b`) at every
///   decoder concatenation, as in FreeU; `s = b = 1` recovers plain DDIM
///   sampling.
#[derive(Debug)]
pub struct UNet {
    config: UNetConfig,
    time: TimeEmbedding,
    conv_in: Conv2d,
    down_blocks: Vec<ResBlock>,
    downsamples: Vec<Downsample>,
    mid1: ResBlock,
    mid_attention: Option<AttentionBlock>,
    mid2: ResBlock,
    up_blocks: Vec<ResBlock>,
    upsamples: Vec<Upsample>,
    final_block: ResBlock,
    out_norm: GroupNorm,
    conv_out: Conv2d,
}

impl UNet {
    /// Build a U-Net from `config` with weights drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `channel_mults` is empty or `time_dim` is odd.
    pub fn new(config: UNetConfig, rng: &mut Rng) -> Self {
        assert!(
            !config.channel_mults.is_empty(),
            "channel_mults must be nonempty"
        );
        let chans = config.level_channels();
        let levels = chans.len();
        let time = TimeEmbedding::new(config.time_dim, rng);
        let td = Some(time.out_dim());
        let conv_in = Conv2d::new(config.in_channels, config.base_channels, 3, 1, 1, rng);

        let mut down_blocks = Vec::with_capacity(levels);
        let mut downsamples = Vec::new();
        let mut prev = config.base_channels;
        for (i, &c) in chans.iter().enumerate() {
            down_blocks.push(ResBlock::new(prev, c, td, rng));
            prev = c;
            if i + 1 < levels {
                downsamples.push(Downsample::new(c, rng));
            }
        }

        // `chans` has one entry per level, and levels ≥ 1.
        let c_last = *chans.last().expect("nonempty");
        let mid1 = ResBlock::new(c_last, c_last, td, rng);
        let mid_attention = config.attention.then(|| AttentionBlock::new(c_last, rng));
        let mid2 = ResBlock::new(c_last, c_last, td, rng);

        // Decoder: level L-1 .. 0; block i consumes concat(backbone, skip_i).
        let mut up_blocks = Vec::with_capacity(levels);
        let mut upsamples = Vec::new();
        for i in (0..levels).rev() {
            let backbone_ch = if i + 1 == levels { c_last } else { chans[i + 1] };
            up_blocks.push(ResBlock::new(backbone_ch + chans[i], chans[i], td, rng));
            if i > 0 {
                upsamples.push(Upsample::new(chans[i], rng));
            }
        }
        let final_block = ResBlock::new(chans[0] + config.base_channels, config.base_channels, td, rng);
        let out_norm = GroupNorm::new(config.base_channels, crate::blocks::NORM_GROUPS);
        let conv_out = Conv2d::new(config.base_channels, config.out_channels, 3, 1, 1, rng);

        Self {
            config,
            time,
            conv_in,
            down_blocks,
            downsamples,
            mid1,
            mid_attention,
            mid2,
            up_blocks,
            upsamples,
            final_block,
            out_norm,
            conv_out,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &UNetConfig {
        &self.config
    }

    /// Number of injection sites a matching [`ControlModule`] must supply:
    /// one per encoder stage plus the bottleneck.
    pub fn control_sites(&self) -> usize {
        self.config.channel_mults.len() + 2
    }

    /// Predict noise for `x` (`[N, in, H, W]`) at integer `timesteps`.
    ///
    /// `control` supplies per-site residual features from a
    /// [`ControlModule`] (see [`UNet::control_sites`]). `freeu` supplies
    /// per-sample `(s, b)` scale vectors of shape `[N]` applied to the
    /// backbone and skip features at decoder concatenations.
    ///
    /// # Panics
    ///
    /// Panics if `timesteps.len()` differs from the batch size, the input
    /// resolution is not divisible by `2^(levels-1)`, or `control` has the
    /// wrong number of entries.
    pub fn forward(
        &self,
        x: &Tensor,
        timesteps: &[usize],
        control: Option<&[Tensor]>,
        freeu: Option<(&Tensor, &Tensor)>,
    ) -> Tensor {
        let n = x.shape()[0];
        assert_eq!(timesteps.len(), n, "one timestep per sample");
        if let Some(ctrl) = control {
            assert_eq!(
                ctrl.len(),
                self.control_sites(),
                "control must supply {} feature maps",
                self.control_sites()
            );
        }
        let temb = self.time.forward(timesteps);
        let levels = self.down_blocks.len();

        let inject = |h: Tensor, site: usize| -> Tensor {
            match control {
                Some(ctrl) => h.add(&ctrl[site]),
                None => h,
            }
        };

        // Encoder.
        let mut skips: Vec<Tensor> = Vec::with_capacity(levels + 1);
        let mut h = inject(self.conv_in.forward(x), 0);
        skips.push(h.clone());
        for (i, block) in self.down_blocks.iter().enumerate() {
            h = inject(block.forward(&h, Some(&temb)), i + 1);
            skips.push(h.clone());
            if i + 1 < levels {
                h = self.downsamples[i].forward(&h);
            }
        }

        // Bottleneck.
        h = self.mid1.forward(&h, Some(&temb));
        if let Some(attn) = &self.mid_attention {
            h = attn.forward(&h);
        }
        h = inject(h, levels + 1);
        h = self.mid2.forward(&h, Some(&temb));

        // Decoder.
        let modulate = |backbone: Tensor, skip: Tensor| -> (Tensor, Tensor) {
            match freeu {
                Some((s, b)) => (backbone.scale_per_sample(s), skip.scale_per_sample(b)),
                None => (backbone, skip),
            }
        };
        for (k, block) in self.up_blocks.iter().enumerate() {
            // The encoder pushes one skip per up block.
            let skip = skips.pop().expect("skip available for each up block");
            let (hb, sk) = modulate(h, skip);
            h = block.forward(&hb.concat_channels(&sk), Some(&temb));
            if k < self.upsamples.len() {
                h = self.upsamples[k].forward(&h);
            }
        }
        // conv_in pushed the first skip; the loop pops one per up block.
        let skip = skips.pop().expect("conv_in skip remains");
        let (hb, sk) = modulate(h, skip);
        h = self.final_block.forward(&hb.concat_channels(&sk), Some(&temb));
        self.conv_out.forward(&self.out_norm.forward_silu(&h))
    }
}

impl Module for UNet {
    fn params(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        p.extend(self.time.params());
        p.extend(self.conv_in.params());
        for b in &self.down_blocks {
            p.extend(b.params());
        }
        for d in &self.downsamples {
            p.extend(d.params());
        }
        p.extend(self.mid1.params());
        if let Some(attn) = &self.mid_attention {
            p.extend(attn.params());
        }
        p.extend(self.mid2.params());
        for b in &self.up_blocks {
            p.extend(b.params());
        }
        for u in &self.upsamples {
            p.extend(u.params());
        }
        p.extend(self.final_block.params());
        p.extend(self.out_norm.params());
        p.extend(self.conv_out.params());
        p
    }

    fn save(&self, prefix: &str, ckpt: &mut Checkpoint) {
        self.time.save(&scoped(prefix, "time"), ckpt);
        self.conv_in.save(&scoped(prefix, "conv_in"), ckpt);
        for (i, b) in self.down_blocks.iter().enumerate() {
            b.save(&scoped(prefix, &format!("down{i}")), ckpt);
        }
        for (i, d) in self.downsamples.iter().enumerate() {
            d.save(&scoped(prefix, &format!("downsample{i}")), ckpt);
        }
        self.mid1.save(&scoped(prefix, "mid1"), ckpt);
        if let Some(attn) = &self.mid_attention {
            attn.save(&scoped(prefix, "mid_attn"), ckpt);
        }
        self.mid2.save(&scoped(prefix, "mid2"), ckpt);
        for (i, b) in self.up_blocks.iter().enumerate() {
            b.save(&scoped(prefix, &format!("up{i}")), ckpt);
        }
        for (i, u) in self.upsamples.iter().enumerate() {
            u.save(&scoped(prefix, &format!("upsample{i}")), ckpt);
        }
        self.final_block.save(&scoped(prefix, "final"), ckpt);
        self.out_norm.save(&scoped(prefix, "out_norm"), ckpt);
        self.conv_out.save(&scoped(prefix, "conv_out"), ckpt);
    }

    fn load(&self, prefix: &str, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.time.load(&scoped(prefix, "time"), ckpt)?;
        self.conv_in.load(&scoped(prefix, "conv_in"), ckpt)?;
        for (i, b) in self.down_blocks.iter().enumerate() {
            b.load(&scoped(prefix, &format!("down{i}")), ckpt)?;
        }
        for (i, d) in self.downsamples.iter().enumerate() {
            d.load(&scoped(prefix, &format!("downsample{i}")), ckpt)?;
        }
        self.mid1.load(&scoped(prefix, "mid1"), ckpt)?;
        if let Some(attn) = &self.mid_attention {
            attn.load(&scoped(prefix, "mid_attn"), ckpt)?;
        }
        self.mid2.load(&scoped(prefix, "mid2"), ckpt)?;
        for (i, b) in self.up_blocks.iter().enumerate() {
            b.load(&scoped(prefix, &format!("up{i}")), ckpt)?;
        }
        for (i, u) in self.upsamples.iter().enumerate() {
            u.load(&scoped(prefix, &format!("upsample{i}")), ckpt)?;
        }
        self.final_block.load(&scoped(prefix, "final"), ckpt)?;
        self.out_norm.load(&scoped(prefix, "out_norm"), ckpt)?;
        self.conv_out.load(&scoped(prefix, "conv_out"), ckpt)
    }
}

/// ControlNet-style conditioning branch.
///
/// Encodes the structure image (the DC-less `x̃` in DCDiff) with a copy of
/// the U-Net's encoder topology and emits one residual feature map per
/// injection site, each passed through a **zero-initialised** 1×1
/// convolution so training starts from the unconditioned model.
#[derive(Debug)]
pub struct ControlModule {
    conv_in: Conv2d,
    blocks: Vec<ResBlock>,
    downsamples: Vec<Downsample>,
    zero_convs: Vec<Conv2d>,
}

impl ControlModule {
    /// Build a control branch for `unet` taking a conditioning image with
    /// `cond_channels` channels at the same resolution as the U-Net input.
    pub fn new(unet_config: &UNetConfig, cond_channels: usize, rng: &mut Rng) -> Self {
        let chans = unet_config.level_channels();
        let levels = chans.len();
        let conv_in = Conv2d::new(cond_channels, unet_config.base_channels, 3, 1, 1, rng);
        let mut blocks = Vec::with_capacity(levels);
        let mut downsamples = Vec::new();
        let mut zero_convs = Vec::with_capacity(levels + 2);
        zero_convs.push(Conv2d::zeroed(
            unet_config.base_channels,
            unet_config.base_channels,
            1,
            1,
            0,
        ));
        let mut prev = unet_config.base_channels;
        for (i, &c) in chans.iter().enumerate() {
            blocks.push(ResBlock::new(prev, c, None, rng));
            zero_convs.push(Conv2d::zeroed(c, c, 1, 1, 0));
            prev = c;
            if i + 1 < levels {
                downsamples.push(Downsample::new(c, rng));
            }
        }
        // `chans` has one entry per level, and levels ≥ 1.
        let c_last = *chans.last().expect("nonempty");
        zero_convs.push(Conv2d::zeroed(c_last, c_last, 1, 1, 0));
        Self {
            conv_in,
            blocks,
            downsamples,
            zero_convs,
        }
    }

    /// Encode the conditioning image into one residual feature per U-Net
    /// injection site (see [`UNet::control_sites`]).
    pub fn forward(&self, cond: &Tensor) -> Vec<Tensor> {
        let levels = self.blocks.len();
        let mut features = Vec::with_capacity(levels + 2);
        let mut h = self.conv_in.forward(cond);
        features.push(self.zero_convs[0].forward(&h));
        for (i, block) in self.blocks.iter().enumerate() {
            h = block.forward(&h, None);
            features.push(self.zero_convs[i + 1].forward(&h));
            if i + 1 < levels {
                h = self.downsamples[i].forward(&h);
            }
        }
        features.push(self.zero_convs[levels + 1].forward(&h));
        features
    }
}

impl Module for ControlModule {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.conv_in.params();
        for b in &self.blocks {
            p.extend(b.params());
        }
        for d in &self.downsamples {
            p.extend(d.params());
        }
        for z in &self.zero_convs {
            p.extend(z.params());
        }
        p
    }

    fn save(&self, prefix: &str, ckpt: &mut Checkpoint) {
        self.conv_in.save(&scoped(prefix, "conv_in"), ckpt);
        for (i, b) in self.blocks.iter().enumerate() {
            b.save(&scoped(prefix, &format!("block{i}")), ckpt);
        }
        for (i, d) in self.downsamples.iter().enumerate() {
            d.save(&scoped(prefix, &format!("downsample{i}")), ckpt);
        }
        for (i, z) in self.zero_convs.iter().enumerate() {
            z.save(&scoped(prefix, &format!("zero{i}")), ckpt);
        }
    }

    fn load(&self, prefix: &str, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.conv_in.load(&scoped(prefix, "conv_in"), ckpt)?;
        for (i, b) in self.blocks.iter().enumerate() {
            b.load(&scoped(prefix, &format!("block{i}")), ckpt)?;
        }
        for (i, d) in self.downsamples.iter().enumerate() {
            d.load(&scoped(prefix, &format!("downsample{i}")), ckpt)?;
        }
        for (i, z) in self.zero_convs.iter().enumerate() {
            z.load(&scoped(prefix, &format!("zero{i}")), ckpt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_tensor::seeded_rng;

    fn small_config() -> UNetConfig {
        UNetConfig {
            in_channels: 2,
            out_channels: 2,
            base_channels: 8,
            channel_mults: vec![1, 2],
            time_dim: 8,
            attention: true,
        }
    }

    #[test]
    fn unet_preserves_input_shape() {
        let mut rng = seeded_rng(0);
        let unet = UNet::new(small_config(), &mut rng);
        let x = Tensor::randn(vec![2, 2, 8, 8], 1.0, &mut rng);
        let y = unet.forward(&x, &[3, 700], None, None);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn unet_single_level_works() {
        let mut rng = seeded_rng(1);
        let mut cfg = small_config();
        cfg.channel_mults = vec![1];
        let unet = UNet::new(cfg, &mut rng);
        let x = Tensor::randn(vec![1, 2, 4, 4], 1.0, &mut rng);
        assert_eq!(unet.forward(&x, &[0], None, None).shape(), x.shape());
    }

    #[test]
    fn fresh_control_module_is_identity() {
        // zero convs mean control output starts at exactly zero, so the
        // controlled and uncontrolled networks initially agree.
        let mut rng = seeded_rng(2);
        let cfg = small_config();
        let unet = UNet::new(cfg.clone(), &mut rng);
        let ctrl = ControlModule::new(&cfg, 3, &mut rng);
        let x = Tensor::randn(vec![1, 2, 8, 8], 1.0, &mut rng);
        let cond = Tensor::randn(vec![1, 3, 8, 8], 1.0, &mut rng);
        let features = ctrl.forward(&cond);
        assert_eq!(features.len(), unet.control_sites());
        let y0 = unet.forward(&x, &[10], None, None);
        let y1 = unet.forward(&x, &[10], Some(&features), None);
        let diff: f32 = y0
            .to_vec()
            .iter()
            .zip(y1.to_vec())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff < 1e-5, "control must start as a no-op, diff {diff}");
    }

    #[test]
    fn unity_freeu_matches_plain_forward() {
        let mut rng = seeded_rng(3);
        let unet = UNet::new(small_config(), &mut rng);
        let x = Tensor::randn(vec![2, 2, 8, 8], 1.0, &mut rng);
        let ones = Tensor::from_vec(vec![2], vec![1.0, 1.0]);
        let y0 = unet.forward(&x, &[5, 5], None, None);
        let y1 = unet.forward(&x, &[5, 5], None, Some((&ones, &ones)));
        let diff: f32 = y0
            .to_vec()
            .iter()
            .zip(y1.to_vec())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff < 1e-4, "s=b=1 must be plain sampling, diff {diff}");
    }

    #[test]
    fn freeu_scales_change_output() {
        let mut rng = seeded_rng(4);
        let unet = UNet::new(small_config(), &mut rng);
        let x = Tensor::randn(vec![1, 2, 8, 8], 1.0, &mut rng);
        let s = Tensor::from_vec(vec![1], vec![1.5]);
        let b = Tensor::from_vec(vec![1], vec![0.5]);
        let y0 = unet.forward(&x, &[5], None, None);
        let y1 = unet.forward(&x, &[5], None, Some((&s, &b)));
        let diff: f32 = y0
            .to_vec()
            .iter()
            .zip(y1.to_vec())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "non-unity freeu must alter the output");
    }

    #[test]
    fn timestep_changes_prediction() {
        let mut rng = seeded_rng(5);
        let unet = UNet::new(small_config(), &mut rng);
        let x = Tensor::randn(vec![1, 2, 8, 8], 1.0, &mut rng);
        let y0 = unet.forward(&x, &[0], None, None);
        let y1 = unet.forward(&x, &[900], None, None);
        let diff: f32 = y0
            .to_vec()
            .iter()
            .zip(y1.to_vec())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "different timesteps must change the output");
    }

    #[test]
    fn unet_checkpoint_round_trip() {
        let mut rng = seeded_rng(6);
        let u1 = UNet::new(small_config(), &mut rng);
        let u2 = UNet::new(small_config(), &mut rng);
        let mut ckpt = Checkpoint::new();
        u1.save("unet", &mut ckpt);
        u2.load("unet", &ckpt).unwrap();
        let x = Tensor::randn(vec![1, 2, 8, 8], 1.0, &mut rng);
        assert_eq!(
            u1.forward(&x, &[42], None, None).to_vec(),
            u2.forward(&x, &[42], None, None).to_vec()
        );
    }

    #[test]
    #[should_panic(expected = "one timestep per sample")]
    fn unet_rejects_wrong_timestep_count() {
        let mut rng = seeded_rng(7);
        let unet = UNet::new(small_config(), &mut rng);
        let x = Tensor::zeros(vec![2, 2, 8, 8]);
        let _ = unet.forward(&x, &[0], None, None);
    }
}

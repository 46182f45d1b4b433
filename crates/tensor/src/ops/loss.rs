use crate::Tensor;

impl Tensor {
    /// Mean-squared-error loss against `target` (a constant), returning a
    /// scalar.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mse(&self, target: &Tensor) -> Tensor {
        self.sub(target).square().mean_all()
    }

    /// Mean absolute error (L1) loss against `target`, returning a scalar.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn l1(&self, target: &Tensor) -> Tensor {
        self.sub(target).abs().mean_all()
    }

    /// Weighted MSE: `mean(weight * (self - target)^2)`. The paper's masked
    /// Laplacian loss (Eq. 4) is built on this with a binary mask as
    /// `weight`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn masked_mse(&self, target: &Tensor, weight: &Tensor) -> Tensor {
        self.sub(target).square().mul(weight).mean_all()
    }

    /// Softmax cross-entropy over logits `[N, K]` with integer labels,
    /// returning the mean loss (used by the downstream classifier and the
    /// stage-1 discriminator).
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[N, K]` and `labels.len() == N` with every
    /// label `< K`.
    pub fn softmax_cross_entropy(&self, labels: &[usize]) -> Tensor {
        assert_eq!(self.shape().len(), 2, "logits must be [N, K]");
        let (n, k) = (self.shape()[0], self.shape()[1]);
        assert_eq!(labels.len(), n, "one label per sample");
        assert!(labels.iter().all(|&l| l < k), "label out of range");
        let x = self.data();
        let mut probs = vec![0.0f32; n * k];
        let mut loss = 0.0f32;
        for i in 0..n {
            let row = &x[i * k..(i + 1) * k];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for (j, &e) in exps.iter().enumerate() {
                probs[i * k + j] = e / sum;
            }
            loss -= (probs[i * k + labels[i]]).max(1e-12).ln();
        }
        loss /= n as f32;
        let labels = labels.to_vec();
        Tensor::from_op(
            vec![1],
            vec![loss],
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    let scale = g[0] / n as f32;
                    let mut gx = probs.clone();
                    for (i, &l) in labels.iter().enumerate() {
                        gx[i * k + l] -= 1.0;
                    }
                    for v in &mut gx {
                        *v *= scale;
                    }
                    parents[0].accumulate_grad(&gx);
                }
            }),
        )
    }

    /// Row-wise softmax probabilities of `[N, K]` logits (inference only —
    /// detached from the tape).
    ///
    /// # Panics
    ///
    /// Panics unless `self` is 2-D.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape().len(), 2, "softmax_rows expects [N, K]");
        let (n, k) = (self.shape()[0], self.shape()[1]);
        let x = self.data();
        let mut out = vec![0.0f32; n * k];
        for i in 0..n {
            let row = &x[i * k..(i + 1) * k];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for (j, &e) in exps.iter().enumerate() {
                out[i * k + j] = e / sum;
            }
        }
        Tensor::from_vec(vec![n, k], out)
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn mse_of_identical_is_zero() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        assert_eq!(a.mse(&a).item(), 0.0);
        assert_eq!(a.l1(&a).item(), 0.0);
    }

    #[test]
    fn mse_gradient() {
        let x = Tensor::param(vec![2], vec![3.0, -1.0]);
        let t = Tensor::from_vec(vec![2], vec![1.0, 1.0]);
        x.mse(&t).backward();
        // d/dx mean((x-t)^2) = 2(x-t)/n
        assert_eq!(x.grad_vec(), vec![2.0, -2.0]);
    }

    #[test]
    fn masked_mse_ignores_masked_entries() {
        let x = Tensor::param(vec![2], vec![5.0, 7.0]);
        let t = Tensor::from_vec(vec![2], vec![0.0, 0.0]);
        let m = Tensor::from_vec(vec![2], vec![1.0, 0.0]);
        let loss = x.masked_mse(&t, &m);
        assert_eq!(loss.item(), 12.5); // 25/2
        loss.backward();
        assert_eq!(x.grad_vec(), vec![5.0, 0.0]);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::from_vec(vec![1, 4], vec![0.0; 4]);
        let loss = logits.softmax_cross_entropy(&[2]);
        assert!((loss.item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let x = Tensor::param(vec![1, 3], vec![1.0, 0.0, -1.0]);
        x.softmax_cross_entropy(&[0]).backward();
        let g = x.grad_vec();
        let p = x.softmax_rows().to_vec();
        assert!((g[0] - (p[0] - 1.0)).abs() < 1e-5);
        assert!((g[1] - p[1]).abs() < 1e-5);
        assert!((g[2] - p[2]).abs() < 1e-5);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![2, 3], vec![5.0, 1.0, -2.0, 0.0, 0.0, 0.0]);
        let p = x.softmax_rows().to_vec();
        assert!((p[0..3].iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!((p[3..6].iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn cross_entropy_rejects_bad_label() {
        let x = Tensor::zeros(vec![1, 2]);
        let _ = x.softmax_cross_entropy(&[2]);
    }
}

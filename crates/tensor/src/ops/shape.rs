use super::elementwise::shape4;
use crate::Tensor;

impl Tensor {
    /// View the same data under a new shape (copying; gradients flow
    /// through unchanged).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.len(),
            "reshape must preserve element count"
        );
        Tensor::from_op(
            shape,
            self.to_vec(),
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    parents[0].accumulate_grad(g);
                }
            }),
        )
    }

    /// Concatenate two NCHW tensors along the channel axis (U-Net skip
    /// connections).
    ///
    /// # Panics
    ///
    /// Panics unless batch and spatial dimensions match.
    pub fn concat_channels(&self, other: &Tensor) -> Tensor {
        let (n, c1, h, w) = shape4(self.shape());
        let (n2, c2, h2, w2) = shape4(other.shape());
        assert_eq!(
            (n, h, w),
            (n2, h2, w2),
            "concat_channels: batch/spatial mismatch"
        );
        let hw = h * w;
        let (a, b) = (self.data(), other.data());
        let mut out = vec![0.0f32; n * (c1 + c2) * hw];
        for ni in 0..n {
            let dst = &mut out[ni * (c1 + c2) * hw..];
            dst[..c1 * hw].copy_from_slice(&a[ni * c1 * hw..(ni + 1) * c1 * hw]);
            dst[c1 * hw..(c1 + c2) * hw].copy_from_slice(&b[ni * c2 * hw..(ni + 1) * c2 * hw]);
        }
        Tensor::from_op(
            vec![n, c1 + c2, h, w],
            out,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    let mut ga = vec![0.0f32; n * c1 * hw];
                    for ni in 0..n {
                        let src = &g[ni * (c1 + c2) * hw..];
                        ga[ni * c1 * hw..(ni + 1) * c1 * hw].copy_from_slice(&src[..c1 * hw]);
                    }
                    parents[0].accumulate_grad(&ga);
                }
                if parents[1].tracks_grad() {
                    let mut gb = vec![0.0f32; n * c2 * hw];
                    for ni in 0..n {
                        let src = &g[ni * (c1 + c2) * hw..];
                        gb[ni * c2 * hw..(ni + 1) * c2 * hw]
                            .copy_from_slice(&src[c1 * hw..(c1 + c2) * hw]);
                    }
                    parents[1].accumulate_grad(&gb);
                }
            }),
        )
    }

    /// Slice a channel range `[start, end)` out of an NCHW tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn slice_channels(&self, start: usize, end: usize) -> Tensor {
        let (n, c, h, w) = shape4(self.shape());
        assert!(start < end && end <= c, "invalid channel range {start}..{end} of {c}");
        let cs = end - start;
        let hw = h * w;
        let x = self.data();
        let mut out = vec![0.0f32; n * cs * hw];
        for ni in 0..n {
            let src = &x[(ni * c + start) * hw..(ni * c + end) * hw];
            out[ni * cs * hw..(ni + 1) * cs * hw].copy_from_slice(src);
        }
        Tensor::from_op(
            vec![n, cs, h, w],
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    let mut gx = vec![0.0f32; n * c * hw];
                    for ni in 0..n {
                        gx[(ni * c + start) * hw..(ni * c + end) * hw]
                            .copy_from_slice(&g[ni * cs * hw..(ni + 1) * cs * hw]);
                    }
                    parents[0].accumulate_grad(&gx);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn reshape_preserves_data_and_grad() {
        let x = Tensor::param(vec![2, 3], (0..6).map(|v| v as f32).collect());
        let y = x.reshape(vec![3, 2]);
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.to_vec(), x.to_vec());
        y.sum_all().backward();
        assert_eq!(x.grad_vec(), vec![1.0; 6]);
    }

    #[test]
    fn concat_then_slice_round_trips() {
        let a = Tensor::param(vec![1, 2, 2, 2], (0..8).map(|v| v as f32).collect());
        let b = Tensor::param(vec![1, 1, 2, 2], (8..12).map(|v| v as f32).collect());
        let cat = a.concat_channels(&b);
        assert_eq!(cat.shape(), &[1, 3, 2, 2]);
        assert_eq!(cat.slice_channels(0, 2).to_vec(), a.to_vec());
        assert_eq!(cat.slice_channels(2, 3).to_vec(), b.to_vec());
    }

    #[test]
    fn concat_gradient_routes_to_both() {
        let a = Tensor::param(vec![1, 1, 1, 2], vec![0.0, 0.0]);
        let b = Tensor::param(vec![1, 1, 1, 2], vec![0.0, 0.0]);
        let cat = a.concat_channels(&b);
        // weight channel 0 by 2, channel 1 by 3
        let w = Tensor::from_vec(vec![1, 2, 1, 2], vec![2.0, 2.0, 3.0, 3.0]);
        cat.mul(&w).sum_all().backward();
        assert_eq!(a.grad_vec(), vec![2.0, 2.0]);
        assert_eq!(b.grad_vec(), vec![3.0, 3.0]);
    }

    #[test]
    fn slice_gradient_is_embedded() {
        let x = Tensor::param(vec![1, 3, 1, 1], vec![1.0, 2.0, 3.0]);
        x.slice_channels(1, 2).sum_all().backward();
        assert_eq!(x.grad_vec(), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid channel range")]
    fn slice_rejects_bad_range() {
        let x = Tensor::zeros(vec![1, 2, 1, 1]);
        let _ = x.slice_channels(1, 1);
    }

    #[test]
    fn batched_concat_keeps_sample_layout() {
        let a = Tensor::from_vec(vec![2, 1, 1, 1], vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![2, 1, 1, 1], vec![10.0, 20.0]);
        let cat = a.concat_channels(&b);
        assert_eq!(cat.to_vec(), vec![1.0, 10.0, 2.0, 20.0]);
    }
}

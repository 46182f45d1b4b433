use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::Rng as _;
use rand_distr_normal::sample_standard_normal;

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Run `f` with autograd tape construction disabled on this thread.
///
/// Inside the closure, ops whose parents would normally join the tape
/// produce constant nodes instead: no backward closure is recorded, so no
/// op keeps its parents (or the values its backward pass would read)
/// alive past the forward. Kernel work buffers (GEMM packing panels)
/// recycle through the kernel scratch pool, so repeated inference
/// forwards reuse a small, warm set of allocations.
///
/// The guard nests and restores the previous mode even if `f` panics.
/// Tensors created inside the closure are permanently constant; tensors
/// created outside keep their tape and differentiate normally afterwards.
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRAD_ENABLED.with(|g| g.set(self.0));
        }
    }
    let _restore = Restore(GRAD_ENABLED.with(|g| g.replace(false)));
    f()
}

pub(crate) fn grad_enabled() -> bool {
    GRAD_ENABLED.with(Cell::get)
}

/// Backward closure: receives the node's output gradient and the node's
/// parent handles. Passing the parents in (rather than each closure
/// capturing its own clones) keeps one set of handles per tape node and
/// lets ops capture only the saved values their math needs.
pub(crate) type BackwardFn = Box<dyn Fn(&[f32], &[Tensor])>;

pub(crate) struct Inner {
    pub(crate) id: usize,
    pub(crate) shape: Vec<usize>,
    pub(crate) data: RefCell<Vec<f32>>,
    pub(crate) grad: RefCell<Option<Vec<f32>>>,
    pub(crate) requires_grad: bool,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
}

/// An NCHW `f32` tensor participating in a reverse-mode autograd tape.
///
/// `Tensor` is a cheap reference-counted handle: cloning shares storage and
/// the tape node. Construction methods that perform computation
/// ([`Tensor::add`], [`Tensor::conv2d`], …) record a backward closure so a
/// later [`Tensor::backward`] call propagates gradients to every
/// [`Tensor::param`] in the expression.
///
/// The type intentionally mirrors the small set of operations DCDiff's
/// networks need rather than a general framework.
#[derive(Clone)]
pub struct Tensor(pub(crate) Rc<Inner>);

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("id", &self.0.id)
            .field("shape", &self.0.shape)
            .field("requires_grad", &self.0.requires_grad)
            .finish()
    }
}

impl Tensor {
    pub(crate) fn make(
        shape: Vec<usize>,
        data: Vec<f32>,
        requires_grad: bool,
        parents: Vec<Tensor>,
        backward: Option<BackwardFn>,
    ) -> Tensor {
        debug_assert_eq!(shape.iter().product::<usize>(), data.len());
        Tensor(Rc::new(Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            shape,
            data: RefCell::new(data),
            grad: RefCell::new(None),
            requires_grad,
            parents,
            backward,
        }))
    }

    /// Create a result node; it participates in the tape only when some
    /// parent requires gradients.
    pub(crate) fn from_op(
        shape: Vec<usize>,
        data: Vec<f32>,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Tensor {
        let needs = parents.iter().any(Tensor::tracks_grad);
        if needs {
            Tensor::make(shape, data, false, parents, Some(backward))
        } else {
            Tensor::make(shape, data, false, Vec::new(), None)
        }
    }

    /// A copy of this tensor's values for a backward closure that reads
    /// them to form `reader`'s gradient, or `None` when `reader` tracks no
    /// gradient: ops then copy nothing under [`no_grad`] or on constants.
    pub(crate) fn saved_for(&self, reader: &Tensor) -> Option<Vec<f32>> {
        reader.tracks_grad().then(|| self.to_vec())
    }

    /// Whether this node propagates gradients (a parameter or derived from
    /// one). Always false inside a [`no_grad`] scope, which is what keeps
    /// ops from saving backward state during inference.
    pub(crate) fn tracks_grad(&self) -> bool {
        (self.0.requires_grad || self.0.backward.is_some()) && grad_enabled()
    }

    /// A tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has zero elements.
    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let n: usize = shape.iter().product();
        assert!(n > 0, "tensor shape must be nonempty");
        Tensor::make(shape, vec![0.0; n], false, Vec::new(), None)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Tensor {
        let n: usize = shape.iter().product();
        assert!(n > 0, "tensor shape must be nonempty");
        Tensor::make(shape, vec![value; n], false, Vec::new(), None)
    }

    /// A constant (non-trainable) tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape product.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "data length must match shape"
        );
        Tensor::make(shape, data, false, Vec::new(), None)
    }

    /// A trainable parameter from raw data; gradients accumulate here.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape product.
    pub fn param(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "data length must match shape"
        );
        Tensor::make(shape, data, true, Vec::new(), None)
    }

    /// A constant tensor of standard-normal samples scaled by `std`.
    pub fn randn(shape: Vec<usize>, std: f32, rng: &mut crate::Rng) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| sample_standard_normal(rng) * std).collect();
        Tensor::make(shape, data, false, Vec::new(), None)
    }

    /// A trainable parameter of normal samples scaled by `std`.
    pub fn randn_param(shape: Vec<usize>, std: f32, rng: &mut crate::Rng) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| sample_standard_normal(rng) * std).collect();
        Tensor::make(shape, data, true, Vec::new(), None)
    }

    /// Tensor shape (outermost first; networks use `[N, C, H, W]`).
    pub fn shape(&self) -> &[usize] {
        &self.0.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.0.shape.iter().product()
    }

    /// Whether the tensor holds zero elements (never true).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stable identity of the tape node (used by optimizers).
    pub fn id(&self) -> usize {
        self.0.id
    }

    /// Whether this tensor is a trainable parameter.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad
    }

    /// Borrow the underlying data.
    ///
    /// # Panics
    ///
    /// Panics if the data is mutably borrowed (only optimizer steps do so).
    pub fn data(&self) -> Ref<'_, Vec<f32>> {
        self.0.data.borrow()
    }

    /// Copy the underlying data out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.0.data.borrow().clone()
    }

    /// Copy the accumulated gradient out (zeros when never touched).
    pub fn grad_vec(&self) -> Vec<f32> {
        self.0
            .grad
            .borrow()
            .clone()
            .unwrap_or_else(|| vec![0.0; self.len()])
    }

    /// Overwrite the tensor's contents in place (used by optimizers and EMA
    /// weight copies).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the element count.
    pub fn set_data(&self, data: &[f32]) {
        let mut d = self.0.data.borrow_mut();
        assert_eq!(d.len(), data.len(), "set_data length mismatch");
        d.copy_from_slice(data);
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.borrow_mut() = None;
    }

    /// Accumulate `g` into this node's gradient buffer.
    pub(crate) fn accumulate_grad(&self, g: &[f32]) {
        let mut slot = self.0.grad.borrow_mut();
        match slot.as_mut() {
            Some(buf) => {
                for (dst, &src) in buf.iter_mut().zip(g) {
                    *dst += src;
                }
            }
            None => *slot = Some(g.to_vec()),
        }
    }

    /// A constant copy detached from the tape (gradient flow stops here).
    pub fn detach(&self) -> Tensor {
        Tensor::make(self.0.shape.clone(), self.to_vec(), false, Vec::new(), None)
    }

    /// Run reverse-mode differentiation from this node.
    ///
    /// The node is seeded with gradient 1 everywhere (callers normally
    /// invoke this on scalar losses). Gradients accumulate into every
    /// parameter reachable through the tape; call [`Tensor::zero_grad`] (or
    /// an optimizer's `zero_grad`) between steps.
    pub fn backward(&self) {
        // Topological order via iterative DFS.
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<usize> = HashSet::new();
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.0.id);
        while let Some((node, child_idx)) = stack.pop() {
            if child_idx < node.0.parents.len() {
                let parent = node.0.parents[child_idx].clone();
                stack.push((node, child_idx + 1));
                if parent.tracks_grad() && visited.insert(parent.0.id) {
                    stack.push((parent, 0));
                }
            } else {
                order.push(node);
            }
        }
        // Seed with ones.
        self.accumulate_grad(&vec![1.0; self.len()]);
        // Reverse topological order: children before parents.
        for node in order.iter().rev() {
            if let Some(backward) = &node.0.backward {
                let grad = node
                    .0
                    .grad
                    .borrow()
                    .clone()
                    .unwrap_or_else(|| vec![0.0; node.len()]);
                backward(&grad, &node.0.parents);
                // Free intermediate gradient buffers eagerly.
                if !node.0.requires_grad && node.0.id != self.0.id {
                    *node.0.grad.borrow_mut() = None;
                }
            }
        }
    }

    /// The single element of a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a scalar tensor");
        self.0.data.borrow()[0]
    }
}

/// Minimal Box–Muller standard-normal sampling, kept private to avoid an
/// extra dependency on `rand_distr`.
mod rand_distr_normal {
    use super::*;

    pub fn sample_standard_normal(rng: &mut crate::Rng) -> f32 {
        loop {
            let u1: f32 = rng.gen::<f32>();
            if u1 <= f32::MIN_POSITIVE {
                continue;
            }
            let u2: f32 = rng.gen::<f32>();
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (2.0 * std::f32::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_shapes() {
        let t = Tensor::zeros(vec![2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(!t.requires_grad());
        let p = Tensor::param(vec![2], vec![1.0, 2.0]);
        assert!(p.requires_grad());
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn from_vec_validates_len() {
        Tensor::from_vec(vec![2, 2], vec![0.0; 3]);
    }

    #[test]
    fn backward_through_shared_subexpression() {
        // y = (x + x) * x = 2x^2, dy/dx = 4x
        let x = Tensor::param(vec![1], vec![3.0]);
        let y = x.add(&x).mul(&x);
        y.backward();
        assert_eq!(x.grad_vec(), vec![12.0]);
    }

    #[test]
    fn grad_accumulates_until_zeroed() {
        let x = Tensor::param(vec![1], vec![2.0]);
        let y = x.mul(&x);
        y.backward();
        assert_eq!(x.grad_vec(), vec![4.0]);
        let y2 = x.mul(&x);
        y2.backward();
        assert_eq!(x.grad_vec(), vec![8.0]);
        x.zero_grad();
        assert_eq!(x.grad_vec(), vec![0.0]);
    }

    #[test]
    fn detach_stops_gradient() {
        let x = Tensor::param(vec![1], vec![3.0]);
        let y = x.mul(&x).detach().mul(&x);
        y.backward();
        // only the outer multiplication contributes: dy/dx = detach(x^2) = 9
        assert_eq!(x.grad_vec(), vec![9.0]);
    }

    #[test]
    fn constants_do_not_build_tape() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![2], vec![3.0, 4.0]);
        let c = a.add(&b);
        assert!(!c.tracks_grad());
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = crate::seeded_rng(5);
        let mut r2 = crate::seeded_rng(5);
        let a = Tensor::randn(vec![8], 1.0, &mut r1);
        let b = Tensor::randn(vec![8], 1.0, &mut r2);
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn normal_samples_have_sane_moments() {
        let mut rng = crate::seeded_rng(11);
        let t = Tensor::randn(vec![20_000], 1.0, &mut rng);
        let data = t.to_vec();
        let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
        let var: f32 =
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / data.len() as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}

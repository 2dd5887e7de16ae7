//! Parameters and dense-parameter optimizers.
//!
//! GNN layer weights, decoder relation embeddings and classification heads are all
//! held as [`Param`]s: a value, a gradient accumulator and optional Adagrad state.
//! The [`Optimizer`] enum applies either plain SGD or Adagrad updates — the two
//! optimizers the paper's models use (Adagrad for embeddings, SGD/Adam-family for
//! GNN weights; we use Adagrad as the adaptive option to stay within the crate
//! budget).

use marius_tensor::Tensor;

/// A learnable dense parameter with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient since the last [`Param::zero_grad`].
    pub grad: Tensor,
    /// Adagrad sum-of-squares state (lazily sized to match `value`).
    pub adagrad_state: Tensor,
    /// Human-readable name used in diagnostics.
    pub name: String,
}

impl Param {
    /// Creates a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let (r, c) = value.shape();
        Param {
            value,
            grad: Tensor::zeros(r, c),
            adagrad_state: Tensor::zeros(r, c),
            name: name.into(),
        }
    }

    /// Adds `delta` into the gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not match.
    pub fn accumulate_grad(&mut self, delta: &Tensor) {
        self.grad
            .add_assign(delta)
            .expect("gradient shape mismatch");
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.rows(), self.value.cols());
    }

    /// Number of scalar parameters.
    pub fn num_elements(&self) -> usize {
        self.value.len()
    }
}

/// Dense-parameter optimizers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Stochastic gradient descent with a fixed learning rate.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Adagrad: per-element adaptive learning rates.
    Adagrad {
        /// Base learning rate.
        lr: f32,
        /// Numerical-stability epsilon.
        eps: f32,
    },
}

impl Optimizer {
    /// A reasonable SGD default for GNN weights.
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd { lr }
    }

    /// A reasonable Adagrad default (`eps = 1e-10`, matching Marius).
    pub fn adagrad(lr: f32) -> Self {
        Optimizer::Adagrad { lr, eps: 1e-10 }
    }

    /// Applies one update step to `param` using its accumulated gradient, then
    /// clears the gradient.
    pub fn step(&self, param: &mut Param) {
        match *self {
            Optimizer::Sgd { lr } => {
                let update = param.grad.scale(lr);
                for (v, u) in param.value.data_mut().iter_mut().zip(update.data().iter()) {
                    *v -= *u;
                }
            }
            Optimizer::Adagrad { lr, eps } => {
                let grad = param.grad.clone();
                for ((v, g), s) in param
                    .value
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data().iter())
                    .zip(param.adagrad_state.data_mut().iter_mut())
                {
                    *s += g * g;
                    *v -= lr * g / (s.sqrt() + eps);
                }
            }
        }
        param.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Param) -> Tensor {
        // d/dx of 0.5 * x^2 is x.
        p.value.clone()
    }

    #[test]
    fn param_construction_and_zero_grad() {
        let mut p = Param::new("w", Tensor::ones(2, 3));
        assert_eq!(p.num_elements(), 6);
        p.accumulate_grad(&Tensor::ones(2, 3));
        assert_eq!(p.grad.sum(), 6.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn accumulate_grad_shape_mismatch_panics() {
        let mut p = Param::new("w", Tensor::ones(2, 3));
        p.accumulate_grad(&Tensor::ones(3, 2));
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut p = Param::new("x", Tensor::full(1, 4, 10.0));
        let opt = Optimizer::sgd(0.1);
        for _ in 0..100 {
            let g = quadratic_grad(&p);
            p.accumulate_grad(&g);
            opt.step(&mut p);
        }
        assert!(p.value.frobenius_norm() < 1e-3);
    }

    #[test]
    fn adagrad_descends_a_quadratic() {
        let mut p = Param::new("x", Tensor::full(1, 4, 5.0));
        let opt = Optimizer::adagrad(1.0);
        for _ in 0..300 {
            let g = quadratic_grad(&p);
            p.accumulate_grad(&g);
            opt.step(&mut p);
        }
        assert!(
            p.value.frobenius_norm() < 0.1,
            "norm {}",
            p.value.frobenius_norm()
        );
    }

    #[test]
    fn step_clears_gradient() {
        let mut p = Param::new("x", Tensor::ones(1, 2));
        p.accumulate_grad(&Tensor::ones(1, 2));
        Optimizer::sgd(0.5).step(&mut p);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.value.get(0, 0), 0.5);
    }

    #[test]
    fn adagrad_state_accumulates() {
        let mut p = Param::new("x", Tensor::ones(1, 1));
        let opt = Optimizer::adagrad(0.1);
        p.accumulate_grad(&Tensor::full(1, 1, 2.0));
        opt.step(&mut p);
        assert!((p.adagrad_state.get(0, 0) - 4.0).abs() < 1e-6);
        p.accumulate_grad(&Tensor::full(1, 1, 1.0));
        opt.step(&mut p);
        assert!((p.adagrad_state.get(0, 0) - 5.0).abs() < 1e-6);
    }
}

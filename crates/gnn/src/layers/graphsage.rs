//! The GraphSage layer (Hamilton et al., 2017) over DENSE samples.
//!
//! `h_out = act( W_self · h_self + W_nbr · AGG(h_nbrs) + b )` where `AGG` is a
//! mean or sum over the node's sampled one-hop neighbours. This is the model used
//! for most of the paper's end-to-end experiments (Tables 3–6, 8).

use super::{add_into_rows, GnnLayer, LayerCache, LayerContext};
use crate::optimizer::Param;
use marius_tensor::segment::{index_add, index_select, segment_expand, segment_mean, segment_sum};
use marius_tensor::{glorot_uniform, Tensor};
use rand::Rng;

/// Neighbour aggregation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregator {
    /// Average the sampled neighbour representations (GraphSage-mean).
    Mean,
    /// Sum the sampled neighbour representations (the additive aggregation of
    /// Algorithm 3 in the paper).
    Sum,
}

/// A GraphSage encoder layer.
#[derive(Debug)]
pub struct GraphSageLayer {
    w_self: Param,
    w_nbr: Param,
    bias: Param,
    aggregator: Aggregator,
    activation: bool,
    in_dim: usize,
    out_dim: usize,
}

impl GraphSageLayer {
    /// Creates a GraphSage layer with Glorot-initialised weights.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        aggregator: Aggregator,
        activation: bool,
        rng: &mut R,
    ) -> Self {
        GraphSageLayer {
            w_self: Param::new("sage.w_self", glorot_uniform(rng, in_dim, out_dim)),
            w_nbr: Param::new("sage.w_nbr", glorot_uniform(rng, in_dim, out_dim)),
            bias: Param::new("sage.bias", Tensor::zeros(1, out_dim)),
            aggregator,
            activation,
            in_dim,
            out_dim,
        }
    }

    fn aggregate(&self, nbr_repr: &Tensor, ctx: &LayerContext) -> Tensor {
        match self.aggregator {
            Aggregator::Mean => segment_mean(nbr_repr, &ctx.nbr_offsets)
                .expect("DENSE offsets are valid for segment ops"),
            Aggregator::Sum => segment_sum(nbr_repr, &ctx.nbr_offsets)
                .expect("DENSE offsets are valid for segment ops"),
        }
    }
}

impl GnnLayer for GraphSageLayer {
    fn forward(&self, ctx: &LayerContext, input: &Tensor) -> (Tensor, LayerCache) {
        // Algorithm 3: gather neighbour rows, reduce segments, combine with self.
        let nbr_repr = index_select(input, &ctx.repr_map).expect("repr_map in range");
        let nbr_aggr = self.aggregate(&nbr_repr, ctx);
        let self_repr = input
            .slice_rows(ctx.self_offset, input.rows())
            .expect("self rows in range");

        let pre = self_repr
            .matmul(&self.w_self.value)
            .add(&nbr_aggr.matmul(&self.w_nbr.value))
            .expect("matching projection dims")
            .add_row_broadcast(&self.bias.value)
            .expect("bias dims");
        let out = if self.activation {
            pre.relu()
        } else {
            pre.clone()
        };
        (out, LayerCache::new(vec![nbr_aggr, pre]))
    }

    fn backward(
        &mut self,
        ctx: &LayerContext,
        cache: &LayerCache,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> Tensor {
        let nbr_aggr = &cache.tensors[0];
        let pre = &cache.tensors[1];
        let self_repr = input
            .slice_rows(ctx.self_offset, input.rows())
            .expect("self rows in range");

        // Activation backward.
        let grad_pre = if self.activation {
            grad_output
                .mul(&pre.relu_grad_mask())
                .expect("activation mask shape")
        } else {
            grad_output.clone()
        };

        // Parameter gradients.
        self.bias.accumulate_grad(&grad_pre.sum_rows());
        self.w_self
            .accumulate_grad(&self_repr.transpose().matmul(&grad_pre));
        self.w_nbr
            .accumulate_grad(&nbr_aggr.transpose().matmul(&grad_pre));

        // Gradients flowing to the layer input.
        let grad_self = grad_pre.matmul(&self.w_self.value.transpose());
        let grad_aggr = grad_pre.matmul(&self.w_nbr.value.transpose());

        // Undo the segment reduction: mean divides by the segment length.
        let grad_aggr_scaled = match self.aggregator {
            Aggregator::Sum => grad_aggr,
            Aggregator::Mean => {
                let counts = ctx.segment_counts();
                let mut scaled = grad_aggr;
                for (j, &c) in counts.iter().enumerate() {
                    if c > 1 {
                        let inv = 1.0 / c as f32;
                        for x in scaled.row_mut(j) {
                            *x *= inv;
                        }
                    }
                }
                scaled
            }
        };
        let grad_nbr_rows = segment_expand(&grad_aggr_scaled, &ctx.nbr_offsets, ctx.num_edges())
            .expect("segment expand shapes");

        let mut grad_input = index_add(
            ctx.num_input_rows,
            self.in_dim,
            &ctx.repr_map,
            &grad_nbr_rows,
        )
        .expect("index_add shapes");
        add_into_rows(&mut grad_input, ctx.self_offset, &grad_self);
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w_self, &self.w_nbr, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_self, &mut self.w_nbr, &mut self.bias]
    }

    fn input_dim(&self) -> usize {
        self.in_dim
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }

    fn name(&self) -> &'static str {
        "graphsage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A context with 4 input rows, 3 output rows, and neighbour lists:
    /// output 0 -> inputs [0, 1]; output 1 -> input [2]; output 2 -> [].
    fn toy_context() -> LayerContext {
        LayerContext {
            repr_map: vec![0, 1, 2],
            nbr_offsets: vec![0, 2, 3],
            nbr_rels: vec![0, 0, 0],
            self_offset: 1,
            num_input_rows: 4,
        }
    }

    fn toy_input() -> Tensor {
        Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[0.5, -0.5]])
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GraphSageLayer::new(2, 3, Aggregator::Mean, true, &mut rng);
        let ctx = toy_context();
        let input = toy_input();
        let (out1, _) = layer.forward(&ctx, &input);
        let (out2, _) = layer.forward(&ctx, &input);
        assert_eq!(out1.shape(), (3, 3));
        assert_eq!(out1, out2);
        assert!(out1.all_finite());
        // ReLU output is non-negative.
        assert!(out1.min() >= 0.0);
    }

    #[test]
    fn forward_with_identity_weights_matches_manual_aggregation() {
        // Use sum aggregation, no activation, identity weights, zero bias.
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = GraphSageLayer::new(2, 2, Aggregator::Sum, false, &mut rng);
        layer.w_self.value = Tensor::eye(2);
        layer.w_nbr.value = Tensor::eye(2);
        layer.bias.value = Tensor::zeros(1, 2);
        let ctx = toy_context();
        let input = toy_input();
        let (out, _) = layer.forward(&ctx, &input);
        // Output row 0 = self (input row 1) + sum of inputs 0 and 1 = [1,1]+[0,1]... wait:
        // self rows are input rows 1..4; output 0's self is input row 1 = [0,1];
        // neighbours are inputs 0 and 1 -> [1,0]+[0,1] = [1,1]; total [1,2].
        assert_eq!(out.row(0), &[1.0, 2.0]);
        // Output 1: self = input 2 = [1,1]; neighbour = input 2 = [1,1]; total [2,2].
        assert_eq!(out.row(1), &[2.0, 2.0]);
        // Output 2: self = input 3 = [0.5,-0.5]; no neighbours.
        assert_eq!(out.row(2), &[0.5, -0.5]);
    }

    /// Finite-difference gradient check of the input gradient.
    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        for aggregator in [Aggregator::Mean, Aggregator::Sum] {
            let mut layer = GraphSageLayer::new(2, 3, aggregator, true, &mut rng);
            let ctx = toy_context();
            let input = toy_input();
            // Scalar objective: sum of all outputs.
            let (out, cache) = layer.forward(&ctx, &input);
            let grad_out = Tensor::ones(out.rows(), out.cols());
            let grad_input = layer.backward(&ctx, &cache, &input, &grad_out);

            let eps = 1e-3f32;
            for r in 0..input.rows() {
                for c in 0..input.cols() {
                    let mut plus = input.clone();
                    plus.set(r, c, plus.get(r, c) + eps);
                    let mut minus = input.clone();
                    minus.set(r, c, minus.get(r, c) - eps);
                    let lp = layer.forward(&ctx, &plus).0.sum();
                    let lm = layer.forward(&ctx, &minus).0.sum();
                    let numeric = (lp - lm) / (2.0 * eps);
                    let analytic = grad_input.get(r, c);
                    assert!(
                        (numeric - analytic).abs() < 2e-2,
                        "{aggregator:?} input grad ({r},{c}): numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    /// Finite-difference gradient check of the weight gradients.
    #[test]
    fn backward_weight_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = GraphSageLayer::new(2, 2, Aggregator::Mean, false, &mut rng);
        let ctx = toy_context();
        let input = toy_input();
        let (out, cache) = layer.forward(&ctx, &input);
        let grad_out = Tensor::ones(out.rows(), out.cols());
        let _ = layer.backward(&ctx, &cache, &input, &grad_out);
        let analytic_w_self = layer.w_self.grad.clone();
        let analytic_w_nbr = layer.w_nbr.grad.clone();
        let analytic_bias = layer.bias.grad.clone();

        let eps = 1e-3f32;
        // Check a few entries of each parameter.
        for (pick, analytic) in [(0usize, &analytic_w_self), (1, &analytic_w_nbr)] {
            for r in 0..2 {
                for c in 0..2 {
                    let orig = if pick == 0 {
                        layer.w_self.value.get(r, c)
                    } else {
                        layer.w_nbr.value.get(r, c)
                    };
                    let set = |layer: &mut GraphSageLayer, v: f32| {
                        if pick == 0 {
                            layer.w_self.value.set(r, c, v);
                        } else {
                            layer.w_nbr.value.set(r, c, v);
                        }
                    };
                    set(&mut layer, orig + eps);
                    let lp = layer.forward(&ctx, &input).0.sum();
                    set(&mut layer, orig - eps);
                    let lm = layer.forward(&ctx, &input).0.sum();
                    set(&mut layer, orig);
                    let numeric = (lp - lm) / (2.0 * eps);
                    assert!(
                        (numeric - analytic.get(r, c)).abs() < 2e-2,
                        "param {pick} ({r},{c}): numeric {numeric} vs analytic {}",
                        analytic.get(r, c)
                    );
                }
            }
        }
        // Bias gradient for an all-ones upstream gradient is the number of output rows.
        assert!((analytic_bias.get(0, 0) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn trait_metadata() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = GraphSageLayer::new(8, 4, Aggregator::Mean, true, &mut rng);
        assert_eq!(layer.input_dim(), 8);
        assert_eq!(layer.output_dim(), 4);
        assert_eq!(layer.name(), "graphsage");
        let num_parameters: usize = layer.params().iter().map(|p| p.value.len()).sum();
        assert_eq!(num_parameters, 8 * 4 * 2 + 4);
        assert_eq!(layer.params().len(), 3);
    }

    #[test]
    fn empty_neighbourhoods_do_not_break_forward_or_backward() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = GraphSageLayer::new(2, 2, Aggregator::Mean, true, &mut rng);
        // Single target, no neighbours at all.
        let ctx = LayerContext {
            repr_map: vec![],
            nbr_offsets: vec![0],
            nbr_rels: vec![],
            self_offset: 0,
            num_input_rows: 1,
        };
        let input = Tensor::from_rows(&[&[1.0, -1.0]]);
        let (out, cache) = layer.forward(&ctx, &input);
        assert_eq!(out.shape(), (1, 2));
        let grad = layer.backward(&ctx, &cache, &input, &Tensor::ones(1, 2));
        assert_eq!(grad.shape(), (1, 2));
        assert!(grad.all_finite());
    }
}

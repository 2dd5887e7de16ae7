//! A single-head Graph Attention (GAT) layer (Veličković et al., 2018) over
//! DENSE samples.
//!
//! `h_out_i = act( z_i + Σ_j α_ij · z_j )` with `z = H · W` and attention scores
//! `α_ij = softmax_j( leakyrelu( a_src · z_j + a_dst · z_i ) )` computed per
//! neighbour segment. GAT is the "more computationally expensive" model of
//! Table 5; its per-edge attention makes the GPU compute cost scale with the
//! number of sampled edges rather than nodes.

use super::{add_into_rows, segment_softmax_backward, GnnLayer, LayerCache, LayerContext};
use crate::optimizer::Param;
use marius_tensor::segment::{
    index_add, index_select, rows_scale, segment_expand, segment_softmax, segment_sum,
};
use marius_tensor::{glorot_uniform, Tensor};
use rand::Rng;

const LEAKY_SLOPE: f32 = 0.2;

/// A single-head GAT encoder layer.
#[derive(Debug)]
pub struct GatLayer {
    weight: Param,
    attn_src: Param,
    attn_dst: Param,
    bias: Param,
    activation: bool,
    in_dim: usize,
    out_dim: usize,
}

impl GatLayer {
    /// Creates a GAT layer with Glorot-initialised projection and attention
    /// vectors.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        activation: bool,
        rng: &mut R,
    ) -> Self {
        GatLayer {
            weight: Param::new("gat.weight", glorot_uniform(rng, in_dim, out_dim)),
            attn_src: Param::new("gat.attn_src", glorot_uniform(rng, out_dim, 1)),
            attn_dst: Param::new("gat.attn_dst", glorot_uniform(rng, out_dim, 1)),
            bias: Param::new("gat.bias", Tensor::zeros(1, out_dim)),
            activation,
            in_dim,
            out_dim,
        }
    }
}

impl GnnLayer for GatLayer {
    fn forward(&self, ctx: &LayerContext, input: &Tensor) -> (Tensor, LayerCache) {
        // Project every input row once.
        let z = input.matmul(&self.weight.value);
        // Transformed neighbour and self representations.
        let y = index_select(&z, &ctx.repr_map).expect("repr_map in range");
        let x = z
            .slice_rows(ctx.self_offset, z.rows())
            .expect("self rows in range");

        // Attention scores per sampled edge.
        let s_src = y.matmul(&self.attn_src.value); // (E, 1)
        let x_scores = x.matmul(&self.attn_dst.value); // (N_out, 1)
        let s_dst = segment_expand(&x_scores, &ctx.nbr_offsets, ctx.num_edges())
            .expect("segment expand shapes");
        let pre_att = s_src.add(&s_dst).expect("score dims");
        let att = pre_att.leaky_relu(LEAKY_SLOPE);
        let alpha = segment_softmax(&att, &ctx.nbr_offsets).expect("softmax offsets");

        // Weighted neighbourhood aggregation plus the self term.
        let weighted = rows_scale(&y, &alpha).expect("alpha shape");
        let nbr_aggr = segment_sum(&weighted, &ctx.nbr_offsets).expect("valid offsets");
        let pre = nbr_aggr
            .add(&x)
            .expect("matching dims")
            .add_row_broadcast(&self.bias.value)
            .expect("bias dims");
        let out = if self.activation {
            pre.relu()
        } else {
            pre.clone()
        };

        (out, LayerCache::new(vec![z, y, x, pre_att, alpha, pre]))
    }

    fn backward(
        &mut self,
        ctx: &LayerContext,
        cache: &LayerCache,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> Tensor {
        let z = &cache.tensors[0];
        let y = &cache.tensors[1];
        let x = &cache.tensors[2];
        let pre_att = &cache.tensors[3];
        let alpha = &cache.tensors[4];
        let pre = &cache.tensors[5];

        let grad_pre = if self.activation {
            grad_output
                .mul(&pre.relu_grad_mask())
                .expect("activation mask shape")
        } else {
            grad_output.clone()
        };

        self.bias.accumulate_grad(&grad_pre.sum_rows());

        // out_pre = nbr_aggr + x  (both contribute grad_pre directly).
        let mut grad_x = grad_pre.clone();
        let grad_nbr_aggr = grad_pre;

        // nbr_aggr = segment_sum(alpha ⊙ y) — fan the gradient back per edge.
        let grad_weighted = segment_expand(&grad_nbr_aggr, &ctx.nbr_offsets, ctx.num_edges())
            .expect("segment expand shapes");
        let mut grad_y = rows_scale(&grad_weighted, alpha).expect("alpha shape");
        let grad_alpha = grad_weighted.rowwise_dot(y).expect("dot shapes");

        // Softmax and leaky-ReLU backward to the raw attention scores.
        let grad_att = segment_softmax_backward(alpha, &grad_alpha, &ctx.nbr_offsets);
        let grad_pre_att = grad_att
            .mul(&pre_att.leaky_relu_grad_mask(LEAKY_SLOPE))
            .expect("mask shape");

        // pre_att = y·a_src + x_owner·a_dst.
        self.attn_src
            .accumulate_grad(&y.transpose().matmul(&grad_pre_att));
        let grad_s_dst_per_node =
            segment_sum(&grad_pre_att, &ctx.nbr_offsets).expect("valid offsets");
        self.attn_dst
            .accumulate_grad(&x.transpose().matmul(&grad_s_dst_per_node));
        grad_y
            .add_assign(&grad_pre_att.matmul(&self.attn_src.value.transpose()))
            .expect("shape");
        grad_x
            .add_assign(&grad_s_dst_per_node.matmul(&self.attn_dst.value.transpose()))
            .expect("shape");

        // Collapse per-edge and per-output gradients back onto z.
        let mut grad_z =
            index_add(z.rows(), self.out_dim, &ctx.repr_map, &grad_y).expect("index_add shapes");
        add_into_rows(&mut grad_z, ctx.self_offset, &grad_x);

        // z = input · W.
        self.weight
            .accumulate_grad(&input.transpose().matmul(&grad_z));
        grad_z.matmul(&self.weight.value.transpose())
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.attn_src, &self.attn_dst, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.weight,
            &mut self.attn_src,
            &mut self.attn_dst,
            &mut self.bias,
        ]
    }

    fn input_dim(&self) -> usize {
        self.in_dim
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }

    fn name(&self) -> &'static str {
        "gat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_context() -> LayerContext {
        LayerContext {
            repr_map: vec![0, 1, 2, 3],
            nbr_offsets: vec![0, 2],
            nbr_rels: vec![0, 0, 0, 0],
            self_offset: 2,
            num_input_rows: 4,
        }
    }

    fn toy_input() -> Tensor {
        Tensor::from_rows(&[&[1.0, 0.2], &[0.1, 1.0], &[-0.4, 0.6], &[0.5, -0.5]])
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GatLayer::new(2, 3, true, &mut rng);
        let (out, cache) = layer.forward(&toy_context(), &toy_input());
        assert_eq!(out.shape(), (2, 3));
        assert!(out.all_finite());
        assert_eq!(cache.tensors.len(), 6);
    }

    #[test]
    fn attention_weights_sum_to_one_per_node() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = GatLayer::new(2, 3, false, &mut rng);
        let ctx = toy_context();
        let (_, cache) = layer.forward(&ctx, &toy_input());
        let alpha = &cache.tensors[4];
        let sum0 = alpha.get(0, 0) + alpha.get(1, 0);
        let sum1 = alpha.get(2, 0) + alpha.get(3, 0);
        assert!((sum0 - 1.0).abs() < 1e-5);
        assert!((sum1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = GatLayer::new(2, 3, true, &mut rng);
        let ctx = toy_context();
        let input = toy_input();
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
                let numeric = (layer.forward(&ctx, &plus).0.sum()
                    - layer.forward(&ctx, &minus).0.sum())
                    / (2.0 * eps);
                let analytic = grad_input.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 3e-2,
                    "input grad ({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn gradient_check_attention_parameters() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = GatLayer::new(2, 2, false, &mut rng);
        let ctx = toy_context();
        let input = toy_input();
        let (out, cache) = layer.forward(&ctx, &input);
        let grad_out = Tensor::ones(out.rows(), out.cols());
        let _ = layer.backward(&ctx, &cache, &input, &grad_out);
        let analytic_src = layer.attn_src.grad.clone();
        let analytic_dst = layer.attn_dst.grad.clone();
        let analytic_w = layer.weight.grad.clone();

        let eps = 1e-3f32;
        for r in 0..2 {
            let orig = layer.attn_src.value.get(r, 0);
            layer.attn_src.value.set(r, 0, orig + eps);
            let lp = layer.forward(&ctx, &input).0.sum();
            layer.attn_src.value.set(r, 0, orig - eps);
            let lm = layer.forward(&ctx, &input).0.sum();
            layer.attn_src.value.set(r, 0, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic_src.get(r, 0)).abs() < 3e-2,
                "attn_src grad {r}: numeric {numeric} vs {}",
                analytic_src.get(r, 0)
            );

            let orig = layer.attn_dst.value.get(r, 0);
            layer.attn_dst.value.set(r, 0, orig + eps);
            let lp = layer.forward(&ctx, &input).0.sum();
            layer.attn_dst.value.set(r, 0, orig - eps);
            let lm = layer.forward(&ctx, &input).0.sum();
            layer.attn_dst.value.set(r, 0, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic_dst.get(r, 0)).abs() < 3e-2,
                "attn_dst grad {r}"
            );
        }
        for r in 0..2 {
            for c in 0..2 {
                let orig = layer.weight.value.get(r, c);
                layer.weight.value.set(r, c, orig + eps);
                let lp = layer.forward(&ctx, &input).0.sum();
                layer.weight.value.set(r, c, orig - eps);
                let lm = layer.forward(&ctx, &input).0.sum();
                layer.weight.value.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - analytic_w.get(r, c)).abs() < 3e-2,
                    "weight grad ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn metadata_and_params() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = GatLayer::new(4, 8, true, &mut rng);
        assert_eq!(layer.input_dim(), 4);
        assert_eq!(layer.output_dim(), 8);
        assert_eq!(layer.name(), "gat");
        assert_eq!(layer.params().len(), 4);
        let num_parameters: usize = layer.params().iter().map(|p| p.value.len()).sum();
        assert_eq!(num_parameters, 4 * 8 + 8 + 8 + 8);
    }

    #[test]
    fn node_without_neighbours_keeps_self_representation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = GatLayer::new(2, 2, false, &mut rng);
        layer.weight.value = Tensor::eye(2);
        layer.bias.value = Tensor::zeros(1, 2);
        let ctx = LayerContext {
            repr_map: vec![],
            nbr_offsets: vec![0],
            nbr_rels: vec![],
            self_offset: 0,
            num_input_rows: 1,
        };
        let input = Tensor::from_rows(&[&[0.7, -0.3]]);
        let (out, _) = layer.forward(&ctx, &input);
        assert_eq!(out.row(0), &[0.7, -0.3]);
    }
}

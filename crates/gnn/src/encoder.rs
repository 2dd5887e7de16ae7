//! The multi-layer GNN encoder driven by a DENSE sample.
//!
//! The encoder owns a stack of [`GnnLayer`]s and executes the forward pass of
//! paper §4.2: for each layer it (1) computes the layer output for every node
//! after the first `Δ` group and (2) advances the DENSE structure (Algorithm 2) so
//! the next layer sees exactly the nodes it must output. Per-layer contexts and
//! inputs are retained so the backward pass can replay the same dataflow in
//! reverse and return the gradient with respect to the base representations
//! (which the trainer then writes back into the embedding table).

use crate::layers::{GnnLayer, LayerCache, LayerContext};
use crate::optimizer::Optimizer;
use marius_sampling::Dense;
use marius_tensor::Tensor;

/// Saved activations from one encoder forward pass, needed for backward.
#[derive(Debug)]
pub struct EncoderActivations {
    contexts: Vec<LayerContext>,
    caches: Vec<LayerCache>,
    inputs: Vec<Tensor>,
    /// Final representations, one row per target node (in DENSE target order).
    pub output: Tensor,
}

/// A stack of GNN layers executed over DENSE samples.
#[derive(Debug, Default)]
pub struct Encoder {
    layers: Vec<Box<dyn GnnLayer>>,
}

impl Encoder {
    /// Creates an empty (zero-layer) encoder: the identity over base
    /// representations, which is exactly the "specialised decoder-only model"
    /// configuration compared in Table 8.
    pub fn new() -> Self {
        Encoder { layers: Vec::new() }
    }

    /// Adds a layer to the top of the stack.
    pub fn push_layer(mut self, layer: Box<dyn GnnLayer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of scalar parameters across all layers.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.num_parameters()).sum()
    }

    /// Output dimension of the final layer (or `input_dim` of an identity
    /// encoder, which callers must track themselves).
    pub fn output_dim(&self) -> Option<usize> {
        self.layers.last().map(|l| l.output_dim())
    }

    /// Runs the forward pass. `dense` must cover at least `self.num_layers()`
    /// hops; `h0` must have one row per entry of `dense.node_ids()` in order.
    ///
    /// The DENSE structure is consumed layer by layer (Algorithm 2), matching the
    /// paper's execution; pass a clone if the caller needs the original.
    ///
    /// # Panics
    ///
    /// Panics if the DENSE sample has fewer hops than the encoder has layers or
    /// if `h0` has the wrong number of rows.
    pub fn forward(&self, dense: &mut Dense, h0: Tensor) -> EncoderActivations {
        assert!(
            dense.num_layers() >= self.layers.len(),
            "DENSE sample supports {} layers but encoder has {}",
            dense.num_layers(),
            self.layers.len()
        );
        assert_eq!(
            h0.rows(),
            dense.node_ids().len(),
            "base representation rows must match DENSE node_ids"
        );
        if self.layers.is_empty() {
            // Identity encoder: the output is the base representation of the
            // target nodes, which are the final rows of h0.
            let start = dense.self_offset_for_targets();
            let output = h0
                .slice_rows(start, h0.rows())
                .expect("target rows in range");
            return EncoderActivations {
                contexts: Vec::new(),
                caches: Vec::new(),
                inputs: vec![h0],
                output,
            };
        }

        dense.build_repr_map();
        let mut contexts = Vec::with_capacity(self.layers.len());
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut h = h0;
        for (i, layer) in self.layers.iter().enumerate() {
            let ctx = LayerContext::from_dense(dense);
            let (out, cache) = layer.forward(&ctx, &h);
            contexts.push(ctx);
            caches.push(cache);
            inputs.push(h);
            h = out;
            if i + 1 < self.layers.len() {
                dense.advance_layer();
            }
        }
        EncoderActivations {
            contexts,
            caches,
            inputs,
            output: h,
        }
    }

    /// Runs the forward pass over explicit per-layer contexts instead of a DENSE
    /// structure. Used by the layer-wise (DGL/PyG-style) reference sampler of
    /// the DENSE ≡ layer-wise tests, whose re-sampling produces one context
    /// per layer directly; the
    /// contexts must be ordered from the innermost layer (largest input) to the
    /// outermost, and `h0` rows must match the first context's `num_input_rows`.
    ///
    /// # Panics
    ///
    /// Panics if the number of contexts differs from the number of layers or the
    /// input row count does not match.
    pub fn forward_contexts(&self, contexts: &[LayerContext], h0: Tensor) -> EncoderActivations {
        assert_eq!(
            contexts.len(),
            self.layers.len(),
            "one context per layer required"
        );
        if self.layers.is_empty() {
            return EncoderActivations {
                contexts: Vec::new(),
                caches: Vec::new(),
                inputs: vec![h0.clone()],
                output: h0,
            };
        }
        assert_eq!(
            h0.rows(),
            contexts[0].num_input_rows,
            "base representation rows must match the first context"
        );
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut h = h0;
        for (layer, ctx) in self.layers.iter().zip(contexts.iter()) {
            let (out, cache) = layer.forward(ctx, &h);
            caches.push(cache);
            inputs.push(h);
            h = out;
        }
        EncoderActivations {
            contexts: contexts.to_vec(),
            caches,
            inputs,
            output: h,
        }
    }

    /// Runs the backward pass for `grad_output` (one row per target node) and
    /// returns the gradient with respect to the base representations `h0`
    /// (one row per original DENSE `node_ids` entry).
    ///
    /// Parameter gradients are accumulated inside each layer; call
    /// [`Encoder::step`] to apply them.
    pub fn backward(&mut self, activations: &EncoderActivations, grad_output: &Tensor) -> Tensor {
        if self.layers.is_empty() {
            // Identity encoder: route the target gradient back to the target rows
            // of h0 and zero elsewhere.
            let h0 = &activations.inputs[0];
            let mut grad = Tensor::zeros(h0.rows(), h0.cols());
            let start = h0.rows() - grad_output.rows();
            crate::layers::add_into_rows(&mut grad, start, grad_output);
            return grad;
        }
        let mut grad = grad_output.clone();
        for i in (0..self.layers.len()).rev() {
            grad = self.layers[i].backward(
                &activations.contexts[i],
                &activations.caches[i],
                &activations.inputs[i],
                &grad,
            );
        }
        grad
    }

    /// Applies one optimizer step to every layer parameter and clears gradients.
    pub fn step(&mut self, optimizer: &Optimizer) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                optimizer.step(p);
            }
        }
    }

    /// Clears all accumulated parameter gradients without updating.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// Read-only access to the layers (used by diagnostics and benches).
    pub fn layers(&self) -> &[Box<dyn GnnLayer>] {
        &self.layers
    }

    /// Mutable access to the layers (used when restoring parameters and
    /// optimizer state from a checkpoint).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn GnnLayer>] {
        &mut self.layers
    }
}

/// Extension used by the identity-encoder path: the row at which target nodes
/// start within `node_ids` (they are always the last `Δ` group).
trait TargetOffset {
    fn self_offset_for_targets(&self) -> usize;
}

impl TargetOffset for Dense {
    fn self_offset_for_targets(&self) -> usize {
        self.node_ids().len() - self.target_nodes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Aggregator, GraphSageLayer};
    use marius_graph::{Edge, InMemorySubgraph};
    use marius_sampling::{MultiHopSampler, SamplingDirection};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_graph() -> InMemorySubgraph {
        let mut edges = Vec::new();
        for i in 0..30u64 {
            edges.push(Edge::new((i + 1) % 30, i));
            edges.push(Edge::new((i + 7) % 30, i));
            edges.push(Edge::new((i + 13) % 30, i));
        }
        InMemorySubgraph::from_edges(&edges)
    }

    fn sample(graph: &InMemorySubgraph, layers: usize, seed: u64) -> Dense {
        let sampler = MultiHopSampler::new(vec![5; layers], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(seed);
        sampler.sample(graph, &[0, 1, 2, 3], &mut rng)
    }

    fn two_layer_encoder(in_dim: usize, hidden: usize, out: usize, seed: u64) -> Encoder {
        let mut rng = StdRng::seed_from_u64(seed);
        Encoder::new()
            .push_layer(Box::new(GraphSageLayer::new(
                in_dim,
                hidden,
                Aggregator::Mean,
                true,
                &mut rng,
            )))
            .push_layer(Box::new(GraphSageLayer::new(
                hidden,
                out,
                Aggregator::Mean,
                false,
                &mut rng,
            )))
    }

    fn random_h0(rows: usize, dim: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        marius_tensor::uniform_init(&mut rng, rows, dim, 1.0)
    }

    #[test]
    fn forward_outputs_one_row_per_target() {
        let graph = test_graph();
        let mut dense = sample(&graph, 2, 1);
        let encoder = two_layer_encoder(4, 8, 3, 2);
        let h0 = random_h0(dense.node_ids().len(), 4, 3);
        let acts = encoder.forward(&mut dense, h0);
        assert_eq!(acts.output.shape(), (4, 3));
        assert!(acts.output.all_finite());
    }

    #[test]
    fn forward_panics_on_shallow_dense() {
        let graph = test_graph();
        let mut dense = sample(&graph, 1, 1);
        let encoder = two_layer_encoder(4, 8, 3, 2);
        let h0 = random_h0(dense.node_ids().len(), 4, 3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            encoder.forward(&mut dense, h0)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn identity_encoder_returns_target_rows() {
        let graph = test_graph();
        let mut dense = sample(&graph, 0, 4);
        let encoder = Encoder::new();
        assert_eq!(encoder.num_layers(), 0);
        let h0 = random_h0(dense.node_ids().len(), 5, 5);
        let expected_last = h0.row(h0.rows() - 1).to_vec();
        let acts = encoder.forward(&mut dense, h0);
        assert_eq!(acts.output.rows(), 4);
        assert_eq!(acts.output.row(3), expected_last.as_slice());
    }

    #[test]
    fn identity_encoder_backward_routes_to_targets() {
        let graph = test_graph();
        let mut dense = sample(&graph, 0, 6);
        let mut encoder = Encoder::new();
        let rows = dense.node_ids().len();
        let h0 = random_h0(rows, 3, 7);
        let acts = encoder.forward(&mut dense, h0);
        let grad = encoder.backward(&acts, &Tensor::ones(4, 3));
        assert_eq!(grad.rows(), rows);
        // All gradient mass is on the last four rows (the targets).
        assert_eq!(grad.sum(), 12.0);
        assert_eq!(grad.row(rows - 1), &[1.0, 1.0, 1.0]);
    }

    /// End-to-end gradient check through a two-layer encoder: the gradient of the
    /// summed output with respect to the base representations must match finite
    /// differences. This exercises Algorithm 2's bookkeeping (layer advance,
    /// repr_map shifts) as well as the layer adjoints.
    #[test]
    fn end_to_end_gradient_check_through_two_layers() {
        let graph = test_graph();
        let encoder_seed = 8;
        let mut encoder = two_layer_encoder(3, 5, 2, encoder_seed);

        let dense_template = sample(&graph, 2, 9);
        let rows = dense_template.node_ids().len();
        let h0 = random_h0(rows, 3, 10);

        let mut dense = dense_template.clone();
        let acts = encoder.forward(&mut dense, h0.clone());
        let grad_out = Tensor::ones(acts.output.rows(), acts.output.cols());
        let grad_h0 = encoder.backward(&acts, &grad_out);
        assert_eq!(grad_h0.shape(), (rows, 3));

        let eps = 1e-2f32;
        // Check a subset of entries to keep the test fast.
        for r in (0..rows).step_by(3) {
            for c in 0..3 {
                let mut plus = h0.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = h0.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let mut d1 = dense_template.clone();
                let mut d2 = dense_template.clone();
                let lp = encoder.forward(&mut d1, plus).output.sum();
                let lm = encoder.forward(&mut d2, minus).output.sum();
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad_h0.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
                    "h0 grad ({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn step_changes_parameters_and_clears_gradients() {
        let graph = test_graph();
        let mut dense = sample(&graph, 2, 11);
        let mut encoder = two_layer_encoder(3, 4, 2, 12);
        let before: Vec<f32> = encoder.layers()[0].params()[0].value.data().to_vec();
        let h0 = random_h0(dense.node_ids().len(), 3, 13);
        let acts = encoder.forward(&mut dense, h0);
        let grad_out = Tensor::ones(acts.output.rows(), acts.output.cols());
        let _ = encoder.backward(&acts, &grad_out);
        encoder.step(&Optimizer::sgd(0.1));
        let after: Vec<f32> = encoder.layers()[0].params()[0].value.data().to_vec();
        assert_ne!(before, after);
        assert_eq!(encoder.layers()[0].params()[0].grad.sum(), 0.0);
    }

    #[test]
    fn zero_grad_clears_without_updating() {
        let graph = test_graph();
        let mut dense = sample(&graph, 2, 14);
        let mut encoder = two_layer_encoder(3, 4, 2, 15);
        let before: Vec<f32> = encoder.layers()[1].params()[0].value.data().to_vec();
        let h0 = random_h0(dense.node_ids().len(), 3, 16);
        let acts = encoder.forward(&mut dense, h0);
        let grad_out = Tensor::ones(acts.output.rows(), acts.output.cols());
        let _ = encoder.backward(&acts, &grad_out);
        encoder.zero_grad();
        let after: Vec<f32> = encoder.layers()[1].params()[0].value.data().to_vec();
        assert_eq!(before, after);
        assert_eq!(encoder.layers()[1].params()[0].grad.sum(), 0.0);
    }

    #[test]
    fn num_parameters_and_output_dim() {
        let encoder = two_layer_encoder(3, 4, 2, 17);
        assert_eq!(encoder.output_dim(), Some(2));
        assert_eq!(encoder.num_parameters(), (3 * 4 * 2 + 4) + (4 * 2 * 2 + 2));
        assert_eq!(Encoder::new().output_dim(), None);
    }
}

//! GNN encoder layers operating on DENSE samples.
//!
//! Every layer consumes a [`LayerContext`] — an immutable snapshot of the DENSE
//! arrays relevant to one GNN layer — plus the layer-input representation matrix
//! whose rows are aligned with the DENSE `node_ids` of that layer. The forward
//! pass is exactly Algorithm 3 of the paper: gather neighbour rows with the
//! `repr_map`, reduce contiguous segments, combine with the nodes' own rows.
//! Backward passes are hand-written adjoints of the same kernels.

mod gat;
mod gcn;
mod graphsage;

pub use gat::GatLayer;
pub use gcn::GcnLayer;
pub use graphsage::{Aggregator, GraphSageLayer};

use crate::optimizer::Param;
use marius_sampling::Dense;
use marius_tensor::Tensor;

/// Immutable view of the DENSE arrays needed to run one GNN layer.
///
/// Rows of the layer input matrix correspond, in order, to the DENSE `node_ids`;
/// output rows correspond to `node_ids[self_offset..]` and neighbour segment `j`
/// (rows `nbr_offsets[j] .. nbr_offsets[j+1]` of the gathered neighbour matrix)
/// belongs to output row `j`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerContext {
    /// For every sampled neighbour, the row of the layer input holding its
    /// representation.
    pub repr_map: Vec<usize>,
    /// Start offset of each output node's neighbour list.
    pub nbr_offsets: Vec<usize>,
    /// Relation id of each sampled neighbour edge.
    pub nbr_rels: Vec<u32>,
    /// First row of the layer input that is also an output node ("self" rows).
    pub self_offset: usize,
    /// Number of rows in the layer input.
    pub num_input_rows: usize,
}

impl LayerContext {
    /// Captures the current state of a DENSE structure as a layer context.
    ///
    /// # Panics
    ///
    /// Panics if `dense.build_repr_map` has not been called.
    pub fn from_dense(dense: &Dense) -> Self {
        assert!(
            dense.nbrs().is_empty() == dense.repr_map().is_empty(),
            "LayerContext requires Dense::build_repr_map to have been called"
        );
        LayerContext {
            repr_map: dense.repr_map().to_vec(),
            nbr_offsets: dense.nbr_offsets().to_vec(),
            nbr_rels: dense.nbr_rels().to_vec(),
            self_offset: dense.self_offset(),
            num_input_rows: dense.node_ids().len(),
        }
    }

    /// Number of sampled neighbour entries (edges) feeding this layer.
    pub fn num_edges(&self) -> usize {
        self.repr_map.len()
    }

    /// Per-output-node neighbour counts.
    pub fn segment_counts(&self) -> Vec<usize> {
        let n = self.nbr_offsets.len();
        let mut counts = Vec::with_capacity(n);
        for j in 0..n {
            let end = if j + 1 < n {
                self.nbr_offsets[j + 1]
            } else {
                self.repr_map.len()
            };
            counts.push(end - self.nbr_offsets[j]);
        }
        counts
    }
}

/// Opaque per-layer forward cache handed back to the layer's backward pass.
#[derive(Debug, Clone, Default)]
pub struct LayerCache {
    /// Cached tensors, with layer-specific meaning.
    pub tensors: Vec<Tensor>,
}

impl LayerCache {
    /// Creates a cache from a list of tensors.
    pub fn new(tensors: Vec<Tensor>) -> Self {
        LayerCache { tensors }
    }
}

/// A GNN encoder layer with a manual forward/backward implementation.
pub trait GnnLayer: std::fmt::Debug + Send {
    /// Computes the layer output for every output node (Algorithm 3).
    fn forward(&self, ctx: &LayerContext, input: &Tensor) -> (Tensor, LayerCache);

    /// Propagates `grad_output` back to the layer input, accumulating parameter
    /// gradients internally. `input` must be the same matrix passed to
    /// [`GnnLayer::forward`].
    fn backward(
        &mut self,
        ctx: &LayerContext,
        cache: &LayerCache,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> Tensor;

    /// The layer's learnable parameters.
    fn params(&self) -> Vec<&Param>;

    /// The layer's learnable parameters, mutably (for the optimizer).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Input feature dimension.
    fn input_dim(&self) -> usize;

    /// Output feature dimension.
    fn output_dim(&self) -> usize;

    /// Short human-readable layer name.
    fn name(&self) -> &'static str;

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.num_elements()).sum()
    }
}

/// Adds `delta` into the rows of `target` starting at `start_row`.
///
/// # Panics
///
/// Panics if the column counts differ or the rows run past the end of `target`.
pub(crate) fn add_into_rows(target: &mut Tensor, start_row: usize, delta: &Tensor) {
    assert_eq!(
        target.cols(),
        delta.cols(),
        "column mismatch in add_into_rows"
    );
    assert!(
        start_row + delta.rows() <= target.rows(),
        "row range out of bounds in add_into_rows"
    );
    for r in 0..delta.rows() {
        for (t, d) in target
            .row_mut(start_row + r)
            .iter_mut()
            .zip(delta.row(r).iter())
        {
            *t += *d;
        }
    }
}

/// Backward pass of a segment softmax: given the softmax outputs `alpha`, the
/// upstream gradient `grad_alpha` (both `(E, 1)`), and the segment offsets,
/// returns the gradient with respect to the pre-softmax scores.
pub(crate) fn segment_softmax_backward(
    alpha: &Tensor,
    grad_alpha: &Tensor,
    offsets: &[usize],
) -> Tensor {
    let total = alpha.rows();
    let mut out = Tensor::zeros(total, 1);
    let n = offsets.len();
    for j in 0..n {
        let start = offsets[j];
        let end = if j + 1 < n { offsets[j + 1] } else { total };
        // dot = Σ_k alpha_k * grad_alpha_k within the segment.
        let mut dot = 0.0f32;
        for r in start..end {
            dot += alpha.get(r, 0) * grad_alpha.get(r, 0);
        }
        for r in start..end {
            let a = alpha.get(r, 0);
            out.set(r, 0, a * (grad_alpha.get(r, 0) - dot));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_graph::{Edge, InMemorySubgraph};
    use marius_sampling::{MultiHopSampler, SamplingDirection};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_context() -> LayerContext {
        let edges = vec![
            Edge::new(2, 0),
            Edge::new(3, 0),
            Edge::new(2, 1),
            Edge::new(4, 2),
        ];
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(vec![10, 10], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(0);
        let mut dense = sampler.sample(&graph, &[0, 1], &mut rng);
        dense.build_repr_map();
        LayerContext::from_dense(&dense)
    }

    #[test]
    fn context_from_dense_has_consistent_shapes() {
        let ctx = small_context();
        assert!(ctx.self_offset <= ctx.num_input_rows);
        assert_eq!(ctx.nbr_offsets.len(), ctx.num_input_rows - ctx.self_offset);
        assert_eq!(ctx.repr_map.len(), ctx.nbr_rels.len());
        let counts = ctx.segment_counts();
        assert_eq!(counts.iter().sum::<usize>(), ctx.num_edges());
    }

    #[test]
    fn add_into_rows_accumulates() {
        let mut t = Tensor::zeros(4, 2);
        let d = Tensor::ones(2, 2);
        add_into_rows(&mut t, 1, &d);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(1), &[1.0, 1.0]);
        assert_eq!(t.row(2), &[1.0, 1.0]);
        assert_eq!(t.row(3), &[0.0, 0.0]);
        add_into_rows(&mut t, 1, &d);
        assert_eq!(t.row(1), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_into_rows_out_of_bounds_panics() {
        let mut t = Tensor::zeros(2, 2);
        add_into_rows(&mut t, 1, &Tensor::ones(2, 2));
    }

    #[test]
    fn segment_softmax_backward_matches_finite_difference() {
        use marius_tensor::segment::segment_softmax;
        let scores = Tensor::from_rows(&[&[0.3], &[-0.5], &[1.2], &[0.1], &[0.0]]);
        let offsets = vec![0, 3];
        let alpha = segment_softmax(&scores, &offsets).unwrap();
        // Upstream gradient.
        let grad_alpha = Tensor::from_rows(&[&[0.7], &[-0.2], &[0.4], &[1.0], &[0.3]]);
        let analytic = segment_softmax_backward(&alpha, &grad_alpha, &offsets);
        // Finite differences on the scalar L = Σ grad_alpha · softmax(scores).
        let eps = 1e-3f32;
        for r in 0..scores.rows() {
            let mut plus = scores.clone();
            plus.set(r, 0, plus.get(r, 0) + eps);
            let mut minus = scores.clone();
            minus.set(r, 0, minus.get(r, 0) - eps);
            let lp: f32 = segment_softmax(&plus, &offsets)
                .unwrap()
                .mul(&grad_alpha)
                .unwrap()
                .sum();
            let lm: f32 = segment_softmax(&minus, &offsets)
                .unwrap()
                .mul(&grad_alpha)
                .unwrap()
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.get(r, 0)).abs() < 1e-3,
                "row {r}: numeric {numeric} vs analytic {}",
                analytic.get(r, 0)
            );
        }
    }

    #[test]
    fn layer_cache_holds_tensors() {
        let c = LayerCache::new(vec![Tensor::ones(1, 1), Tensor::zeros(2, 2)]);
        assert_eq!(c.tensors.len(), 2);
        assert!(LayerCache::default().tensors.is_empty());
    }
}

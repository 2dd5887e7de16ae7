//! DGL/PyG-style layer-wise mini-batch construction (the baseline sampler).
//!
//! Existing systems build one message-flow block per GNN layer, sampling the
//! one-hop neighbourhood of **every** node a layer needs — even if that node's
//! neighbourhood was already sampled for a shallower layer. The repeated work is
//! the redundancy the DENSE structure eliminates; holding the GNN layers constant
//! and swapping only the sampler is how this reproduction regenerates Table 6.

use marius_gnn::LayerContext;
use marius_graph::sampling::{SampleStats, SamplingDirection};
use marius_graph::{Edge, InMemorySubgraph, NodeId, RelId};
use rand::seq::index::sample as index_sample;
use rand::Rng;
use std::collections::HashMap;

/// A layer-wise mini-batch sample: one context per GNN layer plus the node lists
/// whose representations feed each layer.
#[derive(Debug, Clone)]
pub struct LayerwiseSample {
    /// Per-layer contexts ordered from the innermost layer (largest input, uses
    /// base features) to the outermost (produces target representations).
    pub contexts: Vec<LayerContext>,
    /// Input node ids of each context, in the same order as the context rows.
    pub layer_input_nodes: Vec<Vec<NodeId>>,
    /// The nodes whose base representations must be gathered (the innermost
    /// layer's input nodes).
    pub base_nodes: Vec<NodeId>,
    /// The original target nodes (the outermost layer's output).
    pub target_nodes: Vec<NodeId>,
    /// Sampling statistics comparable with [`marius_graph::sampling::SampleStats`].
    pub stats: SampleStats,
}

/// The layer-wise re-sampling mini-batch constructor.
#[derive(Debug, Clone)]
pub struct LayerwiseSampler {
    /// Maximum neighbours per node per hop, ordered away from the target nodes.
    fanouts: Vec<usize>,
    direction: SamplingDirection,
}

impl LayerwiseSampler {
    /// Creates a sampler for a `fanouts.len()`-layer GNN.
    pub fn new(fanouts: Vec<usize>, direction: SamplingDirection) -> Self {
        LayerwiseSampler { fanouts, direction }
    }

    /// Number of layers sampled.
    pub fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    /// Builds the layer-wise sample for `target_nodes`.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        graph: &InMemorySubgraph,
        target_nodes: &[NodeId],
        rng: &mut R,
    ) -> LayerwiseSample {
        // Deduplicate the targets, preserving order of first appearance.
        let mut seen_targets = HashMap::new();
        let mut targets: Vec<NodeId> = Vec::new();
        for &t in target_nodes {
            seen_targets.entry(t).or_insert_with(|| {
                targets.push(t);
            });
        }

        let mut blocks: Vec<(LayerContext, Vec<NodeId>)> = Vec::new();
        let mut current_outputs = targets.clone();
        let mut total_edges = 0usize;
        let mut one_hop_operations = 0usize;

        // Walk outward from the targets: fanouts[0] is the targets' own hop.
        for &fanout in &self.fanouts {
            one_hop_operations += current_outputs.len();
            let mut nbrs: Vec<NodeId> = Vec::new();
            let mut rels: Vec<RelId> = Vec::new();
            let mut offsets: Vec<usize> = Vec::with_capacity(current_outputs.len());
            for &node in &current_outputs {
                offsets.push(nbrs.len());
                match self.direction {
                    SamplingDirection::Incoming => sample_edges(
                        graph.incoming(node),
                        fanout,
                        true,
                        &mut nbrs,
                        &mut rels,
                        rng,
                    ),
                    SamplingDirection::Outgoing => sample_edges(
                        graph.outgoing(node),
                        fanout,
                        false,
                        &mut nbrs,
                        &mut rels,
                        rng,
                    ),
                    SamplingDirection::Both => {
                        sample_edges(
                            graph.incoming(node),
                            fanout,
                            true,
                            &mut nbrs,
                            &mut rels,
                            rng,
                        );
                        sample_edges(
                            graph.outgoing(node),
                            fanout,
                            false,
                            &mut nbrs,
                            &mut rels,
                            rng,
                        );
                    }
                }
            }
            total_edges += nbrs.len();

            // The block's input nodes are the fresh neighbours followed by the
            // output nodes (so outputs sit at the tail, the layout LayerContext
            // expects). Unlike DENSE, "fresh" is judged against THIS layer only —
            // a node sampled for an earlier layer is sampled again here.
            let mut position: HashMap<NodeId, usize> = HashMap::new();
            let mut input_nodes: Vec<NodeId> = Vec::new();
            for &n in &nbrs {
                if !current_outputs.contains(&n) && !position.contains_key(&n) {
                    position.insert(n, input_nodes.len());
                    input_nodes.push(n);
                }
            }
            let self_offset = input_nodes.len();
            for &n in &current_outputs {
                position.insert(n, input_nodes.len());
                input_nodes.push(n);
            }
            let repr_map: Vec<usize> = nbrs.iter().map(|n| position[n]).collect();

            let ctx = LayerContext {
                repr_map,
                nbr_offsets: offsets,
                nbr_rels: rels,
                self_offset,
                num_input_rows: input_nodes.len(),
            };
            blocks.push((ctx, input_nodes.clone()));
            // The next (deeper) layer must produce representations for every
            // input node of this layer.
            current_outputs = input_nodes;
        }

        // Execution order is innermost (deepest) first.
        blocks.reverse();
        let layer_input_nodes: Vec<Vec<NodeId>> =
            blocks.iter().map(|(_, nodes)| nodes.clone()).collect();
        let contexts: Vec<LayerContext> = blocks.into_iter().map(|(c, _)| c).collect();
        let base_nodes = layer_input_nodes
            .first()
            .cloned()
            .unwrap_or_else(|| targets.clone());

        let stats = SampleStats {
            nodes_sampled: base_nodes.len(),
            edges_sampled: total_edges,
            one_hop_operations,
        };
        LayerwiseSample {
            contexts,
            layer_input_nodes,
            base_nodes,
            target_nodes: targets,
            stats,
        }
    }
}

fn sample_edges<R: Rng + ?Sized>(
    edges: &[Edge],
    fanout: usize,
    incoming: bool,
    nbrs: &mut Vec<NodeId>,
    rels: &mut Vec<RelId>,
    rng: &mut R,
) {
    if edges.len() <= fanout {
        for e in edges {
            nbrs.push(if incoming { e.src } else { e.dst });
            rels.push(e.rel);
        }
    } else {
        for idx in index_sample(rng, edges.len(), fanout).into_iter() {
            let e = &edges[idx];
            nbrs.push(if incoming { e.src } else { e.dst });
            rels.push(e.rel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_gnn::{Encoder, GraphSageLayer};
    use marius_graph::sampling::{MultiHopSampler, SamplingDirection};
    use marius_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring_graph(n: u64, extra: u64) -> InMemorySubgraph {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push(Edge::new((i + 1) % n, i));
            edges.push(Edge::new((i + extra) % n, i));
            edges.push(Edge::new((i + 2 * extra) % n, i));
        }
        InMemorySubgraph::from_edges(&edges)
    }

    #[test]
    fn blocks_are_consistent_for_execution() {
        let graph = ring_graph(50, 7);
        let sampler = LayerwiseSampler::new(vec![3, 3], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = sampler.sample(&graph, &[0, 1, 2], &mut rng);
        assert_eq!(sample.contexts.len(), 2);
        // Output of the inner block equals the input of the outer block.
        let inner_outputs = &sample.layer_input_nodes[0][sample.contexts[0].self_offset..];
        assert_eq!(inner_outputs, &sample.layer_input_nodes[1][..]);
        // The outermost block's outputs are the targets.
        let outer = &sample.contexts[1];
        let outer_outputs = &sample.layer_input_nodes[1][outer.self_offset..];
        assert_eq!(outer_outputs, sample.target_nodes.as_slice());
        // repr_map indices stay in range.
        for (ctx, nodes) in sample.contexts.iter().zip(&sample.layer_input_nodes) {
            assert_eq!(ctx.num_input_rows, nodes.len());
            assert!(ctx.repr_map.iter().all(|&i| i < nodes.len()));
        }
    }

    #[test]
    fn layerwise_samples_more_than_dense_on_deep_gnns() {
        // The headline claim behind Table 6: without cross-layer reuse the
        // baseline samples strictly more edges than DENSE for the same fanouts.
        let graph = ring_graph(200, 17);
        let targets: Vec<NodeId> = (0..20).collect();
        let fanouts = vec![3, 3, 3];
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(2);
        let dense = MultiHopSampler::new(fanouts.clone(), SamplingDirection::Incoming)
            .sample(&graph, &targets, &mut rng1);
        let layerwise = LayerwiseSampler::new(fanouts, SamplingDirection::Incoming)
            .sample(&graph, &targets, &mut rng2);
        assert!(
            layerwise.stats.edges_sampled > dense.stats().edges_sampled,
            "layerwise {} should exceed dense {}",
            layerwise.stats.edges_sampled,
            dense.stats().edges_sampled
        );
        assert!(layerwise.stats.one_hop_operations > dense.stats().one_hop_operations);
    }

    #[test]
    fn single_layer_matches_dense_sampling_volume() {
        // With one layer there is no reuse opportunity, so the two samplers do
        // the same amount of work.
        let graph = ring_graph(100, 11);
        let targets: Vec<NodeId> = (0..10).collect();
        let mut rng1 = StdRng::seed_from_u64(3);
        let mut rng2 = StdRng::seed_from_u64(3);
        let dense = MultiHopSampler::new(vec![5], SamplingDirection::Incoming)
            .sample(&graph, &targets, &mut rng1);
        let layerwise = LayerwiseSampler::new(vec![5], SamplingDirection::Incoming)
            .sample(&graph, &targets, &mut rng2);
        assert_eq!(dense.stats().edges_sampled, layerwise.stats.edges_sampled);
        assert_eq!(
            dense.stats().one_hop_operations,
            layerwise.stats.one_hop_operations
        );
    }

    #[test]
    fn encoder_runs_on_layerwise_contexts() {
        let graph = ring_graph(60, 7);
        let sampler = LayerwiseSampler::new(vec![4, 4], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = sampler.sample(&graph, &[5, 6, 7], &mut rng);

        let mut layer_rng = StdRng::seed_from_u64(5);
        let encoder = Encoder::new()
            .push_layer(Box::new(GraphSageLayer::new(
                4,
                8,
                marius_gnn::layers::Aggregator::Mean,
                true,
                &mut layer_rng,
            )))
            .push_layer(Box::new(GraphSageLayer::new(
                8,
                2,
                marius_gnn::layers::Aggregator::Mean,
                false,
                &mut layer_rng,
            )));
        let h0 = marius_tensor::uniform_init(&mut layer_rng, sample.base_nodes.len(), 4, 1.0);
        let acts = encoder.forward_contexts(&sample.contexts, h0);
        assert_eq!(acts.output.shape(), (3, 2));
        assert!(acts.output.all_finite());
    }

    #[test]
    fn encoder_backward_works_on_layerwise_contexts() {
        let graph = ring_graph(60, 7);
        let sampler = LayerwiseSampler::new(vec![4, 4], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(6);
        let sample = sampler.sample(&graph, &[5, 6, 7], &mut rng);
        let mut layer_rng = StdRng::seed_from_u64(7);
        let mut encoder = Encoder::new()
            .push_layer(Box::new(GraphSageLayer::new(
                3,
                4,
                marius_gnn::layers::Aggregator::Sum,
                true,
                &mut layer_rng,
            )))
            .push_layer(Box::new(GraphSageLayer::new(
                4,
                2,
                marius_gnn::layers::Aggregator::Sum,
                false,
                &mut layer_rng,
            )));
        let h0 = marius_tensor::uniform_init(&mut layer_rng, sample.base_nodes.len(), 3, 1.0);
        let acts = encoder.forward_contexts(&sample.contexts, h0);
        let grad = encoder.backward(&acts, &Tensor::ones(3, 2));
        assert_eq!(grad.rows(), sample.base_nodes.len());
        assert!(grad.all_finite());
    }

    #[test]
    fn duplicate_targets_are_deduplicated() {
        let graph = ring_graph(30, 3);
        let sampler = LayerwiseSampler::new(vec![2], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(8);
        let sample = sampler.sample(&graph, &[4, 4, 4, 9], &mut rng);
        assert_eq!(sample.target_nodes, vec![4, 9]);
    }

    #[test]
    fn isolated_targets_produce_empty_blocks() {
        let graph = ring_graph(10, 3);
        let sampler = LayerwiseSampler::new(vec![2, 2], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(9);
        let sample = sampler.sample(&graph, &[999], &mut rng);
        assert_eq!(sample.base_nodes, vec![999]);
        assert_eq!(sample.stats.edges_sampled, 0);
    }

    #[test]
    fn fanout_is_respected_per_layer() {
        let graph = ring_graph(100, 11);
        let sampler = LayerwiseSampler::new(vec![2, 2], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(10);
        let sample = sampler.sample(&graph, &[0], &mut rng);
        // Outer block: one target with at most 2 neighbours.
        assert!(sample.contexts[1].num_edges() <= 2);
        assert_eq!(sampler.num_layers(), 2);
    }
}

//! Algorithm 1: multi-hop neighbourhood sampling with one-hop sample reuse.
//!
//! The sampler builds a [`Dense`] structure for a set of target nodes by walking
//! `k` hops outwards. At each hop it samples one-hop neighbours **only** for the
//! nodes that have not appeared in the structure yet (the current `Δ`); nodes seen
//! at an earlier hop reuse their existing one-hop sample. This is the property
//! that makes DENSE cheaper than the layer-wise re-sampling used by DGL/PyG
//! (compare the layer-wise reference sampler in `tests/support/layerwise.rs`,
//! the oracle the DENSE ≡ layer-wise tests in `tests/sampling_and_policies.rs`
//! run this sampler against).

use crate::dense::Dense;
use marius_graph::{InMemorySubgraph, NodeId, RelId};
use rand::seq::index::sample as index_sample;
use rand::Rng;
use std::collections::HashSet;

/// Which adjacency direction to sample neighbours from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingDirection {
    /// Sample from incoming edges only (neighbours are edge sources).
    Incoming,
    /// Sample from outgoing edges only (neighbours are edge destinations).
    Outgoing,
    /// Sample up to the fanout from each direction (the paper's default for
    /// GraphSage: "sampled from both incoming and outgoing edges").
    Both,
}

/// Multi-hop sampler configuration (Algorithm 1).
#[derive(Debug, Clone)]
pub struct MultiHopSampler {
    /// Maximum neighbours per node per hop, ordered **away from the target
    /// nodes** (`fanouts[0]` applies to the targets' own one-hop sample).
    fanouts: Vec<usize>,
    direction: SamplingDirection,
}

impl MultiHopSampler {
    /// Creates a sampler for a `fanouts.len()`-layer GNN.
    pub fn new(fanouts: Vec<usize>, direction: SamplingDirection) -> Self {
        MultiHopSampler { fanouts, direction }
    }

    /// Number of GNN layers this sampler produces neighbourhoods for.
    pub fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    /// The configured fanouts, ordered away from the target nodes.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// The configured sampling direction.
    pub fn direction(&self) -> SamplingDirection {
        self.direction
    }

    /// Builds the DENSE structure for `target_nodes` over the in-memory subgraph
    /// (Algorithm 1). Duplicate targets are de-duplicated; the order of first
    /// appearance is preserved.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        graph: &InMemorySubgraph,
        target_nodes: &[NodeId],
        rng: &mut R,
    ) -> Dense {
        // Line 1-2: initialise with the (unique) target nodes as Δk.
        let mut seen: HashSet<NodeId> = HashSet::with_capacity(target_nodes.len() * 4);
        let mut targets: Vec<NodeId> = Vec::with_capacity(target_nodes.len());
        for &t in target_nodes {
            if seen.insert(t) {
                targets.push(t);
            }
        }

        let mut node_id_offsets: Vec<usize> = vec![0];
        let mut node_ids: Vec<NodeId> = targets.clone();
        let mut nbr_offsets: Vec<usize> = Vec::new();
        let mut nbrs: Vec<NodeId> = Vec::new();
        let mut nbr_rels: Vec<RelId> = Vec::new();
        let mut delta: Vec<NodeId> = targets;
        let mut one_hop_operations = 0usize;

        // Line 3: k rounds, hop 0 expands the targets.
        for hop in 0..self.fanouts.len() {
            let fanout = self.fanouts[hop];
            one_hop_operations += delta.len();

            // Line 4: one-hop sample for the current Δ only.
            let (delta_nbrs, delta_rels, delta_offsets) =
                one_hop(graph, &delta, fanout, self.direction, rng);

            // Line 5-6: prepend the new neighbour lists.
            for o in &mut nbr_offsets {
                *o += delta_nbrs.len();
            }
            let mut new_offsets = delta_offsets;
            new_offsets.extend_from_slice(&nbr_offsets);
            nbr_offsets = new_offsets;

            let mut new_nbrs = delta_nbrs.clone();
            new_nbrs.extend_from_slice(&nbrs);
            nbrs = new_nbrs;
            let mut new_rels = delta_rels;
            new_rels.extend_from_slice(&nbr_rels);
            nbr_rels = new_rels;

            // Line 7: the next Δ is every sampled neighbour not yet present.
            let mut next_delta: Vec<NodeId> = Vec::new();
            for &n in &delta_nbrs {
                if seen.insert(n) {
                    next_delta.push(n);
                }
            }

            // Line 8-9: prepend the new Δ to node_ids and re-base the offsets.
            for o in &mut node_id_offsets {
                *o += next_delta.len();
            }
            node_id_offsets.insert(0, 0);
            let mut new_node_ids = next_delta.clone();
            new_node_ids.extend_from_slice(&node_ids);
            node_ids = new_node_ids;

            delta = next_delta;
        }

        Dense::from_parts(
            node_id_offsets,
            node_ids,
            nbr_offsets,
            nbrs,
            nbr_rels,
            one_hop_operations,
        )
    }
}

/// One-hop sampling for a set of nodes: returns the concatenated neighbour
/// ids, their edge relations, and the per-node start offsets.
fn one_hop<R: Rng + ?Sized>(
    graph: &InMemorySubgraph,
    nodes: &[NodeId],
    fanout: usize,
    direction: SamplingDirection,
    rng: &mut R,
) -> (Vec<NodeId>, Vec<RelId>, Vec<usize>) {
    let mut nbrs = Vec::new();
    let mut rels = Vec::new();
    let mut offsets = Vec::with_capacity(nodes.len());
    for &node in nodes {
        offsets.push(nbrs.len());
        match direction {
            SamplingDirection::Incoming => {
                sample_edges(
                    graph.incoming(node),
                    fanout,
                    true,
                    &mut nbrs,
                    &mut rels,
                    rng,
                );
            }
            SamplingDirection::Outgoing => {
                sample_edges(
                    graph.outgoing(node),
                    fanout,
                    false,
                    &mut nbrs,
                    &mut rels,
                    rng,
                );
            }
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
    (nbrs, rels, offsets)
}

/// Samples up to `fanout` edges from `edges`, pushing the neighbour endpoint
/// (source when `incoming`, destination otherwise) and relation of each.
fn sample_edges<R: Rng + ?Sized>(
    edges: &[marius_graph::Edge],
    fanout: usize,
    incoming: bool,
    nbrs: &mut Vec<NodeId>,
    rels: &mut Vec<RelId>,
    rng: &mut R,
) {
    let push = |e: &marius_graph::Edge, nbrs: &mut Vec<NodeId>, rels: &mut Vec<RelId>| {
        nbrs.push(if incoming { e.src } else { e.dst });
        rels.push(e.rel);
    };
    if edges.len() <= fanout {
        for e in edges {
            push(e, nbrs, rels);
        }
    } else {
        // Sample `fanout` distinct edge indices without replacement.
        for idx in index_sample(rng, edges.len(), fanout).into_iter() {
            push(&edges[idx], nbrs, rels);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_graph::Edge;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's Figure 1 / Figure 3 input graph with incoming-edge semantics:
    /// A's in-neighbours are {C, D}, B's are {C, A}, C's are {E, B}, D's is {C}.
    fn figure_graph() -> InMemorySubgraph {
        let (a, b, c, d, e) = (0u64, 1u64, 2u64, 3u64, 4u64);
        InMemorySubgraph::from_edges(&[
            Edge::new(c, a),
            Edge::new(d, a),
            Edge::new(c, b),
            Edge::new(a, b),
            Edge::new(e, c),
            Edge::new(b, c),
            Edge::new(c, d),
        ])
    }

    #[test]
    fn two_hop_sample_builds_expected_deltas() {
        let graph = figure_graph();
        let sampler = MultiHopSampler::new(vec![10, 10], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(0);
        let dense = sampler.sample(&graph, &[0, 1], &mut rng);
        dense.validate().unwrap();
        assert_eq!(dense.num_layers(), 2);
        // Targets are Δ2.
        assert_eq!(dense.target_nodes(), &[0, 1]);
        // Δ1 must be the new nodes among the targets' in-neighbours: {C, D} (A is
        // already present as a target and is reused, not re-added).
        let offsets = dense.node_id_offsets();
        let delta1 = &dense.node_ids()[offsets[1]..offsets[2]];
        let mut delta1_sorted = delta1.to_vec();
        delta1_sorted.sort_unstable();
        assert_eq!(delta1_sorted, vec![2, 3]);
        // Δ0 contains what is new among {C, D}'s in-neighbours: {E} (B reused).
        let delta0 = &dense.node_ids()[..offsets[1]];
        assert_eq!(delta0, &[4]);
        // Every node appears exactly once.
        assert_eq!(dense.node_ids().len(), 5);
    }

    #[test]
    fn sample_reuse_means_no_duplicate_one_hop_work() {
        // With full fanouts, one-hop sampling happens once per unique node that
        // needs neighbours: |Δ2| + |Δ1| = 2 + 2 = 4 operations (E needs none).
        let graph = figure_graph();
        let sampler = MultiHopSampler::new(vec![10, 10], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(0);
        let dense = sampler.sample(&graph, &[0, 1], &mut rng);
        assert_eq!(dense.stats().one_hop_operations, 4);
    }

    #[test]
    fn fanout_limits_neighbours_per_node() {
        // Build a star: node 0 has 50 incoming neighbours.
        let edges: Vec<Edge> = (1..=50).map(|i| Edge::new(i, 0)).collect();
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(vec![7], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(1);
        let dense = sampler.sample(&graph, &[0], &mut rng);
        dense.validate().unwrap();
        assert_eq!(dense.nbrs().len(), 7);
        // Sampled neighbours are distinct (sampling without replacement).
        let mut unique = dense.nbrs().to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 7);
    }

    #[test]
    fn nodes_with_fewer_neighbours_return_all() {
        let edges = vec![Edge::new(1, 0), Edge::new(2, 0)];
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(vec![10], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(2);
        let dense = sampler.sample(&graph, &[0], &mut rng);
        assert_eq!(dense.nbrs().len(), 2);
    }

    #[test]
    fn both_direction_samples_each_side() {
        let edges = vec![Edge::new(1, 0), Edge::new(0, 2)];
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(vec![5], SamplingDirection::Both);
        let mut rng = StdRng::seed_from_u64(3);
        let dense = sampler.sample(&graph, &[0], &mut rng);
        let mut nbrs = dense.nbrs().to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 2]);
    }

    #[test]
    fn outgoing_direction_uses_destinations() {
        let edges = vec![Edge::new(0, 5), Edge::new(0, 6), Edge::new(7, 0)];
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(vec![5], SamplingDirection::Outgoing);
        let mut rng = StdRng::seed_from_u64(4);
        let dense = sampler.sample(&graph, &[0], &mut rng);
        let mut nbrs = dense.nbrs().to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![5, 6]);
    }

    #[test]
    fn duplicate_targets_are_deduplicated() {
        let graph = figure_graph();
        let sampler = MultiHopSampler::new(vec![10], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(5);
        let dense = sampler.sample(&graph, &[0, 0, 1, 0], &mut rng);
        assert_eq!(dense.target_nodes(), &[0, 1]);
        dense.validate().unwrap();
    }

    #[test]
    fn isolated_target_produces_empty_neighbourhood() {
        let graph = figure_graph();
        let sampler = MultiHopSampler::new(vec![10, 10], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(6);
        let dense = sampler.sample(&graph, &[99], &mut rng);
        dense.validate().unwrap();
        assert_eq!(dense.node_ids(), &[99]);
        assert!(dense.nbrs().is_empty());
        // Offsets still describe two (empty) deltas plus the target group.
        assert_eq!(dense.num_layers(), 2);
    }

    #[test]
    fn relations_are_carried_through() {
        let edges = vec![Edge::with_rel(1, 3, 0), Edge::with_rel(2, 7, 0)];
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(vec![5], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(7);
        let dense = sampler.sample(&graph, &[0], &mut rng);
        let mut pairs: Vec<_> = dense
            .nbrs()
            .iter()
            .zip(dense.nbr_rels().iter())
            .map(|(&n, &r)| (n, r))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 3), (2, 7)]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let graph = figure_graph();
        let sampler = MultiHopSampler::new(vec![1, 1], SamplingDirection::Incoming);
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        let a = sampler.sample(&graph, &[0, 1], &mut rng1);
        let b = sampler.sample(&graph, &[0, 1], &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn deeper_sampling_touches_more_nodes_until_closure() {
        let mut edges = Vec::new();
        for i in 0..100u64 {
            for j in 1..=3u64 {
                edges.push(Edge::new((i + j * 17) % 100, i));
            }
        }
        let graph = InMemorySubgraph::from_edges(&edges);
        let mut rng = StdRng::seed_from_u64(9);
        let mut last = 0usize;
        for layers in 1..=4 {
            let sampler = MultiHopSampler::new(vec![3; layers], SamplingDirection::Incoming);
            let dense = sampler.sample(&graph, &[0], &mut rng);
            dense.validate().unwrap();
            assert!(dense.node_ids().len() >= last);
            last = dense.node_ids().len();
        }
        assert!(last > 4);
    }
}

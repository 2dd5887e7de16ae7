//! Property-based tests of the DENSE structure: Algorithm 1's invariants must
//! hold for arbitrary random graphs, fanouts and target sets.

use marius_graph::sampling::{MultiHopSampler, SamplingDirection};
use marius_graph::{Edge, InMemorySubgraph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Strategy: a random small directed graph as an edge list.
fn random_edges() -> impl Strategy<Value = Vec<Edge>> {
    proptest::collection::vec((0u64..40, 0u64..40, 0u32..4), 1..300).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(s, d, r)| Edge::with_rel(s, r, d))
            .collect()
    })
}

fn direction_strategy() -> impl Strategy<Value = SamplingDirection> {
    prop_oneof![
        Just(SamplingDirection::Incoming),
        Just(SamplingDirection::Outgoing),
        Just(SamplingDirection::Both),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every DENSE sample satisfies the structural invariants checked by
    /// `Dense::validate`, before and after building the repr_map, and the
    /// target group always equals the (deduplicated) requested targets.
    #[test]
    fn dense_invariants_hold_for_random_graphs(
        edges in random_edges(),
        targets in proptest::collection::vec(0u64..40, 1..10),
        fanouts in proptest::collection::vec(1usize..6, 1..4),
        direction in direction_strategy(),
        seed in 0u64..1000,
    ) {
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(fanouts.clone(), direction);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = sampler.sample(&graph, &targets, &mut rng);
        prop_assert!(dense.validate().is_ok(), "{:?}", dense.validate());
        dense.build_repr_map();
        prop_assert!(dense.validate().is_ok());

        // Targets are preserved (first occurrence order, deduplicated).
        let mut seen = HashSet::new();
        let expected: Vec<NodeId> = targets
            .iter()
            .copied()
            .filter(|t| seen.insert(*t))
            .collect();
        prop_assert_eq!(dense.target_nodes(), expected.as_slice());
        prop_assert_eq!(dense.num_layers(), fanouts.len());
    }

    /// Per-node neighbour counts never exceed the requested fanout for the hop
    /// at which the node was first expanded (single-direction sampling).
    #[test]
    fn fanout_bound_holds(
        edges in random_edges(),
        targets in proptest::collection::vec(0u64..40, 1..6),
        fanout in 1usize..5,
        seed in 0u64..1000,
    ) {
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(vec![fanout; 2], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = sampler.sample(&graph, &targets, &mut rng);
        let offsets = dense.nbr_offsets();
        for (j, &start) in offsets.iter().enumerate() {
            let end = if j + 1 < offsets.len() {
                offsets[j + 1]
            } else {
                dense.nbrs().len()
            };
            prop_assert!(end - start <= fanout);
        }
    }

    /// Advancing through every layer keeps the structure valid and ends with the
    /// target group only.
    #[test]
    fn advancing_layers_preserves_validity(
        edges in random_edges(),
        targets in proptest::collection::vec(0u64..40, 1..6),
        seed in 0u64..1000,
    ) {
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(vec![3, 3, 3], SamplingDirection::Both);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = sampler.sample(&graph, &targets, &mut rng);
        dense.build_repr_map();
        let target_count = dense.target_nodes().len();
        for _ in 0..2 {
            dense.advance_layer();
            prop_assert!(dense.validate().is_ok(), "{:?}", dense.validate());
        }
        prop_assert_eq!(dense.output_node_ids().len(), target_count);
    }

    /// One-hop sampling work (operations) is bounded by the number of unique
    /// nodes in the structure — the "each node sampled at most once" guarantee
    /// that distinguishes DENSE from layer-wise re-sampling.
    #[test]
    fn one_hop_work_bounded_by_unique_nodes(
        edges in random_edges(),
        targets in proptest::collection::vec(0u64..40, 1..8),
        seed in 0u64..1000,
    ) {
        let graph = InMemorySubgraph::from_edges(&edges);
        let sampler = MultiHopSampler::new(vec![4, 4, 4], SamplingDirection::Incoming);
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = sampler.sample(&graph, &targets, &mut rng);
        prop_assert!(dense.stats().one_hop_operations <= dense.node_ids().len());
    }
}

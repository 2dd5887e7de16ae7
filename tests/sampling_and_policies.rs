//! Cross-crate integration tests for the sampling data structures and the
//! disk-training policies on realistic generated graphs, including the
//! paper's structural claims as exact checks:
//!
//! * Table 6 — DENSE computes the same GNN as layer-wise re-sampling
//!   (bit-identical outputs) while sampling fewer edges
//!   (`dense_and_layerwise_encoders_agree_bit_for_bit`,
//!   `layerwise_resamples_what_dense_reuses_exact_edge_counts`).
//! * Table 8 — COMET pays a bounded partition-load premium over BETA
//!   (`comet_io_is_close_to_beta_io`), and both disk executors perform exactly
//!   the loads their plan schedules (`executors_load_exactly_what_the_plan_schedules`).

#[path = "support/layerwise.rs"]
mod layerwise;

use layerwise::LayerwiseSampler;
use marius_core::{
    DiskConfig, LinkPredictionTask, ModelConfig, PipelineConfig, RunConfig, Storage, TrainConfig,
    Trainer,
};
use marius_gnn::layers::Aggregator;
use marius_gnn::{EmbeddingTable, Encoder, GraphSageLayer};
use marius_graph::datasets::{DatasetSpec, ScaledDataset};
use marius_graph::{Edge, InMemorySubgraph, NodeId, Partitioner};
use marius_sampling::{MultiHopSampler, SamplingDirection};
use marius_storage::policy::ReplacementPolicy;
use marius_storage::{edge_permutation_bias, BetaPolicy, CometPolicy, InMemoryPolicy, IoEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn kg_subgraph() -> (ScaledDataset, InMemorySubgraph) {
    let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.05), 5);
    let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
    (data, subgraph)
}

/// Table 6's structural claim: DENSE samples strictly fewer nodes and edges than
/// layer-wise re-sampling as depth grows, and the gap widens with depth.
#[test]
fn dense_sampling_volume_advantage_grows_with_depth() {
    let (_, subgraph) = kg_subgraph();
    let targets: Vec<u64> = (0..200).collect();
    let mut previous_ratio = 0.0;
    for depth in 2..=4 {
        let fanouts = vec![5; depth];
        let mut rng_a = StdRng::seed_from_u64(depth as u64);
        let mut rng_b = StdRng::seed_from_u64(depth as u64);
        let dense = MultiHopSampler::new(fanouts.clone(), SamplingDirection::Incoming)
            .sample(&subgraph, &targets, &mut rng_a);
        let layerwise = LayerwiseSampler::new(fanouts, SamplingDirection::Incoming)
            .sample(&subgraph, &targets, &mut rng_b);
        assert!(layerwise.stats.edges_sampled >= dense.stats().edges_sampled);
        let ratio =
            layerwise.stats.edges_sampled as f64 / dense.stats().edges_sampled.max(1) as f64;
        assert!(
            ratio + 1e-9 >= previous_ratio,
            "redundancy ratio should not shrink with depth: {ratio} vs {previous_ratio}"
        );
        previous_ratio = ratio;
    }
    assert!(
        previous_ratio > 1.2,
        "deep redundancy ratio {previous_ratio}"
    );
}

/// DENSE invariants hold on samples drawn from a realistic power-law graph.
#[test]
fn dense_validates_on_generated_graphs() {
    let data = ScaledDataset::generate(&DatasetSpec::livejournal().scaled(0.0002), 9);
    let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
    let sampler = MultiHopSampler::new(vec![10, 10, 10], SamplingDirection::Both);
    let mut rng = StdRng::seed_from_u64(11);
    for start in [0u64, 50, 100] {
        let targets: Vec<u64> = (start..start + 50).collect();
        let mut dense = sampler.sample(&subgraph, &targets, &mut rng);
        dense.validate().expect("DENSE invariants");
        dense.build_repr_map();
        dense.validate().expect("repr_map consistent");
    }
}

/// Both disk policies produce valid epoch plans on a real partitioned dataset,
/// and COMET's bias is no worse than BETA's while its workload is more balanced.
#[test]
fn policies_are_valid_and_comet_reduces_bias_on_real_buckets() {
    let (data, _) = kg_subgraph();
    let p = 16u32;
    let c = 4usize;
    let partitioner = Partitioner::new(p).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let assignment = partitioner.random(data.num_nodes(), &mut rng);
    let buckets = partitioner.build_buckets(&data.graph, &assignment).unwrap();

    let beta = BetaPolicy::new(c).plan(p, &mut rng).unwrap();
    let comet = CometPolicy::auto(p, c).plan(p, &mut rng).unwrap();
    let memory = InMemoryPolicy.plan(p, &mut rng).unwrap();
    beta.validate(p, c).unwrap();
    comet.validate(p, c).unwrap();
    memory.validate(p, p as usize).unwrap();

    let bias_beta = edge_permutation_bias(&beta, &buckets, data.num_nodes());
    let bias_comet = edge_permutation_bias(&comet, &buckets, data.num_nodes());
    let bias_memory = edge_permutation_bias(&memory, &buckets, data.num_nodes());
    assert!(bias_memory <= bias_comet + 1e-9);
    assert!(bias_comet <= bias_beta + 1e-9);

    // Workload balance: COMET's largest step is closer to its mean than BETA's.
    let imbalance = |per: Vec<usize>| {
        let max = *per.iter().max().unwrap() as f64;
        let mean = per.iter().sum::<usize>() as f64 / per.len() as f64;
        max / mean
    };
    assert!(imbalance(comet.buckets_per_step()) < imbalance(beta.buckets_per_step()));
}

const DIRECTIONS: [SamplingDirection; 3] = [
    SamplingDirection::Incoming,
    SamplingDirection::Outgoing,
    SamplingDirection::Both,
];

/// A 200-node ring where node `i` has in-neighbours `i+1`, `i+17`, `i+34`:
/// multi-hop neighbourhoods overlap, so layer-wise re-sampling repeats work
/// DENSE reuses.
fn ring() -> InMemorySubgraph {
    let n = 200u64;
    let edges: Vec<Edge> = (0..n)
        .flat_map(|i| [1, 17, 34].map(|off| Edge::new((i + off) % n, i)))
        .collect();
    InMemorySubgraph::from_edges(&edges)
}

/// A fanout no node's neighbourhood exceeds, so neither sampler draws from
/// its RNG and both see every edge in the subgraph's order.
fn exhaustive_fanout(graph: &InMemorySubgraph) -> usize {
    graph
        .nodes()
        .iter()
        .map(|&n| graph.incoming(n).len().max(graph.outgoing(n).len()))
        .max()
        .unwrap_or(0)
}

/// Table 6's claim that DENSE changes how a mini batch is sampled, not what
/// the GNN computes: with exhaustive fanouts, a GraphSage encoder over DENSE
/// and over layer-wise re-sampled blocks gives every target bit-identical
/// outputs, for 1-3 layers in every sampling direction, on a ring and on a
/// generated knowledge graph.
#[test]
fn dense_and_layerwise_encoders_agree_bit_for_bit() {
    let kg = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.02), 11);
    let graphs = [
        ("ring", ring(), 200u64),
        (
            "fb15k-237 x0.02",
            InMemorySubgraph::from_edges(kg.graph.edges()),
            kg.num_nodes(),
        ),
    ];
    let dim = 8;
    let targets: Vec<NodeId> = (0..20).collect();
    for (name, graph, num_nodes) in &graphs {
        let fanout = exhaustive_fanout(graph);
        let features =
            EmbeddingTable::new(*num_nodes as usize, dim, 1.0, &mut StdRng::seed_from_u64(1));
        for layers in 1..=3 {
            let mut layer_rng = StdRng::seed_from_u64(layers as u64);
            let encoder = (0..layers).fold(Encoder::new(), |enc, l| {
                enc.push_layer(Box::new(GraphSageLayer::new(
                    dim,
                    dim,
                    Aggregator::Mean,
                    l + 1 < layers,
                    &mut layer_rng,
                )))
            });
            for direction in DIRECTIONS {
                let fanouts = vec![fanout; layers];
                let mut rng = StdRng::seed_from_u64(7);
                let mut dense = MultiHopSampler::new(fanouts.clone(), direction)
                    .sample(graph, &targets, &mut rng);
                let dense_targets = dense.target_nodes().to_vec();
                let h0 = features.gather(dense.node_ids());
                let dense_out = encoder.forward(&mut dense, h0).output;

                let sample =
                    LayerwiseSampler::new(fanouts, direction).sample(graph, &targets, &mut rng);
                let h0 = features.gather(&sample.base_nodes);
                let layerwise_out = encoder.forward_contexts(&sample.contexts, h0).output;

                let what = format!("{name}, {layers} layers, {direction:?}");
                assert_eq!(dense_targets, sample.target_nodes, "{what}");
                assert_eq!(dense_out.shape(), (targets.len(), dim), "{what}");
                let bits = |t: &marius_tensor::Tensor| {
                    t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(&dense_out), bits(&layerwise_out), "{what}");
            }
        }
    }
}

/// Where the two samplers differ is how much they sample: on the ring with
/// exhaustive fanouts, one layer costs both the same, and every deeper layer
/// makes layer-wise re-sample neighbourhoods DENSE already holds.
#[test]
fn layerwise_resamples_what_dense_reuses_exact_edge_counts() {
    let graph = ring();
    let targets: Vec<NodeId> = (0..20).collect();
    // (layers, direction, DENSE edges, layer-wise edges)
    let expected = [
        (1, SamplingDirection::Incoming, 60, 60),
        (1, SamplingDirection::Outgoing, 60, 60),
        (1, SamplingDirection::Both, 120, 120),
        (2, SamplingDirection::Incoming, 162, 222),
        (2, SamplingDirection::Outgoing, 162, 222),
        (2, SamplingDirection::Both, 528, 648),
        (3, SamplingDirection::Incoming, 264, 486),
        (3, SamplingDirection::Outgoing, 264, 486),
        (3, SamplingDirection::Both, 936, 1584),
    ];
    for (layers, direction, dense_edges, layerwise_edges) in expected {
        let fanouts = vec![exhaustive_fanout(&graph); layers];
        let mut rng = StdRng::seed_from_u64(3);
        let dense =
            MultiHopSampler::new(fanouts.clone(), direction).sample(&graph, &targets, &mut rng);
        let layerwise =
            LayerwiseSampler::new(fanouts, direction).sample(&graph, &targets, &mut rng);
        assert_eq!(
            (dense.stats().edges_sampled, layerwise.stats.edges_sampled),
            (dense_edges, layerwise_edges),
            "{layers} layers, {direction:?}"
        );
    }
}

/// Table 8: COMET's two-level scheme buys lower bias with more partition
/// loads than BETA, by a premium that grows with p / c. These are the exact
/// plan counts, the same for every seed.
#[test]
fn comet_io_is_close_to_beta_io() {
    // (p, c, BETA loads, COMET loads)
    let expected = [
        (8u32, 4usize, 13usize, 14usize),
        (16, 8, 25, 28),
        (16, 4, 46, 58),
        (32, 8, 86, 116),
        (64, 16, 166, 232),
    ];
    for (p, c, beta_loads, comet_loads) in expected {
        for seed in 1..=3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let beta = BetaPolicy::new(c).plan(p, &mut rng).unwrap();
            let comet = CometPolicy::auto(p, c).plan(p, &mut rng).unwrap();
            assert_eq!(
                (beta.partition_loads(), comet.partition_loads()),
                (beta_loads, comet_loads),
                "p = {p}, c = {c}, seed {seed}"
            );
        }
    }
}

/// The executors do the IO the plan schedules: the first epoch of a disk run
/// starts from an empty buffer and loads exactly `EpochPlan::partition_loads`
/// partitions (the Table 8 counts above); later epochs start with the
/// previous epoch's last set resident and load no more. The buffer's own miss
/// count agrees, and so do the sequential and pipelined executors.
#[test]
fn executors_load_exactly_what_the_plan_schedules() {
    let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.02), 77);
    let comet = |c| CometPolicy::auto(16, c).plan(16, &mut StdRng::seed_from_u64(0));
    let beta = |c| BetaPolicy::new(c).plan(16, &mut StdRng::seed_from_u64(0));
    // (disk config, its plan, the per-epoch loads of a 3-epoch run)
    let cases = [
        (DiskConfig::comet(16, 4), comet(4), [58, 58, 58]),
        (DiskConfig::beta(16, 4), beta(4), [46, 46, 44]),
        (DiskConfig::comet(16, 8), comet(8), [28, 25, 25]),
        (DiskConfig::beta(16, 8), beta(8), [25, 21, 22]),
    ];
    let trainer = |disk: &DiskConfig, pipeline| {
        let mut train = TrainConfig::quick(3, 5);
        train.batch_size = 512;
        let config = RunConfig {
            model: ModelConfig::paper_distmult(8),
            train,
            storage: Storage::Disk(disk.clone()),
            pipeline,
            ..RunConfig::default()
        };
        Trainer::from_config(LinkPredictionTask, config, IoEnv::default())
    };
    for (disk, plan, pinned) in cases {
        let planned = plan.unwrap().partition_loads();
        let sequential = trainer(&disk, PipelineConfig::default())
            .train(&data)
            .unwrap();
        let pipelined = trainer(&disk, PipelineConfig::with_workers(1))
            .train(&data)
            .unwrap();
        for report in [sequential, pipelined] {
            let loads: Vec<usize> = report.epochs.iter().map(|e| e.partition_loads).collect();
            assert_eq!(loads, pinned, "{disk:?}");
            assert_eq!(loads[0], planned, "{disk:?}");
            assert!(loads.iter().all(|&l| l <= planned), "{disk:?}");
            for epoch in &report.epochs {
                assert_eq!(
                    epoch.buffer_misses, epoch.partition_loads as u64,
                    "{disk:?}"
                );
            }
        }
    }
}

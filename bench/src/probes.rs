//! Layer probes: the harness times a direct call to one public function of a
//! layer, on inputs shaped like the workload's. They run after the traced
//! end-to-end region, never inside it, with fixed repetition counts.

use crate::alloc;
use crate::stats::median;
use marius::core::models::{build_encoder, LinkPredictionModel, NodeClassificationModel};
use marius::core::{FixedFeatureSource, RepresentationSource, TableSource};
use marius::gnn::{DistMult, EmbeddingTable};
use marius::graph::datasets::ScaledDataset;
use marius::graph::{Edge, InMemorySubgraph, NodeId, Partitioner};
use marius::sampling::{MultiHopSampler, NegativeSampler};
use marius::storage::PartitionStore;
use marius::tensor::ops::matmul_flops;
use marius::tensor::segment::{index_add, index_select, segment_sum};
use marius::tensor::{uniform_init, Tensor};
use marius::{IoCostModel, ModelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub type Layers = Vec<(&'static str, f64)>;

/// Repetitions per probe; the reported time is their median.
const REPS: usize = 7;

/// Median wall seconds of [`REPS`] calls of `f`, after one untimed call.
fn timed(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

const F32: f64 = 4.0;

/// `tensor.*`: the four kernels the encoder leans on, at one batch's shapes
/// (`rows` sampled nodes of width `in_dim`, `edges` sampled neighbour entries,
/// projected to `out_dim`). Bytes are computed from the shapes.
pub fn tensor(
    out: &mut Layers,
    rng: &mut StdRng,
    rows: usize,
    in_dim: usize,
    out_dim: usize,
    edges: usize,
) {
    let (rows, edges) = (rows.max(1), edges.max(1));
    let h = uniform_init(rng, rows, in_dim, 1.0);
    let w = uniform_init(rng, in_dim, out_dim, 1.0);
    let t = timed(|| {
        black_box(black_box(&h).matmul(black_box(&w)));
    });
    out.push((
        "tensor.matmul_gflops",
        matmul_flops(rows, in_dim, out_dim) as f64 / t / 1e9,
    ));

    let indices: Vec<usize> = (0..edges).map(|_| rng.gen_range(0..rows)).collect();
    let moved = 2.0 * edges as f64 * in_dim as f64 * F32;
    let t = timed(|| {
        black_box(index_select(black_box(&h), black_box(&indices)).expect("indices in range"));
    });
    out.push(("tensor.index_select_gbps", moved / t / 1e9));

    let gathered = index_select(&h, &indices).expect("indices in range");
    let t = timed(|| {
        black_box(
            index_add(rows, in_dim, black_box(&indices), black_box(&gathered))
                .expect("shapes agree"),
        );
    });
    out.push(("tensor.index_add_gbps", moved / t / 1e9));

    let offsets: Vec<usize> = (0..rows).map(|s| s * edges / rows).collect();
    let t = timed(|| {
        black_box(segment_sum(black_box(&gathered), black_box(&offsets)).expect("offsets ascend"));
    });
    let moved = (edges + rows) as f64 * in_dim as f64 * F32;
    out.push(("tensor.segment_sum_gbps", moved / t / 1e9));
}

/// `sampling.dense_edges_per_s` and the encoder forward/backward on the same
/// DENSE batch. Returns the batch's `(sampled nodes, sampled edges)` so the
/// tensor probe can use the same shapes.
pub fn dense_and_encoder(
    out: &mut Layers,
    rng: &mut StdRng,
    model: &ModelConfig,
    subgraph: &InMemorySubgraph,
    targets: &[NodeId],
    source: &dyn RepresentationSource,
) -> (usize, usize) {
    let sampler = MultiHopSampler::new(model.fanouts.clone(), model.direction);
    let mut sampled = 0usize;
    let t = timed(|| {
        sampled = black_box(sampler.sample(subgraph, black_box(targets), rng))
            .stats()
            .edges_sampled;
    });
    out.push(("sampling.dense_edges_per_s", sampled as f64 / t));

    let dense = sampler.sample(subgraph, targets, rng);
    let stats = dense.stats();
    let h0 = source.gather(dense.node_ids());
    let mut encoder = build_encoder(model, rng);
    let mut fwd = Vec::with_capacity(REPS);
    let mut bwd = Vec::with_capacity(REPS);
    for _ in 0..REPS + 1 {
        let (mut batch, input) = (dense.clone(), h0.clone());
        let start = Instant::now();
        let acts = encoder.forward(&mut batch, input);
        fwd.push(start.elapsed().as_secs_f64());
        let grad = Tensor::ones(acts.output.rows(), acts.output.cols());
        let start = Instant::now();
        black_box(encoder.backward(&acts, &grad));
        bwd.push(start.elapsed().as_secs_f64());
        encoder.zero_grad();
    }
    out.push(("gnn.encoder_fwd_ms_per_batch", median(&fwd[1..]) * 1e3));
    out.push(("gnn.encoder_bwd_ms_per_batch", median(&bwd[1..]) * 1e3));
    (stats.nodes_sampled, stats.edges_sampled)
}

/// `sampling.negatives_per_s`: the shared negative pool of one batch.
pub fn negatives(out: &mut Layers, rng: &mut StdRng, num_nodes: u64, pool: usize) {
    const CALLS: usize = 2000;
    let sampler = NegativeSampler::new(pool);
    let t = timed(|| {
        for _ in 0..CALLS {
            black_box(sampler.sample_pool_range(black_box(num_nodes), rng));
        }
    });
    out.push(("sampling.negatives_per_s", (CALLS * pool) as f64 / t));
}

/// `gnn.decoder_score_ns_per_pair`: `sources` rows scored against `candidates`
/// rows (a training batch against its negative pool, or one serving query
/// against a scan chunk).
pub fn decoder(
    out: &mut Layers,
    rng: &mut StdRng,
    relations: u32,
    dim: usize,
    sources: usize,
    candidates: usize,
) {
    const CALLS: usize = 20;
    let decoder = DistMult::new(relations as usize, dim, rng);
    let src = uniform_init(rng, sources, dim, 1.0);
    let cand = uniform_init(rng, candidates, dim, 1.0);
    let rels: Vec<u32> = (0..sources).map(|_| rng.gen_range(0..relations)).collect();
    let t = timed(|| {
        for _ in 0..CALLS {
            black_box(decoder.score_negatives(black_box(&src), black_box(&rels), black_box(&cand)));
        }
    });
    out.push((
        "gnn.decoder_score_ns_per_pair",
        t * 1e9 / (CALLS * sources * candidates) as f64,
    ));
}

/// `gnn.gather_gbps` / `gnn.sparse_update_rows_per_s`: the embedding table's
/// read and write-back paths at one batch's unique-node count.
pub fn table(out: &mut Layers, rng: &mut StdRng, num_nodes: usize, dim: usize, batch_nodes: usize) {
    let mut table = EmbeddingTable::new(num_nodes, dim, 0.1, rng);
    let nodes: Vec<NodeId> = (0..batch_nodes)
        .map(|_| rng.gen_range(0..num_nodes as u64))
        .collect();
    let t = timed(|| {
        black_box(table.gather(black_box(&nodes)));
    });
    out.push((
        "gnn.gather_gbps",
        2.0 * batch_nodes as f64 * dim as f64 * F32 / t / 1e9,
    ));
    let grads = uniform_init(rng, batch_nodes, dim, 0.01);
    let t = timed(|| table.apply_sparse_update(black_box(&nodes), black_box(&grads)));
    out.push(("gnn.sparse_update_rows_per_s", batch_nodes as f64 / t));
}

/// The in-buffer view of an out-of-core run: edges whose endpoints both fall
/// in the first `resident` of `partitions` random partitions, and those
/// partitions' nodes.
pub struct Resident {
    pub edges: Vec<Edge>,
    pub nodes: Vec<NodeId>,
    pub subgraph: InMemorySubgraph,
}

/// `graph.partition_build_s` (random assignment + edge bucketing of the whole
/// graph) and `graph.subgraph_build_ms` (`InMemorySubgraph::from_edges` at one
/// swap's edge volume).
pub fn graph(
    out: &mut Layers,
    rng: &mut StdRng,
    data: &ScaledDataset,
    partitions: u32,
    resident: u32,
) -> Resident {
    let partitioner = Partitioner::new(partitions).expect("non-zero partition count");
    let start = Instant::now();
    let assignment = partitioner.random(data.num_nodes(), rng);
    let buckets = partitioner
        .build_buckets(&data.graph, &assignment)
        .expect("assignment covers the graph");
    out.push(("graph.partition_build_s", start.elapsed().as_secs_f64()));
    black_box(&buckets);

    let in_buffer = |n: NodeId| assignment.partition_of(n) < resident;
    let edges: Vec<Edge> = data
        .train_edges
        .iter()
        .filter(|e| in_buffer(e.src) && in_buffer(e.dst))
        .copied()
        .collect();
    let t = timed(|| {
        black_box(InMemorySubgraph::from_edges(black_box(&edges)));
    });
    out.push(("graph.subgraph_build_ms", t * 1e3));
    Resident {
        subgraph: InMemorySubgraph::from_edges(&edges),
        nodes: (0..resident)
            .flat_map(|p| assignment.nodes_in(p).to_vec())
            .collect(),
        edges,
    }
}

/// `storage.{read,write}_partition[_emulated]_mbps`: one node partition of the
/// workload's size (values plus optimizer state), against the raw filesystem
/// and against the emulated EBS device.
pub fn storage(out: &mut Layers, rng: &mut StdRng, dir: &Path, rows: usize, dim: usize) {
    let values = uniform_init(rng, rows, dim, 0.1).into_vec();
    let state = vec![0.0f32; values.len()];
    let mb = (8 + 2 * values.len() * 4) as f64 / 1e6;
    let raw = PartitionStore::open(dir.join("probe-store")).expect("open probe store");
    let emulated = raw.clone().with_emulated_device(IoCostModel::ebs_gp3());
    for (store, write_name, read_name) in [
        (
            &raw,
            "storage.write_partition_mbps",
            "storage.read_partition_mbps",
        ),
        (
            &emulated,
            "storage.write_partition_emulated_mbps",
            "storage.read_partition_emulated_mbps",
        ),
    ] {
        let t = timed(|| {
            store
                .write_partition(0, &values, &state)
                .expect("probe write")
        });
        out.push((write_name, mb / t));
        let t = timed(|| {
            black_box(store.read_partition(0).expect("probe read"));
        });
        out.push((read_name, mb / t));
    }
    let _ = raw.clear();
}

/// Pushes `core.batch_prepare_us`, `core.batch_train_us` and the allocation
/// counts of one more step from per-step `(prepare, train)` seconds.
fn batch_metrics(out: &mut Layers, steps: &[(f64, f64)], allocs: u64, alloc_bytes: u64) {
    let column = |f: fn(&(f64, f64)) -> f64| median(&steps[1..].iter().map(f).collect::<Vec<_>>());
    out.push(("core.batch_prepare_us", column(|s| s.0) * 1e6));
    out.push(("core.batch_train_us", column(|s| s.1) * 1e6));
    out.push(("core.allocs_per_step", allocs as f64));
    out.push(("core.alloc_mb_per_step", alloc_bytes as f64 / 1e6));
}

/// One link-prediction training step, split where the pipeline splits it:
/// `batch_builder().prepare` (negatives + DENSE sampling) and `train_prepared`
/// (gather, forward, backward, updates).
pub fn link_batch(
    out: &mut Layers,
    rng: &mut StdRng,
    model: &ModelConfig,
    data: &ScaledDataset,
    resident: &Resident,
    batch: usize,
    negatives: usize,
) {
    let mut net =
        LinkPredictionModel::new(model, data.spec.num_relations, rng).with_negatives(negatives);
    let builder = net.batch_builder();
    let table = EmbeddingTable::new(data.num_nodes() as usize, model.input_dim, 0.1, rng);
    let mut source = TableSource::new(table);
    let edges = &resident.edges[..batch.min(resident.edges.len())];
    let mut step = |rng: &mut StdRng| {
        let start = Instant::now();
        let prepared = builder.prepare(&resident.subgraph, edges, &resident.nodes, rng);
        let prepare = start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(net.train_prepared(&mut source, prepared));
        (prepare, start.elapsed().as_secs_f64())
    };
    let steps: Vec<(f64, f64)> = (0..REPS + 1).map(|_| step(rng)).collect();
    let (_, allocs, bytes) = alloc::counted(|| step(rng));
    batch_metrics(out, &steps, allocs, bytes);
}

/// One node-classification training step over the full in-memory graph.
pub fn node_batch(
    out: &mut Layers,
    rng: &mut StdRng,
    model: &ModelConfig,
    data: &ScaledDataset,
    subgraph: &InMemorySubgraph,
    source: &mut FixedFeatureSource,
    batch: usize,
) {
    let classes = data.spec.num_classes.expect("node-classification dataset");
    let labels = data.labels.as_ref().expect("node-classification dataset");
    let mut net = NodeClassificationModel::new(model, classes, rng);
    let builder = net.batch_builder();
    let nodes = &data.node_split.train[..batch.min(data.node_split.train.len())];
    let node_labels: Vec<u32> = nodes.iter().map(|&n| labels[n as usize]).collect();
    let mut step = |rng: &mut StdRng| {
        let start = Instant::now();
        let prepared = builder.prepare(subgraph, nodes, &node_labels, rng);
        let prepare = start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(net.train_prepared(source, prepared));
        (prepare, start.elapsed().as_secs_f64())
    };
    let steps: Vec<(f64, f64)> = (0..REPS + 1).map(|_| step(rng)).collect();
    let (_, allocs, bytes) = alloc::counted(|| step(rng));
    batch_metrics(out, &steps, allocs, bytes);
}

pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

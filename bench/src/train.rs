//! The two training workloads: `lp_disk_ebs` (out-of-core, pipelined link
//! prediction against the emulated EBS device) and `nc_mem` (in-memory node
//! classification), plus the report-derived layer metrics `stream_loop`
//! shares.

use crate::json::{num, text};
use crate::probes::{self, Layers};
use crate::run::{begin, burn_in, end, mean, repeat_setup, spanned, Ctx, EndToEnd, Outcome, Scope};
use crate::spans::{self, Span};
use crate::stats::{fastest_window, median, peak_rss_mb, Fnv};
use marius::core::FixedFeatureSource;
use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::graph::InMemorySubgraph;
use marius::SessionBuilder;
use marius::{
    DiskConfig, EpochReport, ExperimentReport, IoCostModel, ModelConfig, NodeClassificationTask,
    PipelineConfig, Session, Storage, Task, TrainConfig,
};
use std::time::Instant;

/// Closes the running `bench.epoch` span and opens the next one; installed as
/// the session's epoch hook so harness epochs line up with the program's.
pub fn epoch_span_hook(
    scope: &Scope,
    total_epochs: usize,
) -> impl Fn(&EpochReport) + Send + Sync + 'static {
    let scope = scope.clone();
    move |epoch: &EpochReport| {
        end(&scope);
        if epoch.epoch + 1 < total_epochs {
            begin(&scope, "bench.epoch", epoch.epoch as i64 + 1);
        }
    }
}

/// First-epoch loss over final-epoch loss: how far training got in its fixed
/// epoch count. The bounded `quality` of the link-prediction workloads, where
/// a few seconds of training leave MRR within noise of a random ranking (it
/// swings 2x with the seed); the MRR itself is kept as an exact value.
pub fn loss_reduction(report: &ExperimentReport) -> f64 {
    match (report.epochs.first(), report.epochs.last()) {
        (Some(first), Some(last)) if last.loss > 0.0 => first.loss / last.loss,
        _ => 0.0,
    }
}

/// FNV digest of the per-epoch loss bits: two runs of one commit with the same
/// seed must print the same value.
pub fn loss_digest(report: &ExperimentReport) -> String {
    let mut h = Fnv::default();
    for e in &report.epochs {
        h.u64(e.loss.to_bits());
    }
    format!("{:016x}", h.0)
}

/// Set-up of a training workload as a user pays it before the first step:
/// generate the dataset, assemble the session, and run `train()` for zero
/// epochs — everything `train()` does ahead of its epoch loop (partitioning
/// and the initial store writes through the emulated device, or the
/// in-memory subgraph and feature source; model construction). The session
/// that then trains is built once more from the same seed, outside the
/// samples.
fn setup<T: Task>(
    ctx: &Ctx,
    spec: &DatasetSpec,
    configure: impl Fn(ScaledDataset, usize) -> SessionBuilder<T>,
    epochs: usize,
) -> (Session<T>, Vec<f64>) {
    let build = |id: i64, builder: SessionBuilder<T>| {
        spanned(&ctx.scope, "bench.session_build", id, || {
            builder
                .telemetry(&ctx.telemetry)
                .build()
                .expect("valid session configuration")
        })
        .0
    };
    let ((), samples) = repeat_setup(ctx, spec, |id, data| {
        let mut session = build(id, configure(data, 0));
        spanned(&ctx.scope, "bench.train_setup", id, || {
            session.train().expect("a zero-epoch run succeeds")
        });
    });
    let builder = configure(ScaledDataset::generate(spec, ctx.seed(1)), epochs)
        .on_epoch(epoch_span_hook(&ctx.scope, epochs));
    (build(-1, builder), samples)
}

/// How a workload's measured epoch times become its reported epoch time, and
/// what `detail.latency_tail_kind` calls it.
type Pace = (&'static str, fn(&[f64]) -> f64);

/// Epochs that are full passes over the same data differ only in how much
/// the host disturbed them: the fastest one (see `stats::fastest_window`).
const FASTEST_EPOCH: Pace = ("fastest_epoch", |epochs| fastest_window(epochs, 1));
/// Epochs that each draw other batches differ in their work too: the median.
const MEDIAN_EPOCH: Pace = ("median_epoch", median);

/// Trains `session`, checks every epoch, and fills the end-to-end numbers.
fn train_and_check<T: Task>(
    ctx: &mut Ctx,
    session: &mut Session<T>,
    expected_examples: usize,
    pace: Pace,
    quality: fn(&ExperimentReport) -> f64,
    out: &mut Outcome,
) -> ExperimentReport {
    burn_in(ctx);
    begin(&ctx.scope, "bench.train", 0);
    begin(&ctx.scope, "bench.epoch", 0);
    let start = Instant::now();
    let report = session
        .train()
        .expect("training succeeds on a healthy device");
    let run_s = start.elapsed().as_secs_f64();
    end(&ctx.scope);

    for e in &report.epochs {
        ctx.ops.check(
            e.loss.is_finite() && e.examples == expected_examples,
            || {
                format!(
                    "epoch {}: loss {} over {} examples, expected {expected_examples}",
                    e.epoch, e.loss, e.examples
                )
            },
        );
    }
    ctx.ops.check(
        report.final_metric().is_finite() && report.final_metric() > 0.0,
        || {
            format!(
                "final {} is {}",
                session.metric_name(),
                report.final_metric()
            )
        },
    );

    // Epoch 0 is warm-up (first touch of every partition, cold allocator).
    let epoch_s: Vec<f64> = report.epochs[1.min(report.epochs.len() - 1)..]
        .iter()
        .map(|e| e.epoch_time.as_secs_f64())
        .collect();
    let (pace_name, reduce) = pace;
    let reported_s = reduce(&epoch_s);
    out.e2e = EndToEnd {
        run_s,
        throughput: expected_examples as f64 / reported_s,
        // A training run answers no requests; the one latency a user sees is
        // the time between two epoch reports, and a handful of epochs
        // supports no percentile (`stats::tail` wants ten samples beyond it).
        // Both latency metrics are that epoch time, at the reported pace.
        latency_p50_ms: reported_s * 1e3,
        latency_tail_ms: reported_s * 1e3,
        tail_kind: pace_name.into(),
        latency_samples: epoch_s.len(),
        quality: quality(&report),
        peak_rss_mb: peak_rss_mb(),
        ..Default::default()
    };
    out.note("loss_digest", text(loss_digest(&report)));
    out.note(
        "final_loss",
        num(report.epochs.last().map_or(f64::NAN, |e| e.loss)),
    );
    out.note("final_metric", num(report.final_metric()));
    out.note("metric_name", text(session.metric_name()));
    out.note("examples_per_epoch", num(expected_examples as f64));
    report
}

/// Layer metrics read from the `EpochReport`s the program returns (means over
/// the measured epochs 1..) and from the program's own `epoch.*` spans.
/// `inline_sampling` says sampling runs on the compute thread (every executor
/// but the pipelined one), so its busy time is part of the epoch wall.
pub fn report_layers(
    layers: &mut Layers,
    report: &ExperimentReport,
    spans: &[Span],
    inline_sampling: bool,
) {
    let measured = &report.epochs[1.min(report.epochs.len() - 1)..];
    let per_epoch = |f: fn(&EpochReport) -> f64| mean(measured.iter().map(f));
    let wall = per_epoch(|e| e.epoch_time.as_secs_f64());
    let compute = per_epoch(|e| e.compute_time.as_secs_f64());
    let wait = per_epoch(|e| e.io_wait_time.as_secs_f64());
    let sampling = per_epoch(|e| e.sample_time.as_secs_f64());
    let hits: u64 = measured.iter().map(|e| e.buffer_hits).sum();
    let misses: u64 = measured.iter().map(|e| e.buffer_misses).sum();
    layers.extend([
        ("sampling.busy_s_per_epoch", sampling),
        (
            "sampling.edges_sampled_per_epoch",
            per_epoch(|e| e.edges_sampled as f64),
        ),
        (
            "storage.io_read_mb_per_epoch",
            per_epoch(|e| e.io_bytes_read as f64 / 1e6),
        ),
        (
            "storage.io_written_mb_per_epoch",
            per_epoch(|e| e.io_bytes_written as f64 / 1e6),
        ),
        (
            "storage.partition_loads_per_epoch",
            per_epoch(|e| e.partition_loads as f64),
        ),
        (
            "storage.buffer_hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        ),
        (
            "storage.buffer_evictions_per_epoch",
            per_epoch(|e| e.buffer_evictions as f64),
        ),
        (
            "storage.throttle_wait_s_per_epoch",
            per_epoch(|e| e.throttle_wait_time.as_secs_f64()),
        ),
        (
            "storage.io_retries",
            report.epochs.iter().map(|e| e.io_retries as f64).sum(),
        ),
        (
            "storage.faults_injected",
            report.epochs.iter().map(|e| e.faults_injected as f64).sum(),
        ),
        ("pipeline.compute_wait_s_per_epoch", wait),
        (
            "pipeline.idle_share",
            if wall > 0.0 { wait / wall } else { 0.0 },
        ),
        (
            "pipeline.stall_s_per_epoch",
            per_epoch(|e| e.stall_time.as_secs_f64()),
        ),
        (
            "pipeline.writeback_busy_s_per_epoch",
            per_epoch(|e| e.writeback_time.as_secs_f64()),
        ),
        ("pipeline.overlap_ratio", per_epoch(|e| e.overlap)),
        ("core.compute_busy_s_per_epoch", compute),
        (
            "core.warmup_epoch_s",
            report.epochs[0].epoch_time.as_secs_f64(),
        ),
        (
            "core.eval_s",
            spans::durations(spans, "epoch.eval").iter().sum(),
        ),
        (
            "core.unattributed_s_per_epoch",
            wall - compute - wait - if inline_sampling { sampling } else { 0.0 },
        ),
    ]);
}

/// Layer metrics every workload reports about its own set-up spans.
pub fn setup_layers(layers: &mut Layers, spans: &[Span]) {
    layers.push((
        "graph.generate_s",
        median(&spans::durations(spans, "bench.generate")),
    ));
    layers.push((
        "core.session_build_s",
        median(&spans::durations(spans, "bench.session_build")),
    ));
}

/// Drops the harness scope's buffered events into the recorder and pairs
/// everything recorded so far (harness and program spans alike).
pub fn collect_spans(ctx: &mut Ctx) -> Vec<Span> {
    // Replacing the scope drops the old one, which merges its events.
    *ctx.scope.lock().expect("span scope poisoned") = ctx.telemetry.scope("bench.probes");
    spans::pair(&ctx.telemetry.span_events())
}

pub const LP_BATCH: usize = 256;
pub const LP_NEGATIVES: usize = 32;
const LP_PARTITIONS: u32 = 16;
const LP_BUFFER: usize = 4;

pub fn lp_disk_ebs(ctx: &mut Ctx) -> Outcome {
    let epochs = ctx.sizes.units;
    let spec = DatasetSpec::fb15k_237().scaled(ctx.sizes.scale);
    let mut model = ModelConfig::paper_link_prediction_graphsage(ctx.sizes.dim);
    model.num_layers = 2;
    model.fanouts = vec![25, 20];
    let mut train = TrainConfig::quick(epochs, ctx.seed(2));
    train.batch_size = LP_BATCH;
    train.num_negatives = LP_NEGATIVES;

    let (mut session, setup_samples) = setup(
        ctx,
        &spec,
        |data, run_epochs| {
            Session::builder()
                .dataset(data)
                .model(model.clone())
                .train(TrainConfig {
                    epochs: run_epochs,
                    ..train.clone()
                })
                .storage(Storage::Disk(DiskConfig::comet(LP_PARTITIONS, LP_BUFFER)))
                .emulated_device(IoCostModel::ebs_gp3())
                // One sampling worker: with the compute consumer and the
                // prefetch / write-back threads that already fills two cores.
                .pipeline(PipelineConfig {
                    enabled: true,
                    num_sampling_workers: 1,
                    queue_depth: 4,
                    prefetch_depth: 3,
                    ..PipelineConfig::default()
                })
                .eval_every(epochs)
        },
        epochs,
    );
    let mut out = Outcome::default();
    let expected = session.dataset().train_edges.len();
    let report = train_and_check(
        ctx,
        &mut session,
        expected,
        FASTEST_EPOCH,
        loss_reduction,
        &mut out,
    );
    out.e2e.setup_samples = setup_samples;
    if !ctx.args.traced {
        return out;
    }

    let spans = collect_spans(ctx);
    report_layers(&mut out.layers, &report, &spans, false);
    setup_layers(&mut out.layers, &spans);
    let data = session.dataset();
    let rng = &mut probes::rng(ctx.seed(5));
    let resident = probes::graph(&mut out.layers, rng, data, LP_PARTITIONS, LP_BUFFER as u32);
    let table =
        marius::gnn::EmbeddingTable::new(data.num_nodes() as usize, model.input_dim, 0.1, rng);
    let source = marius::core::TableSource::new(table);
    let targets: Vec<u64> = resident
        .edges
        .iter()
        .take(LP_BATCH)
        .flat_map(|e| [e.src, e.dst])
        .collect();
    let (nodes, edges) = probes::dense_and_encoder(
        &mut out.layers,
        rng,
        &model,
        &resident.subgraph,
        &targets,
        &source,
    );
    probes::tensor(
        &mut out.layers,
        rng,
        nodes,
        model.input_dim,
        model.hidden_dim,
        edges,
    );
    probes::negatives(&mut out.layers, rng, data.num_nodes(), LP_NEGATIVES);
    probes::decoder(
        &mut out.layers,
        rng,
        data.spec.num_relations,
        model.output_dim,
        LP_BATCH,
        LP_NEGATIVES,
    );
    probes::table(
        &mut out.layers,
        rng,
        data.num_nodes() as usize,
        model.input_dim,
        nodes,
    );
    let partition_rows = data.num_nodes() as usize / LP_PARTITIONS as usize;
    probes::storage(
        &mut out.layers,
        rng,
        &ctx.tmp,
        partition_rows,
        model.input_dim,
    );
    probes::link_batch(
        &mut out.layers,
        rng,
        &model,
        data,
        &resident,
        LP_BATCH,
        LP_NEGATIVES,
    );
    out
}

const NC_BATCH: usize = 256;
/// Test nodes the final evaluation scores: one forward chunk of the evaluator
/// (~2 s), so that `run_s` is spent training.
const NC_TEST_NODES: usize = 1024;

pub fn nc_mem(ctx: &mut Ctx) -> Outcome {
    let epochs = ctx.sizes.units;
    let spec = DatasetSpec::ogbn_arxiv().scaled(ctx.sizes.scale);
    let model = ModelConfig::paper_node_classification(spec.feat_dim, ctx.sizes.dim);
    let mut train = TrainConfig::quick(epochs, ctx.seed(2));
    train.batch_size = NC_BATCH;
    // The graph keeps its size, so one batch's 30/20/10 neighbourhood and its
    // kernels keep theirs (~0.5 s a step); an epoch is a fixed number of
    // batches drawn from a fresh shuffle of the whole training split.
    train.max_batches_per_epoch = ctx.sizes.batches_per_epoch;

    let (mut session, setup_samples) = setup(
        ctx,
        &spec,
        |mut data, run_epochs| {
            data.node_split.test.truncate(NC_TEST_NODES);
            Session::builder()
                .task(NodeClassificationTask)
                .dataset(data)
                .model(model.clone())
                .train(TrainConfig {
                    epochs: run_epochs,
                    ..train.clone()
                })
                .eval_every(epochs)
        },
        epochs,
    );
    let mut out = Outcome::default();
    let expected =
        (NC_BATCH * train.max_batches_per_epoch).min(session.dataset().node_split.train.len());
    let report = train_and_check(
        ctx,
        &mut session,
        expected,
        MEDIAN_EPOCH,
        ExperimentReport::final_metric,
        &mut out,
    );
    out.e2e.setup_samples = setup_samples;
    if !ctx.args.traced {
        return out;
    }

    let spans = collect_spans(ctx);
    report_layers(&mut out.layers, &report, &spans, true);
    setup_layers(&mut out.layers, &spans);
    let data = session.dataset();
    let rng = &mut probes::rng(ctx.seed(5));
    let (subgraph, build_s) = spanned(&ctx.scope, "bench.probe.subgraph", 0, || {
        InMemorySubgraph::from_edges(data.graph.edges())
    });
    out.layers.push(("graph.subgraph_build_ms", build_s * 1e3));
    let features = data
        .features
        .clone()
        .expect("ogbn-arxiv carries fixed features");
    let mut source = FixedFeatureSource::new(features);
    let targets = &data.node_split.train[..NC_BATCH.min(expected)];
    let (nodes, edges) =
        probes::dense_and_encoder(&mut out.layers, rng, &model, &subgraph, targets, &source);
    probes::tensor(
        &mut out.layers,
        rng,
        nodes,
        model.input_dim,
        model.hidden_dim,
        edges,
    );
    probes::node_batch(
        &mut out.layers,
        rng,
        &model,
        data,
        &subgraph,
        &mut source,
        NC_BATCH,
    );
    out
}

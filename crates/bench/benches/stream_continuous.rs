//! Continuous-training benchmark: the streamed ingest → fine-tune loop of
//! `marius-stream` against a frozen-dataset run of the same epoch budget.
//!
//! Reports per-epoch timing for both runs, the ingest-side counters (batches
//! staged, deltas applied, edges appended, cumulative apply time), and writes
//! `BENCH_stream_continuous.json` with both trajectories — the artifact the
//! CI `stream-smoke` job uploads.
//!
//! Set `MARIUS_BENCH_SMOKE=1` for the tiny CI configuration.

use std::sync::Arc;
use std::time::Duration;

use marius_bench::{header, seconds, write_bench_json, write_telemetry_artifacts};
use marius_core::{DiskConfig, ModelConfig, TemporalLinkPredictionTask, TrainConfig, Trainer};
use marius_graph::datasets::{DatasetSpec, ScaledDataset};
use marius_storage::{IoEnv, PartitionStore};
use marius_stream::{EdgeStream, Ingestor};
use marius_telemetry::Telemetry;

fn smoke() -> bool {
    std::env::var("MARIUS_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn main() {
    header("Continuous training: streamed ingest + fine-tune vs frozen run");

    let (scale, cycles, epochs_per_cycle, batches_per_cycle, batch_size) = if smoke() {
        (0.015, 2usize, 2usize, 2usize, 64usize)
    } else {
        (0.05, 4, 2, 4, 256)
    };
    let epochs = cycles * epochs_per_cycle;
    let spec = DatasetSpec::fb15k_237().scaled(scale);
    let data = ScaledDataset::generate(&spec, 3);
    let disk = DiskConfig::comet(8, 4);
    let model = ModelConfig::paper_distmult(16);
    let mut train = TrainConfig::quick(epochs, 9);
    train.batch_size = 256;
    train.num_negatives = 32;
    train.eval_negatives = 64;
    println!(
        "{}: {} nodes, {} base edges; {cycles} cycles x {epochs_per_cycle} epochs, \
         {batches_per_cycle} x {batch_size}-edge batches per boundary",
        spec.name,
        data.num_nodes(),
        data.graph.edges().len()
    );

    // Baseline: the same epoch budget over the frozen base dataset.
    let frozen_trainer: Trainer<TemporalLinkPredictionTask> =
        Trainer::with_task(TemporalLinkPredictionTask, model.clone(), train.clone());
    let frozen = frozen_trainer
        .train_disk(&data, &disk)
        .expect("frozen training");

    // The continuous loop: identical trainer plus the armed ingest hook.
    let telemetry = Telemetry::enabled();
    let env = IoEnv {
        telemetry: telemetry.clone(),
        ..IoEnv::default()
    };
    let mut streamed_trainer: Trainer<TemporalLinkPredictionTask> =
        Trainer::with_task(TemporalLinkPredictionTask, model, train).with_io_env(env);
    let stream = EdgeStream::new(11, data.num_nodes(), spec.num_relations, batch_size);
    let staging = PartitionStore::open_temp("bench-stream-staging").expect("staging store");
    staging.clear().expect("clear staging");
    let ingestor = Ingestor::new(stream, staging).with_telemetry(&telemetry);
    streamed_trainer.set_stream_state(ingestor.state_handle());
    let ingestor = Arc::new(ingestor);
    streamed_trainer.set_ingest_hook(move |setup, epoch_idx| {
        if (epoch_idx + 1) % epochs_per_cycle == 0 && epoch_idx + 1 < epochs {
            ingestor.ingest(setup, batches_per_cycle)
        } else {
            Ok(0)
        }
    });
    let streamed = streamed_trainer
        .train_disk(&data, &disk)
        .expect("streamed training");

    println!("\nepoch |  frozen_s | streamed_s | edges_ingested");
    for (f, s) in frozen.epochs.iter().zip(streamed.epochs.iter()) {
        println!(
            "{:>5} | {:>9} | {:>10} | {:>14}",
            f.epoch,
            seconds(f.epoch_time),
            seconds(s.epoch_time),
            s.edges_ingested
        );
    }
    let snap = telemetry.metrics_snapshot();
    let apply_ns = snap.counter("ingest.apply_ns").unwrap_or(0);
    println!(
        "\ningest: {} batches staged, {} deltas applied, {} edges appended, \
         {} cumulative apply time",
        snap.counter("ingest.batches_staged").unwrap_or(0),
        snap.counter("ingest.deltas_applied").unwrap_or(0),
        snap.counter("ingest.edges_appended").unwrap_or(0),
        seconds(Duration::from_nanos(apply_ns)),
    );

    write_bench_json(
        "stream_continuous",
        &[("frozen", &frozen), ("streamed", &streamed)],
    );
    write_telemetry_artifacts("stream_continuous", &telemetry);
}

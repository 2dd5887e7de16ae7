//! Integration tests for the staged training runtime (`marius-pipeline`)
//! driven through the public trainer API: the pipelined executor must be a
//! drop-in replacement for the sequential one.
//!
//! * With one sampling worker and a fixed seed, the pipelined trainer must
//!   reproduce the sequential trainer's per-epoch loss trajectory
//!   **bit-for-bit** (the sequential path is the determinism oracle).
//! * With several workers, training must stay sane (finite losses, every
//!   partition written back to disk) even though sampling runs concurrently.

use marius_core::{
    DiskConfig, LinkPredictionTask, ModelConfig, NodeClassificationTask, PipelineConfig, RunConfig,
    Storage, TrainConfig, Trainer,
};
use marius_graph::datasets::{DatasetSpec, ScaledDataset};
use marius_storage::IoEnv;

fn lp_dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.02), 77)
}

/// A disk run over `disk` on the `pipeline` schedule.
fn disk_run(
    model: ModelConfig,
    train: TrainConfig,
    disk: &DiskConfig,
    pipeline: PipelineConfig,
) -> RunConfig {
    RunConfig {
        model,
        train,
        storage: Storage::Disk(disk.clone()),
        pipeline,
        ..RunConfig::default()
    }
}

fn lp_trainer(disk: &DiskConfig, pipeline: PipelineConfig) -> Trainer<LinkPredictionTask> {
    let model = ModelConfig::paper_link_prediction_graphsage(16).shrunk(6, 16);
    let mut train = TrainConfig::quick(3, 77);
    train.batch_size = 192;
    train.num_negatives = 48;
    train.eval_negatives = 64;
    let config = disk_run(model, train, disk, pipeline);
    Trainer::from_config(LinkPredictionTask, config, IoEnv::default())
}

#[test]
fn pipelined_single_worker_reproduces_sequential_loss_trajectory() {
    let data = lp_dataset();
    let disk = DiskConfig::comet(8, 4);
    let sequential = lp_trainer(&disk, PipelineConfig::default())
        .train(&data)
        .expect("sequential");
    let pipelined = lp_trainer(&disk, PipelineConfig::with_workers(1))
        .train(&data)
        .expect("pipelined");

    assert_eq!(sequential.epochs.len(), pipelined.epochs.len());
    for (seq, pipe) in sequential.epochs.iter().zip(&pipelined.epochs) {
        // Bit-for-bit: same mean loss, same metric, same example/IO counts.
        assert_eq!(
            seq.loss, pipe.loss,
            "epoch {} loss diverged: {} vs {}",
            seq.epoch, seq.loss, pipe.loss
        );
        assert_eq!(seq.metric, pipe.metric, "epoch {} metric", seq.epoch);
        assert_eq!(seq.examples, pipe.examples);
        assert_eq!(seq.partition_loads, pipe.partition_loads);
        assert_eq!(seq.io_bytes_read, pipe.io_bytes_read);
        assert_eq!(seq.io_bytes_written, pipe.io_bytes_written);
    }
    // The pipelined run actually reports stage overlap instrumentation.
    assert!(pipelined.epochs.iter().all(|e| e.overlap > 0.0));
    assert!(sequential.epochs.iter().all(|e| e.overlap == 0.0));
}

#[test]
fn pipelined_multi_worker_smoke_loss_finite_and_partitions_written_back() {
    let data = lp_dataset();
    let disk = DiskConfig::beta(8, 4);
    let pipeline = PipelineConfig {
        enabled: true,
        num_sampling_workers: 4,
        queue_depth: 3,
        prefetch_depth: 2,
        ..PipelineConfig::default()
    };
    let report = lp_trainer(&disk, pipeline)
        .train(&data)
        .expect("pipelined multi-worker");

    assert_eq!(report.epochs.len(), 3);
    for epoch in &report.epochs {
        assert!(epoch.loss.is_finite(), "epoch {} loss", epoch.epoch);
        assert!(epoch.examples > 0);
        // Every physical partition was read at least once per epoch and the
        // learnable embeddings were written back (bytes flowed both ways).
        assert!(epoch.partition_loads >= disk.buffer_capacity);
        assert!(epoch.io_bytes_read > 0);
        assert!(epoch.io_bytes_written > 0);
    }
    // A disk run ends with a full write-back; the final MRR evaluation reads
    // every partition file back successfully, so learning must be visible.
    assert!(report.final_metric() > 0.0);
    // Multi-worker runs share the per-step seed discipline, so they too match
    // the sequential oracle exactly.
    let sequential = lp_trainer(&disk, PipelineConfig::default())
        .train(&data)
        .expect("sequential");
    for (seq, pipe) in sequential.epochs.iter().zip(&report.epochs) {
        assert_eq!(seq.loss, pipe.loss, "epoch {}", seq.epoch);
    }
}

#[test]
fn pipelined_node_classification_matches_sequential() {
    let spec = DatasetSpec::ogbn_arxiv().scaled(0.008);
    let data = ScaledDataset::generate(&spec, 55);
    let mut model = ModelConfig::paper_node_classification(128, 16);
    model.num_layers = 2;
    model.fanouts = vec![8, 5];
    let mut train = TrainConfig::quick(2, 55);
    train.batch_size = 128;
    let disk = DiskConfig::node_cache(8, 6);

    let in_order = disk_run(
        model.clone(),
        train.clone(),
        &disk,
        PipelineConfig::default(),
    );
    let sequential = Trainer::from_config(NodeClassificationTask, in_order, IoEnv::default())
        .train(&data)
        .expect("sequential");
    let threaded = disk_run(model, train, &disk, PipelineConfig::with_workers(2));
    let pipelined = Trainer::from_config(NodeClassificationTask, threaded, IoEnv::default())
        .train(&data)
        .expect("pipelined");

    for (seq, pipe) in sequential.epochs.iter().zip(&pipelined.epochs) {
        assert_eq!(seq.loss, pipe.loss, "epoch {} loss", seq.epoch);
        assert_eq!(seq.metric, pipe.metric, "epoch {} accuracy", seq.epoch);
        assert_eq!(seq.examples, pipe.examples);
    }
}

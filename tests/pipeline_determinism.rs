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
    DiskConfig, LinkPredictionTask, ModelConfig, NodeClassificationTask, PipelineConfig,
    TrainConfig, Trainer,
};
use marius_graph::datasets::{DatasetSpec, ScaledDataset};

fn lp_dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.02), 77)
}

fn lp_trainer() -> Trainer<LinkPredictionTask> {
    let model = ModelConfig::paper_link_prediction_graphsage(16).shrunk(6, 16);
    let mut train = TrainConfig::quick(3, 77);
    train.batch_size = 192;
    train.num_negatives = 48;
    train.eval_negatives = 64;
    Trainer::new(model, train)
}

#[test]
fn pipelined_single_worker_reproduces_sequential_loss_trajectory() {
    let data = lp_dataset();
    let disk = DiskConfig::comet(8, 4);
    let sequential = lp_trainer().train_disk(&data, &disk).expect("sequential");
    let pipelined = lp_trainer()
        .with_pipeline(PipelineConfig::with_workers(1))
        .train_disk(&data, &disk)
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
    let report = lp_trainer()
        .with_pipeline(PipelineConfig {
            enabled: true,
            num_sampling_workers: 4,
            queue_depth: 3,
            prefetch_depth: 2,
            ..PipelineConfig::default()
        })
        .train_disk(&data, &disk)
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
    // train_disk ends with a full write-back; the final MRR evaluation reads
    // every partition file back successfully, so learning must be visible.
    assert!(report.final_metric() > 0.0);
    // Multi-worker runs share the per-step seed discipline, so they too match
    // the sequential oracle exactly.
    let sequential = lp_trainer().train_disk(&data, &disk).expect("sequential");
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

    let sequential = Trainer::<NodeClassificationTask>::new(model.clone(), train.clone())
        .train_disk(&data, &disk)
        .expect("sequential");
    let pipelined = Trainer::<NodeClassificationTask>::new(model, train)
        .with_pipeline(PipelineConfig::with_workers(2))
        .train_disk(&data, &disk)
        .expect("pipelined");

    for (seq, pipe) in sequential.epochs.iter().zip(&pipelined.epochs) {
        assert_eq!(seq.loss, pipe.loss, "epoch {} loss", seq.epoch);
        assert_eq!(seq.metric, pipe.metric, "epoch {} accuracy", seq.epoch);
        assert_eq!(seq.examples, pipe.examples);
    }
}

//! End-to-end integration tests for link prediction spanning every crate:
//! dataset generation → partitioned on-disk storage → COMET/BETA epoch plans →
//! DENSE sampling → GNN training → MRR evaluation.

use marius_core::{
    DiskConfig, LinkPredictionTask, ModelConfig, RunConfig, Storage, TrainConfig, Trainer,
};
use marius_graph::datasets::{DatasetSpec, ScaledDataset};
use marius_storage::IoEnv;

fn dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.02), 31)
}

fn trainer(epochs: usize, storage: Storage) -> Trainer<LinkPredictionTask> {
    let model = ModelConfig::paper_link_prediction_graphsage(16).shrunk(8, 16);
    let mut train = TrainConfig::quick(epochs, 31);
    train.batch_size = 256;
    train.num_negatives = 64;
    train.eval_negatives = 100;
    link_prediction(model, train, storage)
}

fn link_prediction(
    model: ModelConfig,
    train: TrainConfig,
    storage: Storage,
) -> Trainer<LinkPredictionTask> {
    let config = RunConfig {
        model,
        train,
        storage,
        ..RunConfig::default()
    };
    Trainer::from_config(LinkPredictionTask, config, IoEnv::default())
}

#[test]
fn in_memory_link_prediction_learns_beyond_random() {
    let data = dataset();
    let report = trainer(3, Storage::InMemory)
        .train(&data)
        .expect("in-memory training");
    // A random ranker over 100 negatives scores ~0.05 MRR; the trained model
    // must do at least twice as well after three epochs.
    assert!(
        report.final_metric() > 0.10,
        "in-memory MRR too low: {}",
        report.final_metric()
    );
    // MRR should not degrade over training.
    assert!(report.final_metric() + 0.05 >= report.epochs[0].metric);
}

#[test]
fn disk_based_comet_training_approaches_in_memory_quality() {
    let data = dataset();
    let mem = trainer(3, Storage::InMemory)
        .train(&data)
        .expect("in-memory training");
    let comet = trainer(3, Storage::Disk(DiskConfig::comet(8, 4)))
        .train(&data)
        .expect("disk training");
    assert!(
        comet.final_metric() > 0.1,
        "COMET MRR {}",
        comet.final_metric()
    );
    // Disk-based training with COMET should recover most of the in-memory MRR
    // (the paper closes the gap to within a few percent on Freebase86M).
    assert!(
        comet.final_metric() > 0.5 * mem.final_metric(),
        "COMET {} vs in-memory {}",
        comet.final_metric(),
        mem.final_metric()
    );
    // It must actually have done IO and multiple partition-set loads.
    let last = comet.epochs.last().unwrap();
    assert!(last.io_bytes_read > 0);
    assert!(last.partition_loads > 4);
}

#[test]
fn decoder_only_distmult_trains_out_of_core_with_both_policies() {
    let data = dataset();
    let model = ModelConfig::paper_distmult(16);
    let mut train = TrainConfig::quick(2, 17);
    train.batch_size = 256;
    train.num_negatives = 64;
    let comet = link_prediction(
        model.clone(),
        train.clone(),
        Storage::Disk(DiskConfig::comet(8, 4)),
    )
    .train(&data)
    .expect("disk training");
    let beta = link_prediction(model, train, Storage::Disk(DiskConfig::beta(8, 4)))
        .train(&data)
        .expect("disk training");
    assert!(comet.final_metric() > 0.05);
    assert!(beta.final_metric() > 0.05);
    // Both must have iterated over every training example each epoch.
    let total = data.train_edges.len();
    assert_eq!(comet.epochs[0].examples, total);
    assert_eq!(beta.epochs[0].examples, total);
}

#[test]
fn epoch_reports_contain_consistent_bookkeeping() {
    let data = dataset();
    let report = trainer(2, Storage::Disk(DiskConfig::comet(8, 4)))
        .train(&data)
        .expect("disk training");
    for epoch in &report.epochs {
        assert!(epoch.epoch_time >= epoch.sample_time);
        assert!(epoch.nodes_sampled > 0);
        assert!(epoch.edges_sampled > 0);
        assert!(epoch.loss.is_finite());
        assert!(epoch.metric >= 0.0 && epoch.metric <= 1.0);
    }
}

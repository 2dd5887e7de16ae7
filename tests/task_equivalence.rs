//! Golden equivalence tests for the task-generic training engine.
//!
//! The generic `Trainer<T: Task>` replaced the two hand-written trainers
//! (`LinkPredictionTrainer` / `NodeClassificationTrainer`). These tests pin
//! its behaviour to the seed trainers' exact loss/metric trajectories,
//! captured bit-for-bit (as f64 bit patterns) from the pre-refactor
//! implementation on the in-memory, sequential-disk and pipelined-disk paths
//! for both tasks. Any change to RNG consumption order, batch construction,
//! or epoch orchestration shows up here as a bit-level mismatch.

use marius_core::{
    DiskConfig, LinkPredictionTask, ModelConfig, NodeClassificationTask, PipelineConfig, RunConfig,
    Storage, TrainConfig, Trainer,
};
use marius_graph::datasets::{DatasetSpec, ScaledDataset};
use marius_storage::IoEnv;

/// Per-epoch golden values: (loss bits, metric bits, examples).
type Golden = &'static [(u64, u64, usize)];

/// Captured from the seed trainers at commit 4f01d44 (the last revision with
/// the hand-written `LinkPredictionTrainer`/`NodeClassificationTrainer`).
///
/// To regenerate after an intentional behaviour change (e.g. a new RNG draw),
/// run the exact `lp_trainer`/`nc_trainer`/`*_dataset` configurations below
/// through the trainer paths being pinned and print each epoch as
/// `(loss.to_bits(), metric.to_bits(), examples)` — e.g. a scratch example:
/// `for e in &report.epochs { println!("({:#018x}, {:#018x}, {}),",
/// e.loss.to_bits(), e.metric.to_bits(), e.examples); }` — then paste the
/// output over the arrays. Run the capture twice to confirm determinism.
const LP_MEM: Golden = &[
    (0x400be30c0fb23703, 0x3fbecaaee2690e9b, 4002),
    (0x400af557024598e2, 0x3fc152914d961dfa, 4002),
];
const LP_DISK_COMET: Golden = &[
    (0x400befe2700c4828, 0x3fc4b5231e6f3f06, 4002),
    (0x400b5a3f87ed93c4, 0x3fbefeaeadaf244b, 4002),
];
const LP_DISK_BETA: Golden = &[
    (0x400bf3f0de2725ff, 0x3fc4ebee99d2f7a3, 4002),
    (0x400b6eb3beaa27a9, 0x3fc503ec6b8c49a0, 4002),
];
const NC_MEM: Golden = &[
    (0x4009a6f0c430f635, 0x3fdb24db24db24db, 732),
    (0x3ffbe6b6968d4a24, 0x3fe7689768976897, 732),
];
const NC_DISK: Golden = &[
    (0x400b8057fe64b8a8, 0x3fd12ed12ed12ed1, 732),
    (0x4000b4a6de67b1a9, 0x3fe36c936c936c93, 732),
];

fn assert_matches_golden(report: &marius_core::ExperimentReport, golden: Golden, label: &str) {
    assert_eq!(report.epochs.len(), golden.len(), "{label}: epoch count");
    for (e, &(loss_bits, metric_bits, examples)) in report.epochs.iter().zip(golden) {
        assert_eq!(
            e.loss.to_bits(),
            loss_bits,
            "{label}: epoch {} loss {} != golden {}",
            e.epoch,
            e.loss,
            f64::from_bits(loss_bits)
        );
        assert_eq!(
            e.metric.to_bits(),
            metric_bits,
            "{label}: epoch {} metric {} != golden {}",
            e.epoch,
            e.metric,
            f64::from_bits(metric_bits)
        );
        assert_eq!(e.examples, examples, "{label}: epoch {} examples", e.epoch);
    }
}

fn lp_dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.015), 3)
}

fn lp_trainer(storage: Storage, pipeline: PipelineConfig) -> Trainer<LinkPredictionTask> {
    let model = ModelConfig::paper_link_prediction_graphsage(12).shrunk(5, 12);
    let mut train = TrainConfig::quick(2, 9);
    train.batch_size = 128;
    train.num_negatives = 32;
    train.eval_negatives = 64;
    let config = RunConfig {
        model,
        train,
        storage,
        pipeline,
        ..RunConfig::default()
    };
    Trainer::from_config(LinkPredictionTask, config, IoEnv::default())
}

fn nc_dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::ogbn_arxiv().scaled(0.008), 21)
}

fn nc_trainer(storage: Storage, pipeline: PipelineConfig) -> Trainer<NodeClassificationTask> {
    let mut model = ModelConfig::paper_node_classification(128, 16);
    model.num_layers = 2;
    model.fanouts = vec![8, 5];
    let mut train = TrainConfig::quick(2, 13);
    train.batch_size = 128;
    let config = RunConfig {
        model,
        train,
        storage,
        pipeline,
        ..RunConfig::default()
    };
    Trainer::from_config(NodeClassificationTask, config, IoEnv::default())
}

/// The in-order disk schedule (the default).
fn in_order() -> PipelineConfig {
    PipelineConfig::default()
}

#[test]
fn link_prediction_in_memory_matches_seed_trainer_bit_for_bit() {
    let report = lp_trainer(Storage::InMemory, in_order())
        .train(&lp_dataset())
        .unwrap();
    assert_matches_golden(&report, LP_MEM, "lp in-memory");
}

#[test]
fn link_prediction_sequential_disk_matches_seed_trainer_bit_for_bit() {
    let data = lp_dataset();
    let comet = lp_trainer(Storage::Disk(DiskConfig::comet(8, 4)), in_order())
        .train(&data)
        .unwrap();
    assert_matches_golden(&comet, LP_DISK_COMET, "lp disk comet sequential");
    let beta = lp_trainer(Storage::Disk(DiskConfig::beta(8, 4)), in_order())
        .train(&data)
        .unwrap();
    assert_matches_golden(&beta, LP_DISK_BETA, "lp disk beta sequential");
}

#[test]
fn link_prediction_pipelined_disk_matches_seed_trainer_bit_for_bit() {
    let report = lp_trainer(
        Storage::Disk(DiskConfig::comet(8, 4)),
        PipelineConfig::with_workers(2),
    )
    .train(&lp_dataset())
    .unwrap();
    assert_matches_golden(&report, LP_DISK_COMET, "lp disk comet pipelined");
}

#[test]
fn node_classification_in_memory_matches_seed_trainer_bit_for_bit() {
    let report = nc_trainer(Storage::InMemory, in_order())
        .train(&nc_dataset())
        .unwrap();
    assert_matches_golden(&report, NC_MEM, "nc in-memory");
}

#[test]
fn node_classification_sequential_disk_matches_seed_trainer_bit_for_bit() {
    let report = nc_trainer(Storage::Disk(DiskConfig::node_cache(8, 6)), in_order())
        .train(&nc_dataset())
        .unwrap();
    assert_matches_golden(&report, NC_DISK, "nc disk sequential");
}

#[test]
fn node_classification_pipelined_disk_matches_seed_trainer_bit_for_bit() {
    let report = nc_trainer(
        Storage::Disk(DiskConfig::node_cache(8, 6)),
        PipelineConfig::with_workers(2),
    )
    .train(&nc_dataset())
    .unwrap();
    assert_matches_golden(&report, NC_DISK, "nc disk pipelined");
}

#[test]
fn session_facade_reproduces_the_trainer_trajectories() {
    // The `marius::Session` facade must be a pure wrapper: same config, same
    // bits.
    let data = lp_dataset();
    let model = ModelConfig::paper_link_prediction_graphsage(12).shrunk(5, 12);
    let mut train = TrainConfig::quick(2, 9);
    train.batch_size = 128;
    train.num_negatives = 32;
    train.eval_negatives = 64;
    let mut session = marius::Session::builder()
        .dataset(data)
        .model(model)
        .train(train)
        .storage(marius::Storage::Disk(DiskConfig::comet(8, 4)))
        .build()
        .unwrap();
    let report = session.train().unwrap();
    assert_matches_golden(&report, LP_DISK_COMET, "session lp disk comet");
}

//! Chaos suite: the robustness layer's proof obligation (ISSUE 6).
//!
//! A training run on a flaky disk — transient read/write failures, torn
//! staging writes, latency spikes, all injected deterministically by an
//! [`IoFaultPlan`] — must produce **bit-identical** loss/metric trajectories
//! to the same run on a healthy disk, because every fault is absorbed inside
//! the storage layer and never perturbs an RNG stream. A *permanent* device
//! failure must surface as a clean typed error (threads joined, no torn
//! files), never a panic or a hang. And `Session::train_with_recovery` must
//! ride out a device outage longer than the retry budget by resuming from
//! the last checkpoint, again bit-identically to an uninterrupted run.
//!
//! Seeds come from `MARIUS_CHAOS_SEED` (a single u64) when set — the CI
//! chaos-smoke matrix drives one seed per job — and default to three fixed
//! seeds locally. Set `MARIUS_CHAOS_JSON=1` to emit a
//! `BENCH_chaos_<seed>.json` trajectory per flaky run.

use marius::{
    DiskConfig, ExperimentReport, IoFaultPlan, LinkPredictionTask, ModelConfig,
    NodeClassificationTask, PipelineConfig, Session, Storage, StorageError, Task, Telemetry,
    TrainConfig,
};
use marius_graph::datasets::{DatasetSpec, ScaledDataset};
use std::path::PathBuf;

/// Chaos seeds: `MARIUS_CHAOS_SEED` when set, else a fixed local trio.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("MARIUS_CHAOS_SEED") {
        Ok(s) => vec![s.trim().parse().expect("MARIUS_CHAOS_SEED must be a u64")],
        Err(_) => vec![7, 1234, 990017],
    }
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "marius-chaos-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lp_dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.015), 3)
}

fn lp_model() -> ModelConfig {
    ModelConfig::paper_link_prediction_graphsage(12).shrunk(5, 12)
}

fn lp_train(epochs: usize) -> TrainConfig {
    let mut train = TrainConfig::quick(epochs, 9);
    train.batch_size = 128;
    train.num_negatives = 32;
    train.eval_negatives = 64;
    train
}

fn nc_dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::ogbn_arxiv().scaled(0.008), 21)
}

fn nc_model() -> ModelConfig {
    let mut model = ModelConfig::paper_node_classification(128, 16);
    model.num_layers = 2;
    model.fanouts = vec![8, 5];
    model
}

fn nc_train(epochs: usize) -> TrainConfig {
    let mut train = TrainConfig::quick(epochs, 13);
    train.batch_size = 128;
    train
}

/// Loss/metric/examples must match bit for bit, epoch by epoch; the IO
/// counters (`io_retries`, `faults_injected`) are *expected* to differ.
fn assert_bit_identical(clean: &ExperimentReport, flaky: &ExperimentReport, label: &str) {
    assert_eq!(
        clean.epochs.len(),
        flaky.epochs.len(),
        "{label}: epoch count mismatch"
    );
    for (a, b) in clean.epochs.iter().zip(flaky.epochs.iter()) {
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "{label}: epoch {} loss {} != {}",
            a.epoch,
            a.loss,
            b.loss
        );
        assert_eq!(
            a.metric.to_bits(),
            b.metric.to_bits(),
            "{label}: epoch {} metric {} != {}",
            a.epoch,
            a.metric,
            b.metric
        );
        assert_eq!(
            a.examples, b.examples,
            "{label}: epoch {} examples",
            a.epoch
        );
    }
}

fn maybe_emit_json(report: &ExperimentReport, seed: u64, label: &str) {
    if std::env::var("MARIUS_CHAOS_JSON").as_deref() == Ok("1") {
        let path = format!("BENCH_chaos_{label}_{seed}.json");
        std::fs::write(&path, report.to_json()).expect("write chaos trajectory");
    }
}

/// Runs the same disk training twice per seed under `pipeline` — healthy
/// device vs `IoFaultPlan::flaky(seed)` — and asserts the flaky run both
/// *absorbed* faults (non-zero injected/retry counters) and reproduced the
/// healthy trajectory bit for bit. The flaky run records into a recorder
/// whose `storage.faults_injected` must match the injector exactly, on the
/// threaded schedule too.
fn flaky_is_bit_exact<T: Task + Default + Clone>(
    label: &str,
    task: T,
    data: impl Fn() -> ScaledDataset,
    model: ModelConfig,
    train: TrainConfig,
    disk: DiskConfig,
    pipeline: PipelineConfig,
) {
    for seed in chaos_seeds() {
        let mut clean = Session::builder()
            .task(task.clone())
            .dataset(data())
            .model(model.clone())
            .train(train.clone())
            .storage(Storage::Disk(disk.clone()))
            .pipeline(pipeline.clone())
            .build()
            .unwrap();
        let clean_report = clean.train().unwrap();

        let injector = IoFaultPlan::flaky(seed).build();
        let telemetry = Telemetry::enabled();
        let mut flaky = Session::builder()
            .task(task.clone())
            .dataset(data())
            .model(model.clone())
            .train(train.clone())
            .storage(Storage::Disk(disk.clone()))
            .pipeline(pipeline.clone())
            .fault_injector(injector.clone())
            .telemetry(&telemetry)
            .build()
            .unwrap();
        let flaky_report = flaky.train().unwrap();
        assert_eq!(
            telemetry
                .metrics_snapshot()
                .counter("storage.faults_injected"),
            Some(injector.faults_injected()),
            "{label}/seed {seed}: counted faults disagree with the injector"
        );

        let injected: u64 = flaky_report.epochs.iter().map(|e| e.faults_injected).sum();
        let retries: u64 = flaky_report.epochs.iter().map(|e| e.io_retries).sum();
        assert!(injected > 0, "{label}/seed {seed}: plan injected no faults");
        assert!(
            retries > 0,
            "{label}/seed {seed}: no transient fault was retried"
        );
        assert_bit_identical(
            &clean_report,
            &flaky_report,
            &format!("{label}/seed {seed}"),
        );
        maybe_emit_json(&flaky_report, seed, label);
    }
}

#[test]
fn link_prediction_survives_a_flaky_disk_bit_exactly() {
    for pipeline in [PipelineConfig::with_workers(2), PipelineConfig::disabled()] {
        flaky_is_bit_exact(
            "lp",
            LinkPredictionTask,
            lp_dataset,
            lp_model(),
            lp_train(3),
            DiskConfig::comet(8, 4),
            pipeline,
        );
    }
}

#[test]
fn node_classification_survives_a_flaky_disk_bit_exactly() {
    for pipeline in [PipelineConfig::with_workers(2), PipelineConfig::disabled()] {
        flaky_is_bit_exact(
            "nc",
            NodeClassificationTask,
            nc_dataset,
            nc_model(),
            nc_train(3),
            DiskConfig::node_cache(8, 6),
            pipeline,
        );
    }
}

/// A device that dies mid-run (every operation past a point fails
/// permanently) produces a typed, non-transient [`StorageError`] on the
/// caller's thread — no panic, no deadlock — with the injection visible in
/// the error text.
#[test]
fn permanent_device_failure_surfaces_as_a_typed_error() {
    let mut session = Session::builder()
        .dataset(lp_dataset())
        .model(lp_model())
        .train(lp_train(3))
        .storage(Storage::Disk(DiskConfig::comet(8, 4)))
        .pipeline(PipelineConfig::with_workers(2))
        .fault_injector(IoFaultPlan::permanent(7, 50).build())
        .build()
        .unwrap();
    let err = session.train().expect_err("the device dies 50 ops in");
    assert!(
        !err.is_transient(),
        "a dead device must not read as retryable"
    );
    let text = format!("{err}");
    assert!(
        text.contains("permanent"),
        "error should name the injected permanent failure: {text}"
    );
    match err {
        StorageError::Pipeline { .. } | StorageError::Io(_) => {}
        other => panic!("expected a pipeline-stage or io error, got: {other}"),
    }
}

/// A device outage longer than the retry budget fails the run; with a
/// checkpoint every epoch, `train_with_recovery` resumes past it and the
/// final trajectory is bit-identical to an uninterrupted healthy run, with
/// the recovery count stamped on post-outage epochs.
#[test]
fn recovery_from_an_outage_is_bit_exact() {
    let mut oracle = Session::builder()
        .dataset(lp_dataset())
        .model(lp_model())
        .train(lp_train(4))
        .storage(Storage::Disk(DiskConfig::comet(8, 4)))
        .pipeline(PipelineConfig::with_workers(2))
        .build()
        .unwrap();
    let oracle_report = oracle.train().unwrap();

    let dir = temp_dir("recovery");
    // A quiet plan whose injector we arm at runtime: after epoch 1 finishes
    // (and its checkpoint lands), schedule a 24-operation outage — longer
    // than any single retry budget (4 retries = 5 attempts) can absorb, so
    // the run *must* fail and recover rather than ride it out.
    let injector = IoFaultPlan::quiet(0).build();
    let hook_injector = injector.clone();
    let mut flaky = Session::builder()
        .dataset(lp_dataset())
        .model(lp_model())
        .train(lp_train(4))
        .storage(Storage::Disk(DiskConfig::comet(8, 4)))
        .pipeline(PipelineConfig::with_workers(2))
        .fault_injector(injector.clone())
        .checkpoint_to(&dir, 1)
        .on_epoch(move |epoch| {
            if epoch.epoch == 1 {
                hook_injector.arm_outage(120, 24);
            }
        })
        .build()
        .unwrap();
    let recovered = flaky
        .train_with_recovery(8)
        .expect("recovery rides out the outage");

    assert_bit_identical(&oracle_report, &recovered, "recovery");
    assert!(
        injector.faults_injected() > 0,
        "the outage window never fired — the test proved nothing"
    );
    let last = recovered.epochs.last().expect("4 epochs");
    assert!(
        last.recoveries > 0,
        "the run recovered but no recovery was stamped on the final epoch"
    );
    assert!(
        recovered.epochs.first().map(|e| e.recoveries) <= Some(last.recoveries),
        "recovery stamps must be non-decreasing across epochs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

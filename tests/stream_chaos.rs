//! Streamed-ingest chaos suite (ISSUE 10, satellite 1): delta staging rides
//! the same fault-injection and retry machinery as every other storage path.
//!
//! A streamed run on a flaky disk — transient failures and torn writes
//! injected into training IO *and* the ingest staging writes — must be
//! bit-identical to the fault-free run, because every absorbed fault stays
//! inside the storage layer. And a delta whose staging write tears beyond
//! the retry budget must never be applied: the error surfaces before the
//! cursor advances, the buckets stay untouched, and the staging directory
//! holds only `.tmp` litter — never a readable half-written `delta-*.bin`.
//!
//! Seeds come from `MARIUS_CHAOS_SEED` (a single u64) when set, defaulting
//! to a fixed local trio, mirroring `tests/chaos.rs`.

use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::stream::{delta_file_name, EdgeStream, Ingestor};
use marius::{
    DiskConfig, ExperimentReport, IoEnv, IoFaultPlan, ModelConfig, PipelineConfig, RetryPolicy,
    Session, Storage, StreamConfig, Task, TemporalLinkPredictionTask, TrainConfig,
};
use marius_storage::PartitionStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chaos seeds: `MARIUS_CHAOS_SEED` when set, else a fixed local trio.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("MARIUS_CHAOS_SEED") {
        Ok(s) => vec![s.trim().parse().expect("MARIUS_CHAOS_SEED must be a u64")],
        Err(_) => vec![7, 1234, 990017],
    }
}

fn dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.015), 3)
}

fn model() -> ModelConfig {
    ModelConfig::paper_distmult(8)
}

fn train_config() -> TrainConfig {
    let mut train = TrainConfig::quick(1, 9);
    train.batch_size = 128;
    train.num_negatives = 32;
    train.eval_negatives = 64;
    train
}

fn assert_bit_identical(clean: &ExperimentReport, flaky: &ExperimentReport, label: &str) {
    assert_eq!(clean.epochs.len(), flaky.epochs.len(), "{label}: epochs");
    for (a, b) in clean.epochs.iter().zip(flaky.epochs.iter()) {
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "{label}: epoch {} loss",
            a.epoch
        );
        assert_eq!(
            a.metric.to_bits(),
            b.metric.to_bits(),
            "{label}: epoch {} metric",
            a.epoch
        );
        assert_eq!(
            a.examples, b.examples,
            "{label}: epoch {} examples",
            a.epoch
        );
        assert_eq!(
            a.edges_ingested, b.edges_ingested,
            "{label}: epoch {} edges_ingested",
            a.epoch
        );
    }
}

/// A streamed run under `IoFaultPlan::flaky` — faults hitting both training
/// IO and the delta staging writes — absorbs every fault and reproduces the
/// fault-free trajectory bit for bit, ingest stamps included.
#[test]
fn flaky_streamed_run_is_bit_identical_to_fault_free() {
    // 2 cycles × 2 epochs; the boundary after epoch 1 ingests 2 × 24 edges.
    let cfg = StreamConfig::new(29, 24, 2, 2, 2);
    for seed in chaos_seeds() {
        let mut clean = Session::builder()
            .task(TemporalLinkPredictionTask)
            .dataset(dataset())
            .model(model())
            .train(train_config())
            .storage(Storage::Disk(DiskConfig::comet(8, 4)))
            .pipeline(PipelineConfig::with_workers(2))
            .build()
            .unwrap();
        let clean_report = clean.stream(cfg).unwrap();

        let mut flaky = Session::builder()
            .task(TemporalLinkPredictionTask)
            .dataset(dataset())
            .model(model())
            .train(train_config())
            .storage(Storage::Disk(DiskConfig::comet(8, 4)))
            .pipeline(PipelineConfig::with_workers(2))
            .fault_injector(IoFaultPlan::flaky(seed).build())
            .build()
            .unwrap();
        let flaky_report = flaky.stream(cfg).unwrap();

        let injected: u64 = flaky_report.epochs.iter().map(|e| e.faults_injected).sum();
        let retries: u64 = flaky_report.epochs.iter().map(|e| e.io_retries).sum();
        assert!(injected > 0, "seed {seed}: plan injected no faults");
        assert!(retries > 0, "seed {seed}: no transient fault was retried");
        assert!(
            flaky_report.epochs.iter().any(|e| e.edges_ingested > 0),
            "seed {seed}: the streamed run never ingested"
        );
        assert_bit_identical(&clean_report, &flaky_report, &format!("seed {seed}"));
    }
}

/// A staging write that tears beyond the retry budget aborts the ingest
/// cleanly: no readable delta file lands, only `.tmp` litter; the cursor does
/// not advance; the bucket files, the run's only record of its edges, are
/// untouched byte for byte.
#[test]
fn torn_delta_mid_ingest_is_never_applied() {
    let data = dataset();
    let disk = DiskConfig::comet(8, 4);
    let task = TemporalLinkPredictionTask;
    let store = PartitionStore::open_temp("stream-torn-setup").unwrap();
    store.clear().unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let setup = task
        .disk_setup(&model(), &data, &disk, store, &mut rng)
        .unwrap();
    let bucket_files = || {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(setup.buffer.store().root())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|path| path.to_string_lossy().contains("edge_bucket_"))
            .map(|path| (path.display().to_string(), std::fs::read(&path).unwrap()))
            .collect();
        files.sort();
        files
    };
    let files_before = bucket_files();
    assert!(!files_before.is_empty());

    // Every staging write fails and tears, and the budget allows no retries:
    // the first delta's stage is guaranteed to die torn.
    let torn_plan = IoFaultPlan {
        write_fail: 1.0,
        torn_write: 1.0,
        max_consecutive: u32::MAX,
        ..IoFaultPlan::quiet(5)
    };
    let env = IoEnv {
        faults: Some(torn_plan.build()),
        retry: RetryPolicy::no_retries(),
        ..IoEnv::default()
    };
    let staging = env
        .open_store(PartitionStore::temp_path("stream-torn-staging"))
        .unwrap();
    staging.clear().unwrap();
    let staging_root = staging.root().to_path_buf();
    let ingestor = Ingestor::new(EdgeStream::new(5, data.num_nodes(), 3, 16), staging);

    let err = ingestor.ingest(&setup, 2).unwrap_err();
    assert!(
        format!("{err}").contains("injected"),
        "unexpected error: {err}"
    );

    // The failed delta never became a readable file — at most `.tmp` litter.
    assert!(!staging_root.join(delta_file_name(0)).exists());
    let leftovers: Vec<String> = std::fs::read_dir(&staging_root)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        leftovers.iter().all(|name| name.ends_with(".tmp")),
        "non-tmp litter after torn stage: {leftovers:?}"
    );
    assert!(
        !leftovers.is_empty(),
        "expected a torn .tmp prefix to remain"
    );

    // Cursor and bucket files are exactly as before the attempt.
    assert_eq!(ingestor.cursor().batches_applied, 0);
    assert_eq!(ingestor.cursor().edges_ingested, 0);
    assert!(
        bucket_files() == files_before,
        "torn delta reached the bucket files"
    );
    let _ = setup.buffer.store().clear();
}

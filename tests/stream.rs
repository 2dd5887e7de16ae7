//! Golden streamed-run suite (ISSUE 10): the continuous-training loop's
//! determinism and serving obligations.
//!
//! A streamed run — ingest seeded edge batches at epoch boundaries, fine-tune
//! between them — must be **bit-identical** across reruns, across the
//! sequential and pipelined executors, and when resumed from a mid-loop
//! checkpoint (the manifest's stream cursor replayed over the base dataset).
//! And a `serve_watching` server following the run's checkpoint directory
//! must answer every query exactly like a fresh `Server::from_checkpoint`
//! oracle, epoch by epoch.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::graph::{NodeId, RelId};
use marius::{
    DiskConfig, EpochReport, ExperimentReport, ModelConfig, PipelineConfig, Prediction,
    ServeConfig, Server, Session, Storage, StorageError, StreamConfig, Telemetry,
    TemporalLinkPredictionTask, TrainConfig, ZipfWorkload,
};

fn dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.015), 3)
}

fn model() -> ModelConfig {
    ModelConfig::paper_distmult(8)
}

fn train_config() -> TrainConfig {
    // The epoch target is overridden by `Session::stream` (cycles × epochs
    // per cycle); only the seed and batch geometry matter here.
    let mut train = TrainConfig::quick(1, 9);
    train.batch_size = 128;
    train.num_negatives = 32;
    train.eval_negatives = 64;
    train
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "marius-stream-test-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Loss/metric/examples/ingest stamps must match bit for bit, epoch by epoch.
fn assert_bit_identical(a: &ExperimentReport, b: &ExperimentReport, label: &str) {
    assert_eq!(a.epochs.len(), b.epochs.len(), "{label}: epoch count");
    for (x, y) in a.epochs.iter().zip(b.epochs.iter()) {
        assert_eq!(
            x.loss.to_bits(),
            y.loss.to_bits(),
            "{label}: epoch {} loss {} != {}",
            x.epoch,
            x.loss,
            y.loss
        );
        assert_eq!(
            x.metric.to_bits(),
            y.metric.to_bits(),
            "{label}: epoch {} metric {} != {}",
            x.epoch,
            x.metric,
            y.metric
        );
        assert_eq!(
            x.examples, y.examples,
            "{label}: epoch {} examples",
            x.epoch
        );
        assert_eq!(
            x.edges_ingested, y.edges_ingested,
            "{label}: epoch {} edges_ingested",
            x.epoch
        );
    }
}

#[derive(Debug, Clone)]
enum Query {
    Pairwise(Vec<(NodeId, RelId, NodeId)>),
    TopK(NodeId, RelId),
    Knn(NodeId),
}

fn make_queries(count: usize, num_nodes: u64, num_relations: u32, seed: u64) -> Vec<Query> {
    let mut workload = ZipfWorkload::new(num_nodes, num_relations, 1.0, seed);
    (0..count)
        .map(|i| match i % 3 {
            0 => Query::Pairwise((0..8).map(|_| workload.next_triple()).collect()),
            1 => {
                let (src, rel, _) = workload.next_triple();
                Query::TopK(src, rel)
            }
            _ => Query::Knn(workload.next_node()),
        })
        .collect()
}

/// Runs one query and encodes the answer as exact bit patterns, so equality
/// comparisons are bit-identity, not approximate.
fn run_query(server: &Server, query: &Query) -> Vec<u64> {
    fn encode(preds: &[Prediction]) -> Vec<u64> {
        preds
            .iter()
            .flat_map(|p| [p.node, p.score.to_bits() as u64])
            .collect()
    }
    match query {
        Query::Pairwise(triples) => server
            .score_pairs(triples)
            .unwrap()
            .iter()
            .map(|s| s.to_bits() as u64)
            .collect(),
        Query::TopK(src, rel) => encode(&server.top_k(*src, *rel, 10).unwrap()),
        Query::Knn(node) => encode(&server.knn(*node, 10).unwrap()),
    }
}

/// One streamed run: temporal task, out-of-core COMET storage, the given
/// executor, `cfg`'s ingest/fine-tune loop.
fn streamed_run(
    cfg: StreamConfig,
    pipeline: PipelineConfig,
    telemetry: &Telemetry,
) -> ExperimentReport {
    let mut session = Session::builder()
        .task(TemporalLinkPredictionTask)
        .dataset(dataset())
        .model(model())
        .train(train_config())
        .storage(Storage::Disk(DiskConfig::comet(8, 4)))
        .pipeline(pipeline)
        .telemetry(telemetry)
        .build()
        .unwrap();
    session.stream(cfg).unwrap()
}

/// Reruns and the sequential/pipelined executor pair produce bit-identical
/// trajectories; `edges_ingested` is stamped exactly at ingest boundaries;
/// the `ingest.*` counters account for every staged delta.
#[test]
fn streamed_run_is_bit_identical_across_reruns_and_executors() {
    // 3 cycles × 1 epoch, 2 batches of 32 per boundary; the final boundary
    // never ingests, so epochs 0 and 1 grow the graph and epoch 2 does not.
    let cfg = StreamConfig::new(11, 32, 2, 1, 3);

    let telemetry = Telemetry::enabled();
    let first = streamed_run(cfg, PipelineConfig::disabled(), &telemetry);
    let rerun = streamed_run(cfg, PipelineConfig::disabled(), &Telemetry::disabled());
    let piped = streamed_run(cfg, PipelineConfig::with_workers(2), &Telemetry::disabled());

    assert_bit_identical(&first, &rerun, "rerun");
    assert_bit_identical(&first, &piped, "sequential vs pipelined");

    let stamps: Vec<u64> = first.epochs.iter().map(|e| e.edges_ingested).collect();
    assert_eq!(stamps, vec![64, 64, 0], "ingest stamps at boundaries only");

    let counters = telemetry.metrics_snapshot();
    assert_eq!(counters.counter("ingest.edges_appended"), Some(128));
    assert_eq!(counters.counter("ingest.batches_staged"), Some(4));
    assert_eq!(counters.counter("ingest.deltas_applied"), Some(4));
    assert!(counters.counter("ingest.apply_ns").unwrap() > 0);
}

/// An interrupted streamed run resumed via `Session::resume_streamed`
/// reproduces the uninterrupted run bit for bit — including the
/// `edges_ingested` stamps of the already-completed epochs, which round-trip
/// through the checkpoint manifest.
#[test]
fn resumed_streamed_run_matches_the_uninterrupted_run() {
    // 3 cycles × 2 epochs = 6 total; ingest boundaries at epochs 1 and 3.
    let cfg = StreamConfig::new(13, 24, 2, 2, 3);

    let full_dir = temp_dir("full");
    let mut full_session = Session::builder()
        .task(TemporalLinkPredictionTask)
        .dataset(dataset())
        .model(model())
        .train(train_config())
        .storage(Storage::Disk(DiskConfig::comet(8, 4)))
        .checkpoint_to(&full_dir, 1)
        .build()
        .unwrap();
    let full = full_session.stream(cfg).unwrap();

    // The interrupted twin: the epoch hook fails after epoch 3's training and
    // ingest but *before* that boundary's checkpoint, so the newest
    // checkpoint on disk is epoch 2's — a genuine mid-loop cut.
    let int_dir = temp_dir("interrupted");
    let mut interrupted = Session::builder()
        .task(TemporalLinkPredictionTask)
        .dataset(dataset())
        .model(model())
        .train(train_config())
        .storage(Storage::Disk(DiskConfig::comet(8, 4)))
        .checkpoint_to(&int_dir, 1)
        .on_epoch_fallible(|epoch| {
            if epoch.epoch == 3 {
                Err(StorageError::checkpoint("simulated operator interruption"))
            } else {
                Ok(())
            }
        })
        .build()
        .unwrap();
    let err = interrupted.stream(cfg).unwrap_err();
    assert!(format!("{err}").contains("interruption"));

    let mut resumed =
        Session::<TemporalLinkPredictionTask>::resume_streamed(&int_dir, cfg).unwrap();
    let report = resumed.train().unwrap();
    assert_bit_identical(&full, &report, "interrupt + resume_streamed");

    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&int_dir);
}

/// `resume_streamed` rejects a frozen-dataset checkpoint and a cursor from a
/// different stream, instead of silently diverging.
#[test]
fn resume_streamed_rejects_foreign_checkpoints() {
    let dir = temp_dir("frozen");
    let mut frozen = Session::builder()
        .task(TemporalLinkPredictionTask)
        .dataset(dataset())
        .model(model())
        .train({
            let mut t = train_config();
            t.epochs = 1;
            t
        })
        .storage(Storage::Disk(DiskConfig::comet(8, 4)))
        .checkpoint_to(&dir, 1)
        .build()
        .unwrap();
    frozen.train().unwrap();

    let err = match Session::<TemporalLinkPredictionTask>::resume_streamed(
        &dir,
        StreamConfig::new(1, 8, 1, 1, 2),
    ) {
        Ok(_) => panic!("frozen-dataset checkpoint accepted"),
        Err(e) => e,
    };
    assert!(format!("{err}").contains("no stream cursor"));

    // A streamed checkpoint, resumed with the wrong stream seed.
    let sdir = temp_dir("foreign-seed");
    let cfg = StreamConfig::new(5, 16, 1, 1, 2);
    let mut streamed = Session::builder()
        .task(TemporalLinkPredictionTask)
        .dataset(dataset())
        .model(model())
        .train(train_config())
        .storage(Storage::Disk(DiskConfig::comet(8, 4)))
        .checkpoint_to(&sdir, 1)
        .build()
        .unwrap();
    streamed.stream(cfg).unwrap();
    let err = match Session::<TemporalLinkPredictionTask>::resume_streamed(
        &sdir,
        StreamConfig::new(6, 16, 1, 1, 2),
    ) {
        Ok(_) => panic!("foreign stream seed accepted"),
        Err(e) => e,
    };
    assert!(format!("{err}").contains("does not match"));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&sdir);
}

/// A server over the run's checkpoint directory, hot-reloaded at every epoch
/// boundary, answers bit-for-bit like a fresh `Server::from_checkpoint`
/// oracle; and a `serve_watching` watcher follows an extended streamed run
/// live to its final fine-tuned epoch.
#[test]
fn serve_watching_matches_a_fresh_oracle_for_every_fine_tuned_epoch() {
    let dir = temp_dir("serve");
    let cfg = StreamConfig::new(17, 24, 1, 1, 3);

    // Per-epoch leg: the hook runs before the boundary's checkpoint is
    // published, so at epoch e the newest on-disk version is epoch e-1's.
    // Reload the long-lived server there and race it against a fresh oracle.
    let served: Arc<Mutex<Option<Server>>> = Arc::new(Mutex::new(None));
    let compared: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let hook = {
        let dir = dir.clone();
        let served = Arc::clone(&served);
        let compared = Arc::clone(&compared);
        move |epoch: &EpochReport| {
            if epoch.epoch == 0 {
                return; // nothing published yet
            }
            let mut slot = served.lock().unwrap();
            let server = slot.get_or_insert_with(|| Server::from_checkpoint(&dir).unwrap());
            server.reload().unwrap();
            let oracle = Server::from_checkpoint(&dir).unwrap();
            assert_eq!(server.epoch(), oracle.epoch(), "reload lagged the oracle");
            let queries = make_queries(12, oracle.num_nodes(), oracle.num_relations() as u32, 99);
            for (i, query) in queries.iter().enumerate() {
                assert_eq!(
                    run_query(server, query),
                    run_query(&oracle, query),
                    "epoch {}: query {i} diverged from the oracle",
                    server.epoch()
                );
            }
            compared.lock().unwrap().push(server.epoch());
        }
    };

    let mut session = Session::builder()
        .task(TemporalLinkPredictionTask)
        .dataset(dataset())
        .model(model())
        .train(train_config())
        .storage(Storage::Disk(DiskConfig::comet(8, 4)))
        .checkpoint_to(&dir, 1)
        .on_epoch(hook)
        .build()
        .unwrap();
    // Server::epoch() reports epochs *completed*: the hook at epoch index e
    // serves the boundary checkpoint of epoch e-1, i.e. e completed epochs.
    session.stream(cfg).unwrap();
    assert_eq!(*compared.lock().unwrap(), vec![1, 2]);

    // Live leg: a watcher spawned on the finished run's directory follows an
    // *extended* streamed resume (two more cycles) as it checkpoints.
    let (watched, watcher) = session
        .serve_watching(ServeConfig::in_memory(), Duration::from_millis(5))
        .unwrap();
    assert_eq!(watched.epoch(), 3);

    let extended = StreamConfig::new(17, 24, 1, 1, 5);
    let mut resumed =
        Session::<TemporalLinkPredictionTask>::resume_streamed(&dir, extended).unwrap();
    resumed.train().unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    while watched.epoch() != 5 {
        assert!(
            Instant::now() < deadline,
            "watcher never hot-swapped to the final epoch (stuck at {})",
            watched.epoch()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let oracle = Server::from_checkpoint(&dir).unwrap();
    assert_eq!(oracle.epoch(), 5);
    let queries = make_queries(12, oracle.num_nodes(), oracle.num_relations() as u32, 41);
    for (i, query) in queries.iter().enumerate() {
        assert_eq!(
            run_query(&watched, query),
            run_query(&oracle, query),
            "watched server: query {i} diverged from the final-epoch oracle"
        );
    }
    watcher.stop();

    let _ = std::fs::remove_dir_all(&dir);
}

//! End-to-end serving tests: checkpoint → `Server`, concurrent queries
//! bit-identical to a single-threaded oracle, deterministic cache telemetry,
//! and checkpoint relocation.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::graph::{NodeId, RelId};
use marius::storage::PartitionStore;
use marius::{
    DiskConfig, LinkPredictionTask, ModelConfig, Prediction, ServeConfig, Server, Session, Storage,
    Telemetry, TrainConfig, ZipfWorkload,
};

fn tiny_lp() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.01), 5)
}

fn quick_train(epochs: usize) -> TrainConfig {
    let mut train = TrainConfig::quick(epochs, 5);
    train.batch_size = 128;
    train.num_negatives = 16;
    train.eval_negatives = 32;
    train
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "marius-serve-test-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Trains a tiny decoder-only model out of core and checkpoints it into `dir`.
fn train_disk_checkpoint(dir: &Path) {
    let mut session = Session::builder()
        .dataset(tiny_lp())
        .model(ModelConfig::paper_distmult(8))
        .train(quick_train(2))
        .storage(Storage::Disk(DiskConfig::comet(8, 2)))
        .checkpoint_to(dir, 1)
        .build()
        .unwrap();
    session.train().unwrap();
}

/// A partition snapshot holding one row fewer than the replayed assignment
/// gives its partition — header consistent, so the file itself reads — makes
/// an in-memory open a typed error, not a slice panic.
#[test]
fn in_memory_open_rejects_a_partition_of_the_wrong_row_count() {
    let dir = temp_dir("short-partition");
    train_disk_checkpoint(&dir);
    let latest = std::fs::read_to_string(dir.join("LATEST")).unwrap();
    let snapshot = PartitionStore::open(dir.join(latest.trim()).join("partitions")).unwrap();
    let (values, state) = snapshot.read_partition(1).unwrap();
    let short = values.len() - 8; // one DistMult(8) row
    snapshot
        .write_partition(1, &values[..short], &state[..short])
        .unwrap();
    let Err(err) = Server::from_checkpoint(&dir) else {
        panic!("a short partition was accepted");
    };
    assert!(format!("{err}").contains("partition 1"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A byte budget that admits some but not all of the tiny checkpoint's eight
/// partitions, so hit, miss and bypass all occur.
const PARTIAL_BUDGET: u64 = 1200;

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

#[test]
fn concurrent_queries_are_bit_identical_to_the_oracle() {
    let dir = temp_dir("concurrent");
    train_disk_checkpoint(&dir);

    // The oracle: single-threaded, fully in-memory backend.
    let oracle = Server::from_checkpoint(&dir).unwrap();
    let queries = make_queries(36, oracle.num_nodes(), oracle.num_relations() as u32, 99);
    let expected: Vec<Vec<u64>> = queries.iter().map(|q| run_query(&oracle, q)).collect();

    // Four threads over one shared out-of-core server, interleaved workload.
    let server =
        Server::from_checkpoint_with(&dir, ServeConfig::read_cache(PARTIAL_BUDGET)).unwrap();
    let results: Mutex<Vec<Option<Vec<u64>>>> = Mutex::new(vec![None; queries.len()]);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let server = &server;
            let queries = &queries;
            let results = &results;
            scope.spawn(move || {
                for (i, query) in queries.iter().enumerate() {
                    if i % 4 == t {
                        let answer = run_query(server, query);
                        results.lock().unwrap()[i] = Some(answer);
                    }
                }
            });
        }
    });
    let results = results.into_inner().unwrap();
    for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
        assert_eq!(
            got.as_ref().expect("every query answered"),
            want,
            "query {i} diverged from the oracle"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_telemetry_is_deterministic_for_a_fixed_zipf_seed() {
    let dir = temp_dir("telemetry");
    train_disk_checkpoint(&dir);

    let run = || {
        let telemetry = Telemetry::enabled();
        let server = Server::from_checkpoint_with(
            &dir,
            ServeConfig::read_cache(PARTIAL_BUDGET).with_telemetry(&telemetry),
        )
        .unwrap();
        let queries = make_queries(24, server.num_nodes(), server.num_relations() as u32, 7);
        for query in &queries {
            run_query(&server, query);
        }
        let snap = telemetry.metrics_snapshot();
        (
            snap.counter("server.cache.hit").unwrap_or(0),
            snap.counter("server.cache.miss").unwrap_or(0),
            snap.counter("server.cache.bypass").unwrap_or(0),
        )
    };
    let (hit_a, miss_a, bypass_a) = run();
    let (hit_b, miss_b, bypass_b) = run();
    assert_eq!((hit_a, miss_a, bypass_a), (hit_b, miss_b, bypass_b));
    // The partial budget makes all three outcomes occur: misses fill the
    // admitted set, hits re-touch it, bypasses hit the cold partitions.
    assert!(hit_a > 0, "expected cache hits, got {hit_a}");
    assert!(miss_a > 0, "expected cache misses, got {miss_a}");
    assert!(bypass_a > 0, "expected cache bypasses, got {bypass_a}");

    let _ = std::fs::remove_dir_all(&dir);
}

fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

#[test]
fn relocated_checkpoint_serves_and_resumes_unchanged() {
    let original = temp_dir("relocate-src");
    train_disk_checkpoint(&original);

    let moved = temp_dir("relocate-dst");
    copy_tree(&original, &moved);

    // Same queries, both roots, both backends: answers must be bit-identical.
    let here = Server::from_checkpoint(&original).unwrap();
    let there =
        Server::from_checkpoint_with(&moved, ServeConfig::read_cache(PARTIAL_BUDGET)).unwrap();
    let queries = make_queries(12, here.num_nodes(), here.num_relations() as u32, 3);
    for (i, query) in queries.iter().enumerate() {
        assert_eq!(
            run_query(&here, query),
            run_query(&there, query),
            "query {i} diverged after relocation"
        );
    }
    drop(here);
    // Deleting the original proves the relocated copy is self-contained.
    std::fs::remove_dir_all(&original).unwrap();

    let mut resumed: Session<LinkPredictionTask> = Session::resume_from_until(&moved, 3).unwrap();
    let report = resumed.train().unwrap();
    assert_eq!(report.epochs.len(), 3);

    let _ = std::fs::remove_dir_all(&moved);
}

#[test]
fn session_serve_answers_ranked_queries_consistently() {
    let dir = temp_dir("session");
    let mut session = Session::builder()
        .dataset(tiny_lp())
        .model(ModelConfig::paper_distmult(8))
        .train(quick_train(1))
        .checkpoint_to(&dir, 1)
        .build()
        .unwrap();
    session.train().unwrap();

    let server = session.serve().unwrap();
    let (src, rel) = (0u64, 1u32);
    let top = server.top_k(src, rel, 10).unwrap();
    assert_eq!(top.len(), 10);
    for pair in top.windows(2) {
        assert!(
            pair[0].score > pair[1].score
                || (pair[0].score == pair[1].score && pair[0].node < pair[1].node),
            "top-k not ranked: {pair:?}"
        );
    }
    // Every ranked score must match the pairwise kernel bit-for-bit.
    for p in &top {
        let direct = server.score(src, rel, p.node).unwrap();
        assert_eq!(direct.to_bits(), p.score.to_bits());
    }
    // Restricting candidates to the winners reproduces the ranking.
    let ids: Vec<u64> = top.iter().map(|p| p.node).collect();
    let among = server.top_k_among(src, rel, 10, &ids).unwrap();
    assert_eq!(among, top);

    // k-NN excludes the query node and ranks deterministically.
    let neighbours = server.knn(3, 5).unwrap();
    assert_eq!(neighbours.len(), 5);
    assert!(neighbours.iter().all(|p| p.node != 3));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_unsupported_configurations() {
    // No checkpoint directory on the session.
    let mut session = Session::builder()
        .dataset(tiny_lp())
        .model(ModelConfig::paper_distmult(8))
        .train(quick_train(1))
        .build()
        .unwrap();
    session.train().unwrap();
    let err = session.serve().unwrap_err();
    assert!(format!("{err}").contains("checkpoint directory"), "{err}");

    // Encoder-bearing checkpoints have no serving semantics.
    let dir = temp_dir("reject-encoder");
    let mut session = Session::builder()
        .dataset(tiny_lp())
        .model(ModelConfig::paper_link_prediction_graphsage(8).shrunk(5, 8))
        .train(quick_train(1))
        .checkpoint_to(&dir, 1)
        .build()
        .unwrap();
    session.train().unwrap();
    let err = Server::from_checkpoint(&dir).unwrap_err();
    assert!(format!("{err}").contains("decoder-only"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);

    // Read-cache serving needs a partition snapshot.
    let dir = temp_dir("reject-mem");
    let mut session = Session::builder()
        .dataset(tiny_lp())
        .model(ModelConfig::paper_distmult(8))
        .train(quick_train(1))
        .checkpoint_to(&dir, 1)
        .build()
        .unwrap();
    session.train().unwrap();
    let err = Server::from_checkpoint_with(&dir, ServeConfig::read_cache(1 << 20)).unwrap_err();
    assert!(format!("{err}").contains("partition snapshot"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

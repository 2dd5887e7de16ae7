//! Serve chaos suite: the read path under injected faults, overload, and
//! hot reload.
//!
//! The contract under test is the serving robustness invariant: faults
//! degrade service *predictably, never into wrong answers*. Concretely —
//!
//! * a seeded flaky device serves every query **bit-identical** to a
//!   fault-free in-memory oracle, with nonzero, seed-deterministic
//!   `server.error.transient`/retry counters;
//! * a permanent device failure surfaces as a typed
//!   [`ServeError::Permanent`], never a panic;
//! * a hot reload during a 4-thread query storm answers every query
//!   bit-identical to exactly one of the two checkpoint oracles — no torn or
//!   erroring queries during the swap;
//! * overload sheds and deadlines trip as typed rejections while admitted
//!   queries keep answering bit-exactly;
//! * a corrupted cached block quarantines its partition and the query serves
//!   verified bytes from disk.
//!
//! Seeds come from `MARIUS_SERVE_CHAOS_SEED` (a single u64) when set — the
//! CI serve-chaos matrix fans one job per seed — else a fixed local pair.
//! Set `MARIUS_SERVE_CHAOS_JSON=1` to emit `BENCH_serve_chaos_<seed>.json`
//! counter evidence per seed.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::graph::{NodeId, RelId};
use marius::{
    DiskConfig, IoFaultPlan, LinkPredictionTask, ModelConfig, Prediction, RetryPolicy, ServeConfig,
    ServeError, Server, Session, Storage, Telemetry, TrainConfig, ZipfWorkload,
};

fn serve_chaos_seeds() -> Vec<u64> {
    match std::env::var("MARIUS_SERVE_CHAOS_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("MARIUS_SERVE_CHAOS_SEED must be a u64")],
        Err(_) => vec![11, 4242],
    }
}

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
        "marius-serve-chaos-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Trains a tiny decoder-only model out of core and checkpoints it into `dir`.
fn train_disk_checkpoint(dir: &Path, epochs: usize) {
    let mut session = Session::builder()
        .dataset(tiny_lp())
        .model(ModelConfig::paper_distmult(8))
        .train(quick_train(epochs))
        .storage(Storage::Disk(DiskConfig::comet(8, 2)))
        .checkpoint_to(dir, 1)
        .build()
        .unwrap();
    session.train().unwrap();
}

/// Admits some but not all of the eight partitions, so flaky disk reads stay
/// on the hot path (bypassed partitions re-read the device every touch).
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
fn try_query(server: &Server, query: &Query) -> Result<Vec<u64>, ServeError> {
    fn encode(preds: &[Prediction]) -> Vec<u64> {
        preds
            .iter()
            .flat_map(|p| [p.node, p.score.to_bits() as u64])
            .collect()
    }
    Ok(match query {
        Query::Pairwise(triples) => server
            .score_pairs(triples)?
            .iter()
            .map(|s| s.to_bits() as u64)
            .collect(),
        Query::TopK(src, rel) => encode(&server.top_k(*src, *rel, 10)?),
        Query::Knn(node) => encode(&server.knn(*node, 10)?),
    })
}

fn run_query(server: &Server, query: &Query) -> Vec<u64> {
    try_query(server, query).expect("query failed")
}

/// `(query index, bit-encoded answer or typed rejection)` per attempt.
type Outcome = (usize, Result<Vec<u64>, ServeError>);

/// A read-fault regime tuned so the *store-level* retry budget (1 retry)
/// gets exhausted a few times per workload — each exhaustion must be
/// absorbed by the serve-level whole-query retry, counting into
/// `server.error.transient` without ever failing a query.
fn exhausting_plan(seed: u64) -> IoFaultPlan {
    IoFaultPlan {
        read_fail: 0.15,
        ..IoFaultPlan::quiet(seed)
    }
}

/// Health and metrics are one count: each `ServerHealth` degradation field
/// equals the `server.*` counter an enabled recorder reports.
fn assert_health_is_the_counters(server: &Server, telemetry: &Telemetry) {
    let health = server.health();
    let snap = telemetry.metrics_snapshot();
    let pairs = [
        ("server.shed", health.shed),
        ("server.deadline_exceeded", health.deadline_exceeded),
        ("server.reload.count", health.reloads),
        ("server.reload.error", health.reload_errors),
    ];
    for (name, field) in pairs {
        assert_eq!(snap.counter(name), Some(field), "{name}: {health:?}");
    }
}

/// Fault-free oracle answers for a fixed query workload over `dir`.
fn oracle_answers(dir: &Path, queries: &[Query]) -> Vec<Vec<u64>> {
    let oracle = Server::from_checkpoint(dir).unwrap();
    queries.iter().map(|q| run_query(&oracle, q)).collect()
}

/// Flaky-disk serving, part A: single-threaded with a deliberately tight
/// store retry budget, so store-budget exhaustions actually occur and the
/// serve layer's whole-query retry has to absorb them. Every answer is
/// bit-identical to the fault-free oracle, and every degradation counter is
/// deterministic for the seed (asserted by running the workload twice).
#[test]
fn flaky_reads_serve_bit_identical_with_deterministic_counters() {
    let dir = temp_dir("flaky-tight");
    train_disk_checkpoint(&dir, 2);

    for seed in serve_chaos_seeds() {
        let queries = {
            let oracle = Server::from_checkpoint(&dir).unwrap();
            make_queries(36, oracle.num_nodes(), oracle.num_relations() as u32, seed)
        };
        let expected = oracle_answers(&dir, &queries);

        let run = || {
            let telemetry = Telemetry::enabled();
            let tight = RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default_transient()
            };
            let server = Server::from_checkpoint_with(
                &dir,
                ServeConfig::read_cache(PARTIAL_BUDGET)
                    .with_telemetry(&telemetry)
                    .with_fault_injector(exhausting_plan(seed).build())
                    .with_retry_policy(tight)
                    .with_query_retries(8),
            )
            .unwrap();
            for (i, query) in queries.iter().enumerate() {
                let got = try_query(&server, query)
                    .unwrap_or_else(|e| panic!("seed {seed} query {i} failed under faults: {e}"));
                assert_eq!(got, expected[i], "seed {seed} query {i} diverged");
            }
            let health = server.health();
            let snap = telemetry.metrics_snapshot();
            assert_eq!(
                snap.counter("server.error.transient").unwrap_or(0),
                health.transient_errors,
                "telemetry and health disagree on transient errors"
            );
            assert_eq!(health.permanent_errors, 0, "seed {seed}");
            (
                health.transient_errors,
                health.store_retries,
                health.faults_injected,
            )
        };

        let (transient_a, retries_a, faults_a) = run();
        let (transient_b, retries_b, faults_b) = run();
        assert_eq!(
            (transient_a, retries_a, faults_a),
            (transient_b, retries_b, faults_b),
            "seed {seed}: degradation counters must be deterministic"
        );
        assert!(transient_a > 0, "seed {seed}: no store-budget exhaustions");
        assert!(retries_a > 0, "seed {seed}: no store-level retries");
        assert!(faults_a > 0, "seed {seed}: no faults injected");

        if std::env::var("MARIUS_SERVE_CHAOS_JSON").as_deref() == Ok("1") {
            let json = format!(
                "{{\n  \"suite\": \"serve_chaos\",\n  \"seed\": {seed},\n  \
                 \"queries\": {},\n  \"transient_errors\": {transient_a},\n  \
                 \"store_retries\": {retries_a},\n  \"faults_injected\": {faults_a},\n  \
                 \"bit_identical_to_oracle\": true\n}}\n",
                queries.len()
            );
            std::fs::write(format!("BENCH_serve_chaos_{seed}.json"), json)
                .expect("write serve chaos evidence");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flaky-disk serving, part B: a 4-thread storm under the *default* store
/// retry budget (4 retries > the plan's consecutive-failure cap of 2), so
/// every store read succeeds within budget regardless of interleaving —
/// queries never error and every answer is bit-identical to the oracle.
#[test]
fn flaky_reads_survive_a_concurrent_storm() {
    let dir = temp_dir("flaky-storm");
    train_disk_checkpoint(&dir, 2);

    for seed in serve_chaos_seeds() {
        let queries = {
            let oracle = Server::from_checkpoint(&dir).unwrap();
            make_queries(36, oracle.num_nodes(), oracle.num_relations() as u32, seed)
        };
        let expected = oracle_answers(&dir, &queries);

        let server = Server::from_checkpoint_with(
            &dir,
            ServeConfig::read_cache(PARTIAL_BUDGET)
                .with_fault_injector(IoFaultPlan::flaky(seed).build()),
        )
        .unwrap();
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
        for (i, (got, want)) in results
            .into_inner()
            .unwrap()
            .iter()
            .zip(&expected)
            .enumerate()
        {
            assert_eq!(
                got.as_ref().expect("every query answered"),
                want,
                "seed {seed} query {i} diverged under flaky storm"
            );
        }
        let injector = server.fault_injector().expect("injector attached");
        assert!(injector.faults_injected() > 0, "seed {seed}: quiet device");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A dead device surfaces as a typed permanent error — counted, not panicked.
#[test]
fn permanent_fault_surfaces_as_typed_error() {
    let dir = temp_dir("permanent");
    train_disk_checkpoint(&dir, 2);

    // A shared quiet injector that the test arms *after* load, so the server
    // opens cleanly and only the query path hits the dead device. The tiny
    // budget keeps most partitions bypassing the cache (fresh disk reads).
    let injector = IoFaultPlan::quiet(3).build();
    let server = Server::from_checkpoint_with(
        &dir,
        ServeConfig::read_cache(1).with_fault_injector(injector.clone()),
    )
    .unwrap();

    // Healthy first: a full-scan query answers while the device is alive.
    let warm = server.top_k(0, 1, 5).unwrap();
    assert_eq!(warm.len(), 5);

    injector.arm_permanent(0);
    let err = server.top_k(0, 1, 5).unwrap_err();
    assert!(
        matches!(err, ServeError::Permanent { .. }),
        "expected a permanent serve error, got: {err}"
    );
    assert!(!err.is_transient());
    let health = server.health();
    assert!(health.permanent_errors >= 1, "{health:?}");
    assert_eq!(health.epoch, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Hot reload under a 4-thread query storm: every answer is bit-identical to
/// exactly one of the two checkpoint oracles (the epoch it pinned), no query
/// errors during the swap, and the server lands on the new epoch.
#[test]
fn hot_reload_storm_answers_from_exactly_one_epoch() {
    let dir = temp_dir("reload-storm");
    train_disk_checkpoint(&dir, 2);

    let telemetry = Telemetry::enabled();
    let server = Server::from_checkpoint_with(
        &dir,
        ServeConfig::read_cache(PARTIAL_BUDGET).with_telemetry(&telemetry),
    )
    .unwrap();
    assert_eq!(server.epoch(), 2);
    let queries = make_queries(36, server.num_nodes(), server.num_relations() as u32, 17);
    let before = oracle_answers(&dir, &queries);

    // Publish epoch 3 while the epoch-2 server stays open.
    let mut resumed: Session<LinkPredictionTask> = Session::resume_from_until(&dir, 3).unwrap();
    resumed.train().unwrap();
    let after = oracle_answers(&dir, &queries);
    assert_ne!(
        before, after,
        "another epoch of training should move the embeddings"
    );

    // Storm: four threads loop the workload while the main thread swaps the
    // snapshot mid-flight. Answers are collected with the epoch-agnostic
    // contract: each must match one oracle *exactly* — no torn mixtures.
    let answers: Mutex<Vec<(usize, Vec<u64>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..4 {
            let server = &server;
            let queries = &queries;
            let answers = &answers;
            scope.spawn(move || {
                for round in 0..3 {
                    for (i, query) in queries.iter().enumerate() {
                        if i % 4 == t {
                            let got = try_query(server, query).unwrap_or_else(|e| {
                                panic!("query {i} round {round} errored during reload: {e}")
                            });
                            answers.lock().unwrap().push((i, got));
                        }
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(5));
        let swapped = server.reload().unwrap();
        assert_eq!(swapped, Some(3), "reload should publish epoch 3");
    });

    for (i, got) in answers.into_inner().unwrap() {
        assert!(
            got == before[i] || got == after[i],
            "query {i} matches neither the epoch-2 nor the epoch-3 oracle"
        );
    }
    assert_eq!(server.epoch(), 3);
    assert_eq!(server.reload().unwrap(), None, "already newest");
    let health = server.health();
    assert_eq!(health.reloads, 1, "{health:?}");
    assert_eq!(health.reload_errors, 0, "{health:?}");
    assert_health_is_the_counters(&server, &telemetry);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `Session::serve_watching` tracks a training run: the background watcher
/// hot-swaps the new checkpoint within a few polls, no restart needed.
#[test]
fn checkpoint_watcher_follows_continued_training() {
    let dir = temp_dir("watcher");
    let mut session = Session::builder()
        .dataset(tiny_lp())
        .model(ModelConfig::paper_distmult(8))
        .train(quick_train(2))
        .storage(Storage::Disk(DiskConfig::comet(8, 2)))
        .checkpoint_to(&dir, 1)
        .build()
        .unwrap();
    session.train().unwrap();

    let (server, watcher) = session
        .serve_watching(
            ServeConfig::read_cache(PARTIAL_BUDGET),
            Duration::from_millis(10),
        )
        .unwrap();
    assert_eq!(server.epoch(), 2);

    let mut resumed: Session<LinkPredictionTask> = Session::resume_from_until(&dir, 3).unwrap();
    resumed.train().unwrap();

    // The watcher polls every 10 ms; give it ample slack on a loaded box.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.epoch() != 3 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.epoch(), 3, "watcher never picked up epoch 3");

    // The swapped-in snapshot answers bit-identically to a fresh oracle.
    let queries = make_queries(9, server.num_nodes(), server.num_relations() as u32, 23);
    let expected = oracle_answers(&dir, &queries);
    for (i, query) in queries.iter().enumerate() {
        assert_eq!(run_query(&server, query), expected[i], "query {i}");
    }
    watcher.stop();
    assert!(server.health().reloads >= 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Reload + retention: checkpoint pruning keeps the two newest versions, so
/// a server that opened the older retained epoch keeps serving (its version
/// directory survives the prune) and picks up the newest on reload.
#[test]
fn reload_survives_checkpoint_pruning() {
    let dir = temp_dir("retention");
    train_disk_checkpoint(&dir, 2);

    // Serving epoch 2 (the newest; epoch 1 is the older retained version).
    let server =
        Server::from_checkpoint_with(&dir, ServeConfig::read_cache(PARTIAL_BUDGET)).unwrap();
    let queries = make_queries(12, server.num_nodes(), server.num_relations() as u32, 41);
    let expected = oracle_answers(&dir, &queries);

    // Training to epoch 3 prunes epoch 1; epoch 2 — the one this server
    // holds — survives as the older retained version, so concurrent queries
    // keep answering bit-identically throughout the prune.
    std::thread::scope(|scope| {
        let server = &server;
        let queries = &queries;
        let expected = &expected;
        let trainer = scope.spawn(|| {
            let mut resumed: Session<LinkPredictionTask> =
                Session::resume_from_until(&dir, 3).unwrap();
            resumed.train().unwrap();
        });
        while !trainer.is_finished() {
            for (i, query) in queries.iter().enumerate() {
                assert_eq!(
                    run_query(server, query),
                    expected[i],
                    "query {i} diverged while training pruned old versions"
                );
            }
        }
    });
    assert!(
        dir.join("epoch-000002").is_dir() && dir.join("epoch-000003").is_dir(),
        "pruning should retain the two newest versions"
    );
    assert!(
        !dir.join("epoch-000001").is_dir(),
        "pruning should drop the third-newest version"
    );

    // The served snapshot is still epoch 2 until an explicit reload.
    assert_eq!(server.epoch(), 2);
    assert_eq!(server.reload().unwrap(), Some(3));
    let fresh = oracle_answers(&dir, &queries);
    for (i, query) in queries.iter().enumerate() {
        assert_eq!(run_query(&server, query), fresh[i], "post-reload query {i}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: a zero deadline trips deterministically as a typed
/// rejection, and a one-slot in-flight budget sheds a concurrent storm while
/// every admitted query still answers bit-identically to the oracle.
#[test]
fn overload_sheds_and_deadlines_trip_as_typed_rejections() {
    let dir = temp_dir("overload");
    train_disk_checkpoint(&dir, 2);

    // Zero deadline: every query is abandoned at its first chunk boundary.
    let strict_telemetry = Telemetry::enabled();
    let strict = Server::from_checkpoint_with(
        &dir,
        ServeConfig::in_memory()
            .with_deadline(Duration::ZERO)
            .with_telemetry(&strict_telemetry),
    )
    .unwrap();
    let err = strict.top_k(0, 1, 5).unwrap_err();
    assert!(
        matches!(err, ServeError::DeadlineExceeded { .. }),
        "expected a deadline rejection, got: {err}"
    );
    assert!(err.is_transient(), "deadline rejections are retryable");
    assert!(strict.health().deadline_exceeded >= 1);
    assert_health_is_the_counters(&strict, &strict_telemetry);

    // One admission slot + a latency-spiking device stretches each query so
    // four hammering threads must collide: excess arrivals shed typed.
    let slow_plan = IoFaultPlan {
        latency_spike: 1.0,
        spike: Duration::from_micros(500),
        ..IoFaultPlan::quiet(9)
    };
    let telemetry = Telemetry::enabled();
    let server = Server::from_checkpoint_with(
        &dir,
        ServeConfig::read_cache(1)
            .with_fault_injector(slow_plan.build())
            .with_max_in_flight(1)
            .with_telemetry(&telemetry),
    )
    .unwrap();
    let oracle = Server::from_checkpoint(&dir).unwrap();
    let queries = make_queries(12, server.num_nodes(), server.num_relations() as u32, 77);
    let expected: Vec<Vec<u64>> = queries.iter().map(|q| run_query(&oracle, q)).collect();

    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let server = &server;
            let queries = &queries;
            let outcomes = &outcomes;
            scope.spawn(move || {
                for (i, query) in queries.iter().enumerate() {
                    let got = try_query(server, query);
                    outcomes.lock().unwrap().push((i, got));
                }
            });
        }
    });

    let outcomes = outcomes.into_inner().unwrap();
    let mut answered = 0usize;
    for (i, outcome) in &outcomes {
        match outcome {
            Ok(got) => {
                answered += 1;
                assert_eq!(got, &expected[*i], "admitted query {i} diverged");
            }
            Err(ServeError::Overloaded { .. }) => {}
            Err(other) => panic!("unexpected failure mode for query {i}: {other}"),
        }
    }
    let health = server.health();
    assert!(answered > 0, "at least the first admitted query answers");
    assert!(
        health.shed > 0,
        "a one-slot budget must shed a 4-thread storm"
    );
    assert_eq!(
        health.shed as usize + answered,
        outcomes.len(),
        "every query either answered or shed: {health:?}"
    );
    assert_health_is_the_counters(&server, &telemetry);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Quarantine degraded mode end to end: corrupting a resident cached block
/// flips the partition to verified read-through — answers stay bit-identical
/// to the oracle and the quarantine is visible through health.
#[test]
fn corrupted_cache_block_quarantines_and_serves_verified_bytes() {
    let dir = temp_dir("quarantine");
    train_disk_checkpoint(&dir, 2);

    let telemetry = Telemetry::enabled();
    // Generous budget: all partitions admitted, so a full scan caches all.
    let server = Server::from_checkpoint_with(
        &dir,
        ServeConfig::read_cache(1 << 20).with_telemetry(&telemetry),
    )
    .unwrap();
    let queries = make_queries(12, server.num_nodes(), server.num_relations() as u32, 13);
    let expected = oracle_answers(&dir, &queries);

    // Warm the cache, then corrupt one resident block in place.
    for (i, query) in queries.iter().enumerate() {
        assert_eq!(run_query(&server, query), expected[i], "warmup query {i}");
    }
    let corrupted = (0..8).find(|&p| server.debug_corrupt_cached_partition(p));
    assert!(corrupted.is_some(), "no resident cached block to corrupt");

    // Every answer still matches the oracle: the poisoned hit is detected,
    // the partition quarantined, and the bytes re-read from disk.
    for (i, query) in queries.iter().enumerate() {
        assert_eq!(
            run_query(&server, query),
            expected[i],
            "query {i} served corrupt bytes"
        );
    }
    assert_eq!(server.cache_quarantined_partitions(), Some(1));
    let snap = telemetry.metrics_snapshot();
    assert_eq!(snap.counter("server.cache.quarantine"), Some(1));
    let health = server.health();
    assert_eq!(health.cache_quarantined_partitions, Some(1), "{health:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

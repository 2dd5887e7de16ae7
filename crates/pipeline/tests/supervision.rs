//! Supervision tests: a panicking stage or a permanently failing device must
//! produce a typed [`StorageError::Pipeline`] after an orderly shutdown —
//! every thread joined, every queue closed, the write-back ledger drained or
//! abandoned, and no torn partition files — never a deadlock or a poisoned
//! lock panic on the caller's thread.

use marius_graph::{Edge, EdgeList, Partitioner};
use marius_pipeline::{run_epoch, EpochPlan, PipelineConfig};
use marius_storage::{IoEnv, IoFaultPlan, PartitionBuffer, PartitionStore, StorageError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 4-partition buffer of capacity 2 over a ring graph, optionally with a
/// (quiet) fault injector attached so tests can arm failure windows.
fn buffer_with(label: &str, faults: bool) -> PartitionBuffer {
    let num_nodes = 40u64;
    let mut rng = StdRng::seed_from_u64(3);
    let mut el = EdgeList::new(num_nodes);
    for i in 0..num_nodes {
        el.push(Edge::new(i, (i + 1) % num_nodes)).unwrap();
    }
    let partitioner = Partitioner::new(4).unwrap();
    let assignment = partitioner.random(num_nodes, &mut rng);
    let buckets = partitioner.build_buckets(&el, &assignment).unwrap();
    let env = IoEnv {
        faults: faults.then(|| IoFaultPlan::quiet(11).build()),
        ..IoEnv::default()
    };
    let store = env.open_store(PartitionStore::temp_path(label)).unwrap();
    store.clear().unwrap();
    let buffer = PartitionBuffer::new(store, assignment, 4, 2, true);
    buffer.initialize_random(0.1, &mut rng).unwrap();
    buffer.initialize_buckets(&buckets).unwrap();
    buffer
}

fn three_step_plan() -> EpochPlan {
    EpochPlan {
        partition_sets: vec![vec![0, 1], vec![2, 3], vec![0, 1]],
        bucket_assignment: vec![vec![], vec![], vec![]],
    }
}

/// A dead device (every op fails permanently) surfaces as a typed pipeline
/// error naming a stage — not a panic, not a hang — and leaves the ledger
/// empty and the store free of staging litter.
#[test]
fn permanent_fault_surfaces_as_a_typed_pipeline_error() {
    let mut buffer = buffer_with("supervision-permanent", true);
    let injector = buffer
        .store()
        .env()
        .faults
        .as_ref()
        .expect("injector attached")
        .clone();
    injector.arm_permanent(0);
    let config = PipelineConfig::with_workers(2);
    let err = run_epoch(
        &config,
        &three_step_plan(),
        &mut buffer,
        7,
        |ctx, _rng, sink| sink(ctx.step),
        |_buffer, _ctx, _step: usize| {},
    )
    .expect_err("every disk op fails permanently");
    match &err {
        StorageError::Pipeline { stage, reason } => {
            assert!(
                stage.contains("prefetch") || stage == "compute",
                "unexpected stage attribution: {stage}"
            );
            assert!(reason.contains("permanent"), "{reason}");
        }
        other => panic!("expected a pipeline-stage error, got: {other}"),
    }
    assert!(!err.is_transient(), "a dead device is not retryable");
    // Orderly shutdown: nothing left pending, no torn staging files.
    assert_eq!(buffer.writeback_ledger().pending_count(), 0);
    for entry in std::fs::read_dir(buffer.store().root()).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "staging litter after failure: {name}"
        );
    }
}

/// A panic in the compute stage converts to a typed error after shutdown,
/// and the same buffer can run a clean epoch afterwards — no lock stays
/// poisoned, no queue stays blocked.
#[test]
fn compute_panic_converts_to_typed_error_and_buffer_survives() {
    let mut buffer = buffer_with("supervision-compute-panic", false);
    let config = PipelineConfig::with_workers(2);
    let err = run_epoch(
        &config,
        &three_step_plan(),
        &mut buffer,
        7,
        |ctx, _rng, sink| sink(ctx.step),
        |_buffer, _ctx, step: usize| {
            if step == 1 {
                panic!("injected compute panic");
            }
        },
    )
    .expect_err("the compute stage panics at step 1");
    match &err {
        StorageError::Pipeline { stage, reason } => {
            assert_eq!(stage, "compute");
            assert!(reason.contains("panicked"), "{reason}");
            assert!(reason.contains("injected compute panic"), "{reason}");
        }
        other => panic!("expected a pipeline-stage error, got: {other}"),
    }
    assert_eq!(buffer.writeback_ledger().pending_count(), 0);

    // The supervision layer contained the panic: the same buffer runs a
    // clean epoch to completion.
    let mut consumed = 0usize;
    run_epoch(
        &config,
        &three_step_plan(),
        &mut buffer,
        9,
        |ctx, _rng, sink| sink(ctx.step),
        |_buffer, _ctx, _step: usize| consumed += 1,
    )
    .expect("clean rerun after a contained panic");
    assert_eq!(consumed, 3);
    buffer.flush().unwrap();
}

/// A panic on a batch-construction worker thread is recorded as the root
/// cause and surfaces as that stage's typed error on the calling thread.
#[test]
fn worker_panic_is_attributed_to_the_batch_worker_stage() {
    let mut buffer = buffer_with("supervision-worker-panic", false);
    let config = PipelineConfig::with_workers(2);
    let err = run_epoch(
        &config,
        &three_step_plan(),
        &mut buffer,
        7,
        |ctx, _rng, sink| {
            if ctx.step == 1 {
                panic!("injected worker panic");
            }
            sink(ctx.step);
        },
        |_buffer, _ctx, _step: usize| {},
    )
    .expect_err("a stage-2 worker panics");
    match &err {
        StorageError::Pipeline { stage, reason } => {
            assert_eq!(stage, "batch-worker");
            assert!(reason.contains("injected worker panic"), "{reason}");
        }
        other => panic!("expected a pipeline-stage error, got: {other}"),
    }
    assert_eq!(buffer.writeback_ledger().pending_count(), 0);
}

//! Supervision tests: a panicking stage or a permanently failing device must
//! produce a typed [`StorageError::Pipeline`] after an orderly shutdown —
//! every thread joined, every queue closed, the write-back ledger drained or
//! abandoned, and no torn partition files — never a deadlock or a poisoned
//! lock panic on the caller's thread.

use super::{run_epoch, PipelineConfig};
use crate::{EpochPlan, IoEnv, IoFaultPlan, PartitionBuffer, PartitionStore, StorageError};
use marius_graph::{Edge, EdgeList, Partitioner};
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
        |_buffer, _step: usize| {},
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
        |_buffer, step: usize| {
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
        |_buffer, _step: usize| consumed += 1,
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
        |_buffer, _step: usize| {},
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
/// The stage a failed epoch names, with the orderly-shutdown checks every
/// failure must pass: nothing left pending in the write-back ledger and no
/// `.tmp` staging litter in the store.
fn failed_stage(err: StorageError, buffer: &PartitionBuffer) -> String {
    assert_eq!(buffer.writeback_ledger().pending_count(), 0);
    for entry in std::fs::read_dir(buffer.store().root()).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "staging litter after failure: {name}"
        );
    }
    match err {
        StorageError::Pipeline { stage, .. } => stage,
        other => panic!("expected a pipeline-stage error, got: {other}"),
    }
}

/// A torn edge-bucket file fails the context prefetcher's read of step 0.
#[test]
fn torn_bucket_is_attributed_to_the_context_prefetch_stage() {
    let mut buffer = buffer_with("supervision-torn-bucket", false);
    let root = buffer.store().root().to_path_buf();
    let bucket = [(0, 0), (0, 1), (1, 0), (1, 1)]
        .iter()
        .map(|(i, j)| root.join(format!("edge_bucket_{i}_{j}.bin")))
        .find(|path| std::fs::metadata(path).is_ok_and(|m| m.len() > 0))
        .expect("step 0 reads a non-empty bucket");
    let bytes = std::fs::read(&bucket).unwrap();
    std::fs::write(&bucket, &bytes[..bytes.len() - 1]).unwrap();
    let err = run_epoch(
        &PipelineConfig::with_workers(2),
        &three_step_plan(),
        &mut buffer,
        7,
        |ctx, _rng, sink| sink(ctx.step),
        |_buffer, _step: usize| {},
    )
    .expect_err("step 0's bucket is torn");
    assert_eq!(failed_stage(err, &buffer), "context-prefetch");
}

/// A missing partition file fails the partition prefetcher's read of step 0.
#[test]
fn missing_partition_is_attributed_to_the_partition_prefetch_stage() {
    let mut buffer = buffer_with("supervision-missing-partition", false);
    std::fs::remove_file(buffer.store().root().join("node_partition_0.bin")).unwrap();
    let err = run_epoch(
        &PipelineConfig::with_workers(2),
        &three_step_plan(),
        &mut buffer,
        7,
        |ctx, _rng, sink| sink(ctx.step),
        |_buffer, _step: usize| {},
    )
    .expect_err("step 0's partition file is gone");
    assert_eq!(failed_stage(err, &buffer), "partition-prefetch");
}

/// A partition whose file `consume` replaces with a non-empty directory
/// fails the drain's write-back of its dirty eviction at step 1. The plan
/// never re-reads the partition, so no other stage touches the path.
#[test]
fn unwritable_partition_is_attributed_to_the_writeback_drain_stage() {
    let mut buffer = buffer_with("supervision-unwritable-partition", false);
    let plan = EpochPlan {
        partition_sets: vec![vec![0, 1], vec![2, 3]],
        bucket_assignment: vec![vec![], vec![]],
    };
    let err = run_epoch(
        &PipelineConfig::with_workers(2),
        &plan,
        &mut buffer,
        7,
        |ctx, _rng, sink| sink(ctx.step),
        |buffer, step: usize| {
            if step == 0 {
                let node = buffer.assignment().nodes_in(0)[0];
                buffer
                    .apply_update(&[node], &marius_tensor::Tensor::ones(1, 4))
                    .unwrap();
                let path = buffer.store().root().join("node_partition_0.bin");
                std::fs::remove_file(&path).unwrap();
                std::fs::create_dir(&path).unwrap();
                std::fs::write(path.join("occupied"), b"x").unwrap();
            }
        },
    )
    .expect_err("partition 0's eviction cannot be written");
    assert_eq!(failed_stage(err, &buffer), "writeback-drain");
}

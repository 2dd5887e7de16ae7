//! Integration tests for the write-back of detached evictions, under both
//! schedules of the step.
//!
//! Both tests run against an *emulated slow device* so the window between a
//! dirty eviction being detached and its bytes landing on disk is wide —
//! without the `writeback` watermark, the threaded prefetcher's re-read of an
//! evicted partition would race (and lose to) the drain and observe stale
//! bytes.

use super::{run_epoch, PipelineConfig};
use crate::{EpochPlan, IoCostModel, PartitionBuffer, PartitionStore};
use marius_graph::{Edge, EdgeList, NodeId, Partitioner};
use marius_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A device slow enough that one partition write takes tens of milliseconds:
/// plenty of time for an unsynchronised prefetcher to read stale bytes.
fn slow_model() -> IoCostModel {
    IoCostModel {
        bandwidth_bytes_per_sec: 8.0e3,
        iops: 1.0e9,
        block_size: 1,
    }
}

/// A 4-partition buffer of capacity 2 on a throttled store, with a ring
/// graph's buckets materialised.
fn slow_buffer(label: &str) -> PartitionBuffer {
    let num_nodes = 40u64;
    let mut rng = StdRng::seed_from_u64(3);
    let mut el = EdgeList::new(num_nodes);
    for i in 0..num_nodes {
        el.push(Edge::new(i, (i + 1) % num_nodes)).unwrap();
    }
    let partitioner = Partitioner::new(4).unwrap();
    let assignment = partitioner.random(num_nodes, &mut rng);
    let buckets = partitioner.build_buckets(&el, &assignment).unwrap();
    let store = PartitionStore::open_temp(label).unwrap();
    store.clear().unwrap();
    let store = store.with_emulated_device(slow_model());
    let buffer = PartitionBuffer::new(store, assignment, 4, 2, true);
    buffer.initialize_random(0.1, &mut rng).unwrap();
    buffer.initialize_buckets(&buckets).unwrap();
    buffer
}

/// Both schedules: threaded (whose write-back runs on the drain thread) and
/// in order.
fn schedules() -> [(&'static str, PipelineConfig); 2] {
    [
        ("threaded", PipelineConfig::with_workers(2)),
        ("in-order", PipelineConfig::disabled()),
    ]
}

/// A partition evicted dirty at step 1 and re-read at step 2 must observe the
/// drained bytes: the prefetcher's re-read has to wait for the write-back
/// watermark, not just the swap.
#[test]
fn reread_after_dirty_eviction_observes_drained_bytes() {
    for (label, config) in schedules() {
        reread_observes_drained_bytes(label, config);
    }
}

fn reread_observes_drained_bytes(label: &str, config: PipelineConfig) {
    let mut buffer = slow_buffer(&format!("wb-order-{label}"));
    let node: NodeId = buffer.assignment().nodes_in(0)[0];
    // Step 0 trains {0, 1} and dirties partition 0; step 1 swaps to {2, 3}
    // (evicting 0 dirty); step 2 re-reads {0, 1}.
    let plan = EpochPlan {
        partition_sets: vec![vec![0, 1], vec![2, 3], vec![0, 1]],
        bucket_assignment: vec![vec![], vec![], vec![]],
    };
    let mut expected: Option<Tensor> = None;
    let mut checked = false;
    let report = run_epoch(
        &config,
        &plan,
        &mut buffer,
        7,
        |ctx, _rng, sink| sink(ctx.step),
        |buffer, step: usize| match step {
            0 => {
                buffer.apply_update(&[node], &Tensor::ones(1, 4)).unwrap();
                expected = Some(buffer.gather(&[node]).unwrap());
            }
            2 => {
                // The re-installed copy of partition 0 was read from disk
                // by the prefetcher; stale bytes here would mean the read
                // beat the write-back drain.
                assert_eq!(
                    buffer.gather(&[node]).unwrap(),
                    *expected.as_ref().expect("step 0 ran first"),
                    "re-read partition lost the update written back asynchronously"
                );
                checked = true;
            }
            _ => {}
        },
    )
    .expect("epoch");
    assert!(checked, "{label}: step 2 never consumed a batch");
    assert!(report.partitions_written_back >= 1, "{label}");
    if config.enabled {
        // The dirty eviction of partition 0 really was drained
        // asynchronously.
        assert!(report.writeback_busy > std::time::Duration::ZERO);
    }
    assert_eq!(buffer.writeback_ledger().pending_count(), 0);
    // Nothing is pending, so flush returns without re-writing partition 0.
    buffer.flush().unwrap();
}

/// An epoch aborted while write-backs are still in flight must drain the
/// queue before returning: every partition file stays whole (readable, not
/// torn) and detached updates reach disk.
#[test]
fn abort_mid_drain_leaves_no_torn_partition_files() {
    for (label, config) in schedules() {
        abort_leaves_no_torn_files(label, config);
    }
}

fn abort_leaves_no_torn_files(label: &str, config: PipelineConfig) {
    let mut buffer = slow_buffer(&format!("wb-abort-{label}"));
    let node: NodeId = buffer.assignment().nodes_in(0)[0];
    let expected_state_offset = buffer
        .assignment()
        .nodes_in(0)
        .iter()
        .position(|&n| n == node)
        .unwrap();
    // Step 2's set exceeds the buffer capacity of 2, so the consumer errors
    // at its install — while the slow drain is still writing step 1's detached
    // evictions of partitions 0 and 1.
    let plan = EpochPlan {
        partition_sets: vec![vec![0, 1], vec![2, 3], vec![0, 1, 2]],
        bucket_assignment: vec![vec![], vec![], vec![]],
    };
    let err = run_epoch(
        &config,
        &plan,
        &mut buffer,
        11,
        |ctx, _rng, sink| sink(ctx.step),
        |buffer, step: usize| {
            if step == 0 {
                // Dirty both partitions of the first set.
                for &p in &plan.partition_sets[step] {
                    let n = buffer.assignment().nodes_in(p)[0];
                    buffer.apply_update(&[n], &Tensor::ones(1, 4)).unwrap();
                }
            }
        },
    )
    .expect_err("step 2 exceeds the buffer capacity");
    assert!(format!("{err}").contains("capacity"), "{label}: {err}");
    // The abort drained the queue: nothing is pending and every partition
    // file is whole and readable through an unthrottled twin store.
    assert_eq!(buffer.writeback_ledger().pending_count(), 0);
    let fast = PartitionStore::open(buffer.store().root()).unwrap();
    for p in 0..4u32 {
        let (values, state) = fast
            .read_partition(p)
            .unwrap_or_else(|e| panic!("partition {p} file torn after abort: {e}"));
        assert_eq!(values.len(), state.len());
        assert_eq!(values.len(), buffer.assignment().nodes_in(p).len() * 4);
    }
    // Partition 0's detached update landed despite the abort: its Adagrad
    // state on disk is non-zero for the updated node.
    let (_, state) = fast.read_partition(0).unwrap();
    assert!(
        state[expected_state_offset * 4..(expected_state_offset + 1) * 4]
            .iter()
            .all(|&s| s > 0.0),
        "dirty eviction was dropped on the abort path"
    );
}

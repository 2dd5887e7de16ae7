//! The partition buffer: the CPU-resident working set of out-of-core training.
//!
//! The buffer holds up to `c` physical node partitions (embedding rows plus
//! optimizer state) and serves embedding gathers and sparse Adagrad
//! write-backs (Figure 2 steps 5–6) directly from them. It holds no edges:
//! the edge buckets of a partition set and the sampling subgraph built from
//! them belong to the step that trains on that set (the pipeline's
//! [`StepContext`](crate::pipeline::StepContext)), not to the buffer.
//!
//! The working set changes in one way, `PartitionBuffer::install_set`: the
//! caller has already read the set's missing partitions from the
//! [`PartitionStore`], the swap moves them into place, and evicted dirty
//! partitions are *detached* as owned `EvictedPartition` payloads instead
//! of being written inline. The caller writes them back with
//! `WritebackLedger::write_back` — on a drain thread while the next step
//! computes, or right after the swap when steps run in order. The shared
//! `WritebackLedger` tracks which partitions have detached contents in
//! flight; [`PartitionBuffer::flush`] waits for the ledger to drain before
//! touching the same files, and installs reject a partition whose write-back
//! is still pending (its disk bytes are stale).
//!
//! The buffer itself stays single-threaded (`&mut self` swaps and updates);
//! cross-thread sharing happens through the [`PartitionStore`], which is
//! `Send + Sync` (plain paths plus atomic IO counters), through the
//! immutable per-step payloads the pipeline passes between its stages, and
//! through the ledger's pending-set.

use crate::disk::PartitionStore;
use crate::{Result, StorageError};
use marius_graph::{NodeId, PartitionAssignment, PartitionId};
use marius_telemetry::{Counter, Histogram, SpanScope, Telemetry, NO_LABEL};
use marius_tensor::Tensor;
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

/// Fixed buckets for the write-back ledger occupancy histogram (pending
/// detached evictions observed at each deferred swap).
const LEDGER_OCCUPANCY_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64];

/// A resident node partition: embedding rows and Adagrad state for its nodes, in
/// the order given by `PartitionAssignment::nodes_in`.
#[derive(Debug, Clone)]
struct ResidentPartition {
    values: Vec<f32>,
    state: Vec<f32>,
    dirty: bool,
}

/// A dirty partition detached from the buffer on eviction: the owned value and
/// state buffers form a second, off-buffer generation of the partition that
/// must reach the [`PartitionStore`] before the partition's file may be read
/// again. Produced by [`PartitionBuffer::install_set`] and written back by
/// [`WritebackLedger::write_back`].
#[derive(Debug)]
pub(crate) struct EvictedPartition {
    /// The detached partition's id.
    pub(crate) id: PartitionId,
    /// Embedding rows, in `PartitionAssignment::nodes_in` order.
    pub(crate) values: Vec<f32>,
    /// Optimizer state, same layout as `values`.
    pub(crate) state: Vec<f32>,
}

/// Cross-thread bookkeeping of partitions whose evicted contents have been
/// detached to an asynchronous write-back drain but not yet confirmed on
/// disk. The buffer marks a partition pending when it detaches it; the drain
/// thread calls [`WritebackLedger::mark_drained`] once the bytes have been
/// written. While a partition is pending its on-disk file is stale, so
/// installs of that partition fail and [`PartitionBuffer::flush`] blocks
/// until the ledger empties.
#[derive(Debug, Default)]
pub(crate) struct WritebackLedger {
    pending: Mutex<HashSet<PartitionId>>,
    drained: Condvar,
}

impl WritebackLedger {
    /// Locks the pending set, recovering from poison: every critical section
    /// is a single `HashSet` operation that cannot be observed half-done, so
    /// a peer thread that panicked while holding the lock left consistent
    /// state behind. Recovering here keeps a stage panic from cascading into
    /// every thread that shares the ledger — the panic itself is surfaced as
    /// a typed error by the pipeline's supervision layer.
    fn lock_pending(&self) -> std::sync::MutexGuard<'_, HashSet<PartitionId>> {
        self.pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn mark_pending(&self, id: PartitionId) {
        self.lock_pending().insert(id);
    }

    /// Records that `id`'s detached contents have been written back (or
    /// abandoned by an aborting drain). Wakes any [`WritebackLedger::wait_drained`] callers.
    pub(crate) fn mark_drained(&self, id: PartitionId) {
        let mut pending = self.lock_pending();
        pending.remove(&id);
        drop(pending);
        self.drained.notify_all();
    }

    /// `true` while `id` has a detached write-back in flight.
    pub(crate) fn is_pending(&self, id: PartitionId) -> bool {
        self.lock_pending().contains(&id)
    }

    /// Number of partitions with write-backs in flight.
    pub(crate) fn pending_count(&self) -> usize {
        self.lock_pending().len()
    }

    /// Abandons every pending write-back and wakes all waiters. Called by
    /// the pipeline's supervision layer when a failed drain can no longer
    /// deliver the detached bytes: the run has failed and recovery goes
    /// through checkpoints, so blocking peers on writes that will never land
    /// would only convert a typed error into a deadlock. Returns how many
    /// write-backs were abandoned.
    pub(crate) fn abandon_pending(&self) -> usize {
        let mut pending = self.lock_pending();
        let abandoned = pending.len();
        pending.clear();
        drop(pending);
        self.drained.notify_all();
        abandoned
    }

    /// Writes detached evictions to `store`, in order, and marks each one
    /// drained — also when its write fails or is skipped, so nothing waits on
    /// bytes that will not land. Writing stops at the first failure, which
    /// is returned; otherwise returns how many partitions were written. The
    /// one write-back path: the pipeline's drain thread, its in-order
    /// schedule and a failed install's rescue all run it. `span` records one
    /// `writeback.write` span per write, labelled with `step`.
    pub(crate) fn write_back(
        &self,
        store: &PartitionStore,
        evicted: &[EvictedPartition],
        span: &mut SpanScope,
        step: i64,
    ) -> Result<usize> {
        let mut written = Ok(0);
        for part in evicted {
            if let Ok(count) = &mut written {
                span.begin("writeback.write", step, i64::from(part.id));
                match store.write_partition(part.id, &part.values, &part.state) {
                    Ok(()) => *count += 1,
                    Err(e) => written = Err(e),
                }
                span.end();
            }
            self.mark_drained(part.id);
        }
        written
    }

    /// Blocks until every pending write-back has been marked drained.
    ///
    /// Unlike the single-operation methods above, a waiter cannot safely
    /// recover a poisoned condition-variable wait, so a panicked peer
    /// surfaces here as a typed [`StorageError::Pipeline`] instead of a
    /// cascading panic.
    pub(crate) fn wait_drained(&self) -> Result<()> {
        let poisoned = |_| StorageError::Pipeline {
            stage: "writeback-ledger".into(),
            reason: "a peer thread panicked while the write-back ledger was locked".into(),
        };
        let mut pending = self.pending.lock().map_err(poisoned)?;
        while !pending.is_empty() {
            pending = self.drained.wait(pending).map_err(poisoned)?;
        }
        Ok(())
    }
}

/// Swap activity of a [`PartitionBuffer`] since it was built: how many
/// partitions of each requested set were already resident (hits), how many
/// had to be read from disk (misses), and how many residents were evicted to
/// make room. Monotonic, like the store's [`crate::IoStats`]; a window's
/// figures are the difference of two snapshots ([`BufferStats::since`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Requested partitions that were already resident at swap time.
    pub hits: u64,
    /// Requested partitions that were read from disk and installed.
    pub misses: u64,
    /// Resident partitions evicted to make room (dirty or clean).
    pub evictions: u64,
}

impl BufferStats {
    /// The swap activity between the snapshot `earlier` and this one.
    pub fn since(&self, earlier: &BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// A buffer's swap counts, its `buffer.*` counters registered in the
/// recorder of the store's [`crate::IoEnv`] (counting whether that recorder
/// is enabled or not), and the write-back ledger's occupancy histogram.
#[derive(Debug)]
struct BufferCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    ledger_occupancy: Histogram,
}

impl BufferCounters {
    fn register(telemetry: &Telemetry) -> Self {
        BufferCounters {
            hits: telemetry.counter("buffer.hits"),
            misses: telemetry.counter("buffer.misses"),
            evictions: telemetry.counter("buffer.evictions"),
            ledger_occupancy: telemetry
                .histogram("writeback.ledger_occupancy", LEDGER_OCCUPANCY_BOUNDS),
        }
    }
}

/// The fixed-capacity partition buffer.
#[derive(Debug)]
pub struct PartitionBuffer {
    store: PartitionStore,
    assignment: PartitionAssignment,
    dim: usize,
    capacity: usize,
    /// Whether embeddings are learnable (link prediction) or fixed features
    /// (node classification); fixed features skip write-backs entirely.
    learnable: bool,
    /// Adagrad learning rate for sparse embedding updates.
    lr: f32,
    /// node -> (partition, offset within partition) lookup.
    node_location: Vec<(PartitionId, u32)>,
    resident: HashMap<PartitionId, ResidentPartition>,
    /// Shared with the pipeline's write-back drain: which partitions have
    /// detached (deferred-dirty) contents that are not yet on disk.
    ledger: Arc<WritebackLedger>,
    /// Swap hit/miss/eviction counts (`buffer.*`).
    counters: BufferCounters,
}

impl PartitionBuffer {
    /// Creates a buffer over `store` for the given node-partition assignment.
    /// The buffer records into the recorder of the store's
    /// [`crate::IoEnv`]: the `buffer.hits` / `buffer.misses` /
    /// `buffer.evictions` counters, which [`PartitionBuffer::stats`] reads
    /// back, and the `writeback.ledger_occupancy` histogram.
    pub fn new(
        store: PartitionStore,
        assignment: PartitionAssignment,
        dim: usize,
        capacity: usize,
        learnable: bool,
    ) -> Self {
        let mut node_location = vec![(0u32, 0u32); assignment.num_nodes() as usize];
        for p in 0..assignment.num_partitions() {
            for (offset, &node) in assignment.nodes_in(p).iter().enumerate() {
                node_location[node as usize] = (p, offset as u32);
            }
        }
        PartitionBuffer {
            assignment,
            dim,
            capacity,
            learnable,
            lr: 0.1,
            node_location,
            resident: HashMap::new(),
            ledger: Arc::new(WritebackLedger::default()),
            counters: BufferCounters::register(&store.env().telemetry),
            store,
        }
    }

    /// A shared handle to the write-back ledger, for the drain thread that
    /// confirms detached evictions once their bytes land on disk.
    pub(crate) fn writeback_ledger(&self) -> Arc<WritebackLedger> {
        Arc::clone(&self.ledger)
    }

    /// Sets the Adagrad learning rate for embedding write-backs.
    pub fn with_learning_rate(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Buffer capacity in physical partitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The partition assignment backing this buffer.
    pub fn assignment(&self) -> &PartitionAssignment {
        &self.assignment
    }

    /// The underlying store (for IO statistics).
    pub fn store(&self) -> &PartitionStore {
        &self.store
    }

    /// Whether the buffer holds learnable embeddings, which updates change
    /// and [`PartitionBuffer::flush`] writes back; `false` for fixed
    /// features.
    pub fn learnable(&self) -> bool {
        self.learnable
    }

    /// A snapshot of the swap hit/miss/eviction counts since the buffer was
    /// built.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            evictions: self.counters.evictions.get(),
        }
    }

    /// Records one completed swap: `hits` partitions of the requested set
    /// were already resident, `misses` were read from disk.
    fn note_swap(&mut self, hits: u64, misses: u64) {
        self.counters.hits.add(hits);
        self.counters.misses.add(misses);
    }

    /// Writes initial random embeddings (and zero optimizer state) for every
    /// partition to disk. Used for learnable-embedding (link prediction) runs.
    pub fn initialize_random<R: Rng + ?Sized>(&self, init_scale: f32, rng: &mut R) -> Result<()> {
        for p in 0..self.assignment.num_partitions() {
            let n = self.assignment.nodes_in(p).len();
            let mut values = vec![0.0f32; n * self.dim];
            for v in values.iter_mut() {
                *v = rng.gen_range(-init_scale..init_scale);
            }
            let state = vec![0.0f32; n * self.dim];
            self.store.write_partition(p, &values, &state)?;
        }
        Ok(())
    }

    /// Writes initial embeddings from a per-node feature source (row-major,
    /// `dim` floats per node). Used for fixed-feature (node classification) runs.
    pub fn initialize_from_features(&self, features: &[f32]) -> Result<()> {
        assert_eq!(
            features.len(),
            self.assignment.num_nodes() as usize * self.dim,
            "feature buffer must cover every node"
        );
        for p in 0..self.assignment.num_partitions() {
            let nodes = self.assignment.nodes_in(p);
            let mut values = Vec::with_capacity(nodes.len() * self.dim);
            for &node in nodes {
                let start = node as usize * self.dim;
                values.extend_from_slice(&features[start..start + self.dim]);
            }
            let state = vec![0.0f32; values.len()];
            self.store.write_partition(p, &values, &state)?;
        }
        Ok(())
    }

    /// Writes the edge buckets produced by `Partitioner::build_buckets` to disk.
    pub fn initialize_buckets(&self, buckets: &[marius_graph::EdgeBucket]) -> Result<()> {
        for b in buckets {
            if !b.edges.is_empty() {
                self.store
                    .write_bucket(b.src_partition, b.dst_partition, &b.edges)?;
            }
        }
        Ok(())
    }

    /// Swaps the working set to `set`: evicts resident partitions outside it
    /// and moves `new_parts` — read from the store by the caller — into
    /// residency. `new_parts` must hold exactly the partitions of `set` that
    /// are not resident, none of them with a write-back still pending.
    ///
    /// Evicted dirty partitions are not written back inline but *detached*:
    /// ownership of their value/state buffers transfers to the returned
    /// [`EvictedPartition`]s (a second buffer generation kept alive off the
    /// compute path) and each is marked pending in the [`WritebackLedger`].
    /// The caller must write every returned payload back with
    /// [`WritebackLedger::write_back`] — until then the partition's on-disk
    /// file holds stale bytes and must not be read. When the install itself
    /// fails, the detached evictions are written back before the error
    /// returns, so no training update is lost on the abort path.
    pub(crate) fn install_set(
        &mut self,
        set: &[PartitionId],
        new_parts: Vec<(PartitionId, Vec<f32>, Vec<f32>)>,
    ) -> Result<Vec<EvictedPartition>> {
        let (wanted, evicted) = self.begin_swap(set)?;
        let installs = new_parts.len();
        if let Err(e) = self.install_new_parts(&wanted, set, new_parts) {
            // Best effort: if the rescue write fails too, the install error
            // stays the root cause the caller sees.
            let mut no_spans = Telemetry::disabled().scope("");
            let _ = self
                .ledger
                .write_back(&self.store, &evicted, &mut no_spans, NO_LABEL);
            return Err(e);
        }
        self.note_swap((set.len() - installs) as u64, installs as u64);
        for e in &evicted {
            self.ledger.mark_pending(e.id);
        }
        self.counters
            .ledger_occupancy
            .record(self.ledger.pending_count() as u64);
        Ok(evicted)
    }

    /// Moves `new_parts` into residency, rejecting foreign, already resident
    /// and write-back-pending partitions and payloads that are not one row of
    /// values and state per node of the partition, and checks that all of
    /// `set` is resident afterwards.
    fn install_new_parts(
        &mut self,
        wanted: &HashSet<PartitionId>,
        set: &[PartitionId],
        new_parts: Vec<(PartitionId, Vec<f32>, Vec<f32>)>,
    ) -> Result<()> {
        for (p, values, state) in new_parts {
            if !wanted.contains(&p) {
                return Err(StorageError::InvalidPlan {
                    reason: format!("read partition {p} is not part of the installed set"),
                });
            }
            if self.resident.contains_key(&p) {
                // Overwriting a resident (possibly dirty) copy with stale disk
                // data would silently lose training updates.
                return Err(StorageError::InvalidPlan {
                    reason: format!(
                        "read partition {p} is already resident; an install takes only the missing partitions of the set"
                    ),
                });
            }
            if self.ledger.is_pending(p) {
                // The partition's detached eviction has not reached disk yet,
                // so whatever the caller read from its file is stale.
                return Err(StorageError::InvalidPlan {
                    reason: format!(
                        "partition {p} still has a pending write-back; installing it would revive stale disk bytes"
                    ),
                });
            }
            // Gathers and updates index the payload by node offset, so a
            // short (or long) one must not get in.
            let len = self.assignment.nodes_in(p).len() * self.dim;
            if values.len() != len || state.len() != len {
                return Err(StorageError::NotResident {
                    reason: format!(
                        "partition {p} payload holds {} values and {} state words, not {len}",
                        values.len(),
                        state.len()
                    ),
                });
            }
            self.resident.insert(
                p,
                ResidentPartition {
                    values,
                    state,
                    dirty: false,
                },
            );
        }
        for &p in set {
            if !self.resident.contains_key(&p) {
                return Err(StorageError::NotResident {
                    reason: format!(
                        "partition {p} of the installed set was neither resident nor read"
                    ),
                });
            }
        }
        Ok(())
    }

    /// First half of a swap: validates the set against the buffer capacity
    /// and evicts resident partitions outside it, detaching dirty ones (in
    /// ascending id order, for a deterministic write order) instead of
    /// writing them. Returns the wanted-set lookup and the detached
    /// evictions.
    fn begin_swap(
        &mut self,
        set: &[PartitionId],
    ) -> Result<(HashSet<PartitionId>, Vec<EvictedPartition>)> {
        if set.len() > self.capacity {
            return Err(StorageError::InvalidPlan {
                reason: format!(
                    "set of {} partitions exceeds buffer capacity {}",
                    set.len(),
                    self.capacity
                ),
            });
        }
        let wanted: HashSet<PartitionId> = set.iter().copied().collect();
        let mut to_evict: Vec<PartitionId> = self
            .resident
            .keys()
            .copied()
            .filter(|p| !wanted.contains(p))
            .collect();
        to_evict.sort_unstable();
        self.counters.evictions.add(to_evict.len() as u64);
        let mut evicted = Vec::with_capacity(to_evict.len());
        for p in to_evict {
            if let Some(data) = self.resident.remove(&p) {
                if self.learnable && data.dirty {
                    evicted.push(EvictedPartition {
                        id: p,
                        values: data.values,
                        state: data.state,
                    });
                }
            }
        }
        Ok((wanted, evicted))
    }

    /// Writes every dirty resident partition back to disk (end of epoch), in
    /// ascending partition-id order. Any evictions still detached to an
    /// asynchronous drain are waited out first, so after `flush` returns the
    /// store holds the complete, current state of every partition.
    pub fn flush(&mut self) -> Result<()> {
        self.ledger.wait_drained()?;
        if !self.learnable {
            return Ok(());
        }
        let mut dirty: Vec<(PartitionId, &mut ResidentPartition)> = self
            .resident
            .iter_mut()
            .filter(|(_, data)| data.dirty)
            .map(|(&p, data)| (p, data))
            .collect();
        dirty.sort_unstable_by_key(|&(p, _)| p);
        for (p, data) in dirty {
            self.store.write_partition(p, &data.values, &data.state)?;
            data.dirty = false;
        }
        Ok(())
    }

    /// The currently resident partitions.
    pub(crate) fn resident_partitions(&self) -> Vec<PartitionId> {
        let mut v: Vec<PartitionId> = self.resident.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Gathers the embedding rows of `nodes` into a `(nodes.len(), dim)` tensor.
    ///
    /// Maximal runs of nodes at consecutive offsets of the same partition are
    /// copied with a single `copy_from_slice` (partition layouts place
    /// consecutive node ids at consecutive offsets, so sorted gathers of
    /// contiguous id ranges collapse to one copy per partition); arbitrary
    /// orders degrade gracefully to per-row copies.
    ///
    /// Returns an error if any node's partition is not resident — out-of-core
    /// training guarantees this never happens because mini batches are built only
    /// from in-memory edges.
    pub fn gather(&self, nodes: &[NodeId]) -> Result<Tensor> {
        let dim = self.dim;
        let mut out = Tensor::zeros(nodes.len(), dim);
        let out_data = out.data_mut();
        let mut i = 0usize;
        while i < nodes.len() {
            let node = nodes[i];
            let (p, offset) = self.node_location[node as usize];
            let data = self
                .resident
                .get(&p)
                .ok_or_else(|| StorageError::NotResident {
                    reason: format!("node {node} lives in partition {p} which is not resident"),
                })?;
            let mut run = 1usize;
            while i + run < nodes.len() {
                let (q, o) = self.node_location[nodes[i + run] as usize];
                if q != p || o != offset + run as u32 {
                    break;
                }
                run += 1;
            }
            let src = offset as usize * dim;
            out_data[i * dim..(i + run) * dim].copy_from_slice(&data.values[src..src + run * dim]);
            i += run;
        }
        Ok(out)
    }

    /// Applies a sparse Adagrad update: `grads` row `i` is the gradient for
    /// `nodes[i]`. No-op when the buffer wraps fixed (non-learnable) features.
    pub fn apply_update(&mut self, nodes: &[NodeId], grads: &Tensor) -> Result<()> {
        if !self.learnable {
            return Ok(());
        }
        assert_eq!(grads.rows(), nodes.len(), "gradient row count mismatch");
        assert_eq!(grads.cols(), self.dim, "gradient dim mismatch");
        for (i, &node) in nodes.iter().enumerate() {
            let (p, offset) = self.node_location[node as usize];
            let data = self
                .resident
                .get_mut(&p)
                .ok_or_else(|| StorageError::NotResident {
                    reason: format!("node {node} lives in partition {p} which is not resident"),
                })?;
            data.dirty = true;
            let start = offset as usize * self.dim;
            for (d, &g) in grads.row(i).iter().enumerate() {
                let s = &mut data.state[start + d];
                *s += g * g;
                data.values[start + d] -= self.lr * g / (s.sqrt() + 1e-10);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_graph::{Edge, EdgeList, Partitioner};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_buffer(
        label: &str,
        num_nodes: u64,
        p: u32,
        capacity: usize,
        learnable: bool,
    ) -> (PartitionBuffer, Vec<marius_graph::EdgeBucket>) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut el = EdgeList::new(num_nodes);
        for i in 0..num_nodes {
            el.push(Edge::new(i, (i + 1) % num_nodes)).unwrap();
            el.push(Edge::new(i, (i + 5) % num_nodes)).unwrap();
        }
        let partitioner = Partitioner::new(p).unwrap();
        let assignment = partitioner.random(num_nodes, &mut rng);
        let buckets = partitioner.build_buckets(&el, &assignment).unwrap();
        let store = PartitionStore::open_temp(label).unwrap();
        store.clear().unwrap();
        let buffer = PartitionBuffer::new(store, assignment, 4, capacity, learnable);
        buffer.initialize_random(0.1, &mut rng).unwrap();
        buffer.initialize_buckets(&buckets).unwrap();
        (buffer, buckets)
    }

    /// Installs `set` with `new_parts` and writes the evictions back, the
    /// way a pipeline step does.
    fn install_and_write_back(
        buffer: &mut PartitionBuffer,
        set: &[PartitionId],
        new_parts: Vec<(PartitionId, Vec<f32>, Vec<f32>)>,
    ) -> Result<()> {
        let evicted = buffer.install_set(set, new_parts)?;
        let mut no_spans = Telemetry::disabled().scope("");
        buffer
            .writeback_ledger()
            .write_back(buffer.store(), &evicted, &mut no_spans, NO_LABEL)
            .map(drop)
    }

    /// One in-order swap to `set`: reads its missing partitions, installs
    /// them and writes the evictions back. Returns how many were read.
    fn swap(buffer: &mut PartitionBuffer, set: &[PartitionId]) -> Result<usize> {
        let mut new_parts = Vec::new();
        for &p in set {
            if !buffer.resident.contains_key(&p) {
                let (values, state) = buffer.store().read_partition(p)?;
                new_parts.push((p, values, state));
            }
        }
        let reads = new_parts.len();
        install_and_write_back(buffer, set, new_parts)?;
        Ok(reads)
    }

    #[test]
    fn load_set_brings_partitions_and_edges_into_memory() {
        // The set's edges belong to the step's context; the pipeline's
        // `read_context` tests pin them. The buffer holds the partitions.
        let (mut buffer, _) = build_buffer("load-set", 40, 4, 2, true);
        let loads = swap(&mut buffer, &[0, 1]).unwrap();
        assert_eq!(loads, 2);
        assert_eq!(buffer.resident_partitions(), vec![0, 1]);
        assert_eq!(
            buffer.stats(),
            BufferStats {
                hits: 0,
                misses: 2,
                evictions: 0
            }
        );
    }

    #[test]
    fn load_set_evicts_and_reuses() {
        let (mut buffer, _) = build_buffer("evict", 40, 4, 2, true);
        swap(&mut buffer, &[0, 1]).unwrap();
        // Partition 0 stays, 2 is new, 1 is evicted.
        let loads = swap(&mut buffer, &[0, 2]).unwrap();
        assert_eq!(loads, 1);
        assert_eq!(buffer.resident_partitions(), vec![0, 2]);
    }

    #[test]
    fn load_set_respects_capacity() {
        let (mut buffer, _) = build_buffer("capacity", 40, 4, 2, true);
        assert!(swap(&mut buffer, &[0, 1, 2]).is_err());
    }

    #[test]
    fn gather_returns_rows_for_resident_nodes_only() {
        let (mut buffer, _) = build_buffer("gather", 40, 4, 2, true);
        swap(&mut buffer, &[1, 3]).unwrap();
        let nodes = buffer.assignment().nodes_in(1).to_vec();
        let t = buffer.gather(&nodes[..3]).unwrap();
        assert_eq!(t.shape(), (3, 4));
        // A node from a non-resident partition errors.
        let outside = buffer.assignment().nodes_in(0)[0];
        assert!(buffer.gather(&[outside]).is_err());
    }

    #[test]
    fn updates_persist_across_eviction_and_reload() {
        let (mut buffer, _) = build_buffer("persist", 40, 4, 2, true);
        swap(&mut buffer, &[0, 1]).unwrap();
        let node = buffer.assignment().nodes_in(0)[0];
        let before = buffer.gather(&[node]).unwrap();
        let grad = Tensor::ones(1, 4);
        buffer.apply_update(&[node], &grad).unwrap();
        let after_update = buffer.gather(&[node]).unwrap();
        assert_ne!(before, after_update);
        // Evict partition 0, then bring it back: the update must have been
        // written to disk and read back.
        swap(&mut buffer, &[1, 2]).unwrap();
        swap(&mut buffer, &[0, 1]).unwrap();
        let reloaded = buffer.gather(&[node]).unwrap();
        assert_eq!(after_update, reloaded);
    }

    #[test]
    fn non_learnable_buffer_skips_updates_and_writebacks() {
        let (mut buffer, _) = build_buffer("fixed", 40, 4, 2, false);
        swap(&mut buffer, &[0, 1]).unwrap();
        let node = buffer.assignment().nodes_in(0)[0];
        let before = buffer.gather(&[node]).unwrap();
        buffer.apply_update(&[node], &Tensor::ones(1, 4)).unwrap();
        let after = buffer.gather(&[node]).unwrap();
        assert_eq!(before, after);
        let writes_before = buffer.store().io_stats().writes;
        buffer.flush().unwrap();
        assert_eq!(buffer.store().io_stats().writes, writes_before);
    }

    #[test]
    fn initialize_from_features_places_rows_by_node_id() {
        let num_nodes = 12u64;
        let dim = 4usize;
        let mut rng = StdRng::seed_from_u64(9);
        let mut el = EdgeList::new(num_nodes);
        for i in 0..num_nodes {
            el.push(Edge::new(i, (i + 1) % num_nodes)).unwrap();
        }
        let partitioner = Partitioner::new(3).unwrap();
        let assignment = partitioner.random(num_nodes, &mut rng);
        let buckets = partitioner.build_buckets(&el, &assignment).unwrap();
        let store = PartitionStore::open_temp("features").unwrap();
        store.clear().unwrap();
        let mut buffer = PartitionBuffer::new(store, assignment, dim, 3, false);
        // Feature of node n is [n, n, n, n].
        let features: Vec<f32> = (0..num_nodes).flat_map(|n| vec![n as f32; dim]).collect();
        buffer.initialize_from_features(&features).unwrap();
        buffer.initialize_buckets(&buckets).unwrap();
        swap(&mut buffer, &[0, 1, 2]).unwrap();
        let t = buffer.gather(&[7, 2]).unwrap();
        assert_eq!(t.row(0), &[7.0, 7.0, 7.0, 7.0]);
        assert_eq!(t.row(1), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn io_stats_reflect_partition_traffic() {
        let (mut buffer, _) = build_buffer("iostats", 40, 4, 2, true);
        let before = buffer.store().io_stats();
        swap(&mut buffer, &[0, 1]).unwrap();
        let stats = buffer.store().io_stats().since(&before);
        assert!(stats.reads >= 2);
        assert!(stats.bytes_read > 0);
    }

    #[test]
    fn install_rejects_missing_or_foreign_partitions() {
        let (mut buffer, _) = build_buffer("install-invalid", 40, 4, 2, true);
        // Partition 1 neither resident nor read.
        let (v, s) = buffer.store().read_partition(0).unwrap();
        let err = install_and_write_back(&mut buffer, &[0, 1], vec![(0, v.clone(), s.clone())]);
        assert!(err.is_err());
        // Read partition outside the set.
        let err = install_and_write_back(
            &mut buffer,
            &[0],
            vec![(0, v.clone(), s.clone()), (3, v, s)],
        );
        assert!(err.is_err());
        // Read partition that is already resident.
        swap(&mut buffer, &[0, 1]).unwrap();
        let (v, s) = buffer.store().read_partition(1).unwrap();
        let err = install_and_write_back(&mut buffer, &[1, 2], vec![(1, v, s)]).unwrap_err();
        assert!(format!("{err}").contains("already resident"), "{err}");
    }

    #[test]
    fn a_cut_partition_file_fails_the_swap_with_a_typed_error() {
        let (mut buffer, _) = build_buffer("cut-file", 40, 4, 2, true);
        swap(&mut buffer, &[0, 1]).unwrap();
        // Four bytes short: the last state word is gone.
        let path = buffer.store().partition_path(2);
        let whole = std::fs::read(&path).unwrap();
        std::fs::write(&path, &whole[..whole.len() - 4]).unwrap();
        let err = swap(&mut buffer, &[1, 2]).unwrap_err();
        assert!(matches!(err, StorageError::NotResident { .. }), "{err}");
        // Nothing half-installed: the buffer still serves its set.
        assert_eq!(buffer.resident_partitions(), vec![0, 1]);
        let node = buffer.assignment().nodes_in(1)[0];
        buffer.apply_update(&[node], &Tensor::ones(1, 4)).unwrap();
        // A payload one word short is refused by the install itself.
        std::fs::write(&path, &whole).unwrap();
        let (v, mut s) = buffer.store().read_partition(2).unwrap();
        s.pop();
        let err = install_and_write_back(&mut buffer, &[1, 2], vec![(2, v, s)]).unwrap_err();
        assert!(matches!(err, StorageError::NotResident { .. }), "{err}");
        assert!(format!("{err}").contains("state words"), "{err}");
    }

    #[test]
    fn store_is_send_and_sync_for_the_prefetcher() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::PartitionStore>();
    }

    #[test]
    fn install_set_deferred_detaches_dirty_evictions() {
        let (mut buffer, _) = build_buffer("deferred-detach", 40, 4, 2, true);
        swap(&mut buffer, &[0, 1]).unwrap();
        // Dirty partition 0, keep partition 1 clean.
        let node = buffer.assignment().nodes_in(0)[0];
        buffer.apply_update(&[node], &Tensor::ones(1, 4)).unwrap();
        let updated = buffer.gather(&[node]).unwrap();
        let writes_before = buffer.store().io_stats().writes;
        // Swap to {2, 3}: both 0 and 1 are evicted, only 0 is dirty.
        let mut new_parts = Vec::new();
        for p in [2u32, 3] {
            let (v, s) = buffer.store().read_partition(p).unwrap();
            new_parts.push((p, v, s));
        }
        let evicted = buffer.install_set(&[2, 3], new_parts).unwrap();
        assert_eq!(buffer.stats().misses, 4);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id, 0);
        // Nothing was written inline; the ledger tracks the detached eviction.
        assert_eq!(buffer.store().io_stats().writes, writes_before);
        let ledger = buffer.writeback_ledger();
        assert!(ledger.is_pending(0));
        assert_eq!(ledger.pending_count(), 1);
        // Write it back the way every pipeline schedule does.
        let written = ledger
            .write_back(
                buffer.store(),
                &evicted,
                &mut Telemetry::disabled().scope(""),
                0,
            )
            .unwrap();
        assert_eq!(written, 1);
        assert!(!ledger.is_pending(0));
        // The drained bytes round-trip: reloading partition 0 sees the update.
        swap(&mut buffer, &[0, 1]).unwrap();
        assert_eq!(buffer.gather(&[node]).unwrap(), updated);
    }

    #[test]
    fn install_rejects_partition_with_pending_writeback() {
        let (mut buffer, _) = build_buffer("deferred-stale", 40, 4, 2, true);
        swap(&mut buffer, &[0, 1]).unwrap();
        let node = buffer.assignment().nodes_in(0)[0];
        buffer.apply_update(&[node], &Tensor::ones(1, 4)).unwrap();
        let (v2, s2) = buffer.store().read_partition(2).unwrap();
        let evicted = buffer.install_set(&[1, 2], vec![(2, v2, s2)]).unwrap();
        assert_eq!(evicted[0].id, 0);
        // While 0's write-back is pending, its disk bytes are stale:
        // installing a copy read from disk must fail.
        let (v0, s0) = buffer.store().read_partition(0).unwrap();
        let err = install_and_write_back(&mut buffer, &[0, 1], vec![(0, v0, s0)]).unwrap_err();
        assert!(format!("{err}").contains("pending write-back"));
        // After the write-back, the same install succeeds.
        buffer
            .writeback_ledger()
            .write_back(
                buffer.store(),
                &evicted,
                &mut Telemetry::disabled().scope(""),
                1,
            )
            .unwrap();
        let (v0, s0) = buffer.store().read_partition(0).unwrap();
        install_and_write_back(&mut buffer, &[0, 1], vec![(0, v0, s0)]).unwrap();
    }

    #[test]
    fn flush_waits_for_async_drain() {
        let (mut buffer, _) = build_buffer("flush-drain", 40, 4, 2, true);
        swap(&mut buffer, &[0, 1]).unwrap();
        let node = buffer.assignment().nodes_in(0)[0];
        buffer.apply_update(&[node], &Tensor::ones(1, 4)).unwrap();
        let (v2, s2) = buffer.store().read_partition(2).unwrap();
        let evicted = buffer.install_set(&[1, 2], vec![(2, v2, s2)]).unwrap();
        let ledger = buffer.writeback_ledger();
        let store = buffer.store().clone();
        // Drain on another thread after a delay; flush must block until the
        // write has landed before returning.
        let drainer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            ledger
                .write_back(&store, &evicted, &mut Telemetry::disabled().scope(""), 1)
                .unwrap();
        });
        buffer.flush().unwrap();
        assert_eq!(buffer.writeback_ledger().pending_count(), 0);
        drainer.join().unwrap();
        // Partition 0's update is on disk even though 0 is no longer resident.
        let (_, state) = buffer.store().read_partition(0).unwrap();
        let offset = buffer
            .assignment()
            .nodes_in(0)
            .iter()
            .position(|&n| n == node)
            .unwrap();
        assert!(state[offset * 4..(offset + 1) * 4].iter().all(|&s| s > 0.0));
    }

    #[test]
    fn gather_coalesces_consecutive_rows_bitwise_identically() {
        use marius_graph::PartitionAssignment;
        // Contiguous layout: partition 0 holds nodes 0..=5, partition 1 holds
        // 6..=11 — a sorted gather spanning both collapses to two copies.
        let assignment =
            PartitionAssignment::from_vec(vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1], 2).unwrap();
        let store = PartitionStore::open_temp("gather-runs").unwrap();
        store.clear().unwrap();
        let dim = 3usize;
        for p in 0..2u32 {
            let nodes = assignment.nodes_in(p);
            let values: Vec<f32> = nodes
                .iter()
                .flat_map(|&n| (0..dim).map(move |d| n as f32 * 100.0 + d as f32))
                .collect();
            let state = vec![0.0; values.len()];
            store.write_partition(p, &values, &state).unwrap();
        }
        let mut buffer = PartitionBuffer::new(store, assignment, dim, 2, true);
        swap(&mut buffer, &[0, 1]).unwrap();
        // A run across the partition boundary, a reversed (non-coalescible)
        // order, and repeats.
        for nodes in [
            vec![3u64, 4, 5, 6, 7],
            vec![7, 6, 5, 4],
            vec![2, 2, 3, 3],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        ] {
            let t = buffer.gather(&nodes).unwrap();
            for (i, &n) in nodes.iter().enumerate() {
                for d in 0..dim {
                    assert_eq!(t.get(i, d), n as f32 * 100.0 + d as f32, "node {n} dim {d}");
                }
            }
        }
    }

    #[test]
    fn resident_nodes_lists_every_node_of_resident_partitions() {
        // The step's candidate list is its context's (pinned by the
        // pipeline's `read_context` tests); the buffer serves every node of
        // its resident partitions and no other.
        let (mut buffer, _) = build_buffer("resident-nodes", 40, 4, 2, true);
        swap(&mut buffer, &[2, 3]).unwrap();
        assert_eq!(buffer.resident_partitions(), vec![2, 3]);
        let assignment = buffer.assignment().clone();
        for n in 0..40u64 {
            let resident = [2, 3].contains(&assignment.partition_of(n));
            assert_eq!(buffer.gather(&[n]).is_ok(), resident, "node {n}");
        }
    }
}

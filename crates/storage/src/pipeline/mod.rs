//! The out-of-core training step and its two schedules.
//!
//! Out-of-core training repeats one step per partition set `Sᵢ` of an
//! [`EpochPlan`]: read the set's edge buckets once, into a sampling subgraph
//! and the step's training edges `Xᵢ` (`read_context`; the bucket files are
//! the only record of a run's edges), read the partitions the buffer misses
//! (`read_partitions`), swap them in (`PartitionBuffer::install_set`), write
//! the evicted dirty partitions back (`WritebackLedger::write_back`), then
//! build and train the step's batches. Each of those stage bodies is written
//! once.
//! [`run_epoch`] runs them in one of two schedules:
//!
//! * **in order** ([`PipelineConfig::enabled`]` = false`) — step after step
//!   on the calling thread, so epoch time is `IO + sample + compute`. This
//!   schedule is the determinism oracle for the threaded one;
//! * **threaded** (`enabled = true`) — the bodies on the stages below, which
//!   overlap across steps so the wall time approaches
//!   `max(IO, sample, compute)`, the paper's core systems claim:
//!
//! ```text
//!             EpochPlan (replacement policy: COMET / BETA / node-cache)
//!                 │ steps S₁ … Sₙ
//!                 ▼
//!  ┌──────────────────────────┐   StepContext (subgraph,
//!  │ Stage 1: prefetchers     │   edges + candidates)
//!  │ (2 threads: contexts and ├──────────────┐  bounded, depth =
//!  │ partitions) read the     │              │  `prefetch_depth`
//!  │ PartitionStore ahead     │              ▼
//!  └──────────────────────────┘   ┌──────────────────────────┐
//!        ▲ waits for              │ Stage 2: batch builders  │
//!        │ `writeback ≥ e`       │ (`num_sampling_workers`  │
//!        │ (e = the partition's   │  threads)                │
//!        │ last eviction) before  │ shuffle + negative       │
//!        │ re-reading its file    │ sampling + DENSE         │
//!        │                        │ multi-hop sampling       │
//!        │                        └────────────┬─────────────┘
//!        │                                     │ StepOut::{Batch,End}
//!        │                                     │ bounded, depth = `queue_depth`
//!        │                                     ▼
//!  ┌─────┴────────────────────────────────────────────────────┐
//!  │ Stage 3: compute consumer (the calling thread)           │
//!  │ at step s installs the plan's set s from the prefetched  │
//!  │ partitions, detaching evicted dirty partitions (a second │
//!  │ buffer generation), then applies the step's batches —    │
//!  │ train_prepared / optimizer updates, no disk IO at all    │
//!  └───────────┬──────────────────────────────────────────────┘
//!              │ (step, Vec<EvictedPartition>)
//!              │ bounded, depth = `writeback_depth`
//!              ▼
//!  ┌──────────────────────────────────────────────────────────┐
//!  │ Stage 4: write-back drain (1 thread)                     │
//!  │ writes the step's detached dirty partitions to the       │
//!  │ PartitionStore, marks them drained in the                │
//!  │ WritebackLedger, publishes `writeback = s`               │
//!  └──────────────────────────────────────────────────────────┘
//! ```
//!
//! The stages share **one** step watermark, `writeback`: the highest step
//! whose detached evictions are durably on disk. The drain publishes it and
//! the partition prefetcher waits on it before re-reading an evicted
//! partition's file. The drain itself waits on no watermark: the consumer
//! pushes a step's evictions onto the write-back queue only after it has
//! installed that step, so the queue orders every write after the swap that
//! detached it. Eviction writes never run inside the swap, which keeps all
//! disk IO off stage 3.
//!
//! # Queue semantics
//!
//! Every edge between stages is a bounded blocking queue: producers block when
//! the queue is full (back-pressure keeps memory bounded by
//! `prefetch_depth`/`queue_depth`), consumers block when it is empty, and both
//! directions account their blocked time so [`PipelineReport`] can attribute
//! stalls to the stage that caused them. Steps are distributed round-robin
//! across batch-builder workers (step `s` is owned by worker `s % W`), each
//! worker preserves within-step batch order, and the consumer drains worker
//! queues in step order — so batches reach the model in exactly the
//! deterministic `(step, batch)` order of the in-order schedule.
//!
//! # Supervision
//!
//! Every stage — the four spawned ones and the consumer on the calling
//! thread — runs in one harness: it opens the stage's span track, runs the
//! stage body under the epoch's one `catch_unwind`, then runs the stage's
//! exit action, which closes the stage's queues (the drain's drains and
//! abandons what is left instead). A body returns a typed error and a panic
//! is caught; both take the same route, one first-wins slot that raises the
//! abort. The prefetchers poll the abort and the watermark wait observes
//! it; the closed queues stop the other stages. Later failures are cascades
//! of that abort and lose. The slot's error surfaces from [`run_epoch`] as
//! [`StorageError::Pipeline`], naming the stage: `"context-prefetch"`,
//! `"partition-prefetch"`, `"batch-worker"`, `"compute"` or
//! `"writeback-drain"`.
//!
//! # Determinism
//!
//! All randomness consumed inside the pipeline (shuffling, negative sampling,
//! DENSE multi-hop sampling) is drawn from per-step RNGs seeded with
//! [`step_seed`]`(epoch_seed, step)`, on either schedule, and both run the
//! same stage bodies, so for any worker count a threaded epoch reproduces the
//! in-order one's batches, updates and loss trajectory bit-for-bit — the
//! in-order schedule is the determinism oracle for the threaded one.
//!
//! # Write-back correctness
//!
//! A partition may be evicted at step `e` and re-loaded at a later step `s`.
//! The prefetcher must not read its file until the write-back drain has
//! landed the detached copy, so it waits for the one watermark,
//! `writeback ≥ e`, before issuing the read. Epoch end and abort both drain
//! the write-back queue completely before `run_epoch` returns (the drain keeps
//! writing after another stage's failure, and after a failure of its own
//! drains and abandons what remains), so no detached update is lost on a
//! clean epoch and `PartitionBuffer::flush` finds the ledger empty. Edge-bucket
//! files are immutable during an epoch and are prefetched without
//! synchronisation.

use crate::buffer::EvictedPartition;
use crate::{EpochPlan, PartitionBuffer, PartitionStore, Result, StorageError};
use marius_graph::{Edge, InMemorySubgraph, NodeId, PartitionAssignment, PartitionId};
use marius_telemetry::{Histogram, SpanScope, Telemetry, NO_LABEL};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of the staged training runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Whether the step's stage bodies run on stage threads; `false` runs
    /// them in order on the calling thread (the determinism oracle).
    pub enabled: bool,
    /// Number of stage-2 batch-construction worker threads.
    pub num_sampling_workers: usize,
    /// Capacity of each worker→consumer batch queue.
    pub queue_depth: usize,
    /// Capacity of each prefetcher→worker step queue: how many partition-set
    /// steps of embedding/bucket data may sit in memory ahead of the consumer,
    /// per worker.
    pub prefetch_depth: usize,
    /// Capacity of the consumer→drain write-back queue: how many steps'
    /// detached dirty partitions (extra buffer generations) may await their
    /// disk write-back before the consumer blocks. Bounds the memory held by
    /// in-flight evictions to `writeback_depth` generations.
    pub writeback_depth: usize,
}

impl PipelineConfig {
    /// A disabled configuration (the in-order schedule).
    pub fn disabled() -> Self {
        PipelineConfig {
            enabled: false,
            ..PipelineConfig::default()
        }
    }

    /// An enabled configuration with `workers` sampling workers.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig {
            enabled: true,
            num_sampling_workers: workers.max(1),
            ..PipelineConfig::default()
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            enabled: false,
            num_sampling_workers: 2,
            queue_depth: 4,
            prefetch_depth: 2,
            writeback_depth: 2,
        }
    }
}

/// Blocks until the buffer's write-back ledger is empty — the pipeline's
/// checkpoint safe point.
///
/// The `writeback` watermark (stage 4) trails the consumer's installs by
/// design: between the two, evicted dirty partitions live only as detached
/// in-memory generations and the corresponding files on disk are stale. A
/// `PartitionStore::snapshot_to` taken inside that window would capture the
/// stale bytes and silently lose training updates. `run_epoch` drains the
/// write-back queue completely before returning (even on abort), so at every
/// epoch boundary this returns immediately; it exists so checkpoint writers
/// can *assert* the safe point instead of assuming it, and so future partial
/// (mid-epoch) checkpoints have a primitive that waits for `writeback` to
/// catch up with the installs. The streaming ingest path (`marius_core::stream`)
/// asserts it before appending staged edge deltas to the bucket files at an
/// epoch boundary: a bucket file may only grow while no step reads it.
///
/// Errors only if a peer thread panicked while the ledger was locked (see
/// `WritebackLedger::wait_drained`) — a typed error rather than a cascading
/// panic.
pub fn writeback_safe_point(buffer: &PartitionBuffer) -> Result<()> {
    buffer.writeback_ledger().wait_drained()
}

/// Derives the RNG seed for one plan step of one epoch (SplitMix64 over the
/// epoch seed and step index). Shared by both schedules so they consume
/// randomness identically.
pub fn step_seed(epoch_seed: u64, step: u64) -> u64 {
    let mut z = epoch_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a batch-construction worker needs to know about one plan
/// step, built by `read_context`. The consumer does not see it: it installs
/// the step's set straight from the plan.
pub struct StepContext {
    /// Step index within the epoch plan.
    pub step: usize,
    /// Physical partitions resident during this step, in plan order.
    pub set: Vec<PartitionId>,
    /// Node ids of the step's partitions in ascending-partition order: the
    /// candidate list negative sampling draws from.
    pub candidates: Vec<NodeId>,
    /// The in-memory subgraph over the step's edge buckets, read in
    /// `set × set` order.
    pub subgraph: InMemorySubgraph,
    /// The step's training edges: the buckets the plan assigns to the step,
    /// concatenated in assignment order, from the same reads as `subgraph`.
    pub edges: Vec<Edge>,
}

/// Stage body 1: reads step `step`'s context — the edge buckets between the
/// partitions of its set, each read once in `set × set` order and built into
/// the sampling subgraph, the training edges of the buckets the plan assigns
/// to the step, in assignment order, and the candidate nodes of the set in
/// ascending-partition order. A bucket assigned outside the set is an
/// [`StorageError::InvalidPlan`]. Bucket files are immutable during an
/// epoch, so this may run arbitrarily far ahead of the step's swap.
fn read_context(
    store: &PartitionStore,
    assignment: &PartitionAssignment,
    plan: &EpochPlan,
    step: usize,
) -> Result<StepContext> {
    let set = &plan.partition_sets[step];
    let slot = |p: PartitionId| set.iter().position(|&q| q == p);
    // Each assigned bucket's index among the set's `set × set` reads.
    let assigned = plan.bucket_assignment[step]
        .iter()
        .map(|&(i, j)| match (slot(i), slot(j)) {
            (Some(a), Some(b)) => Ok(a * set.len() + b),
            _ => Err(StorageError::InvalidPlan {
                reason: format!("step {step} assigns bucket ({i},{j}) outside its set {set:?}"),
            }),
        })
        .collect::<Result<Vec<usize>>>()?;
    let mut all: Vec<Edge> = Vec::new();
    let mut ranges = Vec::with_capacity(set.len() * set.len());
    for &i in set {
        for &j in set {
            let start = all.len();
            all.extend_from_slice(&store.read_bucket(i, j)?);
            ranges.push(start..all.len());
        }
    }
    let mut edges = Vec::new();
    for &k in &assigned {
        edges.extend_from_slice(&all[ranges[k].clone()]);
    }
    let mut sorted_set = set.clone();
    sorted_set.sort_unstable();
    let mut candidates = Vec::new();
    for &p in &sorted_set {
        candidates.extend_from_slice(assignment.nodes_in(p));
    }
    Ok(StepContext {
        step,
        set: set.clone(),
        candidates,
        subgraph: InMemorySubgraph::from_edges(&all),
        edges,
    })
}

/// One newly read partition: `(id, embedding values, optimizer state)`.
type PartitionPayload = (PartitionId, Vec<f32>, Vec<f32>);

/// Stage body 2: reads the partitions `loads` that step `step` must install
/// (the ones `plan_step_io` lists as missing), one
/// `partition-prefetch.read` span each.
fn read_partitions(
    store: &PartitionStore,
    loads: &[PartitionId],
    span: &mut SpanScope,
    step: usize,
) -> Result<Vec<PartitionPayload>> {
    let mut new_parts = Vec::with_capacity(loads.len());
    for &p in loads {
        span.begin("partition-prefetch.read", step as i64, i64::from(p));
        let read = store.read_partition(p);
        span.end();
        let (values, state) = read?;
        new_parts.push((p, values, state));
    }
    Ok(new_parts)
}

/// Items flowing from a worker to the consumer.
enum StepOut<B> {
    /// One constructed training batch.
    Batch(B),
    /// The step produced all of its batches.
    End,
}

/// A blocking bounded queue with stall accounting and cooperative shutdown.
///
/// Lock poisoning: stage panics are caught at the stage boundary before any
/// queue call unwinds, and every critical section here is a handful of
/// `VecDeque` operations that cannot be observed half-done — so a poisoned
/// lock (a peer thread killed mid-section by something unforeseen) is
/// recovered rather than cascading the panic into every stage that shares
/// the queue. The supervision layer surfaces the original panic as a typed
/// error.
struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Post-push occupancy samples (a disabled no-op handle unless the
    /// store's recorder is enabled).
    depth: Histogram,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    #[cfg(test)]
    fn new(capacity: usize) -> Self {
        Self::with_depth(capacity, Histogram::default())
    }

    fn with_depth(capacity: usize, depth: Histogram) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        }
    }

    /// Pushes `item`, blocking while full. Returns the time spent blocked, or
    /// `None` if the queue was closed (the item is dropped).
    fn push(&self, item: T) -> Option<Duration> {
        let start = Instant::now();
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while state.items.len() >= self.capacity && !state.closed {
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            return None;
        }
        state.items.push_back(item);
        let occupancy = state.items.len() as u64;
        drop(state);
        self.depth.record(occupancy);
        self.not_empty.notify_one();
        Some(start.elapsed())
    }

    /// Pops an item, blocking while empty. Returns `None` once the queue is
    /// closed *and* drained; otherwise the item and the time spent blocked.
    fn pop(&self) -> Option<(T, Duration)> {
        let start = Instant::now();
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some((item, start.elapsed()));
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: blocked producers drop their items, blocked consumers
    /// drain what is left and then observe the end of the stream.
    fn close(&self) {
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// The epoch's one step watermark, `writeback`: the highest step whose
/// detached dirty evictions are durably on disk. The drain publishes it; the
/// partition prefetcher waits on it before re-reading an evicted partition.
struct Watermark {
    done: Mutex<i64>,
    advanced: Condvar,
}

impl Watermark {
    fn publish(&self, step: i64) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        *done = (*done).max(step);
        drop(done);
        self.advanced.notify_all();
    }

    /// Blocks until the watermark reaches `step` (or `abort` is raised).
    /// Returns the time spent blocked.
    fn wait_for(&self, step: i64, abort: &AtomicBool) -> Duration {
        let start = Instant::now();
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while *done < step && !abort.load(Ordering::Relaxed) {
            done = self
                .advanced
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        start.elapsed()
    }
}

/// The threaded epoch's one failure path. The first stage failure — a typed
/// error or a panic — wins the slot, and recording it raises the abort that
/// the prefetchers poll and every wait on the watermark observes.
struct Supervisor {
    failure: Mutex<Option<StorageError>>,
    abort: AtomicBool,
    writeback: Watermark,
}

impl Supervisor {
    fn new() -> Self {
        Supervisor {
            failure: Mutex::new(None),
            abort: AtomicBool::new(false),
            writeback: Watermark {
                done: Mutex::new(-1),
                advanced: Condvar::new(),
            },
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Records `reason` as `stage`'s failure unless an earlier one won, and
    /// raises the abort.
    fn fail(&self, stage: &str, reason: String) {
        let mut slot = self.failure.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(StorageError::Pipeline {
            stage: stage.to_string(),
            reason,
        });
        drop(slot);
        // Raised under the watermark's lock, so a waiter cannot miss it
        // between checking the flag and blocking.
        let done = self
            .writeback
            .done
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.abort.store(true, Ordering::Relaxed);
        drop(done);
        self.writeback.advanced.notify_all();
    }

    /// The stage harness: opens the span track `track`, runs `body` under
    /// the one `catch_unwind`, records its typed error or panic as `stage`'s
    /// failure, and then runs `exit` on every path. Returns the body's busy
    /// and stall clocks, or zeros when it failed (so does the epoch).
    fn run_stage<T: Default>(
        &self,
        telemetry: &Telemetry,
        stage: &'static str,
        track: &str,
        body: impl FnOnce(&mut SpanScope) -> Result<T>,
        exit: impl FnOnce(),
    ) -> T {
        let mut span = telemetry.scope(track);
        let out = match catch_unwind(AssertUnwindSafe(|| body(&mut span))) {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => {
                self.fail(stage, e.to_string());
                T::default()
            }
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                self.fail(stage, format!("panicked: {message}"));
                T::default()
            }
        };
        exit();
        out
    }
}

/// Occupancy buckets for the `pipeline.queue_depth.*` histograms: inclusive
/// upper bounds, wide enough for any practical `queue_depth` configuration.
const QUEUE_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64];

/// Per-stage occupancy and stall counters for one epoch. The in-order
/// schedule overlaps nothing and sets only the counts and `wall_time`; its
/// busy and stall times stay zero.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Plan steps executed.
    pub steps: usize,
    /// Training batches that flowed through stage 3.
    pub batches: usize,
    /// Partitions read from disk by the prefetcher.
    pub partition_loads: usize,
    /// Stage-1 time spent reading the store and building subgraphs.
    pub(crate) prefetch_busy: Duration,
    /// Stage-1 time blocked on back-pressure or write-back dependencies.
    pub prefetch_stall: Duration,
    /// Stage-2 time spent constructing batches (shuffle/negatives/DENSE).
    pub(crate) sample_busy: Duration,
    /// Stage-2 time blocked on empty input or full output queues.
    pub sample_stall: Duration,
    /// Stage-3 time spent in buffer swaps and compute. Eviction write-backs
    /// are detached to stage 4, so (unlike earlier revisions) no disk IO is
    /// accounted here.
    pub(crate) compute_busy: Duration,
    /// Stage-3 time blocked waiting for upstream stages or for write-back
    /// back-pressure (the drain's bounded queue being full).
    pub compute_stall: Duration,
    /// Stage-4 time spent writing detached dirty partitions to the store.
    pub writeback_busy: Duration,
    /// Stage-4 time blocked waiting for evictions to drain (idle lane).
    pub(crate) writeback_stall: Duration,
    /// Dirty partitions drained asynchronously by stage 4.
    pub(crate) partitions_written_back: usize,
    /// Wall-clock duration of the epoch.
    pub(crate) wall_time: Duration,
}

impl PipelineReport {
    /// Ratio of summed per-stage busy time to wall time. Values near 1.0 mean
    /// the stages effectively ran sequentially; values above 1.0 quantify how
    /// much work the pipeline overlapped.
    pub fn overlap_ratio(&self) -> f64 {
        let busy = self.prefetch_busy + self.sample_busy + self.compute_busy + self.writeback_busy;
        if self.wall_time.is_zero() {
            return 0.0;
        }
        busy.as_secs_f64() / self.wall_time.as_secs_f64()
    }
}

/// Per-step load schedule derived from the plan and the buffer's residency at
/// epoch start.
struct StepIoPlan {
    /// Partitions to read for each step (in set order).
    loads: Vec<Vec<PartitionId>>,
    /// For each step, the latest earlier step whose transition must complete
    /// before the loads may be read (-1 when unconstrained).
    read_after: Vec<i64>,
}

fn plan_step_io(plan: &EpochPlan, initial_resident: &[PartitionId]) -> StepIoPlan {
    let mut resident: Vec<PartitionId> = initial_resident.to_vec();
    let mut last_evicted: HashMap<PartitionId, i64> = HashMap::new();
    let mut loads = Vec::with_capacity(plan.partition_sets.len());
    let mut read_after = Vec::with_capacity(plan.partition_sets.len());
    for (s, set) in plan.partition_sets.iter().enumerate() {
        let step_loads: Vec<PartitionId> = set
            .iter()
            .copied()
            .filter(|p| !resident.contains(p))
            .collect();
        let dep = step_loads
            .iter()
            .filter_map(|p| last_evicted.get(p).copied())
            .max()
            .unwrap_or(-1);
        for p in &resident {
            if !set.contains(p) {
                last_evicted.insert(*p, s as i64);
            }
        }
        resident = set.clone();
        loads.push(step_loads);
        read_after.push(dep);
    }
    StepIoPlan { loads, read_after }
}

/// The in-order schedule: each step's stage bodies back to back on the
/// calling thread — read the context, read the missing partitions, install
/// them, write the evictions back — then the step's batches, built with the
/// step's RNG and applied as they are made.
fn run_in_order<B, MB, CB>(
    plan: &EpochPlan,
    buffer: &mut PartitionBuffer,
    epoch_seed: u64,
    make_batches: MB,
    mut consume: CB,
) -> Result<PipelineReport>
where
    MB: Fn(&StepContext, &mut StdRng, &mut dyn FnMut(B)),
    CB: FnMut(&mut PartitionBuffer, B),
{
    let io_plan = plan_step_io(plan, &buffer.resident_partitions());
    let store = buffer.store().clone();
    let ledger = buffer.writeback_ledger();
    let mut no_spans = Telemetry::disabled().scope("");
    let mut report = PipelineReport::default();
    for (s, set) in plan.partition_sets.iter().enumerate() {
        let ctx = read_context(&store, buffer.assignment(), plan, s)?;
        let new_parts = read_partitions(&store, &io_plan.loads[s], &mut no_spans, s)?;
        report.partition_loads += new_parts.len();
        let evicted = buffer.install_set(set, new_parts)?;
        report.partitions_written_back +=
            ledger.write_back(&store, &evicted, &mut no_spans, s as i64)?;
        // The detached generation is on disk: free it before training.
        drop(evicted);
        let mut rng = StdRng::seed_from_u64(step_seed(epoch_seed, s as u64));
        make_batches(&ctx, &mut rng, &mut |batch| {
            report.batches += 1;
            consume(buffer, batch);
        });
    }
    Ok(report)
}

/// Runs one training epoch over `plan`.
///
/// Every step runs the same four stage bodies — `read_context`,
/// `read_partitions` of the partitions the step misses,
/// `PartitionBuffer::install_set` of the plan's set for the step, and
/// `WritebackLedger::write_back` of the evictions — then
/// builds its batches and applies them. With [`PipelineConfig::enabled`]
/// and a non-empty plan the bodies run on the stage threads of the module
/// docs and overlap across steps. Otherwise they run in step order on the
/// calling thread: no threads, no stage spans, no `pipeline.*` counters, no
/// busy or stall time, and errors surface as the store raised them. Both
/// schedules feed `consume` the same batches in the same order, so the
/// in-order one is the threaded one's determinism oracle.
///
/// * `config` — the schedule and, when threaded, its worker count and
///   queue depths.
/// * `buffer` — the partition buffer; its store is read by the stage
///   bodies and its resident set is swapped as steps begin. The threaded
///   schedule records into the recorder of the store's
///   [`crate::IoEnv`]: every stage thread records spans under
///   its own track, every bounded queue samples its occupancy into a
///   `pipeline.queue_depth.*` histogram, and the [`PipelineReport`]
///   aggregates are mirrored into `pipeline.*` counters.
/// * `epoch_seed` — all in-epoch randomness derives from
///   [`step_seed`]`(epoch_seed, step)`, making the epoch reproducible for
///   either schedule and any worker count.
/// * `make_batches` — builds one step's training batches from its
///   [`StepContext`], handing each to the sink (which blocks under
///   back-pressure). Runs once per step, on worker threads when threaded.
/// * `consume` — applies one batch to the model. Runs on the calling
///   thread, after the step's set is installed in `buffer`; a batch that
///   needs its step's set carries the step and reads
///   `plan.partition_sets[step]`.
pub fn run_epoch<B, MB, CB>(
    config: &PipelineConfig,
    plan: &EpochPlan,
    buffer: &mut PartitionBuffer,
    epoch_seed: u64,
    make_batches: MB,
    consume: CB,
) -> Result<PipelineReport>
where
    B: Send,
    MB: Fn(&StepContext, &mut StdRng, &mut dyn FnMut(B)) + Sync,
    CB: FnMut(&mut PartitionBuffer, B),
{
    let epoch_start = Instant::now();
    let threaded = config.enabled && !plan.partition_sets.is_empty();
    let mut report = if threaded {
        run_threaded(config, plan, buffer, epoch_seed, make_batches, consume)?
    } else {
        run_in_order(plan, buffer, epoch_seed, make_batches, consume)?
    };
    report.steps = plan.partition_sets.len();
    report.wall_time = epoch_start.elapsed();
    if threaded {
        mirror_report(&buffer.store().env().telemetry, &report);
    }
    Ok(report)
}

/// The threaded schedule: the stage bodies on the stage threads of the
/// module docs, each in the [`Supervisor`]'s stage harness.
fn run_threaded<B, MB, CB>(
    config: &PipelineConfig,
    plan: &EpochPlan,
    buffer: &mut PartitionBuffer,
    epoch_seed: u64,
    make_batches: MB,
    mut consume: CB,
) -> Result<PipelineReport>
where
    B: Send,
    MB: Fn(&StepContext, &mut StdRng, &mut dyn FnMut(B)) + Sync,
    CB: FnMut(&mut PartitionBuffer, B),
{
    let mut report = PipelineReport::default();
    let workers = config.num_sampling_workers.max(1);
    let io_plan = plan_step_io(plan, &buffer.resident_partitions());
    let store = buffer.store().clone();
    let assignment = buffer.assignment().clone();
    let ledger = buffer.writeback_ledger();

    let telemetry = &store.env().telemetry;
    // Queue-occupancy histograms, sampled after every push. All workers'
    // step (and batch) queues share one histogram by name, so the export
    // shows the stage edge, not the individual worker lane.
    let qd = |name: &str| telemetry.histogram(name, QUEUE_DEPTH_BOUNDS);
    let step_queues: Vec<BoundedQueue<StepContext>> = (0..workers)
        .map(|_| BoundedQueue::with_depth(config.prefetch_depth, qd("pipeline.queue_depth.step")))
        .collect();
    let batch_queues: Vec<BoundedQueue<StepOut<B>>> = (0..workers)
        .map(|_| BoundedQueue::with_depth(config.queue_depth, qd("pipeline.queue_depth.batch")))
        .collect();
    // Partition prefetcher → consumer: one payload per step, in step order.
    let parts_queue: BoundedQueue<Vec<PartitionPayload>> =
        BoundedQueue::with_depth(config.prefetch_depth, qd("pipeline.queue_depth.parts"));
    // Consumer → write-back drain: one item per step, even when the step
    // evicted nothing, so the `writeback` watermark advances in step
    // order and every re-read dependency eventually unblocks.
    let wb_queue: BoundedQueue<(usize, Vec<EvictedPartition>)> =
        BoundedQueue::with_depth(config.writeback_depth, qd("pipeline.queue_depth.writeback"));
    let sup = Supervisor::new();
    let close_step_queues = || step_queues.iter().for_each(BoundedQueue::close);

    std::thread::scope(|scope| {
        // ---- Stage 1a: the context prefetcher thread. ----------------
        // Bucket files are immutable during the epoch, so step contexts
        // (subgraph, edges, candidates) can be read arbitrarily far ahead of the
        // consumer — this is what lets stage-2 workers start sampling
        // future steps while earlier steps still compute.
        let ctx_handle = scope.spawn(|| {
            let body = |span: &mut SpanScope| -> Result<(Duration, Duration)> {
                let (mut busy, mut stall) = (Duration::ZERO, Duration::ZERO);
                for s in 0..plan.partition_sets.len() {
                    if sup.aborted() {
                        break;
                    }
                    span.begin("context-prefetch.step", s as i64, NO_LABEL);
                    let busy_start = Instant::now();
                    let ctx = read_context(&store, &assignment, plan, s);
                    busy += busy_start.elapsed();
                    span.end();
                    match step_queues[s % workers].push(ctx?) {
                        Some(waited) => stall += waited,
                        None => break,
                    }
                }
                Ok((busy, stall))
            };
            sup.run_stage(
                telemetry,
                "context-prefetch",
                "context-prefetch",
                body,
                close_step_queues,
            )
        });

        // ---- Stage 1b: the partition prefetcher thread. --------------
        // Partition files are rewritten by the write-back drain after an
        // eviction, so each read waits for the watermark to pass the
        // partition's last eviction before it is issued: only then are the
        // file's bytes the evicted generation's, not stale.
        let parts_handle = scope.spawn(|| {
            let body = |span: &mut SpanScope| -> Result<(Duration, Duration)> {
                let (mut busy, mut stall) = (Duration::ZERO, Duration::ZERO);
                for (s, loads) in io_plan.loads.iter().enumerate() {
                    let dep = io_plan.read_after[s];
                    if dep >= 0 {
                        span.begin("partition-prefetch.wait-writeback", s as i64, NO_LABEL);
                        stall += sup.writeback.wait_for(dep, &sup.abort);
                        span.end();
                    }
                    if sup.aborted() {
                        break;
                    }
                    span.begin("partition-prefetch.step", s as i64, NO_LABEL);
                    let busy_start = Instant::now();
                    let parts = read_partitions(&store, loads, span, s);
                    busy += busy_start.elapsed();
                    span.end();
                    match parts_queue.push(parts?) {
                        Some(waited) => stall += waited,
                        None => break,
                    }
                }
                Ok((busy, stall))
            };
            sup.run_stage(
                telemetry,
                "partition-prefetch",
                "partition-prefetch",
                body,
                || parts_queue.close(),
            )
        });

        // ---- Stage 4: the write-back drain thread. -------------------
        // Writes each step's detached dirty evictions to the store off the
        // compute path. It keeps writing after another stage's failure
        // (dropping detached updates would corrupt the store). After a disk
        // error of its own, its exit action pops what remains, so the
        // consumer never blocks on a full queue, and abandons every pending
        // write-back (the run has failed; those bytes are recovered from the
        // last checkpoint, not this epoch). After a clean drain that exit
        // finds nothing to do.
        let wb_handle = scope.spawn(|| {
            let body = |span: &mut SpanScope| -> Result<(Duration, Duration, usize)> {
                let (mut busy, mut stall, mut written) = (Duration::ZERO, Duration::ZERO, 0);
                while let Some(((step, evicted), waited)) = wb_queue.pop() {
                    stall += waited;
                    span.begin("writeback.step", step as i64, NO_LABEL);
                    let busy_start = Instant::now();
                    let wrote = ledger.write_back(&store, &evicted, span, step as i64);
                    busy += busy_start.elapsed();
                    span.end();
                    written += wrote?;
                    sup.writeback.publish(step as i64);
                }
                Ok((busy, stall, written))
            };
            let degraded = || {
                while wb_queue.pop().is_some() {}
                ledger.abandon_pending();
            };
            sup.run_stage(
                telemetry,
                "writeback-drain",
                "writeback-drain",
                body,
                degraded,
            )
        });

        // ---- Stage 2: batch-construction workers. --------------------
        let worker_handles: Vec<_> = (0..workers)
            .map(|w| {
                let (in_q, out_q) = (&step_queues[w], &batch_queues[w]);
                let (sup, make_batches) = (&sup, &make_batches);
                scope.spawn(move || {
                    let body = |span: &mut SpanScope| -> Result<(Duration, Duration)> {
                        let (mut busy, mut stall) = (Duration::ZERO, Duration::ZERO);
                        while let Some((ctx, waited)) = in_q.pop() {
                            stall += waited;
                            let mut rng =
                                StdRng::seed_from_u64(step_seed(epoch_seed, ctx.step as u64));
                            span.begin("sample.step", ctx.step as i64, NO_LABEL);
                            let step_start = Instant::now();
                            let mut sink_wait = Duration::ZERO;
                            make_batches(&ctx, &mut rng, &mut |batch| {
                                // A closed queue drops the batch: the epoch aborted.
                                sink_wait += out_q.push(StepOut::Batch(batch)).unwrap_or_default();
                            });
                            busy += step_start.elapsed().saturating_sub(sink_wait);
                            stall += sink_wait;
                            span.end();
                            match out_q.push(StepOut::End) {
                                Some(waited) => stall += waited,
                                None => break,
                            }
                        }
                        Ok((busy, stall))
                    };
                    sup.run_stage(
                        telemetry,
                        "batch-worker",
                        &format!("batch-worker-{w}"),
                        body,
                        || {
                            in_q.close();
                            out_q.close();
                        },
                    )
                })
            })
            .collect();

        // ---- Stage 3: the compute consumer (this thread). ------------
        // Its exit closes every queue, so the stages upstream stop and the
        // drain writes out every detached eviction before it is joined.
        let ended = |what: &str, s: usize| StorageError::InvalidPlan {
            reason: format!("{what} ended before step {s} completed"),
        };
        let consumer = |span: &mut SpanScope| -> Result<()> {
            for (s, set) in plan.partition_sets.iter().enumerate() {
                let (new_parts, waited) = parts_queue
                    .pop()
                    .ok_or_else(|| ended("partition prefetch", s))?;
                report.compute_stall += waited;
                report.partition_loads += new_parts.len();
                span.begin("compute.step", s as i64, NO_LABEL);
                span.begin("compute.install", s as i64, NO_LABEL);
                let install_start = Instant::now();
                let evicted = buffer.install_set(set, new_parts)?;
                report.compute_busy += install_start.elapsed();
                span.end();
                // Hand the detached generation to the drain, even when empty
                // so the watermark advances through every step. A full queue
                // here is write-back back-pressure on compute, booked as a
                // stall.
                report.compute_stall += wb_queue.push((s, evicted)).unwrap_or_default();
                let batches = &batch_queues[s % workers];
                loop {
                    let (item, waited) =
                        batches.pop().ok_or_else(|| ended("pipeline stage 2", s))?;
                    report.compute_stall += waited;
                    let busy_start = Instant::now();
                    let StepOut::Batch(batch) = item else {
                        span.end();
                        break;
                    };
                    report.batches += 1;
                    span.begin("compute.batch", s as i64, NO_LABEL);
                    consume(buffer, batch);
                    span.end();
                    report.compute_busy += busy_start.elapsed();
                }
            }
            Ok(())
        };
        sup.run_stage(telemetry, "compute", "compute", consumer, || {
            close_step_queues();
            batch_queues.iter().for_each(BoundedQueue::close);
            parts_queue.close();
            wb_queue.close();
        });

        // The stage bodies run in the harness, so these joins cannot fail.
        let (ctx_busy, ctx_stall) = ctx_handle.join().unwrap_or_default();
        let (parts_busy, parts_stall) = parts_handle.join().unwrap_or_default();
        report.prefetch_busy = ctx_busy + parts_busy;
        report.prefetch_stall = ctx_stall + parts_stall;
        for handle in worker_handles {
            let (busy, stall) = handle.join().unwrap_or_default();
            report.sample_busy += busy;
            report.sample_stall += stall;
        }
        (
            report.writeback_busy,
            report.writeback_stall,
            report.partitions_written_back,
        ) = wb_handle.join().unwrap_or_default();
    });

    if let Some(err) = sup
        .failure
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(err);
    }
    debug_assert_eq!(
        ledger.pending_count(),
        0,
        "every detached eviction must drain before run_epoch returns"
    );
    Ok(report)
}

/// Mirrors one epoch's [`PipelineReport`] into the `pipeline.*` counters,
/// so `metrics.json` aggregates agree with the report fields exactly
/// (the counters accumulate across epochs).
fn mirror_report(t: &Telemetry, report: &PipelineReport) {
    if !t.is_enabled() {
        return;
    }
    t.counter("pipeline.steps").add(report.steps as u64);
    t.counter("pipeline.batches").add(report.batches as u64);
    t.counter("pipeline.partition_loads")
        .add(report.partition_loads as u64);
    t.counter("pipeline.prefetch_busy_ns")
        .add_duration(report.prefetch_busy);
    t.counter("pipeline.prefetch_stall_ns")
        .add_duration(report.prefetch_stall);
    t.counter("pipeline.sample_busy_ns")
        .add_duration(report.sample_busy);
    t.counter("pipeline.sample_stall_ns")
        .add_duration(report.sample_stall);
    t.counter("pipeline.compute_busy_ns")
        .add_duration(report.compute_busy);
    t.counter("pipeline.compute_stall_ns")
        .add_duration(report.compute_stall);
    t.counter("pipeline.writeback_busy_ns")
        .add_duration(report.writeback_busy);
    t.counter("pipeline.writeback_stall_ns")
        .add_duration(report.writeback_stall);
    t.counter("pipeline.partitions_written_back")
        .add(report.partitions_written_back as u64);
    t.counter("pipeline.wall_time_ns")
        .add_duration(report.wall_time);
}

#[cfg(test)]
mod supervision;
#[cfg(test)]
mod writeback;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoEnv, PartitionStore};
    use marius_graph::{EdgeList, Partitioner};
    use marius_telemetry::Phase;
    use rand::Rng;
    use std::sync::Arc;

    fn build_buffer(label: &str, num_nodes: u64, p: u32, capacity: usize) -> PartitionBuffer {
        observed_buffer(&Telemetry::disabled(), label, num_nodes, p, capacity)
    }

    /// [`build_buffer`] over a store opened under an env carrying
    /// `telemetry`: the one attachment the store, the buffer and the
    /// pipeline all record through.
    fn observed_buffer(
        telemetry: &Telemetry,
        label: &str,
        num_nodes: u64,
        p: u32,
        capacity: usize,
    ) -> PartitionBuffer {
        let mut rng = StdRng::seed_from_u64(11);
        let mut el = EdgeList::new(num_nodes);
        for i in 0..num_nodes {
            el.push(Edge::new(i, (i + 1) % num_nodes)).unwrap();
            el.push(Edge::new(i, (i + 3) % num_nodes)).unwrap();
        }
        let partitioner = Partitioner::new(p).unwrap();
        let assignment = partitioner.random(num_nodes, &mut rng);
        let buckets = partitioner.build_buckets(&el, &assignment).unwrap();
        let env = IoEnv {
            telemetry: telemetry.clone(),
            ..IoEnv::default()
        };
        let store = env.open_store(PartitionStore::temp_path(label)).unwrap();
        store.clear().unwrap();
        let buffer = PartitionBuffer::new(store, assignment, 4, capacity, true);
        buffer.initialize_random(0.1, &mut rng).unwrap();
        buffer.initialize_buckets(&buckets).unwrap();
        buffer
    }

    fn pair_plan(p: u32, capacity: usize, seed: u64) -> EpochPlan {
        use crate::policy::ReplacementPolicy;
        let mut rng = StdRng::seed_from_u64(seed);
        crate::BetaPolicy::new(capacity).plan(p, &mut rng).unwrap()
    }

    #[test]
    fn step_seed_is_stable_and_spread() {
        assert_eq!(step_seed(7, 3), step_seed(7, 3));
        assert_ne!(step_seed(7, 3), step_seed(7, 4));
        assert_ne!(step_seed(7, 3), step_seed(8, 3));
    }

    #[test]
    fn io_plan_tracks_loads_and_dependencies() {
        let plan = EpochPlan {
            partition_sets: vec![vec![0, 1], vec![1, 2], vec![0, 1]],
            bucket_assignment: vec![vec![], vec![], vec![]],
        };
        let io = plan_step_io(&plan, &[]);
        assert_eq!(io.loads, vec![vec![0, 1], vec![2], vec![0]]);
        // Partition 0 is evicted at step 1 and re-read at step 2.
        assert_eq!(io.read_after, vec![-1, -1, 1]);
        // Initial residency suppresses the first loads.
        let io = plan_step_io(&plan, &[0, 1]);
        assert_eq!(io.loads[0], Vec::<PartitionId>::new());
    }

    #[test]
    fn bounded_queue_blocks_and_closes() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2));
        std::thread::sleep(Duration::from_millis(20));
        let (v, _) = q.pop().unwrap();
        assert_eq!(v, 1);
        assert!(producer.join().unwrap().is_some());
        let (v, _) = q.pop().unwrap();
        assert_eq!(v, 2);
        q.close();
        assert!(q.pop().is_none());
        assert!(q.push(3).is_none());
    }

    #[test]
    fn pipelined_epoch_visits_every_bucket_once() {
        for workers in [1usize, 3] {
            let mut buffer = build_buffer(&format!("pipe-visit-{workers}"), 60, 6, 3);
            let plan = pair_plan(6, 3, 5);
            let config = PipelineConfig::with_workers(workers);
            let seen = Mutex::new(Vec::<(usize, usize)>::new());
            let report = run_epoch(
                &config,
                &plan,
                &mut buffer,
                99,
                |ctx, rng, sink| {
                    // One "batch" per assigned bucket, tagged with a random
                    // draw so determinism is observable.
                    for (k, _) in plan.bucket_assignment[ctx.step].iter().enumerate() {
                        let _ = rng.gen::<u64>();
                        sink((ctx.step, k));
                    }
                },
                |buffer, (step, k)| {
                    assert_eq!(buffer.resident_partitions(), {
                        let mut s = plan.partition_sets[step].clone();
                        s.sort_unstable();
                        s
                    });
                    seen.lock().unwrap().push((step, k));
                },
            )
            .unwrap();
            let seen = seen.into_inner().unwrap();
            let expected: Vec<(usize, usize)> = plan
                .bucket_assignment
                .iter()
                .enumerate()
                .flat_map(|(s, buckets)| (0..buckets.len()).map(move |k| (s, k)))
                .collect();
            assert_eq!(seen, expected, "workers={workers}");
            assert_eq!(report.batches, expected.len());
            assert_eq!(report.steps, plan.partition_sets.len());
            assert_eq!(report.partition_loads, plan.partition_loads());
            assert!(report.wall_time > Duration::ZERO);
        }
    }

    #[test]
    fn pipelined_updates_survive_eviction_and_reload() {
        // Apply an update to a node in every step's first partition; after the
        // epoch plus flush, reading the store back must show every update.
        let mut buffer = build_buffer("pipe-update", 40, 4, 2);
        let plan = pair_plan(4, 2, 9);
        let config = PipelineConfig::with_workers(2);
        let assignment = buffer.assignment().clone();
        let mut touched: Vec<NodeId> = Vec::new();
        run_epoch(
            &config,
            &plan,
            &mut buffer,
            17,
            |ctx, _rng, sink| sink(ctx.set[0]),
            |buffer, partition: PartitionId| {
                let node = assignment.nodes_in(partition)[0];
                let grad = marius_tensor::Tensor::ones(1, 4);
                buffer.apply_update(&[node], &grad).unwrap();
                touched.push(node);
            },
        )
        .unwrap();
        buffer.flush().unwrap();
        assert!(!touched.is_empty());
        // A second pipelined pass observes the updated values via gather.
        let store = buffer.store().clone();
        for &node in &touched {
            let (p, _) = (assignment.partition_of(node), 0);
            let (values, state) = store.read_partition(p).unwrap();
            assert_eq!(values.len(), state.len());
            // Updated rows have non-zero Adagrad state.
            let offset = assignment
                .nodes_in(p)
                .iter()
                .position(|&n| n == node)
                .unwrap();
            assert!(state[offset * 4..(offset + 1) * 4].iter().all(|&s| s > 0.0));
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        // (batch stream, partition loads, partition files after flush)
        let run = |label: &str, config: PipelineConfig| {
            let mut buffer = build_buffer(&format!("pipe-det-{label}"), 50, 5, 2);
            let plan = pair_plan(5, 2, 21);
            let assignment = buffer.assignment().clone();
            let out = Mutex::new(Vec::new());
            let report = run_epoch(
                &config,
                &plan,
                &mut buffer,
                4242,
                |ctx, rng, sink| {
                    for _ in 0..3 {
                        sink(((ctx.step as u64) << 32) | (rng.gen::<u64>() >> 32));
                    }
                },
                |buffer, v| {
                    // An update that depends on the batch, so the files
                    // record the order batches were applied in.
                    let node = assignment.nodes_in(plan.partition_sets[(v >> 32) as usize][0])[0];
                    let grad = marius_tensor::Tensor::full(1, 4, (v % 97) as f32 * 0.01);
                    buffer.apply_update(&[node], &grad).unwrap();
                    out.lock().unwrap().push(v);
                },
            )
            .unwrap();
            buffer.flush().unwrap();
            let root = buffer.store().root();
            let files: Vec<Vec<u8>> = (0..5)
                .map(|p| std::fs::read(root.join(format!("node_partition_{p}.bin"))).unwrap())
                .collect();
            (out.into_inner().unwrap(), report.partition_loads, files)
        };
        let in_order = run("in-order", PipelineConfig::disabled());
        let one = run("1", PipelineConfig::with_workers(1));
        let four = run("4", PipelineConfig::with_workers(4));
        assert_eq!(
            in_order.0.len(),
            3 * pair_plan(5, 2, 21).partition_sets.len()
        );
        assert_eq!(in_order.1, pair_plan(5, 2, 21).partition_loads());
        for (label, threaded) in [("1 worker", one), ("4 workers", four)] {
            assert_eq!(threaded.0, in_order.0, "{label}: batch stream");
            assert_eq!(threaded.1, in_order.1, "{label}: partition loads");
            assert!(threaded.2 == in_order.2, "{label}: partition files differ");
        }
    }

    #[test]
    fn read_context_reads_the_sets_buckets_and_candidates() {
        let buffer = build_buffer("pipe-context", 40, 4, 2);
        let (store, assignment) = (buffer.store(), buffer.assignment());
        // Step 3's assignment is not in `set × set` order.
        let assigned = vec![(0, 2), (2, 2), (0, 0)];
        let mut plan = EpochPlan {
            partition_sets: vec![vec![]; 3],
            bucket_assignment: vec![vec![]; 3],
        };
        plan.partition_sets.push(vec![2, 0]);
        plan.bucket_assignment.push(assigned.clone());
        let ctx = read_context(store, assignment, &plan, 3).unwrap();
        assert_eq!((ctx.step, ctx.set.clone()), (3, vec![2, 0]));
        // The training edges: the assigned bucket files, in assignment order.
        let files: Vec<Edge> = assigned
            .iter()
            .flat_map(|&(i, j)| store.read_bucket(i, j).unwrap())
            .collect();
        assert!(!files.is_empty());
        assert_eq!(ctx.edges, files);
        // The subgraph holds exactly the four buckets between 0 and 2.
        let expected: usize = [(2u32, 2u32), (2, 0), (0, 2), (0, 0)]
            .iter()
            .map(|&(i, j)| store.read_bucket(i, j).unwrap().len())
            .sum();
        assert!(expected > 0);
        assert_eq!(ctx.subgraph.num_edges(), expected);
        // Candidates: every node of the set, in ascending-partition order.
        let mut candidates = assignment.nodes_in(0).to_vec();
        candidates.extend_from_slice(assignment.nodes_in(2));
        assert_eq!(ctx.candidates, candidates);
        // A bucket assigned outside the step's set is a typed plan error.
        plan.bucket_assignment[3].push((1, 0));
        let err = read_context(store, assignment, &plan, 3).err().unwrap();
        assert!(matches!(err, StorageError::InvalidPlan { .. }), "{err}");
    }

    #[test]
    fn in_order_schedule_records_no_pipeline_telemetry() {
        // The in-order schedule runs when the pipeline is disabled, and also
        // when it is enabled over a plan with no steps.
        let empty = EpochPlan {
            partition_sets: vec![],
            bucket_assignment: vec![],
        };
        for (label, config, plan) in [
            ("disabled", PipelineConfig::disabled(), pair_plan(4, 2, 13)),
            ("empty-plan", PipelineConfig::with_workers(2), empty),
        ] {
            let telemetry = Telemetry::enabled();
            let mut buffer = observed_buffer(
                &telemetry,
                &format!("pipe-in-order-telemetry-{label}"),
                40,
                4,
                2,
            );
            let report = run_epoch(
                &config,
                &plan,
                &mut buffer,
                5,
                |ctx, _rng, sink| sink(ctx.step),
                |_buffer, _step: usize| {},
            )
            .unwrap();
            assert_eq!(report.batches, plan.partition_sets.len(), "{label}");
            assert_eq!(report.partition_loads, plan.partition_loads(), "{label}");
            assert_eq!(report.overlap_ratio(), 0.0, "{label}");
            assert!(telemetry.span_events().is_empty(), "{label}");
            let snap = telemetry.metrics_snapshot();
            assert_eq!(snap.counter("pipeline.steps"), None, "{label}");
            assert_eq!(snap.counter("pipeline.wall_time_ns"), None, "{label}");
        }
    }

    #[test]
    fn epoch_end_is_a_writeback_safe_point() {
        // After run_epoch returns, the ledger is empty and the safe-point
        // hook must return without blocking — a snapshot taken here sees
        // every detached eviction on disk.
        let mut buffer = build_buffer("pipe-safe-point", 40, 4, 2);
        let plan = pair_plan(4, 2, 13);
        let config = PipelineConfig::with_workers(2);
        let assignment = buffer.assignment().clone();
        run_epoch(
            &config,
            &plan,
            &mut buffer,
            23,
            |ctx, _rng, sink| sink(ctx.set[0]),
            |buffer, partition: PartitionId| {
                let node = assignment.nodes_in(partition)[0];
                let grad = marius_tensor::Tensor::ones(1, 4);
                buffer.apply_update(&[node], &grad).unwrap();
            },
        )
        .unwrap();
        writeback_safe_point(&buffer).unwrap();
        assert_eq!(buffer.writeback_ledger().pending_count(), 0);
    }

    #[test]
    fn telemetry_spans_and_counters_mirror_report() {
        let telemetry = Telemetry::enabled();
        let mut buffer = observed_buffer(&telemetry, "pipe-telemetry", 60, 6, 3);
        let plan = pair_plan(6, 3, 5);
        let config = PipelineConfig::with_workers(2);
        let report = run_epoch(
            &config,
            &plan,
            &mut buffer,
            99,
            |ctx, _rng, sink| {
                for k in 0..plan.bucket_assignment[ctx.step].len() {
                    sink((ctx.step, k));
                }
            },
            |_buffer, _batch: (usize, usize)| {},
        )
        .unwrap();
        let snap = telemetry.metrics_snapshot();
        // The store and the buffer recorded into the same registry through
        // the store's env.
        assert!(snap.counter("storage.reads").unwrap_or(0) > 0);
        let swaps =
            snap.counter("buffer.hits").unwrap_or(0) + snap.counter("buffer.misses").unwrap_or(0);
        assert!(swaps > 0);
        // Counters mirror the report exactly.
        assert_eq!(snap.counter("pipeline.steps"), Some(report.steps as u64));
        assert_eq!(
            snap.counter("pipeline.batches"),
            Some(report.batches as u64)
        );
        assert_eq!(
            snap.counter("pipeline.partition_loads"),
            Some(report.partition_loads as u64)
        );
        assert_eq!(
            snap.counter("pipeline.prefetch_busy_ns"),
            Some(report.prefetch_busy.as_nanos() as u64)
        );
        assert_eq!(
            snap.counter("pipeline.compute_stall_ns"),
            Some(report.compute_stall.as_nanos() as u64)
        );
        // Every queue sampled its depth at least once per push.
        let depths = snap.histogram("pipeline.queue_depth.batch").unwrap();
        assert!(depths.total as usize >= report.batches);
        // All five stage tracks recorded spans, and the stream is balanced.
        let events = telemetry.span_events();
        let names: std::collections::BTreeSet<&str> = events
            .iter()
            .map(|e| e.name)
            .filter(|n| !n.is_empty())
            .collect();
        for expected in [
            "context-prefetch.step",
            "partition-prefetch.step",
            "sample.step",
            "compute.step",
            "compute.install",
            "writeback.step",
        ] {
            assert!(names.contains(expected), "missing span {expected}");
        }
        let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = events.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins, ends);
    }

    #[test]
    fn telemetry_does_not_change_batch_stream() {
        let run = |telemetry: Telemetry| -> Vec<u64> {
            let mut buffer = observed_buffer(&telemetry, "pipe-telem-det", 50, 5, 2);
            let plan = pair_plan(5, 2, 21);
            let config = PipelineConfig::with_workers(3);
            let out = Mutex::new(Vec::new());
            run_epoch(
                &config,
                &plan,
                &mut buffer,
                4242,
                |ctx, rng, sink| {
                    for _ in 0..3 {
                        sink(((ctx.step as u64) << 32) | (rng.gen::<u64>() >> 32));
                    }
                },
                |_buffer, v| out.lock().unwrap().push(v),
            )
            .unwrap();
            out.into_inner().unwrap()
        };
        assert_eq!(run(Telemetry::disabled()), run(Telemetry::enabled()));
    }

    #[test]
    fn storage_error_surfaces_and_shuts_down() {
        let mut buffer = build_buffer("pipe-error", 40, 4, 2);
        let plan = pair_plan(4, 2, 3);
        // Delete every partition file: the prefetcher's first read fails.
        buffer.store().clear().unwrap();
        let config = PipelineConfig::with_workers(2);
        let result = run_epoch(
            &config,
            &plan,
            &mut buffer,
            1,
            |_ctx, _rng, sink| sink(0u32),
            |_buffer, _v| {},
        );
        assert!(result.is_err());
    }
}

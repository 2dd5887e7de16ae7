//! The out-of-core training step and its two schedules (`marius-pipeline`).
//!
//! Out-of-core training repeats one step per partition set `Sᵢ` of an
//! [`EpochPlan`]: read the set's edge buckets into a sampling subgraph
//! (`read_context`), read the partitions the buffer misses
//! (`read_partitions`), swap them in
//! ([`PartitionBuffer::install_set`]), write the evicted dirty partitions back
//! ([`marius_storage::WritebackLedger::write_back`]), then build and train the
//! step's batches. Each of those stage bodies is written once.
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
//!  ┌──────────────────────────┐   StepContext (subgraph
//!  │ Stage 1: prefetcher      │   + candidates)
//!  │ (1 thread)               ├──────────────┐  bounded, depth =
//!  │ reads PartitionStore     │              │  `prefetch_depth`
//!  │ ahead of the consumer    │              ▼
//!  └──────────────────────────┘   ┌──────────────────────────┐
//!        ▲ waits for              │ Stage 2: batch builders  │
//!        │ `writeback ≥ e`       │ (`num_sampling_workers`  │
//!        │ (e = the partition's   │  threads)                │
//!        │ last eviction) before  │ shuffle + negative       │
//!        │ re-reading its file    │ sampling + DENSE         │
//!        │                        │ multi-hop sampling       │
//!        │                        └────────────┬─────────────┘
//!        │                                     │ StepOut::{Begin,Batch,End}
//!        │                                     │ bounded, depth = `queue_depth`
//!        │                                     ▼
//!  ┌─────┴────────────────────────────────────────────────────┐
//!  │ Stage 3: compute consumer (the calling thread)           │
//!  │ installs prefetched partitions into the PartitionBuffer, │
//!  │ detaching evicted dirty partitions (a second buffer      │
//!  │ generation), publishes `swap = s`, and applies           │
//!  │ train_prepared / optimizer updates — no disk IO at all   │
//!  └───────────┬──────────────────────────────────────────────┘
//!              │ (step, Vec<EvictedPartition>)
//!              │ bounded, depth = `writeback_depth`
//!              ▼
//!  ┌──────────────────────────────────────────────────────────┐
//!  │ Stage 4: write-back drain (1 thread)                     │
//!  │ waits for `swap ≥ s`, writes the step's detached dirty   │
//!  │ partitions to the PartitionStore, marks them drained in  │
//!  │ the WritebackLedger, publishes `writeback = s`           │
//!  └──────────────────────────────────────────────────────────┘
//! ```
//!
//! The transition clock carries **two** step watermarks. `swap` — the
//! highest step whose buffer swap has completed — is published by the
//! consumer the moment the step's partitions are installed (batches may flow
//! and the write-back lane may drain that step's detached generation).
//! `writeback` — the highest step whose detached evictions are durably on
//! disk — is published by the drain and is what the partition prefetcher
//! waits on before re-reading an evicted partition's file. Splitting the two
//! is what removes the last synchronous disk IO from stage 3: under the old
//! single watermark, eviction writes had to finish inside the swap.
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
//! landed the detached copy, so it waits for `writeback ≥ e` before issuing
//! the read. Epoch end and abort both drain the write-back queue completely
//! before `run_epoch` returns (the drain keeps writing even after an abort),
//! so no detached update is ever lost and `PartitionBuffer::flush` finds the
//! ledger empty. Edge-bucket files are immutable during an epoch and are
//! prefetched without synchronisation.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use marius_graph::{Edge, InMemorySubgraph, NodeId, PartitionAssignment, PartitionId};
use marius_storage::{EvictedPartition, PartitionBuffer, PartitionStore, Result, StorageError};
use marius_telemetry::{Histogram, SpanScope, Telemetry, NO_LABEL};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub use marius_storage::EpochPlan;

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
/// The `writeback` watermark (stage 4) trails the `swap` watermark by design:
/// between the two, evicted dirty partitions live only as detached in-memory
/// generations and the corresponding files on disk are stale. A
/// `PartitionStore::snapshot_to` taken inside that window would capture the
/// stale bytes and silently lose training updates. `run_epoch` drains the
/// write-back queue completely before returning (even on abort), so at every
/// epoch boundary this returns immediately; it exists so checkpoint writers
/// can *assert* the safe point instead of assuming it, and so future partial
/// (mid-epoch) checkpoints have a primitive that waits for `writeback` to
/// catch up with `swap`. The streaming ingest path (`marius-stream`) asserts
/// it for the same reason before applying staged edge deltas at an epoch
/// boundary: growing a bucket is only safe once its file and its in-memory
/// contents agree.
///
/// Errors only if a peer thread panicked while the ledger was locked (see
/// `WritebackLedger::wait_drained`) — a typed error rather than a cascading
/// panic.
pub fn writeback_safe_point(buffer: &PartitionBuffer) -> Result<()> {
    buffer.writeback_ledger().wait_drained()
}

/// Structured description of a failed pipeline stage, produced by the
/// supervision layer wrapped around every stage thread.
///
/// Each stage body runs under [`std::panic::catch_unwind`]; a panic — or a
/// storage error that survived the store's retry budget — is converted into
/// a `PipelineError`, the transition clock is aborted, every queue is
/// closed, the write-back ledger is drained to a safe point, and the error
/// surfaces from [`run_epoch`] as
/// [`StorageError::Pipeline`] (via the [`From`] impl) so trainers and
/// sessions observe one typed error instead of a deadlock or a poisoned
/// lock.
#[derive(Debug, Clone)]
pub struct PipelineError {
    /// The stage that failed: `"context-prefetch"`, `"partition-prefetch"`,
    /// `"batch-worker"`, `"compute"`, or `"writeback-drain"`.
    pub stage: &'static str,
    /// Root-cause description (panic payload or storage error text).
    pub reason: String,
    /// `true` when the stage panicked; `false` when it returned a typed
    /// error.
    pub panicked: bool,
}

impl PipelineError {
    /// Describes a stage that panicked with `payload`.
    fn panicked(stage: &'static str, payload: &(dyn std::any::Any + Send)) -> Self {
        let reason = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        PipelineError {
            stage,
            reason,
            panicked: true,
        }
    }

    /// Attributes a storage error to the stage that raised it. Errors that
    /// already carry a stage (nested pipeline errors) keep their original
    /// attribution.
    fn wrap(stage: &'static str, e: StorageError) -> StorageError {
        match e {
            StorageError::Pipeline { .. } => e,
            e => StorageError::Pipeline {
                stage: stage.to_string(),
                reason: e.to_string(),
            },
        }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.panicked { "panicked" } else { "failed" };
        write!(f, "pipeline stage '{}' {kind}: {}", self.stage, self.reason)
    }
}

impl From<PipelineError> for StorageError {
    fn from(e: PipelineError) -> Self {
        StorageError::Pipeline {
            stage: e.stage.to_string(),
            reason: if e.panicked {
                format!("panicked: {}", e.reason)
            } else {
                e.reason
            },
        }
    }
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

/// Everything a batch-construction worker (and the consumer) needs to know
/// about one plan step, built by `read_context`.
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
}

/// Stage body 1: reads step `step`'s context — the edge buckets between the
/// partitions of `set`, in `set × set` order, built into the sampling
/// subgraph, and the candidate nodes of `set` in ascending-partition order.
/// Bucket files are immutable during an epoch, so this may run arbitrarily
/// far ahead of the step's swap.
fn read_context(
    store: &PartitionStore,
    assignment: &PartitionAssignment,
    step: usize,
    set: &[PartitionId],
) -> Result<StepContext> {
    let mut edges: Vec<Edge> = Vec::new();
    for &i in set {
        for &j in set {
            edges.extend_from_slice(&store.read_bucket(i, j)?);
        }
    }
    let mut sorted_set = set.to_vec();
    sorted_set.sort_unstable();
    let mut candidates = Vec::new();
    for &p in &sorted_set {
        candidates.extend_from_slice(assignment.nodes_in(p));
    }
    Ok(StepContext {
        step,
        set: set.to_vec(),
        candidates,
        subgraph: InMemorySubgraph::from_edges(&edges),
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

/// The partitions to install for one step — the ones not resident when the
/// step begins. Flows from the partition prefetcher straight to the consumer,
/// in step order.
type StepParts = (usize, Vec<PartitionPayload>);

/// Items flowing from a worker to the consumer.
enum StepOut<B> {
    /// Step boundary: the consumer swaps the buffer to the context's set
    /// using the separately prefetched partition payload (no disk reads on
    /// the critical path).
    Begin(Arc<StepContext>),
    /// One constructed training batch.
    Batch(B),
    /// The step produced all of its batches.
    End,
    /// A storage error encountered upstream; aborts the epoch.
    Err(StorageError),
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

/// A monotone step watermark one stage publishes and others wait on.
struct Watermark {
    done: Mutex<i64>,
    advanced: Condvar,
}

impl Watermark {
    fn new() -> Self {
        Watermark {
            done: Mutex::new(-1),
            advanced: Condvar::new(),
        }
    }

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

/// The step-transition clock the pipeline's stages synchronise on. The single
/// watermark of the inline-write-back design is split in two:
///
/// * `swap` — highest step whose buffer swap has completed (its partitions
///   are installed, its batches may be consumed, and its detached evictions
///   may be drained);
/// * `writeback` — highest step whose detached dirty evictions are durably
///   on disk (the partition prefetcher may re-read their files).
///
/// `writeback` trails `swap`; the gap between the two is exactly the window
/// in which a second generation of evicted buffers is alive off the compute
/// path.
struct TransitionClock {
    swap: Watermark,
    writeback: Watermark,
    abort: AtomicBool,
}

impl TransitionClock {
    fn new() -> Self {
        TransitionClock {
            swap: Watermark::new(),
            writeback: Watermark::new(),
            abort: AtomicBool::new(false),
        }
    }

    fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
        self.swap.advanced.notify_all();
        self.writeback.advanced.notify_all();
    }
}

/// Nanosecond busy/stall accounting shared across threads.
#[derive(Default)]
struct StageClocks {
    prefetch_busy: AtomicU64,
    prefetch_stall: AtomicU64,
    sample_busy: AtomicU64,
    sample_stall: AtomicU64,
    writeback_busy: AtomicU64,
    writeback_stall: AtomicU64,
    writeback_parts: AtomicU64,
}

fn add_nanos(cell: &AtomicU64, d: Duration) {
    cell.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

fn nanos(cell: &AtomicU64) -> Duration {
    Duration::from_nanos(cell.load(Ordering::Relaxed))
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
    pub prefetch_busy: Duration,
    /// Stage-1 time blocked on back-pressure or write-back dependencies.
    pub prefetch_stall: Duration,
    /// Stage-2 time spent constructing batches (shuffle/negatives/DENSE).
    pub sample_busy: Duration,
    /// Stage-2 time blocked on empty input or full output queues.
    pub sample_stall: Duration,
    /// Stage-3 time spent in buffer swaps and compute. Eviction write-backs
    /// are detached to stage 4, so (unlike earlier revisions) no disk IO is
    /// accounted here.
    pub compute_busy: Duration,
    /// Stage-3 time blocked waiting for upstream stages or for write-back
    /// back-pressure (the drain's bounded queue being full).
    pub compute_stall: Duration,
    /// Stage-4 time spent writing detached dirty partitions to the store.
    pub writeback_busy: Duration,
    /// Stage-4 time blocked waiting for evictions to drain (idle lane).
    pub writeback_stall: Duration,
    /// Dirty partitions drained asynchronously by stage 4.
    pub partitions_written_back: usize,
    /// Wall-clock duration of the epoch.
    pub wall_time: Duration,
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
    CB: FnMut(&mut PartitionBuffer, &StepContext, B),
{
    let io_plan = plan_step_io(plan, &buffer.resident_partitions());
    let store = buffer.store().clone();
    let ledger = buffer.writeback_ledger();
    let mut no_spans = Telemetry::disabled().scope("");
    let mut report = PipelineReport::default();
    for (s, set) in plan.partition_sets.iter().enumerate() {
        let ctx = read_context(&store, buffer.assignment(), s, set)?;
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
            consume(buffer, &ctx, batch);
        });
    }
    Ok(report)
}

/// Runs one training epoch over `plan`.
///
/// Every step runs the same four stage bodies — `read_context`,
/// `read_partitions` of the partitions the step misses,
/// [`PartitionBuffer::install_set`], and
/// [`marius_storage::WritebackLedger::write_back`] of the evictions — then
/// builds its batches and applies them. With [`PipelineConfig::enabled`]
/// the bodies run on the stage threads of the crate docs and overlap
/// across steps. Without it they run in step order on the calling thread:
/// no threads, no stage spans, no `pipeline.*` counters, no busy or stall
/// time, and errors surface as the store raised them. Both schedules feed
/// `consume` the same batches in the same order, so the in-order one is
/// the threaded one's determinism oracle.
///
/// * `config` — the schedule and, when threaded, its worker count and
///   queue depths.
/// * `buffer` — the partition buffer; its store is read by the stage
///   bodies and its resident set is swapped as steps begin. The threaded
///   schedule records into the recorder of the store's
///   [`marius_storage::IoEnv`]: every stage thread records spans under
///   its own track, every bounded queue samples its occupancy into a
///   `pipeline.queue_depth.*` histogram, and the [`PipelineReport`]
///   aggregates are mirrored into `pipeline.*` counters.
/// * `epoch_seed` — all in-epoch randomness derives from
///   [`step_seed`]`(epoch_seed, step)`, making the epoch reproducible for
///   either schedule and any worker count.
/// * `make_batches` — builds one step's training batches, handing each
///   to the sink (which blocks under back-pressure). Runs once per step,
///   on worker threads when threaded.
/// * `consume` — applies one batch to the model. Runs on the calling
///   thread, after the step's partitions are installed in `buffer`.
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
    CB: FnMut(&mut PartitionBuffer, &StepContext, B),
{
    let epoch_start = Instant::now();
    let mut report = if config.enabled && !plan.partition_sets.is_empty() {
        run_threaded(config, plan, buffer, epoch_seed, make_batches, consume)?
    } else {
        run_in_order(plan, buffer, epoch_seed, make_batches, consume)?
    };
    report.steps = plan.partition_sets.len();
    report.wall_time = epoch_start.elapsed();
    if config.enabled {
        mirror_report(&buffer.store().env().telemetry, &report);
    }
    Ok(report)
}

/// The threaded schedule: the stage bodies on the stage threads of the
/// crate docs, under their supervision.
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
    CB: FnMut(&mut PartitionBuffer, &StepContext, B),
{
    let num_steps = plan.partition_sets.len();
    let mut report = PipelineReport::default();

    let workers = config.num_sampling_workers.max(1);
    let io_plan = plan_step_io(plan, &buffer.resident_partitions());
    let store = buffer.store().clone();
    let assignment = buffer.assignment().clone();

    let telemetry = &store.env().telemetry;
    // Queue-occupancy histograms, sampled after every push. All workers'
    // step (and batch) queues share one histogram by name, so the export
    // shows the stage edge, not the individual worker lane.
    let qd = |name: &str| telemetry.histogram(name, QUEUE_DEPTH_BOUNDS);
    let step_queues: Vec<BoundedQueue<Arc<StepContext>>> = (0..workers)
        .map(|_| BoundedQueue::with_depth(config.prefetch_depth, qd("pipeline.queue_depth.step")))
        .collect();
    let batch_queues: Vec<BoundedQueue<StepOut<B>>> = (0..workers)
        .map(|_| BoundedQueue::with_depth(config.queue_depth, qd("pipeline.queue_depth.batch")))
        .collect();
    let parts_queue: BoundedQueue<Result<StepParts>> = BoundedQueue::with_depth(
        config.prefetch_depth.max(1),
        qd("pipeline.queue_depth.parts"),
    );
    // Consumer → write-back drain: one item per step, even when the step
    // evicted nothing, so the `writeback` watermark advances in step
    // order and every re-read dependency eventually unblocks.
    let wb_queue: BoundedQueue<(usize, Vec<EvictedPartition>)> = BoundedQueue::with_depth(
        config.writeback_depth.max(1),
        qd("pipeline.queue_depth.writeback"),
    );
    let ledger = buffer.writeback_ledger();
    let clock = TransitionClock::new();
    let clocks = StageClocks::default();
    // First stage failure recorded by the supervision layer (a panic or
    // a typed error caught at a stage boundary). The first entry wins:
    // later failures are cascades of the aborted shutdown it triggers.
    let failure: Mutex<Option<PipelineError>> = Mutex::new(None);
    let record_failure = |err: PipelineError| {
        let mut slot = failure.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(err);
        drop(slot);
        clock.abort();
    };

    let consumer_result: Result<()> = std::thread::scope(|scope| {
        let record_failure = &record_failure;
        // ---- Stage 1a: the context prefetcher thread. ----------------
        // Bucket files are immutable during the epoch, so step contexts
        // (subgraph, candidates) can be read arbitrarily far ahead
        // of the consumer — this is what lets stage-2 workers start
        // sampling future steps while earlier steps still compute.
        let ctx_handle = {
            let step_queues = &step_queues;
            let batch_queues = &batch_queues;
            let clock = &clock;
            let clocks = &clocks;
            let store = &store;
            let assignment = &assignment;
            scope.spawn(move || {
                let mut span = telemetry.scope("context-prefetch");
                let span = &mut span;
                let body = || {
                    'steps: for (s, set) in plan.partition_sets.iter().enumerate() {
                        if clock.abort.load(Ordering::Relaxed) {
                            break 'steps;
                        }
                        span.begin("context-prefetch.step", s as i64, NO_LABEL);
                        let busy_start = Instant::now();
                        let ctx = read_context(store, assignment, s, set);
                        add_nanos(&clocks.prefetch_busy, busy_start.elapsed());
                        span.end();
                        match ctx {
                            Ok(ctx) => match step_queues[s % workers].push(Arc::new(ctx)) {
                                Some(waited) => add_nanos(&clocks.prefetch_stall, waited),
                                None => break 'steps, // closed: epoch aborted
                            },
                            Err(e) => {
                                // Surface the error through the worker queue
                                // that owns this step so the consumer sees it
                                // in order, then stop prefetching.
                                batch_queues[s % workers]
                                    .push(StepOut::Err(PipelineError::wrap("context-prefetch", e)));
                                break 'steps;
                            }
                        }
                    }
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                    record_failure(PipelineError::panicked(
                        "context-prefetch",
                        payload.as_ref(),
                    ));
                }
                // Close on every exit path (including aborts raised by
                // another stage, and panics caught above) so the stage-2
                // workers never block on a producer that has stopped.
                for q in step_queues.iter() {
                    q.close();
                }
            })
        };

        // ---- Stage 1b: the partition prefetcher thread. --------------
        // Partition files are rewritten by the write-back drain after an
        // eviction, so each read waits for the *write-back* watermark to
        // pass the partition's last eviction before it is issued: only
        // then are the file's bytes the evicted generation's, not stale.
        let parts_handle = {
            let parts_queue = &parts_queue;
            let clock = &clock;
            let clocks = &clocks;
            let io_plan = &io_plan;
            let store = &store;
            scope.spawn(move || {
                let mut span = telemetry.scope("partition-prefetch");
                let span = &mut span;
                let body = || {
                    'steps: for s in 0..plan.partition_sets.len() {
                        if clock.abort.load(Ordering::Relaxed) {
                            break 'steps;
                        }
                        let dep = io_plan.read_after[s];
                        if dep >= 0 {
                            span.begin("partition-prefetch.wait-writeback", s as i64, NO_LABEL);
                            add_nanos(
                                &clocks.prefetch_stall,
                                clock.writeback.wait_for(dep, &clock.abort),
                            );
                            span.end();
                        }
                        if clock.abort.load(Ordering::Relaxed) {
                            break 'steps;
                        }
                        span.begin("partition-prefetch.step", s as i64, NO_LABEL);
                        let busy_start = Instant::now();
                        let parts = read_partitions(store, &io_plan.loads[s], span, s);
                        add_nanos(&clocks.prefetch_busy, busy_start.elapsed());
                        span.end();
                        let failed = parts.is_err();
                        let parts = parts
                            .map(|p| (s, p))
                            .map_err(|e| PipelineError::wrap("partition-prefetch", e));
                        match parts_queue.push(parts) {
                            Some(waited) => add_nanos(&clocks.prefetch_stall, waited),
                            None => break 'steps,
                        }
                        if failed {
                            break 'steps;
                        }
                    }
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                    record_failure(PipelineError::panicked(
                        "partition-prefetch",
                        payload.as_ref(),
                    ));
                }
                // Close on every exit path so the consumer never blocks
                // on a prefetcher that has stopped.
                parts_queue.close();
            })
        };

        // ---- Stage 4: the write-back drain thread. -------------------
        // Receives each step's detached dirty evictions from the consumer
        // and writes them to the store off the compute path. The drain
        // keeps writing even after an abort (losing detached updates, or
        // leaving stale bytes unannounced, would corrupt the store), and
        // only stops writing after a disk error of its own — from then on
        // it still marks payloads drained so nothing waits forever.
        let wb_handle = {
            let wb_queue = &wb_queue;
            let clock = &clock;
            let clocks = &clocks;
            let store = &store;
            let ledger = Arc::clone(&ledger);
            scope.spawn(move || -> Result<()> {
                let mut span = telemetry.scope("writeback-drain");
                let span = &mut span;
                let body = || -> Result<()> {
                    while let Some(((step, evicted), waited)) = wb_queue.pop() {
                        add_nanos(&clocks.writeback_stall, waited);
                        // The payload is queued by the consumer after its swap
                        // publish, so this wait documents (and cheaply
                        // enforces) that the drain never runs ahead of the
                        // swap that detached its generation.
                        clock.swap.wait_for(step as i64, &clock.abort);
                        span.begin("writeback.step", step as i64, NO_LABEL);
                        let busy_start = Instant::now();
                        let written = ledger.write_back(store, &evicted, span, step as i64);
                        add_nanos(&clocks.writeback_busy, busy_start.elapsed());
                        span.end();
                        clock.writeback.publish(step as i64);
                        clocks
                            .writeback_parts
                            .fetch_add(written? as u64, Ordering::Relaxed);
                    }
                    Ok(())
                };
                let outcome = match catch_unwind(AssertUnwindSafe(body)) {
                    Ok(Ok(())) => return Ok(()),
                    Ok(Err(e)) => {
                        clock.abort();
                        Err(PipelineError::wrap("writeback-drain", e))
                    }
                    Err(payload) => {
                        record_failure(PipelineError::panicked(
                            "writeback-drain",
                            payload.as_ref(),
                        ));
                        Ok(())
                    }
                };
                // The drain can no longer deliver its detached payloads.
                // Keep the lane live in degraded mode: pop what remains,
                // marking it drained and advancing the watermark so no
                // peer blocks forever, then abandon anything still
                // pending (the run has failed; those bytes are recovered
                // from the last checkpoint, not this epoch).
                while let Some(((step, evicted), _)) = wb_queue.pop() {
                    for part in &evicted {
                        ledger.mark_drained(part.id);
                    }
                    clock.writeback.publish(step as i64);
                }
                ledger.abandon_pending();
                outcome
            })
        };

        // ---- Stage 2: batch-construction workers. --------------------
        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let in_q = &step_queues[w];
            let out_q = &batch_queues[w];
            let clocks = &clocks;
            let make_batches = &make_batches;
            let worker_label = format!("batch-worker-{w}");
            worker_handles.push(scope.spawn(move || {
                let mut span = telemetry.scope(&worker_label);
                let span = &mut span;
                let body = || {
                    while let Some((ctx, waited)) = in_q.pop() {
                        add_nanos(&clocks.sample_stall, waited);
                        // Publish the step boundary immediately so the consumer
                        // can swap the buffer while this worker still samples.
                        match out_q.push(StepOut::Begin(Arc::clone(&ctx))) {
                            Some(waited) => add_nanos(&clocks.sample_stall, waited),
                            None => return,
                        }
                        let mut rng = StdRng::seed_from_u64(step_seed(epoch_seed, ctx.step as u64));
                        span.begin("sample.step", ctx.step as i64, NO_LABEL);
                        let step_start = Instant::now();
                        let mut sink_wait = Duration::ZERO;
                        let mut closed = false;
                        let mut sink = |batch: B| match out_q.push(StepOut::Batch(batch)) {
                            Some(waited) => sink_wait += waited,
                            None => closed = true,
                        };
                        make_batches(&ctx, &mut rng, &mut sink);
                        let sink_wait = sink_wait;
                        add_nanos(
                            &clocks.sample_busy,
                            step_start.elapsed().saturating_sub(sink_wait),
                        );
                        add_nanos(&clocks.sample_stall, sink_wait);
                        span.end();
                        if closed {
                            return;
                        }
                        match out_q.push(StepOut::End) {
                            Some(waited) => add_nanos(&clocks.sample_stall, waited),
                            None => return,
                        }
                    }
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                    record_failure(PipelineError::panicked("batch-worker", payload.as_ref()));
                }
                // Idempotent: lets the consumer drain what was produced
                // and then observe the end of this worker's stream.
                out_q.close();
            }));
        }

        // ---- Stage 3: the compute consumer (this thread). ------------
        let mut compute_span = telemetry.scope("compute");
        let compute_span = &mut compute_span;
        let mut run_consumer = || -> Result<()> {
            for s in 0..num_steps {
                let q = &batch_queues[s % workers];
                let mut cur_ctx: Option<Arc<StepContext>> = None;
                loop {
                    let Some((item, waited)) = q.pop() else {
                        return Err(StorageError::InvalidPlan {
                            reason: format!("pipeline stage 2 ended before step {s} completed"),
                        });
                    };
                    report.compute_stall += waited;
                    let busy_start = Instant::now();
                    match item {
                        StepOut::Begin(ctx) => {
                            let Some((parts, parts_wait)) = parts_queue.pop() else {
                                return Err(StorageError::InvalidPlan {
                                    reason: format!("partition prefetch ended before step {s}"),
                                });
                            };
                            report.compute_stall += parts_wait;
                            let (parts_step, new_parts) = parts?;
                            debug_assert_eq!(parts_step, s, "partition payload out of order");
                            report.partition_loads += new_parts.len();
                            compute_span.begin("compute.step", s as i64, NO_LABEL);
                            compute_span.begin("compute.install", s as i64, NO_LABEL);
                            let install_start = Instant::now();
                            let evicted = buffer.install_set(&ctx.set, new_parts)?;
                            clock.swap.publish(s as i64);
                            cur_ctx = Some(ctx);
                            report.compute_busy += install_start.elapsed();
                            compute_span.end();
                            // Hand the detached generation to the drain.
                            // Pushed even when empty so the write-back
                            // watermark advances through every step. A
                            // full queue here is write-back back-pressure
                            // on compute, booked as a stall.
                            if let Some(waited) = wb_queue.push((s, evicted)) {
                                report.compute_stall += waited;
                            }
                        }
                        StepOut::Batch(batch) => {
                            let ctx =
                                cur_ctx.as_ref().ok_or_else(|| StorageError::InvalidPlan {
                                    reason: format!("batch before Begin in step {s}"),
                                })?;
                            report.batches += 1;
                            compute_span.begin("compute.batch", s as i64, NO_LABEL);
                            consume(buffer, ctx, batch);
                            compute_span.end();
                            report.compute_busy += busy_start.elapsed();
                        }
                        StepOut::End => {
                            report.compute_busy += busy_start.elapsed();
                            compute_span.end();
                            break;
                        }
                        StepOut::Err(e) => return Err(e),
                    }
                }
            }
            Ok(())
        };
        // The consumer runs under the same supervision as the spawned
        // stages: a panic in user compute code (or the buffer) converts
        // to a typed error after an orderly shutdown instead of
        // unwinding through the scope and cascading into every thread.
        let result: Result<()> = match catch_unwind(AssertUnwindSafe(&mut run_consumer)) {
            Ok(r) => r.map_err(|e| PipelineError::wrap("compute", e)),
            Err(payload) => {
                let err = PipelineError::panicked("compute", payload.as_ref());
                record_failure(err.clone());
                Err(err.into())
            }
        };

        // Shut everything down (idempotent) so the scope can join even on
        // the error path. The write-back queue is closed only now — after
        // the consumer's last push — and close lets the drain pop what
        // remains, so the drain writes out every detached eviction
        // (success *and* abort paths) before the scope joins it.
        clock.abort();
        for q in step_queues.iter() {
            q.close();
        }
        for q in batch_queues.iter() {
            q.close();
        }
        parts_queue.close();
        wb_queue.close();
        // Join every stage before arbitrating so late failures are
        // recorded and no thread outlives the verdict. Stage bodies catch
        // their own panics, so these joins cannot themselves panic.
        for handle in worker_handles {
            let _ = handle.join();
        }
        let _ = ctx_handle.join();
        let _ = parts_handle.join();
        let wb_result = match wb_handle.join() {
            Ok(r) => r,
            Err(payload) => {
                Err(PipelineError::panicked("writeback-drain", payload.as_ref()).into())
            }
        };
        let recorded = failure
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        // Arbitration: a recorded stage failure is the root cause of any
        // cascade it triggered (closed queues, protocol errors), so it
        // wins; a drain disk error likewise outranks the consumer's
        // secondary verdict.
        let outcome = match (result, wb_result, recorded) {
            (_, _, Some(root)) => Err(root.into()),
            (r, Ok(()), None) => r,
            (_, Err(e), None) => Err(e),
        };
        if outcome.is_err() {
            // A failed epoch may leave detached evictions that can no
            // longer land. Nothing may block on them: the run is being
            // abandoned and recovery goes through checkpoints.
            ledger.abandon_pending();
        }
        outcome
    });

    consumer_result?;
    debug_assert_eq!(
        ledger.pending_count(),
        0,
        "every detached eviction must drain before run_epoch returns"
    );
    report.prefetch_busy = nanos(&clocks.prefetch_busy);
    report.prefetch_stall = nanos(&clocks.prefetch_stall);
    report.sample_busy = nanos(&clocks.sample_busy);
    report.sample_stall = nanos(&clocks.sample_stall);
    report.writeback_busy = nanos(&clocks.writeback_busy);
    report.writeback_stall = nanos(&clocks.writeback_stall);
    report.partitions_written_back = clocks.writeback_parts.load(Ordering::Relaxed) as usize;
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
mod tests {
    use super::*;
    use marius_graph::{EdgeList, Partitioner};
    use marius_storage::{IoEnv, PartitionStore};
    use marius_telemetry::Phase;
    use rand::Rng;

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
        use marius_storage::policy::ReplacementPolicy;
        let mut rng = StdRng::seed_from_u64(seed);
        marius_storage::BetaPolicy::new(capacity)
            .plan(p, &mut rng)
            .unwrap()
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
                |buffer, ctx, (step, k)| {
                    assert_eq!(buffer.resident_partitions(), {
                        let mut s = ctx.set.clone();
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
            |buffer, _ctx, partition: PartitionId| {
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
                |buffer, ctx, v| {
                    // An update that depends on the batch, so the files
                    // record the order batches were applied in.
                    let node = assignment.nodes_in(ctx.set[0])[0];
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
        let ctx = read_context(store, assignment, 3, &[2, 0]).unwrap();
        assert_eq!((ctx.step, ctx.set.clone()), (3, vec![2, 0]));
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
    }

    #[test]
    fn in_order_schedule_records_no_pipeline_telemetry() {
        let telemetry = Telemetry::enabled();
        let mut buffer = observed_buffer(&telemetry, "pipe-in-order-telemetry", 40, 4, 2);
        let plan = pair_plan(4, 2, 13);
        let config = PipelineConfig::disabled();
        let report = run_epoch(
            &config,
            &plan,
            &mut buffer,
            5,
            |ctx, _rng, sink| sink(ctx.step),
            |_buffer, _ctx, _step: usize| {},
        )
        .unwrap();
        assert_eq!(report.batches, plan.partition_sets.len());
        assert_eq!(report.partition_loads, plan.partition_loads());
        assert_eq!(report.overlap_ratio(), 0.0);
        assert!(telemetry.span_events().is_empty());
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("pipeline.steps"), None);
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
            |buffer, _ctx, partition: PartitionId| {
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
            |_buffer, _ctx, _batch: (usize, usize)| {},
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
                |_buffer, _ctx, v| out.lock().unwrap().push(v),
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
            |_buffer, _ctx, _v| {},
        );
        assert!(result.is_err());
    }
}

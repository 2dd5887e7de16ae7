//! The task-generic training engine: one [`Trainer`] for every workload.
//!
//! The trainer follows the structure of Figure 2: the storage side produces a
//! sequence of in-memory subgraphs (a single one for in-memory training, one
//! per partition set for disk-based training) and the processing side consumes
//! the training examples assigned to each subgraph as mini batches. Everything
//! task-specific — what an example is, how batches are prepared and applied,
//! how storage is partitioned, how the model is evaluated — lives behind the
//! [`Task`] trait, and every training decision that is not task-specific
//! exists once:
//!
//! * **One description, one entry point**: a trainer is built by
//!   [`Trainer::from_config`] from a [`RunConfig`] and an [`IoEnv`], and run
//!   by [`Trainer::train`]; `config.storage` alone says where the run's
//!   state lives.
//! * **One epoch frame** (`Trainer::run_epochs`): resume overlay, the epoch
//!   loop, evaluation cadence, report, epoch hook and checkpoint cadence.
//!   Where the run's state lives is an executor plugged into it:
//!   * **in memory** ([`Storage::InMemory`]) — the full graph and all base
//!     representations stay resident (the M-GNN_Mem configuration);
//!   * **on disk** ([`Storage::Disk`]) — partitions live in a
//!     [`PartitionStore`] behind a bounded buffer walked by the policy's
//!     `EpochPlan`, with the write-back flush and the streaming ingest hook
//!     at each epoch boundary.
//! * **One disk step**: the disk executor hands each epoch to one
//!   [`marius_storage::pipeline::run_epoch`] call with one batch body
//!   (shuffle the step's examples with the step's RNG, cut them into batches
//!   within the epoch's budget, prepare each) and one consumer
//!   (`train_prepared` against the buffer). The pipeline owns the rest of the
//!   step — read the set's buckets and missing partitions, swap, write
//!   evictions back — and its schedule:
//!   [`crate::config::PipelineConfig::enabled`]` = false` (the default) runs
//!   the steps in order on the calling thread, so epoch time is the *sum* of
//!   the phases; `enabled = true` runs the same stage bodies on stage threads
//!   that overlap across steps, so epoch time approaches the *max* phase.
//!
//! Every in-epoch random draw derives from
//! [`marius_storage::pipeline::step_seed`]`(epoch_seed, step)`, which makes both
//! schedules' loss trajectories bit-identical for a fixed training seed and
//! any worker count (asserted by the `pipeline_determinism` and
//! `task_equivalence` integration tests at the workspace root). Disk-path
//! failures (missing or truncated partition files, invalid plans) propagate
//! as [`marius_storage::StorageError`] instead of panicking.

use crate::checkpoint::{Checkpoint, CheckpointSnapshot, Persist, StateDict, StreamState};
use crate::config::{DiskConfig, RunConfig, Storage, TrainConfig};
use crate::models::BatchStats;
use crate::report::{EpochReport, ExperimentReport};
use crate::source::RepresentationSource;
use crate::task::{DiskSetup, Task};
use marius_graph::datasets::ScaledDataset;
use marius_graph::{InMemorySubgraph, NodeId, PartitionAssignment};
use marius_storage::pipeline::{run_epoch, writeback_safe_point, StepContext};
use marius_storage::{
    BufferStats, EpochPlan, IoEnv, IoStats, PartitionBuffer, PartitionStore, Result, StorageError,
};
use marius_telemetry::{SpanScope, NO_LABEL};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A callback invoked after every completed epoch (metrics are final for the
/// epoch when it runs). Used by the `marius::Session` facade for progress
/// reporting. A hook failure aborts training and propagates as the run's
/// [`StorageError`] — hooks that write to disk (progress mirrors, metrics
/// exporters) surface their IO errors instead of panicking or being dropped.
pub type EpochHook = Box<dyn Fn(&EpochReport) -> Result<()> + Send + Sync>;

/// A callback invoked at each disk-epoch boundary at the write-back safe
/// point (every detached write-back drained, bucket files and in-memory
/// buckets in agreement) — the one moment the training-edge set may grow.
/// Receives the mutable [`DiskSetup`] (so staged edge deltas can be applied
/// to both the in-memory buckets and the store's bucket files) and the
/// zero-based epoch index just trained; returns the number of edges ingested
/// at this boundary (`0` when the boundary is not an ingest point). The hook
/// must not consume trainer RNG — it runs outside the seeded epoch executors,
/// which is what keeps in-order and threaded streamed runs bit-identical.
pub(crate) type IngestHook = Box<dyn Fn(&mut DiskSetup, usize) -> Result<u64> + Send + Sync>;

/// Blob name of the in-memory example-order permutation (the cross-epoch
/// shuffle state of in-memory training).
const EXAMPLE_ORDER_BLOB: &str = "trainer.example_order";

/// Reads every node partition back from disk and assembles a flat
/// `num_nodes × dim` embedding buffer indexed by global node id. Used to run
/// full-graph evaluation after a disk-based training epoch, and by the
/// serving layer to materialise a checkpoint's partition snapshot in memory.
///
/// Each partition is read through [`PartitionStore::read_partition_expect`]
/// with the row count the assignment gives it: only the header and the
/// values leave the device (never the optimizer state), and a file holding
/// more or fewer rows than the assignment is a typed error.
///
/// Rows are copied one maximal run of consecutive node ids at a time: for the
/// common case where a partition's nodes are contiguous (e.g. the §5.2
/// training-nodes-first layout) the whole partition lands in one
/// `copy_from_slice`, and arbitrary mixed layouts degrade gracefully to
/// per-run copies.
pub fn read_all_embeddings(
    store: &PartitionStore,
    assignment: &PartitionAssignment,
    dim: usize,
) -> Result<Vec<f32>> {
    let mut flat = vec![0.0f32; assignment.num_nodes() as usize * dim];
    for p in 0..assignment.num_partitions() {
        let nodes = assignment.nodes_in(p);
        let values = store.read_partition_expect(p, nodes.len(), dim)?;
        let mut start = 0usize;
        while start < nodes.len() {
            let mut end = start + 1;
            while end < nodes.len() && nodes[end] == nodes[end - 1] + 1 {
                end += 1;
            }
            let dst_start = nodes[start] as usize * dim;
            flat[dst_start..dst_start + (end - start) * dim]
                .copy_from_slice(&values[start * dim..end * dim]);
            start = end;
        }
    }
    Ok(flat)
}

fn accumulate(epoch: &mut EpochReport, stats: &BatchStats) {
    epoch.loss += stats.loss * stats.examples as f64;
    epoch.examples += stats.examples;
    epoch.sample_time += stats.sample_time;
    epoch.compute_time += stats.compute_time;
    epoch.nodes_sampled += stats.nodes_sampled;
    epoch.edges_sampled += stats.edges_sampled;
}

fn finalize(epoch: &mut EpochReport) {
    if epoch.examples > 0 {
        epoch.loss /= epoch.examples as f64;
    }
}

/// Orchestrates training for one model configuration of any [`Task`].
pub struct Trainer<T: Task> {
    /// The workload being trained.
    pub task: T,
    /// The run's description — model, batches, storage, pipeline, cadences,
    /// emulated device. Checkpoints persist it whole, and a resumed trainer is
    /// built from the one a manifest carries.
    pub config: RunConfig,
    /// Fault injector, retry policy and telemetry recorder: the run's
    /// partition store opens under it, and every layer over the store reads
    /// it from there.
    env: IoEnv,
    epoch_hook: Option<EpochHook>,
    /// Root directory of the full durable checkpoints written at epoch
    /// boundaries every `config.checkpoint_every` epochs; see
    /// [`crate::checkpoint`] for the layout.
    checkpoint_dir: Option<PathBuf>,
    /// When set, training continues this checkpointed run instead of starting
    /// fresh: construction replays deterministically, then the saved state and
    /// RNG cursor are overlaid.
    resume: Option<Checkpoint>,
    /// Streaming ingest callback fired at every disk-epoch boundary (see
    /// [`IngestHook`]); `None` trains over a frozen dataset.
    ingest_hook: Option<IngestHook>,
    /// Shared stream cursor recorded into checkpoint manifests so a streamed
    /// run can be resumed by deterministic replay. The ingest hook advances
    /// it; the epoch frame reads it at checkpoint time (the hook runs before
    /// the boundary's checkpoint, so the cursor and the snapshotted bucket
    /// files always agree).
    stream_state: Option<Arc<Mutex<StreamState>>>,
}

impl<T: Task> Trainer<T> {
    /// The one constructor every trainer comes out of — fresh
    /// (`marius::SessionBuilder::build`), resumed from a manifest's
    /// description (`marius::Session::resume_from`, followed by
    /// [`Trainer::with_resume`]) or rebuilt after a failure with the failed
    /// run's environment. `config.task` is overwritten with the task's slug.
    ///
    /// `env` holds the run's fault injector and retry policy (faults are
    /// injected and retried entirely inside the store, so the loss
    /// trajectory stays bit-identical to a fault-free run while the retry
    /// layer absorbs them — see [`marius_storage::fault`]) and the telemetry
    /// recorder every layer of the run records into (never consuming
    /// randomness; a disabled handle, the default, costs nothing). The
    /// emulated device is `config.emulated_device`.
    pub fn from_config(task: T, mut config: RunConfig, env: IoEnv) -> Self {
        config.task = task.slug().to_string();
        Trainer {
            task,
            config,
            env,
            epoch_hook: None,
            checkpoint_dir: None,
            resume: None,
            ingest_hook: None,
            stream_state: None,
        }
    }

    /// The IO environment attached to this trainer.
    pub fn io_env(&self) -> &IoEnv {
        &self.env
    }

    /// The checkpoint this trainer continues from, when it resumes a run
    /// ([`Trainer::with_resume`]).
    pub fn resumed_from(&self) -> Option<&Checkpoint> {
        self.resume.as_ref()
    }

    /// Installs a callback invoked after every completed epoch: an `Err`
    /// aborts the run and propagates to the [`Trainer::train`] caller.
    pub fn with_fallible_epoch_hook(
        mut self,
        hook: impl Fn(&EpochReport) -> Result<()> + Send + Sync + 'static,
    ) -> Self {
        self.epoch_hook = Some(Box::new(hook));
        self
    }

    /// Writes a full durable checkpoint (model parameters, optimizer state,
    /// embedding store, RNG cursor, progress) under `dir` every `every`
    /// epochs, and always after the final epoch. See [`crate::checkpoint`]
    /// for the on-disk layout and [`Trainer::with_resume`] for the way back.
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.config.checkpoint_every = every.max(1);
        self
    }

    /// The checkpoint root this trainer writes to, if it checkpoints.
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint_dir.as_deref()
    }

    /// Continues a checkpointed run: training starts at the checkpoint's
    /// epoch counter with the saved model/source state and RNG cursor, and
    /// the returned report covers the prior epochs too. The trainer's
    /// configuration must match the checkpointed run's (the
    /// `marius::Session::resume_from` facade guarantees this by building the
    /// trainer from the manifest's own [`RunConfig`]).
    pub fn with_resume(mut self, checkpoint: Checkpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Installs a streaming ingest callback fired at every disk-epoch
    /// boundary at the write-back safe point (see `IngestHook`). A `&mut`
    /// setter rather than a consuming builder so driver code can arm it on an
    /// already-configured trainer.
    pub fn set_ingest_hook(
        &mut self,
        hook: impl Fn(&mut DiskSetup, usize) -> Result<u64> + Send + Sync + 'static,
    ) {
        self.ingest_hook = Some(Box::new(hook));
    }

    /// Shares a stream cursor with the trainer: checkpoints written by this
    /// trainer record its current value in their manifests (`"stream"`
    /// field), making the streamed run resumable by replay.
    pub fn set_stream_state(&mut self, state: Arc<Mutex<StreamState>>) {
        self.stream_state = Some(state);
    }

    /// Whether epoch `epoch_idx` evaluates because the cadence says so
    /// (ignoring the forced final-epoch evaluation).
    fn cadence_evaluates(&self, epoch_idx: usize) -> bool {
        (epoch_idx + 1).is_multiple_of(self.config.eval_every.max(1))
    }

    fn should_evaluate(&self, epoch_idx: usize) -> bool {
        self.cadence_evaluates(epoch_idx) || epoch_idx + 1 == self.config.train.epochs
    }

    /// The RNG cursor a checkpoint written after epoch `epoch_idx` must
    /// record. A final-epoch evaluation that the cadence alone would not have
    /// performed is *off-stream*: a longer run never makes those draws at
    /// this epoch, so leaking them into the cursor would make a
    /// `resume_from_until` continuation diverge from the longer run's
    /// trajectory. Cadence evaluations' draws are part of every run's stream
    /// and are kept.
    fn checkpoint_rng_state(&self, epoch_idx: usize, pre_eval: [u64; 4], rng: &StdRng) -> [u64; 4] {
        if self.cadence_evaluates(epoch_idx) {
            rng.state()
        } else {
            pre_eval
        }
    }

    /// The checkpoint root, when epoch `epoch_idx` writes a checkpoint: on
    /// the cadence, and always after the final epoch.
    fn checkpoint_due(&self, epoch_idx: usize) -> Option<&Path> {
        let due = (epoch_idx + 1).is_multiple_of(self.config.checkpoint_every.max(1))
            || epoch_idx + 1 == self.config.train.epochs;
        self.checkpoint_dir.as_deref().filter(|_| due)
    }

    /// Trains per the description: in memory or out of core, as
    /// `config.storage` says.
    pub fn train(&self, data: &ScaledDataset) -> Result<ExperimentReport> {
        match &self.config.storage {
            Storage::InMemory => self.train_in_memory(data),
            Storage::Disk(disk) => self.train_disk(data, disk),
        }
    }

    /// Trains with the full graph in memory (the M-GNN_Mem configuration).
    fn train_in_memory(&self, data: &ScaledDataset) -> Result<ExperimentReport> {
        let mut rng = StdRng::seed_from_u64(self.config.train.seed);
        let subgraph = Arc::new(self.task.in_memory_subgraph(data));
        let candidates = self.task.in_memory_candidates(data);
        let model =
            self.task
                .build_model(&self.config.model, &self.config.train, data, &mut rng)?;
        let source = self
            .task
            .in_memory_source(&self.config.model, data, &mut rng)?;
        // In-memory training evaluates over the training graph itself, so the
        // evaluation context shares the subgraph instead of rebuilding it.
        let eval_ctx = self.task.eval_context(data, Some(&subgraph));
        let examples = self.task.in_memory_examples(data);
        let mut run = InMemory {
            trainer: self,
            data,
            builder: self.task.batch_builder(&model),
            subgraph,
            candidates,
            source,
            order: (0..examples.len() as u64).collect(),
            permuted: Vec::with_capacity(examples.len()),
            examples,
        };
        self.run_epochs(data, "M-GNN_Mem".into(), rng, model, &eval_ctx, &mut run)
    }

    /// Trains out-of-core with a partition buffer driven by the task's
    /// replacement policy (the M-GNN_Disk configuration). Steps run on stage
    /// threads when `config.pipeline.enabled`, otherwise in order. `disk` is
    /// `config.storage`'s.
    fn train_disk(&self, data: &ScaledDataset, disk: &DiskConfig) -> Result<ExperimentReport> {
        let mut rng = StdRng::seed_from_u64(self.config.train.seed);
        let label = self.task.disk_label(disk)?;
        let mut store = self.env.open_store(PartitionStore::temp_path(&format!(
            "{}-{}-{}",
            self.task.slug(),
            data.spec.name.replace('.', "-"),
            label.replace([' ', '(', ')'], "")
        )))?;
        if let Some(device) = self.config.emulated_device {
            store = store.with_emulated_device(device);
        }
        store.clear()?;
        let setup = self
            .task
            .disk_setup(&self.config.model, data, disk, store, &mut rng)?;
        let model =
            self.task
                .build_model(&self.config.model, &self.config.train, data, &mut rng)?;
        let eval_ctx = self.task.eval_context(data, None);
        let mut run = Disk {
            trainer: self,
            data,
            disk,
            setup,
            fixed_eval_source: None,
            epoch_start: Default::default(),
        };
        let report = self.run_epochs(data, label, rng, model, &eval_ctx, &mut run)?;
        let _ = run.setup.store.clear();
        Ok(report)
    }

    /// The one epoch frame every executor runs in: overlay a resumed run's
    /// state, then per epoch train, do the executor's boundary work,
    /// evaluate on the cadence, report, fire the hook and checkpoint.
    /// Construction (by the caller) has already drawn the fresh run's
    /// set-up randomness from `rng`, which a resume then replaces with the
    /// checkpointed cursor.
    fn run_epochs<E: Executor<T>>(
        &self,
        data: &ScaledDataset,
        system: String,
        mut rng: StdRng,
        mut model: T::Model,
        eval_ctx: &T::EvalContext,
        run: &mut E,
    ) -> Result<ExperimentReport> {
        let mut report = ExperimentReport::new(system, data.spec.name.clone());
        let mut span = self.env.telemetry.scope("trainer");
        let mut start_epoch = 0usize;
        if let Some(resume) = &self.resume {
            span.begin("resume.load", NO_LABEL, NO_LABEL);
            model.load_state(&resume.state)?;
            run.resume(resume)?;
            rng = StdRng::from_raw_state(resume.rng_state);
            start_epoch = resume.epochs_completed;
            report.epochs = resume.prior_epochs.clone();
            span.end();
        }

        for epoch_idx in start_epoch..self.config.train.epochs {
            let mut epoch = EpochReport {
                epoch: epoch_idx,
                ..Default::default()
            };
            span.begin("epoch", epoch_idx as i64, NO_LABEL);
            span.begin("epoch.train", epoch_idx as i64, NO_LABEL);
            let start = Instant::now();
            run.train_epoch(&mut model, &mut rng, &mut epoch)?;
            span.end(); // epoch.train
            run.end_epoch(&mut span, &mut epoch)?;
            epoch.epoch_time = start.elapsed();

            let pre_eval_rng = rng.state();
            epoch.metric = if self.should_evaluate(epoch_idx) {
                span.timed("epoch.eval", epoch_idx as i64, NO_LABEL, || {
                    run.evaluate(&model, eval_ctx, &mut rng)
                })?
            } else {
                f64::NAN
            };
            finalize(&mut epoch);
            epoch.mirror_into(&self.env.telemetry);
            if let Some(hook) = &self.epoch_hook {
                hook(&epoch)?;
            }
            report.epochs.push(epoch);
            if let Some(dir) = self.checkpoint_due(epoch_idx) {
                span.begin("epoch.checkpoint", epoch_idx as i64, NO_LABEL);
                // The task's model blobs plus the executor's own.
                let mut state = StateDict::new();
                model.save_state(&mut state);
                let store = run.checkpoint(&mut state)?;
                let snapshot = CheckpointSnapshot {
                    config: &self.config,
                    epochs_completed: epoch_idx + 1,
                    rng_state: self.checkpoint_rng_state(epoch_idx, pre_eval_rng, &rng),
                    data,
                    state: &state,
                    store,
                    report: &report,
                    // The cursor is plain counters, valid after every update,
                    // so a hook that panicked while holding the lock loses
                    // nothing.
                    stream: self
                        .stream_state
                        .as_ref()
                        .map(|s| *s.lock().unwrap_or_else(PoisonError::into_inner)),
                };
                crate::checkpoint::write_versioned(dir, &snapshot)?;
                span.end();
            }
            span.end(); // epoch
        }
        Ok(report)
    }
}

/// Whether the batch with epoch-wide index `batch` lies past the epoch's
/// batch budget (`max_batches_per_epoch`, 0 = unbounded).
fn over_budget(train: &TrainConfig, batch: usize) -> bool {
    train.max_batches_per_epoch > 0 && batch >= train.max_batches_per_epoch
}

/// What the epoch frame ([`Trainer::run_epochs`]) asks of the place a run's
/// state lives: in memory ([`InMemory`]) or out of core ([`Disk`]).
trait Executor<T: Task> {
    /// Overlays this executor's share of a checkpoint; the model's share is
    /// already loaded.
    fn resume(&mut self, checkpoint: &Checkpoint) -> Result<()>;

    /// Trains one epoch. Draws from the run's `rng` are part of every
    /// checkpointed cursor, so their order is fixed per executor.
    fn train_epoch(
        &mut self,
        model: &mut T::Model,
        rng: &mut StdRng,
        epoch: &mut EpochReport,
    ) -> Result<()>;

    /// Boundary work between an epoch's training and its evaluation.
    fn end_epoch(&mut self, _span: &mut SpanScope, _epoch: &mut EpochReport) -> Result<()> {
        Ok(())
    }

    /// The task metric over this executor's representations.
    fn evaluate(&mut self, model: &T::Model, ctx: &T::EvalContext, rng: &mut StdRng)
        -> Result<f64>;

    /// Adds this executor's blobs to a checkpoint's `state`, and returns the
    /// partition store to snapshot, if any.
    fn checkpoint(&self, state: &mut StateDict) -> Result<Option<&PartitionStore>>;
}

/// The full graph and all base representations stay resident.
struct InMemory<'a, T: Task> {
    trainer: &'a Trainer<T>,
    data: &'a ScaledDataset,
    builder: T::BatchBuilder,
    subgraph: Arc<InMemorySubgraph>,
    candidates: Vec<NodeId>,
    source: Box<dyn RepresentationSource>,
    examples: Vec<T::Example>,
    /// The shuffle permutes this index vector rather than the examples, so
    /// the cross-epoch shuffle state is a compact, checkpointable value
    /// (shuffling draws only depend on length, so trajectories are
    /// unchanged relative to shuffling the examples directly).
    order: Vec<u64>,
    /// The permuted examples, materialised once per epoch into this reused
    /// scratch buffer, keeping the batch loop allocation-free.
    permuted: Vec<T::Example>,
}

impl<T: Task> Executor<T> for InMemory<'_, T> {
    fn resume(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        self.source.load_state(&checkpoint.state)?;
        let saved_order = checkpoint.state.require_u64(EXAMPLE_ORDER_BLOB)?;
        if saved_order.len() != self.examples.len() {
            return Err(StorageError::checkpoint(format!(
                "checkpointed example order covers {} examples, dataset has {}",
                saved_order.len(),
                self.examples.len()
            )));
        }
        self.order = saved_order;
        Ok(())
    }

    fn train_epoch(
        &mut self,
        model: &mut T::Model,
        rng: &mut StdRng,
        epoch: &mut EpochReport,
    ) -> Result<()> {
        let (task, train) = (&self.trainer.task, &self.trainer.config.train);
        self.order.shuffle(rng);
        self.permuted.clear();
        self.permuted.extend(
            self.order
                .iter()
                .map(|&i| self.examples[i as usize].clone()),
        );
        for (i, batch) in self.permuted.chunks(train.batch_size).enumerate() {
            if over_budget(train, i) {
                break;
            }
            let prepared = task.prepare(
                &self.builder,
                self.data,
                &self.subgraph,
                batch,
                &self.candidates,
                rng,
            );
            accumulate(
                epoch,
                &task.train_prepared(model, self.source.as_mut(), prepared),
            );
        }
        Ok(())
    }

    fn evaluate(
        &mut self,
        model: &T::Model,
        ctx: &T::EvalContext,
        rng: &mut StdRng,
    ) -> Result<f64> {
        let trainer = self.trainer;
        Ok(trainer.task.evaluate(
            model,
            self.source.as_ref(),
            ctx,
            self.data,
            &trainer.config.train,
            rng,
        ))
    }

    fn checkpoint(&self, state: &mut StateDict) -> Result<Option<&PartitionStore>> {
        self.source.save_state(state);
        state.push_u64(EXAMPLE_ORDER_BLOB, &self.order);
        Ok(None)
    }
}

/// Partitions live on disk behind a bounded buffer; each epoch walks the
/// policy's plan on the pipeline, in the schedule its configuration names.
struct Disk<'a, T: Task> {
    trainer: &'a Trainer<T>,
    data: &'a ScaledDataset,
    disk: &'a DiskConfig,
    setup: DiskSetup,
    /// The evaluation source of a buffer without write-back: fixed
    /// representations never change on disk, so it is built once. Learnable
    /// ones are reassembled from disk at every evaluation.
    fixed_eval_source: Option<Box<dyn RepresentationSource>>,
    /// The store's and the buffer's counts when the current epoch began;
    /// the epoch report carries the change since then.
    epoch_start: (IoStats, BufferStats),
}

impl<T: Task> Executor<T> for Disk<'_, T> {
    fn resume(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        // Construction replayed the fresh run's partition assignment, which
        // the snapshot's files are laid out by.
        if let Some(snapshot) = checkpoint.store_snapshot() {
            self.setup.store.restore_from(snapshot)?;
        }
        Ok(())
    }

    fn train_epoch(
        &mut self,
        model: &mut T::Model,
        rng: &mut StdRng,
        epoch: &mut EpochReport,
    ) -> Result<()> {
        self.epoch_start = (self.setup.store.io_stats(), self.setup.buffer.stats());
        let plan = self.trainer.task.epoch_plan(self.disk, &self.setup, rng)?;
        // Every random draw inside the epoch derives from this seed (per
        // step), so the two schedules are interchangeable bit-for-bit.
        let epoch_seed: u64 = rng.gen();
        self.run_steps(&plan, epoch_seed, model, epoch)
    }

    fn end_epoch(&mut self, span: &mut SpanScope, epoch: &mut EpochReport) -> Result<()> {
        let setup = &mut self.setup;
        let epoch_idx = epoch.epoch as i64;
        if setup.writeback {
            span.timed("epoch.flush", epoch_idx, NO_LABEL, || setup.buffer.flush())?;
        }
        if let Some(hook) = &self.trainer.ingest_hook {
            // Staged edge deltas are applied exactly here: after the epoch's
            // flush (so the write-back ledger is drained and the store's
            // bucket files agree with the in-memory buckets) and before
            // evaluation and the boundary's checkpoint. The hook draws no
            // trainer RNG, so the loss trajectory up to this boundary is
            // identical to a frozen-dataset run's.
            writeback_safe_point(&setup.buffer)?;
            span.begin("epoch.ingest", epoch_idx, NO_LABEL);
            epoch.edges_ingested = hook(setup, epoch.epoch)?;
            span.end();
        }
        let (io_start, buffer_start) = &self.epoch_start;
        let io = setup.store.io_stats().since(io_start);
        epoch.io_bytes_read = io.bytes_read;
        epoch.io_bytes_written = io.bytes_written;
        epoch.io_time = self
            .trainer
            .config
            .emulated_device
            .unwrap_or_default()
            .stats_time(&io);
        epoch.io_retries = io.io_retries;
        epoch.faults_injected = io.faults_injected;
        epoch.throttle_wait_time = io.throttle_wait;
        let buffer_stats = setup.buffer.stats().since(buffer_start);
        epoch.buffer_hits = buffer_stats.hits;
        epoch.buffer_misses = buffer_stats.misses;
        epoch.buffer_evictions = buffer_stats.evictions;
        Ok(())
    }

    fn evaluate(
        &mut self,
        model: &T::Model,
        ctx: &T::EvalContext,
        rng: &mut StdRng,
    ) -> Result<f64> {
        let trainer = self.trainer;
        let source = match self.fixed_eval_source.take() {
            Some(source) => source,
            None => trainer
                .task
                .disk_eval_source(&trainer.config.model, self.data, &self.setup)?,
        };
        let metric = trainer.task.evaluate(
            model,
            source.as_ref(),
            ctx,
            self.data,
            &trainer.config.train,
            rng,
        );
        if !self.setup.writeback {
            self.fixed_eval_source = Some(source);
        }
        Ok(metric)
    }

    fn checkpoint(&self, _state: &mut StateDict) -> Result<Option<&PartitionStore>> {
        // The post-epoch flush already drained the write-back ledger; assert
        // the safe point all the same before linking the store's files into
        // the snapshot (a partition with a detached write-back in flight has
        // stale bytes on disk).
        writeback_safe_point(&self.setup.buffer)?;
        Ok(self.setup.writeback.then_some(&self.setup.store))
    }
}

impl<T: Task> Disk<'_, T> {
    /// One disk epoch over `plan` on the pipeline: the batch body shuffles
    /// the step's examples with the step's RNG, cuts them into batches within
    /// the epoch's budget and prepares each; the consumer applies
    /// `train_prepared` against the buffer.
    fn run_steps(
        &mut self,
        plan: &EpochPlan,
        epoch_seed: u64,
        model: &mut T::Model,
        epoch: &mut EpochReport,
    ) -> Result<()> {
        let (task, data) = (&self.trainer.task, self.data);
        let train = &self.trainer.config.train;
        let setup = &mut self.setup;
        let buckets = &setup.buckets;
        let p = setup.assignment.num_partitions();
        // Each step's first epoch-wide batch index, so the budget cuts the
        // same batch whether steps are built in order or concurrently.
        let mut first_batch = Vec::with_capacity(plan.partition_sets.len());
        let mut batches = 0usize;
        for s in 0..plan.partition_sets.len() {
            first_batch.push(batches);
            batches += task
                .step_example_count(data, buckets, p, plan, s)
                .div_ceil(train.batch_size);
        }
        let builder = task.batch_builder(model);
        let step_body =
            |ctx: &StepContext, step_rng: &mut StdRng, sink: &mut dyn FnMut(T::PreparedBatch)| {
                let mut examples = task.step_examples(data, buckets, p, plan, ctx.step);
                examples.shuffle(step_rng);
                for (k, chunk) in examples.chunks(train.batch_size).enumerate() {
                    if over_budget(train, first_batch[ctx.step] + k) {
                        break;
                    }
                    sink(task.prepare(
                        &builder,
                        data,
                        &ctx.subgraph,
                        chunk,
                        &ctx.candidates,
                        step_rng,
                    ));
                }
            };
        let consume = |buffer: &mut PartitionBuffer, prepared| {
            accumulate(epoch, &task.train_prepared(model, buffer, prepared));
        };

        let report = run_epoch(
            &self.trainer.config.pipeline,
            plan,
            &mut setup.buffer,
            epoch_seed,
            step_body,
            consume,
        )?;
        epoch.partition_loads += report.partition_loads;
        // All zero on the in-order schedule, which overlaps nothing.
        epoch.io_wait_time += report.compute_stall;
        // The drain's own queue wait (`writeback_stall`) is deliberately not
        // folded in: that lane idles between one small write burst per step,
        // so its wait is "no work yet", not back-pressure, and including it
        // would swamp the stall signal tracked across bench trajectories.
        epoch.stall_time += report.prefetch_stall + report.sample_stall;
        epoch.writeback_time += report.writeback_busy;
        epoch.overlap = report.overlap_ratio();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, PipelineConfig};
    use crate::task::{LinkPredictionTask, NodeClassificationTask};
    use marius_graph::datasets::{DatasetSpec, ScaledDataset};
    use marius_graph::Partitioner;
    use marius_storage::PartitionStore;
    use std::time::Duration;

    fn lp_dataset() -> ScaledDataset {
        ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.015), 3)
    }

    fn lp_trainer(layers: usize, storage: Storage) -> Trainer<LinkPredictionTask> {
        let mut model = ModelConfig::paper_link_prediction_graphsage(12).shrunk(5, 12);
        if layers == 0 {
            model = ModelConfig::paper_distmult(12);
        }
        let mut train = TrainConfig::quick(2, 9);
        train.batch_size = 128;
        train.num_negatives = 32;
        train.eval_negatives = 64;
        let config = RunConfig {
            model,
            train,
            storage,
            ..RunConfig::default()
        };
        Trainer::from_config(LinkPredictionTask, config, IoEnv::default())
    }

    fn nc_dataset() -> ScaledDataset {
        ScaledDataset::generate(&DatasetSpec::ogbn_arxiv().scaled(0.008), 21)
    }

    fn nc_trainer(storage: Storage) -> Trainer<NodeClassificationTask> {
        let mut model = ModelConfig::paper_node_classification(128, 16);
        model.num_layers = 2;
        model.fanouts = vec![8, 5];
        let mut train = TrainConfig::quick(2, 13);
        train.batch_size = 128;
        let config = RunConfig {
            model,
            train,
            storage,
            ..RunConfig::default()
        };
        Trainer::from_config(NodeClassificationTask, config, IoEnv::default())
    }

    /// `trainer` with the threaded schedule of `workers` stage-2 workers.
    fn threaded<T: Task>(mut trainer: Trainer<T>, workers: usize) -> Trainer<T> {
        trainer.config.pipeline = PipelineConfig::with_workers(workers);
        trainer
    }

    #[test]
    fn in_memory_link_prediction_produces_improving_mrr() {
        let data = lp_dataset();
        let report = lp_trainer(0, Storage::InMemory).train(&data).unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert!(report.final_metric() > 0.1, "MRR {}", report.final_metric());
        assert!(report.epochs[0].examples > 0);
        assert!(report.epochs[0].sample_time > Duration::ZERO);
    }

    #[test]
    fn disk_link_prediction_with_comet_runs_and_learns() {
        let data = lp_dataset();
        let disk = Storage::Disk(DiskConfig::comet(8, 4));
        let report = lp_trainer(1, disk).train(&data).unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert!(report.epochs[0].partition_loads >= 4);
        assert!(report.epochs[0].io_bytes_read > 0);
        assert!(
            report.final_metric() > 0.05,
            "disk MRR {}",
            report.final_metric()
        );
    }

    #[test]
    fn disk_link_prediction_with_beta_runs() {
        let data = lp_dataset();
        let report = lp_trainer(1, Storage::Disk(DiskConfig::beta(8, 4)))
            .train(&data)
            .unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert!(report.system.contains("BETA"));
        assert!(report.final_metric() > 0.0);
    }

    #[test]
    fn disk_link_prediction_rejects_node_cache_policy() {
        let data = lp_dataset();
        let err = lp_trainer(1, Storage::Disk(DiskConfig::node_cache(8, 4)))
            .train(&data)
            .unwrap_err();
        assert!(format!("{err}").contains("node classification"));
    }

    #[test]
    fn pipelined_link_prediction_matches_sequential_losses() {
        let data = lp_dataset();
        let disk = Storage::Disk(DiskConfig::comet(8, 4));
        let sequential = lp_trainer(1, disk.clone()).train(&data).unwrap();
        let pipelined = threaded(lp_trainer(1, disk), 1).train(&data).unwrap();
        for (a, b) in sequential.epochs.iter().zip(&pipelined.epochs) {
            assert_eq!(a.loss, b.loss, "epoch {} loss drifted", a.epoch);
            assert_eq!(a.metric, b.metric, "epoch {} metric drifted", a.epoch);
            assert_eq!(a.examples, b.examples);
        }
        assert!(pipelined.epochs[0].overlap > 0.0);
    }

    #[test]
    fn in_memory_node_classification_beats_random_guessing() {
        let data = nc_dataset();
        let report = nc_trainer(Storage::InMemory).train(&data).unwrap();
        assert_eq!(report.epochs.len(), 2);
        let chance = 1.0 / data.spec.num_classes.unwrap() as f64;
        assert!(
            report.final_metric() > 2.0 * chance,
            "accuracy {} should beat chance {}",
            report.final_metric(),
            chance
        );
        assert!(report.epochs[0].epoch_time > Duration::ZERO);
    }

    #[test]
    fn disk_node_classification_with_node_cache_runs_and_learns() {
        let data = nc_dataset();
        let disk = Storage::Disk(DiskConfig::node_cache(8, 6));
        let report = nc_trainer(disk).train(&data).unwrap();
        assert_eq!(report.epochs.len(), 2);
        // The caching policy loads the buffer once per epoch and performs no
        // swaps during it.
        assert!(report.epochs[0].partition_loads <= 6);
        let chance = 1.0 / data.spec.num_classes.unwrap() as f64;
        assert!(report.final_metric() > 1.5 * chance);
    }

    #[test]
    fn disk_node_classification_rejects_non_cache_policy() {
        let data = nc_dataset();
        let err = nc_trainer(Storage::Disk(DiskConfig::comet(8, 4)))
            .train(&data)
            .unwrap_err();
        assert!(format!("{err}").contains("training-node caching policy"));
    }

    #[test]
    fn pipelined_node_classification_matches_sequential_losses() {
        let data = nc_dataset();
        let disk = Storage::Disk(DiskConfig::node_cache(8, 6));
        let sequential = nc_trainer(disk.clone()).train(&data).unwrap();
        let pipelined = threaded(nc_trainer(disk), 1).train(&data).unwrap();
        for (a, b) in sequential.epochs.iter().zip(&pipelined.epochs) {
            assert_eq!(a.loss, b.loss, "epoch {} loss drifted", a.epoch);
            assert_eq!(a.metric, b.metric, "epoch {} metric drifted", a.epoch);
        }
    }

    #[test]
    fn eval_cadence_skips_intermediate_epochs_and_keeps_the_final_one() {
        let data = lp_dataset();
        let mut trainer = lp_trainer(0, Storage::InMemory);
        trainer.config.train.epochs = 3;
        trainer.config.eval_every = 3;
        let report = trainer.train(&data).unwrap();
        assert!(report.epochs[0].metric.is_nan());
        assert!(report.epochs[1].metric.is_nan());
        assert!(report.epochs[2].metric.is_finite());
    }

    /// One epoch frame: evaluation cadence, epoch hook and checkpoint
    /// cadence behave the same on the in-memory, sequential-disk and
    /// pipelined-disk executors.
    #[test]
    fn every_executor_runs_the_same_epoch_frame() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let data = lp_dataset();
        let disk = DiskConfig::comet(8, 4);
        let runs = [
            (Storage::InMemory, false),
            (Storage::Disk(disk.clone()), false),
            (Storage::Disk(disk), true),
        ];
        for (i, (storage, pipelined)) in runs.into_iter().enumerate() {
            let dir = std::env::temp_dir().join(format!(
                "marius-frame-{i}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let calls = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&calls);
            let mut trainer = lp_trainer(0, storage)
                .with_checkpoint(&dir, 2)
                .with_fallible_epoch_hook(move |_| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                });
            if pipelined {
                trainer = threaded(trainer, 1);
            }
            trainer.config.train.epochs = 3;
            trainer.config.eval_every = 2;
            let report = trainer.train(&data).unwrap();
            let evaluated: Vec<bool> = report.epochs.iter().map(|e| e.metric.is_finite()).collect();
            assert_eq!(evaluated, [false, true, true], "run {i}: eval cadence");
            assert_eq!(calls.load(Ordering::SeqCst), 3, "run {i}: epoch hook");
            // The cadence checkpoints epoch 2, the final epoch checkpoints
            // off-cadence.
            let mut versions: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with("epoch-"))
                .collect();
            versions.sort();
            assert_eq!(versions, ["epoch-000002", "epoch-000003"], "run {i}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The batch budget cuts at the same epoch-wide batch on every executor,
    /// including mid-step on the disk paths, where pipeline workers build
    /// steps concurrently.
    #[test]
    fn batch_budget_cuts_the_same_batches_on_every_executor() {
        let data = lp_dataset();
        let disk = Storage::Disk(DiskConfig::comet(8, 4));
        let budgeted = |storage: Storage| {
            let mut trainer = lp_trainer(1, storage);
            trainer.config.train.max_batches_per_epoch = 12;
            trainer
        };
        let in_memory = budgeted(Storage::InMemory).train(&data).unwrap();
        let sequential = budgeted(disk.clone()).train(&data).unwrap();
        let pipelined = threaded(budgeted(disk), 2).train(&data).unwrap();
        for (a, b) in sequential.epochs.iter().zip(&pipelined.epochs) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {}", a.epoch);
            assert_eq!(a.examples, b.examples, "epoch {}", a.epoch);
        }
        let examples =
            |r: &ExperimentReport| r.epochs.iter().map(|e| e.examples).collect::<Vec<_>>();
        assert_eq!(examples(&in_memory), [12 * 128, 12 * 128]);
        // Twelve batches span several plan steps, each ending in a partial
        // batch, so the disk paths stop short of 12 full batches.
        assert_eq!(examples(&sequential), [1441, 1531]);
    }

    #[test]
    fn epoch_hook_fires_once_per_epoch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let data = lp_dataset();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let report = lp_trainer(0, Storage::InMemory)
            .with_fallible_epoch_hook(move |e| {
                assert!(e.examples > 0);
                seen.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .train(&data)
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), report.epochs.len());
    }

    #[test]
    fn read_all_embeddings_reassembles_by_node_id() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        let partitioner = Partitioner::new(3).unwrap();
        let assignment = partitioner.random(9, &mut rng);
        let store = PartitionStore::open_temp("read-all").unwrap();
        store.clear().unwrap();
        let dim = 2usize;
        // Write each partition with rows equal to the node id.
        for p in 0..3u32 {
            let nodes = assignment.nodes_in(p);
            let values: Vec<f32> = nodes.iter().flat_map(|&n| vec![n as f32; dim]).collect();
            let state = vec![0.0; values.len()];
            store.write_partition(p, &values, &state).unwrap();
        }
        let flat = read_all_embeddings(&store, &assignment, dim).unwrap();
        for n in 0..9usize {
            assert_eq!(flat[n * dim], n as f32);
        }
    }

    /// A partition file whose row count disagrees with the assignment — one
    /// row short or one row long, with a consistent header — is a typed
    /// error, not a slice panic.
    #[test]
    fn read_all_embeddings_rejects_a_partition_of_the_wrong_row_count() {
        use marius_graph::PartitionAssignment;
        let assignment = PartitionAssignment::from_vec(vec![0, 0, 1, 1, 1, 0], 2).unwrap();
        let dim = 4usize;
        for (label, delta) in [("short", -1isize), ("long", 1)] {
            let store = PartitionStore::open_temp(&format!("read-all-{label}")).unwrap();
            store.clear().unwrap();
            for p in 0..2u32 {
                let rows = assignment
                    .nodes_in(p)
                    .len()
                    .saturating_add_signed(delta * p as isize);
                let values = vec![1.0f32; rows * dim];
                store.write_partition(p, &values, &values).unwrap();
            }
            assert!(
                read_all_embeddings(&store, &assignment, dim).is_err(),
                "{label} partition accepted"
            );
        }
    }

    #[test]
    fn read_all_embeddings_handles_contiguous_and_mixed_partitions() {
        use marius_graph::PartitionAssignment;
        // Partition 0: nodes {0,1,2,7} (a run of three plus a gap);
        // partition 1: nodes {3,4,5,6} (fully contiguous).
        let assignment = PartitionAssignment::from_vec(vec![0, 0, 0, 1, 1, 1, 1, 0], 2).unwrap();
        let store = PartitionStore::open_temp("read-all-mixed").unwrap();
        store.clear().unwrap();
        let dim = 3usize;
        for p in 0..2u32 {
            let nodes = assignment.nodes_in(p);
            let values: Vec<f32> = nodes
                .iter()
                .flat_map(|&n| (0..dim).map(move |d| n as f32 * 10.0 + d as f32))
                .collect();
            let state = vec![0.0; values.len()];
            store.write_partition(p, &values, &state).unwrap();
        }
        let flat = read_all_embeddings(&store, &assignment, dim).unwrap();
        for n in 0..8usize {
            for d in 0..dim {
                assert_eq!(
                    flat[n * dim + d],
                    n as f32 * 10.0 + d as f32,
                    "node {n} dim {d}"
                );
            }
        }
    }
}

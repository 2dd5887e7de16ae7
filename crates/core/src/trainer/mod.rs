//! The task-generic training engine: one [`Trainer`] for every workload.
//!
//! The trainer follows the structure of Figure 2: the storage side produces a
//! sequence of in-memory subgraphs (a single one for in-memory training, one
//! per partition set for disk-based training) and the processing side consumes
//! the training examples assigned to each subgraph as mini batches. Everything
//! task-specific — what an example is, how batches are prepared and applied,
//! how storage is partitioned, how the model is evaluated — lives behind the
//! [`Task`] trait, so the three epoch executors below exist
//! exactly once:
//!
//! * **In-memory** ([`Trainer::train_in_memory`]) — the full graph and all
//!   base representations stay resident (the M-GNN_Mem configuration).
//! * **Sequential disk** ([`Trainer::train_disk`] with
//!   [`crate::config::PipelineConfig::enabled`]` = false`, the default):
//!   partition swaps, DENSE sampling and compute run back-to-back on the
//!   calling thread, so epoch time is the *sum* of the three phases. This
//!   path is also the determinism oracle for the pipeline.
//! * **Pipelined disk** (`enabled = true`): the epoch runs on
//!   [`marius_pipeline::Pipeline`] — a prefetcher thread walks the policy's
//!   `EpochPlan` ahead of the consumer issuing `PartitionStore` reads, a pool
//!   of workers builds batches (shuffle, negative sampling, DENSE multi-hop
//!   sampling), the calling thread applies `train_prepared`, and evicted
//!   dirty partitions are detached to a write-back drain thread that flushes
//!   them while the next step computes — the compute stage performs no disk
//!   IO at all, so epoch time approaches the *max* phase.
//!
//! Both disk executors derive every in-epoch random draw from
//! [`marius_pipeline::step_seed`]`(epoch_seed, step)`, which makes their loss
//! trajectories bit-identical for a fixed training seed and any worker count
//! (asserted by the `pipeline_determinism` and `task_equivalence` integration
//! tests at the workspace root). Disk-path failures (missing or truncated
//! partition files, invalid plans) propagate as
//! [`marius_storage::StorageError`] instead of panicking.

use crate::checkpoint::{Checkpoint, CheckpointSnapshot, StateDict, StreamState};
use crate::config::{DiskConfig, ModelConfig, PipelineConfig, RunConfig, Storage, TrainConfig};
use crate::models::BatchStats;
use crate::report::{EpochReport, ExperimentReport};
use crate::task::{DiskSetup, Task};
use marius_graph::datasets::ScaledDataset;
use marius_graph::PartitionAssignment;
use marius_pipeline::{step_seed, writeback_safe_point, Pipeline};
use marius_storage::{IoEnv, PartitionStore, Result, StorageError};
use marius_telemetry::NO_LABEL;
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
/// which is what keeps sequential and pipelined streamed runs bit-identical.
pub type IngestHook = Box<dyn Fn(&mut DiskSetup, usize) -> Result<u64> + Send + Sync>;

/// Blob name of the in-memory example-order permutation (the cross-epoch
/// shuffle state of [`Trainer::train_in_memory`]).
const EXAMPLE_ORDER_BLOB: &str = "trainer.example_order";

/// Reads every node partition back from disk and assembles a flat
/// `num_nodes × dim` embedding buffer indexed by global node id. Used to run
/// full-graph evaluation after a disk-based training epoch, and by the
/// serving layer to materialise a checkpoint's partition snapshot in memory.
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
        let (values, _state) = store.read_partition(p)?;
        let nodes = assignment.nodes_in(p);
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
    /// Fault injector, retry policy and telemetry recorder attached to the
    /// run's partition store and cloned into every layer of the run. Its
    /// `emulated_device` stays `None`: the device belongs to `config`.
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
    /// it; [`Trainer::write_checkpoint`] reads it at checkpoint time (the
    /// hook runs before the boundary's checkpoint, so the cursor and the
    /// snapshotted bucket files always agree).
    stream_state: Option<Arc<Mutex<StreamState>>>,
}

impl<T: Task + Default> Trainer<T> {
    /// Creates a trainer (sequential disk path by default) for a stateless
    /// task.
    pub fn new(model: ModelConfig, train: TrainConfig) -> Self {
        Trainer::with_task(T::default(), model, train)
    }
}

impl<T: Task> Trainer<T> {
    /// Creates a trainer for an explicit task value.
    pub fn with_task(task: T, model: ModelConfig, train: TrainConfig) -> Self {
        let config = RunConfig {
            model,
            train,
            ..RunConfig::default()
        };
        Trainer::from_config(task, config, IoEnv::default())
    }

    /// The one constructor every trainer comes out of — fresh
    /// (`marius::SessionBuilder::build`), resumed from a manifest's
    /// description (`marius::Session::resume_from`, followed by
    /// [`Trainer::with_resume`]) or rebuilt after a failure with the failed
    /// run's environment. `config.task` is overwritten with the task's slug.
    pub fn from_config(task: T, mut config: RunConfig, env: IoEnv) -> Self {
        config.task = task.slug().to_string();
        Trainer {
            task,
            config,
            env: IoEnv::default(),
            epoch_hook: None,
            checkpoint_dir: None,
            resume: None,
            ingest_hook: None,
            stream_state: None,
        }
        .with_io_env(env)
    }

    /// Selects the pipelined disk-training runtime.
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.config.pipeline = pipeline;
        self
    }

    /// Attaches the run's IO environment: the fault injector and retry policy
    /// of the partition store (faults are injected and retried entirely
    /// inside the store, so the loss trajectory stays bit-identical to a
    /// fault-free run while the retry layer absorbs them — see
    /// [`marius_storage::fault`]) and the telemetry recorder every layer of
    /// the run records into (never consuming randomness; a disabled handle,
    /// the default, costs nothing). An environment that names an emulated
    /// device sets the run's ([`RunConfig::emulated_device`], which is what
    /// checkpoints persist).
    pub fn with_io_env(mut self, mut env: IoEnv) -> Self {
        self.config.emulated_device = env.emulated_device.take().or(self.config.emulated_device);
        self.env = env;
        self
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
    /// aborts the run and propagates to the `train_*` caller.
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
    /// boundary at the write-back safe point (see [`IngestHook`]). A `&mut`
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

    fn should_checkpoint(&self, epoch_idx: usize) -> bool {
        self.checkpoint_dir.is_some()
            && ((epoch_idx + 1).is_multiple_of(self.config.checkpoint_every.max(1))
                || epoch_idx + 1 == self.config.train.epochs)
    }

    fn epoch_done(&self, report: &ExperimentReport) -> Result<()> {
        if let (Some(hook), Some(epoch)) = (&self.epoch_hook, report.epochs.last()) {
            hook(epoch)?;
        }
        Ok(())
    }

    /// The one generic checkpoint code path both executors funnel through:
    /// persists the run's description (with `storage` as the running executor
    /// sees it) next to the cursor and state. `state` carries the task's
    /// model blobs plus any executor-specific blobs (in-memory source dump,
    /// example order); `store` is the partition store to snapshot (disk runs
    /// with write-back), which must be at a write-back safe point.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &self,
        data: &ScaledDataset,
        storage: Storage,
        epochs_completed: usize,
        rng_state: [u64; 4],
        state: &StateDict,
        store: Option<&PartitionStore>,
        report: &ExperimentReport,
    ) -> Result<()> {
        let dir = self
            .checkpoint_dir
            .as_ref()
            .ok_or_else(|| StorageError::InvalidPlan {
                reason: "checkpoint requested without a checkpoint directory \
                         (Trainer::with_checkpoint)"
                    .into(),
            })?;
        let config = RunConfig {
            storage,
            ..self.config.clone()
        };
        let snapshot = CheckpointSnapshot {
            config: &config,
            epochs_completed,
            rng_state,
            data,
            state,
            store,
            report,
            // The cursor is plain counters, valid after every update, so a
            // hook that panicked while holding the lock loses nothing.
            stream: self
                .stream_state
                .as_ref()
                .map(|s| *s.lock().unwrap_or_else(PoisonError::into_inner)),
        };
        crate::checkpoint::write_versioned(dir, &snapshot)?;
        Ok(())
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
    pub fn train_in_memory(&self, data: &ScaledDataset) -> Result<ExperimentReport> {
        let mut rng = StdRng::seed_from_u64(self.config.train.seed);
        let mut report = ExperimentReport::new("M-GNN_Mem", data.spec.name.clone());

        let subgraph = std::sync::Arc::new(self.task.in_memory_subgraph(data));
        let candidates = self.task.in_memory_candidates(data);
        let mut model =
            self.task
                .build_model(&self.config.model, &self.config.train, data, &mut rng)?;
        let mut source = self
            .task
            .in_memory_source(&self.config.model, data, &mut rng)?;
        let builder = self.task.batch_builder(&model);
        // In-memory training evaluates over the training graph itself, so the
        // evaluation context shares the subgraph instead of rebuilding it.
        let eval_ctx = self.task.in_memory_eval_context(data, &subgraph);
        let examples = self.task.in_memory_examples(data);
        // The shuffle permutes an index vector rather than the examples, so
        // the cross-epoch shuffle state is a compact, checkpointable value
        // (shuffling draws only depend on length, so trajectories are
        // unchanged relative to shuffling the examples directly). The
        // permuted examples are materialised once per epoch into a reused
        // scratch buffer, keeping the batch loop allocation-free.
        let mut order: Vec<u64> = (0..examples.len() as u64).collect();
        let mut permuted: Vec<T::Example> = Vec::with_capacity(examples.len());

        let mut span = self.env.telemetry.scope("trainer");

        // Resuming: construction above replayed the fresh run's RNG draws;
        // now overlay the checkpointed state and jump to its epoch.
        let mut start_epoch = 0usize;
        if let Some(resume) = &self.resume {
            span.begin("resume.load", NO_LABEL, NO_LABEL);
            self.task.load_state(&mut model, &resume.state)?;
            source.load_state(&resume.state)?;
            let saved_order = resume.state.require_u64(EXAMPLE_ORDER_BLOB)?;
            if saved_order.len() != examples.len() {
                return Err(StorageError::checkpoint(format!(
                    "checkpointed example order covers {} examples, dataset has {}",
                    saved_order.len(),
                    examples.len()
                )));
            }
            order = saved_order;
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
            order.shuffle(&mut rng);
            permuted.clear();
            permuted.extend(order.iter().map(|&i| examples[i as usize].clone()));
            for (i, batch) in permuted.chunks(self.config.train.batch_size).enumerate() {
                if self.config.train.max_batches_per_epoch > 0
                    && i >= self.config.train.max_batches_per_epoch
                {
                    break;
                }
                let prepared =
                    self.task
                        .prepare(&builder, data, &subgraph, batch, &candidates, &mut rng);
                let stats = self
                    .task
                    .train_prepared(&mut model, source.as_mut(), prepared);
                accumulate(&mut epoch, &stats);
            }
            epoch.epoch_time = start.elapsed();
            span.end(); // epoch.train
            let pre_eval_rng = rng.state();
            epoch.metric = if self.should_evaluate(epoch_idx) {
                span.timed("epoch.eval", epoch_idx as i64, NO_LABEL, || {
                    self.task.evaluate(
                        &model,
                        source.as_ref(),
                        &eval_ctx,
                        data,
                        &self.config.train,
                        &mut rng,
                    )
                })
            } else {
                f64::NAN
            };
            finalize(&mut epoch);
            epoch.mirror_into(&self.env.telemetry);
            report.epochs.push(epoch);
            self.epoch_done(&report)?;
            if self.should_checkpoint(epoch_idx) {
                span.begin("epoch.checkpoint", epoch_idx as i64, NO_LABEL);
                let mut state = StateDict::new();
                self.task.save_state(&model, &mut state);
                source.save_state(&mut state);
                state.push_u64(EXAMPLE_ORDER_BLOB, &order);
                self.write_checkpoint(
                    data,
                    Storage::InMemory,
                    epoch_idx + 1,
                    self.checkpoint_rng_state(epoch_idx, pre_eval_rng, &rng),
                    &state,
                    None,
                    &report,
                )?;
                span.end();
            }
            span.end(); // epoch
        }
        Ok(report)
    }

    /// One sequential disk epoch: swaps, sampling and compute interleaved on
    /// the calling thread. Serves as the determinism oracle for the pipelined
    /// executor: both derive per-step RNGs from `step_seed(epoch_seed, step)`
    /// and therefore produce bit-identical loss trajectories.
    fn run_epoch_sequential(
        &self,
        data: &ScaledDataset,
        plan: &marius_storage::EpochPlan,
        setup: &mut DiskSetup,
        epoch_seed: u64,
        model: &mut T::Model,
        epoch: &mut EpochReport,
    ) -> Result<()> {
        let p = setup.assignment.num_partitions();
        let builder = self.task.batch_builder(model);
        let mut batch_counter = 0usize;
        for (s, set) in plan.partition_sets.iter().enumerate() {
            let mut step_rng = StdRng::seed_from_u64(step_seed(epoch_seed, s as u64));
            epoch.partition_loads += setup.buffer.load_set(set)?;
            // Collect this step's training examples and shuffle them for
            // mini-batch generation. Steps that only stage partitions into the
            // buffer carry no examples.
            let mut examples = self.task.step_examples(data, &setup.buckets, p, plan, s);
            if examples.is_empty() {
                continue;
            }
            examples.shuffle(&mut step_rng);
            let candidates = setup.buffer.resident_nodes();
            // One shared snapshot per step (the subgraph only changes on
            // load_set); the Arc handle lets each batch borrow the buffer
            // mutably without deep-copying the CSR structures.
            let snapshot = setup.buffer.subgraph_arc();
            for batch in examples.chunks(self.config.train.batch_size) {
                if self.config.train.max_batches_per_epoch > 0
                    && batch_counter >= self.config.train.max_batches_per_epoch
                {
                    break;
                }
                let prepared =
                    self.task
                        .prepare(&builder, data, &snapshot, batch, &candidates, &mut step_rng);
                let stats = self.task.train_prepared(model, &mut setup.buffer, prepared);
                accumulate(epoch, &stats);
                batch_counter += 1;
            }
        }
        Ok(())
    }

    /// One pipelined disk epoch on the staged runtime: stage 2 workers shuffle
    /// the step's examples and build prepared batches (negatives + DENSE
    /// sampling) while stage 1 prefetches upcoming partition sets and this
    /// thread consumes `train_prepared` updates.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch_pipelined(
        &self,
        pipe: &Pipeline,
        data: &ScaledDataset,
        plan: &marius_storage::EpochPlan,
        setup: &mut DiskSetup,
        epoch_seed: u64,
        model: &mut T::Model,
        epoch: &mut EpochReport,
    ) -> Result<()> {
        let p = setup.assignment.num_partitions();
        let batch_size = self.config.train.batch_size;
        let max_batches = self.config.train.max_batches_per_epoch;
        // Per-step start offsets into the global batch budget so the cap is
        // applied identically to the sequential counter even though workers
        // build steps concurrently.
        let mut batch_offsets = Vec::with_capacity(plan.partition_sets.len());
        let mut acc = 0usize;
        for s in 0..plan.partition_sets.len() {
            batch_offsets.push(acc);
            acc += self
                .task
                .step_example_count(data, &setup.buckets, p, plan, s)
                .div_ceil(batch_size);
        }
        let builder = self.task.batch_builder(model);
        let task = &self.task;
        let buckets = &setup.buckets;
        let report = pipe.run_epoch(
            plan,
            &mut setup.buffer,
            epoch_seed,
            |ctx, step_rng, sink| {
                let mut examples = task.step_examples(data, buckets, p, plan, ctx.step);
                if examples.is_empty() {
                    return;
                }
                examples.shuffle(step_rng);
                for (k, chunk) in examples.chunks(batch_size).enumerate() {
                    if max_batches > 0 && batch_offsets[ctx.step] + k >= max_batches {
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
            },
            |buffer, _ctx, prepared| {
                let stats = task.train_prepared(model, buffer, prepared);
                accumulate(epoch, &stats);
            },
        )?;
        epoch.partition_loads += report.partition_loads;
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

    /// Trains out-of-core with a partition buffer driven by the task's
    /// replacement policy (the M-GNN_Disk configuration). Runs on the staged
    /// pipeline runtime when `config.pipeline.enabled`, otherwise sequentially.
    pub fn train_disk(&self, data: &ScaledDataset, disk: &DiskConfig) -> Result<ExperimentReport> {
        let mut rng = StdRng::seed_from_u64(self.config.train.seed);
        let label = self.task.disk_label(disk)?;
        let mut report = ExperimentReport::new(label.clone(), data.spec.name.clone());

        let env = IoEnv {
            emulated_device: self.config.emulated_device,
            ..self.env.clone()
        };
        let store = env.open_store(PartitionStore::temp_path(&format!(
            "{}-{}-{}",
            self.task.slug(),
            data.spec.name.replace('.', "-"),
            label.replace([' ', '(', ')'], "")
        )))?;
        store.clear()?;
        let mut setup = self
            .task
            .disk_setup(&self.config.model, data, disk, store, &mut rng)?;
        setup.buffer.attach_telemetry(&self.env.telemetry);
        let mut model =
            self.task
                .build_model(&self.config.model, &self.config.train, data, &mut rng)?;
        let pipeline = self.config.pipeline.enabled.then(|| {
            Pipeline::new(self.config.pipeline.clone()).with_telemetry(&self.env.telemetry)
        });
        let eval_ctx = self.task.eval_context(data);
        // Non-writeback buffers hold fixed representations that never change
        // on disk, so their evaluation source is built once; learnable ones
        // are reassembled from disk after each epoch's flush.
        let mut static_eval_source: Option<Box<dyn crate::source::RepresentationSource>> = None;

        // IO cost model used to estimate disk time for reports.
        let io_model = self.config.emulated_device.unwrap_or_default();

        let mut span = self.env.telemetry.scope("trainer");

        // Resuming: disk_setup/build_model above replayed the fresh run's RNG
        // draws (reproducing the partition assignment the snapshot's files
        // are laid out by); now overlay the checkpointed partition bytes and
        // model state, restore the RNG cursor, and jump to the saved epoch.
        let mut start_epoch = 0usize;
        if let Some(resume) = &self.resume {
            span.begin("resume.load", NO_LABEL, NO_LABEL);
            if let Some(snapshot) = resume.store_snapshot() {
                setup.store.restore_from(snapshot)?;
            }
            self.task.load_state(&mut model, &resume.state)?;
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
            setup.store.reset_io_stats();
            setup.buffer.reset_stats();
            span.begin("epoch", epoch_idx as i64, NO_LABEL);
            span.begin("epoch.train", epoch_idx as i64, NO_LABEL);
            let start = Instant::now();
            let plan = self.task.epoch_plan(disk, &setup, &mut rng)?;
            // Every random draw inside the epoch derives from this seed (per
            // step), so the sequential and pipelined executors are
            // interchangeable bit-for-bit.
            let epoch_seed: u64 = rng.gen();
            match &pipeline {
                Some(pipe) => self.run_epoch_pipelined(
                    pipe, data, &plan, &mut setup, epoch_seed, &mut model, &mut epoch,
                )?,
                None => self.run_epoch_sequential(
                    data, &plan, &mut setup, epoch_seed, &mut model, &mut epoch,
                )?,
            }
            span.end(); // epoch.train
            if setup.writeback {
                span.timed("epoch.flush", epoch_idx as i64, NO_LABEL, || {
                    setup.buffer.flush()
                })?;
            }
            if let Some(hook) = &self.ingest_hook {
                // Staged edge deltas are applied exactly here: after the
                // epoch's flush (so the write-back ledger is drained and the
                // store's bucket files agree with the in-memory buckets) and
                // before evaluation and the boundary's checkpoint. The hook
                // draws no trainer RNG, so the loss trajectory up to this
                // boundary is identical to a frozen-dataset run's.
                writeback_safe_point(&setup.buffer)?;
                span.begin("epoch.ingest", epoch_idx as i64, NO_LABEL);
                epoch.edges_ingested = hook(&mut setup, epoch_idx)?;
                span.end();
            }
            epoch.epoch_time = start.elapsed();

            let io = setup.store.io_stats();
            epoch.io_bytes_read = io.bytes_read;
            epoch.io_bytes_written = io.bytes_written;
            epoch.io_time = io_model.stats_time(&io);
            epoch.io_retries = io.io_retries;
            epoch.faults_injected = io.faults_injected;
            epoch.throttle_wait_time = io.throttle_wait;
            let buffer_stats = setup.buffer.stats();
            epoch.buffer_hits = buffer_stats.hits;
            epoch.buffer_misses = buffer_stats.misses;
            epoch.buffer_evictions = buffer_stats.evictions;

            let pre_eval_rng = rng.state();
            epoch.metric = if self.should_evaluate(epoch_idx) {
                span.begin("epoch.eval", epoch_idx as i64, NO_LABEL);
                let fresh_eval_source;
                let eval_source: &dyn crate::source::RepresentationSource = if setup.writeback {
                    fresh_eval_source =
                        self.task
                            .disk_eval_source(&self.config.model, data, &setup)?;
                    fresh_eval_source.as_ref()
                } else {
                    if static_eval_source.is_none() {
                        static_eval_source = Some(self.task.disk_eval_source(
                            &self.config.model,
                            data,
                            &setup,
                        )?);
                    }
                    static_eval_source.as_deref().expect("populated above")
                };
                let metric = self.task.evaluate(
                    &model,
                    eval_source,
                    &eval_ctx,
                    data,
                    &self.config.train,
                    &mut rng,
                );
                span.end();
                metric
            } else {
                f64::NAN
            };
            finalize(&mut epoch);
            epoch.mirror_into(&self.env.telemetry);
            report.epochs.push(epoch);
            self.epoch_done(&report)?;
            if self.should_checkpoint(epoch_idx) {
                span.begin("epoch.checkpoint", epoch_idx as i64, NO_LABEL);
                // The post-epoch flush above already drained the write-back
                // ledger; assert the safe point all the same before linking
                // the store's files into the snapshot (a partition with a
                // detached write-back in flight has stale bytes on disk).
                writeback_safe_point(&setup.buffer)?;
                let mut state = StateDict::new();
                self.task.save_state(&model, &mut state);
                self.write_checkpoint(
                    data,
                    Storage::Disk(disk.clone()),
                    epoch_idx + 1,
                    self.checkpoint_rng_state(epoch_idx, pre_eval_rng, &rng),
                    &state,
                    setup.writeback.then_some(&setup.store),
                    &report,
                )?;
                span.end();
            }
            span.end(); // epoch
        }
        let _ = setup.store.clear();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{LinkPredictionTask, NodeClassificationTask};
    use marius_graph::datasets::{DatasetSpec, ScaledDataset};
    use marius_graph::Partitioner;
    use marius_storage::PartitionStore;
    use std::time::Duration;

    fn lp_dataset() -> ScaledDataset {
        ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.015), 3)
    }

    fn lp_trainer(layers: usize) -> Trainer<LinkPredictionTask> {
        let mut model = ModelConfig::paper_link_prediction_graphsage(12).shrunk(5, 12);
        if layers == 0 {
            model = ModelConfig::paper_distmult(12);
        }
        let mut train = TrainConfig::quick(2, 9);
        train.batch_size = 128;
        train.num_negatives = 32;
        train.eval_negatives = 64;
        Trainer::new(model, train)
    }

    fn nc_dataset() -> ScaledDataset {
        ScaledDataset::generate(&DatasetSpec::ogbn_arxiv().scaled(0.008), 21)
    }

    fn nc_trainer() -> Trainer<NodeClassificationTask> {
        let mut model = ModelConfig::paper_node_classification(128, 16);
        model.num_layers = 2;
        model.fanouts = vec![8, 5];
        let mut train = TrainConfig::quick(2, 13);
        train.batch_size = 128;
        Trainer::new(model, train)
    }

    #[test]
    fn in_memory_link_prediction_produces_improving_mrr() {
        let data = lp_dataset();
        let report = lp_trainer(0).train_in_memory(&data).unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert!(report.final_metric() > 0.1, "MRR {}", report.final_metric());
        assert!(report.epochs[0].examples > 0);
        assert!(report.epochs[0].sample_time > Duration::ZERO);
    }

    #[test]
    fn disk_link_prediction_with_comet_runs_and_learns() {
        let data = lp_dataset();
        let disk = DiskConfig::comet(8, 4);
        let report = lp_trainer(1).train_disk(&data, &disk).unwrap();
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
        let report = lp_trainer(1)
            .train_disk(&data, &DiskConfig::beta(8, 4))
            .unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert!(report.system.contains("BETA"));
        assert!(report.final_metric() > 0.0);
    }

    #[test]
    fn disk_link_prediction_rejects_node_cache_policy() {
        let data = lp_dataset();
        let err = lp_trainer(1)
            .train_disk(&data, &DiskConfig::node_cache(8, 4))
            .unwrap_err();
        assert!(format!("{err}").contains("node classification"));
    }

    #[test]
    fn pipelined_link_prediction_matches_sequential_losses() {
        let data = lp_dataset();
        let disk = DiskConfig::comet(8, 4);
        let sequential = lp_trainer(1).train_disk(&data, &disk).unwrap();
        let pipelined = lp_trainer(1)
            .with_pipeline(marius_pipeline::PipelineConfig::with_workers(1))
            .train_disk(&data, &disk)
            .unwrap();
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
        let report = nc_trainer().train_in_memory(&data).unwrap();
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
        let disk = DiskConfig::node_cache(8, 6);
        let report = nc_trainer().train_disk(&data, &disk).unwrap();
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
        let err = nc_trainer()
            .train_disk(&data, &DiskConfig::comet(8, 4))
            .unwrap_err();
        assert!(format!("{err}").contains("training-node caching policy"));
    }

    #[test]
    fn pipelined_node_classification_matches_sequential_losses() {
        let data = nc_dataset();
        let disk = DiskConfig::node_cache(8, 6);
        let sequential = nc_trainer().train_disk(&data, &disk).unwrap();
        let pipelined = nc_trainer()
            .with_pipeline(marius_pipeline::PipelineConfig::with_workers(1))
            .train_disk(&data, &disk)
            .unwrap();
        for (a, b) in sequential.epochs.iter().zip(&pipelined.epochs) {
            assert_eq!(a.loss, b.loss, "epoch {} loss drifted", a.epoch);
            assert_eq!(a.metric, b.metric, "epoch {} metric drifted", a.epoch);
        }
    }

    #[test]
    fn eval_cadence_skips_intermediate_epochs_and_keeps_the_final_one() {
        let data = lp_dataset();
        let mut trainer = lp_trainer(0);
        trainer.config.train.epochs = 3;
        trainer.config.eval_every = 3;
        let report = trainer.train_in_memory(&data).unwrap();
        assert!(report.epochs[0].metric.is_nan());
        assert!(report.epochs[1].metric.is_nan());
        assert!(report.epochs[2].metric.is_finite());
    }

    #[test]
    fn epoch_hook_fires_once_per_epoch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let data = lp_dataset();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let report = lp_trainer(0)
            .with_fallible_epoch_hook(move |e| {
                assert!(e.examples > 0);
                seen.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .train_in_memory(&data)
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

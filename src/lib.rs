//! `marius` — the public facade of the MariusGNN reproduction.
//!
//! This crate re-exports the whole workspace and wraps the task-generic
//! training engine of [`marius_core`] behind one entry point: the [`Session`]
//! builder. A session owns a dataset, a model configuration, a storage
//! selection (in-memory or out-of-core) and an optional pipelined runtime,
//! and runs training/evaluation with eval-cadence and checkpoint hooks:
//!
//! ```no_run
//! use marius::{ModelConfig, Session, Storage, TrainConfig};
//! use marius::graph::datasets::{DatasetSpec, ScaledDataset};
//!
//! let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.05), 42);
//! let mut session = Session::builder()
//!     .dataset(data)
//!     .model(ModelConfig::paper_link_prediction_graphsage(32))
//!     .train(TrainConfig::quick(5, 42))
//!     .storage(Storage::Disk(marius::DiskConfig::comet(16, 4)))
//!     .pipeline(marius::PipelineConfig::with_workers(2))
//!     .build()
//!     .expect("valid session");
//! let report = session.train().expect("training succeeds");
//! println!("{}", report.to_table());
//! ```
//!
//! Tasks are selected with [`SessionBuilder::task`]; link prediction is the
//! default and [`NodeClassificationTask`] is the other built-in workload. Any
//! type implementing [`Task`] plugs into the same machinery.
//!
//! # Durable checkpoints and resume
//!
//! [`SessionBuilder::checkpoint_to`] writes *full* checkpoints at epoch
//! boundaries — model parameters and optimizer accumulators, the embedding
//! table or a partition-store snapshot, the RNG cursor, and the progress
//! report — as versioned directories swapped atomically (temp-dir + rename; a
//! crash can never tear a checkpoint). [`Session::resume_from`] rebuilds the
//! whole session from the newest checkpoint alone, and the resumed run's loss
//! trajectory is **bit-identical** to the uninterrupted run's:
//!
//! ```no_run
//! use marius::graph::datasets::{DatasetSpec, ScaledDataset};
//! use marius::{LinkPredictionTask, ModelConfig, Session, TrainConfig};
//!
//! # fn main() -> marius::Result<()> {
//! // A run checkpoints every epoch, then is interrupted...
//! let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.05), 42);
//! let mut session = Session::builder()
//!     .dataset(data)
//!     .model(ModelConfig::paper_distmult(32))
//!     .train(TrainConfig::quick(4, 42))
//!     .checkpoint_to("run/checkpoints", 1)
//!     .build()?;
//! session.train()?;
//!
//! // ...and a later process picks up exactly where it stopped (the dataset,
//! // the run's description — task, model, storage, pipeline, cadences —,
//! // optimizer state and RNG streams all come from the manifest;
//! // `resume_from_until` additionally raises the epoch target).
//! let mut resumed: Session<LinkPredictionTask> =
//!     Session::resume_from("run/checkpoints")?;
//! let report = resumed.train()?;
//! # let _ = report;
//! # Ok(())
//! # }
//! ```
//!
//! See `marius_core::checkpoint` for the on-disk layout (manifest schema —
//! one [`RunConfig`] plus cursor, blobs and epochs —, blob format, versioning
//! rules).
//!
//! # Fault tolerance
//!
//! The storage layer injects deterministic faults ([`storage::IoFaultPlan`]),
//! retries transient failures with bounded exponential backoff
//! ([`storage::RetryPolicy`]), and supervises every pipeline stage, so a
//! flaky disk costs retries, never correctness: a run whose transient faults
//! are all absorbed by the retry layer is **bit-identical** to the fault-free
//! run (faults and retries live entirely inside the store, outside every RNG
//! stream). Faults that outlast the retry budget surface as typed
//! [`StorageError::Pipeline`] errors after an orderly pipeline shutdown, and
//! [`Session::train_with_recovery`] turns those into automatic resumes from
//! the newest checkpoint, up to a bounded restart budget:
//!
//! ```no_run
//! use marius::graph::datasets::{DatasetSpec, ScaledDataset};
//! use marius::storage::IoFaultPlan;
//! use marius::{ModelConfig, Session, Storage, TrainConfig};
//!
//! # fn main() -> marius::Result<()> {
//! let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.05), 42);
//! let mut session = Session::builder()
//!     .dataset(data)
//!     .model(ModelConfig::paper_distmult(32))
//!     .train(TrainConfig::quick(4, 42))
//!     .storage(Storage::Disk(marius::DiskConfig::comet(16, 4)))
//!     .fault_injector(IoFaultPlan::flaky(7).build()) // chaos testing; omit on real devices
//!     .checkpoint_to("run/checkpoints", 1)
//!     .build()?;
//! // Transient faults retry invisibly; anything worse auto-resumes from the
//! // newest checkpoint, at most 3 times.
//! let report = session.train_with_recovery(3)?;
//! # let _ = report;
//! # Ok(())
//! # }
//! ```
//!
//! See `marius_storage::fault` for the fault model and error taxonomy.
//!
//! # Telemetry
//!
//! [`SessionBuilder::telemetry`] attaches a [`Telemetry`] recorder to the
//! whole run: the trainer's epoch loop, checkpoint writes, every pipeline
//! stage thread and bounded queue, and the partition store/buffer record
//! spans and metrics into it. Recording reads only monotonic clocks — never
//! RNG — so trajectories are bit-identical with telemetry on or off, and the
//! default (a disabled handle) costs nothing:
//!
//! ```no_run
//! use marius::graph::datasets::{DatasetSpec, ScaledDataset};
//! use marius::{ModelConfig, Session, Storage, Telemetry, TrainConfig};
//!
//! # fn main() -> marius::Result<()> {
//! let telemetry = Telemetry::enabled();
//! let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.05), 42);
//! let mut session = Session::builder()
//!     .dataset(data)
//!     .model(ModelConfig::paper_distmult(32))
//!     .train(TrainConfig::quick(2, 42))
//!     .storage(Storage::Disk(marius::DiskConfig::comet(16, 4)))
//!     .pipeline(marius::PipelineConfig::with_workers(2))
//!     .telemetry(&telemetry)
//!     .build()?;
//! session.train()?;
//! // Load trace.json in chrome://tracing or https://ui.perfetto.dev;
//! // metrics.json aggregates mirror the EpochReport fields exactly.
//! telemetry.write_chrome_trace("trace.json")?;
//! telemetry.write_metrics_json("metrics.json")?;
//! # Ok(())
//! # }
//! ```
//!
//! See `marius_telemetry` for the event model and overhead guarantees.
//!
//! # Serving a trained model
//!
//! Checkpoints are not just for resuming: [`Server`] (from `marius-serve`)
//! opens one read-only and answers link-prediction queries — pairwise
//! scoring, top-k tail prediction, k-NN over embeddings — from any number of
//! threads, bit-identically to a single-threaded run. Train, checkpoint,
//! serve:
//!
//! ```no_run
//! use marius::graph::datasets::{DatasetSpec, ScaledDataset};
//! use marius::{ModelConfig, ServeConfig, Server, Session, Storage, TrainConfig};
//!
//! # fn main() -> marius::Result<()> {
//! // Train a decoder-only DistMult model out of core and checkpoint it.
//! let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.05), 42);
//! let mut session = Session::builder()
//!     .dataset(data)
//!     .model(ModelConfig::paper_distmult(32))
//!     .train(TrainConfig::quick(2, 42))
//!     .storage(Storage::Disk(marius::DiskConfig::comet(16, 4)))
//!     .checkpoint_to("run/checkpoints", 1)
//!     .build()?;
//! session.train()?;
//!
//! // Serve the checkpoint: in memory via `session.serve()`, or out of core
//! // behind a byte-budgeted hot-partition read cache whose admission set
//! // reuses the checkpoint's COMET/BETA policy machinery.
//! let server = Server::from_checkpoint_with("run/checkpoints", ServeConfig::read_cache(1 << 20))?;
//! let score = server.score(0, 3, 17)?;
//! let tails = server.top_k(0, 3, 10)?;
//! let similar = server.knn(0, 5)?;
//! # let _ = (score, tails, similar);
//! # Ok(())
//! # }
//! ```
//!
//! See `marius_serve` for the query API, cache-policy reuse and the
//! consistency guarantees (thread-count, backend and chunking invariance).
//!
//! # Continuous training: train → checkpoint → reload → serve
//!
//! A server is not stuck on the checkpoint it opened. [`Server::reload`]
//! atomically hot-swaps in the newest `epoch-NNNNNN/` version (in-flight
//! queries finish on the snapshot they pinned), and
//! [`Session::serve_watching`] wires that into a background poll loop so a
//! long-lived server tracks a training run as it publishes checkpoints:
//!
//! ```no_run
//! use std::time::Duration;
//! use marius::graph::datasets::{DatasetSpec, ScaledDataset};
//! use marius::{LinkPredictionTask, ModelConfig, ServeConfig, Session, Storage, TrainConfig};
//!
//! # fn main() -> marius::Result<()> {
//! let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.05), 42);
//! let mut session = Session::builder()
//!     .dataset(data)
//!     .model(ModelConfig::paper_distmult(32))
//!     .train(TrainConfig::quick(2, 42))
//!     .storage(Storage::Disk(marius::DiskConfig::comet(16, 4)))
//!     .checkpoint_to("run/checkpoints", 1)
//!     .build()?;
//! session.train()?;
//!
//! // Serve with hardening: bounded in-flight budget, per-query deadline,
//! // and a watcher that hot-swaps each new checkpoint as training publishes
//! // it. Queries keep answering (on the old epoch) throughout every swap.
//! let config = ServeConfig::read_cache(1 << 20)
//!     .with_max_in_flight(64)
//!     .with_deadline(Duration::from_millis(250));
//! let (server, watcher) = session.serve_watching(config, Duration::from_millis(100))?;
//!
//! // Keep training: the watcher reloads epoch 3's checkpoint within a poll.
//! let mut session: Session<LinkPredictionTask> =
//!     Session::resume_from_until("run/checkpoints", 3)?;
//! session.train()?;
//!
//! println!("{:?}", server.health()); // readiness: epoch, errors, shed, reloads
//! watcher.stop(); // stops polling; the server keeps serving its snapshot
//! # Ok(())
//! # }
//! ```
//!
//! Under faults the read path degrades predictably — transient read errors
//! retry (seeded [`IoFaultPlan`] chaos schedules attach via
//! [`ServeConfig`]), corrupt cached blocks quarantine and re-read from disk,
//! overload sheds with typed [`ServeError`]s — see `marius_serve`'s
//! "degradation modes & reload semantics" docs.
//!
//! # Streaming ingest: a training set that grows mid-run
//!
//! [`Session::stream`] closes the loop the other way: instead of a frozen
//! dataset, a seeded [`EdgeStream`] feeds new edges into the run itself.
//! Each cycle fine-tunes for K epochs, then (at the write-back safe point of
//! the epoch boundary) an [`Ingestor`] stages the next N batches as
//! crash-atomic delta files and applies them to the edge buckets — the next
//! cycle trains over the grown graph while the
//! [`TemporalLinkPredictionTask`] keeps evaluating on its frozen
//! chronological windows. Every checkpoint records the stream cursor, so
//! [`Session::resume_streamed`] reproduces an interrupted streamed run
//! bit-for-bit by replaying the stream, and a [`Session::serve_watching`]
//! server follows the fine-tuned epochs live:
//!
//! ```no_run
//! use marius::graph::datasets::{DatasetSpec, ScaledDataset};
//! use marius::{
//!     ModelConfig, Session, Storage, StreamConfig, TemporalLinkPredictionTask, TrainConfig,
//! };
//!
//! # fn main() -> marius::Result<()> {
//! let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.05), 42);
//! let mut session = Session::builder()
//!     .task(TemporalLinkPredictionTask)
//!     .dataset(data)
//!     .model(ModelConfig::paper_distmult(32))
//!     .train(TrainConfig::quick(1, 42)) // epoch target comes from the stream config
//!     .storage(Storage::Disk(marius::DiskConfig::comet(16, 4)))
//!     .checkpoint_to("run/checkpoints", 1)
//!     .build()?;
//! // 3 cycles × (fine-tune 2 epochs, then ingest 4 batches of 64 edges).
//! let report = session.stream(StreamConfig::new(7, 64, 4, 2, 3))?;
//! assert!(report.epochs.iter().any(|e| e.edges_ingested > 0));
//! # Ok(())
//! # }
//! ```
//!
//! See [`stream`] for the ingest atomicity and epoch-boundary semantics,
//! and [`graph::temporal`] for the split rules.
//!
//! # Workspace map
//!
//! Seven library crates, each re-exported here under its short name. Three
//! of their modules also have a top-level path of their own.
//!
//! * [`tensor`] / [`gnn`] — dense kernels, layers, decoders, optimizers.
//! * [`graph`] — edge lists, CSR subgraphs, partitioning, synthetic datasets,
//!   and [`sampling`] (`graph::sampling`): DENSE multi-hop sampling and
//!   negative sampling.
//! * [`storage`] — the partition store/buffer and replacement policies
//!   (COMET, BETA, training-node caching), and [`pipeline`]
//!   (`storage::pipeline`): the out-of-core step, run in order or on stage
//!   threads overlapping disk IO, batch construction and compute.
//! * [`core`] — models, the [`Task`] trait and the generic
//!   [`Trainer`]`<T>` this facade wraps, and [`stream`] (`core::stream`):
//!   streaming edge ingest for continuous training.
//! * [`serve`] — the read path answering queries over finished checkpoints.
//! * [`telemetry`] — spans, counters and their Chrome-trace / metrics export.
//!
//! The paper's structural claims are tests, not tables: DENSE ≡ layer-wise
//! sampling (Table 6) and the exact COMET / BETA partition-load counts
//! (Table 8) are pinned in `tests/sampling_and_policies.rs`.

pub use marius_core as core;
pub use marius_core::stream;
pub use marius_gnn as gnn;
pub use marius_graph as graph;
pub use marius_graph::sampling;
pub use marius_serve as serve;
pub use marius_storage as storage;
pub use marius_storage::pipeline;
pub use marius_telemetry as telemetry;
pub use marius_tensor as tensor;

pub use marius_telemetry::Telemetry;

pub use marius_core::stream::{EdgeStream, Ingestor};
pub use marius_core::{
    Checkpoint, DiskConfig, EncoderKind, EpochHook, EpochReport, ExperimentReport,
    LinkPredictionTask, ModelConfig, NodeClassificationTask, Persist, PipelineConfig, PolicyKind,
    RunConfig, StateDict, Storage, StreamState, Task, TemporalLinkPredictionTask, TrainConfig,
    Trainer,
};
pub use marius_serve::{
    CheckpointWatcher, Prediction, ServeConfig, ServeError, ServeMode, ServeResult, Server,
    ServerHealth, ZipfWorkload,
};
pub use marius_storage::{
    FaultInjector, IoCostModel, IoEnv, IoFaultPlan, Result, RetryPolicy, StorageError,
};

use marius_graph::datasets::ScaledDataset;
use marius_storage::PartitionStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configuration of a continuous-training loop ([`Session::stream`]): each
/// cycle fine-tunes for `epochs_per_cycle` epochs, then ingests
/// `batches_per_cycle` batches of `batch_size` edges from a seeded
/// [`EdgeStream`] at the epoch boundary's write-back safe point. The final
/// cycle does not ingest (edges arriving after the last epoch would never be
/// fine-tuned; they belong to the next [`Session::resume_streamed`] run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Seed of the edge stream (independent of the training seed).
    pub seed: u64,
    /// Edges per stream batch.
    pub batch_size: usize,
    /// Stream batches ingested at each cycle boundary.
    pub batches_per_cycle: usize,
    /// Fine-tuning epochs per cycle.
    pub epochs_per_cycle: usize,
    /// Number of ingest→fine-tune cycles (total epochs = `cycles ×
    /// epochs_per_cycle`, overriding the session's configured epoch count).
    pub cycles: usize,
}

impl StreamConfig {
    /// Creates a stream configuration; see the field docs for the meaning of
    /// each knob.
    pub fn new(
        seed: u64,
        batch_size: usize,
        batches_per_cycle: usize,
        epochs_per_cycle: usize,
        cycles: usize,
    ) -> Self {
        StreamConfig {
            seed,
            batch_size,
            batches_per_cycle,
            epochs_per_cycle,
            cycles,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.batch_size == 0
            || self.batches_per_cycle == 0
            || self.epochs_per_cycle == 0
            || self.cycles == 0
        {
            return Err(StorageError::InvalidPlan {
                reason: "StreamConfig requires non-zero batch_size, batches_per_cycle, \
                         epochs_per_cycle and cycles"
                    .into(),
            });
        }
        Ok(())
    }
}

/// Builder for [`Session`]. Obtain one with [`Session::builder`]. Every
/// setter writes into one of two values: the run's description ([`RunConfig`],
/// what a checkpoint manifest persists) or its IO environment ([`IoEnv`],
/// what a process attaches and a manifest does not hold).
pub struct SessionBuilder<T: Task = LinkPredictionTask> {
    task: T,
    dataset: Option<ScaledDataset>,
    config: RunConfig,
    env: IoEnv,
    epoch_hook: Option<EpochHook>,
    checkpoint_dir: Option<PathBuf>,
}

impl Default for SessionBuilder<LinkPredictionTask> {
    fn default() -> Self {
        SessionBuilder::with_task(LinkPredictionTask)
    }
}

impl<T: Task> SessionBuilder<T> {
    /// Starts a builder for an explicit task value.
    pub fn with_task(task: T) -> Self {
        SessionBuilder {
            task,
            dataset: None,
            config: RunConfig::default(),
            env: IoEnv::default(),
            epoch_hook: None,
            checkpoint_dir: None,
        }
    }

    /// Switches the session to a different task (e.g.
    /// [`NodeClassificationTask`]), keeping every other setting.
    pub fn task<U: Task>(self, task: U) -> SessionBuilder<U> {
        SessionBuilder {
            task,
            dataset: self.dataset,
            config: self.config,
            env: self.env,
            epoch_hook: self.epoch_hook,
            checkpoint_dir: self.checkpoint_dir,
        }
    }

    /// The dataset to train on (required).
    pub fn dataset(mut self, data: ScaledDataset) -> Self {
        self.dataset = Some(data);
        self
    }

    /// The model architecture (required).
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.config.model = model;
        self
    }

    /// Batch/epoch configuration (defaults to [`TrainConfig::default`]).
    pub fn train(mut self, train: TrainConfig) -> Self {
        self.config.train = train;
        self
    }

    /// In-memory or out-of-core storage (defaults to [`Storage::InMemory`]).
    pub fn storage(mut self, storage: Storage) -> Self {
        self.config.storage = storage;
        self
    }

    /// Enables the staged pipelined runtime for disk-based training.
    pub fn pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.config.pipeline = pipeline;
        self
    }

    /// Runs disk training against an emulated IO device instead of the raw
    /// local filesystem (see [`storage::PartitionStore::with_emulated_device`]).
    /// Part of the run's description: checkpoints record it and a resumed
    /// run trains against the same device.
    pub fn emulated_device(mut self, model: IoCostModel) -> Self {
        self.config.emulated_device = Some(model);
        self
    }

    /// Arms a deterministic IO fault injector on the run's partition stores
    /// (chaos testing; build one with [`IoFaultPlan::build`]): disk training,
    /// stream staging and checkpoint placement then experience the plan's
    /// seeded schedule of transient failures, torn writes and latency
    /// spikes. Faults absorbed by the retry layer leave the loss trajectory
    /// bit-identical to a fault-free run. The injector is shared, so callers
    /// can read its counters or arm outage/permanent windows mid-run. See
    /// `marius_storage::fault`.
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.env.faults = Some(injector);
        self
    }

    /// Evaluates the task metric only every `every` epochs (plus the final
    /// epoch); skipped epochs report `metric = NaN`. Evaluation consumes RNG
    /// draws, so changing the cadence changes subsequent trajectories.
    pub fn eval_every(mut self, every: usize) -> Self {
        self.config.eval_every = every;
        self
    }

    /// Installs a callback invoked after every completed epoch.
    pub fn on_epoch(self, hook: impl Fn(&EpochReport) + Send + Sync + 'static) -> Self {
        self.on_epoch_fallible(move |epoch| {
            hook(epoch);
            Ok(())
        })
    }

    /// Installs a fallible epoch callback: an `Err` aborts training and
    /// surfaces from [`Session::train`] as the run's [`StorageError`].
    pub fn on_epoch_fallible(
        mut self,
        hook: impl Fn(&EpochReport) -> Result<()> + Send + Sync + 'static,
    ) -> Self {
        self.epoch_hook = Some(Box::new(hook));
        self
    }

    /// Attaches a [`Telemetry`] recorder to the run: the trainer's epoch
    /// loop, checkpoint writes, every pipeline stage thread and bounded
    /// queue, and the partition store/buffer all record spans and metrics
    /// into the cloned handle. Recording reads only monotonic clocks — never
    /// an RNG stream — so the loss trajectory is bit-identical with telemetry
    /// attached or not. The default is a disabled handle: it keeps no spans
    /// and reports no metrics (the layers' counters still count, for their
    /// own reports, but nothing registers them). After the run, export with
    /// [`Telemetry::write_chrome_trace`] / [`Telemetry::write_metrics_json`].
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.env.telemetry = telemetry.clone();
        self
    }

    /// Writes a full durable checkpoint under the directory `path` every
    /// `every` epochs (and always after the final epoch): model parameters
    /// and optimizer accumulators, the embedding table or a snapshot of the
    /// partition store, the RNG cursor, and the progress report, laid out as
    /// versioned subdirectories with an atomically swapped `LATEST` pointer
    /// so a crash can never tear a checkpoint. [`Session::resume_from`] picks
    /// a run back up from the newest version, bit-exactly. See
    /// `marius_core::checkpoint` for the on-disk format.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint_dir = Some(path.into());
        self.config.checkpoint_every = every.max(1);
        self
    }

    /// Validates the configuration and assembles the [`Session`].
    pub fn build(self) -> Result<Session<T>> {
        let data = self.dataset.ok_or_else(|| StorageError::InvalidPlan {
            reason: "Session requires a dataset (SessionBuilder::dataset)".into(),
        })?;
        if self.config.model.output_dim == 0 {
            return Err(StorageError::InvalidPlan {
                reason: "Session requires a model configuration (SessionBuilder::model)".into(),
            });
        }
        // Fail fast on a policy/task mismatch instead of at train() time.
        if let Storage::Disk(disk) = &self.config.storage {
            self.task.disk_label(disk)?;
        }
        // Checkpointing lives inside the trainer (it owns the model and the
        // store at epoch boundaries); the user hook rides along unchanged,
        // and any hook failure propagates as the run's StorageError instead
        // of panicking through a poisoned accumulator.
        let every = self.config.checkpoint_every;
        let mut trainer = Trainer::from_config(self.task, self.config, self.env);
        if let Some(dir) = self.checkpoint_dir {
            trainer = trainer.with_checkpoint(dir, every);
        }
        if let Some(hook) = self.epoch_hook {
            trainer = trainer.with_fallible_epoch_hook(hook);
        }
        Ok(Session {
            trainer,
            data,
            last_report: None,
        })
    }
}

/// A configured training session: the single public entry point of the
/// facade. See the crate docs for a usage example.
pub struct Session<T: Task> {
    trainer: Trainer<T>,
    data: ScaledDataset,
    last_report: Option<ExperimentReport>,
}

impl Session<LinkPredictionTask> {
    /// Starts building a session (link prediction by default; switch with
    /// [`SessionBuilder::task`]).
    pub fn builder() -> SessionBuilder<LinkPredictionTask> {
        SessionBuilder::default()
    }
}

impl<T: Task + Default> Session<T> {
    /// Rebuilds a session from the newest checkpoint under `path` (a
    /// directory previously passed to [`SessionBuilder::checkpoint_to`]):
    /// the dataset is regenerated from the manifest's spec and seed, the
    /// task/model/storage/pipeline configuration is restored, and the next
    /// [`Session::train`] continues from the checkpointed epoch with the
    /// saved parameters, optimizer accumulators and RNG streams — producing
    /// the same loss trajectory, bit for bit, as the run would have without
    /// the interruption. The resumed session keeps checkpointing to `path`
    /// on the recorded cadence.
    ///
    /// What comes back is the run's *description* — the manifest's
    /// [`RunConfig`], emulated device included. A manifest never holds the
    /// run's IO environment ([`IoEnv`]: fault injector, retry policy,
    /// telemetry recorder) or its epoch hooks: a session resumed by
    /// `resume_from`, `resume_from_until` or `resume_streamed` runs on the
    /// healthy device under the default retry policy, unobserved. Only
    /// [`Session::train_with_recovery`] carries an environment across.
    ///
    /// The checkpoint's task must match `T` (compared by `Task::slug`);
    /// resuming a node-classification checkpoint requires
    /// `Session::<NodeClassificationTask>::resume_from`.
    pub fn resume_from(path: impl AsRef<Path>) -> Result<Session<T>> {
        Self::resume(path.as_ref(), None, IoEnv::default())
    }

    /// Like [`Session::resume_from`], but raises the run's total epoch target
    /// to `epochs` — the way to *extend* a finished run, or to express
    /// "2 epochs done, train to 4" when the interrupted run had a shorter
    /// target. `epochs` below the checkpointed progress is rejected.
    pub fn resume_from_until(path: impl AsRef<Path>, epochs: usize) -> Result<Session<T>> {
        Self::resume(path.as_ref(), Some(epochs), IoEnv::default())
    }

    /// Trains to completion, automatically resuming from the newest
    /// checkpoint when a run fails, up to `max_restarts` times. The session
    /// must checkpoint ([`SessionBuilder::checkpoint_to`]); each recovery
    /// re-opens the checkpoint directory, rebuilds the run bit-exactly
    /// ([`Session::resume_from_until`] semantics) and continues, and this
    /// session *becomes* the rebuilt one. A resume that itself fails (the
    /// device still down during the restore) consumes restart budget and is
    /// retried like any other failure. When the budget is exhausted the last
    /// failure surfaces unchanged.
    ///
    /// The failed session's [`IoEnv`] is handed to each rebuilt one as one
    /// value: the *same* fault injector (so a one-shot outage window is not
    /// replayed by the restarted run), the same retry policy and the same
    /// telemetry recorder (the trace of a recovered run covers every
    /// attempt). The emulated device needs no carrying — it is part of the
    /// description and comes back from the manifest. Epoch hooks still do
    /// not survive a recovery (closures cannot be rebuilt from a manifest);
    /// epochs trained after the first restart run without the hook.
    ///
    /// The returned report's [`EpochReport::recoveries`] field records, per
    /// epoch, how many recoveries preceded it.
    pub fn train_with_recovery(&mut self, max_restarts: usize) -> Result<ExperimentReport> {
        let dir = self.checkpoint_root("train_with_recovery")?.to_path_buf();
        let target_epochs = self.trainer.config.train.epochs;
        // Epoch indices at which a recovery successfully resumed, for the
        // report stamp; `attempts` also counts resumes that failed before
        // training restarted (a device still down during the restore), so
        // the budget bounds every kind of restart.
        let mut resumed_at: Vec<usize> = Vec::new();
        let mut attempts = 0usize;
        let mut outcome = self.train();
        while let Err(err) = outcome {
            if attempts >= max_restarts {
                return Err(err);
            }
            attempts += 1;
            let env = self.trainer.io_env().clone();
            match Self::resume(&dir, Some(target_epochs), env) {
                Ok(next) => {
                    let resumed = next.trainer.resumed_from();
                    resumed_at.push(resumed.map_or(0, |ckpt| ckpt.epochs_completed));
                    *self = next;
                    outcome = self.train();
                }
                Err(e) => outcome = Err(e),
            }
        }
        let mut report = outcome?;
        for epoch in &mut report.epochs {
            epoch.recoveries = resumed_at.iter().filter(|&&at| at <= epoch.epoch).count();
        }
        self.last_report = Some(report.clone());
        Ok(report)
    }

    /// Rebuilds an interrupted *streamed* run ([`Session::stream`]) from the
    /// newest checkpoint under `path`. On top of [`Session::resume_from`]
    /// semantics, the manifest's stream cursor is replayed: the base dataset
    /// is regenerated from its spec and seed, every already-applied stream
    /// batch is re-derived from `(config.seed, batch index)` and appended to
    /// the edge list, and the ingest hook is re-armed at the cursor — so the
    /// resumed loop continues ingesting and fine-tuning exactly where the
    /// interrupted one stopped, with a bit-identical trajectory.
    ///
    /// `config` carries the original run's stream geometry (it is not
    /// recorded in the manifest): the seed and batch size are checked
    /// against the checkpointed cursor, and the run's epoch target becomes
    /// `cycles × epochs_per_cycle` — equal to the original target to finish
    /// an interrupted loop bit-exactly, or larger to extend a finished one
    /// with further cycles ([`Session::resume_from_until`] semantics; a
    /// target below the checkpointed progress is rejected). A checkpoint
    /// without a stream cursor (a frozen-dataset run) is rejected — use
    /// [`Session::resume_from`] for those.
    pub fn resume_streamed(path: impl AsRef<Path>, config: StreamConfig) -> Result<Session<T>> {
        config.validate()?;
        let path = path.as_ref();
        let total = config.cycles * config.epochs_per_cycle;
        let mut session = Self::resume(path, Some(total), IoEnv::default())?;
        let cursor = session
            .trainer
            .resumed_from()
            .and_then(|ckpt| ckpt.stream)
            .ok_or_else(|| {
                StorageError::checkpoint(format!(
                    "checkpoint at {} records no stream cursor; use Session::resume_from",
                    path.display()
                ))
            })?;
        let stream = session.edge_stream(&config);
        // Replay the stream up to the cursor: the grown edge list makes the
        // construction replay inside train() rebuild the same buckets the
        // uninterrupted run grew incrementally (chronological split: base
        // train ++ streamed edges, in time order).
        for k in 0..cursor.batches_applied {
            for edge in stream.batch(k) {
                session.data.graph.push(edge).map_err(|e| {
                    StorageError::checkpoint(format!("stream replay produced an invalid edge: {e}"))
                })?;
            }
        }
        let ingestor = session.make_ingestor(stream)?.resume_at(cursor)?;
        session.arm_stream(ingestor, &config);
        Ok(session)
    }

    /// The one way back from a manifest: the checkpointed [`RunConfig`]
    /// (epoch target optionally raised) under the caller's [`IoEnv`], through
    /// the same [`Trainer::from_config`] that [`SessionBuilder::build`] uses,
    /// plus the saved state to overlay.
    fn resume(path: &Path, epochs: Option<usize>, env: IoEnv) -> Result<Session<T>> {
        let ckpt = Checkpoint::open(path)?;
        let task = T::default();
        if ckpt.config.task != task.slug() {
            return Err(StorageError::checkpoint(format!(
                "checkpoint at {} was written by task {:?}, not {:?}",
                path.display(),
                ckpt.config.task,
                task.slug()
            )));
        }
        let mut config = ckpt.config.clone();
        if let Some(epochs) = epochs {
            if epochs < ckpt.epochs_completed {
                return Err(StorageError::checkpoint(format!(
                    "cannot resume to {epochs} epochs: checkpoint already completed {}",
                    ckpt.epochs_completed
                )));
            }
            config.train.epochs = epochs;
        }
        let every = config.checkpoint_every;
        Ok(Session {
            data: ScaledDataset::generate(&ckpt.dataset_spec, ckpt.dataset_seed),
            trainer: Trainer::from_config(task, config, env)
                .with_checkpoint(path, every)
                .with_resume(ckpt),
            last_report: None,
        })
    }
}

impl<T: Task> Session<T> {
    /// Runs the continuous-training loop: per cycle, fine-tune
    /// `epochs_per_cycle` epochs, then ingest `batches_per_cycle` seeded
    /// stream batches at the epoch boundary (write-back safe point), so the
    /// next cycle trains over the grown edge set. Requires disk storage; the
    /// session's total epoch target becomes `cycles × epochs_per_cycle`.
    ///
    /// Checkpoints written during the loop record the stream cursor, making
    /// the run resumable with [`Session::resume_streamed`] and followable by
    /// a [`Session::serve_watching`] server. Use the
    /// [`TemporalLinkPredictionTask`]: its chronological split derives the
    /// training set from the full timestamped edge list, which is what makes
    /// a resumed run's bucket rebuild agree bit-for-bit with the
    /// uninterrupted run's incremental delta application (tasks whose train
    /// split ignores streamed edges would train on them mid-run but lose
    /// them on resume).
    ///
    /// The loop is deterministic end to end: the stream is a pure function
    /// of `(config.seed, batch index)`, ingest consumes no trainer RNG, and
    /// application happens outside the seeded epoch executors — so streamed
    /// runs are bit-identical across reruns and across the in-order and
    /// threaded disk schedules, exactly like frozen-dataset runs.
    pub fn stream(&mut self, config: StreamConfig) -> Result<ExperimentReport> {
        config.validate()?;
        if !matches!(self.trainer.config.storage, Storage::Disk(_)) {
            return Err(StorageError::InvalidPlan {
                reason: "Session::stream requires out-of-core storage (Storage::Disk)".into(),
            });
        }
        self.trainer.config.train.epochs = config.cycles * config.epochs_per_cycle;
        let ingestor = self.make_ingestor(self.edge_stream(&config))?;
        self.arm_stream(ingestor, &config);
        self.train()
    }

    /// The directory this session checkpoints to, or the typed error of an
    /// operation (`caller`) that needs one.
    fn checkpoint_root(&self, caller: &str) -> Result<&Path> {
        let dir = self.trainer.checkpoint_dir();
        dir.ok_or_else(|| StorageError::InvalidPlan {
            reason: format!(
                "{caller} requires a checkpoint directory (SessionBuilder::checkpoint_to)"
            ),
        })
    }

    /// The seeded edge stream `config` describes over this session's graph.
    fn edge_stream(&self, config: &StreamConfig) -> EdgeStream {
        let (nodes, relations) = (self.data.num_nodes(), self.data.spec.num_relations);
        EdgeStream::new(config.seed, nodes, relations, config.batch_size)
    }

    /// Builds the staging-side [`Ingestor`] for `stream`. The delta staging
    /// store opens under the session's IO environment, so ingest IO degrades
    /// (and is observed) exactly like training IO.
    fn make_ingestor(&self, stream: EdgeStream) -> Result<Ingestor> {
        let staging = self
            .trainer
            .io_env()
            .open_store(PartitionStore::temp_path(&format!(
                "stream-staging-{}",
                stream.seed()
            )))?;
        staging.clear()?;
        Ok(Ingestor::new(stream, staging))
    }

    /// Arms the trainer's ingest hook and stream cursor for a continuous
    /// loop: ingest fires at every `epochs_per_cycle`-th epoch boundary
    /// except the final one. Boundaries are indexed absolutely, so a resumed
    /// run ingests at the same epochs the uninterrupted run did.
    fn arm_stream(&mut self, ingestor: Ingestor, config: &StreamConfig) {
        let total = self.trainer.config.train.epochs;
        let per_cycle = config.epochs_per_cycle;
        let batches = config.batches_per_cycle;
        self.trainer.set_stream_state(ingestor.state_handle());
        let ingestor = Arc::new(ingestor);
        self.trainer.set_ingest_hook(move |setup, epoch_idx| {
            if (epoch_idx + 1).is_multiple_of(per_cycle) && epoch_idx + 1 < total {
                ingestor.ingest(setup, batches)
            } else {
                Ok(0)
            }
        });
    }

    /// Trains per the session's configuration and returns (and caches) the
    /// experiment report.
    pub fn train(&mut self) -> Result<ExperimentReport> {
        let report = self.trainer.train(&self.data)?;
        self.last_report = Some(report.clone());
        Ok(report)
    }

    /// The task metric (MRR / accuracy) of the most recent training run,
    /// training first if the session has not run yet.
    pub fn evaluate(&mut self) -> Result<f64> {
        if let Some(report) = &self.last_report {
            return Ok(report.final_metric());
        }
        Ok(self.train()?.final_metric())
    }

    /// The report of the most recent [`Session::train`] call, if any.
    pub fn last_report(&self) -> Option<&ExperimentReport> {
        self.last_report.as_ref()
    }

    /// The human-readable name of the task metric ("MRR", "accuracy").
    pub fn metric_name(&self) -> &'static str {
        self.trainer.task.metric_name()
    }

    /// The dataset this session trains on.
    pub fn dataset(&self) -> &ScaledDataset {
        &self.data
    }

    /// The underlying trainer (for advanced configuration inspection).
    pub fn trainer(&self) -> &Trainer<T> {
        &self.trainer
    }

    /// Opens a read-only [`Server`] over this session's checkpoint directory
    /// (in-memory serving, telemetry disabled); requires
    /// [`SessionBuilder::checkpoint_to`] and at least one completed
    /// checkpointed epoch. Use [`Session::serve_with`] to pick the
    /// out-of-core read-cache backend or attach telemetry.
    pub fn serve(&self) -> Result<Server> {
        self.serve_with(ServeConfig::in_memory())
    }

    /// Like [`Session::serve`], with an explicit [`ServeConfig`].
    pub fn serve_with(&self, config: ServeConfig) -> Result<Server> {
        Server::from_checkpoint_with(self.checkpoint_root("Session::serve")?, config)
    }

    /// Like [`Session::serve_with`], but additionally spawns a
    /// [`CheckpointWatcher`] that polls this session's checkpoint directory
    /// every `poll` interval and hot-swaps each newly published
    /// `epoch-NNNNNN/` version into the returned server ([`Server::reload`]
    /// semantics: in-flight queries finish on the snapshot they pinned). Use
    /// this for continuous train→checkpoint→reload→serve loops; see the
    /// crate-level "Continuous training" example.
    pub fn serve_watching(
        &self,
        config: ServeConfig,
        poll: std::time::Duration,
    ) -> Result<(Arc<Server>, CheckpointWatcher)> {
        let server = Arc::new(self.serve_with(config)?);
        let watcher = server.watch_checkpoints(poll);
        Ok((server, watcher))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_graph::datasets::DatasetSpec;

    fn tiny_lp() -> ScaledDataset {
        ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.01), 5)
    }

    fn quick_train() -> TrainConfig {
        let mut train = TrainConfig::quick(2, 5);
        train.batch_size = 128;
        train.num_negatives = 16;
        train.eval_negatives = 32;
        train
    }

    fn expect_err<T>(result: Result<T>) -> StorageError {
        match result {
            Err(e) => e,
            Ok(_) => panic!("expected the session builder to reject the configuration"),
        }
    }

    #[test]
    fn builder_requires_dataset_and_model() {
        let err = expect_err(Session::builder().build());
        assert!(format!("{err}").contains("dataset"));
        let err = expect_err(Session::builder().dataset(tiny_lp()).build());
        assert!(format!("{err}").contains("model"));
    }

    #[test]
    fn builder_rejects_mismatched_policy_up_front() {
        let err = expect_err(
            Session::builder()
                .dataset(tiny_lp())
                .model(ModelConfig::paper_distmult(8))
                .storage(Storage::Disk(DiskConfig::node_cache(8, 4)))
                .build(),
        );
        assert!(format!("{err}").contains("node classification"));
    }

    #[test]
    fn in_memory_session_trains_and_evaluates() {
        let mut session = Session::builder()
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(quick_train())
            .build()
            .unwrap();
        let report = session.train().unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(session.metric_name(), "MRR");
        assert_eq!(session.evaluate().unwrap(), report.final_metric());
        assert!(session.last_report().is_some());
    }

    #[test]
    fn evaluate_triggers_training_when_needed() {
        let mut session = Session::builder()
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(quick_train())
            .build()
            .unwrap();
        let metric = session.evaluate().unwrap();
        assert!(metric > 0.0);
        assert_eq!(session.last_report().unwrap().epochs.len(), 2);
    }

    #[test]
    fn node_classification_session_via_task_switch() {
        let spec = DatasetSpec::ogbn_arxiv().scaled(0.006);
        let data = ScaledDataset::generate(&spec, 8);
        let mut model = ModelConfig::paper_node_classification(spec.feat_dim, 12);
        model.num_layers = 1;
        model.fanouts = vec![5];
        let mut train = TrainConfig::quick(1, 8);
        train.batch_size = 128;
        let mut session = Session::builder()
            .task(NodeClassificationTask)
            .dataset(data)
            .model(model)
            .train(train)
            .storage(Storage::Disk(DiskConfig::node_cache(8, 6)))
            .build()
            .unwrap();
        let report = session.train().unwrap();
        assert_eq!(session.metric_name(), "accuracy");
        assert!(report.final_metric() > 0.0);
    }

    fn temp_ckpt_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "marius-session-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_and_epoch_hooks_fire() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let dir = temp_ckpt_dir("ckpt");
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let mut session = Session::builder()
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(quick_train())
            .on_epoch(move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
            })
            .checkpoint_to(&dir, 1)
            .build()
            .unwrap();
        session.train().unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // A full versioned checkpoint: LATEST pointer, manifest, state blobs,
        // human-readable progress.
        let latest = std::fs::read_to_string(dir.join("LATEST")).unwrap();
        assert_eq!(latest, "epoch-000002");
        let version = dir.join(latest);
        assert!(version.join("manifest.json").exists());
        assert!(version.join("state.bin").exists());
        let progress = std::fs::read_to_string(version.join("progress.json")).unwrap();
        assert_eq!(progress.matches("\"epoch\":").count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_flushes_the_final_epoch_off_cadence() {
        let dir = temp_ckpt_dir("ckpt-tail");
        let mut train = quick_train();
        train.epochs = 3; // not a multiple of the cadence below
        let mut session = Session::builder()
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(train)
            .checkpoint_to(&dir, 2)
            .build()
            .unwrap();
        session.train().unwrap();
        // Cadence hits at epoch 2, and the off-cadence final epoch flushes too.
        assert_eq!(
            std::fs::read_to_string(dir.join("LATEST")).unwrap(),
            "epoch-000003"
        );
        let ckpt = Checkpoint::open(&dir).unwrap();
        assert_eq!(ckpt.epochs_completed, 3);
        assert_eq!(ckpt.prior_epochs.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_rejects_task_mismatch_and_missing_roots() {
        let dir = temp_ckpt_dir("ckpt-mismatch");
        let err = expect_err(Session::<LinkPredictionTask>::resume_from(&dir));
        assert!(format!("{err}").contains("no checkpoint"), "{err}");
        let mut session = Session::builder()
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(quick_train())
            .checkpoint_to(&dir, 1)
            .build()
            .unwrap();
        session.train().unwrap();
        let err = expect_err(Session::<NodeClassificationTask>::resume_from(&dir));
        assert!(format!("{err}").contains("task"), "{err}");
        // Shrinking the epoch target below completed progress is rejected.
        let err = expect_err(Session::<LinkPredictionTask>::resume_from_until(&dir, 1));
        assert!(format!("{err}").contains("already completed"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rebuilds_the_session_under_the_same_io_env() {
        let dir = temp_ckpt_dir("ckpt-env");
        // A quiet injector armed from the epoch hook: an outage longer than
        // the retry budget forces a failure once a checkpoint exists.
        let injector = IoFaultPlan::quiet(0).build();
        let hook_injector = Arc::clone(&injector);
        let telemetry = Telemetry::enabled();
        let mut train = quick_train();
        train.epochs = 4;
        let mut session = Session::builder()
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(train)
            .storage(Storage::Disk(DiskConfig::comet(4, 2)))
            .fault_injector(Arc::clone(&injector))
            .telemetry(&telemetry)
            .checkpoint_to(&dir, 1)
            .on_epoch(move |epoch| {
                if epoch.epoch == 1 {
                    hook_injector.arm_outage(10, 24);
                }
            })
            .build()
            .unwrap();
        assert!(session.trainer().resumed_from().is_none());
        let report = session.train_with_recovery(8).unwrap();
        assert!(
            report.epochs[3].recoveries > 0,
            "the outage forced no restart"
        );
        // The session is now the one rebuilt from the manifest, under the
        // failed one's environment: the same injector (not a copy), the
        // default retry policy, the live recorder.
        let trainer = session.trainer();
        assert!(trainer.resumed_from().is_some(), "not rebuilt");
        let env = trainer.io_env();
        assert!(Arc::ptr_eq(env.faults.as_ref().unwrap(), &injector));
        assert_eq!(env.retry, RetryPolicy::default_transient());
        assert!(env.telemetry.is_enabled());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_staging_store_opens_under_the_sessions_io_env() {
        use rand::{rngs::StdRng, SeedableRng};
        let injector = IoFaultPlan::flaky(7).build();
        let disk = DiskConfig::comet(4, 2);
        let session = Session::builder()
            .task(TemporalLinkPredictionTask)
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(quick_train())
            .storage(Storage::Disk(disk.clone()))
            .fault_injector(Arc::clone(&injector))
            .build()
            .unwrap();
        let data = session.dataset();
        let stream = EdgeStream::new(3, data.num_nodes(), data.spec.num_relations, 8);
        let ingestor = session.make_ingestor(stream).unwrap();
        // The buckets being grown live in a store of their own with no
        // injector, so every fault counted below hit a staging write.
        let store = PartitionStore::open_temp("staging-env-buckets").unwrap();
        store.clear().unwrap();
        let mut setup = TemporalLinkPredictionTask
            .disk_setup(
                &ModelConfig::paper_distmult(8),
                data,
                &disk,
                store,
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap();
        assert_eq!(injector.faults_injected(), 0);
        let ingested = ingestor.ingest(&mut setup, 48).unwrap();
        assert_eq!(ingested, 48 * 8);
        assert!(
            injector.faults_injected() > 0,
            "48 staging writes under an 8 % plan saw no fault: the staging \
             store is not attached to the session's injector"
        );
        let _ = setup.store.clear();
    }

    #[test]
    fn failing_epoch_hook_aborts_training_with_its_error() {
        let mut session = Session::builder()
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(quick_train())
            .on_epoch_fallible(|epoch| {
                if epoch.epoch == 0 {
                    Err(StorageError::InvalidPlan {
                        reason: "hook said stop".into(),
                    })
                } else {
                    Ok(())
                }
            })
            .build()
            .unwrap();
        let err = session.train().unwrap_err();
        assert!(format!("{err}").contains("hook said stop"), "{err}");
    }

    #[test]
    fn resumed_session_reproduces_the_uninterrupted_trajectory() {
        let dir = temp_ckpt_dir("ckpt-resume");
        let mut full_train = quick_train();
        full_train.epochs = 4;
        let mut full = Session::builder()
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(full_train)
            .build()
            .unwrap();
        let full_report = full.train().unwrap();

        let mut half = Session::builder()
            .dataset(tiny_lp())
            .model(ModelConfig::paper_distmult(8))
            .train(quick_train()) // 2 epochs
            .checkpoint_to(&dir, 1)
            .build()
            .unwrap();
        half.train().unwrap();
        let mut resumed: Session<LinkPredictionTask> = Session::resume_from_until(&dir, 4).unwrap();
        assert_eq!(resumed.dataset().spec, full.dataset().spec);
        let resumed_report = resumed.train().unwrap();
        assert_eq!(resumed_report.epochs.len(), 4);
        for (a, b) in full_report.epochs.iter().zip(&resumed_report.epochs) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {}", a.epoch);
            assert_eq!(a.metric.to_bits(), b.metric.to_bits(), "epoch {}", a.epoch);
            assert_eq!(a.examples, b.examples, "epoch {}", a.epoch);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! End-to-end out-of-core GNN training (the MariusGNN system proper).
//!
//! This crate ties the substrates together into the pipeline of Figure 2,
//! organised around a task-generic training engine:
//!
//! * [`config`] — model and training configuration (encoder kind, fanouts,
//!   batch sizes, negative counts, disk policy selection) and
//!   [`config::RunConfig`], the one persisted description of a run that the
//!   trainer, the session builder and a checkpoint manifest all share.
//! * [`source::RepresentationSource`] — the abstraction over where base
//!   representations live: an in-memory [`marius_gnn::EmbeddingTable`], a fixed
//!   feature matrix, or the out-of-core [`marius_storage::PartitionBuffer`].
//! * [`models`] — the trainable models: a GNN encoder plus DistMult decoder for
//!   link prediction and a GNN encoder plus softmax head for node
//!   classification, each split into a `prepare` (CPU batch construction) and
//!   `train_prepared` (compute) half so batches can be built on worker threads.
//! * [`task`] — the [`task::Task`] trait capturing everything task-specific:
//!   example enumeration, batch preparation, disk layout, and evaluation.
//!   [`task::LinkPredictionTask`], [`task::NodeClassificationTask`] and
//!   [`task::TemporalLinkPredictionTask`] are the built-in workloads.
//! * [`trainer`] — the single generic [`trainer::Trainer`]`<T: Task>` that owns
//!   the in-memory and disk epoch executors once for every task, including
//!   the partition-buffer walk over a replacement policy's epoch plan,
//!   per-phase timing (sampling / compute / IO), eval-cadence control,
//!   per-epoch hooks, and evaluation. Disk-based epochs run on
//!   [`marius_pipeline::run_epoch`], in order or with prefetch / batch
//!   construction / compute overlapped on stage threads, as
//!   [`config::PipelineConfig`] selects; the two schedules are bit-identical
//!   under a fixed seed.
//! * [`report`] — experiment reporting structures (with JSON export) shared by
//!   the examples and the benchmark harnesses that regenerate the paper's
//!   tables.
//! * [`checkpoint`] — the durable-state contract: [`checkpoint::StateDict`]
//!   blobs behind the [`checkpoint::Persist`] trait, and the versioned
//!   temp-dir + rename checkpoint layout that lets a resumed run reproduce the
//!   uninterrupted run's loss trajectory bit-for-bit (see that module's docs
//!   for the on-disk format).
//!
//! Downstream users who just want to train something should start from the
//! `marius::Session` builder in the workspace root crate, which wraps this
//! engine behind a single entry point.

pub mod checkpoint;
pub mod config;
pub mod models;
pub mod report;
pub mod source;
pub mod task;
pub mod trainer;

pub use checkpoint::{Checkpoint, Persist, StateDict, StreamState};
pub use config::{
    DiskConfig, EncoderKind, ModelConfig, PipelineConfig, PolicyKind, RunConfig, Storage,
    TrainConfig,
};
pub use models::{
    LinkBatchBuilder, LinkPredictionModel, NodeBatchBuilder, NodeClassificationModel,
    PreparedLinkBatch, PreparedNodeBatch,
};
pub use report::{EpochReport, ExperimentReport};
pub use source::{FixedFeatureSource, RepresentationSource, TableSource};
pub use task::{
    link_prediction_plan, DiskSetup, LinkPredictionTask, NodeClassificationTask, Task,
    TemporalLinkPredictionTask,
};
pub use trainer::{read_all_embeddings, EpochHook, IngestHook, Trainer};

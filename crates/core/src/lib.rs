//! End-to-end out-of-core GNN training (the MariusGNN system proper).
//!
//! This crate ties the substrates together into the pipeline of Figure 2,
//! organised around a task-generic training engine:
//!
//! * [`ModelConfig`], [`TrainConfig`] and [`DiskConfig`] — model and training
//!   configuration (encoder kind, fanouts, batch sizes, negative counts, disk
//!   policy selection) — and [`RunConfig`], the one persisted description of a run that the
//!   trainer, the session builder and a checkpoint manifest all share.
//! * [`RepresentationSource`] — the abstraction over where base
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
//! * [`Trainer`]`<T: Task>` — the single generic trainer that owns
//!   the in-memory and disk epoch executors once for every task, including
//!   the partition-buffer walk over a replacement policy's epoch plan,
//!   per-phase timing (sampling / compute / IO), eval-cadence control,
//!   per-epoch hooks, and evaluation. Disk-based epochs run on
//!   [`marius_storage::pipeline::run_epoch`], in order or with prefetch / batch
//!   construction / compute overlapped on stage threads, as
//!   [`PipelineConfig`] selects; the two schedules are bit-identical
//!   under a fixed seed.
//! * [`EpochReport`] / [`ExperimentReport`] — experiment reporting (with JSON
//!   export) shared by the examples and the benchmark harnesses that
//!   regenerate the paper's tables.
//! * [`checkpoint`] — the durable-state contract: [`checkpoint::StateDict`]
//!   blobs behind the [`checkpoint::Persist`] trait, and the versioned
//!   temp-dir + rename checkpoint layout that lets a resumed run reproduce the
//!   uninterrupted run's loss trajectory bit-for-bit (see that module's docs
//!   for the on-disk format).
//! * [`stream`] — streaming edge ingest: seeded edge streams, crash-atomic
//!   delta staging, and application at disk-epoch boundaries.
//!
//! Downstream users who just want to train something should start from the
//! `marius::Session` builder in the workspace root crate, which wraps this
//! engine behind a single entry point.

#![deny(unreachable_pub, missing_docs)]

pub mod checkpoint;
mod config;
pub mod models;
mod report;
mod source;
pub mod stream;
pub mod task;
mod trainer;

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
pub use trainer::{read_all_embeddings, EpochHook, Trainer};

//! The [`Task`] abstraction: everything that differs between training
//! workloads, captured behind one trait.
//!
//! The paper's Figure 2 describes a single processing pipeline that serves
//! both of its workloads (link prediction and node classification). This
//! module is that boundary in code: the generic
//! [`Trainer`](crate::trainer::Trainer) owns the in-memory and disk epoch
//! executors exactly once, and delegates every
//! task-specific decision — what a training example is, how a mini batch is
//! constructed and applied, how storage is laid out on disk, and how the
//! model is evaluated — to a [`Task`] implementation.
//!
//! Two implementations are provided:
//!
//! * Link prediction, one implementation for both of its edge splits —
//!   examples are edges, batches carry shared negatives, storage uses random
//!   partitioning with the COMET/BETA replacement policies, and evaluation
//!   ranks held-out edges by MRR. The split decides which edges train and
//!   what evaluation ranks: [`LinkPredictionTask`] uses the dataset's strided
//!   random split, [`TemporalLinkPredictionTask`] chronological windows
//!   (generation order is time order) with time-split negative sampling —
//!   the workload the streaming ingest path fine-tunes.
//! * [`NodeClassificationTask`] — examples are labeled nodes, storage packs
//!   the training nodes into leading partitions cached for the whole epoch
//!   (§5.2), and evaluation measures test-set accuracy.
//!
//! Implementations must preserve the trainer's RNG discipline: any method
//! that receives an RNG draws from it in a deterministic order (or not at
//! all), so that the in-order and threaded disk schedules remain
//! bit-identical under a fixed seed.

mod link_prediction;
mod node_classification;
mod temporal_link_prediction;

pub(crate) use link_prediction::EdgeSplit;
pub use link_prediction::{link_prediction_plan, LinkEvalContext, LinkPredictionTask};
pub use node_classification::{NodeClassificationTask, NodeEvalContext};
pub use temporal_link_prediction::TemporalLinkPredictionTask;

use crate::checkpoint::Persist;
use crate::config::{DiskConfig, ModelConfig, TrainConfig};
use crate::models::BatchStats;
use crate::source::RepresentationSource;
use marius_graph::datasets::ScaledDataset;
use marius_graph::{InMemorySubgraph, NodeId};
use marius_storage::pipeline::StepContext;
use marius_storage::{EpochPlan, PartitionBuffer, PartitionStore, Result, StorageError};
use rand::rngs::StdRng;

/// Converts a graph-layer failure into the storage error the trainers
/// propagate.
pub(crate) fn graph_err(e: marius_graph::GraphError) -> StorageError {
    StorageError::InvalidPlan {
        reason: format!("graph construction failed: {e}"),
    }
}

/// Everything a disk-based training run needs, assembled once by
/// [`Task::disk_setup`] and threaded through the epoch executors.
///
/// The buffer is the one record of the run's partition assignment
/// ([`PartitionBuffer::assignment`]), its store ([`PartitionBuffer::store`])
/// and whether its embeddings are learnt and written back
/// ([`PartitionBuffer::learnable`]). The store's bucket files are the one
/// record of its edges: each step trains on the buckets its context reads.
pub struct DiskSetup {
    /// The bounded in-memory partition buffer (initialised and ready).
    pub buffer: PartitionBuffer,
    /// Number of leading partitions that hold training nodes (the `k` of the
    /// §5.2 caching policy; 0 for tasks that do not cache).
    pub cached_partitions: u32,
}

/// A training workload: the task-specific half of the Figure 2 pipeline.
///
/// The generic [`Trainer`](crate::trainer::Trainer) drives implementations of
/// this trait through three phases — model/source construction, epoch
/// execution (batch preparation on worker threads plus compute on the
/// consumer thread), and evaluation. See the module docs for the contract on
/// RNG usage.
pub trait Task: Sync {
    /// One training example: an edge for link prediction, a labeled node for
    /// node classification.
    type Example: Clone + Send;
    /// The trainable model (encoder plus task head/decoder). Its durable
    /// state (parameters *and* optimizer accumulators) is what `Trainer<T>`
    /// checkpoints for every task through one generic code path (see
    /// [`crate::checkpoint`] for the on-disk format): a checkpoint from a
    /// different architecture fails to load loudly, never partially.
    type Model: Persist;
    /// The CPU-side batch constructor; shared by reference across the
    /// pipelined runtime's sampling workers.
    type BatchBuilder: Send + Sync;
    /// A fully constructed batch, ready for the compute stage. Crosses the
    /// worker → consumer queue in the pipelined runtime.
    type PreparedBatch: Send;
    /// Precomputed evaluation inputs (graph structure, labels, candidates).
    type EvalContext;

    /// Short machine-friendly tag used in store labels ("lp", "nc").
    fn slug(&self) -> &'static str;

    /// Human-readable name of the task metric ("MRR", "accuracy").
    fn metric_name(&self) -> &'static str;

    /// Builds the trainable model. Validates that `data` carries what the
    /// task needs (e.g. labels and a class count for classification).
    fn build_model(
        &self,
        model: &ModelConfig,
        train: &TrainConfig,
        data: &ScaledDataset,
        rng: &mut StdRng,
    ) -> Result<Self::Model>;

    /// A clone of the model's batch builder for use on sampling worker
    /// threads.
    fn batch_builder(&self, model: &Self::Model) -> Self::BatchBuilder;

    /// The base-representation source for in-memory training (a learnable
    /// embedding table or a fixed feature matrix).
    fn in_memory_source(
        &self,
        model: &ModelConfig,
        data: &ScaledDataset,
        rng: &mut StdRng,
    ) -> Result<Box<dyn RepresentationSource>>;

    /// The full in-memory training graph.
    fn in_memory_subgraph(&self, data: &ScaledDataset) -> InMemorySubgraph;

    /// All training examples for one in-memory epoch (shuffled per epoch by
    /// the trainer).
    fn in_memory_examples(&self, data: &ScaledDataset) -> Vec<Self::Example>;

    /// Negative-sampling candidates for in-memory training (empty for tasks
    /// without negative sampling).
    fn in_memory_candidates(&self, data: &ScaledDataset) -> Vec<NodeId>;

    /// Builds one prepared batch: the CPU-side half of a training step
    /// (negative sampling, label alignment, DENSE multi-hop sampling). Runs
    /// on the calling thread in memory and on the in-order disk schedule, and
    /// on sampling workers on the threaded one.
    fn prepare(
        &self,
        builder: &Self::BatchBuilder,
        data: &ScaledDataset,
        subgraph: &InMemorySubgraph,
        batch: &[Self::Example],
        candidates: &[NodeId],
        rng: &mut StdRng,
    ) -> Self::PreparedBatch;

    /// Applies one prepared batch to the model: forward/backward compute,
    /// parameter updates and the sparse write-back of representation
    /// gradients.
    fn train_prepared(
        &self,
        model: &mut Self::Model,
        source: &mut dyn RepresentationSource,
        prepared: Self::PreparedBatch,
    ) -> BatchStats;

    /// The report label for a disk-based run, or an error if the disk
    /// configuration's policy does not apply to this task.
    fn disk_label(&self, disk: &DiskConfig) -> Result<String>;

    /// Partitions the graph, materialises the on-disk layout in `store` (the
    /// partitions and the edge bucket files, which are not kept in memory),
    /// and returns the initialised [`DiskSetup`].
    fn disk_setup(
        &self,
        model: &ModelConfig,
        data: &ScaledDataset,
        disk: &DiskConfig,
        store: PartitionStore,
        rng: &mut StdRng,
    ) -> Result<DiskSetup>;

    /// Produces this epoch's partition-set walk from the task's replacement
    /// policy.
    fn epoch_plan(
        &self,
        disk: &DiskConfig,
        setup: &DiskSetup,
        rng: &mut StdRng,
    ) -> Result<EpochPlan>;

    /// The training examples of the plan step `ctx` was read for
    /// (unshuffled; the executors shuffle with the step RNG), taken from the
    /// step's context: its training edges or the dataset's labelled nodes.
    /// May be empty for steps that only stage partitions into the buffer.
    fn step_examples(
        &self,
        data: &ScaledDataset,
        plan: &EpochPlan,
        ctx: &StepContext,
    ) -> Vec<Self::Example>;

    /// The number of examples [`Task::step_examples`] will return for plan
    /// step `step`, from the bucket files' lengths in `store` rather than
    /// their contents (used to pre-compute per-step batch budgets).
    fn step_example_count(
        &self,
        data: &ScaledDataset,
        store: &PartitionStore,
        plan: &EpochPlan,
        step: usize,
    ) -> Result<usize>;

    /// The representation source used to evaluate a disk-based run (for
    /// learnable embeddings this reassembles the full table from disk). The
    /// trainer calls this once per evaluated epoch for learnable buffers and
    /// caches the result otherwise (fixed representations never change).
    fn disk_eval_source(
        &self,
        model: &ModelConfig,
        data: &ScaledDataset,
        setup: &DiskSetup,
    ) -> Result<Box<dyn RepresentationSource>>;

    /// Precomputes the evaluation inputs (full-graph structure, test labels,
    /// ranking candidates). In-memory training passes its training graph as
    /// `train_subgraph`: a task that evaluates over that graph shares it
    /// instead of rebuilding it. Must not draw from any RNG.
    fn eval_context(
        &self,
        data: &ScaledDataset,
        train_subgraph: Option<&std::sync::Arc<InMemorySubgraph>>,
    ) -> Self::EvalContext;

    /// Computes the task metric over the held-out split.
    fn evaluate(
        &self,
        model: &Self::Model,
        source: &dyn RepresentationSource,
        ctx: &Self::EvalContext,
        data: &ScaledDataset,
        train: &TrainConfig,
        rng: &mut StdRng,
    ) -> f64;
}

//! Link prediction as a [`Task`]: edge examples, shared negatives, DistMult
//! scoring, COMET/BETA disk policies, MRR evaluation.
//!
//! The link-prediction workloads differ only in how they split the edge list
//! — which edges train, and which edges and candidates evaluation ranks. That
//! difference is an [`EdgeSplit`]; every split gets the one [`Task`]
//! implementation below.

use super::{graph_err, DiskSetup, Task};
use crate::config::{DiskConfig, ModelConfig, PolicyKind, TrainConfig};
use crate::models::{BatchStats, LinkBatchBuilder, LinkPredictionModel, PreparedLinkBatch};
use crate::source::{RepresentationSource, TableSource};
use crate::trainer::read_all_embeddings;
use marius_gnn::EmbeddingTable;
use marius_graph::datasets::ScaledDataset;
use marius_graph::{Edge, InMemorySubgraph, NodeId, Partitioner};
use marius_storage::pipeline::StepContext;
use marius_storage::policy::ReplacementPolicy;
use marius_storage::{
    BetaPolicy, CometPolicy, EpochPlan, PartitionBuffer, PartitionStore, Result, StorageError,
};
use rand::rngs::StdRng;
use std::borrow::Cow;
use std::sync::Arc;

/// How a link-prediction workload splits its edge list. Implementors are the
/// task values themselves ([`LinkPredictionTask`],
/// [`super::TemporalLinkPredictionTask`]); each gets the link-prediction
/// [`Task`] implementation.
pub(crate) trait EdgeSplit: Sync {
    /// Tag in store labels and checkpoint manifests ("lp", "tlp").
    const SLUG: &'static str;
    /// System name in a disk run's report label ("M-GNN_Disk").
    const DISK_SYSTEM: &'static str;

    /// The training edges, in the order in-memory epochs see them and
    /// disk set-up writes them into the bucket files (streamed ingest then
    /// appends to those files only).
    fn train_edges(data: &ScaledDataset) -> Cow<'_, [Edge]>;

    /// The evaluation inputs. `train_subgraph` is an in-memory run's
    /// training graph, for splits that evaluate over it; `None` builds
    /// what evaluation needs from `data`. Must not draw from any RNG.
    fn eval_inputs(
        data: &ScaledDataset,
        train_subgraph: Option<&Arc<InMemorySubgraph>>,
    ) -> LinkEvalContext;
}

/// The link-prediction workload (M-GNN's knowledge-graph configuration):
/// training examples are positive edges, every mini batch shares a pool of
/// sampled negatives, and disk-based training walks a COMET or BETA epoch
/// plan over randomly partitioned embeddings. Trains on the dataset's strided
/// random split and ranks its test edges against every node.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkPredictionTask;

/// Precomputed evaluation inputs for link prediction: the graph the encoder
/// samples, the ranking candidates, and the held-out edges.
pub struct LinkEvalContext {
    pub(super) subgraph: Arc<InMemorySubgraph>,
    pub(super) candidates: Vec<NodeId>,
    pub(super) test: Vec<Edge>,
}

impl EdgeSplit for LinkPredictionTask {
    const SLUG: &'static str = "lp";
    const DISK_SYSTEM: &'static str = "M-GNN_Disk";

    fn train_edges(data: &ScaledDataset) -> Cow<'_, [Edge]> {
        Cow::Borrowed(&data.train_edges)
    }

    fn eval_inputs(
        data: &ScaledDataset,
        train_subgraph: Option<&Arc<InMemorySubgraph>>,
    ) -> LinkEvalContext {
        // MRR ranks over the train-edge subgraph; an in-memory run already
        // holds it.
        let subgraph = match train_subgraph {
            Some(subgraph) => Arc::clone(subgraph),
            None => Arc::new(InMemorySubgraph::from_edges(&data.train_edges)),
        };
        LinkEvalContext {
            subgraph,
            candidates: (0..data.num_nodes()).collect(),
            test: data.test_edges.clone(),
        }
    }
}

fn policy_error() -> StorageError {
    StorageError::InvalidPlan {
        reason: "node-cache policy applies to node classification only".into(),
    }
}

/// The epoch plan `disk`'s replacement policy draws from `rng` for link
/// prediction: COMET (with `l` auto-tuned when `num_logical` is 0) or BETA;
/// the node-cache policy belongs to node classification and is rejected.
/// Training plans every disk epoch with it, and the serving layer replays it
/// to rank partitions for cache admission.
pub fn link_prediction_plan(disk: &DiskConfig, rng: &mut StdRng) -> Result<EpochPlan> {
    let p = disk.num_partitions;
    match disk.policy {
        PolicyKind::Comet => {
            let policy = if disk.num_logical == 0 {
                CometPolicy::auto(p, disk.buffer_capacity)
            } else {
                CometPolicy::new(disk.buffer_capacity, disk.num_logical)
            };
            policy.plan(p, rng)
        }
        PolicyKind::Beta => BetaPolicy::new(disk.buffer_capacity).plan(p, rng),
        PolicyKind::NodeCache => Err(policy_error()),
    }
}

impl<S: EdgeSplit> Task for S {
    type Example = Edge;
    type Model = LinkPredictionModel;
    type BatchBuilder = LinkBatchBuilder;
    type PreparedBatch = PreparedLinkBatch;
    type EvalContext = LinkEvalContext;

    fn slug(&self) -> &'static str {
        S::SLUG
    }

    fn metric_name(&self) -> &'static str {
        "MRR"
    }

    fn build_model(
        &self,
        model: &ModelConfig,
        train: &TrainConfig,
        data: &ScaledDataset,
        rng: &mut StdRng,
    ) -> Result<Self::Model> {
        Ok(
            LinkPredictionModel::new(model, data.spec.num_relations, rng)
                .with_negatives(train.num_negatives),
        )
    }

    fn batch_builder(&self, model: &Self::Model) -> Self::BatchBuilder {
        model.batch_builder()
    }

    fn in_memory_source(
        &self,
        model: &ModelConfig,
        data: &ScaledDataset,
        rng: &mut StdRng,
    ) -> Result<Box<dyn RepresentationSource>> {
        let table = EmbeddingTable::new(data.num_nodes() as usize, model.input_dim, 0.1, rng)
            .with_learning_rate(model.embedding_learning_rate);
        Ok(Box::new(TableSource::new(table)))
    }

    fn in_memory_subgraph(&self, data: &ScaledDataset) -> InMemorySubgraph {
        InMemorySubgraph::from_edges(&S::train_edges(data))
    }

    fn in_memory_examples(&self, data: &ScaledDataset) -> Vec<Edge> {
        S::train_edges(data).into_owned()
    }

    fn in_memory_candidates(&self, data: &ScaledDataset) -> Vec<NodeId> {
        (0..data.num_nodes()).collect()
    }

    fn prepare(
        &self,
        builder: &Self::BatchBuilder,
        _data: &ScaledDataset,
        subgraph: &InMemorySubgraph,
        batch: &[Edge],
        candidates: &[NodeId],
        rng: &mut StdRng,
    ) -> Self::PreparedBatch {
        builder.prepare(subgraph, batch, candidates, rng)
    }

    fn train_prepared(
        &self,
        model: &mut Self::Model,
        source: &mut dyn RepresentationSource,
        prepared: Self::PreparedBatch,
    ) -> BatchStats {
        model.train_prepared(source, prepared)
    }

    fn disk_label(&self, disk: &DiskConfig) -> Result<String> {
        match disk.policy {
            PolicyKind::Comet => Ok(format!("{} (COMET)", S::DISK_SYSTEM)),
            PolicyKind::Beta => Ok(format!("{} (BETA)", S::DISK_SYSTEM)),
            PolicyKind::NodeCache => Err(policy_error()),
        }
    }

    fn disk_setup(
        &self,
        model: &ModelConfig,
        data: &ScaledDataset,
        disk: &DiskConfig,
        store: PartitionStore,
        rng: &mut StdRng,
    ) -> Result<DiskSetup> {
        let partitioner = Partitioner::new(disk.num_partitions).map_err(graph_err)?;
        let assignment = partitioner.random(data.num_nodes(), rng);
        // Resuming a streamed run passes the *grown* edge list here; a split
        // whose train set is the base train set with the streamed suffix
        // appended makes build_buckets reproduce the bucket contents an
        // uninterrupted run reached by incremental delta application (both
        // append in time order).
        let train_graph = marius_graph::EdgeList::from_edges(
            data.num_nodes(),
            data.spec.num_relations,
            S::train_edges(data).into_owned(),
        )
        .map_err(graph_err)?;
        let buckets = partitioner
            .build_buckets(&train_graph, &assignment)
            .map_err(graph_err)?;
        let buffer = PartitionBuffer::new(
            store,
            assignment,
            model.input_dim,
            disk.buffer_capacity,
            true,
        )
        .with_learning_rate(model.embedding_learning_rate);
        buffer.initialize_random(0.1, rng)?;
        buffer.initialize_buckets(&buckets)?;
        Ok(DiskSetup {
            buffer,
            cached_partitions: 0,
        })
    }

    fn epoch_plan(
        &self,
        disk: &DiskConfig,
        _setup: &DiskSetup,
        rng: &mut StdRng,
    ) -> Result<EpochPlan> {
        link_prediction_plan(disk, rng)
    }

    fn step_examples(
        &self,
        _data: &ScaledDataset,
        _plan: &EpochPlan,
        ctx: &StepContext,
    ) -> Vec<Edge> {
        ctx.edges.clone()
    }

    fn step_example_count(
        &self,
        _data: &ScaledDataset,
        store: &PartitionStore,
        plan: &EpochPlan,
        step: usize,
    ) -> Result<usize> {
        plan.bucket_assignment[step]
            .iter()
            .map(|&(i, j)| store.bucket_len(i, j))
            .sum()
    }

    fn disk_eval_source(
        &self,
        model: &ModelConfig,
        _data: &ScaledDataset,
        setup: &DiskSetup,
    ) -> Result<Box<dyn RepresentationSource>> {
        let buffer = &setup.buffer;
        let flat = read_all_embeddings(buffer.store(), buffer.assignment(), model.input_dim)?;
        Ok(Box::new(TableSource::new(EmbeddingTable::from_rows(
            flat,
            model.input_dim,
        ))))
    }

    fn eval_context(
        &self,
        data: &ScaledDataset,
        train_subgraph: Option<&Arc<InMemorySubgraph>>,
    ) -> Self::EvalContext {
        S::eval_inputs(data, train_subgraph)
    }

    fn evaluate(
        &self,
        model: &Self::Model,
        source: &dyn RepresentationSource,
        ctx: &Self::EvalContext,
        _data: &ScaledDataset,
        train: &TrainConfig,
        rng: &mut StdRng,
    ) -> f64 {
        model.evaluate_mrr(
            source,
            &ctx.subgraph,
            &ctx.test,
            &ctx.candidates,
            train.eval_negatives,
            rng,
        )
    }
}

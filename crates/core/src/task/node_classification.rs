//! Node classification as a [`Task`]: labeled-node examples, fixed input
//! features, the §5.2 training-node caching policy, accuracy evaluation.

use super::{graph_err, DiskSetup, Task};
use crate::config::{DiskConfig, ModelConfig, PolicyKind, TrainConfig};
use crate::models::{BatchStats, NodeBatchBuilder, NodeClassificationModel, PreparedNodeBatch};
use crate::source::{FixedFeatureSource, RepresentationSource};
use marius_graph::datasets::{FeatureMatrix, ScaledDataset};
use marius_graph::{InMemorySubgraph, NodeId, Partitioner};
use marius_storage::pipeline::StepContext;
use marius_storage::policy::ReplacementPolicy;
use marius_storage::{
    EpochPlan, NodeCachePolicy, PartitionBuffer, PartitionStore, Result, StorageError,
};
use rand::rngs::StdRng;
use std::sync::Arc;

/// The node-classification workload: training examples are labeled nodes,
/// input representations are fixed features, and disk-based training caches
/// the partitions holding the labeled training nodes in the buffer for the
/// whole epoch (the §5.2 policy).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeClassificationTask;

/// Precomputed evaluation inputs for node classification.
pub struct NodeEvalContext {
    subgraph: Arc<InMemorySubgraph>,
    test_labels: Vec<u32>,
}

fn labels_for(data: &ScaledDataset, nodes: &[NodeId]) -> Vec<u32> {
    let labels = data.labels.as_ref().expect("node classification labels");
    nodes.iter().map(|&n| labels[n as usize]).collect()
}

fn require_labels(data: &ScaledDataset) -> Result<()> {
    if data.labels.is_none() {
        return Err(StorageError::InvalidPlan {
            reason: "dataset has no node labels for node classification".into(),
        });
    }
    Ok(())
}

/// The fixed input features: the base representations in memory and on disk.
fn features(data: &ScaledDataset) -> Result<&FeatureMatrix> {
    data.features
        .as_ref()
        .ok_or_else(|| StorageError::InvalidPlan {
            reason: "dataset has no fixed feature matrix for node classification".into(),
        })
}

impl Task for NodeClassificationTask {
    type Example = NodeId;
    type Model = NodeClassificationModel;
    type BatchBuilder = NodeBatchBuilder;
    type PreparedBatch = PreparedNodeBatch;
    type EvalContext = NodeEvalContext;

    fn slug(&self) -> &'static str {
        "nc"
    }

    fn metric_name(&self) -> &'static str {
        "accuracy"
    }

    fn build_model(
        &self,
        model: &ModelConfig,
        _train: &TrainConfig,
        data: &ScaledDataset,
        rng: &mut StdRng,
    ) -> Result<Self::Model> {
        let num_classes = data
            .spec
            .num_classes
            .ok_or_else(|| StorageError::InvalidPlan {
                reason: "dataset has no class count; node classification needs a labeled dataset"
                    .into(),
            })?;
        require_labels(data)?;
        Ok(NodeClassificationModel::new(model, num_classes, rng))
    }

    fn batch_builder(&self, model: &Self::Model) -> Self::BatchBuilder {
        model.batch_builder()
    }

    fn in_memory_source(
        &self,
        _model: &ModelConfig,
        data: &ScaledDataset,
        _rng: &mut StdRng,
    ) -> Result<Box<dyn RepresentationSource>> {
        Ok(Box::new(FixedFeatureSource::new(features(data)?.clone())))
    }

    fn in_memory_subgraph(&self, data: &ScaledDataset) -> InMemorySubgraph {
        InMemorySubgraph::from_edges(data.graph.edges())
    }

    fn in_memory_examples(&self, data: &ScaledDataset) -> Vec<NodeId> {
        data.node_split.train.clone()
    }

    fn in_memory_candidates(&self, _data: &ScaledDataset) -> Vec<NodeId> {
        Vec::new()
    }

    fn prepare(
        &self,
        builder: &Self::BatchBuilder,
        data: &ScaledDataset,
        subgraph: &InMemorySubgraph,
        batch: &[NodeId],
        _candidates: &[NodeId],
        rng: &mut StdRng,
    ) -> Self::PreparedBatch {
        let batch_labels = labels_for(data, batch);
        builder.prepare(subgraph, batch, &batch_labels, rng)
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
        if disk.policy != PolicyKind::NodeCache {
            return Err(StorageError::InvalidPlan {
                reason: "node classification uses the training-node caching policy".into(),
            });
        }
        Ok("M-GNN_Disk".into())
    }

    fn disk_setup(
        &self,
        model: &ModelConfig,
        data: &ScaledDataset,
        disk: &DiskConfig,
        store: PartitionStore,
        rng: &mut StdRng,
    ) -> Result<DiskSetup> {
        let features = features(data)?;
        require_labels(data)?;

        // Partition with training nodes packed into the leading partitions.
        let partitioner = Partitioner::new(disk.num_partitions).map_err(graph_err)?;
        let (assignment, k) =
            partitioner.training_nodes_first(data.num_nodes(), &data.node_split.train, rng);
        let buckets = partitioner
            .build_buckets(&data.graph, &assignment)
            .map_err(graph_err)?;
        let buffer = PartitionBuffer::new(
            store,
            assignment,
            model.input_dim,
            disk.buffer_capacity,
            false,
        );
        buffer.initialize_from_features(features.data())?;
        buffer.initialize_buckets(&buckets)?;
        Ok(DiskSetup {
            buffer,
            cached_partitions: k,
        })
    }

    fn epoch_plan(
        &self,
        disk: &DiskConfig,
        setup: &DiskSetup,
        rng: &mut StdRng,
    ) -> Result<EpochPlan> {
        NodeCachePolicy::new(disk.buffer_capacity, setup.cached_partitions)
            .plan(disk.num_partitions, rng)
    }

    fn step_examples(
        &self,
        data: &ScaledDataset,
        plan: &EpochPlan,
        ctx: &StepContext,
    ) -> Vec<NodeId> {
        // Earlier steps only stage the cached working set into the buffer;
        // every training batch belongs to the plan's final step. The step's
        // training edges only feed its sampling subgraph.
        if ctx.step + 1 == plan.partition_sets.len() {
            data.node_split.train.clone()
        } else {
            Vec::new()
        }
    }

    fn step_example_count(
        &self,
        data: &ScaledDataset,
        _store: &PartitionStore,
        plan: &EpochPlan,
        step: usize,
    ) -> Result<usize> {
        Ok(if step + 1 == plan.partition_sets.len() {
            data.node_split.train.len()
        } else {
            0
        })
    }

    fn disk_eval_source(
        &self,
        _model: &ModelConfig,
        data: &ScaledDataset,
        _setup: &DiskSetup,
    ) -> Result<Box<dyn RepresentationSource>> {
        Ok(Box::new(FixedFeatureSource::new(features(data)?.clone())))
    }

    fn eval_context(
        &self,
        data: &ScaledDataset,
        train_subgraph: Option<&Arc<InMemorySubgraph>>,
    ) -> Self::EvalContext {
        // Accuracy is measured over the full graph; in-memory training
        // already holds it.
        let subgraph = match train_subgraph {
            Some(subgraph) => Arc::clone(subgraph),
            None => Arc::new(InMemorySubgraph::from_edges(data.graph.edges())),
        };
        NodeEvalContext {
            subgraph,
            test_labels: labels_for(data, &data.node_split.test),
        }
    }

    fn evaluate(
        &self,
        model: &Self::Model,
        source: &dyn RepresentationSource,
        ctx: &Self::EvalContext,
        data: &ScaledDataset,
        _train: &TrainConfig,
        rng: &mut StdRng,
    ) -> f64 {
        model.evaluate_accuracy(
            source,
            &ctx.subgraph,
            &data.node_split.test,
            &ctx.test_labels,
            rng,
        )
    }
}

//! Temporal link prediction: the link-prediction [`Task`](super::Task) over
//! chronological train/valid/test windows of the implicit generation-order
//! timestamps, with time-split negative sampling for evaluation.
//!
//! The workload is the link-prediction model stack (DistMult scoring,
//! shared-negative batches, COMET/BETA disk policies) with a different
//! [`EdgeSplit`]: [`marius_graph::temporal::chronological_split`] instead of
//! the strided random split. The evaluation windows are the newest edges of
//! the **base** dataset (the first `spec.num_edges` edges of `data.graph`),
//! and everything older — plus every edge streamed in after generation —
//! trains. Evaluation is *time-split*: ranking candidates are
//! [`marius_graph::temporal::observed_nodes`] over the base training window
//! only, so no node participates in evaluation unless it was observed
//! strictly before the held-out windows, and the evaluation subgraph is the
//! frozen base training window rather than the growing train set. Both are
//! precomputed once per run, which keeps evaluation bit-comparable across
//! ingest cycles and across resumed runs (see [`crate::stream`] for the ingest
//! half of the contract).

use super::{EdgeSplit, LinkEvalContext};
use marius_graph::datasets::ScaledDataset;
use marius_graph::temporal::{chronological_split, observed_nodes, ChronologicalSplit};
use marius_graph::{Edge, InMemorySubgraph};
use std::borrow::Cow;
use std::sync::Arc;

/// The temporal link-prediction workload: chronological splits with frozen
/// evaluation windows and time-split negative sampling. This is the task the
/// streaming ingest path fine-tunes — its training set may grow at epoch
/// boundaries while its evaluation stays pinned to the base dataset's newest
/// edges.
#[derive(Debug, Clone, Copy, Default)]
pub struct TemporalLinkPredictionTask;

impl TemporalLinkPredictionTask {
    /// The chronological split of `data`'s edge list, with evaluation
    /// windows frozen over the base prefix (`data.spec.num_edges` edges —
    /// the dataset as generated; any suffix beyond that was streamed in).
    pub fn split(data: &ScaledDataset) -> ChronologicalSplit {
        chronological_split(data.graph.edges(), data.spec.num_edges as usize)
    }
}

impl EdgeSplit for TemporalLinkPredictionTask {
    const SLUG: &'static str = "tlp";
    const DISK_SYSTEM: &'static str = "M-GNN_Stream";

    fn train_edges(data: &ScaledDataset) -> Cow<'_, [Edge]> {
        Cow::Owned(Self::split(data).train)
    }

    /// Never shares the training subgraph: the train set may include streamed
    /// edges newer than the held-out windows, while evaluation must see only
    /// the frozen base training window.
    fn eval_inputs(
        data: &ScaledDataset,
        _train_subgraph: Option<&Arc<InMemorySubgraph>>,
    ) -> LinkEvalContext {
        let base_len = data.spec.num_edges as usize;
        let base_train = chronological_split(&data.graph.edges()[..base_len], base_len).train;
        LinkEvalContext {
            candidates: observed_nodes(&base_train),
            subgraph: Arc::new(InMemorySubgraph::from_edges(&base_train)),
            test: Self::split(data).test,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use marius_graph::datasets::DatasetSpec;

    fn dataset() -> ScaledDataset {
        ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.015), 3)
    }

    #[test]
    fn eval_context_is_frozen_over_the_base_window() {
        let mut data = dataset();
        let task = TemporalLinkPredictionTask;
        let before = task.eval_context(&data, None);
        // Stream in edges between existing nodes; the eval inputs must not
        // move.
        for k in 0..50u64 {
            data.graph.push(Edge::new(k % 10, (k + 1) % 10)).unwrap();
        }
        let after = task.eval_context(&data, None);
        assert_eq!(before.test, after.test);
        assert_eq!(before.candidates, after.candidates);
        // The grown train set is the base train set plus the streamed suffix.
        let base_len = data.spec.num_edges as usize;
        let split = TemporalLinkPredictionTask::split(&data);
        assert_eq!(split.train.len(), base_len - 2 * split.valid.len() + 50);
    }

    #[test]
    fn candidates_are_restricted_to_observed_nodes() {
        let data = dataset();
        let ctx = TemporalLinkPredictionTask.eval_context(&data, None);
        assert!(!ctx.candidates.is_empty());
        assert!(ctx.candidates.len() <= data.num_nodes() as usize);
        assert!(ctx.candidates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn trains_in_memory_and_improves() {
        use crate::config::{ModelConfig, RunConfig, TrainConfig};
        use crate::trainer::Trainer;
        let data = dataset();
        let mut train = TrainConfig::quick(2, 9);
        train.batch_size = 128;
        train.num_negatives = 32;
        train.eval_negatives = 64;
        let config = RunConfig {
            model: ModelConfig::paper_distmult(12),
            train,
            ..RunConfig::default()
        };
        let trainer = Trainer::from_config(TemporalLinkPredictionTask, config, Default::default());
        let report = trainer.train(&data).unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert!(report.final_metric() > 0.1, "MRR {}", report.final_metric());
    }
}

//! Trainable models: encoder + decoder with full mini-batch train/eval steps.

use crate::checkpoint::{Persist, StateDict};
use crate::config::{EncoderKind, ModelConfig};
use crate::source::RepresentationSource;
use marius_gnn::layers::{Aggregator, GatLayer, GcnLayer, GraphSageLayer};
use marius_gnn::loss::{ranking_softmax_loss, softmax_cross_entropy};
use marius_gnn::{ClassifierHead, DistMult, Encoder, Optimizer, Param};
use marius_graph::{Edge, InMemorySubgraph, NodeId};
use marius_sampling::{MultiHopSampler, NegativeSampler, RankingProtocol};
use marius_tensor::segment::{index_add, index_select};
use marius_tensor::Tensor;
use rand::Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Statistics for one mini-batch step, aggregated into epoch reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Mini-batch loss.
    pub loss: f64,
    /// Number of training examples processed.
    pub examples: usize,
    /// Wall-clock time spent in CPU neighbourhood sampling.
    pub sample_time: Duration,
    /// Wall-clock time spent in forward/backward compute and updates.
    pub compute_time: Duration,
    /// Unique nodes in the mini-batch sample.
    pub nodes_sampled: usize,
    /// Sampled neighbour edges in the mini batch.
    pub edges_sampled: usize,
}

/// Builds the encoder stack described by a [`ModelConfig`].
pub fn build_encoder<R: Rng + ?Sized>(config: &ModelConfig, rng: &mut R) -> Encoder {
    let mut encoder = Encoder::new();
    for layer in 0..config.num_layers {
        let in_dim = if layer == 0 {
            config.input_dim
        } else {
            config.hidden_dim
        };
        let out_dim = if layer + 1 == config.num_layers {
            config.output_dim
        } else {
            config.hidden_dim
        };
        let is_last = layer + 1 == config.num_layers;
        let boxed: Box<dyn marius_gnn::GnnLayer> = match config.encoder {
            EncoderKind::GraphSage | EncoderKind::None => Box::new(GraphSageLayer::new(
                in_dim,
                out_dim,
                Aggregator::Mean,
                !is_last,
                rng,
            )),
            EncoderKind::Gat => Box::new(GatLayer::new(in_dim, out_dim, !is_last, rng)),
            EncoderKind::Gcn => Box::new(GcnLayer::new(in_dim, out_dim, !is_last, rng)),
        };
        encoder = encoder.push_layer(boxed);
    }
    encoder
}

// ---------------------------------------------------------------------------
// Durable model state: the Persist impls every `Task::Model` carries.
//
// Blob names (`model.encoder.l{i}.p{j}`, `model.decoder.relations`,
// `model.head.p{j}`) index parameters positionally — layer order and the
// per-layer params() order are part of the checkpoint contract. Each
// parameter persists both its value and its Adagrad accumulator; gradients
// are transient (always zero at an epoch boundary) and are cleared on load.
// ---------------------------------------------------------------------------

fn save_param(dict: &mut StateDict, prefix: &str, p: &Param) {
    let (r, c) = p.value.shape();
    dict.push_f32(format!("{prefix}.value"), r, c, p.value.data());
    let (sr, sc) = p.adagrad_state.shape();
    dict.push_f32(format!("{prefix}.adagrad"), sr, sc, p.adagrad_state.data());
}

fn load_param(dict: &StateDict, prefix: &str, p: &mut Param) -> marius_storage::Result<()> {
    let (r, c) = p.value.shape();
    let value = dict.require_f32(&format!("{prefix}.value"), r, c)?;
    p.value.data_mut().copy_from_slice(&value);
    let (sr, sc) = p.adagrad_state.shape();
    let state = dict.require_f32(&format!("{prefix}.adagrad"), sr, sc)?;
    p.adagrad_state.data_mut().copy_from_slice(&state);
    p.zero_grad();
    Ok(())
}

fn save_encoder(dict: &mut StateDict, encoder: &Encoder) {
    for (li, layer) in encoder.layers().iter().enumerate() {
        for (pi, p) in layer.params().iter().enumerate() {
            save_param(dict, &format!("model.encoder.l{li}.p{pi}"), p);
        }
    }
}

fn load_encoder(dict: &StateDict, encoder: &mut Encoder) -> marius_storage::Result<()> {
    for (li, layer) in encoder.layers_mut().iter_mut().enumerate() {
        for (pi, p) in layer.params_mut().into_iter().enumerate() {
            load_param(dict, &format!("model.encoder.l{li}.p{pi}"), p)?;
        }
    }
    Ok(())
}

/// The CPU-side half of a link-prediction training step: negative sampling,
/// target interning, and DENSE multi-hop sampling.
///
/// The builder is `Clone + Send + Sync` and borrows nothing from the model, so
/// the pipelined runtime can run it on batch-construction worker threads while
/// the compute consumer owns the model (`marius-pipeline` stage 2 vs stage 3).
/// RNG draws happen in one fixed order (negatives first, then the
/// neighbourhood sample), which is what makes the pipelined and sequential
/// paths bit-identical under a shared seed.
#[derive(Debug, Clone)]
pub struct LinkBatchBuilder {
    sampler: MultiHopSampler,
    negative_sampler: NegativeSampler,
}

/// A fully constructed link-prediction batch, ready for the compute stage.
pub struct PreparedLinkBatch {
    dense: marius_sampling::Dense,
    node_ids: Vec<NodeId>,
    src_idx: Vec<usize>,
    dst_idx: Vec<usize>,
    neg_idx: Vec<usize>,
    rels: Vec<u32>,
    examples: usize,
    sample_time: Duration,
    stats: marius_sampling::SampleStats,
}

impl LinkBatchBuilder {
    /// Builds one training batch from a slice of positive edges: samples the
    /// shared negative pool, interns the unique endpoint/negative nodes, and
    /// runs DENSE multi-hop sampling over `subgraph`.
    pub fn prepare<R: Rng + ?Sized>(
        &self,
        subgraph: &InMemorySubgraph,
        edges: &[Edge],
        negative_candidates: &[NodeId],
        rng: &mut R,
    ) -> PreparedLinkBatch {
        // Shared negative pool plus the unique batch endpoints form the targets.
        let negatives = self.negative_sampler.sample_pool(negative_candidates, rng);
        let mut position: HashMap<NodeId, usize> = HashMap::new();
        let mut targets: Vec<NodeId> = Vec::new();
        let mut intern = |n: NodeId| {
            *position.entry(n).or_insert_with(|| {
                targets.push(n);
                targets.len() - 1
            })
        };
        let mut src_idx = Vec::with_capacity(edges.len());
        let mut dst_idx = Vec::with_capacity(edges.len());
        let rels: Vec<u32> = edges.iter().map(|e| e.rel).collect();
        for e in edges {
            src_idx.push(intern(e.src));
            dst_idx.push(intern(e.dst));
        }
        let neg_idx: Vec<usize> = negatives.iter().map(|&n| intern(n)).collect();

        let sample_start = Instant::now();
        let dense = self.sampler.sample(subgraph, &targets, rng);
        let sample_time = sample_start.elapsed();
        let stats = dense.stats();
        let node_ids = dense.node_ids().to_vec();
        PreparedLinkBatch {
            dense,
            node_ids,
            src_idx,
            dst_idx,
            neg_idx,
            rels,
            examples: edges.len(),
            sample_time,
            stats,
        }
    }
}

/// A link-prediction batch after the encoder and decoder forward: the
/// per-role representations and the scores the loss and MRR read.
struct LinkForward {
    acts: marius_gnn::encoder::EncoderActivations,
    src: Tensor,
    dst: Tensor,
    neg: Tensor,
    pos_scores: Tensor,
    neg_scores: Tensor,
}

/// A link-prediction model: GNN encoder (possibly empty) plus DistMult decoder.
pub struct LinkPredictionModel {
    encoder: Encoder,
    decoder: DistMult,
    builder: LinkBatchBuilder,
    optimizer: Optimizer,
    output_dim: usize,
}

impl LinkPredictionModel {
    /// Builds the model for a graph with `num_relations` edge types.
    pub fn new<R: Rng + ?Sized>(config: &ModelConfig, num_relations: u32, rng: &mut R) -> Self {
        let encoder = build_encoder(config, rng);
        let decoder = DistMult::new(num_relations as usize, config.output_dim, rng);
        let sampler = MultiHopSampler::new(config.fanouts.clone(), config.direction);
        LinkPredictionModel {
            encoder,
            decoder,
            builder: LinkBatchBuilder {
                sampler,
                negative_sampler: NegativeSampler::new(0),
            },
            optimizer: Optimizer::adagrad(config.learning_rate),
            output_dim: config.output_dim,
        }
    }

    /// Sets the number of shared negatives per mini batch.
    pub fn with_negatives(mut self, num_negatives: usize) -> Self {
        self.builder.negative_sampler = NegativeSampler::new(num_negatives);
        self
    }

    /// Number of encoder layers.
    pub fn num_layers(&self) -> usize {
        self.encoder.num_layers()
    }

    /// A clone of the model's batch builder for use on sampling worker
    /// threads.
    pub fn batch_builder(&self) -> LinkBatchBuilder {
        self.builder.clone()
    }

    /// Gathers a prepared batch's base representations and runs the encoder
    /// and decoder forward over it.
    fn forward(
        &self,
        source: &dyn RepresentationSource,
        batch: &mut PreparedLinkBatch,
    ) -> LinkForward {
        let h0 = source.gather(&batch.node_ids);
        let acts = self.encoder.forward(&mut batch.dense, h0);
        let out = &acts.output;
        let src = index_select(out, &batch.src_idx).expect("src rows");
        let dst = index_select(out, &batch.dst_idx).expect("dst rows");
        let neg = index_select(out, &batch.neg_idx).expect("neg rows");
        let pos_scores = self.decoder.score_positive(&src, &batch.rels, &dst);
        let neg_scores = self.decoder.score_negatives(&src, &batch.rels, &neg);
        LinkForward {
            acts,
            src,
            dst,
            neg,
            pos_scores,
            neg_scores,
        }
    }

    /// Runs the compute half of a training step over a batch constructed by
    /// [`LinkBatchBuilder::prepare`] (possibly on another thread): embedding
    /// gather, encoder/decoder forward and backward, parameter updates, and
    /// the sparse write-back of base-embedding gradients.
    pub fn train_prepared(
        &mut self,
        source: &mut dyn RepresentationSource,
        mut batch: PreparedLinkBatch,
    ) -> BatchStats {
        if batch.examples == 0 {
            return BatchStats::default();
        }
        let compute_start = Instant::now();
        let f = self.forward(&*source, &mut batch);
        let loss = ranking_softmax_loss(&f.pos_scores, &f.neg_scores);

        // Decoder backward -> per-role gradients.
        let (g_src_pos, g_dst) =
            self.decoder
                .backward_positive(&f.src, &batch.rels, &f.dst, &loss.grad_positive);
        let (g_src_neg, g_neg) =
            self.decoder
                .backward_negatives(&f.src, &batch.rels, &f.neg, &loss.grad_negative);
        let g_src = g_src_pos.add(&g_src_neg).expect("src grad shapes");

        // Scatter the per-role gradients back onto the encoder output rows.
        let rows = f.acts.output.rows();
        let mut grad_targets = Tensor::zeros(rows, self.output_dim);
        for (idx, grad) in [
            (&batch.src_idx, &g_src),
            (&batch.dst_idx, &g_dst),
            (&batch.neg_idx, &g_neg),
        ] {
            grad_targets
                .add_assign(&index_add(rows, self.output_dim, idx, grad).expect("scatter"))
                .expect("shape");
        }

        // Encoder backward and parameter / embedding updates.
        let grad_h0 = self.encoder.backward(&f.acts, &grad_targets);
        self.encoder.step(&self.optimizer);
        self.optimizer.step(self.decoder.relation_param_mut());
        if source.learnable() {
            source.apply_update(&batch.node_ids, &grad_h0);
        }
        let compute_time = compute_start.elapsed();

        BatchStats {
            loss: loss.loss,
            examples: batch.examples,
            sample_time: batch.sample_time,
            compute_time,
            nodes_sampled: batch.stats.nodes_sampled,
            edges_sampled: batch.stats.edges_sampled,
        }
    }

    /// Evaluates MRR over `edges`, ranking each positive destination against
    /// `num_negatives` shared corruptions drawn from `candidates`.
    pub fn evaluate_mrr<R: Rng + ?Sized>(
        &self,
        source: &dyn RepresentationSource,
        subgraph: &InMemorySubgraph,
        edges: &[Edge],
        candidates: &[NodeId],
        num_negatives: usize,
        rng: &mut R,
    ) -> f64 {
        if edges.is_empty() {
            return 0.0;
        }
        // Evaluation batches are built like training batches, with the
        // evaluation negative count.
        let builder = LinkBatchBuilder {
            sampler: self.builder.sampler.clone(),
            negative_sampler: NegativeSampler::new(num_negatives),
        };
        let mut positives = Vec::with_capacity(edges.len());
        let mut negative_scores = Vec::with_capacity(edges.len());
        // Evaluate in manageable chunks so the target set stays small.
        for chunk in edges.chunks(512) {
            let mut batch = builder.prepare(subgraph, chunk, candidates, rng);
            let f = self.forward(source, &mut batch);
            for i in 0..chunk.len() {
                positives.push(f.pos_scores.get(i, 0));
                negative_scores.push(f.neg_scores.row(i).to_vec());
            }
        }
        RankingProtocol::mrr(&positives, &negative_scores)
    }
}

impl Persist for LinkPredictionModel {
    fn save_state(&self, dict: &mut StateDict) {
        save_encoder(dict, &self.encoder);
        save_param(
            dict,
            "model.decoder.relations",
            self.decoder.relation_param(),
        );
    }

    fn load_state(&mut self, dict: &StateDict) -> marius_storage::Result<()> {
        load_encoder(dict, &mut self.encoder)?;
        load_param(
            dict,
            "model.decoder.relations",
            self.decoder.relation_param_mut(),
        )
    }
}

/// The CPU-side half of a node-classification training step: DENSE multi-hop
/// sampling plus label alignment. `Clone + Send + Sync` for the same reason as
/// [`LinkBatchBuilder`].
#[derive(Debug, Clone)]
pub struct NodeBatchBuilder {
    sampler: MultiHopSampler,
}

/// A fully constructed node-classification batch, ready for compute.
pub struct PreparedNodeBatch {
    dense: marius_sampling::Dense,
    node_ids: Vec<NodeId>,
    batch_labels: Vec<u32>,
    examples: usize,
    sample_time: Duration,
    stats: marius_sampling::SampleStats,
}

impl NodeBatchBuilder {
    /// Builds one training batch for `nodes` (with per-node `labels`):
    /// samples the multi-hop neighbourhood and aligns labels with DENSE's
    /// deduplicated target order.
    pub fn prepare<R: Rng + ?Sized>(
        &self,
        subgraph: &InMemorySubgraph,
        nodes: &[NodeId],
        labels: &[u32],
        rng: &mut R,
    ) -> PreparedNodeBatch {
        let sample_start = Instant::now();
        let dense = self.sampler.sample(subgraph, nodes, rng);
        let sample_time = sample_start.elapsed();
        let stats = dense.stats();
        let node_ids = dense.node_ids().to_vec();
        // Dense de-duplicates targets; align labels with the retained order.
        let target_order = dense.target_nodes().to_vec();
        let label_of: HashMap<NodeId, u32> =
            nodes.iter().copied().zip(labels.iter().copied()).collect();
        let batch_labels: Vec<u32> = target_order.iter().map(|n| label_of[n]).collect();
        PreparedNodeBatch {
            dense,
            node_ids,
            batch_labels,
            examples: target_order.len(),
            sample_time,
            stats,
        }
    }
}

/// A node-classification model: GNN encoder plus linear softmax head.
pub struct NodeClassificationModel {
    encoder: Encoder,
    head: ClassifierHead,
    builder: NodeBatchBuilder,
    optimizer: Optimizer,
}

impl NodeClassificationModel {
    /// Builds the model for `num_classes` output classes.
    pub fn new<R: Rng + ?Sized>(config: &ModelConfig, num_classes: usize, rng: &mut R) -> Self {
        let encoder = build_encoder(config, rng);
        let head = ClassifierHead::new(config.output_dim, num_classes, rng);
        let sampler = MultiHopSampler::new(config.fanouts.clone(), config.direction);
        NodeClassificationModel {
            encoder,
            head,
            builder: NodeBatchBuilder { sampler },
            optimizer: Optimizer::adagrad(config.learning_rate),
        }
    }

    /// Number of encoder layers.
    pub fn num_layers(&self) -> usize {
        self.encoder.num_layers()
    }

    /// A clone of the model's batch builder for use on sampling worker
    /// threads.
    pub fn batch_builder(&self) -> NodeBatchBuilder {
        self.builder.clone()
    }

    /// Runs the compute half of a training step over a batch constructed by
    /// [`NodeBatchBuilder::prepare`] (possibly on another thread).
    pub fn train_prepared(
        &mut self,
        source: &mut dyn RepresentationSource,
        mut batch: PreparedNodeBatch,
    ) -> BatchStats {
        if batch.examples == 0 {
            return BatchStats::default();
        }
        let compute_start = Instant::now();
        let (acts, logits) = self.forward(&*source, &mut batch);
        let loss = softmax_cross_entropy(&logits, &batch.batch_labels);
        let grad_out = self.head.backward(&acts.output, &loss.grad_logits);
        let grad_h0 = self.encoder.backward(&acts, &grad_out);
        self.encoder.step(&self.optimizer);
        for p in self.head.params_mut() {
            self.optimizer.step(p);
        }
        if source.learnable() {
            source.apply_update(&batch.node_ids, &grad_h0);
        }
        let compute_time = compute_start.elapsed();

        BatchStats {
            loss: loss.loss,
            examples: batch.examples,
            sample_time: batch.sample_time,
            compute_time,
            nodes_sampled: batch.stats.nodes_sampled,
            edges_sampled: batch.stats.edges_sampled,
        }
    }

    /// Gathers a prepared batch's base representations and runs the encoder
    /// and the classifier head over it: the activations and the logits.
    fn forward(
        &self,
        source: &dyn RepresentationSource,
        batch: &mut PreparedNodeBatch,
    ) -> (marius_gnn::encoder::EncoderActivations, Tensor) {
        let h0 = source.gather(&batch.node_ids);
        let acts = self.encoder.forward(&mut batch.dense, h0);
        let logits = self.head.forward(&acts.output);
        (acts, logits)
    }

    /// Classification accuracy over `nodes` (with per-node `labels`),
    /// evaluated in batches built like training batches.
    pub fn evaluate_accuracy<R: Rng + ?Sized>(
        &self,
        source: &dyn RepresentationSource,
        subgraph: &InMemorySubgraph,
        nodes: &[NodeId],
        labels: &[u32],
        rng: &mut R,
    ) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for (chunk, chunk_labels) in nodes.chunks(1024).zip(labels.chunks(1024)) {
            let mut batch = self.builder.prepare(subgraph, chunk, chunk_labels, rng);
            let (_, logits) = self.forward(source, &mut batch);
            let preds = logits.argmax_rows();
            correct += batch
                .batch_labels
                .iter()
                .zip(&preds)
                .filter(|&(&label, &pred)| pred as u32 == label)
                .count();
            total += batch.examples;
        }
        correct as f64 / total.max(1) as f64
    }
}

impl Persist for NodeClassificationModel {
    fn save_state(&self, dict: &mut StateDict) {
        save_encoder(dict, &self.encoder);
        for (pi, p) in self.head.params().iter().enumerate() {
            save_param(dict, &format!("model.head.p{pi}"), p);
        }
    }

    fn load_state(&mut self, dict: &StateDict) -> marius_storage::Result<()> {
        load_encoder(dict, &mut self.encoder)?;
        for (pi, p) in self.head.params_mut().into_iter().enumerate() {
            load_param(dict, &format!("model.head.p{pi}"), p)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_graph::datasets::{DatasetSpec, ScaledDataset};
    use marius_sampling::SamplingDirection;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn build_encoder_produces_requested_depth_and_dims() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = ModelConfig {
            encoder: EncoderKind::GraphSage,
            num_layers: 3,
            hidden_dim: 8,
            output_dim: 4,
            input_dim: 6,
            fanouts: vec![3, 3, 3],
            direction: SamplingDirection::Both,
            learning_rate: 0.01,
            embedding_learning_rate: 0.1,
        };
        let enc = build_encoder(&config, &mut rng);
        assert_eq!(enc.num_layers(), 3);
        assert_eq!(enc.output_dim(), Some(4));
        assert_eq!(enc.layers()[0].input_dim(), 6);
        assert_eq!(enc.layers()[1].input_dim(), 8);
    }

    #[test]
    fn build_encoder_gat_and_gcn() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut config = ModelConfig::paper_link_prediction_gat(8);
        config.fanouts = vec![3];
        let enc = build_encoder(&config, &mut rng);
        assert_eq!(enc.layers()[0].name(), "gat");
        config.encoder = EncoderKind::Gcn;
        let enc = build_encoder(&config, &mut rng);
        assert_eq!(enc.layers()[0].name(), "gcn");
        config.encoder = EncoderKind::None;
        config.num_layers = 0;
        let enc = build_encoder(&config, &mut rng);
        assert_eq!(enc.num_layers(), 0);
    }

    /// One training step as the executors run it: prepare, then compute.
    fn train_link<R: Rng>(
        model: &mut LinkPredictionModel,
        source: &mut dyn RepresentationSource,
        subgraph: &InMemorySubgraph,
        edges: &[Edge],
        candidates: &[NodeId],
        rng: &mut R,
    ) -> BatchStats {
        let prepared = model
            .batch_builder()
            .prepare(subgraph, edges, candidates, rng);
        model.train_prepared(source, prepared)
    }

    fn tiny_kg() -> ScaledDataset {
        ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.02), 11)
    }

    #[test]
    fn link_prediction_batch_reduces_loss_over_steps() {
        let data = tiny_kg();
        let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
        let mut rng = StdRng::seed_from_u64(3);
        let config = ModelConfig::paper_link_prediction_graphsage(16).shrunk(5, 16);
        let mut model =
            LinkPredictionModel::new(&config, data.spec.num_relations, &mut rng).with_negatives(32);
        let table = marius_gnn::EmbeddingTable::new(data.num_nodes() as usize, 16, 0.1, &mut rng)
            .with_learning_rate(0.1);
        let mut source = crate::source::TableSource::new(table);
        let candidates: Vec<NodeId> = (0..data.num_nodes()).collect();

        // Train repeatedly on one fixed batch: with correct gradients the loss on
        // that batch must decrease substantially.
        let batch = &data.train_edges[..64.min(data.train_edges.len())];
        let mut first = f64::NAN;
        let mut last = f64::NAN;
        for round in 0..60 {
            let stats = train_link(
                &mut model,
                &mut source,
                &subgraph,
                batch,
                &candidates,
                &mut rng,
            );
            assert!(stats.loss.is_finite());
            if round == 0 {
                first = stats.loss;
            }
            last = stats.loss;
        }
        assert!(
            last < first - 0.1,
            "loss should decrease on a fixed batch: first {first} vs last {last}"
        );
    }

    #[test]
    fn link_prediction_mrr_improves_with_training() {
        let data = tiny_kg();
        let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
        let mut rng = StdRng::seed_from_u64(4);
        let config = ModelConfig::paper_distmult(16);
        let mut model =
            LinkPredictionModel::new(&config, data.spec.num_relations, &mut rng).with_negatives(64);
        let table = marius_gnn::EmbeddingTable::new(data.num_nodes() as usize, 16, 0.1, &mut rng)
            .with_learning_rate(0.1);
        let mut source = crate::source::TableSource::new(table);
        let candidates: Vec<NodeId> = (0..data.num_nodes()).collect();

        let initial = model.evaluate_mrr(
            &source,
            &subgraph,
            &data.test_edges,
            &candidates,
            100,
            &mut rng,
        );
        for _ in 0..3 {
            for batch in data.train_edges.chunks(128) {
                train_link(
                    &mut model,
                    &mut source,
                    &subgraph,
                    batch,
                    &candidates,
                    &mut rng,
                );
            }
        }
        let trained = model.evaluate_mrr(
            &source,
            &subgraph,
            &data.test_edges,
            &candidates,
            100,
            &mut rng,
        );
        assert!(
            trained > initial + 0.05,
            "MRR should improve with training: {initial} -> {trained}"
        );
    }

    #[test]
    fn node_classification_accuracy_improves_with_training() {
        let spec = DatasetSpec::ogbn_arxiv().scaled(0.01);
        let data = ScaledDataset::generate(&spec, 5);
        let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
        let mut rng = StdRng::seed_from_u64(6);
        let mut config = ModelConfig::paper_node_classification(spec.feat_dim, 32);
        config.num_layers = 2;
        config.fanouts = vec![10, 10];
        let num_classes = spec.num_classes.unwrap();
        let mut model = NodeClassificationModel::new(&config, num_classes, &mut rng);
        let mut source = crate::source::FixedFeatureSource::new(data.features.clone().unwrap());
        let labels = data.labels.as_ref().unwrap();

        let test_labels: Vec<u32> = data
            .node_split
            .test
            .iter()
            .map(|&n| labels[n as usize])
            .collect();
        let initial = model.evaluate_accuracy(
            &source,
            &subgraph,
            &data.node_split.test,
            &test_labels,
            &mut rng,
        );
        for _ in 0..5 {
            for batch in data.node_split.train.chunks(128) {
                let batch_labels: Vec<u32> = batch.iter().map(|&n| labels[n as usize]).collect();
                let prepared =
                    model
                        .batch_builder()
                        .prepare(&subgraph, batch, &batch_labels, &mut rng);
                let stats = model.train_prepared(&mut source, prepared);
                assert!(stats.loss.is_finite());
            }
        }
        let trained = model.evaluate_accuracy(
            &source,
            &subgraph,
            &data.node_split.test,
            &test_labels,
            &mut rng,
        );
        assert!(
            trained > initial,
            "accuracy should improve: {initial} -> {trained}"
        );
        assert!(trained > 1.5 / num_classes as f64);
    }

    #[test]
    fn batch_stats_track_sampling_volume() {
        let data = tiny_kg();
        let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
        let mut rng = StdRng::seed_from_u64(7);
        let config = ModelConfig::paper_link_prediction_graphsage(8).shrunk(5, 8);
        let mut model =
            LinkPredictionModel::new(&config, data.spec.num_relations, &mut rng).with_negatives(16);
        let table = marius_gnn::EmbeddingTable::new(data.num_nodes() as usize, 8, 0.1, &mut rng);
        let mut source = crate::source::TableSource::new(table);
        let candidates: Vec<NodeId> = (0..data.num_nodes()).collect();
        let stats = train_link(
            &mut model,
            &mut source,
            &subgraph,
            &data.train_edges[..32],
            &candidates,
            &mut rng,
        );
        assert!(stats.nodes_sampled > 0);
        assert!(stats.examples == 32);
        assert!(stats.sample_time > Duration::ZERO);
    }

    #[test]
    fn model_state_roundtrips_and_rejects_architecture_mismatch() {
        let mut rng = StdRng::seed_from_u64(21);
        let config = ModelConfig::paper_link_prediction_graphsage(8).shrunk(5, 8);
        let model = LinkPredictionModel::new(&config, 4, &mut rng).with_negatives(8);
        let mut dict = StateDict::new();
        model.save_state(&mut dict);
        // Encoder value + adagrad per param, plus the decoder's relation param.
        assert!(dict.get("model.encoder.l0.p0.value").is_some());
        assert!(dict.get("model.decoder.relations.adagrad").is_some());
        // A same-architecture twin restores to identical parameters.
        let mut twin = LinkPredictionModel::new(&config, 4, &mut rng).with_negatives(8);
        twin.load_state(&dict).unwrap();
        let mut twin_dict = StateDict::new();
        twin.save_state(&mut twin_dict);
        assert_eq!(dict, twin_dict);
        // A different architecture (wrong dims) must refuse to load.
        let other_config = ModelConfig::paper_link_prediction_graphsage(16).shrunk(5, 16);
        let mut other = LinkPredictionModel::new(&other_config, 4, &mut rng);
        assert!(other.load_state(&dict).is_err());

        // Node classification round-trips too (encoder + head).
        let mut nc_config = ModelConfig::paper_node_classification(12, 8);
        nc_config.num_layers = 1;
        nc_config.fanouts = vec![4];
        let nc = NodeClassificationModel::new(&nc_config, 5, &mut rng);
        let mut nc_dict = StateDict::new();
        nc.save_state(&mut nc_dict);
        assert!(nc_dict.get("model.head.p0.value").is_some());
        let mut nc_twin = NodeClassificationModel::new(&nc_config, 5, &mut rng);
        nc_twin.load_state(&nc_dict).unwrap();
        let mut nc_twin_dict = StateDict::new();
        nc_twin.save_state(&mut nc_twin_dict);
        assert_eq!(nc_dict, nc_twin_dict);
    }

    #[test]
    fn empty_batches_are_noops() {
        let data = tiny_kg();
        let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
        let mut rng = StdRng::seed_from_u64(8);
        let config = ModelConfig::paper_distmult(8);
        let mut model = LinkPredictionModel::new(&config, 4, &mut rng);
        let table = marius_gnn::EmbeddingTable::new(data.num_nodes() as usize, 8, 0.1, &mut rng);
        let mut source = crate::source::TableSource::new(table);
        let stats = train_link(&mut model, &mut source, &subgraph, &[], &[0, 1], &mut rng);
        assert_eq!(stats.examples, 0);
        let mrr = model.evaluate_mrr(&source, &subgraph, &[], &[0, 1], 10, &mut rng);
        assert_eq!(mrr, 0.0);
    }
}

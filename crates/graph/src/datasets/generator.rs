//! Deterministic synthetic graph generation.
//!
//! The generator synthesises graphs with the statistics described by a
//! [`DatasetSpec`]: a skewed (power-law-like) degree distribution, community
//! structure that node-classification labels and knowledge-graph relations follow,
//! and fixed input features (for node classification) drawn around per-class
//! centroids. The planted structure means that the GNN models in this
//! reproduction can actually *learn* on these graphs — accuracy and MRR improve
//! over epochs — which is what the end-to-end experiments require.

use super::{DatasetSpec, NodeSplit, Task};
use crate::{Edge, EdgeList, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense, row-major node feature matrix (one row per node).
///
/// Kept as a plain buffer (rather than a `marius_tensor::Tensor`) so that the
/// graph crate stays independent of the tensor crate; the GNN crate converts rows
/// into tensors when it assembles mini batches.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f32>,
    dim: usize,
}

impl FeatureMatrix {
    /// Creates a zero-initialised feature matrix for `num_nodes` nodes.
    pub fn zeros(num_nodes: usize, dim: usize) -> Self {
        FeatureMatrix {
            data: vec![0.0; num_nodes * dim],
            dim,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the feature row for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn row(&self, node: NodeId) -> &[f32] {
        let i = node as usize;
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Returns the feature row for `node` mutably.
    pub fn row_mut(&mut self, node: NodeId) -> &mut [f32] {
        let i = node as usize;
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Returns the raw buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Total storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }
}

/// A generated synthetic dataset: graph, features, labels and splits.
#[derive(Debug, Clone)]
pub struct ScaledDataset {
    /// The (possibly scaled) specification the dataset was generated from.
    pub spec: DatasetSpec,
    /// The RNG seed [`ScaledDataset::generate`] was called with. Generation is
    /// deterministic in `(spec, seed)`, so recording the seed makes the dataset
    /// reconstructible from metadata alone — checkpoint manifests persist this
    /// pair instead of the graph itself.
    pub seed: u64,
    /// The graph as an edge list.
    pub graph: EdgeList,
    /// Fixed input features (present when `spec.fixed_features`).
    pub features: Option<FeatureMatrix>,
    /// Class label per node (present for node classification).
    pub labels: Option<Vec<u32>>,
    /// Community id per node (the planted structure; useful for diagnostics).
    pub communities: Vec<u32>,
    /// Node splits for node classification.
    pub node_split: NodeSplit,
    /// Training edges for link prediction (all edges minus held-out).
    pub train_edges: Vec<Edge>,
    /// Validation edges for link prediction.
    pub valid_edges: Vec<Edge>,
    /// Test edges for link prediction.
    pub test_edges: Vec<Edge>,
}

impl ScaledDataset {
    /// Generates a dataset matching `spec`, deterministically from `seed`.
    pub fn generate(spec: &DatasetSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = spec.num_nodes as usize;
        let num_communities = match spec.task {
            Task::NodeClassification => spec.num_classes.unwrap_or(16).max(2),
            Task::LinkPrediction => 32.min(n / 4).max(2),
        };

        // Planted community per node.
        let communities: Vec<u32> = (0..n)
            .map(|_| rng.gen_range(0..num_communities as u32))
            .collect();

        // Degree-skew sampler: node weight proportional to (rank + 1)^(-alpha)
        // over a random permutation so hubs are spread across the id space.
        let sampler = ZipfNodeSampler::new(n, spec.degree_exponent, &mut rng);

        // Group nodes by community for intra-community destination sampling.
        let mut community_members: Vec<Vec<NodeId>> = vec![Vec::new(); num_communities];
        for (node, &c) in communities.iter().enumerate() {
            community_members[c as usize].push(node as NodeId);
        }
        // Guarantee every community has at least one member.
        for (c, members) in community_members.iter_mut().enumerate() {
            if members.is_empty() {
                members.push((c % n) as NodeId);
            }
        }

        let mut graph = EdgeList::new(spec.num_nodes);
        let intra_prob = 0.8;
        for _ in 0..spec.num_edges {
            let src = sampler.sample(&mut rng);
            let rel = if spec.num_relations > 1 {
                rng.gen_range(0..spec.num_relations)
            } else {
                0
            };
            let src_comm = communities[src as usize] as usize;
            // The destination community is a deterministic function of the source
            // community and the relation, so relational structure is learnable.
            let dst_comm = (src_comm + rel as usize) % num_communities;
            let dst = if rng.gen_bool(intra_prob) {
                let members = &community_members[dst_comm];
                members[rng.gen_range(0..members.len())]
            } else {
                sampler.sample(&mut rng)
            };
            graph
                .push(Edge::with_rel(src, rel, dst))
                .expect("generated edge in range");
        }

        // Labels and features for node classification.
        let (labels, features) = if spec.task == Task::NodeClassification {
            let num_classes = spec.num_classes.unwrap_or(num_communities);
            let labels: Vec<u32> = communities
                .iter()
                .map(|&c| c % num_classes as u32)
                .collect();
            let features = if spec.fixed_features {
                Some(Self::class_centroid_features(
                    &labels,
                    num_classes,
                    spec.feat_dim,
                    &mut rng,
                ))
            } else {
                None
            };
            (Some(labels), features)
        } else {
            (None, None)
        };

        // Node split for node classification: `train_fraction` of nodes train,
        // and up to the same amount again split evenly between valid and test.
        let node_split = if spec.task == Task::NodeClassification {
            let mut nodes: Vec<NodeId> = (0..spec.num_nodes).collect();
            // Deterministic shuffle driven by the seeded RNG.
            for i in (1..nodes.len()).rev() {
                let j = rng.gen_range(0..=i);
                nodes.swap(i, j);
            }
            let n_train =
                ((spec.num_nodes as f64 * spec.train_fraction).round() as usize).clamp(1, n);
            let n_eval = (n_train / 2).clamp(1, n.saturating_sub(n_train).max(1));
            let train = nodes[..n_train].to_vec();
            let valid_end = (n_train + n_eval).min(n);
            let valid = nodes[n_train..valid_end].to_vec();
            let test_end = (valid_end + n_eval).min(n);
            let test = nodes[valid_end..test_end].to_vec();
            NodeSplit { train, valid, test }
        } else {
            NodeSplit::default()
        };

        // Edge split for link prediction: hold out a small, bounded number of
        // edges so MRR evaluation stays cheap at every scale.
        let (train_edges, valid_edges, test_edges) = if spec.task == Task::LinkPrediction {
            let holdout = ((graph.num_edges() as f64 * 0.01) as usize).clamp(1, 2000);
            let frac = holdout as f64 / graph.num_edges() as f64;
            graph.split_edges(frac, frac)
        } else {
            (graph.edges().to_vec(), Vec::new(), Vec::new())
        };

        ScaledDataset {
            spec: spec.clone(),
            seed,
            graph,
            features,
            labels,
            communities,
            node_split,
            train_edges,
            valid_edges,
            test_edges,
        }
    }

    fn class_centroid_features(
        labels: &[u32],
        num_classes: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> FeatureMatrix {
        // One random centroid per class; features are the centroid plus Gaussian
        // noise (Box–Muller) so a linear classifier over aggregated neighbourhoods
        // can separate the classes.
        let mut centroids = vec![0.0f32; num_classes * dim];
        for x in centroids.iter_mut() {
            *x = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        }
        let mut features = FeatureMatrix::zeros(labels.len(), dim);
        for (node, &label) in labels.iter().enumerate() {
            let centroid = &centroids[label as usize * dim..(label as usize + 1) * dim];
            let row = features.row_mut(node as NodeId);
            for (i, c) in centroid.iter().enumerate() {
                row[i] = c + gaussian(rng) * 0.5;
            }
        }
        features
    }

    /// Number of nodes in the dataset.
    pub fn num_nodes(&self) -> u64 {
        self.graph.num_nodes()
    }

    /// Number of edges in the dataset.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

/// Samples node ids with probability proportional to `(rank + 1)^(-alpha)` over a
/// random permutation of the id space.
#[derive(Debug, Clone)]
struct ZipfNodeSampler {
    /// Cumulative weights over ranks.
    cumulative: Vec<f64>,
    /// rank -> node id permutation.
    permutation: Vec<NodeId>,
}

impl ZipfNodeSampler {
    fn new<R: Rng + ?Sized>(n: usize, alpha: f64, rng: &mut R) -> Self {
        let mut permutation: Vec<NodeId> = (0..n as u64).collect();
        for i in (1..permutation.len()).rev() {
            let j = rng.gen_range(0..=i);
            permutation.swap(i, j);
        }
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(alpha);
            cumulative.push(total);
        }
        ZipfNodeSampler {
            cumulative,
            permutation,
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        let total = *self.cumulative.last().expect("non-empty sampler");
        let u = rng.gen_range(0.0..total);
        let rank = self.cumulative.partition_point(|&c| c < u);
        self.permutation[rank.min(self.permutation.len() - 1)]
    }
}

/// Standard normal sample via the Box–Muller transform.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_nc_spec() -> DatasetSpec {
        DatasetSpec::ogbn_arxiv().scaled(0.01)
    }

    fn tiny_lp_spec() -> DatasetSpec {
        DatasetSpec::fb15k_237().scaled(0.05)
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = tiny_lp_spec();
        let a = ScaledDataset::generate(&spec, 7);
        let b = ScaledDataset::generate(&spec, 7);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.communities, b.communities);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = tiny_lp_spec();
        let a = ScaledDataset::generate(&spec, 1);
        let b = ScaledDataset::generate(&spec, 2);
        assert_ne!(a.graph, b.graph);
    }

    #[test]
    fn node_classification_dataset_has_features_and_labels() {
        let spec = tiny_nc_spec();
        let d = ScaledDataset::generate(&spec, 3);
        let features = d.features.as_ref().expect("features present");
        assert_eq!(
            (features.data.len() / features.dim()) as u64,
            spec.num_nodes
        );
        assert_eq!(features.dim(), spec.feat_dim);
        let labels = d.labels.as_ref().expect("labels present");
        assert_eq!(labels.len() as u64, spec.num_nodes);
        let num_classes = spec.num_classes.unwrap() as u32;
        assert!(labels.iter().all(|&l| l < num_classes));
    }

    #[test]
    fn node_split_sizes_respect_train_fraction() {
        let spec = tiny_nc_spec();
        let d = ScaledDataset::generate(&spec, 3);
        let expected = (spec.num_nodes as f64 * spec.train_fraction).round() as usize;
        assert_eq!(d.node_split.train.len(), expected.max(1));
        assert!(!d.node_split.valid.is_empty());
        assert!(!d.node_split.test.is_empty());
        // Splits are disjoint.
        let mut all: Vec<_> = d
            .node_split
            .train
            .iter()
            .chain(&d.node_split.valid)
            .chain(&d.node_split.test)
            .copied()
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn link_prediction_dataset_has_edge_splits() {
        let spec = tiny_lp_spec();
        let d = ScaledDataset::generate(&spec, 4);
        assert!(d.features.is_none());
        assert!(d.labels.is_none());
        assert!(!d.valid_edges.is_empty());
        assert!(!d.test_edges.is_empty());
        assert_eq!(
            d.train_edges.len() + d.valid_edges.len() + d.test_edges.len(),
            d.graph.num_edges()
        );
        assert!(d.valid_edges.len() <= 2000);
    }

    #[test]
    fn edges_are_in_range_and_relations_bounded() {
        let spec = tiny_lp_spec();
        let d = ScaledDataset::generate(&spec, 5);
        for e in d.graph.edges() {
            assert!(e.src < spec.num_nodes);
            assert!(e.dst < spec.num_nodes);
            assert!(e.rel < spec.num_relations);
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let spec = DatasetSpec::livejournal().scaled(0.0005);
        let d = ScaledDataset::generate(&spec, 6);
        let degrees = d.graph.out_degrees();
        let max = *degrees.iter().max().unwrap() as f64;
        let avg = degrees.iter().map(|&x| x as f64).sum::<f64>() / degrees.len() as f64;
        // A power-law-ish graph has hubs well above the mean degree.
        assert!(max > 4.0 * avg, "max {max} not >> avg {avg}");
    }

    #[test]
    fn communities_correlate_with_edges() {
        // With 80% intra-community edges (after relation shifting), a relation-0
        // edge should connect same-community endpoints much more often than chance.
        let mut spec = DatasetSpec::ogbn_arxiv().scaled(0.01);
        spec.num_relations = 1;
        let d = ScaledDataset::generate(&spec, 7);
        let total = d.graph.num_edges() as f64;
        let intra = d
            .graph
            .edges()
            .iter()
            .filter(|e| d.communities[e.src as usize] == d.communities[e.dst as usize])
            .count() as f64;
        let num_comms = d.communities.iter().max().unwrap() + 1;
        let chance = 1.0 / num_comms as f64;
        assert!(intra / total > 3.0 * chance);
    }

    #[test]
    fn feature_matrix_accessors() {
        let mut f = FeatureMatrix::zeros(3, 4);
        assert_eq!(f.data.len(), 3 * 4);
        assert_eq!(f.dim(), 4);
        f.row_mut(1)[2] = 5.0;
        assert_eq!(f.row(1)[2], 5.0);
        assert_eq!(f.storage_bytes(), 48);
        let empty = FeatureMatrix::zeros(0, 0);
        assert!(empty.data.is_empty());
    }

    #[test]
    fn zipf_sampler_prefers_low_ranks() {
        let mut rng = StdRng::seed_from_u64(8);
        let sampler = ZipfNodeSampler::new(1000, 1.0, &mut rng);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        // The most popular node should be sampled far more than the median node.
        let max = *counts.iter().max().unwrap();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let median = sorted[500];
        assert!(max > 10 * median.max(1));
    }

    #[test]
    fn gaussian_has_roughly_zero_mean() {
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<f32> = (0..10_000).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.05);
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / samples.len() as f32;
        assert!((var - 1.0).abs() < 0.1);
    }
}

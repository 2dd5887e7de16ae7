//! Model, training and disk-storage configuration.

use marius_graph::sampling::SamplingDirection;
use marius_storage::IoCostModel;

pub use marius_storage::pipeline::PipelineConfig;

/// Which encoder architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// GraphSage with mean aggregation (the paper's default model).
    GraphSage,
    /// Single-head graph attention (the "more computationally expensive" model
    /// of Table 5).
    Gat,
    /// No encoder: decoder-only DistMult over base embeddings (the specialised
    /// knowledge-graph model of Table 8).
    None,
}

/// Model architecture configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Encoder architecture.
    pub encoder: EncoderKind,
    /// Number of GNN layers (0 for [`EncoderKind::None`]).
    pub num_layers: usize,
    /// Hidden dimension of intermediate layers.
    pub hidden_dim: usize,
    /// Output dimension of the encoder (for link prediction this must equal the
    /// base-embedding dimension consumed by DistMult).
    pub output_dim: usize,
    /// Base representation / feature dimension.
    pub input_dim: usize,
    /// Neighbours sampled per node per hop, ordered away from the targets.
    pub fanouts: Vec<usize>,
    /// Which edge direction neighbours are drawn from.
    pub direction: SamplingDirection,
    /// Learning rate for GNN weights and decoder parameters.
    pub learning_rate: f32,
    /// Learning rate for sparse base-embedding updates.
    pub embedding_learning_rate: f32,
}

impl ModelConfig {
    /// The paper's node-classification configuration: a three-layer GraphSage
    /// with fanouts 30/20/10 sampling both edge directions (§7.1).
    pub fn paper_node_classification(input_dim: usize, hidden_dim: usize) -> Self {
        ModelConfig {
            encoder: EncoderKind::GraphSage,
            num_layers: 3,
            hidden_dim,
            output_dim: hidden_dim,
            input_dim,
            fanouts: vec![30, 20, 10],
            direction: SamplingDirection::Both,
            learning_rate: 0.01,
            embedding_learning_rate: 0.1,
        }
    }

    /// The paper's link-prediction GraphSage configuration: one layer, 20
    /// neighbours from both directions, DistMult decoder (§7.1).
    pub fn paper_link_prediction_graphsage(embedding_dim: usize) -> Self {
        ModelConfig {
            encoder: EncoderKind::GraphSage,
            num_layers: 1,
            hidden_dim: embedding_dim,
            output_dim: embedding_dim,
            input_dim: embedding_dim,
            fanouts: vec![20],
            direction: SamplingDirection::Both,
            learning_rate: 0.01,
            embedding_learning_rate: 0.1,
        }
    }

    /// The decoder-only DistMult configuration used in Table 8.
    pub fn paper_distmult(embedding_dim: usize) -> Self {
        ModelConfig {
            encoder: EncoderKind::None,
            num_layers: 0,
            hidden_dim: embedding_dim,
            output_dim: embedding_dim,
            input_dim: embedding_dim,
            fanouts: vec![],
            direction: SamplingDirection::Both,
            learning_rate: 0.01,
            embedding_learning_rate: 0.1,
        }
    }

    /// Shrinks fanouts and dimensions for fast test / CI runs while keeping the
    /// same architecture.
    pub fn shrunk(mut self, fanout: usize, dim: usize) -> Self {
        self.fanouts = vec![fanout; self.num_layers];
        self.hidden_dim = dim;
        self.output_dim = dim;
        if self.encoder == EncoderKind::None || self.input_dim == self.output_dim {
            self.input_dim = dim;
        }
        self
    }
}

/// Mini-batch and epoch configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainConfig {
    /// Training examples (nodes or edges) per mini batch.
    pub batch_size: usize,
    /// Shared negative samples per mini batch (link prediction only).
    pub num_negatives: usize,
    /// Negative samples used when evaluating MRR.
    pub eval_negatives: usize,
    /// Number of epochs to train.
    pub epochs: usize,
    /// RNG seed controlling initialisation, sampling and shuffling.
    pub seed: u64,
    /// Maximum number of mini batches per epoch (caps work for quick runs; 0
    /// means no cap).
    pub max_batches_per_epoch: usize,
}

impl TrainConfig {
    /// A configuration suitable for the scaled-down experiment harnesses.
    pub fn quick(epochs: usize, seed: u64) -> Self {
        TrainConfig {
            batch_size: 256,
            num_negatives: 64,
            eval_negatives: 100,
            epochs,
            seed,
            max_batches_per_epoch: 0,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 1000,
            num_negatives: 500,
            eval_negatives: 500,
            epochs: 10,
            seed: 42,
            max_batches_per_epoch: 0,
        }
    }
}

/// Which partition replacement policy drives disk-based training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// COMET (the paper's policy, §5.1).
    Comet,
    /// BETA (the Marius baseline policy).
    Beta,
    /// Training-node caching for node classification (§5.2).
    NodeCache,
}

/// Disk-based training configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskConfig {
    /// Replacement / example-assignment policy.
    pub policy: PolicyKind,
    /// Number of physical partitions `p`.
    pub num_partitions: u32,
    /// Buffer capacity `c` in physical partitions.
    pub buffer_capacity: usize,
    /// Number of logical partitions `l` (COMET only; 0 lets the auto-tuning rule
    /// `l = 2p/c` choose).
    pub num_logical: u32,
}

impl DiskConfig {
    /// COMET with the auto-tuning rule for `l`.
    pub fn comet(num_partitions: u32, buffer_capacity: usize) -> Self {
        DiskConfig {
            policy: PolicyKind::Comet,
            num_partitions,
            buffer_capacity,
            num_logical: 0,
        }
    }

    /// BETA with the given partition count and buffer.
    pub fn beta(num_partitions: u32, buffer_capacity: usize) -> Self {
        DiskConfig {
            policy: PolicyKind::Beta,
            num_partitions,
            buffer_capacity,
            num_logical: 0,
        }
    }

    /// The node-classification caching policy.
    pub fn node_cache(num_partitions: u32, buffer_capacity: usize) -> Self {
        DiskConfig {
            policy: PolicyKind::NodeCache,
            num_partitions,
            buffer_capacity,
            num_logical: 0,
        }
    }
}

/// Where base representations live during training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Storage {
    /// The full graph and all representations stay in memory (M-GNN_Mem).
    InMemory,
    /// Out-of-core training over a partitioned on-disk layout (M-GNN_Disk),
    /// driven by the disk configuration's replacement policy.
    Disk(DiskConfig),
}

/// The persisted description of a run: everything a checkpoint manifest
/// records so a later process can rebuild the run bit-exactly, and nothing
/// else. The trainer, the `marius::Session` builder and a loaded checkpoint
/// all hold one of these; its manifest codec lives in [`crate::checkpoint`].
/// Runtime attachments that do not describe the run (fault injector, retry
/// policy, telemetry) travel separately in a [`marius_storage::IoEnv`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// `Task::slug` of the task the run trains (checked on resume).
    pub task: String,
    /// Model architecture.
    pub model: ModelConfig,
    /// Batch/epoch configuration (including the total epoch target).
    pub train: TrainConfig,
    /// Where base representations live; selects the executor.
    pub storage: Storage,
    /// Staged-runtime configuration for disk-based training; disabled runs
    /// the steps in order on the calling thread.
    pub pipeline: PipelineConfig,
    /// Evaluate the task metric every `eval_every` epochs (and always after
    /// the final epoch). `0` and `1` both evaluate every epoch. Skipped epochs
    /// report `metric = f64::NAN`. Note that evaluation consumes RNG draws, so
    /// changing the cadence changes subsequent epochs' trajectories.
    pub eval_every: usize,
    /// Checkpoint cadence in epochs, for runs that checkpoint (the final
    /// epoch is always flushed).
    pub checkpoint_every: usize,
    /// When set, the run's partition store emulates this device (reads and
    /// writes sleep to the modeled transfer time) instead of running at
    /// page-cache speed, and `EpochReport::io_time` is the device time it
    /// charged (zero when unset).
    /// Persisted so a resumed run continues under the same IO regime.
    pub emulated_device: Option<IoCostModel>,
}

impl Default for RunConfig {
    /// In memory, sequential, evaluated and checkpointed every epoch, on the
    /// raw device — with a zero-width placeholder model that
    /// `marius::SessionBuilder::build` rejects until a real one is set.
    fn default() -> Self {
        RunConfig {
            task: String::new(),
            model: ModelConfig::paper_distmult(0),
            train: TrainConfig::default(),
            storage: Storage::InMemory,
            pipeline: PipelineConfig::disabled(),
            eval_every: 1,
            checkpoint_every: 1,
            emulated_device: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ModelConfig {
        /// The paper's link-prediction GAT configuration: one layer, 10 incoming
        /// neighbours (§7.1).
        pub(crate) fn paper_link_prediction_gat(embedding_dim: usize) -> Self {
            ModelConfig {
                encoder: EncoderKind::Gat,
                num_layers: 1,
                hidden_dim: embedding_dim,
                output_dim: embedding_dim,
                input_dim: embedding_dim,
                fanouts: vec![10],
                direction: SamplingDirection::Incoming,
                learning_rate: 0.01,
                embedding_learning_rate: 0.1,
            }
        }
    }

    #[test]
    fn paper_configurations_match_section_7_1() {
        let nc = ModelConfig::paper_node_classification(128, 256);
        assert_eq!(nc.num_layers, 3);
        assert_eq!(nc.fanouts, vec![30, 20, 10]);
        assert_eq!(nc.direction, SamplingDirection::Both);

        let gs = ModelConfig::paper_link_prediction_graphsage(100);
        assert_eq!(gs.num_layers, 1);
        assert_eq!(gs.fanouts, vec![20]);

        let gat = ModelConfig::paper_link_prediction_gat(100);
        assert_eq!(gat.encoder, EncoderKind::Gat);
        assert_eq!(gat.fanouts, vec![10]);
        assert_eq!(gat.direction, SamplingDirection::Incoming);

        let dm = ModelConfig::paper_distmult(50);
        assert_eq!(dm.encoder, EncoderKind::None);
        assert!(dm.fanouts.is_empty());
    }

    #[test]
    fn shrunk_keeps_architecture() {
        let m = ModelConfig::paper_node_classification(128, 256).shrunk(5, 16);
        assert_eq!(m.num_layers, 3);
        assert_eq!(m.fanouts, vec![5, 5, 5]);
        assert_eq!(m.hidden_dim, 16);
    }

    #[test]
    fn train_config_defaults() {
        let c = TrainConfig::default();
        assert_eq!(c.epochs, 10);
        assert_eq!(c.num_negatives, 500);
        let q = TrainConfig::quick(2, 7);
        assert_eq!(q.epochs, 2);
        assert_eq!(q.seed, 7);
    }

    #[test]
    fn disk_config_constructors() {
        assert_eq!(DiskConfig::comet(16, 4).policy, PolicyKind::Comet);
        assert_eq!(DiskConfig::beta(16, 4).policy, PolicyKind::Beta);
        assert_eq!(DiskConfig::node_cache(8, 4).policy, PolicyKind::NodeCache);
    }
}

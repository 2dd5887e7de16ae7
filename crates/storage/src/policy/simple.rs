//! Trivial policies: full in-memory training and the node-classification
//! training-node caching policy (§5.2).

use super::{EpochPlan, ReplacementPolicy};
use crate::{Result, StorageError};
use marius_graph::PartitionId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Keeps every partition in memory for the whole epoch: a single `S₁` containing
/// the entire graph and a single `X₁` with every bucket (the paper's
/// M-GNN_Mem configuration).
#[derive(Debug, Clone, Default)]
pub struct InMemoryPolicy;

impl ReplacementPolicy for InMemoryPolicy {
    fn plan<R: Rng + ?Sized>(&self, num_partitions: u32, _rng: &mut R) -> Result<EpochPlan> {
        let set: Vec<PartitionId> = (0..num_partitions).collect();
        let mut buckets = Vec::with_capacity((num_partitions as usize).pow(2));
        for i in 0..num_partitions {
            for j in 0..num_partitions {
                buckets.push((i, j));
            }
        }
        Ok(EpochPlan {
            partition_sets: vec![set],
            bucket_assignment: vec![buckets],
        })
    }

    fn name(&self) -> &'static str {
        "in-memory"
    }
}

/// The node-classification disk policy (§5.2): the `k` partitions holding all
/// training nodes stay cached in CPU memory for the entire epoch, the remaining
/// buffer slots are filled with randomly chosen other partitions, and no swaps
/// happen during the epoch (IO only occurs between epochs when the random
/// partitions are re-drawn).
#[derive(Debug, Clone)]
pub struct NodeCachePolicy {
    /// Buffer capacity in physical partitions.
    pub buffer_capacity: usize,
    /// Number of leading partitions that contain training nodes (the `k` of
    /// §5.2, produced by `Partitioner::training_nodes_first`).
    pub(crate) num_train_partitions: u32,
}

impl NodeCachePolicy {
    /// Creates the caching policy.
    pub fn new(buffer_capacity: usize, num_train_partitions: u32) -> Self {
        NodeCachePolicy {
            buffer_capacity,
            num_train_partitions,
        }
    }
}

impl ReplacementPolicy for NodeCachePolicy {
    fn plan<R: Rng + ?Sized>(&self, num_partitions: u32, rng: &mut R) -> Result<EpochPlan> {
        if self.num_train_partitions as usize > self.buffer_capacity {
            return Err(StorageError::InvalidPlan {
                reason: format!(
                    "training nodes span {} partitions but the buffer holds only {}; \
                     fall back to COMET-style replacement",
                    self.num_train_partitions, self.buffer_capacity
                ),
            });
        }
        // Training partitions always resident; fill the rest randomly.
        let mut set: Vec<PartitionId> =
            (0..self.num_train_partitions.min(num_partitions)).collect();
        let mut others: Vec<PartitionId> = (self.num_train_partitions..num_partitions).collect();
        others.shuffle(rng);
        let extra = self
            .buffer_capacity
            .saturating_sub(set.len())
            .min(others.len());
        set.extend_from_slice(&others[..extra]);

        // The single X contains every bucket between resident partitions; buckets
        // involving non-resident partitions contribute no training nodes (they
        // only matter for neighbourhood sampling, which is truncated to memory).
        let mut buckets = Vec::new();
        for &i in &set {
            for &j in &set {
                buckets.push((i, j));
            }
        }
        Ok(EpochPlan {
            partition_sets: vec![set],
            bucket_assignment: vec![buckets],
        })
    }

    fn name(&self) -> &'static str {
        "node-cache"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn in_memory_policy_single_complete_set() {
        let mut rng = StdRng::seed_from_u64(1);
        let plan = InMemoryPolicy.plan(5, &mut rng).unwrap();
        assert_eq!(plan.num_sets(), 1);
        assert_eq!(plan.buckets_per_step(), [25]);
        plan.validate(5, 5).unwrap();
        assert_eq!(InMemoryPolicy.name(), "in-memory");
    }

    #[test]
    fn node_cache_keeps_training_partitions_resident_with_zero_swaps() {
        let mut rng = StdRng::seed_from_u64(2);
        let policy = NodeCachePolicy::new(4, 2);
        let plan = policy.plan(10, &mut rng).unwrap();
        assert_eq!(plan.num_sets(), 1);
        let set = &plan.partition_sets[0];
        assert_eq!(set.len(), 4);
        assert!(set.contains(&0) && set.contains(&1));
        // Zero swaps during the epoch: only the initial load.
        assert_eq!(plan.partition_loads(), 4);
        assert_eq!(policy.name(), "node-cache");
    }

    #[test]
    fn node_cache_random_partitions_differ_between_epochs() {
        let policy = NodeCachePolicy::new(4, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let a = policy.plan(20, &mut rng).unwrap();
        let b = policy.plan(20, &mut rng).unwrap();
        assert_ne!(a.partition_sets, b.partition_sets);
        // Training partition 0 is in both.
        assert!(a.partition_sets[0].contains(&0));
        assert!(b.partition_sets[0].contains(&0));
    }

    #[test]
    fn node_cache_rejects_training_set_larger_than_buffer() {
        let mut rng = StdRng::seed_from_u64(4);
        let policy = NodeCachePolicy::new(2, 5);
        assert!(policy.plan(10, &mut rng).is_err());
    }

    #[test]
    fn node_cache_with_buffer_covering_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let policy = NodeCachePolicy::new(10, 3);
        let plan = policy.plan(6, &mut rng).unwrap();
        assert_eq!(plan.partition_sets[0].len(), 6);
        plan.validate(6, 10).unwrap();
    }
}

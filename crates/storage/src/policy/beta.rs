//! The BETA policy (Buffer-aware Edge Traversal Algorithm) from Marius.
//!
//! BETA greedily minimises IO: every new buffer state immediately trains on all
//! edge buckets that became available when its new partition arrived. This is the
//! state-of-the-art baseline the paper compares COMET against (Table 8). The
//! greedy assignment is exactly what produces correlated training examples: every
//! `Xᵢ` (after the first) consists solely of buckets touching the newly loaded
//! partition (Figure 4), which is why the learned GNNs lose accuracy.

use super::{greedy_pair_coverage, EpochPlan, ReplacementPolicy};
use crate::Result;
use marius_graph::PartitionId;
use rand::Rng;
use std::collections::HashSet;

/// The greedy BETA replacement policy.
#[derive(Debug, Clone)]
pub struct BetaPolicy {
    /// Buffer capacity in physical partitions.
    pub buffer_capacity: usize,
}

impl BetaPolicy {
    /// Creates a BETA policy for a buffer of `buffer_capacity` physical partitions.
    pub fn new(buffer_capacity: usize) -> Self {
        BetaPolicy { buffer_capacity }
    }
}

impl ReplacementPolicy for BetaPolicy {
    fn plan<R: Rng + ?Sized>(&self, num_partitions: u32, rng: &mut R) -> Result<EpochPlan> {
        let sets = greedy_pair_coverage(num_partitions, self.buffer_capacity, rng)?;
        // Greedy immediate assignment: each bucket goes to the FIRST set in which
        // both of its partitions are resident.
        let mut assigned: HashSet<(PartitionId, PartitionId)> = HashSet::new();
        let mut bucket_assignment = Vec::with_capacity(sets.len());
        for set in &sets {
            let mut buckets = Vec::new();
            for &i in set {
                for &j in set {
                    if assigned.insert((i, j)) {
                        buckets.push((i, j));
                    }
                }
            }
            bucket_assignment.push(buckets);
        }
        Ok(EpochPlan {
            partition_sets: sets,
            bucket_assignment,
        })
    }

    fn name(&self) -> &'static str {
        "beta"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn beta_plan_is_valid_for_various_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        for (p, c) in [(4u32, 2usize), (8, 4), (12, 3), (16, 4)] {
            let plan = BetaPolicy::new(c).plan(p, &mut rng).unwrap();
            plan.validate(p, c).unwrap();
        }
    }

    #[test]
    fn beta_first_set_gets_the_bulk_of_buckets() {
        // The greedy assignment processes all c² buckets of the initial buffer at
        // once, then only the new-partition buckets per swap — the unbalanced
        // workload Figure 4 illustrates.
        let mut rng = StdRng::seed_from_u64(2);
        let (p, c) = (8u32, 4usize);
        let plan = BetaPolicy::new(c).plan(p, &mut rng).unwrap();
        let per_step = plan.buckets_per_step();
        assert_eq!(per_step[0], c * c);
        // Later steps are much smaller (at most 2c - 1 buckets each).
        for &b in &per_step[1..] {
            assert!(b < 2 * c || b == 0, "step had {b} buckets");
        }
    }

    #[test]
    fn beta_later_steps_are_correlated_with_the_new_partition() {
        let mut rng = StdRng::seed_from_u64(3);
        let (p, c) = (8u32, 4usize);
        let plan = BetaPolicy::new(c).plan(p, &mut rng).unwrap();
        for (step, buckets) in plan.bucket_assignment.iter().enumerate().skip(1) {
            if buckets.is_empty() {
                continue;
            }
            // The newly arrived partition is the one not present in the previous set.
            let prev: HashSet<_> = plan.partition_sets[step - 1].iter().copied().collect();
            let new: Vec<_> = plan.partition_sets[step]
                .iter()
                .copied()
                .filter(|x| !prev.contains(x))
                .collect();
            assert_eq!(new.len(), 1);
            let fresh = new[0];
            // Every bucket in this step touches the fresh partition (the
            // correlation the paper describes).
            for &(i, j) in buckets {
                assert!(i == fresh || j == fresh);
            }
        }
    }

    #[test]
    fn beta_name() {
        assert_eq!(BetaPolicy::new(4).name(), "beta");
    }

    #[test]
    fn beta_single_set_when_graph_fits() {
        let mut rng = StdRng::seed_from_u64(4);
        let plan = BetaPolicy::new(8).plan(4, &mut rng).unwrap();
        assert_eq!(plan.num_sets(), 1);
        assert_eq!(plan.buckets_per_step(), [16]);
        plan.validate(4, 8).unwrap();
    }
}

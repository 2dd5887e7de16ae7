//! Partition replacement and mini-batch assignment policies (paper §5).
//!
//! A policy produces an [`EpochPlan`]: the sequence `S = {S₁, S₂, ...}` of
//! partition sets to hold in the buffer during one epoch, and the sequence
//! `X = {X₁, X₂, ...}` assigning every edge bucket (training examples) to exactly
//! one of those sets. The plan must satisfy two invariants that every policy test
//! checks through [`EpochPlan::validate`]:
//!
//! 1. every bucket `(i, j)` with `i, j < p` is assigned to exactly one `Xᵢ`, and
//! 2. the set `Sᵢ` it is assigned to contains both of its partitions.
//!
//! The difference between policies is how much **correlation** the resulting
//! example order exhibits (quantified by [`crate::tuning::edge_permutation_bias`])
//! and how much IO the sequence of sets costs.

mod beta;
mod comet;
mod simple;

pub use beta::BetaPolicy;
pub use comet::CometPolicy;
pub use simple::{InMemoryPolicy, NodeCachePolicy};

use crate::{Result, StorageError};
use marius_graph::PartitionId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// The per-epoch schedule produced by a replacement policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPlan {
    /// `Sᵢ`: physical partitions resident in the buffer for step `i`.
    pub partition_sets: Vec<Vec<PartitionId>>,
    /// `Xᵢ`: edge buckets whose training examples are processed during step `i`.
    pub bucket_assignment: Vec<Vec<(PartitionId, PartitionId)>>,
}

impl EpochPlan {
    /// Number of partition sets (the "number of subgraphs" series of Figure 6b).
    pub fn num_sets(&self) -> usize {
        self.partition_sets.len()
    }

    /// Total number of partition loads from disk across the epoch: the initial
    /// fill plus every partition that enters the buffer on a swap.
    pub fn partition_loads(&self) -> usize {
        let mut loads = 0usize;
        let mut previous: HashSet<PartitionId> = HashSet::new();
        for set in &self.partition_sets {
            loads += set.iter().filter(|p| !previous.contains(p)).count();
            previous = set.iter().copied().collect();
        }
        loads
    }

    /// Number of training-example buckets per step (workload balance diagnostic;
    /// COMET's deferred assignment makes these roughly equal, §5.1).
    pub fn buckets_per_step(&self) -> Vec<usize> {
        self.bucket_assignment.iter().map(|x| x.len()).collect()
    }

    /// Checks the plan's invariants for a graph with `num_partitions` physical
    /// partitions and a buffer of `capacity` physical partitions.
    pub fn validate(
        &self,
        num_partitions: u32,
        capacity: usize,
    ) -> std::result::Result<(), String> {
        if self.partition_sets.len() != self.bucket_assignment.len() {
            return Err("partition_sets and bucket_assignment lengths differ".into());
        }
        let mut assigned: HashSet<(PartitionId, PartitionId)> = HashSet::new();
        for (set, buckets) in self.partition_sets.iter().zip(&self.bucket_assignment) {
            if set.len() > capacity {
                return Err(format!("set {set:?} exceeds buffer capacity {capacity}"));
            }
            let resident: HashSet<PartitionId> = set.iter().copied().collect();
            if resident.len() != set.len() {
                return Err(format!("set {set:?} contains duplicate partitions"));
            }
            for &(i, j) in buckets {
                if !resident.contains(&i) || !resident.contains(&j) {
                    return Err(format!(
                        "bucket ({i},{j}) assigned to a set not containing both partitions"
                    ));
                }
                if !assigned.insert((i, j)) {
                    return Err(format!("bucket ({i},{j}) assigned more than once"));
                }
            }
        }
        for i in 0..num_partitions {
            for j in 0..num_partitions {
                if !assigned.contains(&(i, j)) {
                    return Err(format!("bucket ({i},{j}) never assigned"));
                }
            }
        }
        Ok(())
    }
}

/// A replacement policy that schedules one training epoch.
pub trait ReplacementPolicy {
    /// Produces the epoch plan for a graph partitioned into `num_partitions`
    /// physical partitions.
    fn plan<R: Rng + ?Sized>(&self, num_partitions: u32, rng: &mut R) -> Result<EpochPlan>;

    /// Short policy name used in experiment reports.
    fn name(&self) -> &'static str;
}

/// Greedy single-swap sequence of buffer states covering all ordered pairs of
/// `0..n` items with a buffer of `capacity` items (shared by BETA at the physical
/// level and COMET at the logical level).
///
/// Returns the sequence of buffer states; the first state is a random selection
/// of `capacity` items, and each subsequent state swaps exactly one item chosen
/// to maximise the number of not-yet-covered pairs.
pub(crate) fn greedy_pair_coverage<R: Rng + ?Sized>(
    n: u32,
    capacity: usize,
    rng: &mut R,
) -> Result<Vec<Vec<u32>>> {
    if capacity < 2 && n > 1 {
        return Err(StorageError::InvalidPlan {
            reason: format!("buffer capacity {capacity} cannot cover pairs of {n} partitions"),
        });
    }
    if n == 0 {
        return Ok(vec![]);
    }
    let mut items: Vec<u32> = (0..n).collect();
    items.shuffle(rng);
    if capacity as u32 >= n {
        return Ok(vec![items]);
    }

    let mut covered: HashSet<(u32, u32)> = HashSet::new();
    let mark = |set: &[u32], covered: &mut HashSet<(u32, u32)>| {
        for &a in set {
            for &b in set {
                covered.insert((a, b));
            }
        }
    };

    let mut current: Vec<u32> = items[..capacity].to_vec();
    let mut outside: Vec<u32> = items[capacity..].to_vec();
    mark(&current, &mut covered);
    let mut sets = vec![current.clone()];

    let total_pairs = (n as usize) * (n as usize);
    while covered.len() < total_pairs {
        // Pick the (incoming, evicted) swap that uncovers the most new pairs.
        let mut best: Option<(usize, usize, usize)> = None; // (new_pairs, outside_idx, evict_idx)
        for (oi, &cand) in outside.iter().enumerate() {
            for evict_idx in 0..current.len() {
                let mut new_pairs = 0usize;
                for (ci, &q) in current.iter().enumerate() {
                    if ci == evict_idx {
                        continue;
                    }
                    if !covered.contains(&(cand, q)) {
                        new_pairs += 1;
                    }
                    if !covered.contains(&(q, cand)) {
                        new_pairs += 1;
                    }
                }
                if !covered.contains(&(cand, cand)) {
                    new_pairs += 1;
                }
                match best {
                    None => best = Some((new_pairs, oi, evict_idx)),
                    Some((b, _, _)) if new_pairs > b => best = Some((new_pairs, oi, evict_idx)),
                    _ => {}
                }
            }
        }
        // `capacity ≥ 2` and `n > capacity` leave both sets non-empty.
        let Some((_, oi, evict_idx)) = best else {
            return Err(StorageError::InvalidPlan {
                reason: "greedy cover found no swap while pairs remain".into(),
            });
        };
        // A swap that uncovers nothing (every remaining pair lies between two
        // outside items) is still taken: the swapped-in item pairs with
        // future arrivals, so the loop terminates.
        let cand = outside.swap_remove(oi);
        let evicted = std::mem::replace(&mut current[evict_idx], cand);
        outside.push(evicted);
        mark(&current, &mut covered);
        sets.push(current.clone());
    }
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_pairs_covered(sets: &[Vec<u32>], n: u32) -> bool {
        let mut covered = HashSet::new();
        for s in sets {
            for &a in s {
                for &b in s {
                    covered.insert((a, b));
                }
            }
        }
        (0..n).all(|i| (0..n).all(|j| covered.contains(&(i, j))))
    }

    #[test]
    fn greedy_coverage_covers_all_pairs() {
        let mut rng = StdRng::seed_from_u64(1);
        for (n, c) in [(4u32, 2usize), (8, 2), (8, 4), (12, 3), (16, 4)] {
            let sets = greedy_pair_coverage(n, c, &mut rng).unwrap();
            assert!(all_pairs_covered(&sets, n), "n={n} c={c}");
            for s in &sets {
                assert_eq!(s.len(), c.min(n as usize));
            }
        }
    }

    #[test]
    fn greedy_coverage_single_set_when_everything_fits() {
        let mut rng = StdRng::seed_from_u64(2);
        let sets = greedy_pair_coverage(4, 8, &mut rng).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 4);
    }

    #[test]
    fn greedy_coverage_swaps_one_partition_per_step() {
        let mut rng = StdRng::seed_from_u64(3);
        let sets = greedy_pair_coverage(10, 4, &mut rng).unwrap();
        for w in sets.windows(2) {
            let a: HashSet<_> = w[0].iter().collect();
            let b: HashSet<_> = w[1].iter().collect();
            let entered = b.difference(&a).count();
            assert_eq!(entered, 1, "each step must bring in exactly one partition");
        }
    }

    #[test]
    fn greedy_coverage_io_near_lower_bound() {
        // Marius's analysis: total loads for covering all pairs with a buffer of
        // c is Θ(p²/c); check we are within a small constant of p²/(2c) + c.
        let mut rng = StdRng::seed_from_u64(4);
        let (p, c) = (16u32, 4usize);
        let sets = greedy_pair_coverage(p, c, &mut rng).unwrap();
        let loads = c + sets.len() - 1;
        let lower_bound = (p as usize * p as usize) / (2 * c);
        assert!(
            loads <= 2 * lower_bound + c,
            "loads {loads} should be close to the lower bound {lower_bound}"
        );
    }

    #[test]
    fn greedy_coverage_rejects_capacity_one() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(greedy_pair_coverage(4, 1, &mut rng).is_err());
    }

    #[test]
    fn greedy_coverage_empty_and_single() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(greedy_pair_coverage(0, 4, &mut rng).unwrap().is_empty());
        let one = greedy_pair_coverage(1, 1, &mut rng).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn epoch_plan_validation_catches_problems() {
        // Missing bucket.
        let plan = EpochPlan {
            partition_sets: vec![vec![0, 1]],
            bucket_assignment: vec![vec![(0, 0), (0, 1), (1, 0)]],
        };
        assert!(plan.validate(2, 2).is_err());
        // Complete plan passes.
        let plan = EpochPlan {
            partition_sets: vec![vec![0, 1]],
            bucket_assignment: vec![vec![(0, 0), (0, 1), (1, 0), (1, 1)]],
        };
        assert!(plan.validate(2, 2).is_ok());
        // Bucket assigned to a set missing one endpoint.
        let plan = EpochPlan {
            partition_sets: vec![vec![0, 1], vec![1, 2]],
            bucket_assignment: vec![
                vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)],
                vec![(1, 2), (2, 1), (0, 2), (2, 0)],
            ],
        };
        assert!(plan.validate(3, 2).is_err());
        // Duplicate assignment.
        let plan = EpochPlan {
            partition_sets: vec![vec![0, 1], vec![0, 1]],
            bucket_assignment: vec![vec![(0, 0), (0, 1), (1, 0), (1, 1)], vec![(0, 0)]],
        };
        assert!(plan.validate(2, 2).is_err());
        // Capacity violation.
        let plan = EpochPlan {
            partition_sets: vec![vec![0, 1, 2]],
            bucket_assignment: vec![vec![]],
        };
        assert!(plan.validate(3, 2).is_err());
    }

    #[test]
    fn epoch_plan_partition_loads_counts_swaps() {
        let plan = EpochPlan {
            partition_sets: vec![vec![0, 1, 2], vec![0, 1, 3], vec![1, 3, 4]],
            bucket_assignment: vec![vec![], vec![], vec![]],
        };
        // 3 initial + 1 (partition 3) + 1 (partition 4) = 5.
        assert_eq!(plan.partition_loads(), 5);
        assert_eq!(plan.num_sets(), 3);
    }
}

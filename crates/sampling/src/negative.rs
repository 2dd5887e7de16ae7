//! Negative sampling and the ranking protocol for link prediction.
//!
//! MariusGNN (like Marius and PyTorch-BigGraph before it) trains link prediction
//! with a contrastive objective: every positive edge in a mini batch is scored
//! against a set of *negative* node corruptions, and the model is pushed to rank
//! the true edge above the corruptions. Evaluation uses the same machinery: the
//! MRR reported throughout the paper is the mean reciprocal rank of the true
//! destination among sampled corruptions.

use marius_graph::NodeId;
use rand::Rng;

/// Uniform negative sampler over a node-id universe.
///
/// Negatives are shared across the mini batch (one pool of `num_negatives` nodes
/// scored against every positive), matching how Marius-style systems batch the
/// negative computation into a single dense matrix multiply.
#[derive(Debug, Clone)]
pub struct NegativeSampler {
    num_negatives: usize,
}

impl NegativeSampler {
    /// Creates a sampler producing `num_negatives` corruptions per mini batch.
    pub fn new(num_negatives: usize) -> Self {
        NegativeSampler { num_negatives }
    }

    /// Number of negatives produced per batch.
    pub fn num_negatives(&self) -> usize {
        self.num_negatives
    }

    /// Samples a shared pool of negative node ids uniformly from the candidate
    /// universe `candidates` (typically the nodes currently in CPU memory, so
    /// that disk-based training never needs representations that are not
    /// resident).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty and `num_negatives > 0`.
    pub fn sample_pool<R: Rng + ?Sized>(&self, candidates: &[NodeId], rng: &mut R) -> Vec<NodeId> {
        assert!(
            self.num_negatives == 0 || !candidates.is_empty(),
            "cannot sample negatives from an empty candidate set"
        );
        (0..self.num_negatives)
            .map(|_| candidates[rng.gen_range(0..candidates.len())])
            .collect()
    }

    /// Samples a shared pool of negatives from the contiguous universe
    /// `0..num_nodes` (used when the full graph is in memory).
    pub fn sample_pool_range<R: Rng + ?Sized>(&self, num_nodes: u64, rng: &mut R) -> Vec<NodeId> {
        assert!(
            self.num_negatives == 0 || num_nodes > 0,
            "cannot sample negatives from an empty universe"
        );
        (0..self.num_negatives)
            .map(|_| rng.gen_range(0..num_nodes))
            .collect()
    }
}

/// Ranking-based evaluation (MRR) for link prediction.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankingProtocol;

impl RankingProtocol {
    /// Rank of the positive among the negatives: `1 +` the number of negatives
    /// with a score strictly greater than the positive, plus half the ties
    /// (the "realistic" tie-breaking used by OGB evaluators, rounded down).
    pub fn rank(positive_score: f32, negative_scores: &[f32]) -> usize {
        let higher = negative_scores
            .iter()
            .filter(|&&s| s > positive_score)
            .count();
        let ties = negative_scores
            .iter()
            .filter(|&&s| s == positive_score)
            .count();
        1 + higher + ties / 2
    }

    /// Reciprocal rank of a single positive.
    pub fn reciprocal_rank(positive_score: f32, negative_scores: &[f32]) -> f64 {
        1.0 / Self::rank(positive_score, negative_scores) as f64
    }

    /// Mean reciprocal rank over a batch: `positives[i]` is scored against
    /// `negatives[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn mrr(positives: &[f32], negatives: &[Vec<f32>]) -> f64 {
        assert_eq!(positives.len(), negatives.len(), "score length mismatch");
        if positives.is_empty() {
            return 0.0;
        }
        let total: f64 = positives
            .iter()
            .zip(negatives.iter())
            .map(|(&p, n)| Self::reciprocal_rank(p, n))
            .sum();
        total / positives.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampler_produces_requested_count() {
        let sampler = NegativeSampler::new(100);
        let mut rng = StdRng::seed_from_u64(1);
        let candidates: Vec<NodeId> = (10..20).collect();
        let pool = sampler.sample_pool(&candidates, &mut rng);
        assert_eq!(pool.len(), 100);
        assert!(pool.iter().all(|n| candidates.contains(n)));
    }

    #[test]
    fn sampler_range_stays_in_bounds() {
        let sampler = NegativeSampler::new(1000);
        let mut rng = StdRng::seed_from_u64(2);
        let pool = sampler.sample_pool_range(7, &mut rng);
        assert!(pool.iter().all(|&n| n < 7));
        // All residues should appear with 1000 draws over 7 values.
        let mut seen = pool.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn zero_negatives_allowed_with_empty_candidates() {
        let sampler = NegativeSampler::new(0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sampler.sample_pool(&[], &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty candidate set")]
    fn nonzero_negatives_with_empty_candidates_panics() {
        let sampler = NegativeSampler::new(5);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = sampler.sample_pool(&[], &mut rng);
    }

    #[test]
    fn rank_counts_higher_scores() {
        assert_eq!(RankingProtocol::rank(0.9, &[0.1, 0.2, 0.3]), 1);
        assert_eq!(RankingProtocol::rank(0.1, &[0.5, 0.6]), 3);
        assert_eq!(RankingProtocol::rank(0.5, &[0.5, 0.5, 0.1]), 2); // 1 + 0 + 2/2
    }

    #[test]
    fn reciprocal_rank_is_inverse() {
        assert!((RankingProtocol::reciprocal_rank(1.0, &[0.0]) - 1.0).abs() < 1e-12);
        assert!((RankingProtocol::reciprocal_rank(0.0, &[1.0, 2.0, 3.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mrr_of_perfect_model_is_one() {
        let pos = vec![10.0, 10.0, 10.0];
        let negs = vec![vec![0.0; 50]; 3];
        assert!((RankingProtocol::mrr(&pos, &negs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mrr_of_random_scores_is_low() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 200;
        let negs: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..99).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let pos: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mrr = RankingProtocol::mrr(&pos, &negs);
        // Expected MRR of a random ranker over 100 candidates is about 0.052.
        assert!(mrr < 0.15, "random MRR unexpectedly high: {mrr}");
        assert!(mrr > 0.01);
    }

    #[test]
    fn mrr_empty_is_zero() {
        assert_eq!(RankingProtocol::mrr(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mrr_length_mismatch_panics() {
        let _ = RankingProtocol::mrr(&[1.0], &[]);
    }
}

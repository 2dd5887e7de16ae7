//! Deterministic zipfian query workloads for serving tests and benches.
//!
//! Real embedding-serving traffic is heavily skewed — a few hub entities
//! absorb most queries — which is exactly the regime where a hot-partition
//! read cache pays off. [`ZipfWorkload`] reproduces that skew from a seed:
//! node draws follow `P(rank r) ∝ (r + 1)^{-exponent}` with rank equal to
//! node id, and the draw sequence is a pure function of `(num_nodes,
//! num_relations, exponent, seed)`, so two runs over the same workload issue
//! bit-identical query streams.

use marius_graph::{NodeId, RelId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded zipfian query generator.
#[derive(Debug, Clone)]
pub struct ZipfWorkload {
    /// Cumulative distribution over node ranks; `cdf[n]` is the probability
    /// of drawing a rank `<= n`, with the final entry exactly 1.
    cdf: Vec<f64>,
    num_relations: u32,
    rng: StdRng,
}

impl ZipfWorkload {
    /// Builds a workload over `num_nodes` nodes and `num_relations` relation
    /// types with the given skew `exponent` (0 = uniform; 1 = classic zipf).
    pub fn new(num_nodes: u64, num_relations: u32, exponent: f64, seed: u64) -> Self {
        assert!(num_nodes > 0, "workload needs at least one node");
        let mut cdf = Vec::with_capacity(num_nodes as usize);
        let mut acc = 0.0f64;
        for rank in 0..num_nodes {
            acc += (rank as f64 + 1.0).powf(-exponent);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfWorkload {
            cdf,
            num_relations: num_relations.max(1),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws a zipf-distributed node id (low ids are hot).
    pub fn next_node(&mut self) -> NodeId {
        let u: f64 = self.rng.gen();
        self.cdf.partition_point(|&c| c < u) as NodeId
    }

    /// Draws a uniformly distributed relation id.
    pub fn next_relation(&mut self) -> RelId {
        self.rng.gen_range(0..self.num_relations)
    }

    /// Draws one `(source, relation, destination)` query triple: zipfian
    /// endpoints, uniform relation.
    pub fn next_triple(&mut self) -> (NodeId, RelId, NodeId) {
        let src = self.next_node();
        let rel = self.next_relation();
        let dst = self.next_node();
        (src, rel, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_identical_streams() {
        let mut a = ZipfWorkload::new(500, 11, 1.0, 42);
        let mut b = ZipfWorkload::new(500, 11, 1.0, 42);
        for _ in 0..200 {
            assert_eq!(a.next_triple(), b.next_triple());
        }
    }

    #[test]
    fn skewed_draws_prefer_low_node_ids() {
        let mut w = ZipfWorkload::new(1000, 1, 1.2, 7);
        let draws: Vec<NodeId> = (0..2000).map(|_| w.next_node()).collect();
        let low = draws.iter().filter(|&&n| n < 100).count();
        let high = draws.iter().filter(|&&n| n >= 900).count();
        assert!(
            low > 5 * high.max(1),
            "zipf skew missing: {low} low vs {high} high"
        );
        assert!(draws.iter().all(|&n| n < 1000));
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let mut w = ZipfWorkload::new(10, 3, 0.0, 9);
        let mut seen = [0usize; 10];
        for _ in 0..5000 {
            seen[w.next_node() as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 300), "{seen:?}");
        assert!(w.next_relation() < 3);
    }
}

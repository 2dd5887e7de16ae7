//! Decoders: the DistMult score function for link prediction and a linear
//! classification head for node classification (paper §2).

use crate::optimizer::Param;
use marius_graph::RelId;
use marius_tensor::{glorot_uniform, uniform_init, Tensor};
use rand::Rng;

/// The DistMult knowledge-graph score function
/// `score(s, r, o) = Σ_d s_d · r_d · o_d` with learnable relation embeddings.
///
/// Used both as the link-prediction decoder on top of GNN outputs (Tables 4, 5)
/// and as the stand-alone "specialised knowledge graph embedding model" compared
/// in Table 8 (a zero-layer encoder).
#[derive(Debug)]
pub struct DistMult {
    relations: Param,
    dim: usize,
}

impl DistMult {
    /// Creates a DistMult decoder with `num_relations` learnable relation vectors
    /// of dimension `dim`.
    pub fn new<R: Rng + ?Sized>(num_relations: usize, dim: usize, rng: &mut R) -> Self {
        DistMult {
            relations: Param::new(
                "distmult.relations",
                uniform_init(rng, num_relations.max(1), dim, 0.5),
            ),
            dim,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.value.rows()
    }

    /// The relation-embedding parameter (for the optimizer).
    pub fn relation_param_mut(&mut self) -> &mut Param {
        &mut self.relations
    }

    /// The relation-embedding parameter.
    pub fn relation_param(&self) -> &Param {
        &self.relations
    }

    fn gather_relations(&self, rels: &[RelId]) -> Tensor {
        let mut out = Tensor::zeros(rels.len(), self.dim);
        for (i, &r) in rels.iter().enumerate() {
            out.row_mut(i)
                .copy_from_slice(self.relations.value.row(r as usize % self.num_relations()));
        }
        out
    }

    /// Scores positive triples: `src`, `dst` are `(B, dim)` representations and
    /// `rels` the per-triple relation ids. Returns a `(B, 1)` score tensor.
    pub fn score_positive(&self, src: &Tensor, rels: &[RelId], dst: &Tensor) -> Tensor {
        let r = self.gather_relations(rels);
        let sr = src.mul(&r).expect("src/relation dims");
        sr.rowwise_dot(dst).expect("dst dims")
    }

    /// Scores every positive source against a shared pool of negative
    /// destinations: returns a `(B, N)` matrix where entry `(b, n)` is
    /// `score(src_b, rel_b, neg_n)`.
    pub fn score_negatives(&self, src: &Tensor, rels: &[RelId], negatives: &Tensor) -> Tensor {
        let r = self.gather_relations(rels);
        let sr = src.mul(&r).expect("src/relation dims");
        sr.matmul(&negatives.transpose())
    }

    /// The left operand `src ⊙ rel` of a one-source negative score: scoring
    /// it against candidate rows where they lie with
    /// [`marius_tensor::ops::dot_rows`] gives exactly
    /// [`DistMult::score_negatives`]'s row for that source, without the
    /// transpose. Relation ids wrap modulo the relation count, matching
    /// training.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not `dim` values long.
    pub fn query_operand(&self, src: &[f32], rel: RelId) -> Vec<f32> {
        assert_eq!(src.len(), self.dim, "src/relation dims");
        let rel = self
            .relations
            .value
            .row(rel as usize % self.num_relations());
        src.iter().zip(rel).map(|(s, r)| s * r).collect()
    }

    /// Backward pass for positive scores: accumulates relation gradients and
    /// returns `(grad_src, grad_dst)` for an upstream `(B, 1)` gradient.
    pub fn backward_positive(
        &mut self,
        src: &Tensor,
        rels: &[RelId],
        dst: &Tensor,
        grad_scores: &Tensor,
    ) -> (Tensor, Tensor) {
        let r = self.gather_relations(rels);
        let mut grad_src = Tensor::zeros(src.rows(), self.dim);
        let mut grad_dst = Tensor::zeros(dst.rows(), self.dim);
        let mut grad_rel = Tensor::zeros(self.num_relations(), self.dim);
        for b in 0..src.rows() {
            let g = grad_scores.get(b, 0);
            let rel_row = rels[b] as usize % self.num_relations();
            for d in 0..self.dim {
                let s = src.get(b, d);
                let rr = r.get(b, d);
                let o = dst.get(b, d);
                grad_src.set(b, d, g * rr * o);
                grad_dst.set(b, d, g * s * rr);
                let cur = grad_rel.get(rel_row, d);
                grad_rel.set(rel_row, d, cur + g * s * o);
            }
        }
        self.relations.accumulate_grad(&grad_rel);
        (grad_src, grad_dst)
    }

    /// Backward pass for the negative score matrix: accumulates relation
    /// gradients and returns `(grad_src, grad_negatives)` for an upstream
    /// `(B, N)` gradient.
    pub fn backward_negatives(
        &mut self,
        src: &Tensor,
        rels: &[RelId],
        negatives: &Tensor,
        grad_scores: &Tensor,
    ) -> (Tensor, Tensor) {
        let r = self.gather_relations(rels);
        let sr = src.mul(&r).expect("src/relation dims");
        // S = (src ⊙ r) · negᵀ.
        let grad_sr = grad_scores.matmul(negatives); // (B, dim)
        let grad_neg = grad_scores.transpose().matmul(&sr); // (N, dim)
        let grad_src = grad_sr.mul(&r).expect("dims");
        let grad_r_rows = grad_sr.mul(src).expect("dims");
        // Scatter per-row relation gradients into the relation table.
        let mut grad_rel = Tensor::zeros(self.num_relations(), self.dim);
        for b in 0..src.rows() {
            let rel_row = rels[b] as usize % self.num_relations();
            for d in 0..self.dim {
                let cur = grad_rel.get(rel_row, d);
                grad_rel.set(rel_row, d, cur + grad_r_rows.get(b, d));
            }
        }
        self.relations.accumulate_grad(&grad_rel);
        (grad_src, grad_neg)
    }
}

/// A linear classification head: `logits = h · W + b` (the "fully-connected and
/// softmax layer" of paper §2 used for node classification).
#[derive(Debug)]
pub struct ClassifierHead {
    weight: Param,
    bias: Param,
    in_dim: usize,
    num_classes: usize,
}

impl ClassifierHead {
    /// Creates a classification head for `num_classes` classes.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, num_classes: usize, rng: &mut R) -> Self {
        ClassifierHead {
            weight: Param::new(
                "classifier.weight",
                glorot_uniform(rng, in_dim, num_classes),
            ),
            bias: Param::new("classifier.bias", Tensor::zeros(1, num_classes)),
            in_dim,
            num_classes,
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.in_dim
    }

    /// Computes class logits for a batch of node representations.
    pub fn forward(&self, h: &Tensor) -> Tensor {
        h.matmul(&self.weight.value)
            .add_row_broadcast(&self.bias.value)
            .expect("bias dims")
    }

    /// Backward pass: accumulates parameter gradients and returns the gradient
    /// with respect to the input representations.
    pub fn backward(&mut self, h: &Tensor, grad_logits: &Tensor) -> Tensor {
        self.bias.accumulate_grad(&grad_logits.sum_rows());
        self.weight
            .accumulate_grad(&h.transpose().matmul(grad_logits));
        grad_logits.matmul(&self.weight.value.transpose())
    }

    /// The head's parameters, mutably (for the optimizer).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// The head's parameters.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_tensor::ops::dot_rows;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distmult_scores_match_manual_computation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut dm = DistMult::new(2, 3, &mut rng);
        // Make relation 0 the all-ones vector so the score is a plain dot product.
        dm.relations
            .value
            .row_mut(0)
            .copy_from_slice(&[1.0, 1.0, 1.0]);
        let src = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        let dst = Tensor::from_rows(&[&[4.0, 5.0, 6.0]]);
        let s = dm.score_positive(&src, &[0], &dst);
        assert!((s.get(0, 0) - 32.0).abs() < 1e-5);
    }

    #[test]
    fn distmult_negative_scores_shape_and_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dm = DistMult::new(1, 2, &mut rng);
        dm.relations.value.row_mut(0).copy_from_slice(&[1.0, 1.0]);
        let src = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let negs = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[0.0, 3.0]]);
        let s = dm.score_negatives(&src, &[0, 0], &negs);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(1, 2), 3.0);
    }

    /// The in-place (serving) scoring of one source and the general batched
    /// product agree bit for bit, zeros in the source included.
    #[test]
    fn distmult_query_operand_scores_match_the_batched_product() {
        let mut rng = StdRng::seed_from_u64(4);
        let dm = DistMult::new(3, 6, &mut rng);
        let mut src = uniform_init(&mut rng, 2, 6, 1.0);
        src.row_mut(0)[2] = 0.0;
        src.row_mut(0)[4] = -0.0;
        let negs = uniform_init(&mut rng, 11, 6, 1.0);
        let batched = dm.score_negatives(&src, &[5, 1], &negs);
        for (b, rel) in [(0, 5), (1, 1)] {
            let mut single = vec![f32::NAN; negs.rows()];
            dot_rows(&dm.query_operand(src.row(b), rel), negs.data(), &mut single);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&single), bits(batched.row(b)), "source {b}");
        }
    }

    #[test]
    fn distmult_positive_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut dm = DistMult::new(3, 4, &mut rng);
        let src = Tensor::from_rows(&[&[0.1, -0.2, 0.3, 0.4], &[1.0, 0.5, -0.5, 0.2]]);
        let dst = Tensor::from_rows(&[&[0.3, 0.1, 0.2, -0.4], &[-0.2, 0.6, 0.1, 0.9]]);
        let rels = vec![1, 2];
        let grad_scores = Tensor::from_rows(&[&[1.0], &[0.5]]);
        let (g_src, g_dst) = dm.backward_positive(&src, &rels, &dst, &grad_scores);
        let analytic_rel = dm.relations.grad.clone();

        let eps = 1e-3f32;
        let loss = |dm: &DistMult, src: &Tensor, dst: &Tensor| -> f32 {
            let s = dm.score_positive(src, &rels, dst);
            s.get(0, 0) * 1.0 + s.get(1, 0) * 0.5
        };
        for r in 0..2 {
            for d in 0..4 {
                let mut p = src.clone();
                p.set(r, d, p.get(r, d) + eps);
                let mut m = src.clone();
                m.set(r, d, m.get(r, d) - eps);
                let numeric = (loss(&dm, &p, &dst) - loss(&dm, &m, &dst)) / (2.0 * eps);
                assert!((numeric - g_src.get(r, d)).abs() < 1e-2, "src ({r},{d})");

                let mut p = dst.clone();
                p.set(r, d, p.get(r, d) + eps);
                let mut m = dst.clone();
                m.set(r, d, m.get(r, d) - eps);
                let numeric = (loss(&dm, &src, &p) - loss(&dm, &src, &m)) / (2.0 * eps);
                assert!((numeric - g_dst.get(r, d)).abs() < 1e-2, "dst ({r},{d})");
            }
        }
        // Relation gradient for relation 1 (used by row 0 with weight 1.0).
        for d in 0..4 {
            let orig = dm.relations.value.get(1, d);
            dm.relations.value.set(1, d, orig + eps);
            let lp = loss(&dm, &src, &dst);
            dm.relations.value.set(1, d, orig - eps);
            let lm = loss(&dm, &src, &dst);
            dm.relations.value.set(1, d, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic_rel.get(1, d)).abs() < 1e-2,
                "rel (1,{d})"
            );
        }
    }

    #[test]
    fn distmult_negative_gradient_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut dm = DistMult::new(2, 3, &mut rng);
        let src = Tensor::from_rows(&[&[0.2, -0.1, 0.4]]);
        let negs = Tensor::from_rows(&[&[0.1, 0.3, -0.2], &[0.5, 0.2, 0.7]]);
        let rels = vec![1];
        let grad_scores = Tensor::from_rows(&[&[1.0, -0.5]]);
        let (g_src, g_neg) = dm.backward_negatives(&src, &rels, &negs, &grad_scores);

        let loss = |dm: &DistMult, src: &Tensor, negs: &Tensor| -> f32 {
            let s = dm.score_negatives(src, &rels, negs);
            s.get(0, 0) - 0.5 * s.get(0, 1)
        };
        let eps = 1e-3f32;
        for d in 0..3 {
            let mut p = src.clone();
            p.set(0, d, p.get(0, d) + eps);
            let mut m = src.clone();
            m.set(0, d, m.get(0, d) - eps);
            let numeric = (loss(&dm, &p, &negs) - loss(&dm, &m, &negs)) / (2.0 * eps);
            assert!((numeric - g_src.get(0, d)).abs() < 1e-2, "src grad {d}");
        }
        for n in 0..2 {
            for d in 0..3 {
                let mut p = negs.clone();
                p.set(n, d, p.get(n, d) + eps);
                let mut m = negs.clone();
                m.set(n, d, m.get(n, d) - eps);
                let numeric = (loss(&dm, &src, &p) - loss(&dm, &src, &m)) / (2.0 * eps);
                assert!(
                    (numeric - g_neg.get(n, d)).abs() < 1e-2,
                    "neg grad ({n},{d})"
                );
            }
        }
    }

    #[test]
    fn relation_id_out_of_range_wraps() {
        let mut rng = StdRng::seed_from_u64(5);
        let dm = DistMult::new(2, 2, &mut rng);
        let src = Tensor::ones(1, 2);
        let dst = Tensor::ones(1, 2);
        // Relation 7 wraps to 7 % 2 = 1 rather than panicking.
        let s = dm.score_positive(&src, &[7], &dst);
        let expected = dm.score_positive(&src, &[1], &dst);
        assert_eq!(s, expected);
    }

    #[test]
    fn classifier_head_forward_backward() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut head = ClassifierHead::new(3, 4, &mut rng);
        assert_eq!(head.num_classes(), 4);
        assert_eq!(head.input_dim(), 3);
        let h = Tensor::from_rows(&[&[0.5, -0.5, 1.0], &[0.1, 0.2, 0.3]]);
        let logits = head.forward(&h);
        assert_eq!(logits.shape(), (2, 4));

        let grad_logits = Tensor::ones(2, 4);
        let grad_h = head.backward(&h, &grad_logits);
        assert_eq!(grad_h.shape(), (2, 3));

        // Finite-difference check on one weight entry.
        let eps = 1e-3f32;
        let analytic = head.weight.grad.get(1, 2);
        let orig = head.weight.value.get(1, 2);
        head.weight.value.set(1, 2, orig + eps);
        let lp = head.forward(&h).sum();
        head.weight.value.set(1, 2, orig - eps);
        let lm = head.forward(&h).sum();
        head.weight.value.set(1, 2, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - analytic).abs() < 1e-2);
        assert_eq!(head.params().len(), 2);
    }
}

//! Loss functions and their gradients.
//!
//! * [`softmax_cross_entropy`] — multi-class classification loss for node
//!   classification (the "fully connected and softmax layer" of paper §2).
//! * [`ranking_softmax_loss`] — the positive-vs-negatives contrastive loss used
//!   for link prediction: every positive edge is the "true class" in a softmax
//!   over `[positive, negative_1, ..., negative_N]`, the objective used by
//!   Marius-style systems with shared negative pools.

use marius_tensor::Tensor;

/// Result of a classification loss computation.
#[derive(Debug, Clone)]
pub struct ClassificationLoss {
    /// Mean cross-entropy loss over the batch.
    pub loss: f64,
    /// Gradient with respect to the logits (already divided by the batch size).
    pub grad_logits: Tensor,
}

/// Softmax cross-entropy over `(B, C)` logits with integer labels.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[u32]) -> ClassificationLoss {
    assert_eq!(logits.rows(), labels.len(), "label count mismatch");
    let batch = logits.rows().max(1);
    let probs = logits.softmax_rows();
    let log_probs = logits.log_softmax_rows();
    let mut grad = probs.clone();
    let mut loss = 0.0f64;
    for (b, &label) in labels.iter().enumerate() {
        let label = label as usize;
        assert!(label < logits.cols(), "label {label} out of range");
        loss -= log_probs.get(b, label) as f64;
        let cur = grad.get(b, label);
        grad.set(b, label, cur - 1.0);
    }
    grad.scale_assign(1.0 / batch as f32);
    ClassificationLoss {
        loss: loss / batch as f64,
        grad_logits: grad,
    }
}

/// Result of a link-prediction ranking loss computation.
#[derive(Debug, Clone)]
pub struct RankingLoss {
    /// Mean loss over the positives.
    pub loss: f64,
    /// Gradient with respect to the positive scores, `(B, 1)`.
    pub grad_positive: Tensor,
    /// Gradient with respect to the negative score matrix, `(B, N)`.
    pub grad_negative: Tensor,
}

/// Softmax ranking loss: for each positive `b`, cross-entropy of the softmax over
/// `[pos_b, neg_b1, ..., neg_bN]` with the positive as the true class.
///
/// # Panics
///
/// Panics if the row counts of the two score tensors differ.
pub fn ranking_softmax_loss(positive: &Tensor, negative: &Tensor) -> RankingLoss {
    assert_eq!(
        positive.rows(),
        negative.rows(),
        "positive/negative batch mismatch"
    );
    let batch = positive.rows().max(1);
    let n = negative.cols();
    let mut grad_pos = Tensor::zeros(positive.rows(), 1);
    let mut grad_neg = Tensor::zeros(negative.rows(), n);
    let mut loss = 0.0f64;
    for b in 0..positive.rows() {
        // Numerically stable log-softmax over the concatenated scores.
        let p = positive.get(b, 0);
        let mut max = p;
        for j in 0..n {
            max = max.max(negative.get(b, j));
        }
        let mut denom = (p - max).exp();
        for j in 0..n {
            denom += (negative.get(b, j) - max).exp();
        }
        let log_denom = denom.ln();
        loss -= (p - max - log_denom) as f64;
        // Gradient: softmax - one-hot(positive).
        let soft_p = (p - max).exp() / denom;
        grad_pos.set(b, 0, (soft_p - 1.0) / batch as f32);
        for j in 0..n {
            let soft = (negative.get(b, j) - max).exp() / denom;
            grad_neg.set(b, j, soft / batch as f32);
        }
    }
    RankingLoss {
        loss: loss / batch as f64,
        grad_positive: grad_pos,
        grad_negative: grad_neg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_confident_correct_prediction_is_small() {
        let logits = Tensor::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let out = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(out.loss < 1e-3);
    }

    #[test]
    fn cross_entropy_of_wrong_prediction_is_large() {
        let logits = Tensor::from_rows(&[&[10.0, -10.0]]);
        let out = softmax_cross_entropy(&logits, &[1]);
        assert!(out.loss > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Tensor::from_rows(&[&[0.5, -0.3, 1.2], &[0.1, 0.0, -0.4]]);
        let labels = vec![2u32, 0u32];
        let out = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut p = logits.clone();
                p.set(r, c, p.get(r, c) + eps);
                let mut m = logits.clone();
                m.set(r, c, m.get(r, c) - eps);
                let numeric = (softmax_cross_entropy(&p, &labels).loss
                    - softmax_cross_entropy(&m, &labels).loss) as f32
                    / (2.0 * eps);
                assert!(
                    (numeric - out.grad_logits.get(r, c)).abs() < 1e-3,
                    "grad ({r},{c})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn cross_entropy_label_count_mismatch_panics() {
        let _ = softmax_cross_entropy(&Tensor::zeros(2, 2), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_label_out_of_range_panics() {
        let _ = softmax_cross_entropy(&Tensor::zeros(1, 2), &[5]);
    }

    #[test]
    fn ranking_loss_small_when_positive_dominates() {
        let pos = Tensor::from_rows(&[&[20.0]]);
        let neg = Tensor::from_rows(&[&[0.0, -1.0, 1.0]]);
        let out = ranking_softmax_loss(&pos, &neg);
        assert!(out.loss < 1e-3);
        // Gradient nearly zero everywhere.
        assert!(out.grad_positive.get(0, 0).abs() < 1e-3);
    }

    #[test]
    fn ranking_loss_large_when_negative_dominates() {
        let pos = Tensor::from_rows(&[&[-5.0]]);
        let neg = Tensor::from_rows(&[&[5.0, 5.0]]);
        let out = ranking_softmax_loss(&pos, &neg);
        assert!(out.loss > 5.0);
        // Positive gradient pushes the positive score up (negative gradient value).
        assert!(out.grad_positive.get(0, 0) < 0.0);
        assert!(out.grad_negative.get(0, 0) > 0.0);
    }

    #[test]
    fn ranking_loss_gradient_matches_finite_difference() {
        let pos = Tensor::from_rows(&[&[0.3], &[-0.7]]);
        let neg = Tensor::from_rows(&[&[0.1, 0.6, -0.2], &[0.4, 0.0, 0.9]]);
        let out = ranking_softmax_loss(&pos, &neg);
        let eps = 1e-3f32;
        for b in 0..2 {
            let mut p = pos.clone();
            p.set(b, 0, p.get(b, 0) + eps);
            let mut m = pos.clone();
            m.set(b, 0, m.get(b, 0) - eps);
            let numeric = (ranking_softmax_loss(&p, &neg).loss
                - ranking_softmax_loss(&m, &neg).loss) as f32
                / (2.0 * eps);
            assert!((numeric - out.grad_positive.get(b, 0)).abs() < 1e-3);
            for j in 0..3 {
                let mut pn = neg.clone();
                pn.set(b, j, pn.get(b, j) + eps);
                let mut mn = neg.clone();
                mn.set(b, j, mn.get(b, j) - eps);
                let numeric = (ranking_softmax_loss(&pos, &pn).loss
                    - ranking_softmax_loss(&pos, &mn).loss) as f32
                    / (2.0 * eps);
                assert!((numeric - out.grad_negative.get(b, j)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn ranking_loss_with_no_negatives_is_zero() {
        let pos = Tensor::from_rows(&[&[0.5]]);
        let neg = Tensor::zeros(1, 0);
        let out = ranking_softmax_loss(&pos, &neg);
        assert!(out.loss.abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "batch mismatch")]
    fn ranking_loss_batch_mismatch_panics() {
        let _ = ranking_softmax_loss(&Tensor::zeros(2, 1), &Tensor::zeros(3, 4));
    }
}

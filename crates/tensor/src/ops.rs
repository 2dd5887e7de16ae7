//! Elementwise and linear-algebra kernels on [`Tensor`].
//!
//! These mirror the dense GPU kernels MariusGNN relies on for GNN forward and
//! backward passes: GEMM, broadcast add, row-wise softmax, ReLU and friends. All
//! kernels are written against the row-major layout of [`Tensor`] so that the inner
//! loops are cache friendly.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Matrix multiplication `self (m x k) * other (k x n) -> (m x n)`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree. Use [`Tensor::try_matmul`] for a
    /// fallible variant.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.try_matmul(other)
            .expect("matmul shape mismatch; use try_matmul for fallible behaviour")
    }

    /// Fallible matrix multiplication.
    pub fn try_matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.cols() != other.rows() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: other.shape(),
                op: "matmul",
            });
        }
        let (m, k) = self.shape();
        let n = other.cols();
        let mut out = Tensor::zeros(m, n);
        // Classic ikj loop order: the innermost loop walks both `other` and `out`
        // rows contiguously which is the cache-friendly order for row-major data.
        for i in 0..m {
            let a_row = self.row(i);
            for (p, &a) in a_row.iter().enumerate().take(k) {
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(p);
                let out_row = out.row_mut(i);
                for j in 0..n {
                    out_row[j] += a * b_row[j];
                }
            }
        }
        Ok(out)
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) multiplication.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// Adds `other` to `self` in place.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: other.shape(),
                op: "add_assign",
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += *b;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, factor: f32) -> Tensor {
        let data = self.data().iter().map(|x| x * factor).collect();
        Tensor::from_vec(data, self.rows(), self.cols())
    }

    /// Multiplies every element by a scalar in place.
    pub fn scale_assign(&mut self, factor: f32) {
        for x in self.data_mut() {
            *x *= factor;
        }
    }

    /// Adds the single-row tensor `bias` to every row of `self` (broadcast add).
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor> {
        if bias.rows() != 1 || bias.cols() != self.cols() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: bias.shape(),
                op: "add_row_broadcast",
            });
        }
        let mut out = self.clone();
        let b = bias.row(0).to_vec();
        for r in 0..out.rows() {
            for (x, bv) in out.row_mut(r).iter_mut().zip(b.iter()) {
                *x += *bv;
            }
        }
        Ok(out)
    }

    /// Element-wise ReLU.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Gradient mask of ReLU: 1 where the (pre-activation) input was positive.
    pub fn relu_grad_mask(&self) -> Tensor {
        self.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Leaky ReLU with the given negative slope (used by GAT attention scores).
    pub fn leaky_relu(&self, negative_slope: f32) -> Tensor {
        self.map(|x| if x >= 0.0 { x } else { negative_slope * x })
    }

    /// Gradient mask of leaky ReLU.
    pub fn leaky_relu_grad_mask(&self, negative_slope: f32) -> Tensor {
        self.map(|x| if x >= 0.0 { 1.0 } else { negative_slope })
    }

    /// Row-wise softmax (numerically stabilised by subtracting the row max).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            if sum > 0.0 {
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
        }
        out
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum: f32 = row.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
            for x in row.iter_mut() {
                *x = *x - max - log_sum;
            }
        }
        out
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|x| f(*x)).collect();
        Tensor::from_vec(data, self.rows(), self.cols())
    }

    /// Per-row dot products of two tensors with identical shapes, returned as a
    /// `(rows, 1)` tensor. Used by the DistMult decoder.
    pub fn rowwise_dot(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: other.shape(),
                op: "rowwise_dot",
            });
        }
        let mut out = Tensor::zeros(self.rows(), 1);
        for r in 0..self.rows() {
            let dot = self
                .row(r)
                .iter()
                .zip(other.row(r).iter())
                .map(|(a, b)| a * b)
                .sum();
            out.set(r, 0, dot);
        }
        Ok(out)
    }

    /// Sums the rows of `self`, returning a single-row tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols());
        for r in 0..self.rows() {
            for (o, x) in out.row_mut(0).iter_mut().zip(self.row(r).iter()) {
                *o += *x;
            }
        }
        out
    }

    fn zip_with(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: other.shape(),
                op,
            });
        }
        let data = self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(a, b)| f(*a, *b))
            .collect();
        Ok(Tensor::from_vec(data, self.rows(), self.cols()))
    }
}

/// Rows [`dot_rows`] keeps in flight at once: one accumulator per row, so the
/// dependent add chains of different rows overlap in the pipeline.
const ROWS_IN_FLIGHT: usize = 4;

/// Scores one vector against many rows where they lie: `out[i] = Σ_k query[k] ·
/// rows[i][k]` for the row-major `rows` (`out.len()` rows of `query.len()`
/// values) — the `m = 1` case of `query · rowsᵀ` without the transpose.
///
/// Bit-compatible with [`Tensor::matmul`] on that product: every score has its
/// own accumulator starting at `+0.0`, adds its products in ascending `k`, and
/// skips the `k` where `query[k] == 0.0` exactly as `matmul` skips zero
/// left-hand operands. Only independent scores are interleaved
/// (`ROWS_IN_FLIGHT` = 4 at a time); no sum is reordered.
///
/// # Panics
///
/// Panics if `rows.len() != out.len() * query.len()`.
pub fn dot_rows(query: &[f32], rows: &[f32], out: &mut [f32]) {
    let dim = query.len();
    assert_eq!(
        rows.len(),
        out.len() * dim,
        "dot_rows: {} values are not {} rows of {dim}",
        rows.len(),
        out.len()
    );
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    let mut blocks = rows.chunks_exact(ROWS_IN_FLIGHT * dim);
    let mut outs = out.chunks_exact_mut(ROWS_IN_FLIGHT);
    for (block, scores) in (&mut blocks).zip(&mut outs) {
        let (r0, rest) = block.split_at(dim);
        let (r1, rest) = rest.split_at(dim);
        let (r2, r3) = rest.split_at(dim);
        let mut acc = [0.0f32; ROWS_IN_FLIGHT];
        for ((((&q, &a), &b), &c), &d) in query.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            if q == 0.0 {
                continue;
            }
            acc[0] += q * a;
            acc[1] += q * b;
            acc[2] += q * c;
            acc[3] += q * d;
        }
        scores.copy_from_slice(&acc);
    }
    let tail = blocks.remainder().chunks_exact(dim);
    for (row, score) in tail.zip(outs.into_remainder()) {
        let mut acc = 0.0f32;
        for (&q, &v) in query.iter().zip(row) {
            if q != 0.0 {
                acc += q * v;
            }
        }
        *score = acc;
    }
}

/// Number of floating point operations needed for a GEMM of the given shape.
///
/// Used by the perf ledger to report GEMM throughput next to wall-clock time.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert!(approx_eq(c.get(0, 0), 58.0));
        assert!(approx_eq(c.get(0, 1), 64.0));
        assert!(approx_eq(c.get(1, 0), 139.0));
        assert!(approx_eq(c.get(1, 1), 154.0));
    }

    #[test]
    fn try_matmul_shape_mismatch_errors() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).unwrap().row(0), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).unwrap().row(0), &[2.0, 2.0]);
        assert_eq!(a.mul(&b).unwrap().row(0), &[3.0, 8.0]);
    }

    #[test]
    fn elementwise_shape_mismatch_errors() {
        let a = Tensor::zeros(1, 2);
        let b = Tensor::zeros(2, 1);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.rowwise_dot(&b).is_err());
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Tensor::ones(2, 2);
        let b = Tensor::full(2, 2, 2.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a.sum(), 12.0);
        assert!(a.add_assign(&Tensor::zeros(3, 3)).is_err());
    }

    #[test]
    fn scale_and_scale_assign() {
        let a = Tensor::ones(2, 2);
        assert_eq!(a.scale(3.0).sum(), 12.0);
        let mut b = Tensor::ones(2, 2);
        b.scale_assign(0.5);
        assert_eq!(b.sum(), 2.0);
    }

    #[test]
    fn broadcast_add_bias() {
        let a = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let bias = Tensor::from_rows(&[&[10.0, 20.0]]);
        let out = a.add_row_broadcast(&bias).unwrap();
        assert_eq!(out.row(0), &[11.0, 21.0]);
        assert_eq!(out.row(1), &[12.0, 22.0]);
        assert!(a.add_row_broadcast(&Tensor::zeros(2, 2)).is_err());
    }

    #[test]
    fn relu_and_grad_mask() {
        let a = Tensor::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(a.relu().row(0), &[0.0, 0.0, 2.0]);
        assert_eq!(a.relu_grad_mask().row(0), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_behaviour() {
        let a = Tensor::from_rows(&[&[-2.0, 3.0]]);
        let out = a.leaky_relu(0.1);
        assert!(approx_eq(out.get(0, 0), -0.2));
        assert_eq!(out.get(0, 1), 3.0);
        let mask = a.leaky_relu_grad_mask(0.1);
        assert!(approx_eq(mask.get(0, 0), 0.1));
        assert_eq!(mask.get(0, 1), 1.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!(approx_eq(sum, 1.0));
        }
        // Row of equal large values must not overflow and be uniform.
        assert!(approx_eq(s.get(1, 0), 1.0 / 3.0));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let a = Tensor::from_rows(&[&[0.5, -1.0, 2.0]]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows();
        for c in 0..3 {
            assert!(approx_eq(ls.get(0, c), s.get(0, c).ln()));
        }
    }

    #[test]
    fn rowwise_dot_matches_manual() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let d = a.rowwise_dot(&b).unwrap();
        assert_eq!(d.get(0, 0), 17.0);
        assert_eq!(d.get(1, 0), 53.0);
    }

    #[test]
    fn sum_rows_adds_columnwise() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum_rows().row(0), &[4.0, 6.0]);
    }

    /// The in-place kernel against the general product it replaces on the
    /// serve path: identical bits for every row count around the interleave
    /// width, with zeros, negative zeros and exact cancellations in the query.
    #[test]
    fn dot_rows_is_bit_identical_to_matmul_of_the_transpose() {
        let dim = 7;
        let query = Tensor::from_rows(&[&[0.5, 0.0, -1.25, -0.0, 3.0, 1.0e-3, -3.0]]);
        for n in 0..=9 {
            let rows: Vec<f32> = (0..n * dim)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (i as f32 * 0.37).sin() * 10.0,
                })
                .collect();
            let table = Tensor::from_vec(rows.clone(), n, dim);
            let want = query.matmul(&table.transpose());
            let mut got = vec![f32::NAN; n];
            dot_rows(query.row(0), &rows, &mut got);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(want.data()), "{n} rows");
        }
        let mut none = [1.0f32; 3];
        dot_rows(&[], &[], &mut none);
        assert_eq!(none, [0.0; 3]);
    }

    #[test]
    fn matmul_flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }
}

//! The core dense, row-major, two-dimensional `f32` tensor type.

use crate::{Result, TensorError};

/// A dense, row-major matrix of `f32` values.
///
/// This is the single tensor type used throughout the reproduction. Node
/// representations are stored as one row per node; GNN layer weights are stored as
/// `(in_dim, out_dim)` matrices; vectors are represented as single-row or
/// single-column matrices.
///
/// # Examples
///
/// ```
/// use marius_tensor::Tensor;
///
/// let t = Tensor::zeros(3, 4);
/// assert_eq!(t.shape(), (3, 4));
/// assert_eq!(t.get(2, 3), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor {
            data: vec![1.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(n, n);
        for i in 0..n {
            t.set(i, i, 1.0);
        }
        t
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { data, rows, cols }
    }

    /// Creates a tensor from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Tensor::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to from_rows");
            data.extend_from_slice(r);
        }
        Tensor {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// Returns the shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Returns a view of one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns a mutable view of one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying row-major buffer mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a new tensor containing rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        if start > end || end > self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: self.rows,
                op: "slice_rows",
            });
        }
        Ok(Tensor {
            data: self.data[start * self.cols..end * self.cols].to_vec(),
            rows: end - start,
            cols: self.cols,
        })
    }

    /// Returns the transpose of the tensor.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Returns the sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns the mean of all elements, or 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Returns the maximum element, or negative infinity for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Returns the minimum element, or positive infinity for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Returns the Frobenius norm (square root of the sum of squares).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Returns `true` if every element is finite (no NaN or infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Returns the index of the maximum value in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Tensor({}x{}) [", self.rows, self.cols)?;
        let max_rows = 6;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.sum(), 0.0);

        let o = Tensor::ones(2, 3);
        assert_eq!(o.sum(), 6.0);

        let f = Tensor::full(2, 2, 2.5);
        assert_eq!(f.sum(), 10.0);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let e = Tensor::eye(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(e.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(3, 3);
        t.set(1, 2, 7.0);
        assert_eq!(t.get(1, 2), 7.0);
        assert_eq!(t.get(2, 1), 0.0);
    }

    #[test]
    fn from_rows_and_row_access() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_rows_empty_is_empty_tensor() {
        let t = Tensor::from_rows(&[]);
        assert!(t.is_empty());
        assert_eq!(t.shape(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Tensor::from_rows(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn slice_rows_returns_expected_rows() {
        let t = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let s = t.slice_rows(1, 3).unwrap();
        assert_eq!(s.shape(), (2, 1));
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(1, 0), 3.0);
    }

    #[test]
    fn slice_rows_out_of_bounds_errors() {
        let t = Tensor::zeros(2, 2);
        assert!(t.slice_rows(0, 3).is_err());
        assert!(t.slice_rows(2, 1).is_err());
    }

    #[test]
    fn transpose_swaps_shape_and_values() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), (3, 2));
        assert_eq!(tt.get(2, 1), 6.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(t.sum(), 6.0);
        assert_eq!(t.mean(), 1.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -2.0);
        assert!((t.frobenius_norm() - (1.0f32 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_mean_is_zero() {
        let t = Tensor::zeros(0, 0);
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    fn argmax_rows_returns_index_of_max() {
        let t = Tensor::from_rows(&[&[0.1, 0.9, 0.3], &[2.0, 1.0, 0.0]]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(2, 2);
        assert!(t.all_finite());
        t.set(0, 0, f32::NAN);
        assert!(!t.all_finite());
    }

    #[test]
    fn display_does_not_panic_for_large_tensors() {
        let t = Tensor::zeros(100, 100);
        let s = format!("{t}");
        assert!(s.contains("Tensor(100x100)"));
    }
}

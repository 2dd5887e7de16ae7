//! Segment reductions and gather kernels (Algorithm 3 of the paper).
//!
//! The DENSE data structure stores the one-hop neighbours of every node
//! *contiguously*, separated by an offsets array. That layout turns neighbourhood
//! aggregation into a *dense segment reduction*: select the neighbour
//! representations with [`index_select`], then reduce each contiguous segment with
//! [`segment_sum`] / [`segment_mean`]. These are exactly the
//! kernels MariusGNN runs on the GPU; here they run on the CPU over the same data
//! layout.

use crate::{Result, Tensor, TensorError};

/// Gathers rows of `input` according to `indices`, producing one output row per
/// index (PyTorch's `index_select` over dimension 0).
///
/// # Examples
///
/// ```
/// use marius_tensor::Tensor;
/// use marius_tensor::segment::index_select;
///
/// let h = Tensor::from_rows(&[&[0.0], &[1.0], &[2.0]]);
/// let out = index_select(&h, &[2, 0, 2]).unwrap();
/// assert_eq!(out.get(0, 0), 2.0);
/// assert_eq!(out.get(2, 0), 2.0);
/// ```
pub fn index_select(input: &Tensor, indices: &[usize]) -> Result<Tensor> {
    let mut out = Tensor::zeros(indices.len(), input.cols());
    for (i, &idx) in indices.iter().enumerate() {
        if idx >= input.rows() {
            return Err(TensorError::IndexOutOfBounds {
                index: idx,
                bound: input.rows(),
                op: "index_select",
            });
        }
        out.row_mut(i).copy_from_slice(input.row(idx));
    }
    Ok(out)
}

/// Scatter-adds rows of `grad` back into an accumulator of `num_rows` rows: the
/// adjoint of [`index_select`]. Repeated indices accumulate.
pub fn index_add(num_rows: usize, cols: usize, indices: &[usize], grad: &Tensor) -> Result<Tensor> {
    if grad.rows() != indices.len() || grad.cols() != cols {
        return Err(TensorError::ShapeMismatch {
            lhs: (indices.len(), cols),
            rhs: grad.shape(),
            op: "index_add",
        });
    }
    let mut out = Tensor::zeros(num_rows, cols);
    for (i, &idx) in indices.iter().enumerate() {
        if idx >= num_rows {
            return Err(TensorError::IndexOutOfBounds {
                index: idx,
                bound: num_rows,
                op: "index_add",
            });
        }
        for (o, g) in out.row_mut(idx).iter_mut().zip(grad.row(i).iter()) {
            *o += *g;
        }
    }
    Ok(out)
}

/// Validates a segment offsets array against an input with `len` rows.
///
/// `offsets[i]` is the starting row of segment `i`; segment `i` covers rows
/// `[offsets[i], offsets[i+1])` with the final segment ending at `len`. Offsets
/// must therefore be monotone non-decreasing and bounded by `len`.
fn validate_offsets(offsets: &[usize], len: usize) -> Result<()> {
    let mut prev = 0usize;
    for (i, &o) in offsets.iter().enumerate() {
        if o < prev {
            return Err(TensorError::InvalidOffsets {
                reason: format!("offsets[{i}] = {o} is smaller than previous offset {prev}"),
            });
        }
        if o > len {
            return Err(TensorError::InvalidOffsets {
                reason: format!("offsets[{i}] = {o} exceeds input length {len}"),
            });
        }
        prev = o;
    }
    Ok(())
}

/// Dense segment sum: reduces contiguous row segments of `input` by addition.
///
/// Produces one output row per segment. Empty segments produce a zero row. This is
/// the aggregation kernel from Algorithm 3 in the paper.
pub fn segment_sum(input: &Tensor, offsets: &[usize]) -> Result<Tensor> {
    validate_offsets(offsets, input.rows())?;
    let num_segments = offsets.len();
    let mut out = Tensor::zeros(num_segments, input.cols());
    for s in 0..num_segments {
        let start = offsets[s];
        let end = if s + 1 < num_segments {
            offsets[s + 1]
        } else {
            input.rows()
        };
        for r in start..end {
            for (o, x) in out.row_mut(s).iter_mut().zip(input.row(r).iter()) {
                *o += *x;
            }
        }
    }
    Ok(out)
}

/// Dense segment mean: like [`segment_sum`] but divides by the segment length.
/// Empty segments produce a zero row.
pub fn segment_mean(input: &Tensor, offsets: &[usize]) -> Result<Tensor> {
    let mut out = segment_sum(input, offsets)?;
    let num_segments = offsets.len();
    for s in 0..num_segments {
        let start = offsets[s];
        let end = if s + 1 < num_segments {
            offsets[s + 1]
        } else {
            input.rows()
        };
        let len = end.saturating_sub(start);
        if len > 1 {
            let inv = 1.0 / len as f32;
            for o in out.row_mut(s) {
                *o *= inv;
            }
        }
    }
    Ok(out)
}

/// Expands one row per segment back to one row per input row (the adjoint of
/// [`segment_sum`]): output row `r` is `seg_values` row `s` where segment `s`
/// contains `r`. Used in backward passes of segment reductions.
pub fn segment_expand(seg_values: &Tensor, offsets: &[usize], total_rows: usize) -> Result<Tensor> {
    validate_offsets(offsets, total_rows)?;
    if seg_values.rows() != offsets.len() {
        return Err(TensorError::ShapeMismatch {
            lhs: (offsets.len(), seg_values.cols()),
            rhs: seg_values.shape(),
            op: "segment_expand",
        });
    }
    let mut out = Tensor::zeros(total_rows, seg_values.cols());
    for s in 0..offsets.len() {
        let start = offsets[s];
        let end = if s + 1 < offsets.len() {
            offsets[s + 1]
        } else {
            total_rows
        };
        for r in start..end {
            out.row_mut(r).copy_from_slice(seg_values.row(s));
        }
    }
    Ok(out)
}

/// Segment softmax: applies a numerically-stable softmax within each contiguous
/// segment of the single-column tensor `scores`. Used for GAT attention weights.
pub fn segment_softmax(scores: &Tensor, offsets: &[usize]) -> Result<Tensor> {
    if scores.cols() != 1 {
        return Err(TensorError::ShapeMismatch {
            lhs: scores.shape(),
            rhs: (scores.rows(), 1),
            op: "segment_softmax",
        });
    }
    validate_offsets(offsets, scores.rows())?;
    let mut out = scores.clone();
    for s in 0..offsets.len() {
        let start = offsets[s];
        let end = if s + 1 < offsets.len() {
            offsets[s + 1]
        } else {
            scores.rows()
        };
        if start == end {
            continue;
        }
        let mut max = f32::NEG_INFINITY;
        for r in start..end {
            max = max.max(out.get(r, 0));
        }
        let mut sum = 0.0;
        for r in start..end {
            let e = (out.get(r, 0) - max).exp();
            out.set(r, 0, e);
            sum += e;
        }
        if sum > 0.0 {
            for r in start..end {
                let v = out.get(r, 0) / sum;
                out.set(r, 0, v);
            }
        }
    }
    Ok(out)
}

/// Multiplies every row of `input` by the corresponding scalar in the
/// single-column tensor `weights` (used to weight neighbour representations by
/// attention scores before a segment sum).
pub fn rows_scale(input: &Tensor, weights: &Tensor) -> Result<Tensor> {
    if weights.cols() != 1 || weights.rows() != input.rows() {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape(),
            rhs: weights.shape(),
            op: "rows_scale",
        });
    }
    let mut out = input.clone();
    for r in 0..out.rows() {
        let w = weights.get(r, 0);
        for x in out.row_mut(r) {
            *x *= w;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_select_gathers_rows() {
        let h = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let out = index_select(&h, &[2, 1, 1, 0]).unwrap();
        assert_eq!(out.shape(), (4, 2));
        assert_eq!(out.row(0), &[3.0, 3.0]);
        assert_eq!(out.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn index_select_out_of_bounds_errors() {
        let h = Tensor::zeros(2, 2);
        assert!(index_select(&h, &[2]).is_err());
    }

    #[test]
    fn index_add_accumulates_repeated_indices() {
        let grad = Tensor::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let out = index_add(3, 1, &[0, 2, 0], &grad).unwrap();
        assert_eq!(out.get(0, 0), 5.0);
        assert_eq!(out.get(1, 0), 0.0);
        assert_eq!(out.get(2, 0), 2.0);
    }

    #[test]
    fn index_add_is_adjoint_of_index_select() {
        // <select(h, idx), g> == <h, add(idx, g)> for any h, g.
        let h = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let idx = vec![1, 1, 2, 0];
        let g = Tensor::from_rows(&[&[0.1, 0.2], &[0.3, 0.4], &[0.5, 0.6], &[0.7, 0.8]]);
        let sel = index_select(&h, &idx).unwrap();
        let lhs: f32 = sel
            .data()
            .iter()
            .zip(g.data().iter())
            .map(|(a, b)| a * b)
            .sum();
        let back = index_add(3, 2, &idx, &g).unwrap();
        let rhs: f32 = h
            .data()
            .iter()
            .zip(back.data().iter())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn index_add_shape_errors() {
        let grad = Tensor::zeros(2, 2);
        assert!(index_add(3, 2, &[0], &grad).is_err());
        assert!(index_add(1, 2, &[5, 5], &grad).is_err());
    }

    #[test]
    fn segment_sum_basic() {
        // Segments: [0,2), [2,3), [3,3) (empty), [3,5).
        let x = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0], &[5.0]]);
        let out = segment_sum(&x, &[0, 2, 3, 3]).unwrap();
        assert_eq!(out.shape(), (4, 1));
        assert_eq!(out.get(0, 0), 3.0);
        assert_eq!(out.get(1, 0), 3.0);
        assert_eq!(out.get(2, 0), 0.0);
        assert_eq!(out.get(3, 0), 9.0);
    }

    #[test]
    fn segment_sum_invalid_offsets_error() {
        let x = Tensor::zeros(3, 1);
        assert!(segment_sum(&x, &[0, 2, 1]).is_err());
        assert!(segment_sum(&x, &[0, 4]).is_err());
    }

    #[test]
    fn segment_mean_divides_by_length() {
        let x = Tensor::from_rows(&[&[2.0], &[4.0], &[9.0]]);
        let out = segment_mean(&x, &[0, 2]).unwrap();
        assert_eq!(out.get(0, 0), 3.0);
        assert_eq!(out.get(1, 0), 9.0);
    }

    #[test]
    fn segment_mean_empty_segment_is_zero() {
        let x = Tensor::from_rows(&[&[2.0]]);
        let out = segment_mean(&x, &[0, 1]).unwrap();
        assert_eq!(out.get(1, 0), 0.0);
    }

    #[test]
    fn segment_expand_replicates_rows() {
        let seg = Tensor::from_rows(&[&[1.0], &[2.0]]);
        let out = segment_expand(&seg, &[0, 3], 5).unwrap();
        assert_eq!(out.get(0, 0), 1.0);
        assert_eq!(out.get(2, 0), 1.0);
        assert_eq!(out.get(3, 0), 2.0);
        assert_eq!(out.get(4, 0), 2.0);
    }

    #[test]
    fn segment_expand_shape_mismatch_errors() {
        let seg = Tensor::zeros(3, 1);
        assert!(segment_expand(&seg, &[0, 1], 4).is_err());
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let s = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0], &[100.0], &[100.0]]);
        let out = segment_softmax(&s, &[0, 3]).unwrap();
        let sum0: f32 = (0..3).map(|r| out.get(r, 0)).sum();
        let sum1: f32 = (3..5).map(|r| out.get(r, 0)).sum();
        assert!((sum0 - 1.0).abs() < 1e-5);
        assert!((sum1 - 1.0).abs() < 1e-5);
        assert!((out.get(3, 0) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn segment_softmax_requires_column_vector() {
        let s = Tensor::zeros(3, 2);
        assert!(segment_softmax(&s, &[0]).is_err());
    }

    #[test]
    fn rows_scale_multiplies_each_row() {
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let w = Tensor::from_rows(&[&[2.0], &[0.5]]);
        let out = rows_scale(&x, &w).unwrap();
        assert_eq!(out.row(0), &[2.0, 4.0]);
        assert_eq!(out.row(1), &[1.5, 2.0]);
        assert!(rows_scale(&x, &Tensor::zeros(3, 1)).is_err());
    }

    #[test]
    fn segment_sum_then_expand_roundtrip_on_singleton_segments() {
        // When every segment has exactly one element, sum followed by expand is identity.
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let offsets = vec![0, 1, 2];
        let summed = segment_sum(&x, &offsets).unwrap();
        let expanded = segment_expand(&summed, &offsets, 3).unwrap();
        assert_eq!(expanded, x);
    }
}

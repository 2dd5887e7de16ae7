//! Dense CPU tensor kernels for the MariusGNN reproduction.
//!
//! The original MariusGNN system executes GNN forward and backward passes with dense
//! GPU kernels (cuBLAS GEMM, segment reductions, gathers). This crate provides the
//! equivalent operations on the CPU so that the rest of the reproduction can express
//! the exact same dataflow: the DENSE data structure produced by the sampler is
//! consumed by [`segment::segment_sum`] / [`segment::index_select`] style kernels
//! exactly as described in Algorithm 3 of the paper.
//!
//! The crate deliberately keeps the tensor model simple:
//!
//! * All tensors are dense, row-major, two-dimensional `f32` matrices ([`Tensor`]).
//! * There is no automatic differentiation; the GNN crate implements manual
//!   backward passes using the same kernels.
//!
//! # Examples
//!
//! ```
//! use marius_tensor::Tensor;
//!
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.get(1, 0), 3.0);
//! ```

#![deny(unreachable_pub, missing_docs)]

mod init;
pub mod ops;
pub mod segment;
mod tensor;

pub use init::{glorot_uniform, uniform_init};
pub use tensor::Tensor;

/// Error type for tensor operations with incompatible shapes or invalid indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had shapes that cannot be combined by the requested operation.
    ShapeMismatch {
        /// Shape of the left-hand operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right-hand operand as `(rows, cols)`.
        rhs: (usize, usize),
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// An index was out of bounds for the tensor it was applied to.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The bound the index had to be strictly less than.
        bound: usize,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// An offsets array passed to a segment operation was not monotone or did not
    /// cover the input.
    InvalidOffsets {
        /// Human readable description of the violation.
        reason: String,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::IndexOutOfBounds { index, bound, op } => {
                write!(f, "index {index} out of bounds {bound} in {op}")
            }
            TensorError::InvalidOffsets { reason } => write!(f, "invalid offsets: {reason}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = TensorError::ShapeMismatch {
            lhs: (2, 3),
            rhs: (4, 5),
            op: "matmul",
        };
        let s = format!("{e}");
        assert!(s.contains("matmul"));
        assert!(s.contains("(2, 3)"));

        let e = TensorError::IndexOutOfBounds {
            index: 7,
            bound: 5,
            op: "index_select",
        };
        assert!(format!("{e}").contains("7"));

        let e = TensorError::InvalidOffsets {
            reason: "not monotone".into(),
        };
        assert!(format!("{e}").contains("monotone"));
    }
}

//! The learnable base-representation lookup table (paper §2).
//!
//! For link prediction on knowledge graphs the "features" of every node are
//! *learned* embeddings stored in a lookup table. The table is the largest state
//! in the system — it is what the storage layer partitions across disk — and it is
//! updated *sparsely*: a mini batch touches only the nodes in its DENSE sample, so
//! only those rows receive gradient updates (step 6 of Figure 2: "base
//! representation updates are written back to CPU memory").
//!
//! Updates use Adagrad with per-row-element accumulators, matching Marius.

use marius_graph::NodeId;
use marius_tensor::{uniform_init, Tensor};
use rand::Rng;

/// A dense lookup table of per-node embeddings with sparse Adagrad updates.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    /// Flat row-major storage, one row of `dim` values per node.
    values: Vec<f32>,
    /// Adagrad sum-of-squares state, same layout as `values`.
    adagrad_state: Vec<f32>,
    dim: usize,
    lr: f32,
    eps: f32,
}

impl EmbeddingTable {
    /// Creates a table for `num_nodes` nodes of dimension `dim`, initialised
    /// uniformly in `[-init_scale, init_scale]`.
    pub fn new<R: Rng + ?Sized>(
        num_nodes: usize,
        dim: usize,
        init_scale: f32,
        rng: &mut R,
    ) -> Self {
        let init = uniform_init(rng, num_nodes, dim, init_scale);
        EmbeddingTable {
            values: init.into_vec(),
            adagrad_state: vec![0.0; num_nodes * dim],
            dim,
            lr: 0.1,
            eps: 1e-10,
        }
    }

    /// Creates a table whose rows are provided externally (used to wrap fixed
    /// input features so the same gather path can be reused; updates then become
    /// no-ops at the caller's discretion).
    pub fn from_rows(rows: Vec<f32>, dim: usize) -> Self {
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "row buffer not a multiple of dim"
        );
        let n = rows.len() / dim;
        EmbeddingTable {
            values: rows,
            adagrad_state: vec![0.0; n * dim],
            dim,
            lr: 0.1,
            eps: 1e-10,
        }
    }

    /// Sets the Adagrad learning rate used by [`EmbeddingTable::apply_sparse_update`].
    pub fn with_learning_rate(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Number of rows (nodes) in the table.
    pub fn num_nodes(&self) -> usize {
        self.values.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total bytes held by the table (values plus optimizer state), the quantity
    /// Table 1 reports for learned-embedding datasets.
    pub fn storage_bytes(&self) -> u64 {
        (self.values.len() + self.adagrad_state.len()) as u64 * 4
    }

    /// Returns the embedding row of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn row(&self, node: NodeId) -> &[f32] {
        let i = node as usize;
        &self.values[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable access to the embedding row of `node`.
    pub fn row_mut(&mut self, node: NodeId) -> &mut [f32] {
        let i = node as usize;
        &mut self.values[i * self.dim..(i + 1) * self.dim]
    }

    /// Gathers the rows for `nodes` into a `(nodes.len(), dim)` tensor — the `H0`
    /// transferred to the GPU alongside DENSE.
    pub fn gather(&self, nodes: &[NodeId]) -> Tensor {
        let mut out = Tensor::zeros(nodes.len(), self.dim);
        for (i, &n) in nodes.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(n));
        }
        out
    }

    /// Applies a sparse Adagrad update: `grads` row `i` is the gradient for
    /// `nodes[i]`. Duplicate node ids are applied sequentially (their updates
    /// compound), which matches the behaviour of applying a mini batch's write-back.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape does not match `(nodes.len(), dim)`.
    pub fn apply_sparse_update(&mut self, nodes: &[NodeId], grads: &Tensor) {
        assert_eq!(grads.rows(), nodes.len(), "gradient row count mismatch");
        assert_eq!(grads.cols(), self.dim, "gradient dim mismatch");
        for (i, &n) in nodes.iter().enumerate() {
            let idx = n as usize * self.dim;
            let grad_row = grads.row(i);
            for (d, &g) in grad_row.iter().enumerate() {
                let s = &mut self.adagrad_state[idx + d];
                *s += g * g;
                self.values[idx + d] -= self.lr * g / (s.sqrt() + self.eps);
            }
        }
    }

    /// Returns a borrowed view of the raw value buffer (used by the storage layer
    /// to persist partitions).
    pub fn raw_values(&self) -> &[f32] {
        &self.values
    }

    /// Returns a borrowed view of the raw Adagrad state buffer.
    pub fn raw_state(&self) -> &[f32] {
        &self.adagrad_state
    }

    /// Overwrites the rows `[start, start + data.len() / dim)` with `data`,
    /// together with their optimizer state. Used when the storage layer loads a
    /// partition from disk into the in-memory table.
    pub fn load_rows(&mut self, start: usize, data: &[f32], state: &[f32]) {
        assert_eq!(data.len(), state.len(), "value/state length mismatch");
        assert!(
            data.len().is_multiple_of(self.dim),
            "row data not a multiple of dim"
        );
        let begin = start * self.dim;
        self.values[begin..begin + data.len()].copy_from_slice(data);
        self.adagrad_state[begin..begin + state.len()].copy_from_slice(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize, d: usize) -> EmbeddingTable {
        let mut rng = StdRng::seed_from_u64(1);
        EmbeddingTable::new(n, d, 0.1, &mut rng)
    }

    #[test]
    fn construction_and_shapes() {
        let t = table(10, 4);
        assert_eq!(t.num_nodes(), 10);
        assert_eq!(t.dim(), 4);
        assert_eq!(t.storage_bytes(), 10 * 4 * 4 * 2);
        assert!(t.row(3).iter().all(|x| x.abs() <= 0.1));
    }

    #[test]
    fn from_rows_wraps_fixed_features() {
        let t = EmbeddingTable::from_rows(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn from_rows_bad_length_panics() {
        let _ = EmbeddingTable::from_rows(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn gather_returns_rows_in_order() {
        let mut t = table(5, 2);
        t.row_mut(3).copy_from_slice(&[7.0, 8.0]);
        let g = t.gather(&[3, 0, 3]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.row(0), &[7.0, 8.0]);
        assert_eq!(g.row(2), &[7.0, 8.0]);
    }

    #[test]
    fn sparse_update_moves_only_touched_rows() {
        let mut t = table(6, 3);
        let before_untouched = t.row(5).to_vec();
        let before_touched = t.row(2).to_vec();
        let grads = Tensor::ones(2, 3);
        t.apply_sparse_update(&[2, 4], &grads);
        assert_eq!(t.row(5), before_untouched.as_slice());
        assert_ne!(t.row(2), before_touched.as_slice());
    }

    #[test]
    fn sparse_update_reduces_simple_objective() {
        // Minimise 0.5 * ||e||^2 for a single node: gradient is the embedding itself.
        let mut t = table(3, 4).with_learning_rate(0.5);
        for _ in 0..200 {
            let row = Tensor::from_vec(t.row(1).to_vec(), 1, 4);
            t.apply_sparse_update(&[1], &row);
        }
        let norm: f32 = t.row(1).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm < 0.01, "norm {norm}");
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn sparse_update_shape_mismatch_panics() {
        let mut t = table(3, 4);
        t.apply_sparse_update(&[1, 2], &Tensor::zeros(1, 4));
    }

    #[test]
    fn load_rows_overwrites_values_and_state_of_the_range() {
        let mut t = table(8, 2);
        let (before, before_state) = (t.raw_values().to_vec(), t.raw_state().to_vec());
        let new_vals = vec![9.0; 6];
        let new_state = vec![1.0; 6];
        t.load_rows(2, &new_vals, &new_state);
        assert_eq!(t.row(3), &[9.0, 9.0]);
        assert_eq!(&t.raw_values()[4..10], new_vals.as_slice());
        assert_eq!(&t.raw_state()[4..10], new_state.as_slice());
        // Rows outside [2, 5) are untouched.
        assert_eq!(&t.raw_values()[..4], &before[..4]);
        assert_eq!(&t.raw_values()[10..], &before[10..]);
        assert_eq!(&t.raw_state()[..4], &before_state[..4]);
    }

    #[test]
    fn duplicate_nodes_in_update_compound() {
        let mut t = EmbeddingTable::from_rows(vec![1.0, 1.0], 2).with_learning_rate(0.1);
        let grads = Tensor::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        t.apply_sparse_update(&[0, 0], &grads);
        // Two sequential Adagrad steps with gradient 1: first step moves by lr/1,
        // second by lr/sqrt(2); total displacement > single step.
        assert!(t.row(0)[0] < 1.0 - 0.1);
    }
}

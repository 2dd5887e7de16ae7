//! The DENSE data structure (paper §4, Figure 3) and its per-layer update
//! (Algorithm 2).
//!
//! DENSE encodes a `k`-hop neighbourhood sample as four flat arrays:
//!
//! * `node_ids` — every graph node involved in the sample, grouped as
//!   `[Δ0, Δ1, ..., Δk]` where `Δk` are the target nodes and `Δi` are the nodes
//!   first reached at depth `k - i` (the "delta" of new nodes at that hop).
//! * `node_id_offsets` — the start index of each `Δ` group inside `node_ids`.
//! * `nbrs` — the sampled one-hop neighbours of every node in `Δ1 ..= Δk`,
//!   concatenated; node `node_ids[node_id_offsets[1] + j]` owns the slice
//!   `nbrs[nbr_offsets[j] .. nbr_offsets[j + 1]]`.
//! * `nbr_offsets` — the start of each node's neighbour list inside `nbrs`.
//!
//! A fifth array, `repr_map`, is added when the structure is "moved to the GPU"
//! (passed to the GNN crate): it maps every `nbrs` entry to the row of the layer
//! input holding that node's current representation, which turns neighbourhood
//! aggregation into `index_select` + `segment_sum` (Algorithm 3).

use marius_graph::{NodeId, RelId};
use std::collections::HashMap;

/// Statistics about one multi-hop sample, reported in Table 6 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SampleStats {
    /// Number of unique nodes in the sample (`node_ids` length).
    pub nodes_sampled: usize,
    /// Number of sampled neighbour entries, i.e. edges traversed (`nbrs` length).
    pub edges_sampled: usize,
    /// Number of one-hop sampling operations performed (nodes whose neighbour
    /// lists were actually walked). Lower is better: DENSE avoids re-sampling.
    pub one_hop_operations: usize,
}

/// The DENSE delta-encoded multi-hop neighbourhood sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    node_id_offsets: Vec<usize>,
    node_ids: Vec<NodeId>,
    nbr_offsets: Vec<usize>,
    nbrs: Vec<NodeId>,
    /// Relation id of the sampled edge behind each `nbrs` entry (0 for
    /// homogeneous graphs). Kept alongside `nbrs` so relation-aware decoders and
    /// attention layers can use edge types without a second lookup.
    nbr_rels: Vec<RelId>,
    /// For each `nbrs` entry, the row index of that node inside `node_ids` /
    /// the current layer-input matrix. Empty until [`Dense::build_repr_map`].
    repr_map: Vec<usize>,
    stats: SampleStats,
}

impl Dense {
    /// Creates a DENSE structure from raw parts (used by the samplers).
    pub(crate) fn from_parts(
        node_id_offsets: Vec<usize>,
        node_ids: Vec<NodeId>,
        nbr_offsets: Vec<usize>,
        nbrs: Vec<NodeId>,
        nbr_rels: Vec<RelId>,
        one_hop_operations: usize,
    ) -> Self {
        let stats = SampleStats {
            nodes_sampled: node_ids.len(),
            edges_sampled: nbrs.len(),
            one_hop_operations,
        };
        Dense {
            node_id_offsets,
            node_ids,
            nbr_offsets,
            nbrs,
            nbr_rels,
            repr_map: Vec::new(),
            stats,
        }
    }

    /// Number of GNN layers this sample supports (one fewer than the number of
    /// `Δ` groups).
    pub fn num_layers(&self) -> usize {
        self.node_id_offsets.len().saturating_sub(1)
    }

    /// All node ids involved in the sample, in `[Δ0, Δ1, ..., Δk]` order. The base
    /// representations `H0` must be provided in exactly this order.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.node_ids
    }

    /// The start offset of each `Δ` group within [`Dense::node_ids`].
    pub fn node_id_offsets(&self) -> &[usize] {
        &self.node_id_offsets
    }

    /// Sampled neighbour node ids, concatenated per owning node.
    pub fn nbrs(&self) -> &[NodeId] {
        &self.nbrs
    }

    /// Relation ids aligned with [`Dense::nbrs`].
    pub fn nbr_rels(&self) -> &[RelId] {
        &self.nbr_rels
    }

    /// Start offset of each owning node's neighbour list within [`Dense::nbrs`].
    /// Suitable to pass directly to `marius_tensor::segment::segment_sum`.
    pub fn nbr_offsets(&self) -> &[usize] {
        &self.nbr_offsets
    }

    /// The `repr_map` array (empty until [`Dense::build_repr_map`] is called).
    pub fn repr_map(&self) -> &[usize] {
        &self.repr_map
    }

    /// Sample statistics (Table 6 columns).
    pub fn stats(&self) -> SampleStats {
        self.stats
    }

    /// The target nodes of the sample: the last `Δ` group.
    pub fn target_nodes(&self) -> &[NodeId] {
        match self.node_id_offsets.last() {
            Some(&start) => &self.node_ids[start..],
            None => &[],
        }
    }

    /// The nodes whose representations the *next* GNN layer will output: every
    /// node after the first `Δ` group (paper §4.2 Step 1).
    pub fn output_node_ids(&self) -> &[NodeId] {
        if self.node_id_offsets.len() < 2 {
            return &self.node_ids;
        }
        &self.node_ids[self.node_id_offsets[1]..]
    }

    /// Index (row) of the first output node within [`Dense::node_ids`]; the layer
    /// input rows `[self_offset..]` are the "self" representations of Algorithm 3.
    pub fn self_offset(&self) -> usize {
        if self.node_id_offsets.len() < 2 {
            0
        } else {
            self.node_id_offsets[1]
        }
    }

    /// Builds the `repr_map` array: for every `nbrs` entry, the row of
    /// [`Dense::node_ids`] holding that node. In MariusGNN this happens on the GPU
    /// right after the mini batch is transferred (paper §4.2).
    ///
    /// # Panics
    ///
    /// Panics if a neighbour id does not appear in `node_ids`; Algorithm 1
    /// guarantees it always does.
    pub fn build_repr_map(&mut self) {
        let position: HashMap<NodeId, usize> = self
            .node_ids
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        self.repr_map = self
            .nbrs
            .iter()
            .map(|n| {
                *position
                    .get(n)
                    .expect("DENSE invariant violated: neighbour not present in node_ids")
            })
            .collect();
    }

    /// Algorithm 2: updates DENSE on the "GPU" after computing GNN layer `i`,
    /// dropping the deepest `Δ` group and its neighbour lists so the same forward
    /// implementation can be reused for the next layer.
    ///
    /// Returns the number of node rows removed from the front of the layer input
    /// (i.e. `len(Δ_{i-1})`), which is also how much the caller must trim its
    /// representation matrix by (the new layer input is `H_i` for the previous
    /// output nodes).
    ///
    /// # Panics
    ///
    /// Panics if called when fewer than two `Δ` groups remain.
    pub fn advance_layer(&mut self) -> usize {
        assert!(
            self.node_id_offsets.len() >= 2,
            "advance_layer called on an exhausted DENSE structure"
        );
        // Δ_{i-1} is the first group, Δ_i the second.
        let delta_prev_len = self.node_id_offsets[1];
        let delta_i_len = if self.node_id_offsets.len() >= 3 {
            self.node_id_offsets[2] - self.node_id_offsets[1]
        } else {
            self.node_ids.len() - self.node_id_offsets[1]
        };

        // Δ_i's neighbour lists occupy nbrs[.. nbr_offsets[delta_i_len]] (or the
        // whole array when Δ_i is the final group with neighbour lists).
        let delta_i_nbrs_len = if delta_i_len < self.nbr_offsets.len() {
            self.nbr_offsets[delta_i_len]
        } else {
            self.nbrs.len()
        };

        // Line 4-6 of Algorithm 2: trim the neighbour arrays and shift offsets.
        self.nbrs.drain(..delta_i_nbrs_len);
        self.nbr_rels.drain(..delta_i_nbrs_len);
        if !self.repr_map.is_empty() {
            self.repr_map.drain(..delta_i_nbrs_len);
            for r in &mut self.repr_map {
                *r -= delta_prev_len;
            }
        }
        self.nbr_offsets.drain(..delta_i_len);
        for o in &mut self.nbr_offsets {
            *o -= delta_i_nbrs_len;
        }

        // Line 7-8: drop Δ_{i-1} from node_ids and re-base the offsets.
        self.node_ids.drain(..delta_prev_len);
        self.node_id_offsets.remove(0);
        for o in &mut self.node_id_offsets {
            *o -= delta_prev_len;
        }

        delta_prev_len
    }

    /// Checks the structural invariants that Algorithm 1 guarantees. Used by
    /// property tests and debug assertions; returns a description of the first
    /// violation found, if any.
    pub fn validate(&self) -> Result<(), String> {
        // Offsets into node_ids must be monotone and bounded.
        let mut prev = 0usize;
        for &o in &self.node_id_offsets {
            if o < prev {
                return Err("node_id_offsets not monotone".into());
            }
            if o > self.node_ids.len() {
                return Err("node_id_offsets exceeds node_ids length".into());
            }
            prev = o;
        }
        if self.node_id_offsets.first() != Some(&0) && !self.node_id_offsets.is_empty() {
            return Err("node_id_offsets must start at 0".into());
        }
        // Every node id must be unique.
        let mut seen = std::collections::HashSet::new();
        for &n in &self.node_ids {
            if !seen.insert(n) {
                return Err(format!("duplicate node id {n} in node_ids"));
            }
        }
        // Neighbour offsets must be monotone, bounded, and count one entry per
        // node in Δ1..Δk.
        let owners = self.node_ids.len() - self.self_offset();
        if self.nbr_offsets.len() != owners {
            return Err(format!(
                "nbr_offsets has {} entries but {} owner nodes",
                self.nbr_offsets.len(),
                owners
            ));
        }
        let mut prev = 0usize;
        for &o in &self.nbr_offsets {
            if o < prev {
                return Err("nbr_offsets not monotone".into());
            }
            if o > self.nbrs.len() {
                return Err("nbr_offsets exceeds nbrs length".into());
            }
            prev = o;
        }
        if self.nbr_rels.len() != self.nbrs.len() {
            return Err("nbr_rels length mismatch".into());
        }
        // Every neighbour must be present in node_ids.
        for &n in &self.nbrs {
            if !seen.contains(&n) {
                return Err(format!("neighbour {n} missing from node_ids"));
            }
        }
        // repr_map, if built, must agree with node_ids.
        if !self.repr_map.is_empty() {
            if self.repr_map.len() != self.nbrs.len() {
                return Err("repr_map length mismatch".into());
            }
            for (&r, &n) in self.repr_map.iter().zip(self.nbrs.iter()) {
                if r >= self.node_ids.len() || self.node_ids[r] != n {
                    return Err("repr_map does not point at the neighbour's row".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Figure 3 example by hand:
    /// node_ids = [E, C, D, A, B] with Δ0 = {E}, Δ1 = {C, D}, Δ2 = {A, B};
    /// neighbour lists: C -> [E], D -> [C], A -> [C, D], B -> [C, A].
    /// (B's sampled one-hop neighbourhood reuses the already-present A instead of
    /// introducing a new node — the reuse DENSE is designed around.)
    fn figure3_dense() -> Dense {
        let e = 4u64;
        let (a, b, c, d) = (0u64, 1u64, 2u64, 3u64);
        Dense::from_parts(
            vec![0, 1, 3],
            vec![e, c, d, a, b],
            vec![0, 1, 2, 4],
            vec![e, c, c, d, c, a],
            vec![0; 6],
            5,
        )
    }

    #[test]
    fn accessors_match_figure3() {
        let dense = figure3_dense();
        assert_eq!(dense.num_layers(), 2);
        assert_eq!(dense.target_nodes(), &[0, 1]); // A, B
        assert_eq!(dense.output_node_ids(), &[2, 3, 0, 1]); // C, D, A, B
        assert_eq!(dense.self_offset(), 1);
        assert_eq!(dense.stats().nodes_sampled, 5);
        assert_eq!(dense.stats().edges_sampled, 6);
        dense.validate().unwrap();
    }

    #[test]
    fn repr_map_points_at_node_rows() {
        let mut dense = figure3_dense();
        dense.build_repr_map();
        let map = dense.repr_map();
        // nbrs = [E, C, C, D, C, A] and node_ids = [E, C, D, A, B].
        assert_eq!(map, &[0, 1, 1, 2, 1, 3]);
        dense.validate().unwrap();
    }

    #[test]
    fn advance_layer_matches_paper_walkthrough() {
        let mut dense = figure3_dense();
        dense.build_repr_map();
        // After layer 1, node E and the neighbour lists of {C, D} are dropped.
        let removed = dense.advance_layer();
        assert_eq!(removed, 1); // len(Δ0)
        assert_eq!(dense.node_ids(), &[2, 3, 0, 1]); // C, D, A, B
        assert_eq!(dense.node_id_offsets(), &[0, 2]);
        assert_eq!(dense.output_node_ids(), &[0, 1]); // A, B
                                                      // Remaining neighbour lists are A -> [C, D] and B -> [C, A].
        assert_eq!(dense.nbr_offsets(), &[0, 2]);
        assert_eq!(dense.nbrs(), &[2, 3, 2, 0]);
        // repr_map entries now index into [C, D, A, B].
        assert_eq!(dense.repr_map(), &[0, 1, 0, 2]);
        dense.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn advance_layer_past_end_panics() {
        let mut dense = figure3_dense();
        dense.advance_layer();
        dense.advance_layer();
        // A two-layer structure supports at most two advances; the third must panic.
        dense.advance_layer();
    }

    #[test]
    fn validate_catches_duplicates() {
        let d = Dense::from_parts(vec![0, 1], vec![5, 5], vec![0], vec![5], vec![0], 1);
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_catches_missing_neighbor() {
        let d = Dense::from_parts(vec![0, 1], vec![1, 2], vec![0], vec![9], vec![0], 1);
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_offsets() {
        let d = Dense::from_parts(vec![0, 5], vec![1, 2], vec![0], vec![1], vec![0], 1);
        assert!(d.validate().is_err());
    }

    #[test]
    fn empty_dense_edge_cases() {
        let d = Dense::from_parts(vec![0], vec![], vec![], vec![], vec![], 0);
        assert_eq!(d.num_layers(), 0);
        assert!(d.target_nodes().is_empty());
        assert_eq!(d.self_offset(), 0);
    }
}

//! Compressed sparse row (CSR) adjacency.
//!
//! The CSR view is used where a full, static adjacency over the whole graph is
//! needed: dataset generation, full-neighbourhood aggregation on small graphs
//! (FB15k-237 in Table 8 uses *all* neighbours), and ground-truth checks in tests.
//! The out-of-core training path never materialises a full-graph CSR; it uses the
//! dual-sorted [`crate::InMemorySubgraph`] over in-buffer partitions instead.

use crate::{Edge, EdgeList, NodeId};

/// Compressed sparse row adjacency over destination (outgoing) or source
/// (incoming) neighbours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    num_nodes: u64,
}

impl Csr {
    /// Builds a CSR of *outgoing* neighbours: `neighbors(v)` lists all `u` with an
    /// edge `v -> u`.
    pub fn outgoing(edges: &EdgeList) -> Self {
        Self::build(edges, |e| (e.src, e.dst))
    }

    /// Builds a CSR of *incoming* neighbours: `neighbors(v)` lists all `u` with an
    /// edge `u -> v`.
    pub fn incoming(edges: &EdgeList) -> Self {
        Self::build(edges, |e| (e.dst, e.src))
    }

    fn build(edges: &EdgeList, key: impl Fn(&Edge) -> (NodeId, NodeId)) -> Self {
        let n = edges.num_nodes() as usize;
        let mut counts = vec![0usize; n];
        for e in edges.edges() {
            let (k, _) = key(e);
            counts[k as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        let mut neighbors = vec![0 as NodeId; edges.num_edges()];
        let mut cursor = offsets.clone();
        for e in edges.edges() {
            let (k, v) = key(e);
            neighbors[cursor[k as usize]] = v;
            cursor[k as usize] += 1;
        }
        Csr {
            offsets,
            neighbors,
            num_nodes: edges.num_nodes(),
        }
    }

    /// Returns the number of nodes.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Returns the total number of stored neighbour entries (equals the edge count).
    pub fn num_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Returns the neighbours of `node` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node as usize;
        assert!(i < self.num_nodes as usize, "node out of range");
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Returns the degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn diamond() -> EdgeList {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        EdgeList::from_edges(
            4,
            1,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 3),
                Edge::new(2, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn outgoing_neighbors() {
        let csr = Csr::outgoing(&diamond());
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[3]);
        assert_eq!(csr.neighbors(3), &[] as &[NodeId]);
        assert_eq!(csr.num_entries(), 4);
    }

    #[test]
    fn incoming_neighbors() {
        let csr = Csr::incoming(&diamond());
        assert_eq!(csr.neighbors(3), &[1, 2]);
        assert_eq!(csr.neighbors(0), &[] as &[NodeId]);
        assert_eq!(csr.neighbors(1), &[0]);
    }

    #[test]
    fn degrees() {
        let csr = Csr::outgoing(&diamond());
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(3), 0);
    }

    #[test]
    fn empty_graph() {
        let el = EdgeList::new(0);
        let csr = Csr::outgoing(&el);
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn neighbors_out_of_range_panics() {
        let csr = Csr::outgoing(&diamond());
        let _ = csr.neighbors(10);
    }

    #[test]
    fn csr_entry_count_matches_edge_count_with_duplicates() {
        let mut el = EdgeList::new(2);
        el.push(Edge::new(0, 1)).unwrap();
        el.push(Edge::new(0, 1)).unwrap();
        let csr = Csr::outgoing(&el);
        assert_eq!(csr.neighbors(0), &[1, 1]);
    }
}

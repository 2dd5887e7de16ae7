//! Flat edge-list representation of a graph.
//!
//! MariusGNN stores a graph as an edge list (paper §3); all other structures (CSR,
//! edge buckets, in-memory subgraphs) are derived views. Edges carry a relation id
//! so that the same type covers homogeneous graphs (relation `0` everywhere) and
//! knowledge graphs (one relation per edge type).

use crate::{GraphError, NodeId, RelId, Result};

/// A single directed edge `(src) --rel--> (dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Source node id.
    pub src: NodeId,
    /// Relation (edge type) id; `0` for homogeneous graphs.
    pub rel: RelId,
    /// Destination node id.
    pub dst: NodeId,
}

impl Edge {
    /// Creates a homogeneous (relation `0`) edge.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        Edge { src, rel: 0, dst }
    }

    /// Creates a knowledge-graph edge with an explicit relation.
    pub fn with_rel(src: NodeId, rel: RelId, dst: NodeId) -> Self {
        Edge { src, rel, dst }
    }

    /// Returns the edge with source and destination swapped (same relation).
    pub fn reversed(&self) -> Edge {
        Edge {
            src: self.dst,
            rel: self.rel,
            dst: self.src,
        }
    }

    /// Number of bytes an edge occupies in the on-disk format used by the storage
    /// layer (two `u64` endpoints plus one `u32` relation).
    pub const DISK_BYTES: usize = 8 + 8 + 4;
}

/// A graph represented as a flat list of directed edges plus a node count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    num_nodes: u64,
    num_relations: u32,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_nodes` nodes.
    pub fn new(num_nodes: u64) -> Self {
        EdgeList {
            num_nodes,
            num_relations: 1,
            edges: Vec::new(),
        }
    }

    /// Creates an edge list from parts, validating that every endpoint is in range.
    pub fn from_edges(num_nodes: u64, num_relations: u32, edges: Vec<Edge>) -> Result<Self> {
        for e in &edges {
            if e.src >= num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: e.src,
                    num_nodes,
                });
            }
            if e.dst >= num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: e.dst,
                    num_nodes,
                });
            }
        }
        Ok(EdgeList {
            num_nodes,
            num_relations: num_relations.max(1),
            edges,
        })
    }

    /// Adds a single edge.
    ///
    /// Returns an error if either endpoint is outside the node range.
    pub fn push(&mut self, edge: Edge) -> Result<()> {
        if edge.src >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: edge.src,
                num_nodes: self.num_nodes,
            });
        }
        if edge.dst >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: edge.dst,
                num_nodes: self.num_nodes,
            });
        }
        if edge.rel >= self.num_relations {
            self.num_relations = edge.rel + 1;
        }
        self.edges.push(edge);
        Ok(())
    }

    /// Returns the number of nodes.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Returns the number of distinct relations (edge types).
    pub fn num_relations(&self) -> u32 {
        self.num_relations
    }

    /// Returns the number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Returns the edges as a slice.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Returns the out-degree of every node.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes as usize];
        for e in &self.edges {
            deg[e.src as usize] += 1;
        }
        deg
    }

    /// Splits the edges into train/validation/test sets with the given fractions,
    /// deterministically based on the edge index (every k-th edge is held out).
    ///
    /// Fractions must satisfy `valid_frac + test_frac < 1.0`; the remainder is the
    /// training set.
    pub fn split_edges(
        &self,
        valid_frac: f64,
        test_frac: f64,
    ) -> (Vec<Edge>, Vec<Edge>, Vec<Edge>) {
        assert!(
            valid_frac >= 0.0 && test_frac >= 0.0 && valid_frac + test_frac < 1.0,
            "invalid split fractions"
        );
        let n = self.edges.len();
        let n_valid = (n as f64 * valid_frac) as usize;
        let n_test = (n as f64 * test_frac) as usize;
        let mut train = Vec::with_capacity(n - n_valid - n_test);
        let mut valid = Vec::with_capacity(n_valid);
        let mut test = Vec::with_capacity(n_test);
        // Deterministic striding keeps the split reproducible without shuffling.
        let stride_valid = n.checked_div(n_valid).unwrap_or(usize::MAX);
        let stride_test = n.checked_div(n_test).unwrap_or(usize::MAX);
        for (i, e) in self.edges.iter().enumerate() {
            if stride_valid != usize::MAX && i % stride_valid == 0 && valid.len() < n_valid {
                valid.push(*e);
            } else if stride_test != usize::MAX && i % stride_test == 1 && test.len() < n_test {
                test.push(*e);
            } else {
                train.push(*e);
            }
        }
        (train, valid, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_list() -> EdgeList {
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::with_rel(0, 3, 2),
        ];
        EdgeList::from_edges(3, 4, edges).unwrap()
    }

    #[test]
    fn edge_constructors() {
        let e = Edge::new(1, 2);
        assert_eq!(e.rel, 0);
        let e = Edge::with_rel(1, 5, 2);
        assert_eq!(e.rel, 5);
        assert_eq!(e.reversed(), Edge::with_rel(2, 5, 1));
    }

    #[test]
    fn from_edges_validates_ranges() {
        let bad = vec![Edge::new(0, 5)];
        assert!(EdgeList::from_edges(3, 1, bad).is_err());
        let bad = vec![Edge::new(5, 0)];
        assert!(EdgeList::from_edges(3, 1, bad).is_err());
    }

    #[test]
    fn push_validates_and_tracks_relations() {
        let mut el = EdgeList::new(4);
        el.push(Edge::with_rel(0, 7, 1)).unwrap();
        assert_eq!(el.num_relations(), 8);
        assert!(el.push(Edge::new(0, 10)).is_err());
        assert!(el.push(Edge::new(10, 0)).is_err());
        assert_eq!(el.num_edges(), 1);
    }

    #[test]
    fn counts_and_storage() {
        let el = sample_list();
        assert_eq!(el.num_nodes(), 3);
        assert_eq!(el.num_edges(), 4);
        assert!(!el.is_empty());
    }

    #[test]
    fn degree_computation() {
        let el = sample_list();
        assert_eq!(el.out_degrees(), vec![2, 1, 1]);
    }

    #[test]
    fn split_edges_partitions_all_edges() {
        let mut el = EdgeList::new(100);
        for i in 0..100u64 {
            el.push(Edge::new(i % 100, (i + 1) % 100)).unwrap();
        }
        let (train, valid, test) = el.split_edges(0.1, 0.1);
        assert_eq!(train.len() + valid.len() + test.len(), 100);
        assert_eq!(valid.len(), 10);
        assert_eq!(test.len(), 10);
    }

    #[test]
    fn split_edges_zero_fractions() {
        let el = sample_list();
        let (train, valid, test) = el.split_edges(0.0, 0.0);
        assert_eq!(train.len(), 4);
        assert!(valid.is_empty());
        assert!(test.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid split fractions")]
    fn split_edges_invalid_fractions_panics() {
        let el = sample_list();
        let _ = el.split_edges(0.6, 0.6);
    }

    #[test]
    fn edges_roundtrip_through_from_edges() {
        let el = sample_list();
        let edges = el.edges().to_vec();
        let el2 = EdgeList::from_edges(3, 4, edges).unwrap();
        assert_eq!(el, el2);
    }
}

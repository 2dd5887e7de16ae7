//! The dual-sorted in-memory edge structure used for one-hop sampling (paper §4.1).
//!
//! MariusGNN keeps two sorted copies of the edges currently resident in CPU memory
//! (all edges between the node partitions in the buffer): one sorted by source node
//! id and one sorted by destination node id. A per-node offset index into each copy
//! lets any thread sample incoming and outgoing one-hop neighbours of an arbitrary
//! node set without synchronisation, which is what makes the DENSE sampler's
//! CPU-parallel one-hop step possible.
//!
//! The structure intentionally supports *subgraphs*: node ids are global ids, and
//! only the nodes incident to the provided edges are indexed. Asking for the
//! neighbours of a node that has no in-memory edges returns an empty slice, which
//! is exactly the behaviour disk-based training relies on (neighbourhoods are
//! truncated to the in-memory portion of the graph, paper §7.2).

use crate::{Edge, NodeId};

/// Dual-sorted in-memory edge lists with per-node offsets.
#[derive(Debug, Clone)]
pub struct InMemorySubgraph {
    /// Edges sorted by (src, dst).
    by_src: Vec<Edge>,
    /// Edges sorted by (dst, src).
    by_dst: Vec<Edge>,
    /// Sorted unique node ids that appear as an endpoint of at least one edge.
    nodes: Vec<NodeId>,
    /// `out_offsets[i]..out_offsets[i+1]` is the range of `by_src` whose source is `nodes[i]`.
    out_offsets: Vec<usize>,
    /// `in_offsets[i]..in_offsets[i+1]` is the range of `by_dst` whose destination is `nodes[i]`.
    in_offsets: Vec<usize>,
}

impl InMemorySubgraph {
    /// Builds the dual-sorted structure from an arbitrary collection of edges.
    pub fn from_edges(edges: &[Edge]) -> Self {
        let mut by_src: Vec<Edge> = edges.to_vec();
        by_src.sort_unstable_by_key(|e| (e.src, e.dst, e.rel));
        let mut by_dst: Vec<Edge> = edges.to_vec();
        by_dst.sort_unstable_by_key(|e| (e.dst, e.src, e.rel));

        // Collect the sorted unique endpoints.
        let mut nodes: Vec<NodeId> = Vec::with_capacity(edges.len());
        for e in edges {
            nodes.push(e.src);
            nodes.push(e.dst);
        }
        nodes.sort_unstable();
        nodes.dedup();

        // Build offsets by walking each sorted list once.
        let mut out_offsets = vec![0usize; nodes.len() + 1];
        let mut in_offsets = vec![0usize; nodes.len() + 1];
        {
            let mut cursor = 0usize;
            for (i, &node) in nodes.iter().enumerate() {
                out_offsets[i] = cursor;
                while cursor < by_src.len() && by_src[cursor].src == node {
                    cursor += 1;
                }
                out_offsets[i + 1] = cursor;
            }
        }
        {
            let mut cursor = 0usize;
            for (i, &node) in nodes.iter().enumerate() {
                in_offsets[i] = cursor;
                while cursor < by_dst.len() && by_dst[cursor].dst == node {
                    cursor += 1;
                }
                in_offsets[i + 1] = cursor;
            }
        }

        InMemorySubgraph {
            by_src,
            by_dst,
            nodes,
            out_offsets,
            in_offsets,
        }
    }

    /// Returns the number of distinct nodes with at least one in-memory edge.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of in-memory edges.
    pub fn num_edges(&self) -> usize {
        self.by_src.len()
    }

    /// Returns `true` if `node` has at least one in-memory edge.
    pub fn contains(&self, node: NodeId) -> bool {
        self.node_index(node).is_some()
    }

    /// Returns the sorted list of in-memory node ids.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn node_index(&self, node: NodeId) -> Option<usize> {
        self.nodes.binary_search(&node).ok()
    }

    /// Returns the outgoing edges of `node` (edges with `node` as source), or an
    /// empty slice if the node has no in-memory outgoing edges.
    pub fn outgoing(&self, node: NodeId) -> &[Edge] {
        match self.node_index(node) {
            Some(i) => &self.by_src[self.out_offsets[i]..self.out_offsets[i + 1]],
            None => &[],
        }
    }

    /// Returns the incoming edges of `node` (edges with `node` as destination), or
    /// an empty slice if the node has no in-memory incoming edges.
    pub fn incoming(&self, node: NodeId) -> &[Edge] {
        match self.node_index(node) {
            Some(i) => &self.by_dst[self.in_offsets[i]..self.in_offsets[i + 1]],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_graph() -> Vec<Edge> {
        // The example graph from Figure 1/3 of the paper:
        // nodes {A=0, B=1, C=2, D=3, E=4, F=5}
        // edges (incoming neighbourhood view): B->A? The paper draws incoming
        // neighbours: A's in-neighbours {C, D}, B's {C, E}, C's {E, B}, D's {C}.
        // Encode as directed edges pointing to the aggregating node:
        vec![
            Edge::new(2, 0), // C -> A
            Edge::new(3, 0), // D -> A
            Edge::new(2, 1), // C -> B
            Edge::new(4, 1), // E -> B
            Edge::new(4, 2), // E -> C
            Edge::new(1, 2), // B -> C
            Edge::new(2, 3), // C -> D
            Edge::new(0, 5), // A -> F
        ]
    }

    #[test]
    fn builds_sorted_copies() {
        let g = InMemorySubgraph::from_edges(&figure1_graph());
        assert_eq!(g.num_edges(), 8);
        // Walking the nodes in order walks each sorted copy front to back: the
        // per-node slices are contiguous runs that together hold every edge.
        let by_src: Vec<_> = g.nodes().iter().flat_map(|&n| g.outgoing(n)).collect();
        assert_eq!(by_src.len(), 8);
        assert!(by_src.windows(2).all(|w| w[0].src <= w[1].src));
        let by_dst: Vec<_> = g.nodes().iter().flat_map(|&n| g.incoming(n)).collect();
        assert_eq!(by_dst.len(), 8);
        assert!(by_dst.windows(2).all(|w| w[0].dst <= w[1].dst));
    }

    #[test]
    fn incoming_matches_figure1() {
        let g = InMemorySubgraph::from_edges(&figure1_graph());
        let a_in: Vec<_> = g.incoming(0).iter().map(|e| e.src).collect();
        assert_eq!(a_in, vec![2, 3]); // C and D
        let b_in: Vec<_> = g.incoming(1).iter().map(|e| e.src).collect();
        assert_eq!(b_in, vec![2, 4]); // C and E
        let c_in: Vec<_> = g.incoming(2).iter().map(|e| e.src).collect();
        assert_eq!(c_in, vec![1, 4]); // B and E
    }

    #[test]
    fn outgoing_neighbors() {
        let g = InMemorySubgraph::from_edges(&figure1_graph());
        let c_out: Vec<_> = g.outgoing(2).iter().map(|e| e.dst).collect();
        assert_eq!(c_out, vec![0, 1, 3]);
        assert_eq!(g.incoming(0).len(), 2);
    }

    #[test]
    fn missing_node_returns_empty() {
        let g = InMemorySubgraph::from_edges(&figure1_graph());
        assert!(g.outgoing(99).is_empty());
        assert!(g.incoming(99).is_empty());
        assert!(!g.contains(99));
        assert!(g.contains(4));
    }

    #[test]
    fn node_set_is_unique_and_sorted() {
        let g = InMemorySubgraph::from_edges(&figure1_graph());
        let nodes = g.nodes();
        assert_eq!(nodes, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(g.num_nodes(), 6);
    }

    #[test]
    fn empty_edge_set() {
        let g = InMemorySubgraph::from_edges(&[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.outgoing(0).is_empty());
    }

    #[test]
    fn handles_duplicate_and_self_edges() {
        let edges = vec![Edge::new(1, 1), Edge::new(1, 1), Edge::new(1, 2)];
        let g = InMemorySubgraph::from_edges(&edges);
        assert_eq!(g.outgoing(1).len(), 3);
        assert_eq!(g.incoming(1).len(), 2);
    }

    #[test]
    fn works_with_sparse_global_ids() {
        // Global node ids from different partitions are non-contiguous.
        let edges = vec![Edge::new(1_000_000, 5), Edge::new(5, 2_000_000)];
        let g = InMemorySubgraph::from_edges(&edges);
        assert!(g.contains(1_000_000));
        assert_eq!(g.outgoing(1_000_000)[0].dst, 5);
        assert_eq!(g.incoming(2_000_000)[0].src, 5);
    }
}

//! Graph representations and synthetic datasets for the MariusGNN reproduction.
//!
//! This crate provides every graph-side substrate the paper's system depends on:
//!
//! * [`EdgeList`] — the on-disk/authoritative representation of a graph as a flat
//!   list of `(source, relation, destination)` triples (relations collapse to a
//!   single id for homogeneous graphs).
//! * [`Csr`] — a compressed sparse row adjacency used by full-graph
//!   (non-sampled) operations and by the dataset generators.
//! * [`InMemorySubgraph`] — the dual-sorted edge-list structure of paper §4.1: the
//!   edges currently resident in CPU memory sorted once by source and once by
//!   destination, plus per-node offset arrays, so that one-hop neighbours of any
//!   node set can be sampled in parallel.
//! * [`sampling`] — DENSE multi-hop neighbourhood sampling over an
//!   [`InMemorySubgraph`] (Algorithms 1–2), and negative sampling.
//! * [`Partitioner`] — node partitioning ([`PartitionAssignment`]) and edge
//!   buckets `(i, j)` ([`EdgeBucket`], paper §3).
//! * [`temporal`] — chronological edge splits over the implicit generation-order
//!   timestamps, the substrate for temporal tasks and streaming ingest.
//! * [`datasets`] — deterministic synthetic generators that stand in for the
//!   paper's datasets (Table 1), preserving degree distribution shape, feature
//!   dimension, labeled-node fraction and relation counts at a reduced scale.
//!
//! # Examples
//!
//! ```
//! use marius_graph::datasets::{DatasetSpec, ScaledDataset};
//!
//! let spec = DatasetSpec::fb15k_237().scaled(0.05);
//! let data = ScaledDataset::generate(&spec, 42);
//! assert!(data.graph.num_edges() > 0);
//! assert_eq!(data.num_nodes(), spec.num_nodes);
//! ```

#![deny(unreachable_pub, missing_docs)]

mod csr;
pub mod datasets;
mod dense;
mod edge_list;
pub mod in_memory;
mod multi_hop;
mod negative;
mod partition;
pub mod sampling;
pub mod temporal;

pub use csr::Csr;
pub use edge_list::{Edge, EdgeList};
pub use in_memory::InMemorySubgraph;
pub use partition::{EdgeBucket, PartitionAssignment, Partitioner};
pub use temporal::{chronological_split, observed_nodes, ChronologicalSplit};

/// Node identifier type used across the reproduction.
pub type NodeId = u64;

/// Relation (edge type) identifier for knowledge graphs; `0` for homogeneous graphs.
pub type RelId = u32;

/// Partition identifier (physical or logical).
pub type PartitionId = u32;

/// Errors produced by graph construction and partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced by an edge is outside the declared node-count range.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The declared number of nodes.
        num_nodes: u64,
    },
    /// A partitioning parameter was invalid (for example zero partitions).
    InvalidPartitioning {
        /// Human readable description.
        reason: String,
    },
    /// A requested entity (node, partition, bucket) does not exist.
    NotFound {
        /// Human readable description.
        reason: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::InvalidPartitioning { reason } => {
                write!(f, "invalid partitioning: {reason}")
            }
            GraphError::NotFound { reason } => write!(f, "not found: {reason}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenience result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = GraphError::NodeOutOfRange {
            node: 10,
            num_nodes: 5,
        };
        assert!(format!("{e}").contains("10"));
        let e = GraphError::InvalidPartitioning {
            reason: "zero partitions".into(),
        };
        assert!(format!("{e}").contains("zero"));
        let e = GraphError::NotFound {
            reason: "bucket (1,2)".into(),
        };
        assert!(format!("{e}").contains("bucket"));
    }
}

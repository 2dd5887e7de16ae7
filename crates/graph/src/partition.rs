//! Node partitioning and edge buckets (paper §3).
//!
//! For disk-based training the graph's nodes are split into `p` *physical
//! partitions*; the base representations of each partition are stored contiguously
//! on disk. The edge list is organised into *edge buckets*: bucket `(i, j)` holds
//! every edge whose source lies in partition `i` and destination in partition `j`.
//! Training brings subsets of partitions (and the corresponding `c²` buckets) into
//! a fixed-capacity CPU buffer.
//!
//! Two assignment strategies are provided, matching §5 of the paper:
//!
//! * [`Partitioner::random`] — uniform random assignment (link prediction, COMET).
//! * [`Partitioner::training_nodes_first`] — all labeled training nodes are packed
//!   sequentially into the first `k` partitions so they can be cached in memory
//!   for the whole epoch (node classification policy, §5.2).

use crate::{Edge, EdgeList, GraphError, NodeId, PartitionId, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// A mapping from nodes to physical partitions.
#[derive(Debug, Clone)]
pub struct PartitionAssignment {
    node_to_partition: Vec<PartitionId>,
    partition_nodes: Vec<Vec<NodeId>>,
    num_partitions: u32,
}

impl PartitionAssignment {
    /// Builds an assignment from an explicit node→partition vector.
    pub fn from_vec(node_to_partition: Vec<PartitionId>, num_partitions: u32) -> Result<Self> {
        if num_partitions == 0 {
            return Err(GraphError::InvalidPartitioning {
                reason: "number of partitions must be positive".into(),
            });
        }
        let mut partition_nodes = vec![Vec::new(); num_partitions as usize];
        for (node, &p) in node_to_partition.iter().enumerate() {
            if p >= num_partitions {
                return Err(GraphError::InvalidPartitioning {
                    reason: format!("node {node} assigned to partition {p} >= {num_partitions}"),
                });
            }
            partition_nodes[p as usize].push(node as NodeId);
        }
        Ok(PartitionAssignment {
            node_to_partition,
            partition_nodes,
            num_partitions,
        })
    }

    /// Returns the number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// Returns the number of nodes covered by the assignment.
    pub fn num_nodes(&self) -> u64 {
        self.node_to_partition.len() as u64
    }

    /// Returns the partition that `node` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn partition_of(&self, node: NodeId) -> PartitionId {
        self.node_to_partition[node as usize]
    }

    /// Returns the nodes assigned to `partition`.
    pub fn nodes_in(&self, partition: PartitionId) -> &[NodeId] {
        &self.partition_nodes[partition as usize]
    }

    /// Returns the size (node count) of each partition.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partition_nodes.iter().map(|v| v.len()).collect()
    }

    /// Returns the bucket index `(i, j)` an edge belongs to.
    pub fn bucket_of(&self, edge: &Edge) -> (PartitionId, PartitionId) {
        (self.partition_of(edge.src), self.partition_of(edge.dst))
    }
}

/// An edge bucket `(src_partition, dst_partition)` with the edges it contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeBucket {
    /// Source partition id.
    pub src_partition: PartitionId,
    /// Destination partition id.
    pub dst_partition: PartitionId,
    /// Edges whose source is in `src_partition` and destination in `dst_partition`.
    pub edges: Vec<Edge>,
}

impl EdgeBucket {
    /// Returns the bucket key `(i, j)`.
    pub fn key(&self) -> (PartitionId, PartitionId) {
        (self.src_partition, self.dst_partition)
    }

    /// Returns the number of edges in the bucket.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the bucket holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Builds partition assignments and edge buckets.
#[derive(Debug, Clone)]
pub struct Partitioner {
    num_partitions: u32,
}

impl Partitioner {
    /// Creates a partitioner producing `num_partitions` physical partitions.
    pub fn new(num_partitions: u32) -> Result<Self> {
        if num_partitions == 0 {
            return Err(GraphError::InvalidPartitioning {
                reason: "number of partitions must be positive".into(),
            });
        }
        Ok(Partitioner { num_partitions })
    }

    /// Assigns every node to a uniformly random partition.
    pub fn random<R: Rng + ?Sized>(&self, num_nodes: u64, rng: &mut R) -> PartitionAssignment {
        // Balanced random assignment: shuffle node ids and deal them round-robin,
        // so partition sizes differ by at most one.
        let mut nodes: Vec<NodeId> = (0..num_nodes).collect();
        nodes.shuffle(rng);
        let mut node_to_partition = vec![0 as PartitionId; num_nodes as usize];
        for (i, node) in nodes.into_iter().enumerate() {
            node_to_partition[node as usize] = (i as u64 % self.num_partitions as u64) as u32;
        }
        PartitionAssignment::from_vec(node_to_partition, self.num_partitions)
            .expect("round-robin assignment is always valid")
    }

    /// Packs `training_nodes` sequentially into the lowest-numbered partitions and
    /// assigns the remaining nodes randomly (paper §5.2).
    ///
    /// Returns the assignment together with the number of partitions `k` that
    /// contain training nodes.
    pub fn training_nodes_first<R: Rng + ?Sized>(
        &self,
        num_nodes: u64,
        training_nodes: &[NodeId],
        rng: &mut R,
    ) -> (PartitionAssignment, u32) {
        let partition_capacity = (num_nodes as usize)
            .div_ceil(self.num_partitions as usize)
            .max(1);
        let mut node_to_partition = vec![u32::MAX; num_nodes as usize];

        // Fill the first partitions with training nodes, `partition_capacity` each.
        let mut cursor = 0usize;
        for &t in training_nodes {
            let p = (cursor / partition_capacity) as u32;
            node_to_partition[t as usize] = p.min(self.num_partitions - 1);
            cursor += 1;
        }
        let k = if training_nodes.is_empty() {
            0
        } else {
            ((cursor - 1) / partition_capacity) as u32 + 1
        };

        // Assign the remaining nodes to the remaining slots round-robin after a shuffle.
        let mut rest: Vec<NodeId> = (0..num_nodes)
            .filter(|n| node_to_partition[*n as usize] == u32::MAX)
            .collect();
        rest.shuffle(rng);
        // Compute remaining capacity of each partition.
        let mut counts = vec![0usize; self.num_partitions as usize];
        for &p in node_to_partition.iter().filter(|&&p| p != u32::MAX) {
            counts[p as usize] += 1;
        }
        let mut p = 0u32;
        for node in rest {
            // Skip partitions that are already at capacity.
            let mut attempts = 0;
            while counts[p as usize] >= partition_capacity && attempts < self.num_partitions {
                p = (p + 1) % self.num_partitions;
                attempts += 1;
            }
            node_to_partition[node as usize] = p;
            counts[p as usize] += 1;
            p = (p + 1) % self.num_partitions;
        }

        let assignment = PartitionAssignment::from_vec(node_to_partition, self.num_partitions)
            .expect("all nodes assigned");
        (assignment, k.min(self.num_partitions))
    }

    /// Splits an edge list into the `p × p` edge buckets induced by `assignment`.
    ///
    /// Buckets are returned in row-major order `(0,0), (0,1), ..., (p-1,p-1)`;
    /// empty buckets are included so that indexing by `i * p + j` is always valid.
    pub fn build_buckets(
        &self,
        edges: &EdgeList,
        assignment: &PartitionAssignment,
    ) -> Result<Vec<EdgeBucket>> {
        if assignment.num_nodes() < edges.num_nodes() {
            return Err(GraphError::InvalidPartitioning {
                reason: format!(
                    "assignment covers {} nodes but graph has {}",
                    assignment.num_nodes(),
                    edges.num_nodes()
                ),
            });
        }
        let p = self.num_partitions as usize;
        let mut buckets: Vec<EdgeBucket> = (0..p * p)
            .map(|idx| EdgeBucket {
                src_partition: (idx / p) as u32,
                dst_partition: (idx % p) as u32,
                edges: Vec::new(),
            })
            .collect();
        for e in edges.edges() {
            let (i, j) = assignment.bucket_of(e);
            buckets[i as usize * p + j as usize].edges.push(*e);
        }
        Ok(buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_graph(n: u64) -> EdgeList {
        let mut el = EdgeList::new(n);
        for i in 0..n - 1 {
            el.push(Edge::new(i, i + 1)).unwrap();
        }
        el
    }

    #[test]
    fn partitioner_rejects_zero_partitions() {
        assert!(Partitioner::new(0).is_err());
    }

    #[test]
    fn random_partitioning_is_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Partitioner::new(4).unwrap();
        let a = p.random(100, &mut rng);
        let sizes = a.partition_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        for s in sizes {
            assert_eq!(s, 25);
        }
    }

    #[test]
    fn random_partitioning_uneven_sizes_differ_by_at_most_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = Partitioner::new(3).unwrap();
        let a = p.random(10, &mut rng);
        let sizes = a.partition_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_of_and_nodes_in_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = Partitioner::new(5).unwrap();
        let a = p.random(50, &mut rng);
        for node in 0..50u64 {
            let part = a.partition_of(node);
            assert!(a.nodes_in(part).contains(&node));
        }
    }

    #[test]
    fn from_vec_validates_partition_ids() {
        assert!(PartitionAssignment::from_vec(vec![0, 1, 5], 3).is_err());
        assert!(PartitionAssignment::from_vec(vec![0, 1, 2], 0).is_err());
        assert!(PartitionAssignment::from_vec(vec![0, 1, 2], 3).is_ok());
    }

    #[test]
    fn buckets_cover_all_edges() {
        let mut rng = StdRng::seed_from_u64(4);
        let el = line_graph(40);
        let p = Partitioner::new(4).unwrap();
        let a = p.random(40, &mut rng);
        let buckets = p.build_buckets(&el, &a).unwrap();
        assert_eq!(buckets.len(), 16);
        assert_eq!(
            buckets.iter().map(EdgeBucket::len).sum::<usize>(),
            el.num_edges()
        );
        // Every edge is in exactly the bucket keyed by its endpoints' partitions.
        for b in &buckets {
            for e in &b.edges {
                assert_eq!(a.partition_of(e.src), b.src_partition);
                assert_eq!(a.partition_of(e.dst), b.dst_partition);
            }
        }
    }

    #[test]
    fn buckets_row_major_indexing() {
        let mut rng = StdRng::seed_from_u64(5);
        let el = line_graph(20);
        let p = Partitioner::new(3).unwrap();
        let a = p.random(20, &mut rng);
        let buckets = p.build_buckets(&el, &a).unwrap();
        for i in 0..3u32 {
            for j in 0..3u32 {
                let b = &buckets[(i * 3 + j) as usize];
                assert_eq!(b.key(), (i, j));
            }
        }
    }

    #[test]
    fn build_buckets_rejects_short_assignment() {
        let mut rng = StdRng::seed_from_u64(6);
        let el = line_graph(20);
        let p = Partitioner::new(2).unwrap();
        let a = p.random(10, &mut rng);
        assert!(p.build_buckets(&el, &a).is_err());
    }

    #[test]
    fn training_nodes_first_packs_training_nodes_into_prefix() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Partitioner::new(10).unwrap();
        let training: Vec<NodeId> = (0..15).map(|i| i * 6 % 100).collect();
        let (a, k) = p.training_nodes_first(100, &training, &mut rng);
        // 100 nodes / 10 partitions = 10 per partition; 15 training nodes need 2 partitions.
        assert_eq!(k, 2);
        for &t in &training {
            assert!(a.partition_of(t) < k);
        }
        assert_eq!(a.partition_sizes().iter().sum::<usize>(), 100);
    }

    #[test]
    fn training_nodes_first_with_no_training_nodes() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = Partitioner::new(4).unwrap();
        let (a, k) = p.training_nodes_first(20, &[], &mut rng);
        assert_eq!(k, 0);
        assert_eq!(a.partition_sizes().iter().sum::<usize>(), 20);
    }

    #[test]
    fn training_nodes_first_respects_capacity() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = Partitioner::new(4).unwrap();
        let training: Vec<NodeId> = (0..5).collect();
        let (a, _k) = p.training_nodes_first(16, &training, &mut rng);
        let sizes = a.partition_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 16);
        // Capacity per partition is ceil(16/4) = 4, so no partition exceeds it by
        // more than the training-node overflow of one partition.
        for s in sizes {
            assert!(s <= 5);
        }
    }

    #[test]
    fn empty_bucket_properties() {
        let b = EdgeBucket {
            src_partition: 1,
            dst_partition: 2,
            edges: vec![],
        };
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.key(), (1, 2));
    }
}

//! Embedding backends: where a server's node representations come from.
//!
//! Both backends serve the *same bytes* for the same node — the in-memory
//! backend materialises the whole table up front, the out-of-core backend
//! pages partitions through [`ReadCache`] — so switching backends can never
//! change a query result, only its latency profile.
//!
//! Both hand rows out **where they lie**, a block at a time: out of core a
//! block is one partition, fetched through the cache exactly once per call
//! and dropped before the next one is fetched (at most one read-through block
//! is alive per query thread); in memory it is a slab of the flat table.
//! The backend copies and transposes nothing on the way to the caller. The
//! query's deadline clock is checked before every block.

use marius_graph::{NodeId, PartitionAssignment, PartitionId};
use marius_storage::{PartitionStore, StorageError};

use crate::admission::QueryClock;
use crate::cache::ReadCache;
use crate::error::ServeResult;

/// Rows per in-memory block: the granularity of deadline checks and of the
/// scan's score scratch when the whole table is one allocation.
const SLAB_ROWS: usize = 1024;

/// Which node each row of a scan block holds.
pub(crate) enum BlockIds<'a> {
    /// Row `i` is node `first + i` (a slab of the in-memory table).
    Consecutive { first: NodeId },
    /// Row `i` is node `nodes[i]` (a partition's node list).
    Listed { nodes: &'a [NodeId] },
}

impl BlockIds<'_> {
    pub(crate) fn node(&self, row: usize) -> NodeId {
        match self {
            BlockIds::Consecutive { first } => first + row as NodeId,
            BlockIds::Listed { nodes } => nodes[row],
        }
    }
}

// One Backend exists per Server and lives on the heap-heavy side anyway, so
// the variant size gap has no cost worth an indirection.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Backend {
    /// The full `num_nodes × dim` table resident in memory.
    InMemory { flat: Vec<f32>, dim: usize },
    /// A shared immutable partition-store view behind the read cache.
    OutOfCore {
        store: PartitionStore,
        assignment: PartitionAssignment,
        /// `node id → (partition, row within the partition block)`.
        node_location: Vec<(PartitionId, u32)>,
        cache: ReadCache,
        dim: usize,
    },
}

impl Backend {
    pub(crate) fn in_memory(flat: Vec<f32>, dim: usize) -> Self {
        Backend::InMemory { flat, dim }
    }

    pub(crate) fn out_of_core(
        store: PartitionStore,
        assignment: PartitionAssignment,
        cache: ReadCache,
        dim: usize,
    ) -> Self {
        let mut node_location = vec![(0u32, 0u32); assignment.num_nodes() as usize];
        for p in 0..assignment.num_partitions() {
            for (i, &node) in assignment.nodes_in(p).iter().enumerate() {
                node_location[node as usize] = (p, i as u32);
            }
        }
        Backend::OutOfCore {
            store,
            assignment,
            node_location,
            cache,
            dim,
        }
    }

    pub(crate) fn cache(&self) -> Option<&ReadCache> {
        match self {
            Backend::InMemory { .. } => None,
            Backend::OutOfCore { cache, .. } => Some(cache),
        }
    }

    /// The backing partition store, when serving out of core.
    pub(crate) fn store(&self) -> Option<&PartitionStore> {
        match self {
            Backend::InMemory { .. } => None,
            Backend::OutOfCore { store, .. } => Some(store),
        }
    }

    fn num_nodes(&self) -> usize {
        match self {
            Backend::InMemory { flat, dim } => flat.len().checked_div(*dim).unwrap_or(0),
            Backend::OutOfCore { node_location, .. } => node_location.len(),
        }
    }

    /// The full scan: calls `f` once per block with the block's row → node id
    /// map and its rows (row-major, `dim` values each). Every node appears in
    /// exactly one block; out of core every partition is fetched exactly once.
    pub(crate) fn for_each_block(
        &self,
        clock: &QueryClock,
        mut f: impl FnMut(BlockIds<'_>, &[f32]),
    ) -> ServeResult<()> {
        match self {
            Backend::InMemory { flat, dim } => {
                for (slab, rows) in flat.chunks((SLAB_ROWS * dim).max(1)).enumerate() {
                    clock.check()?;
                    let first = (slab * SLAB_ROWS) as NodeId;
                    f(BlockIds::Consecutive { first }, rows);
                }
            }
            Backend::OutOfCore {
                store,
                assignment,
                cache,
                dim,
                ..
            } => {
                for p in 0..assignment.num_partitions() {
                    clock.check()?;
                    let nodes = assignment.nodes_in(p);
                    let block = cache.fetch(store, p, nodes.len(), *dim)?;
                    f(BlockIds::Listed { nodes }, &block);
                }
            }
        }
        Ok(())
    }

    /// The point lookup: calls `f(i, row)` with the row of `nodes[i]` for every
    /// `i`, each exactly once (duplicates included), in an unspecified order.
    /// Out of core the lookups are bucketed by partition, so each distinct
    /// partition is fetched once per call however the list interleaves them.
    /// An out-of-range id fails the whole call before anything is fetched.
    pub(crate) fn for_each_row(
        &self,
        nodes: &[NodeId],
        clock: &QueryClock,
        mut f: impl FnMut(usize, &[f32]),
    ) -> ServeResult<()> {
        let num_nodes = self.num_nodes();
        if let Some(&bad) = nodes.iter().find(|&&n| n >= num_nodes as NodeId) {
            return Err(StorageError::InvalidPlan {
                reason: format!("query node {bad} is out of range (graph has {num_nodes} nodes)"),
            }
            .into());
        }
        match self {
            Backend::InMemory { flat, dim } => {
                for (slab, chunk) in nodes.chunks(SLAB_ROWS).enumerate() {
                    clock.check()?;
                    for (i, &node) in chunk.iter().enumerate() {
                        let start = node as usize * dim;
                        f(slab * SLAB_ROWS + i, &flat[start..start + dim]);
                    }
                }
            }
            Backend::OutOfCore {
                store,
                assignment,
                node_location,
                cache,
                dim,
            } => {
                let location = |i: &usize| node_location[nodes[*i] as usize];
                let mut order: Vec<usize> = (0..nodes.len()).collect();
                order.sort_unstable_by_key(location);
                for bucket in order.chunk_by(|a, b| location(a).0 == location(b).0) {
                    clock.check()?;
                    let p = location(&bucket[0]).0;
                    let block = cache.fetch(store, p, assignment.nodes_in(p).len(), *dim)?;
                    for i in bucket {
                        let start = location(i).1 as usize * dim;
                        f(*i, &block[start..start + dim]);
                    }
                }
            }
        }
        Ok(())
    }
}

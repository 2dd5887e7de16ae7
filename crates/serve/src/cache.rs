//! The byte-budgeted hot-partition read cache behind out-of-core serving.
//!
//! Admission control reuses the training-side replacement-policy machinery:
//! the checkpoint's COMET/BETA policy is asked for an epoch plan, and the
//! partitions it would schedule most often (its hot set under the training
//! workload) are the only ones the cache agrees to hold. Partitions are
//! admitted in heat order while they fit the byte budget, so the cache can
//! never exceed its budget and never needs to evict — cold partitions are
//! read through on every touch instead. Every outcome records `server.cache.*`
//! telemetry.
//!
//! The cache is asked per *partition*, never per node: the backend's scans and
//! lookups are partition-major, so one query makes **one fetch per partition
//! it touches** — `num_partitions + 1` for a full scan — and `hit + miss +
//! bypass` counts exactly those. A hit hands out the shared block; a bypass
//! or miss reads the partition's header and value bytes (not its optimizer
//! state) into a block of its own, which the query drops before fetching the
//! next one.
//!
//! # Verified reads and the quarantine degraded mode
//!
//! Every block entering the cache is structurally verified against the
//! replayed partition assignment
//! ([`PartitionStore::read_partition_expect`]) and fingerprinted with
//! [`marius_storage::partition_digest`] — a four-lane FNV-style fold over the
//! block's 32-bit words plus its length, which any single-bit change flips
//! and which costs a fraction of the scan of the block it guards. Cache hits
//! re-verify the fingerprint
//! before handing the block out: a cached copy whose bits no longer match —
//! memory corruption, a buggy in-place mutation — is **quarantined** (the slot
//! is dropped and the partition permanently bypasses the cache) and the query
//! transparently re-reads the verified bytes from disk instead of failing or,
//! worse, serving corrupt embeddings. Quarantines count into
//! `server.cache.quarantine` and are visible through `Server::health`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use marius_graph::PartitionId;
use marius_storage::{partition_digest, PartitionStore, Result};
use marius_telemetry::{Counter, Telemetry};

/// A resident value block plus the fingerprint it carried at insertion.
struct CachedBlock {
    block: Arc<Vec<f32>>,
    digest: u64,
}

/// Shared read cache over a checkpoint's immutable partition snapshot.
pub(crate) struct ReadCache {
    /// Per-partition admission flag, fixed at construction.
    admitted: Vec<bool>,
    /// Per-partition quarantine flag: set when a cached copy fails its
    /// fingerprint check, after which the partition reads through forever.
    quarantined: Vec<AtomicBool>,
    /// Resident, fingerprinted value blocks for admitted partitions.
    slots: RwLock<HashMap<PartitionId, CachedBlock>>,
    /// Bytes the admitted set occupies once fully resident.
    admitted_bytes: u64,
    budget_bytes: u64,
    hits: Counter,
    misses: Counter,
    bypasses: Counter,
    quarantines: Counter,
}

impl ReadCache {
    /// Builds the cache by admitting partitions in `heat_order` (hottest
    /// first) while their value blocks fit in `budget_bytes`. At least one
    /// partition is always admitted so a tiny budget still caches something.
    pub(crate) fn new(
        heat_order: &[PartitionId],
        partition_rows: &[usize],
        dim: usize,
        budget_bytes: u64,
        telemetry: &Telemetry,
    ) -> Self {
        let mut admitted = vec![false; partition_rows.len()];
        let mut admitted_bytes = 0u64;
        for (rank, &p) in heat_order.iter().enumerate() {
            let bytes = (partition_rows[p as usize] * dim * std::mem::size_of::<f32>()) as u64;
            if rank > 0 && admitted_bytes + bytes > budget_bytes {
                continue;
            }
            admitted[p as usize] = true;
            admitted_bytes += bytes;
        }
        telemetry
            .gauge("server.cache.budget_bytes")
            .set(budget_bytes.min(i64::MAX as u64) as i64);
        telemetry
            .gauge("server.cache.admitted_bytes")
            .set(admitted_bytes.min(i64::MAX as u64) as i64);
        telemetry
            .gauge("server.cache.admitted_partitions")
            .set(admitted.iter().filter(|&&a| a).count() as i64);
        ReadCache {
            quarantined: admitted.iter().map(|_| AtomicBool::new(false)).collect(),
            admitted,
            slots: RwLock::new(HashMap::new()),
            admitted_bytes,
            budget_bytes,
            hits: telemetry.counter("server.cache.hit"),
            misses: telemetry.counter("server.cache.miss"),
            bypasses: telemetry.counter("server.cache.bypass"),
            quarantines: telemetry.counter("server.cache.quarantine"),
        }
    }

    /// Fetches partition `p`'s value block, through the cache when `p` is
    /// admitted and not quarantined. `expected_rows` cross-checks the file
    /// against the replayed partition assignment, so a truncated or
    /// mismatched snapshot surfaces as a typed error instead of silently
    /// serving wrong embeddings; cache hits additionally re-verify the
    /// block's fingerprint, degrading to a quarantined read-through when the
    /// cached copy has been corrupted (see the module docs).
    pub(crate) fn fetch(
        &self,
        store: &PartitionStore,
        p: PartitionId,
        expected_rows: usize,
        dim: usize,
    ) -> Result<Arc<Vec<f32>>> {
        if !self.admitted[p as usize] || self.quarantined[p as usize].load(Ordering::Acquire) {
            self.bypasses.incr();
            return read_values(store, p, expected_rows, dim);
        }
        if let Some((block, digest)) = {
            let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
            slots.get(&p).map(|c| (Arc::clone(&c.block), c.digest))
        } {
            if partition_digest(&block) == digest {
                self.hits.incr();
                return Ok(block);
            }
            // Degraded mode: the cached copy no longer matches the
            // fingerprint it carried at insertion. Quarantine the partition
            // (drop the slot, bypass the cache from now on) and serve this
            // query from a fresh verified disk read.
            self.quarantine(p);
            return read_values(store, p, expected_rows, dim);
        }
        // Miss: read and verify outside any lock, then insert. Two threads
        // racing on the same cold partition both read and both count a miss;
        // the first insert wins and the blocks are identical bytes either way.
        self.misses.incr();
        let block = read_values(store, p, expected_rows, dim)?;
        let digest = partition_digest(&block);
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        let cached = slots.entry(p).or_insert(CachedBlock { block, digest });
        Ok(Arc::clone(&cached.block))
    }

    /// Marks `p` quarantined and drops its slot. Idempotent; counts once.
    fn quarantine(&self, p: PartitionId) {
        if !self.quarantined[p as usize].swap(true, Ordering::AcqRel) {
            self.quarantines.incr();
        }
        self.slots
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&p);
    }

    /// Number of partitions the admission set holds.
    pub(crate) fn admitted_partitions(&self) -> usize {
        self.admitted.iter().filter(|&&a| a).count()
    }

    /// Number of partitions quarantined after failing fingerprint checks.
    pub(crate) fn quarantined_partitions(&self) -> usize {
        self.quarantined
            .iter()
            .filter(|q| q.load(Ordering::Acquire))
            .count()
    }

    /// Bytes the admitted set occupies once fully resident (always within
    /// the budget).
    pub(crate) fn admitted_bytes(&self) -> u64 {
        self.admitted_bytes
    }

    /// The configured byte budget.
    pub(crate) fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Test hook: flips one bit of `p`'s cached copy in place, simulating
    /// in-memory corruption of a resident block. Returns `false` when `p` has
    /// no exclusively-owned cached slot to corrupt.
    #[doc(hidden)]
    pub(crate) fn debug_corrupt(&self, p: PartitionId) -> bool {
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        let Some(cached) = slots.get_mut(&p) else {
            return false;
        };
        let Some(values) = Arc::get_mut(&mut cached.block) else {
            return false;
        };
        match values.first_mut() {
            Some(v) => {
                *v = f32::from_bits(v.to_bits() ^ 1);
                true
            }
            None => false,
        }
    }
}

fn read_values(
    store: &PartitionStore,
    p: PartitionId,
    expected_rows: usize,
    dim: usize,
) -> Result<Arc<Vec<f32>>> {
    store
        .read_partition_expect(p, expected_rows, dim)
        .map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_telemetry::Telemetry;

    fn store_with_partitions(rows: &[usize], dim: usize) -> PartitionStore {
        let store = PartitionStore::open_temp("serve-cache-test").unwrap();
        for (p, &n) in rows.iter().enumerate() {
            let values: Vec<f32> = (0..n * dim).map(|i| (p * 1000 + i) as f32).collect();
            let state = vec![0.0f32; n * dim];
            store
                .write_partition(p as PartitionId, &values, &state)
                .unwrap();
        }
        store
    }

    #[test]
    fn admission_respects_the_byte_budget() {
        let telemetry = Telemetry::enabled();
        let rows = [4usize, 4, 4, 4];
        let dim = 2;
        // One partition = 4 rows × 2 dims × 4 bytes = 32 bytes; budget fits two.
        let cache = ReadCache::new(&[2, 0, 3, 1], &rows, dim, 64, &telemetry);
        assert_eq!(cache.admitted_partitions(), 2);
        assert!(cache.admitted_bytes() <= cache.budget_bytes());
        assert!(cache.admitted[2] && cache.admitted[0]);
        assert!(!cache.admitted[3] && !cache.admitted[1]);
    }

    #[test]
    fn tiny_budget_still_admits_the_hottest_partition() {
        let telemetry = Telemetry::disabled();
        let cache = ReadCache::new(&[1, 0], &[8, 8], 4, 1, &telemetry);
        assert_eq!(cache.admitted_partitions(), 1);
        assert!(cache.admitted[1]);
    }

    #[test]
    fn fetch_counts_miss_then_hits_and_bypasses_cold_partitions() {
        let telemetry = Telemetry::enabled();
        let dim = 2;
        let rows = [3usize, 3];
        let store = store_with_partitions(&rows, dim);
        let cache = ReadCache::new(&[0, 1], &rows, dim, 24, &telemetry);
        assert_eq!(cache.admitted_partitions(), 1);

        let first = cache.fetch(&store, 0, 3, dim).unwrap();
        let again = cache.fetch(&store, 0, 3, dim).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let _cold = cache.fetch(&store, 1, 3, dim).unwrap();
        let _cold = cache.fetch(&store, 1, 3, dim).unwrap();

        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("server.cache.miss"), Some(1));
        assert_eq!(snap.counter("server.cache.hit"), Some(1));
        assert_eq!(snap.counter("server.cache.bypass"), Some(2));
    }

    #[test]
    fn row_count_mismatch_surfaces_as_checkpoint_error() {
        let telemetry = Telemetry::disabled();
        let dim = 2;
        let store = store_with_partitions(&[3], dim);
        let cache = ReadCache::new(&[0], &[3], dim, 1024, &telemetry);
        let err = cache.fetch(&store, 0, 5, dim).unwrap_err();
        assert!(format!("{err}").contains("expects 5 rows"), "{err}");
    }

    #[test]
    fn corrupted_cached_copy_quarantines_and_reads_through() {
        let telemetry = Telemetry::enabled();
        let dim = 2;
        let rows = [3usize];
        let store = store_with_partitions(&rows, dim);
        let cache = ReadCache::new(&[0], &rows, dim, 1024, &telemetry);

        let clean = cache.fetch(&store, 0, 3, dim).unwrap();
        // Clone the bytes (not the Arc) so the cache's slot is the only
        // remaining strong reference and debug_corrupt can mutate in place.
        let expected: Vec<f32> = (*clean).clone();
        drop(clean);
        assert!(cache.debug_corrupt(0), "partition 0 should be resident");

        // The corrupted hit degrades to a verified re-read: same bytes as the
        // original block, quarantine recorded, and the partition bypasses the
        // cache from now on.
        let reread = cache.fetch(&store, 0, 3, dim).unwrap();
        assert_eq!(*reread, *expected);
        assert_eq!(cache.quarantined_partitions(), 1);
        let after = cache.fetch(&store, 0, 3, dim).unwrap();
        assert_eq!(*after, *expected);

        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("server.cache.quarantine"), Some(1));
        assert!(snap.counter("server.cache.bypass").unwrap_or(0) >= 1);
    }
}

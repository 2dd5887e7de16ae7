//! Streaming edge ingest for the MariusGNN reproduction: seeded edge
//! streams, crash-atomic delta staging, and epoch-boundary application into
//! a live disk-training run.
//!
//! Everything else in the workspace trains over a frozen dataset; this module
//! is the half that lets the training-edge set *grow* while a run is in
//! flight, without giving up the system's three core guarantees — bit-exact
//! determinism, crash-atomic durability, and resumability. It provides:
//!
//! * [`EdgeStream`] — a seeded, replayable source of timestamped edge
//!   batches. Batch `k` is a pure function of `(seed, k)`, so any two
//!   consumers (an uninterrupted run, a resumed run, a verification oracle)
//!   that ask for the same batch index get byte-identical edges. Streamed
//!   edges connect nodes that already exist in the base dataset: streaming
//!   grows the *edge* set, never the node set, which keeps partition
//!   assignments and embedding-table shapes — and therefore every
//!   construction-time RNG draw — invariant under growth.
//! * [`Ingestor`] — stages each batch as an on-disk **delta file** and
//!   applies it to a run's [`DiskSetup`] by appending to the partition
//!   store's bucket files, the run's only record of its edges (each training
//!   step reads its edges from them). Progress is tracked in a shared
//!   [`StreamState`] cursor that the trainer records into checkpoint
//!   manifests.
//!
//! # Ingest atomicity
//!
//! Deltas are staged through [`marius_storage::PartitionStore::place_file`],
//! i.e. the same write-to-`.tmp`-sibling-then-rename discipline
//! ([`marius_storage::atomic_write`]) the checkpoint writer uses, riding the
//! store's fault injection ([`marius_storage::IoFaultPlan`]) and transient
//! retry ([`marius_storage::RetryPolicy`]). A crash or unabsorbed fault
//! mid-stage leaves only `.tmp` litter — never a readable half-written
//! `delta-*.bin` — and the [`Ingestor`] applies a delta only from the staged
//! bytes it reads back from the completed file, so a torn delta is never
//! applied. Durability of *applied* progress is owned by the checkpoint
//! manifest: the [`StreamState`] cursor in the manifest is the single source
//! of truth, and recovery replays the stream from the base dataset rather
//! than trusting any bucket file a crash may have left stale.
//!
//! # Epoch-boundary semantics
//!
//! Application happens only at disk-epoch boundaries, at the write-back safe
//! point ([`marius_storage::pipeline::writeback_safe_point`]): the epoch's
//! partition flush has drained and no step is reading the bucket files, so
//! they can grow. The trainer invokes the ingest hook after an epoch's
//! training and before its evaluation and checkpoint, and the hook draws no
//! trainer RNG — the loss trajectory up to any boundary is bit-identical to
//! a frozen-dataset run's, the in-order and threaded disk schedules stay
//! interchangeable, and the boundary's checkpoint snapshots the grown
//! buckets together with the cursor that reproduces them.
//!
//! # Temporal split rules
//!
//! Streamed edges carry implicit timestamps — their position after the base
//! edge list. The [`crate::TemporalLinkPredictionTask`] trained over a
//! streamed run freezes its evaluation windows over the newest *base* edges
//! ([`marius_graph::temporal::chronological_split`]) and draws ranking
//! candidates only from nodes observed in the base training window
//! ([`marius_graph::temporal::observed_nodes`]): every streamed edge lands
//! in the training split, evaluation never moves, and the split is
//! independent of how the stream was chunked into batches.
//!
//! ```
//! use marius_core::stream::EdgeStream;
//!
//! let stream = EdgeStream::new(7, 100, 3, 16);
//! assert_eq!(stream.batch(4), stream.batch(4)); // pure in (seed, k)
//! assert_ne!(stream.batch(4), stream.batch(5));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::{DiskSetup, StreamState};
use marius_graph::Edge;
use marius_storage::disk::{decode_edges, encode_edges};
use marius_storage::{PartitionStore, Result, StorageError};
use marius_telemetry::{Counter, NO_LABEL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// SplitMix64 finalizer mixing the stream seed with a batch index, so each
/// batch draws from an independent, reconstructible RNG stream.
///
/// It is not `marius_storage::pipeline::step_seed`: the two mix their inputs
/// differently (`seed ^ k·φ` here, `seed + φ + step·C` there). It stays
/// separate because streamed runs pin this exact formula: the edges they
/// ingest feed `stream_loop`'s loss digest, and `Session::resume_streamed`
/// replays the stream from the checkpointed cursor and must draw the same
/// batches.
fn batch_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ (k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, replayable source of timestamped edge batches.
///
/// Batch `k` is a pure function of `(seed, k)`: replaying a stream from any
/// cursor reproduces exactly the edges an earlier consumer saw, which is the
/// foundation of streamed-run resumability (the checkpoint manifest only
/// needs to record the cursor, not the edges). Edges are sampled uniformly
/// over the *existing* node and relation id ranges — streaming never
/// introduces nodes, see the module docs for why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeStream {
    seed: u64,
    num_nodes: u64,
    num_relations: u32,
    batch_size: usize,
}

impl EdgeStream {
    /// Creates a stream of `batch_size`-edge batches over `num_nodes` nodes
    /// and `num_relations` relation types.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes`, `num_relations` or `batch_size` is zero.
    pub fn new(seed: u64, num_nodes: u64, num_relations: u32, batch_size: usize) -> Self {
        assert!(num_nodes > 0, "stream needs at least one node");
        assert!(num_relations > 0, "stream needs at least one relation");
        assert!(batch_size > 0, "stream batches must be non-empty");
        EdgeStream {
            seed,
            num_nodes,
            num_relations,
            batch_size,
        }
    }

    /// The stream's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of edges per batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The `k`-th batch of the stream — a pure function of `(seed, k)`.
    pub fn batch(&self, k: u64) -> Vec<Edge> {
        let mut rng = StdRng::seed_from_u64(batch_seed(self.seed, k));
        (0..self.batch_size)
            .map(|_| {
                let src = rng.gen_range(0..self.num_nodes);
                let rel = rng.gen_range(0..self.num_relations);
                let dst = rng.gen_range(0..self.num_nodes);
                Edge::with_rel(src, rel, dst)
            })
            .collect()
    }
}

/// The staged on-disk name of delta `k` (zero-padded so directory listings
/// sort in stream order).
pub fn delta_file_name(k: u64) -> String {
    format!("delta-{k:06}.bin")
}

/// Stages edge batches as crash-atomic delta files and applies them to a
/// live disk-training run at epoch boundaries. See the module docs for the
/// atomicity and determinism contract.
pub struct Ingestor {
    stream: EdgeStream,
    /// Store whose root holds the staged `delta-*.bin` files; staging rides
    /// the fault injection, retry policy and telemetry of its env.
    staging: PartitionStore,
    /// Shared cursor: how far the stream has been applied. The trainer
    /// records it into checkpoint manifests via
    /// `Trainer::set_stream_state`.
    state: Arc<Mutex<StreamState>>,
    /// `ingest.*` counters, registered in the staging env's recorder.
    batches_staged: Counter,
    deltas_applied: Counter,
    edges_appended: Counter,
    apply_ns: Counter,
}

impl Ingestor {
    /// Creates an ingestor staging deltas under `staging`'s root. Staging
    /// writes run under the store's [`marius_storage::IoEnv`] (open it with
    /// [`marius_storage::IoEnv::open_store`]), and ingest progress records
    /// into that env's recorder: `ingest.*` counters and
    /// `ingest.stage`/`ingest.apply` trace spans.
    pub fn new(stream: EdgeStream, staging: PartitionStore) -> Self {
        let state = StreamState {
            seed: stream.seed(),
            batch_size: stream.batch_size(),
            batches_applied: 0,
            edges_ingested: 0,
        };
        let telemetry = &staging.env().telemetry;
        Ingestor {
            batches_staged: telemetry.counter("ingest.batches_staged"),
            deltas_applied: telemetry.counter("ingest.deltas_applied"),
            edges_appended: telemetry.counter("ingest.edges_appended"),
            apply_ns: telemetry.counter("ingest.apply_ns"),
            stream,
            staging,
            state: Arc::new(Mutex::new(state)),
        }
    }

    /// Fast-forwards the cursor to a checkpointed [`StreamState`] (resuming
    /// a streamed run): subsequent [`Ingestor::ingest`] calls continue from
    /// `cursor.batches_applied`. Fails if the cursor was recorded by a
    /// different stream (seed or batch size mismatch) — replaying a
    /// different stream would silently diverge from the checkpointed run.
    pub fn resume_at(self, cursor: StreamState) -> Result<Self> {
        if cursor.seed != self.stream.seed() || cursor.batch_size != self.stream.batch_size() {
            return Err(StorageError::checkpoint(format!(
                "stream cursor (seed {}, batch size {}) does not match this stream \
                 (seed {}, batch size {})",
                cursor.seed,
                cursor.batch_size,
                self.stream.seed(),
                self.stream.batch_size()
            )));
        }
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = cursor;
        Ok(self)
    }

    /// The shared cursor handle, for `Trainer::set_stream_state`.
    pub fn state_handle(&self) -> Arc<Mutex<StreamState>> {
        Arc::clone(&self.state)
    }

    /// The current cursor value.
    pub fn cursor(&self) -> StreamState {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stages and applies the next `batches` stream batches into `setup`,
    /// returning the number of edges ingested. Must be called only at the
    /// write-back safe point (the trainer's ingest hook guarantees this).
    ///
    /// Each batch is staged as an atomic `delta-*.bin` file first and
    /// applied from the bytes read back off disk, so what lands in the
    /// buckets is exactly what recovery would replay. An error (e.g. an
    /// unabsorbed injected fault) propagates before the cursor advances:
    /// the failed delta is never applied, and at most `.tmp` litter remains.
    pub fn ingest(&self, setup: &DiskSetup, batches: usize) -> Result<u64> {
        let mut span = self.staging.env().telemetry.scope("ingest");
        let mut total = 0u64;
        for _ in 0..batches {
            let k = self.cursor().batches_applied;
            let edges = self.stream.batch(k);
            let bytes = encode_edges(&edges);
            let name = delta_file_name(k);
            let path = self.staging.root().join(&name);
            span.begin("ingest.stage", k as i64, NO_LABEL);
            let staged = self
                .staging
                .place_file(&format!("ingest/{name}"), &path, &bytes)
                .and_then(|()| std::fs::read(&path).map_err(StorageError::from));
            span.end();
            let staged = staged?;
            self.batches_staged.incr();
            let delta = decode_edges(&staged)?;
            span.begin("ingest.apply", k as i64, NO_LABEL);
            let start = Instant::now();
            let applied = apply_delta(setup, &delta);
            let elapsed = start.elapsed();
            span.end();
            applied?;
            self.deltas_applied.incr();
            self.edges_appended.add(delta.len() as u64);
            self.apply_ns.add_duration(elapsed);
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.batches_applied += 1;
            state.edges_ingested += delta.len() as u64;
            total += delta.len() as u64;
        }
        Ok(total)
    }
}

/// Applies one decoded delta to a run's [`DiskSetup`]: groups its edges by
/// their `(partition(src), partition(dst))` bucket, in delta order, and
/// appends each group to its bucket file with one
/// [`PartitionStore::append_bucket`] (every training step reads its edges
/// from the bucket files). Appending in delta order keeps the per-bucket
/// edge order identical to what a full bucket rebuild from the grown,
/// time-ordered edge list produces — the invariant streamed-run resume
/// relies on. A delta with an edge outside the graph appends nothing.
fn apply_delta(setup: &DiskSetup, edges: &[Edge]) -> Result<()> {
    let assignment = setup.buffer.assignment();
    let mut groups: BTreeMap<(u32, u32), Vec<Edge>> = BTreeMap::new();
    for e in edges {
        if e.src >= assignment.num_nodes() || e.dst >= assignment.num_nodes() {
            return Err(StorageError::NotResident {
                reason: format!(
                    "streamed edge ({}, {}) references a node outside the {}-node graph",
                    e.src,
                    e.dst,
                    assignment.num_nodes()
                ),
            });
        }
        groups.entry(assignment.bucket_of(e)).or_default().push(*e);
    }
    for ((i, j), group) in groups {
        setup.buffer.store().append_bucket(i, j, &group)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn batches_are_pure_in_seed_and_index() {
        let s = EdgeStream::new(42, 1000, 4, 32);
        assert_eq!(s.batch(0), s.batch(0));
        assert_eq!(s.batch(17), EdgeStream::new(42, 1000, 4, 32).batch(17));
        assert_ne!(s.batch(0), s.batch(1));
        assert_ne!(s.batch(0), EdgeStream::new(43, 1000, 4, 32).batch(0));
    }

    #[test]
    fn batches_stay_inside_the_id_ranges() {
        let s = EdgeStream::new(7, 50, 3, 64);
        for k in 0..10 {
            for e in s.batch(k) {
                assert!(e.src < 50 && e.dst < 50 && e.rel < 3);
            }
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let edges = EdgeStream::new(1, 100, 5, 20).batch(3);
        assert_eq!(decode_edges(&encode_edges(&edges)).unwrap(), edges);
        assert_eq!(decode_edges(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn decode_rejects_torn_bytes() {
        let mut bytes = encode_edges(&EdgeStream::new(1, 100, 5, 4).batch(0));
        bytes.pop();
        let err = decode_edges(&bytes).unwrap_err();
        assert!(format!("{err}").contains("multiple"));
    }

    #[test]
    fn delta_names_sort_in_stream_order() {
        assert_eq!(delta_file_name(7), "delta-000007.bin");
        assert!(delta_file_name(9) < delta_file_name(10));
    }

    #[test]
    fn resume_rejects_a_foreign_cursor() {
        let staging = PartitionStore::open_temp("ingest-resume").unwrap();
        let ing = Ingestor::new(EdgeStream::new(5, 100, 2, 8), staging);
        let err = match ing.resume_at(StreamState {
            seed: 6,
            batch_size: 8,
            batches_applied: 2,
            edges_ingested: 16,
        }) {
            Ok(_) => panic!("foreign cursor accepted"),
            Err(e) => e,
        };
        assert!(format!("{err}").contains("does not match"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Concatenating the stream's batches is independent of the cursor
        /// positions the concatenation was produced from: the stream has no
        /// hidden state besides the index.
        #[test]
        fn stream_is_stateless_across_cursors(
            seed in 0u64..1000,
            splits in proptest::collection::vec(1u64..5, 1..4),
        ) {
            let s = EdgeStream::new(seed, 200, 3, 16);
            let total: u64 = splits.iter().sum();
            let all: Vec<_> = (0..total).flat_map(|k| s.batch(k)).collect();
            let mut chunked = Vec::new();
            let mut k = 0u64;
            for n in &splits {
                for _ in 0..*n {
                    chunked.extend(s.batch(k));
                    k += 1;
                }
            }
            prop_assert!(all == chunked);
        }
    }
}

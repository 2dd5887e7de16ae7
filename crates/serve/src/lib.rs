//! `marius-serve` — concurrent link-prediction serving over checkpoints.
//!
//! Training ends at a durable checkpoint directory (`marius_core::checkpoint`);
//! this crate is the read path that turns one into a queryable model. A
//! [`Server`] loads the newest checkpoint version, rebuilds the DistMult
//! decoder from the manifest's blobs, wires the base embeddings up to one of
//! two backends, and then answers queries from any number of threads through
//! `&self` methods:
//!
//! * [`Server::score_pairs`] — pairwise scoring of `(source, relation,
//!   destination)` triples through the training decoder kernels,
//! * [`Server::top_k`] / [`Server::top_k_among`] — top-k tail prediction
//!   (`(source, relation, ?)`) over all nodes or a candidate list,
//! * [`Server::knn`] — k-nearest-neighbour search over the embedding table
//!   under dot-product similarity.
//!
//! # Backends and cache-policy reuse
//!
//! [`ServeMode::InMemory`] materialises the whole embedding table up front —
//! from the checkpoint's table blob, or by reassembling its partition
//! snapshot. [`ServeMode::ReadCache`] keeps the partition snapshot on disk
//! behind a **byte-budgeted hot-partition read cache**: the checkpoint's own
//! COMET/BETA replacement policy (`marius_storage::policy`) is asked for an
//! epoch plan, partitions are ranked by how often that plan schedules them,
//! and the hottest partitions are admitted until the byte budget is full.
//! Admitted partitions are cached on first touch and stay resident (the cache
//! never exceeds its budget, so nothing is ever evicted); cold partitions are
//! read through on every access. Under the skewed query mixes serving
//! actually sees (see [`workload::ZipfWorkload`]), this replays the paper's
//! out-of-core buffer tradeoffs on the read path.
//!
//! # Scan order: partition-major, scored in place
//!
//! A full-scan query (top-k over all nodes, k-NN) is the adversarial request
//! sequence for any cache that holds less than the table, so what bounds its
//! cost is the *access order*, not the admission policy. Like the training
//! side's partition orderings, the scan is partition-major: the backend hands
//! out one block per partition (in memory: one slab of at most 1 024 rows of
//! the flat table) together with the block's row → node id map, and **each
//! partition crosses the cache boundary exactly once per query** — a scan
//! costs `num_partitions + 1` cache fetches (the `+ 1` is the query node's
//! own row), of which only the non-admitted partitions reach the store, and
//! those transfer their header and value bytes only. Rows are scored where
//! they lie (`marius_tensor::ops::dot_rows` against `src ⊙ rel`, bit for bit
//! the row `DistMult::score_negatives` computes for one source; no gather,
//! no transpose), survivors are kept in a `k`-bounded heap under the ranking
//! order below, and only survivors are mapped back to node ids. Explicit
//! candidate lists ([`Server::top_k_among`]) and pairwise batches
//! ([`Server::score_pairs`], both sides together) are bucketed by partition
//! first, so they too fetch each distinct partition once per query. At most
//! one read-through block is alive per query thread.
//!
//! The **in-memory** full scan walks the same blocks but, for now, still
//! scores each slab the way it always did — copied into a tensor, scored by
//! the tensor-level kernels, merged by a full sort (`Snapshot::scan_copied`).
//! Its answers are identical; moving it onto the in-place kernel is a
//! separate, separately measured change (see ROADMAP).
//!
//! # Degradation modes & reload semantics
//!
//! The server honors the same robustness contract the trainer does: faults
//! degrade service *predictably* — never into wrong answers — and every
//! degraded state is typed and observable. From least to most severe:
//!
//! * **Transient device faults** are absorbed below the query: the backing
//!   `PartitionStore` opens with [`RetryPolicy::default_transient`] (override
//!   via [`ServeConfig::with_retry_policy`]) and a seeded [`FaultInjector`]
//!   can be attached via [`ServeConfig::with_fault_injector`] for chaos
//!   testing. A read that exhausts the store's retry budget is re-run
//!   whole-query up to [`ServeConfig::with_query_retries`] times against a
//!   freshly pinned snapshot; each absorbed exhaustion counts into
//!   `server.error.transient`.
//!   Because queries draw no RNG, a retried query's answer is bit-identical
//!   to a fault-free run's.
//! * **Corrupted cached copies** enter the *quarantine* degraded mode: every
//!   block entering the read cache is fingerprinted
//!   (`marius_storage::partition_digest`, a four-lane word-wise fold that any
//!   single-bit change flips) and re-verified on each hit. A
//!   mismatch quarantines the partition — it permanently bypasses the cache
//!   (`server.cache.quarantine`, [`Server::health`]) — and the query
//!   transparently re-reads verified bytes from disk.
//! * **Permanent faults** (dead device, corrupt snapshot) surface as a typed
//!   [`ServeError::Permanent`] after counting into `server.error.permanent` —
//!   never a panic.
//! * **Overload** is handled by admission control: a bounded in-flight budget
//!   ([`ServeConfig::with_max_in_flight`]) sheds excess queries with
//!   [`ServeError::Overloaded`] (`server.shed`), and per-query deadlines
//!   ([`ServeConfig::with_deadline`]) abandon stragglers between blocks — the
//!   clock is checked before every partition fetch or table slab — with
//!   [`ServeError::DeadlineExceeded`] (`server.deadline_exceeded`).
//!
//! **Hot reload**: [`Server::reload`] atomically swaps in the newest
//! `epoch-NNNNNN/` version behind an epoch-versioned handle. Every query pins
//! the current snapshot (an `Arc`) for its whole run, so in-flight queries
//! finish against the epoch they started on while new queries see the new
//! one — each answer is wholly from one epoch, never torn across two. The
//! checkpoint writer retains the previous version on disk, so a server
//! serving epoch `N` stays valid while `N+1` is written and pruned into.
//! [`Server::watch_checkpoints`] runs reload on a background poll loop
//! (continuous train→checkpoint→serve); [`Server::health`] reports the
//! current epoch plus all error/shed/reload counters for readiness probes.
//!
//! # Consistency guarantees
//!
//! * **Thread-count invariance** — queries take `&self` over immutable state
//!   and draw no RNG, so N threads over one shared `Server` return results
//!   bit-identical to a single-threaded run of the same queries.
//! * **Backend invariance** — both backends serve the same bytes for the same
//!   node, so switching [`ServeMode`] can never change a result, only its
//!   latency profile.
//! * **Deterministic ranking** — top-k and k-NN order by score descending
//!   with ties broken by ascending node id (under IEEE total order), so
//!   result *sets and orders* are stable across runs, block visit orders and
//!   backends.
//! * **Relocatability** — every path the loader touches is derived from the
//!   checkpoint root it was handed, so a copied checkpoint directory serves
//!   identically from its new location.
//!
//! Serving requires a decoder-only (DistMult) link-prediction checkpoint —
//! the paper's Table 8 configuration, [`ModelConfig::paper_distmult`]
//! (`marius_core::config`). Encoder-bearing checkpoints are rejected at load
//! time: their stored rows are *base* representations that only become
//! comparable after a stochastic multi-hop encoding pass, which has no
//! deterministic serving semantics.
//!
//! All server internals record `server.*` telemetry through
//! `marius_telemetry`: per-query spans, `server.cache.hit`/`miss`/`bypass`/
//! `quarantine` counters, `server.error.{transient,permanent}`,
//! `server.shed`, `server.deadline_exceeded`,
//! `server.reload.{count,error,epoch}`, and per-query-kind latency
//! histograms (`server.latency_us.*`). [`Server::health`] reads the same
//! counters, which count whether or not a recorder is attached.
//!
//! [`ModelConfig::paper_distmult`]: marius_core::ModelConfig::paper_distmult

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod admission;
mod backend;
mod cache;
pub mod error;
mod reload;
#[cfg(test)]
mod scan_tests;
pub mod workload;

pub use error::{ServeError, ServeResult};
pub use reload::CheckpointWatcher;
pub use workload::ZipfWorkload;

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use marius_core::checkpoint::latest_epoch;
use marius_core::{
    link_prediction_plan, read_all_embeddings, Checkpoint, DiskConfig, EncoderKind, Storage,
};
use marius_gnn::DistMult;
use marius_graph::{NodeId, PartitionId, Partitioner, RelId};
use marius_storage::{FaultInjector, IoEnv, Result, RetryPolicy, StorageError};
use marius_telemetry::{Counter, Histogram, Telemetry, NO_LABEL};
use marius_tensor::ops::dot_rows;
use marius_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use admission::{Admission, QueryClock};
use backend::Backend;
use cache::ReadCache;
use reload::SnapshotHandle;

/// Salt mixed into the training seed for the cache-admission plan RNG, so the
/// plan replay cannot collide with any training-side RNG stream.
const HEAT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Where the server keeps base embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Materialise the whole embedding table in memory at load time.
    InMemory,
    /// Serve out of core from the checkpoint's partition snapshot, behind a
    /// byte-budgeted hot-partition read cache (requires a disk checkpoint).
    ReadCache {
        /// Maximum bytes of partition values the cache may hold resident.
        budget_bytes: u64,
    },
}

/// Configuration for [`Server::from_checkpoint_with`].
#[derive(Clone, Default)]
pub struct ServeConfig {
    mode: Option<ServeMode>,
    /// What the backing partition store is opened under (and every reload
    /// re-opens it under): fault schedule, retry policy, telemetry.
    env: IoEnv,
    max_in_flight: Option<u64>,
    deadline: Option<Duration>,
    query_retries: Option<u32>,
}

impl ServeConfig {
    /// Serve from a fully materialised in-memory table (the default).
    pub fn in_memory() -> Self {
        ServeConfig {
            mode: Some(ServeMode::InMemory),
            ..ServeConfig::default()
        }
    }

    /// Serve out of core behind a read cache holding at most `budget_bytes`
    /// of partition values.
    pub fn read_cache(budget_bytes: u64) -> Self {
        ServeConfig {
            mode: Some(ServeMode::ReadCache { budget_bytes }),
            ..ServeConfig::default()
        }
    }

    /// Attaches a [`Telemetry`] recorder: per-query spans, cache counters and
    /// latency histograms record into the cloned handle. Recording reads only
    /// monotonic clocks, so query results are unaffected.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.env.telemetry = telemetry.clone();
        self
    }

    /// Attaches a deterministic fault injector to the backing store
    /// (`plan.build()` of a [`marius_storage::IoFaultPlan`]) — mirrors
    /// `SessionBuilder::fault_injector` on the training side, so chaos suites
    /// can replay the exact same injected-fault regimes against the read
    /// path. The handle is shared: the test driving it can arm
    /// outages/permanent failures mid-run.
    pub fn with_fault_injector(mut self, faults: Arc<FaultInjector>) -> Self {
        self.env.faults = Some(faults);
        self
    }

    /// Overrides the store-level retry policy for partition reads. The
    /// default is [`RetryPolicy::default_transient`]; pass
    /// [`RetryPolicy::no_retries`] to surface every transient fault to the
    /// serve-level retry layer instead.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.env.retry = retry;
        self
    }

    /// Bounds concurrently admitted queries: excess arrivals are shed with a
    /// typed [`ServeError::Overloaded`] instead of queueing without bound.
    /// Unbounded by default; a limit of 0 is clamped to 1.
    pub fn with_max_in_flight(mut self, limit: u64) -> Self {
        self.max_in_flight = Some(limit);
        self
    }

    /// Sets a per-query deadline: a query that outlives it is abandoned at
    /// the next block boundary with [`ServeError::DeadlineExceeded`].
    /// No deadline by default.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// How many times a query whose storage reads exhausted the store-level
    /// retry budget is re-run whole against a freshly pinned snapshot before
    /// the transient error surfaces (default 1). Each absorbed exhaustion
    /// counts into `server.error.transient`; answers stay bit-identical
    /// because queries draw no RNG.
    pub fn with_query_retries(mut self, retries: u32) -> Self {
        self.query_retries = Some(retries);
        self
    }
}

/// One ranked query answer: a node and its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The predicted node.
    pub node: NodeId,
    /// Its score (DistMult score for top-k, dot-product similarity for k-NN).
    pub score: f32,
}

/// Deterministic ranking: score descending (IEEE total order), then node id
/// ascending. The tie-break makes top-k/k-NN results independent of the order
/// blocks are visited in and of thread count even when distinct nodes score
/// exactly equal.
fn rank_order(a: &Prediction, b: &Prediction) -> Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.node.cmp(&b.node))
}

/// A [`Prediction`] ordered by [`rank_order`], so a max-heap keeps the
/// *worst*-ranked survivor on top.
struct Ranked(Prediction);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_order(&self.0, &other.0)
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The `k` best candidates seen so far under [`rank_order`]: a bounded heap
/// whose top is the current cut-off, so a scan pays one score comparison per
/// row and `O(log k)` only for the rows that survive it. Because
/// [`rank_order`] is a total order, the survivors are the same set whatever
/// order the rows arrive in.
struct TopK {
    k: usize,
    heap: BinaryHeap<Ranked>,
}

impl TopK {
    /// Keeps the best `k` of at most `candidates` offers.
    fn new(k: usize, candidates: usize) -> Self {
        let k = k.min(candidates);
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    /// Whether a candidate with this score is beaten by all `k` survivors
    /// whatever its node id — the scan's cheap reject, before the row → node
    /// id lookup.
    fn rejects(&self, score: f32) -> bool {
        self.heap.len() == self.k
            && self
                .heap
                .peek()
                .is_none_or(|worst| score.total_cmp(&worst.0.score) == Ordering::Less)
    }

    fn offer(&mut self, candidate: Prediction) {
        let candidate = Ranked(candidate);
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }

    /// The survivors, best first.
    fn into_ranked(self) -> Vec<Prediction> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|ranked| ranked.0)
            .collect()
    }
}

/// A point-in-time readiness/liveness snapshot of one [`Server`], from
/// [`Server::health`]. Each counter is monotonic since server construction
/// and reads the server's own `server.*` counter — the one an enabled
/// [`Telemetry`] recorder reports — so it needs no recorder to count.
#[derive(Debug, Clone)]
pub struct ServerHealth {
    /// Epochs completed by the currently served checkpoint version.
    pub epoch: usize,
    /// Queries currently admitted and running.
    pub in_flight: u64,
    /// The in-flight budget, `None` when unbounded.
    pub max_in_flight: Option<u64>,
    /// The per-query deadline, if configured.
    pub deadline: Option<Duration>,
    /// Partitions the read cache admits (`None` when serving in memory).
    pub cache_admitted_partitions: Option<usize>,
    /// Partitions quarantined after failing fingerprint verification.
    pub cache_quarantined_partitions: Option<usize>,
    /// Transient errors observed at the serve layer (store retry budget
    /// exhaustions, whether absorbed by a query retry or surfaced).
    pub transient_errors: u64,
    /// Permanent errors surfaced to callers.
    pub permanent_errors: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Queries abandoned past their deadline.
    pub deadline_exceeded: u64,
    /// Successful hot reloads ([`Server::reload`] swaps applied).
    pub reloads: u64,
    /// Reload attempts that failed (checkpoint mid-write, device fault).
    pub reload_errors: u64,
    /// Transient faults transparently retried inside the backing store for
    /// the current snapshot (out-of-core only).
    pub store_retries: u64,
    /// Faults injected by the attached [`FaultInjector`], if any.
    pub faults_injected: u64,
}

/// One loaded checkpoint version: everything a query touches, pinned
/// together so an answer is wholly from one epoch.
pub(crate) struct Snapshot {
    epoch: usize,
    decoder: DistMult,
    backend: Backend,
    dim: usize,
    num_nodes: u64,
    num_relations: usize,
}

impl Snapshot {
    fn score_pairs(
        &self,
        triples: &[(NodeId, RelId, NodeId)],
        clock: &QueryClock,
    ) -> ServeResult<Vec<f32>> {
        if triples.is_empty() {
            return Ok(Vec::new());
        }
        // Sources then destinations in one lookup: a partition holding rows
        // of both sides is fetched once, not once per side.
        let n = triples.len();
        let nodes: Vec<NodeId> = triples
            .iter()
            .map(|&(s, _, _)| s)
            .chain(triples.iter().map(|&(_, _, d)| d))
            .collect();
        let rels: Vec<RelId> = triples.iter().map(|&(_, r, _)| r).collect();
        let mut src_t = Tensor::zeros(n, self.dim);
        let mut dst_t = Tensor::zeros(n, self.dim);
        self.backend.for_each_row(&nodes, clock, |i, row| {
            let side = if i < n { &mut src_t } else { &mut dst_t };
            side.row_mut(i % n).copy_from_slice(row);
        })?;
        let scores = self.decoder.score_positive(&src_t, &rels, &dst_t);
        Ok((0..n).map(|i| scores.get(i, 0)).collect())
    }

    /// Top-k tail prediction over every node (`candidates` = `None`) or an
    /// explicit list. Either way each row is scored where it lies against
    /// `src ⊙ rel`, each partition is fetched once, and only survivors of the
    /// running cut-off are mapped back to node ids — except the in-memory
    /// full scan, which is still [`Snapshot::scan_copied`].
    fn top_k(
        &self,
        src: NodeId,
        rel: RelId,
        k: usize,
        candidates: Option<&[NodeId]>,
        clock: &QueryClock,
    ) -> ServeResult<Vec<Prediction>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let src_row = self.row(src, clock)?;
        if candidates.is_none() && self.backend.cache().is_none() {
            let src_t = Tensor::from_vec(src_row, 1, self.dim);
            return self.scan_copied(k, None, clock, |slab| {
                self.decoder.score_negatives(&src_t, &[rel], slab)
            });
        }
        let query = self.decoder.query_operand(&src_row, rel);
        match candidates {
            None => self.scan(&query, k, None, clock),
            Some(list) => {
                let mut best = TopK::new(k, list.len());
                self.backend.for_each_row(list, clock, |i, row| {
                    let mut score = [0.0f32];
                    dot_rows(&query, row, &mut score);
                    best.offer(Prediction {
                        node: list[i],
                        score: score[0],
                    });
                })?;
                Ok(best.into_ranked())
            }
        }
    }

    fn knn(&self, node: NodeId, k: usize, clock: &QueryClock) -> ServeResult<Vec<Prediction>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let row = self.row(node, clock)?;
        if self.backend.cache().is_none() {
            let query = Tensor::from_vec(row, self.dim, 1);
            return self.scan_copied(k, Some(node), clock, |slab| slab.matmul(&query));
        }
        self.scan(&row, k, Some(node), clock)
    }

    /// The full scan of the **in-memory** table, with the arithmetic it had
    /// before the partition-major scan: each slab is copied into a tensor,
    /// scored through the tensor-level kernels (`score` returns one score per
    /// slab row) and merged by a full sort. Same answers as [`Snapshot::scan`],
    /// bit for bit; kept only until the in-memory backend moves onto the
    /// in-place scan under an issue of its own (see ROADMAP).
    fn scan_copied(
        &self,
        k: usize,
        exclude: Option<NodeId>,
        clock: &QueryClock,
        score: impl Fn(&Tensor) -> Tensor,
    ) -> ServeResult<Vec<Prediction>> {
        let mut best: Vec<Prediction> = Vec::new();
        self.backend.for_each_block(clock, |ids, rows| {
            let slab = Tensor::from_vec(rows.to_vec(), rows.len() / self.dim.max(1), self.dim);
            let scores = score(&slab);
            best.extend(
                scores
                    .data()
                    .iter()
                    .enumerate()
                    .map(|(row, &score)| Prediction {
                        node: ids.node(row),
                        score,
                    })
                    .filter(|p| Some(p.node) != exclude),
            );
            best.sort_unstable_by(rank_order);
            best.truncate(k);
        })?;
        Ok(best)
    }

    /// The one full scan behind top-k and k-NN: every block's rows are scored
    /// against `query` in place, and the best `k` other than `exclude` are
    /// kept under [`rank_order`].
    fn scan(
        &self,
        query: &[f32],
        k: usize,
        exclude: Option<NodeId>,
        clock: &QueryClock,
    ) -> ServeResult<Vec<Prediction>> {
        let mut best = TopK::new(k, self.num_nodes as usize);
        let mut scores: Vec<f32> = Vec::new();
        self.backend.for_each_block(clock, |ids, rows| {
            scores.resize(rows.len() / self.dim.max(1), 0.0);
            dot_rows(query, rows, &mut scores);
            for (row, &score) in scores.iter().enumerate() {
                if best.rejects(score) {
                    continue;
                }
                let node = ids.node(row);
                if Some(node) != exclude {
                    best.offer(Prediction { node, score });
                }
            }
        })?;
        Ok(best.into_ranked())
    }

    /// One node's embedding row (one lookup: one cache fetch out of core).
    fn row(&self, node: NodeId, clock: &QueryClock) -> ServeResult<Vec<f32>> {
        let mut out = Vec::with_capacity(self.dim);
        self.backend
            .for_each_row(&[node], clock, |_, row| out.extend_from_slice(row))?;
        Ok(out)
    }
}

/// Everything needed to (re)load a snapshot from the checkpoint root —
/// fixed at server construction so every reload opens the store under the
/// same environment (retry policy, fault schedule, telemetry) as the first
/// load.
struct LoadSpec {
    root: PathBuf,
    mode: ServeMode,
    env: IoEnv,
}

impl LoadSpec {
    fn load(&self) -> Result<Snapshot> {
        let ckpt = Checkpoint::open(&self.root)?;
        // Temporal link prediction ("tlp") checkpoints share the
        // link-prediction layout (embedding table + relation decoder) and
        // serve identically — streamed train→serve loops rely on this.
        let run = &ckpt.config;
        if run.task != "lp" && run.task != "tlp" {
            return Err(StorageError::checkpoint(format!(
                "serving requires a link-prediction checkpoint, found task {:?}",
                run.task
            )));
        }
        if run.model.encoder != EncoderKind::None || run.model.num_layers != 0 {
            return Err(StorageError::checkpoint(
                "serving requires a decoder-only (DistMult) checkpoint: encoder-bearing \
                 models have no deterministic serving semantics (see marius_serve docs)",
            ));
        }
        let dim = run.model.output_dim;

        // Rebuild the decoder: allocate with any seed, then overlay the
        // checkpointed relation embeddings bit-for-bit.
        let rel_blob = ckpt
            .state
            .get("model.decoder.relations.value")
            .ok_or_else(|| {
                StorageError::checkpoint(
                    "checkpoint carries no DistMult relation blob (model.decoder.relations.value)",
                )
            })?;
        let (num_relations, rel_dim) = rel_blob.shape();
        if rel_dim != dim {
            return Err(StorageError::checkpoint(format!(
                "relation blob dimension {rel_dim} does not match the model dimension {dim}"
            )));
        }
        let rel_values = rel_blob.as_f32()?;
        let mut decoder = DistMult::new(num_relations, dim, &mut StdRng::seed_from_u64(0));
        decoder.relation_param_mut().value = Tensor::from_vec(rel_values, num_relations, dim);

        let num_nodes = ckpt.dataset_spec.num_nodes;
        let backend = match &run.storage {
            Storage::InMemory => match self.mode {
                ServeMode::InMemory => {
                    let flat =
                        ckpt.state
                            .require_f32("source.table.values", num_nodes as usize, dim)?;
                    Backend::in_memory(flat, dim)
                }
                ServeMode::ReadCache { .. } => {
                    return Err(StorageError::checkpoint(
                        "read-cache serving needs an out-of-core checkpoint with a partition \
                         snapshot; this checkpoint trained in memory",
                    ))
                }
            },
            Storage::Disk(disk) => {
                let Some(snapshot) = ckpt.store_snapshot() else {
                    return Err(StorageError::checkpoint(
                        "checkpoint carries no partition snapshot to serve from",
                    ));
                };
                // Replay the partition assignment exactly as training derived
                // it: the assignment draw is the trainer RNG's first use, so
                // seeding with the training seed and replaying that prefix
                // recovers the node → partition map without reading the graph.
                let mut rng = StdRng::seed_from_u64(run.train.seed);
                let assignment = Partitioner::new(disk.num_partitions)
                    .map_err(|e| StorageError::InvalidPlan {
                        reason: format!("cannot replay the partition assignment: {e}"),
                    })?
                    .random(num_nodes, &mut rng);
                let store = self.env.open_store(snapshot)?;
                match self.mode {
                    ServeMode::InMemory => {
                        let flat = read_all_embeddings(&store, &assignment, dim)?;
                        Backend::in_memory(flat, dim)
                    }
                    ServeMode::ReadCache { budget_bytes } => {
                        let heat = heat_order(
                            disk,
                            &mut StdRng::seed_from_u64(run.train.seed ^ HEAT_SEED_SALT),
                        )?;
                        let rows: Vec<usize> = assignment.partition_sizes();
                        let cache =
                            ReadCache::new(&heat, &rows, dim, budget_bytes, &self.env.telemetry);
                        Backend::out_of_core(store, assignment, cache, dim)
                    }
                }
            }
        };

        Ok(Snapshot {
            epoch: ckpt.epochs_completed,
            decoder,
            backend,
            dim,
            num_nodes,
            num_relations,
        })
    }
}

/// A read-only serving handle over one loaded checkpoint root. Shareable
/// across threads (`Server: Send + Sync`); all query methods take `&self`.
/// See the crate docs for degradation modes and hot-reload semantics.
pub struct Server {
    spec: LoadSpec,
    snapshot: SnapshotHandle,
    /// Serialises concurrent [`Server::reload`] calls (queries never block).
    reload_lock: Mutex<()>,
    admission: Admission,
    query_retries: u32,
    telemetry: Telemetry,
    err_transient: Counter,
    err_permanent: Counter,
    deadline_count: Counter,
    reload_count: Counter,
    reload_errs: Counter,
    q_pairwise: Counter,
    q_topk: Counter,
    q_knn: Counter,
    lat_pairwise: Histogram,
    lat_topk: Histogram,
    lat_knn: Histogram,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot.load();
        f.debug_struct("Server")
            .field("epoch", &snap.epoch)
            .field("num_nodes", &snap.num_nodes)
            .field("num_relations", &snap.num_relations)
            .field("dim", &snap.dim)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Opens the newest checkpoint under `root` and serves it from memory
    /// with telemetry disabled. See [`Server::from_checkpoint_with`].
    pub fn from_checkpoint(root: impl AsRef<Path>) -> Result<Self> {
        Self::from_checkpoint_with(root, ServeConfig::in_memory())
    }

    /// Opens the newest checkpoint under `root` (the directory passed to
    /// `checkpoint_to` during training), rebuilds the DistMult decoder
    /// read-only from the manifest's blobs, and wires up the embedding
    /// backend selected by `config`.
    ///
    /// The backing partition store always carries a retry policy
    /// ([`RetryPolicy::default_transient`] unless overridden), so a single
    /// transient read fault can never fail a query.
    ///
    /// Fails with a typed [`StorageError`] when the checkpoint was written by
    /// a different task, carries an encoder (see the crate docs), or lacks
    /// the partition snapshot a [`ServeMode::ReadCache`] needs.
    pub fn from_checkpoint_with(root: impl AsRef<Path>, config: ServeConfig) -> Result<Self> {
        let telemetry = config.env.telemetry.clone();
        let spec = LoadSpec {
            root: root.as_ref().to_path_buf(),
            mode: config.mode.unwrap_or(ServeMode::InMemory),
            env: config.env,
        };
        let snapshot = spec.load()?;
        telemetry
            .gauge("server.reload.epoch")
            .set(snapshot.epoch as i64);
        let latency_bounds: Vec<u64> = (0..=20).map(|e| 1u64 << e).collect();
        Ok(Server {
            snapshot: SnapshotHandle::new(snapshot),
            reload_lock: Mutex::new(()),
            admission: Admission::new(config.max_in_flight, config.deadline, &telemetry),
            query_retries: config.query_retries.unwrap_or(1),
            err_transient: telemetry.counter("server.error.transient"),
            err_permanent: telemetry.counter("server.error.permanent"),
            deadline_count: telemetry.counter("server.deadline_exceeded"),
            reload_count: telemetry.counter("server.reload.count"),
            reload_errs: telemetry.counter("server.reload.error"),
            q_pairwise: telemetry.counter("server.queries.pairwise"),
            q_topk: telemetry.counter("server.queries.topk"),
            q_knn: telemetry.counter("server.queries.knn"),
            lat_pairwise: telemetry.histogram("server.latency_us.pairwise", &latency_bounds),
            lat_topk: telemetry.histogram("server.latency_us.topk", &latency_bounds),
            lat_knn: telemetry.histogram("server.latency_us.knn", &latency_bounds),
            telemetry,
            spec,
        })
    }

    /// Number of nodes in the served graph.
    pub fn num_nodes(&self) -> u64 {
        self.snapshot.load().num_nodes
    }

    /// Number of relation types the decoder knows.
    pub fn num_relations(&self) -> usize {
        self.snapshot.load().num_relations
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.snapshot.load().dim
    }

    /// Epochs completed by the currently served checkpoint version.
    pub fn epoch(&self) -> usize {
        self.snapshot.load().epoch
    }

    /// The telemetry recorder queries report into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The fault injector attached via [`ServeConfig::with_fault_injector`],
    /// if any — chaos suites use this
    /// to arm outages or permanent failures mid-run.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.spec.env.faults.as_ref()
    }

    /// Number of partitions the read cache admits, when serving out of core.
    pub fn cache_admitted_partitions(&self) -> Option<usize> {
        self.snapshot
            .load()
            .backend
            .cache()
            .map(ReadCache::admitted_partitions)
    }

    /// Number of partitions quarantined after a cached copy failed its
    /// fingerprint check, when serving out of core (see the crate docs).
    pub fn cache_quarantined_partitions(&self) -> Option<usize> {
        self.snapshot
            .load()
            .backend
            .cache()
            .map(ReadCache::quarantined_partitions)
    }

    /// Bytes the read cache's admitted set occupies once resident, when
    /// serving out of core (always within the configured budget).
    pub fn cache_admitted_bytes(&self) -> Option<u64> {
        self.snapshot
            .load()
            .backend
            .cache()
            .map(ReadCache::admitted_bytes)
    }

    /// The read cache's configured byte budget, when serving out of core.
    pub fn cache_budget_bytes(&self) -> Option<u64> {
        self.snapshot
            .load()
            .backend
            .cache()
            .map(ReadCache::budget_bytes)
    }

    /// A readiness/liveness snapshot: current epoch, in-flight load, cache
    /// occupancy and every degradation counter, read from the server's
    /// `server.*` counters (which count with or without a recorder).
    pub fn health(&self) -> ServerHealth {
        let snap = self.snapshot.load();
        ServerHealth {
            epoch: snap.epoch,
            in_flight: self.admission.in_flight(),
            max_in_flight: self.admission.limit(),
            deadline: self.admission.deadline(),
            cache_admitted_partitions: snap.backend.cache().map(ReadCache::admitted_partitions),
            cache_quarantined_partitions: snap
                .backend
                .cache()
                .map(ReadCache::quarantined_partitions),
            transient_errors: self.err_transient.get(),
            permanent_errors: self.err_permanent.get(),
            shed: self.admission.shed.get(),
            deadline_exceeded: self.deadline_count.get(),
            reloads: self.reload_count.get(),
            reload_errors: self.reload_errs.get(),
            store_retries: snap
                .backend
                .store()
                .map_or(0, |store| store.io_stats().io_retries),
            faults_injected: self.fault_injector().map_or(0, |f| f.faults_injected()),
        }
    }

    /// Checks the checkpoint root for a newer `epoch-NNNNNN/` version and
    /// atomically swaps it in. Returns `Ok(Some(epoch))` when a newer version
    /// was published, `Ok(None)` when the served version is already the
    /// newest. In-flight queries finish against the snapshot they pinned;
    /// queries admitted after the swap see the new epoch — no answer is ever
    /// torn across two versions.
    ///
    /// Concurrent reload calls serialise; a failed load (checkpoint
    /// mid-write, transient device fault) leaves the current snapshot
    /// serving and surfaces the error.
    pub fn reload(&self) -> Result<Option<usize>> {
        let _guard = self.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
        let current = self.snapshot.load().epoch;
        // Cheap no-op check: parse LATEST before paying for a full verified
        // load. An unreadable/unparseable pointer falls through to the full
        // open, which produces the proper typed error.
        if latest_epoch(&self.spec.root) == Some(current) {
            return Ok(None);
        }
        let fresh = self.spec.load()?;
        if fresh.epoch == current {
            return Ok(None);
        }
        let epoch = fresh.epoch;
        self.snapshot.store(Arc::new(fresh));
        self.reload_count.incr();
        self.telemetry
            .gauge("server.reload.epoch")
            .set(epoch as i64);
        Ok(Some(epoch))
    }

    /// Spawns a background thread that calls [`Server::reload`] every `poll`
    /// interval, hot-swapping each new checkpoint version as training
    /// publishes it. Reload failures are counted (`server.reload.error`) and
    /// retried at the next poll while the current snapshot keeps serving.
    /// The returned watcher stops and joins the thread on drop.
    pub fn watch_checkpoints(self: &Arc<Self>, poll: Duration) -> CheckpointWatcher {
        CheckpointWatcher::spawn(Arc::clone(self), poll)
    }

    pub(crate) fn note_reload_error(&self) {
        self.reload_errs.incr();
    }

    /// Scores one `(source, relation, destination)` triple.
    pub fn score(&self, src: NodeId, rel: RelId, dst: NodeId) -> ServeResult<f32> {
        Ok(self.score_pairs(&[(src, rel, dst)])?[0])
    }

    /// Scores a batch of triples through the training decoder kernel.
    /// Relation ids wrap modulo the relation count, matching training.
    pub fn score_pairs(&self, triples: &[(NodeId, RelId, NodeId)]) -> ServeResult<Vec<f32>> {
        let start = Instant::now();
        let mut scope = self.telemetry.scope("server");
        scope.begin("server.pairwise", triples.len() as i64, NO_LABEL);
        let out = self.run_admitted(|snap, clock| snap.score_pairs(triples, clock));
        scope.end();
        self.q_pairwise.incr();
        self.lat_pairwise.record(elapsed_us(start));
        out
    }

    /// Top-k tail prediction `(src, rel, ?)` over every node in the graph,
    /// ranked score-descending with ties broken by ascending node id.
    pub fn top_k(&self, src: NodeId, rel: RelId, k: usize) -> ServeResult<Vec<Prediction>> {
        self.top_k_query(src, rel, k, None)
    }

    /// Top-k tail prediction restricted to an explicit candidate list.
    pub fn top_k_among(
        &self,
        src: NodeId,
        rel: RelId,
        k: usize,
        candidates: &[NodeId],
    ) -> ServeResult<Vec<Prediction>> {
        self.top_k_query(src, rel, k, Some(candidates))
    }

    fn top_k_query(
        &self,
        src: NodeId,
        rel: RelId,
        k: usize,
        candidates: Option<&[NodeId]>,
    ) -> ServeResult<Vec<Prediction>> {
        let start = Instant::now();
        let mut scope = self.telemetry.scope("server");
        scope.begin("server.topk", k as i64, NO_LABEL);
        let out = self.run_admitted(|snap, clock| snap.top_k(src, rel, k, candidates, clock));
        scope.end();
        self.q_topk.incr();
        self.lat_topk.record(elapsed_us(start));
        out
    }

    /// The `k` nearest neighbours of `node` in the embedding table under
    /// dot-product similarity, excluding `node` itself; ranked
    /// similarity-descending with ties broken by ascending node id.
    pub fn knn(&self, node: NodeId, k: usize) -> ServeResult<Vec<Prediction>> {
        let start = Instant::now();
        let mut scope = self.telemetry.scope("server");
        scope.begin("server.knn", k as i64, NO_LABEL);
        let out = self.run_admitted(|snap, clock| snap.knn(node, k, clock));
        scope.end();
        self.q_knn.incr();
        self.lat_knn.record(elapsed_us(start));
        out
    }

    /// The common query harness: admission (shed/deadline), snapshot
    /// pinning, serve-level retry of store-budget exhaustions, and error
    /// classification/counting. Each attempt pins a *fresh* snapshot, so a
    /// query retried across a hot reload completes wholly on the new epoch.
    fn run_admitted<T>(
        &self,
        f: impl Fn(&Snapshot, &QueryClock) -> ServeResult<T>,
    ) -> ServeResult<T> {
        let _permit = self.admission.admit()?;
        let clock = self.admission.clock();
        let mut attempt = 0u32;
        loop {
            let out = clock.check().and_then(|()| {
                let snapshot = self.snapshot.load();
                f(&snapshot, &clock)
            });
            match out {
                Ok(value) => return Ok(value),
                Err(e @ ServeError::DeadlineExceeded { .. }) => {
                    self.deadline_count.incr();
                    return Err(e);
                }
                Err(e @ ServeError::Transient { .. }) => {
                    self.err_transient.incr();
                    if attempt < self.query_retries {
                        attempt += 1;
                        continue;
                    }
                    return Err(e);
                }
                Err(e @ ServeError::Permanent { .. }) => {
                    self.err_permanent.incr();
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Test hook: flips one bit of a cached partition copy in place (see
    /// `ReadCache::debug_corrupt`), so chaos suites can prove the quarantine
    /// degraded mode serves bit-identical answers from disk.
    #[doc(hidden)]
    pub fn debug_corrupt_cached_partition(&self, p: PartitionId) -> bool {
        self.snapshot
            .load()
            .backend
            .cache()
            .is_some_and(|cache| cache.debug_corrupt(p))
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Ranks partitions hottest-first for cache admission by replaying the
/// checkpoint's replacement policy ([`link_prediction_plan`]): partitions a
/// COMET/BETA epoch plan schedules in more sets (and earlier) are the ones
/// training touched most, and a zipfian read mix over the same assignment
/// concentrates there too. A node-cache checkpoint belongs to node
/// classification and is rejected.
fn heat_order(disk: &DiskConfig, rng: &mut StdRng) -> Result<Vec<PartitionId>> {
    let p = disk.num_partitions;
    let plan = link_prediction_plan(disk, rng)?;
    let mut uses = vec![0usize; p as usize];
    let mut first_seen = vec![usize::MAX; p as usize];
    for (step, set) in plan.partition_sets.iter().enumerate() {
        for &pid in set {
            uses[pid as usize] += 1;
            first_seen[pid as usize] = first_seen[pid as usize].min(step);
        }
    }
    let mut order: Vec<PartitionId> = (0..p).collect();
    order.sort_by_key(|&pid| {
        (
            usize::MAX - uses[pid as usize],
            first_seen[pid as usize],
            pid,
        )
    });
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_order_breaks_score_ties_by_node_id() {
        let mut preds = [
            Prediction {
                node: 9,
                score: 1.0,
            },
            Prediction {
                node: 2,
                score: 1.0,
            },
            Prediction {
                node: 5,
                score: 2.0,
            },
            Prediction {
                node: 7,
                score: 0.5,
            },
        ];
        preds.sort_by(rank_order);
        let ids: Vec<NodeId> = preds.iter().map(|p| p.node).collect();
        assert_eq!(ids, vec![5, 2, 9, 7]);
    }

    #[test]
    fn top_k_selection_is_arrival_order_invariant() {
        let all: Vec<Prediction> = (0..100)
            .map(|i| Prediction {
                node: i,
                score: ((i * 37) % 13) as f32,
            })
            .collect();
        let mut sorted = all.clone();
        sorted.sort_by(rank_order);
        for k in [0usize, 1, 7, 100, 250] {
            let mut forward = TopK::new(k, all.len());
            all.iter().for_each(|&p| forward.offer(p));
            let mut backward = TopK::new(k, all.len());
            all.iter().rev().for_each(|&p| backward.offer(p));
            let want = &sorted[..k.min(all.len())];
            assert_eq!(forward.into_ranked(), want, "k = {k}");
            assert_eq!(backward.into_ranked(), want, "k = {k}");
        }
    }

    #[test]
    fn top_k_rejects_only_what_cannot_survive() {
        let mut best = TopK::new(2, 10);
        assert!(!best.rejects(f32::NEG_INFINITY), "not full yet");
        for (node, score) in [(4, 1.0), (9, 3.0)] {
            best.offer(Prediction { node, score });
        }
        assert!(best.rejects(0.5));
        // A tie with the cut-off may still win on node id: not rejected.
        assert!(!best.rejects(1.0));
        best.offer(Prediction {
            node: 2,
            score: 1.0,
        });
        let nodes: Vec<NodeId> = best.into_ranked().iter().map(|p| p.node).collect();
        assert_eq!(nodes, vec![9, 2]);
    }

    #[test]
    fn heat_order_is_deterministic_and_complete() {
        let disk = DiskConfig::comet(16, 4);
        let a = heat_order(&disk, &mut StdRng::seed_from_u64(3)).unwrap();
        let b = heat_order(&disk, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn node_cache_policy_is_rejected_for_serving() {
        let disk = DiskConfig::node_cache(8, 4);
        let err = heat_order(&disk, &mut StdRng::seed_from_u64(1)).unwrap_err();
        assert!(format!("{err}").contains("node classification"), "{err}");
    }
}

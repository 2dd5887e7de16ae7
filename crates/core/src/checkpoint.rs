//! Durable training state: the [`StateDict`] / [`Persist`] contract and the
//! versioned on-disk checkpoint format.
//!
//! Out-of-core training makes long-running disk-based epochs the norm; a
//! restart must not cost those epochs. This module defines *what a model's
//! durable state is* — named, versioned tensor blobs behind the [`Persist`]
//! trait — and the checkpoint layout that makes a resumed run's loss
//! trajectory bit-identical to the uninterrupted run (pinned by the
//! `checkpoint_resume` golden tests at the workspace root).
//!
//! # On-disk layout
//!
//! A checkpoint *root* directory holds immutable version directories plus an
//! atomically swapped `LATEST` pointer:
//!
//! ```text
//! <root>/
//!   LATEST                    # name of the newest complete version, e.g. "epoch-000002"
//!   epoch-000002/             # one immutable directory per checkpointed epoch boundary
//!     manifest.json           # the durable contract (schema below)
//!     state.bin               # concatenated little-endian blob payloads
//!     progress.json           # human-readable ExperimentReport (write-only)
//!     partitions/             # PartitionStore snapshot (disk runs with write-back only)
//!   epoch-000001/             # the previous version, retained for crash safety
//! ```
//!
//! Every write is staged and renamed: version directories are assembled at
//! `<name>.tmp` and renamed into place only once complete, the `LATEST` file
//! is replaced via temp-file + rename, and the partition snapshot inside the
//! version is itself a temp-dir + rename
//! ([`marius_storage::PartitionStore::snapshot_to`]). The staged version is
//! fsynced (every file, then its directories) before any rename, and the
//! renames and `LATEST` flip are fsynced in order, so the guarantee holds
//! across power loss as well as process crashes: a crash at any point leaves
//! `LATEST` naming the last fully durable version — a reader can never
//! observe a torn checkpoint. Old versions beyond the newest two are pruned
//! after the pointer flip.
//!
//! # Manifest schema (`manifest.json`, format version 1)
//!
//! A manifest is `RunConfig` + cursor + blobs + epochs: the run's description
//! (one [`RunConfig`], the same value the trainer, the `marius::Session`
//! builder and [`Checkpoint`] hold), how far the run got, the index into
//! `state.bin`, and the per-epoch reports:
//!
//! ```json
//! {
//!   "format": "marius-checkpoint", "version": 1,
//!   // -- RunConfig ------------------------------------------------------
//!   "task": "lp",                        // Task::slug of the checkpointed task
//!   "every": 1, "eval_every": 1,         // checkpoint cadence + eval cadence
//!   "emulated_device": null,             // or the IoCostModel of an emulated-device run
//!   "model": { .. }, "train": { .. },    // ModelConfig / TrainConfig
//!   "storage": {"kind": "memory"} | {"kind": "disk", ..DiskConfig..},
//!   "pipeline": { ..PipelineConfig.. },
//!   // -- cursor ---------------------------------------------------------
//!   "epochs_completed": 2,               // resume starts at this epoch index
//!   "rng": ["0x..", "0x..", "0x..", "0x.."],  // trainer RNG cursor (xoshiro256** words)
//!   "dataset": { ..DatasetSpec.., "seed": 42 },  // regenerates the dataset bit-for-bit
//!   "stream": null,                      // or {"seed", "batch_size", "batches_applied",
//!                                        //     "edges_ingested"} on streaming runs
//!   "store_snapshot": true,              // whether partitions/ exists
//!   // -- blobs + epochs -------------------------------------------------
//!   "blobs": [ {"name", "rows", "cols", "dtype", "offset", "len_bytes", "fnv64"} ],
//!   "epochs": [ {"epoch", "loss_bits", "metric_bits", ..} ]
//! }
//! ```
//!
//! (Grouped here by meaning; on disk `epochs_completed` and `rng` keep the
//! places version 1 gave them, and readers look keys up by name.)
//!
//! The schema is declared by field tables, once per record: the `record!`
//! list at the bottom of this module names each config record's keys in
//! order (`RunConfig`, `ModelConfig`, `TrainConfig`, `DiskConfig`,
//! `PipelineConfig`, `IoCostModel`, `StreamState`, `DatasetSpec`,
//! [`BlobEntry`]), and the table that declares [`EpochReport`] names the
//! epoch keys. The writer and the reader of each record both expand from its
//! table, and the document goes through the one JSON module,
//! [`marius_telemetry::json`]. Readers are total: a missing key, a value of
//! the wrong type, or an integer out of range for its field (a
//! `num_partitions` past `u32::MAX`) is a typed [`StorageError::Checkpoint`],
//! never a panic and never a silent truncation; so are blob shapes whose
//! byte size overflows and blob names that repeat. A manifest
//! does **not** hold the run's IO environment ([`marius_storage::IoEnv`]:
//! fault injector, retry policy, telemetry recorder) — those are attachments
//! of a process, handed to whoever resumes the run.
//!
//! # Versioning rules
//!
//! * `version` is bumped on any incompatible change to the manifest schema or
//!   blob encoding; [`Checkpoint::open`] rejects versions it does not speak.
//!   Compatible changes stay within a version: per-epoch fields added after
//!   version 1 shipped read as zero when absent, a missing `stream` means no
//!   stream, and keys this build no longer has (`pipeline.synchronous_writeback`)
//!   are ignored.
//! * Blob *names* are the compatibility surface of a model's state
//!   (`model.encoder.l0.p0.value`, `source.table.values`, ...); loaders must
//!   reject missing names or shape mismatches rather than guess.
//! * Floating-point values that feed resumed computation (`loss_bits`,
//!   `metric_bits`, the blob payloads, the RNG words) are stored as exact bit
//!   patterns; human-oriented copies live in `progress.json`.
//! * Every blob carries an FNV-1a 64 checksum over its payload bytes;
//!   [`Checkpoint::open`] verifies all of them before returning.
//!
//! # Bit-exact resume
//!
//! A checkpoint captures, at an epoch boundary: the epoch counter, the
//! trainer's RNG cursor, every model parameter *and* its Adagrad accumulator,
//! the learnable base representations (an in-memory table dump or a partition
//! snapshot taken after the write-back ledger drained — see
//! [`marius_storage::pipeline::writeback_safe_point`]), the in-memory example-order
//! permutation, and the per-epoch report so far. Resume replays the fresh
//! run's construction path (consuming identical RNG draws for dataset,
//! partitioning, and parameter init), then overlays the saved state and RNG
//! cursor — from which point the continuation is indistinguishable from the
//! uninterrupted run.

use crate::config::{
    DiskConfig, EncoderKind, ModelConfig, PipelineConfig, PolicyKind, RunConfig, Storage,
    TrainConfig,
};
use crate::report::{EpochReport, ExperimentReport};
use marius_gnn::EmbeddingTable;
use marius_graph::datasets::{DatasetSpec, ScaledDataset, Task as DatasetTask};
use marius_graph::sampling::SamplingDirection;
use marius_storage::{atomic_write, IoCostModel, PartitionStore, Result, StorageError};
use marius_telemetry::json::Json;
use std::fs;
use std::path::{Path, PathBuf};

/// The one JSON module, [`marius_telemetry::json`], also under the path the
/// manifest parser had when it lived here (the perf harness imports it so).
pub use marius_telemetry::json;

/// Format identifier stamped into every manifest.
pub(crate) const FORMAT: &str = "marius-checkpoint";
/// Current manifest/blob format version. Bumped on incompatible changes.
pub(crate) const FORMAT_VERSION: u64 = 1;

/// FNV-1a 64-bit checksum (the per-blob integrity check).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn corrupt(reason: impl Into<String>) -> StorageError {
    StorageError::checkpoint(reason)
}

/// Element type of a [`Blob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// 32-bit IEEE-754 floats (parameters, optimizer state, embeddings).
    F32,
    /// 64-bit unsigned integers (permutations, RNG material, counters).
    U64,
}

impl DType {
    fn as_str(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::U64 => "u64",
        }
    }

    fn parse(s: &str) -> Result<Self> {
        match s {
            "f32" => Ok(DType::F32),
            "u64" => Ok(DType::U64),
            other => Err(corrupt(format!("unknown blob dtype {other:?}"))),
        }
    }

    fn width(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::U64 => 8,
        }
    }
}

/// One named tensor payload inside a [`StateDict`].
#[derive(Debug, Clone, PartialEq)]
pub struct Blob {
    name: String,
    rows: usize,
    cols: usize,
    dtype: DType,
    data: Vec<u8>,
}

impl Blob {
    /// The blob's name (the compatibility surface — see the module docs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// FNV-1a 64 checksum over the payload bytes.
    pub(crate) fn checksum(&self) -> u64 {
        fnv1a64(&self.data)
    }

    /// Decodes the payload as `f32` values.
    pub fn as_f32(&self) -> Result<Vec<f32>> {
        if self.dtype != DType::F32 {
            return Err(corrupt(format!(
                "blob {:?} holds {} data, not f32",
                self.name,
                self.dtype.as_str()
            )));
        }
        let (values, _) = self.data.as_chunks::<4>();
        Ok(values.iter().map(|&c| f32::from_le_bytes(c)).collect())
    }

    /// Decodes the payload as `u64` values.
    pub fn as_u64(&self) -> Result<Vec<u64>> {
        if self.dtype != DType::U64 {
            return Err(corrupt(format!(
                "blob {:?} holds {} data, not u64",
                self.name,
                self.dtype.as_str()
            )));
        }
        let (values, _) = self.data.as_chunks::<8>();
        Ok(values.iter().map(|&c| u64::from_le_bytes(c)).collect())
    }
}

/// An ordered collection of named, shaped tensor blobs: the in-memory form of
/// a checkpoint's durable state. Produced by [`Persist::save_state`] (of the
/// task's model, the embedding table, the trainer's own blobs), consumed by
/// the matching `load_state`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    blobs: Vec<Blob>,
}

impl StateDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        StateDict::default()
    }

    /// Number of blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the dictionary holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// The blobs, in insertion order.
    pub fn blobs(&self) -> &[Blob] {
        &self.blobs
    }

    /// Looks a blob up by name.
    pub fn get(&self, name: &str) -> Option<&Blob> {
        self.blobs.iter().find(|b| b.name == name)
    }

    fn push(&mut self, blob: Blob) {
        assert!(
            self.get(&blob.name).is_none(),
            "duplicate blob name {:?}",
            blob.name
        );
        self.blobs.push(blob);
    }

    /// Appends an `f32` blob of shape `(rows, cols)`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols` or the name is already taken.
    pub fn push_f32(&mut self, name: impl Into<String>, rows: usize, cols: usize, values: &[f32]) {
        assert_eq!(values.len(), rows * cols, "blob shape mismatch");
        let mut data = Vec::with_capacity(values.len() * 4);
        for v in values {
            data.extend_from_slice(&v.to_le_bytes());
        }
        self.push(Blob {
            name: name.into(),
            rows,
            cols,
            dtype: DType::F32,
            data,
        });
    }

    /// Appends a `u64` blob of shape `(values.len(), 1)`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn push_u64(&mut self, name: impl Into<String>, values: &[u64]) {
        let mut data = Vec::with_capacity(values.len() * 8);
        for v in values {
            data.extend_from_slice(&v.to_le_bytes());
        }
        self.push(Blob {
            name: name.into(),
            rows: values.len(),
            cols: 1,
            dtype: DType::U64,
            data,
        });
    }

    /// Fetches an `f32` blob, rejecting a missing name or shape mismatch.
    pub fn require_f32(&self, name: &str, rows: usize, cols: usize) -> Result<Vec<f32>> {
        let blob = self
            .get(name)
            .ok_or_else(|| corrupt(format!("checkpoint state has no blob {name:?}")))?;
        if blob.shape() != (rows, cols) {
            return Err(corrupt(format!(
                "blob {name:?} has shape {:?}, expected ({rows}, {cols})",
                blob.shape()
            )));
        }
        blob.as_f32()
    }

    /// Fetches a `u64` blob by name, any length.
    pub fn require_u64(&self, name: &str) -> Result<Vec<u64>> {
        self.get(name)
            .ok_or_else(|| corrupt(format!("checkpoint state has no blob {name:?}")))?
            .as_u64()
    }

    /// Serialises every payload into one buffer (the `state.bin` content) and
    /// the per-blob manifest entries describing it.
    pub fn encode(&self) -> (Vec<u8>, Vec<BlobEntry>) {
        let mut bytes = Vec::new();
        let mut entries = Vec::with_capacity(self.blobs.len());
        for blob in &self.blobs {
            entries.push(BlobEntry {
                name: blob.name.clone(),
                rows: blob.rows,
                cols: blob.cols,
                dtype: blob.dtype,
                offset: bytes.len(),
                len_bytes: blob.data.len(),
                fnv64: blob.checksum(),
            });
            bytes.extend_from_slice(&blob.data);
        }
        (bytes, entries)
    }

    /// Rebuilds a dictionary from manifest entries plus the `state.bin`
    /// buffer, verifying every length, element width, and checksum, with
    /// checked arithmetic throughout: a shape whose byte size overflows, or
    /// a name that appears twice, is a typed error like any other lie.
    pub fn decode(entries: &[BlobEntry], bytes: &[u8]) -> Result<Self> {
        let mut dict = StateDict::new();
        for e in entries {
            let end = e
                .offset
                .checked_add(e.len_bytes)
                .filter(|&end| end <= bytes.len());
            let Some(end) = end else {
                return Err(corrupt(format!(
                    "blob {:?} extends past the end of state.bin ({} + {} > {})",
                    e.name,
                    e.offset,
                    e.len_bytes,
                    bytes.len()
                )));
            };
            let shape_bytes = e.rows.checked_mul(e.cols);
            if shape_bytes.and_then(|n| n.checked_mul(e.dtype.width())) != Some(e.len_bytes) {
                return Err(corrupt(format!(
                    "blob {:?} length {} does not match shape ({}, {}) of {}",
                    e.name,
                    e.len_bytes,
                    e.rows,
                    e.cols,
                    e.dtype.as_str()
                )));
            }
            if dict.get(&e.name).is_some() {
                return Err(corrupt(format!("blob {:?} appears twice", e.name)));
            }
            let data = bytes[e.offset..end].to_vec();
            let sum = fnv1a64(&data);
            if sum != e.fnv64 {
                return Err(corrupt(format!(
                    "blob {:?} checksum mismatch: manifest {:#018x}, data {sum:#018x}",
                    e.name, e.fnv64
                )));
            }
            dict.push(Blob {
                name: e.name.clone(),
                rows: e.rows,
                cols: e.cols,
                dtype: e.dtype,
                data,
            });
        }
        Ok(dict)
    }
}

/// Manifest record describing one blob inside `state.bin`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobEntry {
    /// Blob name.
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Element type.
    pub(crate) dtype: DType,
    /// Byte offset of the payload inside `state.bin`.
    pub offset: usize,
    /// Payload length in bytes.
    pub(crate) len_bytes: usize,
    /// FNV-1a 64 checksum of the payload.
    pub(crate) fnv64: u64,
}

/// Types whose durable state round-trips through a [`StateDict`].
///
/// `save_state` appends the type's named blobs; `load_state` restores them,
/// rejecting missing names and shape mismatches (a checkpoint from a different
/// architecture must fail loudly, not load partially).
pub trait Persist {
    /// Appends this value's durable state to `dict`.
    fn save_state(&self, dict: &mut StateDict);

    /// Restores this value's durable state from `dict`.
    fn load_state(&mut self, dict: &StateDict) -> Result<()>;
}

impl Persist for EmbeddingTable {
    fn save_state(&self, dict: &mut StateDict) {
        let (n, d) = (self.num_nodes(), self.dim());
        dict.push_f32("source.table.values", n, d, self.raw_values());
        dict.push_f32("source.table.state", n, d, self.raw_state());
    }

    fn load_state(&mut self, dict: &StateDict) -> Result<()> {
        let (n, d) = (self.num_nodes(), self.dim());
        let values = dict.require_f32("source.table.values", n, d)?;
        let state = dict.require_f32("source.table.state", n, d)?;
        self.load_rows(0, &values, &state);
        Ok(())
    }
}

/// Durable cursor of a streaming-ingest run: how much of the seeded edge
/// stream has been applied to the training buckets at this checkpoint.
///
/// A streamed dataset is never persisted wholesale. The manifest records the
/// base dataset as `(spec, seed)` plus this cursor; resume regenerates the
/// base, replays the seeded stream's first `batches_applied` batches (each
/// batch is a pure function of `(seed, index)`), and appends them to the
/// training edges — reconstructing the grown dataset bit-for-bit. Missing
/// from a manifest (pre-streaming checkpoints) means "no stream": parse-back
/// is version-compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamState {
    /// Seed of the edge stream (independent of the trainer RNG).
    pub seed: u64,
    /// Edges per stream batch.
    pub batch_size: usize,
    /// Stream batches applied to the training buckets so far.
    pub batches_applied: u64,
    /// Total edges ingested so far (`batches_applied * batch_size`, recorded
    /// explicitly so readers need not re-derive it).
    pub edges_ingested: u64,
}

/// Everything [`write_versioned`] needs to persist one epoch-boundary
/// checkpoint. Assembled by `Trainer<T>` at the end of a checkpointed epoch.
pub(crate) struct CheckpointSnapshot<'a> {
    /// The run's description, persisted whole (task slug validated on
    /// resume; storage as the running executor sees it).
    pub config: &'a RunConfig,
    /// Number of fully completed epochs (resume starts here).
    pub epochs_completed: usize,
    /// The trainer RNG's cursor at the epoch boundary.
    pub(crate) rng_state: [u64; 4],
    /// The dataset the run trains on (spec + generation seed are persisted).
    pub data: &'a ScaledDataset,
    /// Streaming-ingest cursor, when the run ingests from an edge stream.
    pub stream: Option<StreamState>,
    /// Model (and in-memory source) state blobs.
    pub state: &'a StateDict,
    /// When `Some`, the store's partition files are snapshotted into the
    /// version directory. Must be at a write-back safe point (see
    /// [`marius_storage::pipeline::writeback_safe_point`]).
    pub store: Option<&'a PartitionStore>,
    /// Per-epoch reports so far (persisted bit-exactly in the manifest, plus
    /// human-readably in `progress.json`).
    pub report: &'a ExperimentReport,
}

/// Flushes a file's (or directory's) data and metadata to the device.
/// Rename-based atomicity alone survives process crashes; surviving *power
/// loss* additionally needs every staged byte durable before the rename, and
/// the directory entries durable before `LATEST` flips (otherwise the flip
/// can reach disk while the version it names is still zero-filled pages).
fn fsync_path(path: &Path) -> std::io::Result<()> {
    fs::File::open(path)?.sync_all()
}

/// Recursively fsyncs every file, then every directory, under `dir` —
/// including hard-linked snapshot files (syncing a link flushes the shared
/// inode's data).
fn fsync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            fsync_tree(&path)?;
        } else {
            fsync_path(&path)?;
        }
    }
    fsync_path(dir)
}

/// Writes one versioned checkpoint under `root` and atomically flips `LATEST`
/// to it. Returns the version directory's path. See the module docs for the
/// crash-safety argument.
pub(crate) fn write_versioned(root: &Path, snapshot: &CheckpointSnapshot<'_>) -> Result<PathBuf> {
    fs::create_dir_all(root)?;
    let version = version_name(snapshot.epochs_completed);
    let staging = root.join(format!("{version}.tmp"));
    if staging.exists() {
        fs::remove_dir_all(&staging)?;
    }
    fs::create_dir_all(&staging)?;

    // Checkpoint placement rides the store's fault-injection and retry
    // layers when the run has a store attached: a transient blip while
    // persisting durable state retries exactly like a partition write, and
    // an injected fault plan exercises the checkpoint path too. In-memory
    // runs fall back to a plain atomic write.
    let place = |name: &str, path: &Path, bytes: &[u8]| -> Result<()> {
        match snapshot.store {
            Some(store) => store.place_file(&format!("checkpoint/{name}"), path, bytes),
            None => atomic_write(path, bytes).map_err(StorageError::from),
        }
    };
    let (bin, entries) = snapshot.state.encode();
    place("state.bin", &staging.join("state.bin"), &bin)?;
    if let Some(store) = snapshot.store {
        store.snapshot_to(staging.join("partitions"))?;
    }
    place(
        "progress.json",
        &staging.join("progress.json"),
        snapshot.report.to_json().as_bytes(),
    )?;
    place(
        "manifest.json",
        &staging.join("manifest.json"),
        manifest_json(snapshot, &entries).as_bytes(),
    )?;

    // Make the staged version durable before any rename: after the LATEST
    // flip below reaches disk, every byte it names must already be there.
    fsync_tree(&staging)?;

    let final_dir = root.join(&version);
    if final_dir.exists() {
        // Re-checkpointing the same epoch (a restarted-from-scratch run over
        // an old checkpoint directory): never delete the version `LATEST`
        // may currently name. Rename it aside first — a crash between the
        // two renames leaves `LATEST` briefly dangling, which
        // [`Checkpoint::open`]'s fallback scan covers — and drop the old
        // bytes only after the swap.
        let trash = root.join(format!("{version}.old.tmp"));
        let _ = fs::remove_dir_all(&trash);
        fs::rename(&final_dir, &trash)?;
        fs::rename(&staging, &final_dir)?;
        let _ = fs::remove_dir_all(&trash);
    } else {
        fs::rename(&staging, &final_dir)?;
    }
    // Persist the rename itself, then the pointer, then the pointer's
    // directory entry — in that order, so a power cut at any point leaves
    // LATEST naming a fully durable version (possibly the previous one).
    fsync_path(root)?;
    place("LATEST", &root.join("LATEST"), version.as_bytes())?;
    fsync_path(&root.join("LATEST"))?;
    fsync_path(root)?;
    prune_versions(root, &version)?;
    Ok(final_dir)
}

fn version_name(epochs_completed: usize) -> String {
    format!("epoch-{epochs_completed:06}")
}

/// The epoch of the version the `LATEST` pointer under `root` names — the
/// inverse of the `epoch-NNNNNN` names `write_versioned` gives versions —
/// or `None` when there is no readable pointer. One small read, so a
/// reloading reader can tell "nothing new" without opening the checkpoint.
pub fn latest_epoch(root: &Path) -> Option<usize> {
    let name = fs::read_to_string(root.join("LATEST")).ok()?;
    name.trim().strip_prefix("epoch-")?.parse().ok()
}

/// Removes version directories older than the newest two (the current one and
/// its predecessor, kept so a crash while *reading* the newest never strands
/// the operator), plus any abandoned `.tmp` staging directories.
fn prune_versions(root: &Path, current: &str) -> Result<()> {
    let mut versions: Vec<String> = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !entry.path().is_dir() {
            continue;
        }
        if name.ends_with(".tmp") {
            let _ = fs::remove_dir_all(entry.path());
        } else if name.starts_with("epoch-") {
            versions.push(name);
        }
    }
    versions.sort();
    let keep_from = versions.len().saturating_sub(2);
    for name in &versions[..keep_from] {
        if name != current {
            let _ = fs::remove_dir_all(root.join(name));
        }
    }
    Ok(())
}

/// A loaded, checksum-verified checkpoint — also what a `Trainer<T>` holds to
/// continue the run ([`crate::Trainer::with_resume`]): training resumes at
/// epoch index `epochs_completed` with `state` and `rng_state` overlaid and
/// `prior_epochs` seeding the report.
#[derive(Debug)]
pub struct Checkpoint {
    /// The version directory this checkpoint was loaded from.
    pub dir: PathBuf,
    /// The description of the run that wrote the checkpoint.
    pub config: RunConfig,
    /// Fully completed epochs.
    pub epochs_completed: usize,
    /// Trainer RNG cursor.
    pub(crate) rng_state: [u64; 4],
    /// Dataset specification (regenerates the dataset with `dataset_seed`).
    pub dataset_spec: DatasetSpec,
    /// Dataset generation seed.
    pub dataset_seed: u64,
    /// Streaming-ingest cursor (`None` for frozen-dataset runs, and for
    /// manifests written before streaming existed).
    pub stream: Option<StreamState>,
    /// Model / source / trainer state blobs.
    pub state: StateDict,
    /// Whether the version directory carries a partition snapshot.
    pub(crate) has_store_snapshot: bool,
    /// Completed epochs' reports, bit-exact.
    pub prior_epochs: Vec<EpochReport>,
}

impl Checkpoint {
    /// Opens the newest complete checkpoint under `root` (the directory
    /// passed to `checkpoint_to` / `write_versioned`), verifying the format
    /// version and every blob checksum.
    ///
    /// `LATEST` names the version tried first. If that version's directory
    /// is *missing* — the one crash window is a same-epoch re-checkpoint
    /// dying between the rename-aside and rename-in of `write_versioned` —
    /// the retained older versions are tried newest-first. A version that
    /// exists but fails to load (checksum corruption, format-version skew)
    /// is NOT silently skipped: falling back there would quietly rewind
    /// training progress, so the failure surfaces to the caller instead.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref();
        let latest = fs::read_to_string(root.join("LATEST")).map_err(|e| {
            corrupt(format!(
                "no checkpoint at {}: cannot read LATEST ({e})",
                root.display()
            ))
        })?;
        let latest = latest.trim().to_string();
        let latest_dir = root.join(&latest);
        let primary_err = match Self::open_version(latest_dir.clone()) {
            Ok(ckpt) => return Ok(ckpt),
            Err(e) => e,
        };
        if latest_dir.is_dir() {
            // The named version exists but is unreadable — corruption or
            // version skew, not the dangling-rename window. Fail loudly.
            return Err(primary_err);
        }
        let mut versions: Vec<String> = match fs::read_dir(root) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().is_dir())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("epoch-") && !n.ends_with(".tmp") && *n != latest)
                .collect(),
            Err(_) => Vec::new(),
        };
        versions.sort();
        for name in versions.iter().rev() {
            if let Ok(ckpt) = Self::open_version(root.join(name)) {
                return Ok(ckpt);
            }
        }
        Err(primary_err)
    }

    /// Loads and verifies one specific version directory.
    fn open_version(dir: PathBuf) -> Result<Self> {
        let manifest = fs::read(dir.join("manifest.json")).map_err(|e| {
            corrupt(format!(
                "checkpoint version {} is missing its manifest ({e})",
                dir.display()
            ))
        })?;
        let doc = read_manifest(&dir, &manifest)?;
        let bin = fs::read(dir.join("state.bin"))?;
        let ckpt = Self::decode(dir, &doc, &bin)?;
        if ckpt.store_snapshot().is_some_and(|p| !p.is_dir()) {
            return Err(corrupt(format!(
                "checkpoint {} promises a partition snapshot but has none",
                ckpt.dir.display()
            )));
        }
        Ok(ckpt)
    }

    /// Decodes a version from its manifest (read by [`read_manifest`]) and
    /// its `state.bin` bytes, verifying every blob; touches no file.
    fn decode(dir: PathBuf, doc: &Json, bin: &[u8]) -> Result<Self> {
        let rng: Vec<Hex> = Codec::from_json(doc.field("rng")?)?;
        let rng_state = <[Hex; 4]>::try_from(rng)
            .map_err(|_| corrupt("rng cursor must have 4 words"))?
            .map(|w| w.0);
        let entries: Vec<BlobEntry> = Codec::from_json(doc.field("blobs")?)?;
        let dataset = doc.field("dataset")?;
        Ok(Checkpoint {
            config: Codec::from_json(doc)?,
            epochs_completed: Codec::from_json(doc.field("epochs_completed")?)?,
            rng_state,
            dataset_spec: Codec::from_json(dataset)?,
            dataset_seed: Codec::from_json(dataset.field("seed")?)?,
            // Manifests written before streaming existed have no "stream"
            // field at all; both that and an explicit null mean "no stream".
            stream: match doc.field("stream") {
                Ok(j) => Codec::from_json(j)?,
                Err(_) => None,
            },
            state: StateDict::decode(&entries, bin)?,
            has_store_snapshot: Codec::from_json(doc.field("store_snapshot")?)?,
            prior_epochs: Codec::from_json(doc.field("epochs")?)?,
            dir,
        })
    }

    /// The partition snapshot to restore into a resumed run's fresh store,
    /// when the run was disk-based with learnable (write-back)
    /// representations.
    pub fn store_snapshot(&self) -> Option<PathBuf> {
        self.has_store_snapshot.then(|| self.dir.join("partitions"))
    }
}

/// Parses a manifest's bytes and checks that it is a checkpoint this build
/// speaks (format name and version).
fn read_manifest(dir: &Path, bytes: &[u8]) -> Result<Json> {
    let doc = std::str::from_utf8(bytes)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.0))
        .map_err(|e| corrupt(format!("manifest at {} is invalid: {e}", dir.display())))?;
    if doc.str_field("format")? != FORMAT {
        return Err(corrupt("manifest is not a marius checkpoint"));
    }
    let version = u64::from_json(doc.field("version")?)?;
    if version != FORMAT_VERSION {
        return Err(corrupt(format!(
            "checkpoint format version {version} is not supported (this build speaks {FORMAT_VERSION})"
        )));
    }
    Ok(doc)
}

// ---------------------------------------------------------------------------
// The manifest codec: one field table per record.
// ---------------------------------------------------------------------------

/// One manifest value's JSON spelling, both ways. Readers are total: a value
/// of the wrong shape, or out of range for its Rust type, is a typed
/// [`StorageError::Checkpoint`] — never a panic, never a silent truncation.
pub(crate) trait Codec: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;
    /// Reads back what [`Codec::to_json`] wrote.
    fn from_json(j: &Json) -> Result<Self>;
}

/// Declares leaf codecs, one line each: `Type: |value| write, |json| read;`.
macro_rules! leaf {
    ($($t:ty: |$v:ident| $write:expr, |$j:ident| $read:expr;)*) => {$(
        impl Codec for $t {
            fn to_json(&self) -> Json {
                let $v = self;
                $write
            }
            fn from_json($j: &Json) -> Result<Self> {
                $read
            }
        }
    )*};
}

/// A 64-bit word spelled as its `"0x…"` bit pattern (checksums, RNG words).
struct Hex(u64);

// Integers are read exactly, as `u64`, and narrowed by `TryFrom`. Finite
// floats round-trip exactly through Rust's shortest-display formatting, so
// config floats — always finite — are plain JSON numbers.
leaf! {
    u64: |v| Json::Num(v.to_string()), |j| Ok(j.as_u64()?);
    usize: |v| Json::Num(v.to_string()), |j| narrow(j);
    u32: |v| Json::Num(v.to_string()), |j| narrow(j);
    f64: |v| Json::Num(v.to_string()), |j| Ok(j.as_f64()?);
    f32: |v| Json::Num(v.to_string()), |j| Ok(j.as_f64()? as f32);
    bool: |v| Json::Bool(*v), |j| Ok(j.as_bool()?);
    String: |v| Json::Str(v.clone()), |j| Ok(j.as_str()?.to_string());
    Hex: |v| Json::hex(v.0), |j| Ok(Hex(j.as_hex_u64()?));
    DType: |v| Json::Str(v.as_str().into()), |j| DType::parse(j.as_str()?);
}

fn narrow<T: TryFrom<u64>>(j: &Json) -> Result<T> {
    let v = j.as_u64()?;
    let ty = std::any::type_name::<T>();
    T::try_from(v).map_err(|_| corrupt(format!("{v} is out of range for {ty}")))
}

impl<T: Codec> Codec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(j: &Json) -> Result<Self> {
        j.as_array()?.iter().map(T::from_json).collect()
    }
}

/// `None` is `null`.
impl<T: Codec> Codec for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(j: &Json) -> Result<Self> {
        (*j != Json::Null).then(|| T::from_json(j)).transpose()
    }
}

/// Enums are spelled by their `Debug` names, one list of variants each.
macro_rules! enum_codec {
    ($($t:ident: [$($v:ident),*],)*) => {$(
        impl Codec for $t {
            fn to_json(&self) -> Json {
                Json::Str(format!("{self:?}"))
            }
            fn from_json(j: &Json) -> Result<Self> {
                let name = j.as_str()?;
                let known = [$($t::$v),*].into_iter().find(|v| format!("{v:?}") == name);
                known.ok_or_else(|| corrupt(format!("unknown {} {name:?}", stringify!($t))))
            }
        }
    )*};
}

enum_codec! {
    EncoderKind: [GraphSage, Gat, None],
    SamplingDirection: [Incoming, Outgoing, Both],
    PolicyKind: [Comet, Beta, NodeCache],
    DatasetTask: [LinkPrediction, NodeClassification],
}

/// Declares records: `Type { field, field as "key", field in Wrapper, .. }`
/// lists one JSON object's keys in order (a key defaults to the field name;
/// `in Wrapper` spells the field through a newtype such as [`Hex`]). Both
/// directions expand from the list; readers look keys up by name, so keys a
/// record no longer has (`pipeline.synchronous_writeback`) are ignored.
macro_rules! record {
    ($($t:ident { $($field:ident $(as $key:literal)? $(in $wrap:ident)?),* })*) => {$(
        impl Codec for $t {
            fn to_json(&self) -> Json {
                Json::obj([$(
                    (record!(@key $field $($key)?), record!(@put self.$field $(, $wrap)?)),
                )*])
            }
            fn from_json(j: &Json) -> Result<Self> {
                Ok($t {$(
                    $field: record!(@get j.field(record!(@key $field $($key)?))? $(, $wrap)?),
                )*})
            }
        }
    )*};
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@put $v:expr) => { Codec::to_json(&$v) };
    (@put $v:expr, $wrap:ident) => { $wrap($v).to_json() };
    (@get $j:expr) => { Codec::from_json($j)? };
    (@get $j:expr, $wrap:ident) => { $wrap::from_json($j)?.0 };
}

record! {
    RunConfig {
        task, checkpoint_every as "every", eval_every, emulated_device, model, train, storage,
        pipeline
    }
    ModelConfig {
        encoder, num_layers, hidden_dim, output_dim, input_dim, fanouts, direction,
        learning_rate, embedding_learning_rate
    }
    TrainConfig { batch_size, num_negatives, eval_negatives, epochs, seed, max_batches_per_epoch }
    DiskConfig { policy, num_partitions, buffer_capacity, num_logical }
    PipelineConfig { enabled, num_sampling_workers, queue_depth, prefetch_depth, writeback_depth }
    IoCostModel { bandwidth_bytes_per_sec, iops, block_size }
    StreamState { seed, batch_size, batches_applied, edges_ingested }
    DatasetSpec {
        name, num_nodes, num_edges, feat_dim, num_relations, num_classes, train_fraction, task,
        degree_exponent, fixed_features
    }
    BlobEntry { name, rows, cols, dtype, offset, len_bytes, fnv64 in Hex }
}

/// `{"kind": "memory"}`, or `{"kind": "disk"}` followed by the
/// [`DiskConfig`]'s fields.
impl Codec for Storage {
    fn to_json(&self) -> Json {
        let (kind, rest) = match self {
            Storage::InMemory => ("memory", Vec::new()),
            Storage::Disk(d) => ("disk", pairs(d)),
        };
        let mut fields = vec![("kind".to_string(), Json::Str(kind.into()))];
        fields.extend(rest);
        Json::Obj(fields)
    }
    fn from_json(j: &Json) -> Result<Self> {
        match j.str_field("kind")? {
            "memory" => Ok(Storage::InMemory),
            "disk" => Ok(Storage::Disk(DiskConfig::from_json(j)?)),
            other => Err(corrupt(format!("unknown storage kind {other:?}"))),
        }
    }
}

/// A record's `(key, value)` pairs (every record renders as an object).
fn pairs<T: Codec>(record: &T) -> Vec<(String, Json)> {
    match record.to_json() {
        Json::Obj(pairs) => pairs,
        _ => Vec::new(),
    }
}

fn manifest_json(s: &CheckpointSnapshot<'_>, entries: &[BlobEntry]) -> String {
    let key = |k: &str, v: Json| (k.to_string(), v);
    let mut dataset = pairs(&s.data.spec);
    dataset.push(key("seed", s.data.seed.to_json()));
    let mut fields = pairs(s.config);
    // Format version 1 interleaves the cursor's two scalars with the
    // description; they keep those places so that re-rendering a parsed
    // manifest reproduces it byte for byte.
    fields.insert(0, key("format", Json::Str(FORMAT.into())));
    fields.insert(1, key("version", FORMAT_VERSION.to_json()));
    fields.insert(3, key("epochs_completed", s.epochs_completed.to_json()));
    fields.insert(6, key("rng", Vec::from(s.rng_state.map(Hex)).to_json()));
    let blobs = entries.iter().map(Codec::to_json).collect();
    fields.extend([
        key("dataset", Json::Obj(dataset)),
        key("stream", s.stream.to_json()),
        key("store_snapshot", s.store.is_some().to_json()),
        key("blobs", Json::Arr(blobs)),
        key("epochs", Codec::to_json(&s.report.epochs)),
    ]);
    Json::Obj(fields).render()
}

impl RunConfig {
    /// Renders the description alone as one JSON object under the
    /// manifest's keys (`task`, `every`, `eval_every`, `emulated_device`,
    /// `model`, `train`, `storage`, `pipeline`). A whole manifest reads back
    /// as the same description.
    pub fn to_json(&self) -> String {
        Codec::to_json(self).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_graph::datasets::ScaledDataset;
    use std::time::Duration;

    fn temp_root(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "marius-ckpt-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_dict() -> StateDict {
        let mut dict = StateDict::new();
        dict.push_f32("model.w", 2, 3, &[1.0, -2.5, 3.25, 0.0, 0.5, 9.75]);
        dict.push_u64("trainer.order", &[3, 1, 4, 1, 5]);
        dict
    }

    /// What a snapshot borrows, owned in one place: a link-prediction
    /// description over DistMult(8) with `epochs` target epochs (seed 9, in
    /// memory, sequential), a tiny dataset, two blobs and an empty report.
    struct Sample {
        config: RunConfig,
        data: ScaledDataset,
        dict: StateDict,
        report: ExperimentReport,
    }

    impl Sample {
        fn new(epochs: usize) -> Self {
            Sample {
                config: RunConfig {
                    task: "lp".into(),
                    model: ModelConfig::paper_distmult(8),
                    train: TrainConfig::quick(epochs, 9),
                    ..RunConfig::default()
                },
                data: ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.002), 7),
                dict: sample_dict(),
                report: ExperimentReport::new("t", "d"),
            }
        }

        fn snapshot(&self, epochs_completed: usize) -> CheckpointSnapshot<'_> {
            CheckpointSnapshot {
                config: &self.config,
                epochs_completed,
                rng_state: [1, 2, 3, u64::MAX],
                data: &self.data,
                stream: None,
                state: &self.dict,
                store: None,
                report: &self.report,
            }
        }
    }

    #[test]
    fn state_dict_roundtrips_through_encode_decode() {
        let dict = sample_dict();
        let (bytes, entries) = dict.encode();
        let back = StateDict::decode(&entries, &bytes).unwrap();
        assert_eq!(dict, back);
        assert_eq!(back.require_f32("model.w", 2, 3).unwrap()[5], 9.75);
        assert_eq!(
            back.require_u64("trainer.order").unwrap(),
            vec![3, 1, 4, 1, 5]
        );
    }

    #[test]
    fn decode_rejects_corruption_truncation_and_shape_lies() {
        let dict = sample_dict();
        let (mut bytes, entries) = dict.encode();
        // Flip one payload byte: checksum mismatch.
        bytes[5] ^= 0xff;
        let err = StateDict::decode(&entries, &bytes).unwrap_err();
        assert!(format!("{err}").contains("checksum"), "{err}");
        // Truncate the buffer: out-of-range blob.
        let (bytes, entries) = dict.encode();
        let err = StateDict::decode(&entries, &bytes[..bytes.len() - 1]).unwrap_err();
        assert!(format!("{err}").contains("past the end"), "{err}");
        // Lie about the shape: length/shape mismatch.
        let mut bad = entries.clone();
        bad[0].rows = 7;
        let err = StateDict::decode(&bad, &bytes).unwrap_err();
        assert!(format!("{err}").contains("shape"), "{err}");
        // A shape whose byte size overflows is a lie too, not a panic.
        (bad[0].rows, bad[0].cols, bad[0].len_bytes) = (1 << 62, 4, 0);
        let err = StateDict::decode(&bad, &bytes).unwrap_err();
        assert!(format!("{err}").contains("shape"), "{err}");
    }

    #[test]
    fn state_dict_lookup_errors_name_missing_and_dtype() {
        let dict = sample_dict();
        assert!(dict.require_f32("nope", 1, 1).is_err());
        assert!(dict.require_f32("model.w", 3, 2).is_err());
        assert!(dict.get("trainer.order").unwrap().as_f32().is_err());
        assert!(dict.get("model.w").unwrap().as_u64().is_err());
    }

    #[test]
    fn versioned_write_open_roundtrip_and_latest_pointer() {
        let root = temp_root("roundtrip");
        let mut sample = Sample::new(4);
        sample.config.train.batch_size = 64;
        sample.config.storage = Storage::Disk(DiskConfig::comet(8, 4));
        sample.config.pipeline = PipelineConfig::with_workers(2);
        sample.config.eval_every = 3;
        sample.config.checkpoint_every = 2;
        sample.report.epochs.push(EpochReport {
            epoch: 0,
            loss: 2.25,
            metric: f64::NAN,
            examples: 42,
            epoch_time: Duration::from_nanos(123_456_789),
            ..Default::default()
        });

        write_versioned(&root, &sample.snapshot(1)).unwrap();

        let ckpt = Checkpoint::open(&root).unwrap();
        // The description comes back whole, field for field.
        assert_eq!(ckpt.config, sample.config);
        assert_eq!(ckpt.epochs_completed, 1);
        assert_eq!(ckpt.rng_state, [1, 2, 3, u64::MAX]);
        assert_eq!(ckpt.dataset_spec, sample.data.spec);
        assert_eq!(ckpt.dataset_seed, 7);
        assert_eq!(ckpt.state, sample.dict);
        assert!(!ckpt.has_store_snapshot);
        assert_eq!(ckpt.prior_epochs.len(), 1);
        // Bit-exact epoch fields, including the NaN metric.
        assert_eq!(ckpt.prior_epochs[0].loss.to_bits(), 2.25f64.to_bits());
        assert!(ckpt.prior_epochs[0].metric.is_nan());
        assert_eq!(
            ckpt.prior_epochs[0].epoch_time,
            Duration::from_nanos(123_456_789)
        );

        assert!(ckpt.store_snapshot().is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn newer_versions_win_and_old_ones_are_pruned() {
        let root = temp_root("prune");
        let sample = Sample::new(4);
        for completed in 1..=3 {
            write_versioned(&root, &sample.snapshot(completed)).unwrap();
        }
        let ckpt = Checkpoint::open(&root).unwrap();
        assert_eq!(ckpt.epochs_completed, 3);
        // Newest two survive; epoch-000001 is pruned.
        assert!(root.join("epoch-000003").is_dir());
        assert!(root.join("epoch-000002").is_dir());
        assert!(!root.join("epoch-000001").exists());
        let _ = fs::remove_dir_all(&root);
    }

    /// Stages one committed fixture (the `manifest.json` + `state.bin` the
    /// commit before `RunConfig` existed wrote for a tiny run) as a checkpoint
    /// root, opens it, and checks that re-rendering what was parsed gives the
    /// fixture back byte for byte — apart from the one key no longer written.
    fn open_golden(label: &str, manifest: &str, bin: &[u8]) -> Checkpoint {
        let root = temp_root(label);
        let doc = Json::parse(manifest).unwrap();
        let version = version_name(doc.u64_field("epochs_completed").unwrap() as usize);
        let dir = root.join(&version);
        fs::create_dir_all(&dir).unwrap();
        fs::write(root.join("LATEST"), &version).unwrap();
        fs::write(dir.join("manifest.json"), manifest).unwrap();
        fs::write(dir.join("state.bin"), bin).unwrap();
        let store = doc
            .bool_field("store_snapshot")
            .unwrap()
            .then(|| PartitionStore::open(dir.join("partitions")).unwrap());
        let ckpt = Checkpoint::open(&root).unwrap();
        let report = ExperimentReport {
            epochs: ckpt.prior_epochs.clone(),
            ..Default::default()
        };
        let snapshot = CheckpointSnapshot {
            config: &ckpt.config,
            epochs_completed: ckpt.epochs_completed,
            rng_state: ckpt.rng_state,
            data: &ScaledDataset::generate(&ckpt.dataset_spec, ckpt.dataset_seed),
            stream: ckpt.stream,
            state: &ckpt.state,
            store: store.as_ref(),
            report: &report,
        };
        assert_eq!(
            manifest_json(&snapshot, &ckpt.state.encode().1),
            manifest.replace(",\"synchronous_writeback\":false", "")
        );
        let _ = fs::remove_dir_all(&root);
        ckpt
    }

    #[test]
    fn golden_manifests_of_the_previous_format_writer_stay_resumable() {
        // LP, out of core, pipelined, on an emulated device, eval cadence 2.
        let ckpt = open_golden(
            "golden-lp",
            include_str!("../tests/fixtures/golden_lp_disk/manifest.json"),
            include_bytes!("../tests/fixtures/golden_lp_disk/state.bin"),
        );
        let mut train = TrainConfig::quick(2, 11);
        (train.batch_size, train.num_negatives, train.eval_negatives) = (64, 8, 16);
        let expected = RunConfig {
            task: "lp".into(),
            model: ModelConfig::paper_distmult(4),
            train,
            storage: Storage::Disk(DiskConfig::comet(4, 2)),
            pipeline: PipelineConfig::with_workers(2),
            eval_every: 2,
            checkpoint_every: 1,
            emulated_device: Some(IoCostModel::local_nvme()),
        };
        assert_eq!(ckpt.config, expected);
        assert_eq!((ckpt.epochs_completed, ckpt.dataset_seed), (2, 5));
        assert_eq!(ckpt.rng_state[0], 0x6b62_5835_4044_4f2c);
        assert!(ckpt.has_store_snapshot && ckpt.stream.is_none());
        assert_eq!(ckpt.prior_epochs.len(), 2);
        assert!(ckpt.prior_epochs[0].metric.is_nan(), "off-cadence epoch");
        assert_eq!(ckpt.prior_epochs[1].loss.to_bits(), 0x4001_651d_5cbc_14e6);
        assert_eq!(ckpt.prior_epochs[1].throttle_wait_time.as_nanos(), 85_895);

        // NC, in memory, sequential, checkpoint cadence 2 with a final flush.
        let ckpt = open_golden(
            "golden-nc",
            include_str!("../tests/fixtures/golden_nc_memory/manifest.json"),
            include_bytes!("../tests/fixtures/golden_nc_memory/state.bin"),
        );
        let mut model = ModelConfig::paper_node_classification(4, 4);
        (model.num_layers, model.fanouts) = (1, vec![3]);
        let mut train = TrainConfig::quick(3, 13);
        train.batch_size = 16;
        let expected = RunConfig {
            task: "nc".into(),
            model,
            train,
            checkpoint_every: 2,
            ..RunConfig::default()
        };
        assert_eq!(ckpt.config, expected);
        assert_eq!((ckpt.epochs_completed, ckpt.dataset_seed), (3, 9));
        assert!(!ckpt.has_store_snapshot);
        assert!(ckpt.state.get("trainer.example_order").is_some());
        assert_eq!(ckpt.prior_epochs.len(), 3);
        assert_eq!(ckpt.prior_epochs[2].metric.to_bits(), 0x3fdc_cccc_cccc_cccd);
        assert_eq!(ckpt.prior_epochs[2].edges_sampled, 199);
    }

    /// Runs the decode [`Checkpoint::open`] runs on a version's two files,
    /// from memory.
    fn decode(manifest: &[u8], bin: &[u8]) -> Result<Checkpoint> {
        let dir = PathBuf::from("in-memory");
        let doc = read_manifest(&dir, manifest)?;
        Checkpoint::decode(dir, &doc, bin)
    }

    /// Every proper prefix of `bytes`, then every single-bit flip of it.
    fn mutants(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let cuts = (0..bytes.len()).map(|n| bytes[..n].to_vec());
        let flips = (0..bytes.len() * 8).map(|bit| {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        });
        cuts.chain(flips)
    }

    #[test]
    fn bad_golden_bytes_are_typed_errors_never_panics() {
        let goldens: [(&str, &[u8]); 2] = [
            (
                include_str!("../tests/fixtures/golden_lp_disk/manifest.json"),
                include_bytes!("../tests/fixtures/golden_lp_disk/state.bin"),
            ),
            (
                include_str!("../tests/fixtures/golden_nc_memory/manifest.json"),
                include_bytes!("../tests/fixtures/golden_nc_memory/state.bin"),
            ),
        ];
        for (manifest, bin) in goldens {
            let manifest = manifest.as_bytes();
            decode(manifest, bin).unwrap();
            // Every prefix and every single-bit flip of either file: `Ok` or
            // a `StorageError` (a panic fails the test).
            for m in mutants(manifest) {
                let _ = decode(&m, bin);
            }
            for b in mutants(bin) {
                let _ = decode(manifest, &b);
            }
            // Every cut of state.bin loses bytes some blob needs.
            assert!((0..bin.len()).all(|n| decode(manifest, &bin[..n]).is_err()));
        }
    }

    #[test]
    fn an_out_of_range_integer_is_a_typed_error_not_a_truncation() {
        let manifest = include_str!("../tests/fixtures/golden_lp_disk/manifest.json");
        let bin = include_bytes!("../tests/fixtures/golden_lp_disk/state.bin");
        // 2^32 + 16 read `as u32` would be 16.
        let wide = manifest.replace("\"num_partitions\":4", "\"num_partitions\":4294967312");
        assert_ne!(wide, manifest);
        let err = decode(wide.as_bytes(), bin).unwrap_err();
        assert!(matches!(err, StorageError::Checkpoint { .. }), "{err}");
        assert!(format!("{err}").contains("4294967312"), "{err}");
    }

    #[test]
    fn an_unknown_encoder_kind_is_a_typed_error() {
        let manifest = include_str!("../tests/fixtures/golden_nc_memory/manifest.json");
        let bin = include_bytes!("../tests/fixtures/golden_nc_memory/state.bin");
        let gcn = manifest.replace("\"encoder\":\"GraphSage\"", "\"encoder\":\"Gcn\"");
        assert_ne!(gcn, manifest);
        let err = decode(gcn.as_bytes(), bin).unwrap_err();
        assert!(matches!(err, StorageError::Checkpoint { .. }), "{err}");
        assert!(format!("{err}").contains("EncoderKind \"Gcn\""), "{err}");
    }

    #[test]
    fn latest_epoch_parses_the_pointer() {
        let dir = temp_root("latest-epoch");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest_epoch(&dir), None);
        fs::write(dir.join("LATEST"), "epoch-000042\n").unwrap();
        assert_eq!(latest_epoch(&dir), Some(42));
        fs::write(dir.join("LATEST"), "garbage").unwrap();
        assert_eq!(latest_epoch(&dir), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_config_round_trips_and_ignores_the_retired_pipeline_key() {
        let mut config = Sample::new(5).config;
        config.storage = Storage::Disk(DiskConfig::beta(8, 4));
        config.pipeline = PipelineConfig::with_workers(3);
        config.emulated_device = Some(IoCostModel::ebs_gp3());
        let json = config.to_json();
        assert!(!json.contains("synchronous_writeback"));
        assert_eq!(
            RunConfig::from_json(&Json::parse(&json).unwrap()).unwrap(),
            config
        );
        // An older manifest still carries the key, with either value.
        let older = json.replace(
            "\"writeback_depth\":2",
            "\"writeback_depth\":2,\"synchronous_writeback\":true",
        );
        assert_ne!(older, json);
        assert_eq!(
            RunConfig::from_json(&Json::parse(&older).unwrap()).unwrap(),
            config
        );
    }

    #[test]
    fn stream_state_round_trips_and_defaults_to_none() {
        let root = temp_root("stream-state");
        let mut sample = Sample::new(2);
        sample.report.epochs.push(EpochReport {
            edges_ingested: 96,
            ..Default::default()
        });
        let mut snap = sample.snapshot(1);
        // Without a stream the manifest emits null and parses back to None.
        write_versioned(&root, &snap).unwrap();
        let ckpt = Checkpoint::open(&root).unwrap();
        assert!(ckpt.stream.is_none());
        // With a stream, every cursor field round-trips bit-exactly, and the
        // per-epoch edges_ingested count survives the manifest.
        snap.stream = Some(StreamState {
            seed: 0xfeed,
            batch_size: 32,
            batches_applied: 3,
            edges_ingested: 96,
        });
        snap.epochs_completed = 2;
        write_versioned(&root, &snap).unwrap();
        let ckpt = Checkpoint::open(&root).unwrap();
        let stream = ckpt.stream.expect("stream cursor persisted");
        assert_eq!(stream.seed, 0xfeed);
        assert_eq!(stream.batch_size, 32);
        assert_eq!(stream.batches_applied, 3);
        assert_eq!(stream.edges_ingested, 96);
        assert_eq!(ckpt.prior_epochs[0].edges_ingested, 96);
        // A manifest with no "stream" field at all (pre-streaming format)
        // also parses back to None.
        let dir = ckpt.dir.clone();
        let manifest = fs::read_to_string(dir.join("manifest.json")).unwrap();
        let stripped = manifest.replace(
            "\"stream\":{\"seed\":65261,\"batch_size\":32,\"batches_applied\":3,\"edges_ingested\":96},",
            "",
        );
        assert_ne!(manifest, stripped, "stream field not found to strip");
        fs::write(dir.join("manifest.json"), stripped).unwrap();
        let ckpt = Checkpoint::open(&root).unwrap();
        assert!(ckpt.stream.is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_falls_back_to_the_newest_complete_version_when_latest_dangles() {
        let root = temp_root("dangle");
        let sample = Sample::new(4);
        for completed in 1..=2 {
            write_versioned(&root, &sample.snapshot(completed)).unwrap();
        }
        // A crash in write_versioned's rename-aside window: LATEST names a
        // version that no longer exists. Open resolves the newest complete
        // one instead of failing.
        fs::remove_dir_all(root.join("epoch-000002")).unwrap();
        assert_eq!(
            fs::read_to_string(root.join("LATEST")).unwrap(),
            "epoch-000002"
        );
        let ckpt = Checkpoint::open(&root).unwrap();
        assert_eq!(ckpt.epochs_completed, 1);
        // With nothing loadable left, the LATEST error is reported.
        fs::remove_dir_all(root.join("epoch-000001")).unwrap();
        assert!(Checkpoint::open(&root).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_of_the_named_version_fails_loudly_instead_of_rewinding() {
        let root = temp_root("no-silent-rewind");
        let sample = Sample::new(4);
        for completed in 1..=2 {
            write_versioned(&root, &sample.snapshot(completed)).unwrap();
        }
        // Bit rot in the newest version: open must NOT silently fall back to
        // epoch-000001 (that would rewind training progress unnoticed).
        let bin_path = root.join("epoch-000002/state.bin");
        let mut bin = fs::read(&bin_path).unwrap();
        bin[0] ^= 0xff;
        fs::write(&bin_path, bin).unwrap();
        let err = Checkpoint::open(&root).unwrap_err();
        assert!(format!("{err}").contains("checksum"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn re_checkpointing_the_same_epoch_replaces_the_version() {
        // A run restarted from scratch over an old checkpoint directory
        // rewrites the same version name; the newer bytes win and the old
        // version is never deleted while LATEST still names it (it is
        // renamed aside and dropped after the swap).
        let root = temp_root("replace");
        let sample = Sample::new(2);
        let mut snap = sample.snapshot(1);
        write_versioned(&root, &snap).unwrap();
        snap.rng_state = [9, 9, 9, 9];
        write_versioned(&root, &snap).unwrap();
        let ckpt = Checkpoint::open(&root).unwrap();
        assert_eq!(ckpt.rng_state, [9, 9, 9, 9]);
        assert!(!root.join("epoch-000001.old.tmp").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_staging_dirs_are_invisible_to_open() {
        let root = temp_root("torn");
        let sample = Sample::new(4);
        write_versioned(&root, &sample.snapshot(2)).unwrap();
        // Simulate a crash mid-write of the *next* version: a partial staging
        // dir with a truncated manifest. LATEST still names epoch-000002.
        let staging = root.join("epoch-000003.tmp");
        fs::create_dir_all(&staging).unwrap();
        fs::write(staging.join("manifest.json"), "{\"format\":\"marius-ch").unwrap();
        let ckpt = Checkpoint::open(&root).unwrap();
        assert_eq!(ckpt.epochs_completed, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_rejects_missing_roots_and_truncated_manifests() {
        let root = temp_root("reject");
        let err = Checkpoint::open(&root).unwrap_err();
        assert!(format!("{err}").contains("no checkpoint"), "{err}");
        // A LATEST pointing at a version whose manifest is truncated.
        fs::create_dir_all(root.join("epoch-000001")).unwrap();
        fs::write(root.join("LATEST"), "epoch-000001").unwrap();
        fs::write(root.join("epoch-000001/manifest.json"), "{\"format\":").unwrap();
        let err = Checkpoint::open(&root).unwrap_err();
        assert!(format!("{err}").contains("invalid"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn embedding_table_persists_values_and_optimizer_state() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut table = EmbeddingTable::new(6, 4, 0.1, &mut rng);
        table.apply_sparse_update(&[2], &marius_tensor::Tensor::ones(1, 4));
        let mut dict = StateDict::new();
        table.save_state(&mut dict);
        let mut fresh = EmbeddingTable::new(6, 4, 0.1, &mut rng);
        fresh.load_state(&dict).unwrap();
        assert_eq!(fresh.raw_values(), table.raw_values());
        assert_eq!(fresh.raw_state(), table.raw_state());
        // Dimension mismatch is rejected.
        let mut wrong = EmbeddingTable::new(6, 3, 0.1, &mut rng);
        assert!(wrong.load_state(&dict).is_err());
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

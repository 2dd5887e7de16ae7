//! On-disk partition and edge-bucket files.
//!
//! The authoritative copy of the graph during out-of-core training lives on disk:
//! one file per node partition (embedding rows plus Adagrad state, stored
//! contiguously) and one file per edge bucket `(i, j)` (fixed-width binary edge
//! records). Files are plain little-endian buffers so reads and writes are single
//! sequential transfers — the access pattern whose size §6 reasons about when it
//! bounds the number of physical partitions.

use crate::env::IoEnv;
use crate::fault::FaultInjector;
use crate::io_model::IoCostModel;
use crate::retry;
use crate::{Result, StorageError};
use marius_graph::{Edge, PartitionId};
use marius_telemetry::{Counter, Telemetry};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Extension of the temporary siblings every atomic placement goes through.
/// Readers (and [`PartitionStore::snapshot_to`] / [`PartitionStore::restore_from`])
/// skip files carrying it: a `.tmp` sibling is by definition an incomplete
/// write that a crash may have abandoned.
const TMP_EXTENSION: &str = "tmp";

/// The temporary sibling a file is staged at before its atomic rename.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".");
    name.push(TMP_EXTENSION);
    path.with_file_name(name)
}

/// `true` for paths staged by [`atomic_place`] but never renamed (torn writes
/// abandoned by a crash).
fn is_tmp(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some(TMP_EXTENSION)
}

/// Places a file at `dst` atomically: `fill` produces the complete content at
/// a temporary sibling path, which is then renamed over `dst`. Readers observe
/// either the old file or the new one, never a torn intermediate — the shared
/// idiom behind [`PartitionStore::write_partition`], bucket writes, and the
/// checkpoint snapshot path. A failed placement removes its temporary
/// sibling, so only a crash leaves `.tmp` litter behind.
fn atomic_place<F>(dst: &Path, fill: F) -> std::io::Result<()>
where
    F: FnOnce(&Path) -> std::io::Result<()>,
{
    let tmp = tmp_sibling(dst);
    let placed = fill(&tmp).and_then(|()| fs::rename(&tmp, dst));
    if placed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    placed
}

/// Atomically writes `bytes` to `path` (temp-file + rename). A reader — or a
/// process resuming after a crash — observes either the previous content or
/// the full new content, never a prefix. Shared by partition/bucket writes and
/// by the checkpoint layer (manifests and `LATEST` pointers).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_place(path, |tmp| {
        let mut file = fs::File::create(tmp)?;
        file.write_all(bytes)
    })
}

/// Fingerprint of a value block's exact bit patterns, used by read-side
/// verification: a reader that remembers the digest of a block it handed out
/// can later detect an in-memory corruption of its cached copy and fall back
/// to re-reading the file. It is recomputed on every cache hit, so it folds
/// whole 32-bit words into four independent FNV-style lanes (value `i` goes to
/// lane `i % 4`) instead of walking bytes through one serial multiply chain.
///
/// Each lane step `h ← (h ^ word) · PRIME` is a bijection of `h` for a fixed
/// word and of the word for a fixed `h` (the prime is odd), and the final fold
/// of the lanes is a bijection of each lane, so **any single-bit change of any
/// value changes the digest**; the length is folded in last. Deterministic
/// across runs and platforms, but an in-memory check only — never persisted.
pub fn partition_digest(values: &[f32]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
    let mut fold = |quad: &[f32]| {
        for (lane, v) in lanes.iter_mut().zip(quad) {
            *lane = (*lane ^ u64::from(v.to_bits())).wrapping_mul(PRIME);
        }
    };
    let mut quads = values.chunks_exact(4);
    (&mut quads).for_each(&mut fold);
    fold(quads.remainder());
    lanes.iter().fold(values.len() as u64, |h, &lane| {
        (h ^ lane).wrapping_mul(PRIME)
    })
}

/// Splits a node-partition file's bytes into its header's value count and
/// the body behind the header. A file shorter than the header is a typed
/// error, never a panic.
fn partition_header(id: PartitionId, bytes: &[u8]) -> Result<(u64, &[u8])> {
    match bytes.split_first_chunk::<8>() {
        Some((header, body)) => Ok((u64::from_le_bytes(*header), body)),
        None => Err(StorageError::NotResident {
            reason: format!("partition {id} file is truncated"),
        }),
    }
}

/// Splits a partition body into the bytes of its `value_len` values and
/// whatever follows them (the optimizer state). A header that claims more
/// values than the body holds is a typed error.
fn split_values(id: PartitionId, body: &[u8], value_len: u64) -> Result<(&[u8], &[u8])> {
    usize::try_from(value_len)
        .ok()
        .and_then(|n| n.checked_mul(4))
        .and_then(|bytes| body.split_at_checked(bytes))
        .ok_or_else(|| StorageError::NotResident {
            reason: format!("partition {id} file is shorter than its header claims"),
        })
}

/// Decodes little-endian `f32`s; trailing bytes short of a word are ignored.
fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Encodes edges as the fixed-width records of bucket and delta files:
/// `src: u64 LE, dst: u64 LE, rel: u32 LE`, [`Edge::DISK_BYTES`] per edge.
pub fn encode_edges(edges: &[Edge]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(edges.len() * Edge::DISK_BYTES);
    for e in edges {
        buf.extend_from_slice(&e.src.to_le_bytes());
        buf.extend_from_slice(&e.dst.to_le_bytes());
        buf.extend_from_slice(&e.rel.to_le_bytes());
    }
    buf
}

/// Decodes [`encode_edges`] records. A length that is not a whole number of
/// records is an [`std::io::ErrorKind::InvalidData`] error: a torn file
/// fails loudly instead of loading the edges before the cut.
pub fn decode_edges(bytes: &[u8]) -> Result<Vec<Edge>> {
    Ok(edge_records(bytes)?
        .iter()
        .map(|rec| {
            let src = u64::from_le_bytes(std::array::from_fn(|i| rec[i]));
            let dst = u64::from_le_bytes(std::array::from_fn(|i| rec[8 + i]));
            let rel = u32::from_le_bytes(std::array::from_fn(|i| rec[16 + i]));
            Edge::with_rel(src, rel, dst)
        })
        .collect())
}

/// The whole [`Edge::DISK_BYTES`] records of an edge file's bytes; a torn
/// tail is the [`decode_edges`] error.
fn edge_records(bytes: &[u8]) -> Result<&[[u8; Edge::DISK_BYTES]]> {
    let (records, torn) = bytes.as_chunks::<{ Edge::DISK_BYTES }>();
    if !torn.is_empty() {
        return Err(StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "edge file length {} is not a multiple of the {}-byte edge record",
                bytes.len(),
                Edge::DISK_BYTES
            ),
        )));
    }
    Ok(records)
}

/// Atomically materialises `src`'s bytes at `dst`: hard-links when the two
/// paths share a filesystem (snapshots of multi-gigabyte partition files cost
/// one directory entry), falling back to a full copy. Because every mutation
/// of a store file goes through a rename, a hard-linked snapshot keeps the old
/// inode when the store later rewrites the partition — links never alias
/// future writes.
fn atomic_link_or_copy(src: &Path, dst: &Path) -> std::io::Result<()> {
    atomic_place(dst, |tmp| {
        let _ = fs::remove_file(tmp);
        if fs::hard_link(src, tmp).is_ok() {
            return Ok(());
        }
        fs::copy(src, tmp).map(|_| ())
    })
}

/// The IO a [`PartitionStore`] has performed since it was opened. The
/// counts are monotonic; a window's figures are the difference of two
/// snapshots ([`IoStats::since`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Total bytes read from disk.
    pub bytes_read: u64,
    /// Total bytes written to disk.
    pub bytes_written: u64,
    /// Number of read operations.
    pub reads: u64,
    /// Number of write operations.
    pub writes: u64,
    /// Number of transparently retried operations (transient faults absorbed
    /// by the store's [`crate::RetryPolicy`] without surfacing to callers).
    pub io_retries: u64,
    /// Number of faults the store's [`crate::fault::FaultInjector`], if any,
    /// injected into this store's own operations (0 on real devices).
    pub faults_injected: u64,
    /// Total time operations spent blocked on the emulated device's
    /// reservation queue ([`PartitionStore::with_emulated_device`]); zero on
    /// real devices, where the OS hides queueing from the process.
    pub throttle_wait: Duration,
    /// Total device time the emulated device charged for this store's ops,
    /// `transfer_time(bytes, 1)` per op; zero without an emulated device.
    pub device_time: Duration,
}

impl IoStats {
    /// The IO performed between the snapshot `earlier` and this one.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            io_retries: self.io_retries.saturating_sub(earlier.io_retries),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            throttle_wait: self.throttle_wait.saturating_sub(earlier.throttle_wait),
            device_time: self.device_time.saturating_sub(earlier.device_time),
        }
    }
}

/// A store's IO counts: its `storage.*` counters, registered in the
/// recorder of its [`IoEnv`] and counting whether that recorder is enabled
/// or not. Clones of a store share them.
#[derive(Debug, Clone)]
struct IoCounters {
    reads: Counter,
    writes: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    io_retries: Counter,
    faults_injected: Counter,
    throttle_wait_ns: Counter,
    device_ns: Counter,
}

impl IoCounters {
    fn register(telemetry: &Telemetry) -> Self {
        IoCounters {
            reads: telemetry.counter("storage.reads"),
            writes: telemetry.counter("storage.writes"),
            bytes_read: telemetry.counter("storage.bytes_read"),
            bytes_written: telemetry.counter("storage.bytes_written"),
            io_retries: telemetry.counter("storage.io_retries"),
            faults_injected: telemetry.counter("storage.faults_injected"),
            throttle_wait_ns: telemetry.counter("storage.throttle_wait_ns"),
            device_ns: telemetry.counter("storage.device_ns"),
        }
    }

    fn record_read(&self, bytes: u64) {
        self.reads.incr();
        self.bytes_read.add(bytes);
    }

    fn record_write(&self, bytes: u64) {
        self.writes.incr();
        self.bytes_written.add(bytes);
    }
}

/// A single-queue emulated block device shared by every clone of a store:
/// each op reserves `transfer_time(bytes, 1)` of exclusive device time, so
/// concurrent readers (e.g. the pipeline's prefetcher threads) contend for
/// one volume's bandwidth instead of multiplying it.
#[derive(Debug)]
struct DeviceGate {
    model: IoCostModel,
    /// When the emulated device next becomes idle.
    next_free: Mutex<Instant>,
}

impl DeviceGate {
    fn new(model: IoCostModel) -> Self {
        DeviceGate {
            model,
            next_free: Mutex::new(Instant::now()),
        }
    }

    /// Reserves device time for one op of `bytes` and sleeps until the
    /// reservation has elapsed. Returns the device time charged and the time
    /// actually slept — the reservation wait that was invisible before
    /// throttle-wait accounting.
    fn charge(&self, bytes: u64) -> (Duration, Duration) {
        let cost = self.model.transfer_time(bytes, 1);
        let finish = {
            // Recover rather than cascade if a peer thread panicked while
            // holding the gate: the state is a single Instant, never torn.
            let mut next_free = self
                .next_free
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let start = (*next_free).max(Instant::now());
            *next_free = start + cost;
            *next_free
        };
        let wait = finish.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        (cost, wait)
    }
}

/// A directory of node-partition and edge-bucket files with instrumented IO.
///
/// Local filesystems (and the page cache) are far faster than the cloud block
/// volume the paper evaluates against, so the store can optionally *emulate* a
/// device: with [`PartitionStore::with_emulated_device`], every read and write
/// reserves the time the [`IoCostModel`] charges for its bytes on a single
/// shared device queue (clones share the queue, so concurrent threads contend
/// for one volume's bandwidth). The out-of-core benchmarks use this to
/// reproduce the paper's IO regime, where a prefetching pipeline has real
/// latency to hide.
///
/// A store carries the [`IoEnv`] it was opened under
/// ([`PartitionStore::env`]): its fault injector and retry policy apply to
/// every operation. The store counts its IO once, into the `storage.*`
/// counters it registers in the env's recorder (`storage.reads`,
/// `storage.writes`, `storage.bytes_read`, `storage.bytes_written`,
/// `storage.io_retries`, `storage.faults_injected`,
/// `storage.throttle_wait_ns`, `storage.device_ns`);
/// [`PartitionStore::io_stats`] reads the same
/// counts, monotonic since open. [`PartitionStore::open`] opens under the
/// default environment; [`IoEnv::open_store`] under any other.
#[derive(Debug, Clone)]
pub struct PartitionStore {
    root: PathBuf,
    counters: IoCounters,
    /// When set, reads/writes are slowed to this shared device emulation.
    throttle: Option<Arc<DeviceGate>>,
    /// Fault injector, retry policy and recorder, fixed at open.
    env: IoEnv,
}

impl PartitionStore {
    /// Opens (creating if necessary) a partition store rooted at `root`
    /// under the default [`IoEnv`]: no fault injection, the default
    /// transient retry policy, no telemetry.
    ///
    /// Stale `*.tmp` staging files left behind by an interrupted atomic
    /// write (a crash, or an injected torn write) are swept on open: they
    /// are torn by definition and no reader ever observes them, but leaving
    /// them around leaks disk and confuses directory listings.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        Self::open_under(root, IoEnv::default())
    }

    /// [`PartitionStore::open`] under `env`; [`IoEnv::open_store`] is its
    /// public face.
    pub(crate) fn open_under(root: impl AsRef<Path>, env: IoEnv) -> Result<Self> {
        fs::create_dir_all(root.as_ref())?;
        for entry in fs::read_dir(root.as_ref())? {
            let path = entry?.path();
            if path.is_file() && is_tmp(&path) {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(PartitionStore {
            root: root.as_ref().to_path_buf(),
            counters: IoCounters::register(&env.telemetry),
            throttle: None,
            env,
        })
    }

    /// The IO environment this store was opened under; layers built over
    /// the store (the buffer, the pipeline, the stream ingestor) record into
    /// its recorder.
    pub fn env(&self) -> &IoEnv {
        &self.env
    }

    /// Emulates a block device: every subsequent read/write op (from this
    /// store and all clones of it) reserves `model.transfer_time(bytes, 1)`
    /// of exclusive device time on a shared queue and sleeps it out. Used by
    /// benchmark harnesses to measure pipelining against the paper's
    /// EBS-like volume instead of the local page cache.
    pub fn with_emulated_device(mut self, model: IoCostModel) -> Self {
        self.throttle = Some(Arc::new(DeviceGate::new(model)));
        self
    }

    /// Runs `op` under the store's retry policy, classifying errors through
    /// [`StorageError::is_transient`]; each retry counts into
    /// `storage.io_retries`.
    fn retrying<T>(&self, key: &str, op: impl FnMut() -> Result<T>) -> Result<T> {
        retry::with_retry(
            &self.env.retry,
            self.env.retry.op_seed(key),
            self.counters.io_retries.cell(),
            op,
        )
    }

    /// Checks one operation against the fault schedule, if the store has
    /// one, and counts the fault it injects.
    fn check_fault(&self, check: impl FnOnce(&FaultInjector) -> Result<()>) -> Result<()> {
        match &self.env.faults {
            Some(f) => check(f).inspect_err(|_| self.counters.faults_injected.incr()),
            None => Ok(()),
        }
    }

    /// Atomically places `bytes` at `path` with the store's fault injection
    /// and retry applied; `key` is the stable operation key for the
    /// fault/jitter schedules. Charges no IO byte counters: partition and
    /// bucket writes charge their own, and the checkpoint writer relies on it
    /// so durability traffic does not skew the per-epoch IO accounting
    /// (retries still count into `io_retries`).
    pub fn place_file(&self, key: &str, path: &Path, bytes: &[u8]) -> Result<()> {
        self.retrying(key, || {
            // An injected torn write leaves a prefix of `bytes` at the
            // staging sibling: the litter a crash mid-write would leave.
            self.check_fault(|f| {
                f.check_write(key, |frac| {
                    let torn = ((bytes.len() as f64) * frac) as usize;
                    let _ = fs::write(tmp_sibling(path), &bytes[..torn.min(bytes.len())]);
                })
            })?;
            atomic_write(path, bytes).map_err(StorageError::from)
        })
    }

    /// Charges one op of `bytes` against the emulated device, if any, and
    /// accounts the device time charged and the reservation wait.
    fn throttle_op(&self, bytes: u64) {
        if let Some(gate) = &self.throttle {
            let (charged, waited) = gate.charge(bytes);
            self.counters.device_ns.add_duration(charged);
            self.counters.throttle_wait_ns.add_duration(waited);
        }
    }

    /// Opens a store in a fresh unique subdirectory of the system temp dir.
    /// Useful for tests and examples.
    pub fn open_temp(label: &str) -> Result<Self> {
        Self::open(Self::temp_path(label))
    }

    /// The directory [`PartitionStore::open_temp`] uses for `label`: unique
    /// per process and thread under the system temp dir.
    pub fn temp_path(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "marius-store-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    /// The root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the store's IO counts since it was opened (shared by
    /// its clones).
    pub fn io_stats(&self) -> IoStats {
        let c = &self.counters;
        IoStats {
            bytes_read: c.bytes_read.get(),
            bytes_written: c.bytes_written.get(),
            reads: c.reads.get(),
            writes: c.writes.get(),
            io_retries: c.io_retries.get(),
            faults_injected: c.faults_injected.get(),
            throttle_wait: Duration::from_nanos(c.throttle_wait_ns.get()),
            device_time: Duration::from_nanos(c.device_ns.get()),
        }
    }

    pub(crate) fn partition_path(&self, id: PartitionId) -> PathBuf {
        self.root.join(format!("node_partition_{id}.bin"))
    }

    fn bucket_path(&self, src: PartitionId, dst: PartitionId) -> PathBuf {
        self.root.join(format!("edge_bucket_{src}_{dst}.bin"))
    }

    /// Writes a node partition: `values` and `state` are the embedding rows and
    /// optimizer state, stored back to back.
    ///
    /// The file layout is a little-endian `u64` header holding `values.len()`,
    /// then the values as little-endian `f32` words, then the state words —
    /// as many as there are values, so a whole file is exactly
    /// `8 + 2 × 4 × values.len()` bytes. [`PartitionStore::read_partition`]
    /// accepts only that length; [`PartitionStore::read_partition_expect`]
    /// reads the header and the value words alone.
    ///
    /// The write is atomic with respect to concurrent readers: bytes land in a
    /// per-partition temporary file that is renamed over the real path only
    /// once complete, so a reader (e.g. the pipeline's prefetcher racing an
    /// aborted write-back drain) observes either the old or the new contents,
    /// never a torn file.
    pub fn write_partition(&self, id: PartitionId, values: &[f32], state: &[f32]) -> Result<()> {
        let mut buf = Vec::with_capacity(8 + (values.len() + state.len()) * 4);
        buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for s in state {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        self.place_file(&format!("partition/{id}"), &self.partition_path(id), &buf)?;
        self.counters.record_write(buf.len() as u64);
        self.throttle_op(buf.len() as u64);
        Ok(())
    }

    /// Reads a node partition back as `(values, state)`. A file that is not
    /// exactly the layout [`PartitionStore::write_partition`] writes — cut
    /// anywhere, or extended — is a typed [`StorageError::NotResident`].
    pub fn read_partition(&self, id: PartitionId) -> Result<(Vec<f32>, Vec<f32>)> {
        let key = format!("partition/{id}");
        self.retrying(&key, || {
            self.check_fault(|f| f.check_read(&key))?;
            self.read_partition_once(id)
        })
    }

    /// Reads a node partition's **value block only** and structurally
    /// verifies it against the caller's expectation — the read-side twin of
    /// the write path's length header. Only the header and the value bytes
    /// are transferred; the optimizer-state half of the file is never read.
    /// A truncated, swapped, or stale snapshot file surfaces as a typed
    /// [`StorageError`] instead of silently serving wrong embeddings.
    /// Transient faults retry exactly like [`PartitionStore::read_partition`];
    /// a shape mismatch is permanent and never retries.
    pub fn read_partition_expect(
        &self,
        id: PartitionId,
        expected_rows: usize,
        dim: usize,
    ) -> Result<Vec<f32>> {
        let key = format!("partition/{id}");
        self.retrying(&key, || {
            self.check_fault(|f| f.check_read(&key))?;
            self.read_values_once(id, expected_rows, dim)
        })
    }

    fn open_partition(&self, id: PartitionId) -> Result<fs::File> {
        let path = self.partition_path(id);
        fs::File::open(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StorageError::NotResident {
                    reason: format!("node partition {id} has no file at {}", path.display()),
                }
            } else {
                StorageError::Io(e)
            }
        })
    }

    /// One read attempt of a node partition (no fault check, no retry).
    fn read_partition_once(&self, id: PartitionId) -> Result<(Vec<f32>, Vec<f32>)> {
        let mut buf = Vec::new();
        self.open_partition(id)?.read_to_end(&mut buf)?;
        self.counters.record_read(buf.len() as u64);
        self.throttle_op(buf.len() as u64);
        let (value_len, body) = partition_header(id, &buf)?;
        let (values, state) = split_values(id, body, value_len)?;
        if state.len() != values.len() {
            return Err(StorageError::NotResident {
                reason: format!(
                    "partition {id} file holds {} optimizer-state bytes behind {} value bytes, \
                     not as many",
                    state.len(),
                    values.len()
                ),
            });
        }
        Ok((decode_f32s(values), decode_f32s(state)))
    }

    /// One read attempt of a partition's header and value bytes (no fault
    /// check, no retry): at most `8 + expected_rows × dim × 4` bytes leave
    /// the device, whatever the file holds behind them.
    fn read_values_once(
        &self,
        id: PartitionId,
        expected_rows: usize,
        dim: usize,
    ) -> Result<Vec<f32>> {
        // An expectation whose byte size overflows cannot describe any file.
        let sized = expected_rows
            .checked_mul(dim)
            .and_then(|values| Some((values, values.checked_mul(4)?.checked_add(8)?)));
        let Some((expected_values, wanted_bytes)) = sized else {
            return Err(StorageError::checkpoint(format!(
                "partition {id}: an expectation of {expected_rows} rows × {dim} is not addressable"
            )));
        };
        let mut buf = Vec::with_capacity(wanted_bytes);
        self.open_partition(id)?
            .take(wanted_bytes as u64)
            .read_to_end(&mut buf)?;
        self.counters.record_read(buf.len() as u64);
        self.throttle_op(buf.len() as u64);
        let (value_len, body) = partition_header(id, &buf)?;
        if value_len != expected_values as u64 {
            return Err(StorageError::checkpoint(format!(
                "partition {id} holds {value_len} values but the replayed assignment expects \
                 {expected_rows} rows × {dim}"
            )));
        }
        let (values, _) = split_values(id, body, value_len)?;
        Ok(decode_f32s(values))
    }

    /// Writes an edge bucket as fixed-width records.
    pub fn write_bucket(&self, src: PartitionId, dst: PartitionId, edges: &[Edge]) -> Result<()> {
        self.place_bucket(src, dst, &encode_edges(edges))
    }

    /// Appends `edges` to bucket `(src, dst)`: reads the file's records (a
    /// missing file is an empty bucket) without decoding them, extends them
    /// and places the whole file again as [`PartitionStore::write_bucket`]
    /// does. A torn file is rejected, as a read rejects it, and nothing is
    /// written.
    pub fn append_bucket(&self, src: PartitionId, dst: PartitionId, edges: &[Edge]) -> Result<()> {
        let mut bytes = self.read_bucket_bytes(src, dst)?;
        edge_records(&bytes)?;
        bytes.extend_from_slice(&encode_edges(edges));
        self.place_bucket(src, dst, &bytes)
    }

    /// Atomically places an encoded bucket file and counts its write.
    fn place_bucket(&self, src: PartitionId, dst: PartitionId, bytes: &[u8]) -> Result<()> {
        let key = format!("bucket/{src}_{dst}");
        self.place_file(&key, &self.bucket_path(src, dst), bytes)?;
        self.counters.record_write(bytes.len() as u64);
        self.throttle_op(bytes.len() as u64);
        Ok(())
    }

    /// The number of edges in bucket `(src, dst)`, from its file length
    /// alone: nothing is read or counted. A missing file is an empty bucket;
    /// a torn file counts its whole records, and reading it rejects it.
    pub fn bucket_len(&self, src: PartitionId, dst: PartitionId) -> Result<usize> {
        match fs::metadata(self.bucket_path(src, dst)) {
            Ok(meta) => {
                Ok(usize::try_from(meta.len() / Edge::DISK_BYTES as u64).unwrap_or(usize::MAX))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(StorageError::Io(e)),
        }
    }

    /// Reads an edge bucket. A missing file is treated as an empty bucket (empty
    /// buckets are common and not all of them are materialised).
    pub(crate) fn read_bucket(&self, src: PartitionId, dst: PartitionId) -> Result<Vec<Edge>> {
        decode_edges(&self.read_bucket_bytes(src, dst)?)
    }

    /// A bucket file's bytes, read with the store's fault injection and
    /// retry; a missing file reads as no bytes.
    fn read_bucket_bytes(&self, src: PartitionId, dst: PartitionId) -> Result<Vec<u8>> {
        let key = format!("bucket/{src}_{dst}");
        self.retrying(&key, || {
            self.check_fault(|f| f.check_read(&key))?;
            let buf = match fs::read(self.bucket_path(src, dst)) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
                Err(e) => return Err(StorageError::Io(e)),
            };
            self.counters.record_read(buf.len().max(1) as u64);
            self.throttle_op(buf.len().max(1) as u64);
            Ok(buf)
        })
    }

    /// Snapshots every completed store file (node partitions and edge
    /// buckets) into the directory `dst`, as a temp-dir + rename: the files
    /// are hard-linked (or copied) into `dst.tmp`, which is renamed to `dst`
    /// only once complete. A crash mid-snapshot leaves at most an abandoned
    /// `.tmp` directory — `dst` either does not exist or is a complete,
    /// immutable snapshot. In-flight `.tmp` siblings inside the store are
    /// skipped (they are torn by definition).
    ///
    /// The caller must only invoke this at a write-back safe point: with no
    /// synchronous writer mid-epoch and, on pipelined runs, after the
    /// write-back ledger has drained (`PartitionBuffer::flush` establishes
    /// both — see `marius_storage::pipeline::writeback_safe_point`). Snapshots taken
    /// there capture exactly the epoch-boundary state of every partition.
    pub fn snapshot_to(&self, dst: impl AsRef<Path>) -> Result<()> {
        let dst = dst.as_ref();
        let staging = tmp_sibling(dst);
        if staging.exists() {
            fs::remove_dir_all(&staging)?;
        }
        fs::create_dir_all(&staging)?;
        self.link_files(&self.root, &staging, "snapshot")?;
        if dst.exists() {
            fs::remove_dir_all(dst)?;
        }
        fs::rename(&staging, dst)?;
        Ok(())
    }

    /// Restores every file of a [`PartitionStore::snapshot_to`] snapshot into
    /// the store's root, one atomic per-file rename at a time (a concurrent
    /// reader sees each file either pre- or post-restore, never torn).
    /// Abandoned `.tmp` files inside the snapshot are ignored. Files already
    /// in the store but absent from the snapshot are left untouched.
    pub fn restore_from(&self, src: impl AsRef<Path>) -> Result<()> {
        let src = src.as_ref();
        if !src.is_dir() {
            return Err(StorageError::checkpoint(format!(
                "partition snapshot {} does not exist",
                src.display()
            )));
        }
        fs::create_dir_all(&self.root)?;
        self.link_files(src, &self.root, "restore")
    }

    /// Links (or copies) every completed, non-`.tmp` file of `from` into
    /// `to`, one atomic placement per file, faulted and retried under the
    /// operation key `{key_prefix}/{file name}`. The snapshot and restore
    /// walks.
    fn link_files(&self, from: &Path, to: &Path, key_prefix: &str) -> Result<()> {
        for entry in fs::read_dir(from)? {
            let path = entry?.path();
            if !path.is_file() || is_tmp(&path) {
                continue;
            }
            let Some(name) = path.file_name() else {
                continue;
            };
            let key = format!("{key_prefix}/{}", name.to_string_lossy());
            let target = to.join(name);
            // Each placement stages inside `to`, so a failing attempt tears
            // nothing a reader of `from` (or a finished snapshot) observes.
            self.retrying(&key, || {
                self.check_fault(|f| f.check_write(&key, |_| {}))?;
                atomic_link_or_copy(&path, &target).map_err(StorageError::from)
            })?;
        }
        Ok(())
    }

    /// Deletes every file in the store (used by tests and example cleanup).
    pub fn clear(&self) -> Result<()> {
        if self.root.exists() {
            for entry in fs::read_dir(&self.root)? {
                let entry = entry?;
                if entry.path().is_file() {
                    fs::remove_file(entry.path())?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(label: &str) -> PartitionStore {
        faulty_store(label, None)
    }

    /// A cleared temp store opened under an env carrying `plan`'s injector.
    fn faulty_store(label: &str, plan: Option<crate::fault::IoFaultPlan>) -> PartitionStore {
        let env = IoEnv {
            faults: plan.map(|p| p.build()),
            ..IoEnv::default()
        };
        let store = env.open_store(PartitionStore::temp_path(label)).unwrap();
        store.clear().unwrap();
        store
    }

    #[test]
    fn partition_roundtrip() {
        let store = temp_store("part-roundtrip");
        let values = vec![1.0f32, -2.5, 3.25, 0.0];
        let state = vec![0.5f32, 0.5, 0.5, 0.5];
        store.write_partition(3, &values, &state).unwrap();
        let (v, s) = store.read_partition(3).unwrap();
        assert_eq!(v, values);
        assert_eq!(s, state);
    }

    #[test]
    fn read_expect_verifies_the_value_block_shape() {
        let store = temp_store("read-expect");
        store
            .write_partition(0, &[1.0f32, 2.0, 3.0, 4.0], &[0.5; 4])
            .unwrap();
        assert_eq!(
            store.read_partition_expect(0, 2, 2).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
        for (rows, dim) in [(5, 2), (1, 2), (usize::MAX, 2)] {
            let err = store.read_partition_expect(0, rows, dim).unwrap_err();
            assert!(format!("{err}").contains(&format!("{rows} rows")), "{err}");
            assert!(matches!(err, StorageError::Checkpoint { .. }), "{err}");
            assert!(!err.is_transient());
        }
    }

    #[test]
    fn read_expect_never_reads_the_optimizer_state() {
        let store = temp_store("read-expect-bytes");
        store.write_partition(0, &[1.0; 64], &[0.0; 64]).unwrap();
        let before = store.io_stats();
        store.read_partition_expect(0, 8, 8).unwrap();
        assert_eq!(store.io_stats().since(&before).bytes_read, 8 + 64 * 4);
    }

    /// Every prefix of a valid partition file — including cuts inside the
    /// header, inside a value word and inside the state block — is either a
    /// verified value or a typed error from both readers, never a panic.
    #[test]
    fn truncated_partition_files_are_typed_errors() {
        let store = temp_store("truncations");
        let values: Vec<f32> = (0..6).map(|i| i as f32 - 2.5).collect();
        store.write_partition(0, &values, &[0.25; 6]).unwrap();
        let path = store.partition_path(0);
        let whole = fs::read(&path).unwrap();
        let values_end = 8 + values.len() * 4;
        for cut in 0..=whole.len() {
            fs::write(&path, &whole[..cut]).unwrap();
            match store.read_partition_expect(0, 3, 2) {
                Ok(v) => {
                    assert!(cut >= values_end, "cut {cut} served a short block");
                    assert_eq!(v, values);
                }
                Err(e) => {
                    assert!(cut < values_end, "cut {cut} refused a whole block: {e}");
                    assert!(matches!(e, StorageError::NotResident { .. }), "{e}");
                }
            }
            match store.read_partition(0) {
                Ok((v, s)) => {
                    assert_eq!(cut, whole.len(), "cut {cut} served a short file");
                    assert_eq!(v, values);
                    assert_eq!(s, [0.25; 6]);
                }
                Err(e) => {
                    assert!(cut < whole.len(), "refused the whole file: {e}");
                    assert!(matches!(e, StorageError::NotResident { .. }), "{e}");
                }
            }
        }
        // A file extended by less than a word (or by one) is not the layout
        // either; the value-only reader never looks past the values.
        for extra in 1..=4 {
            let mut longer = whole.clone();
            longer.extend(std::iter::repeat_n(0u8, extra));
            fs::write(&path, &longer).unwrap();
            let err = store.read_partition(0).unwrap_err();
            assert!(matches!(err, StorageError::NotResident { .. }), "{err}");
            assert_eq!(store.read_partition_expect(0, 3, 2).unwrap(), values);
        }
        // A header that claims more values than any file could hold.
        let mut lying = whole.clone();
        lying[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &lying).unwrap();
        let err = store.read_partition(0).unwrap_err();
        assert!(matches!(err, StorageError::NotResident { .. }), "{err}");
        let err = store.read_partition_expect(0, 3, 2).unwrap_err();
        assert!(matches!(err, StorageError::Checkpoint { .. }), "{err}");
    }

    #[test]
    fn partition_digest_tracks_exact_bits() {
        let a = partition_digest(&[1.0f32, -2.5, 0.0]);
        let b = partition_digest(&[1.0f32, -2.5, 0.0]);
        assert_eq!(a, b);
        // 0.0 and -0.0 compare equal but differ in bits: the digest sees it.
        assert_ne!(a, partition_digest(&[1.0f32, -2.5, -0.0]));
        assert_ne!(a, partition_digest(&[1.0f32, -2.5]));
    }

    /// The digest's contract with the read cache: flipping any one bit of
    /// any value changes it, and so does extending the block (with zeros,
    /// the weakest extension, or with a copy of its own prefix).
    #[test]
    fn partition_digest_sees_every_bit_flip_and_length_extension() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for len in [1usize, 3, 4, 5, 8, 37] {
            let block: Vec<f32> = (0..len).map(|_| f32::from_bits(rng.gen())).collect();
            let clean = partition_digest(&block);
            for i in 0..len {
                for bit in 0..32 {
                    let mut flipped = block.clone();
                    flipped[i] = f32::from_bits(flipped[i].to_bits() ^ (1 << bit));
                    assert_ne!(partition_digest(&flipped), clean, "value {i} bit {bit}");
                }
            }
            for extra in 1..=9 {
                let mut zeros = block.clone();
                zeros.resize(len + extra, 0.0);
                assert_ne!(partition_digest(&zeros), clean, "{extra} zeros appended");
                let mut echoed = block.clone();
                echoed.extend(block.iter().cycle().take(extra));
                assert_ne!(partition_digest(&echoed), clean, "{extra} values appended");
            }
        }
        assert_ne!(partition_digest(&[]), partition_digest(&[0.0]));
    }

    #[test]
    fn missing_partition_is_an_error() {
        let store = temp_store("missing-part");
        let err = store.read_partition(42).unwrap_err();
        assert!(format!("{err}").contains("42"));
    }

    #[test]
    fn bucket_roundtrip_and_missing_bucket_is_empty() {
        let store = temp_store("bucket-roundtrip");
        let edges = vec![
            Edge::with_rel(7, 2, 9),
            Edge::new(1, 1),
            Edge::with_rel(u64::MAX, u32::MAX, 3),
        ];
        store.write_bucket(0, 1, &edges).unwrap();
        assert_eq!(store.read_bucket(0, 1).unwrap(), edges);
        assert!(store.read_bucket(5, 5).unwrap().is_empty());
        // A file cut short by part of a record is an error, not a prefix.
        let path = store.bucket_path(0, 1);
        let whole = fs::read(&path).unwrap();
        for cut in 1..Edge::DISK_BYTES {
            fs::write(&path, &whole[..whole.len() - cut]).unwrap();
            let err = store.read_bucket(0, 1).unwrap_err();
            assert!(
                matches!(&err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData),
                "cut {cut}: {err}"
            );
            assert!(format!("{err}").contains("multiple"), "cut {cut}: {err}");
        }
        fs::write(&path, &whole).unwrap();
        assert_eq!(store.read_bucket(0, 1).unwrap(), edges);
    }

    #[test]
    fn append_bucket_extends_the_file_and_bucket_len_counts_it() {
        let store = temp_store("bucket-append");
        let (old, new) = (
            [Edge::new(1, 2), Edge::new(3, 4)],
            [Edge::with_rel(5, 1, 6)],
        );
        store.write_bucket(0, 1, &old).unwrap();
        store.append_bucket(0, 1, &new).unwrap();
        assert_eq!(store.read_bucket(0, 1).unwrap(), [old[0], old[1], new[0]]);
        assert_eq!(store.bucket_len(0, 1).unwrap(), 3);
        // A missing file is an empty bucket, for the count and the append.
        assert_eq!(store.bucket_len(2, 2).unwrap(), 0);
        store.append_bucket(2, 2, &new).unwrap();
        assert_eq!(store.read_bucket(2, 2).unwrap(), new);
        // A torn file is rejected and left as it was.
        let path = store.bucket_path(0, 1);
        let torn = fs::read(&path).unwrap()[..Edge::DISK_BYTES + 3].to_vec();
        fs::write(&path, &torn).unwrap();
        let err = store.append_bucket(0, 1, &new).unwrap_err();
        assert!(format!("{err}").contains("multiple"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), torn);
    }

    #[test]
    fn io_stats_track_reads_and_writes() {
        let store = temp_store("io-stats");
        store.write_partition(0, &[1.0; 16], &[0.0; 16]).unwrap();
        store.write_bucket(0, 0, &[Edge::new(0, 1)]).unwrap();
        let _ = store.read_partition(0).unwrap();
        let _ = store.read_bucket(0, 0).unwrap();
        let stats = store.io_stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.reads, 2);
        assert!(stats.bytes_written > 0);
        assert!(stats.bytes_read > 0);
        let _ = store.read_bucket(0, 0).unwrap();
        let expected = IoStats {
            reads: 1,
            bytes_read: Edge::DISK_BYTES as u64,
            ..IoStats::default()
        };
        assert_eq!(store.io_stats().since(&stats), expected);
    }

    #[test]
    fn overwrite_partition_replaces_content() {
        let store = temp_store("overwrite");
        store.write_partition(0, &[1.0], &[2.0]).unwrap();
        store.write_partition(0, &[9.0, 9.0], &[1.0, 1.0]).unwrap();
        let (v, s) = store.read_partition(0).unwrap();
        assert_eq!(v, vec![9.0, 9.0]);
        assert_eq!(s, vec![1.0, 1.0]);
    }

    #[test]
    fn clear_removes_files() {
        let store = temp_store("clear");
        store.write_partition(0, &[1.0], &[1.0]).unwrap();
        store.clear().unwrap();
        assert!(store.read_partition(0).is_err());
    }

    #[test]
    fn emulated_device_slows_ops_to_the_model() {
        use std::time::{Duration, Instant};
        // 1 MB/s with 1 KiB blocks: a 4 KiB read must take >= ~4 ms.
        let model = IoCostModel {
            bandwidth_bytes_per_sec: 1.0e6,
            iops: 1.0e9,
            block_size: 1024,
        };
        let store = temp_store("throttle").with_emulated_device(model);
        let values = vec![1.0f32; 512];
        let state = vec![0.0f32; 512];
        store.write_partition(0, &values, &state).unwrap();
        let start = Instant::now();
        let _ = store.read_partition(0).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(3));
        // An unthrottled twin on the same files must still read correctly
        // (no timing upper bound: wall-clock asserts flake on loaded CI).
        let fast = PartitionStore::open(store.root()).unwrap();
        let (v, _) = fast.read_partition(0).unwrap();
        assert_eq!(v.len(), 512);
    }

    /// `device_time` is exactly what the gate charged: `transfer_time(bytes,
    /// 1)` per op, reads and writes, with nothing estimated afterwards.
    #[test]
    fn device_time_is_the_sum_of_the_gates_charges() {
        let model = IoCostModel::local_nvme();
        let store = temp_store("device-time").with_emulated_device(model);
        let edges = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)];
        store.write_partition(0, &[1.0; 4], &[0.0; 4]).unwrap();
        let _ = store.read_partition(0).unwrap();
        store.write_bucket(0, 1, &edges).unwrap();
        let _ = store.read_bucket(0, 1).unwrap();
        store.append_bucket(0, 1, &edges[..2]).unwrap();
        let record = Edge::DISK_BYTES as u64;
        let op_bytes = [40, 40, 3 * record, 3 * record, 3 * record, 5 * record];
        let expected: Duration = op_bytes.iter().map(|&b| model.transfer_time(b, 1)).sum();
        let stats = store.io_stats();
        assert_eq!(stats.reads + stats.writes, op_bytes.len() as u64);
        assert_eq!(stats.device_time, expected);
        assert_eq!(
            temp_store("no-device").io_stats().device_time,
            Duration::ZERO
        );
    }

    #[test]
    fn empty_bucket_roundtrip() {
        let store = temp_store("empty-bucket");
        store.write_bucket(2, 3, &[]).unwrap();
        assert!(store.read_bucket(2, 3).unwrap().is_empty());
    }

    #[test]
    fn snapshot_and_restore_roundtrip_partitions_and_buckets() {
        let store = temp_store("snapshot-roundtrip");
        store.write_partition(0, &[1.0, 2.0], &[0.5, 0.5]).unwrap();
        store.write_bucket(0, 0, &[Edge::new(0, 1)]).unwrap();
        let snap = store.root().join("snap");
        store.snapshot_to(&snap).unwrap();
        // Mutate after the snapshot; the snapshot must keep the old bytes
        // (hard links point at the old inode because writes go through
        // rename).
        store.write_partition(0, &[9.0, 9.0], &[1.0, 1.0]).unwrap();
        store.restore_from(&snap).unwrap();
        let (v, s) = store.read_partition(0).unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert_eq!(s, vec![0.5, 0.5]);
        assert_eq!(store.read_bucket(0, 0).unwrap(), vec![Edge::new(0, 1)]);
    }

    #[test]
    fn snapshot_skips_torn_tmp_files_and_replaces_stale_snapshots() {
        let store = temp_store("snapshot-torn");
        store.write_partition(1, &[3.0], &[0.0]).unwrap();
        // A torn write abandoned by a crash must not enter the snapshot.
        std::fs::write(store.root().join("node_partition_9.bin.tmp"), b"torn").unwrap();
        let snap = store.root().join("snap");
        store.snapshot_to(&snap).unwrap();
        assert!(!snap.join("node_partition_9.bin.tmp").exists());
        assert!(snap.join("node_partition_1.bin").exists());
        // A second snapshot replaces the first atomically.
        store.write_partition(1, &[4.0], &[0.0]).unwrap();
        store.snapshot_to(&snap).unwrap();
        let twin = PartitionStore::open(&snap).unwrap();
        assert_eq!(twin.read_partition(1).unwrap().0, vec![4.0]);
    }

    #[test]
    fn restore_from_missing_snapshot_is_a_checkpoint_error() {
        let store = temp_store("snapshot-missing");
        let err = store.restore_from(store.root().join("nope")).unwrap_err();
        assert!(matches!(err, StorageError::Checkpoint { .. }), "{err}");
    }

    #[test]
    fn open_sweeps_stale_tmp_staging_files() {
        let store = temp_store("tmp-sweep");
        store.write_partition(0, &[1.0], &[0.0]).unwrap();
        // Litter abandoned by interrupted atomic writes.
        fs::write(store.root().join("node_partition_7.bin.tmp"), b"torn").unwrap();
        fs::write(store.root().join("edge_bucket_0_1.bin.tmp"), b"torn").unwrap();
        let reopened = PartitionStore::open(store.root()).unwrap();
        assert!(!store.root().join("node_partition_7.bin.tmp").exists());
        assert!(!store.root().join("edge_bucket_0_1.bin.tmp").exists());
        // Completed files survive the sweep.
        assert_eq!(reopened.read_partition(0).unwrap().0, vec![1.0]);
    }

    #[test]
    fn flaky_store_retries_to_success_and_counts_faults() {
        use crate::fault::IoFaultPlan;
        use std::time::Duration;
        let plan = IoFaultPlan {
            read_fail: 0.3,
            write_fail: 0.3,
            torn_write: 0.5,
            spike: Duration::ZERO,
            ..IoFaultPlan::quiet(42)
        };
        let store = faulty_store("flaky-roundtrip", Some(plan));
        let values = vec![1.5f32; 32];
        let state = vec![0.25f32; 32];
        for id in 0..8 {
            store.write_partition(id, &values, &state).unwrap();
            let (v, s) = store.read_partition(id).unwrap();
            assert_eq!(v, values);
            assert_eq!(s, state);
            store
                .write_bucket(id, id, &[Edge::new(u64::from(id), u64::from(id) + 1)])
                .unwrap();
            assert_eq!(store.read_bucket(id, id).unwrap().len(), 1);
        }
        let stats = store.io_stats();
        assert!(stats.faults_injected > 0, "plan never fired: {stats:?}");
        assert!(stats.io_retries >= stats.faults_injected);
        // Torn staging litter from injected faults was overwritten by the
        // retries' own staging files and renamed away: nothing remains.
        for entry in fs::read_dir(store.root()).unwrap() {
            assert!(!is_tmp(&entry.unwrap().path()), "torn file left behind");
        }
        // A delta reports only new faults, each retried once.
        let before = store.io_stats();
        let _ = store.read_partition(0).unwrap();
        let delta = store.io_stats().since(&before);
        assert_eq!(delta.io_retries, delta.faults_injected);
    }

    /// Concurrent operations on one store each count their own faults and
    /// retries: the `storage.*` counters agree with the store's stats and
    /// with the injector, however the four readers interleave.
    #[test]
    fn concurrent_reads_count_each_fault_and_retry_once() {
        use crate::fault::IoFaultPlan;
        let telemetry = Telemetry::enabled();
        let injector = IoFaultPlan {
            read_fail: 0.3,
            ..IoFaultPlan::quiet(5)
        }
        .build();
        let env = IoEnv {
            faults: Some(Arc::clone(&injector)),
            telemetry: telemetry.clone(),
            ..IoEnv::default()
        };
        let store = env
            .open_store(PartitionStore::temp_path("concurrent-faults"))
            .unwrap();
        store.clear().unwrap();
        for id in 0..4 {
            store.write_partition(id, &[1.0; 16], &[0.0; 16]).unwrap();
        }
        // The readers start together, so their retries overlap.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for id in 0..4 {
                let (store, start) = (&store, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        store.read_partition(id).unwrap();
                    }
                });
            }
        });
        let snap = telemetry.metrics_snapshot();
        let stats = store.io_stats();
        assert!(stats.faults_injected > 0, "plan never fired");
        assert_eq!(snap.counter("storage.io_retries"), Some(stats.io_retries));
        assert_eq!(
            snap.counter("storage.faults_injected"),
            Some(injector.faults_injected())
        );
    }

    #[test]
    fn permanent_fault_surfaces_without_retry_exhaustion_noise() {
        use crate::fault::IoFaultPlan;
        let store = faulty_store("permanent-fault", Some(IoFaultPlan::permanent(1, 0)));
        let err = store.write_partition(0, &[1.0], &[0.0]).unwrap_err();
        assert!(!err.is_transient());
        assert!(format!("{err}").contains("permanent"), "{err}");
        // Exactly one fault: permanent errors are not retried.
        assert_eq!(store.io_stats().faults_injected, 1);
        assert_eq!(store.io_stats().io_retries, 0);
    }

    #[test]
    fn outage_longer_than_the_retry_budget_exhausts_it() {
        use crate::fault::{IoFaultPlan, Outage};
        let plan = IoFaultPlan {
            outage: Some(Outage {
                start_op: 0,
                ops: 50,
            }),
            ..IoFaultPlan::quiet(3)
        };
        let store = faulty_store("outage-exhaust", Some(plan));
        let err = store.read_partition(0).unwrap_err();
        assert!(err.is_transient());
        assert!(format!("{err}").contains("budget"), "{err}");
        let budget = crate::RetryPolicy::default_transient().max_retries as u64;
        assert_eq!(store.io_stats().io_retries, budget);
    }
}

//! Out-of-core storage layer for the MariusGNN reproduction.
//!
//! This crate implements the paper's storage layer (Figure 2, steps A–D):
//!
//! * [`disk::PartitionStore`] — node partitions (embedding values plus optimizer
//!   state) and edge buckets persisted as flat binary files, with an
//!   instrumented IO counters so experiments can report bytes moved, read and
//!   write counts and retried faults (the quantities §6 reasons about).
//! * [`buffer::PartitionBuffer`] — the fixed-capacity CPU buffer that holds `c`
//!   physical node partitions, swaps them according to a replacement policy,
//!   and serves embedding gathers/updates for mini-batch training.
//! * [`policy`] — partition replacement and mini-batch assignment policies:
//!   [`policy::CometPolicy`] (the paper's contribution, §5.1),
//!   [`policy::BetaPolicy`] (the prior state of the art from Marius, used as the
//!   baseline in Table 8), a trivial in-memory policy, and the training-node
//!   caching policy for node classification (§5.2).
//! * [`tuning`] — the Edge Permutation Bias metric `B` (§6) and the auto-tuning
//!   rules that pick the number of physical partitions `p`, logical partitions
//!   `l` and buffer capacity `c`.
//! * [`io_model::IoCostModel`] — a bandwidth/IOPS/block-size model of the
//!   paper's EBS volume used by the benchmark harnesses to translate measured IO
//!   volume into epoch-time analogues, and by
//!   [`disk::PartitionStore::with_emulated_device`] to slow the store down to a
//!   real device's speed for overlap experiments.
//! * [`env::IoEnv`] — the fault injector, retry policy and telemetry
//!   recorder a run attaches to every store it opens, carried as one value
//!   and applied by one function ([`env::IoEnv::open_store`]). The store
//!   keeps it ([`disk::PartitionStore::env`]), and the buffer built over the
//!   store records into its recorder.
//!
//! # One swap path
//!
//! The buffer's working set changes in one way, whichever schedule drives the
//! training step (`marius-pipeline` runs it in order on the calling thread or
//! on overlapping stage threads). The step reads the set's edge buckets and
//! the partitions the buffer misses from the [`disk::PartitionStore`] — which
//! is `Send + Sync` (plain paths plus atomic IO counters), so any number of
//! threads may read concurrently — and
//! [`buffer::PartitionBuffer::install_set`] moves the partitions into place
//! without touching the store. Dirty evictions are *detached* from the swap
//! as owned [`buffer::EvictedPartition`] payloads and written back by
//! [`buffer::WritebackLedger::write_back`], on a drain thread while the next
//! step computes or right after the swap. The ledger (plus the pipeline's
//! write-back watermark) guarantees a partition's file is never re-read
//! before its pending write-back lands, and
//! [`disk::PartitionStore::write_partition`] renames completed temp files
//! into place so no reader can observe a torn partition even across an
//! abort.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod buffer;
pub mod disk;
pub mod env;
pub mod fault;
pub mod io_model;
pub mod policy;
pub mod retry;
pub mod tuning;

pub use buffer::{BufferStats, EvictedPartition, PartitionBuffer, WritebackLedger};
pub use disk::{atomic_write, partition_digest, IoStats, PartitionStore};
pub use env::IoEnv;
pub use fault::{FaultInjector, IoFaultPlan, Outage};
pub use io_model::IoCostModel;
pub use policy::{BetaPolicy, CometPolicy, EpochPlan, InMemoryPolicy, NodeCachePolicy};
pub use retry::RetryPolicy;
pub use tuning::{auto_tune, edge_permutation_bias, TuningConfig};

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A request referenced a partition or bucket that is not resident/known.
    NotResident {
        /// Human readable description.
        reason: String,
    },
    /// A policy was asked to produce an invalid plan (for example a buffer
    /// capacity larger than the partition count).
    InvalidPlan {
        /// Human readable description.
        reason: String,
    },
    /// A checkpoint could not be written, read, or validated (missing files,
    /// checksum mismatches, manifest/blob shape mismatches, version skew).
    Checkpoint {
        /// Human readable description.
        reason: String,
    },
    /// A transient fault: the operation is safe to retry and is expected to
    /// succeed eventually (injected faults, interrupted syscalls, device
    /// timeouts). See [`fault`] for the taxonomy and retry semantics.
    Transient {
        /// Human readable description.
        reason: String,
    },
    /// A pipeline stage failed or panicked; wraps the root cause with the
    /// stage that raised it. Always permanent: by the time a fault surfaces
    /// here the retry budget below it is already spent.
    Pipeline {
        /// The stage that failed (for example `"writeback-drain"`).
        stage: String,
        /// Root-cause description.
        reason: String,
    },
}

impl StorageError {
    /// Convenience constructor for checkpoint failures.
    pub fn checkpoint(reason: impl Into<String>) -> Self {
        StorageError::Checkpoint {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for transient failures.
    pub fn transient(reason: impl Into<String>) -> Self {
        StorageError::Transient {
            reason: reason.into(),
        }
    }

    /// Whether this error is safe to retry. The retry layer in [`retry`]
    /// only re-attempts operations whose error is transient; everything else
    /// surfaces immediately as permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Transient { .. } => true,
            StorageError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::NotResident { reason } => write!(f, "not resident: {reason}"),
            StorageError::InvalidPlan { reason } => write!(f, "invalid plan: {reason}"),
            StorageError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
            StorageError::Transient { reason } => write!(f, "transient io error: {reason}"),
            StorageError::Pipeline { stage, reason } => {
                write!(f, "pipeline stage '{stage}' failed: {reason}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// A document that does not parse, or does not have the shape a reader asks
/// for, is a checkpoint error with the parser's text.
impl From<marius_telemetry::json::JsonError> for StorageError {
    fn from(e: marius_telemetry::json::JsonError) -> Self {
        StorageError::checkpoint(e.0)
    }
}

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = StorageError::NotResident {
            reason: "partition 3".into(),
        };
        assert!(format!("{e}").contains("partition 3"));
        let e = StorageError::InvalidPlan {
            reason: "capacity".into(),
        };
        assert!(format!("{e}").contains("capacity"));
        let e: StorageError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(format!("{e}").contains("gone"));
        let e = StorageError::transient("blip");
        assert!(format!("{e}").contains("blip"));
        let e = StorageError::Pipeline {
            stage: "compute".into(),
            reason: "boom".into(),
        };
        assert!(format!("{e}").contains("compute") && format!("{e}").contains("boom"));
    }

    #[test]
    fn transient_classification() {
        assert!(StorageError::transient("blip").is_transient());
        let e: StorageError = std::io::Error::new(std::io::ErrorKind::Interrupted, "eintr").into();
        assert!(e.is_transient());
        let e: StorageError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(!e.is_transient());
        assert!(!StorageError::checkpoint("bad").is_transient());
        let e = StorageError::Pipeline {
            stage: "compute".into(),
            reason: "boom".into(),
        };
        assert!(!e.is_transient());
    }
}

//! The runtime attachments of a run's IO, declared once.

use crate::disk::PartitionStore;
use crate::fault::FaultInjector;
use crate::retry::RetryPolicy;
use crate::Result;
use marius_telemetry::Telemetry;
use std::path::Path;
use std::sync::Arc;

/// Everything a run attaches to the partition stores it opens: the training
/// store, the stream staging store and the serving store all come out of
/// [`IoEnv::open_store`], so one value describes how IO degrades, retries
/// and is observed. None of it is persisted: the process that resumes a run
/// is handed one (cloning shares the injector and recorder).
///
/// The one rule: a store's faults, retries and telemetry come from the env
/// it was opened under, and every layer above the store reads them from
/// [`PartitionStore::env`] — the [`crate::PartitionBuffer`], the training
/// pipeline and the stream ingestor take no recorder of their own. The
/// emulated device is part of a run's description, not of its environment:
/// it comes from the run's configuration and is applied with
/// [`PartitionStore::with_emulated_device`].
#[derive(Clone, Default)]
pub struct IoEnv {
    /// Deterministic fault injector (chaos testing); `None` runs against the
    /// healthy device. Shared, so callers can read its counters or arm
    /// outage/permanent windows mid-run. See [`crate::fault`].
    pub faults: Option<Arc<FaultInjector>>,
    /// Bounded-exponential-backoff policy for transient IO failures
    /// ([`RetryPolicy::default_transient`] by default).
    pub retry: RetryPolicy,
    /// Recorder the store's `storage.*` counters — and every layer built
    /// over the store — register in (disabled by default: the counters
    /// still count, but no registry reports them and spans are not kept).
    pub telemetry: Telemetry,
}

impl IoEnv {
    /// Opens (creating if necessary) the partition store rooted at `root`
    /// with this environment attached.
    pub fn open_store(&self, root: impl AsRef<Path>) -> Result<PartitionStore> {
        PartitionStore::open_under(root, self.clone())
    }
}

impl std::fmt::Debug for IoEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoEnv")
            .field("faults", &self.faults)
            .field("retry", &self.retry)
            .field("telemetry", &self.telemetry.is_enabled())
            .finish()
    }
}

//! The runtime attachments of a run's IO, declared once.

use crate::disk::PartitionStore;
use crate::fault::FaultInjector;
use crate::io_model::IoCostModel;
use crate::retry::RetryPolicy;
use crate::Result;
use marius_telemetry::Telemetry;
use std::path::Path;
use std::sync::Arc;

/// Everything a run attaches to the partition stores it opens: the training
/// store, the stream staging store and the serving store all come out of
/// [`IoEnv::open_store`], so one value describes how IO degrades, retries,
/// is observed and is paced. None of it is persisted: the process that
/// resumes a run is handed one (cloning shares the injector and recorder).
#[derive(Clone, Default)]
pub struct IoEnv {
    /// Deterministic fault injector (chaos testing); `None` runs against the
    /// healthy device. Shared, so callers can read its counters or arm
    /// outage/permanent windows mid-run. See [`crate::fault`].
    pub faults: Option<Arc<FaultInjector>>,
    /// Bounded-exponential-backoff policy for transient IO failures
    /// ([`RetryPolicy::default_transient`] by default).
    pub retry: RetryPolicy,
    /// Recorder the store's `storage.*` counters report into (disabled by
    /// default, which makes every handle a no-op).
    pub telemetry: Telemetry,
    /// When set, reads and writes are paced to this device model instead of
    /// running at page-cache speed (see
    /// [`PartitionStore::with_emulated_device`]).
    pub emulated_device: Option<IoCostModel>,
}

impl IoEnv {
    /// Opens (creating if necessary) the partition store rooted at `root`
    /// with this environment attached.
    pub fn open_store(&self, root: impl AsRef<Path>) -> Result<PartitionStore> {
        let mut store = PartitionStore::open(root)?
            .with_retry_policy(self.retry)
            .with_telemetry(&self.telemetry);
        if let Some(device) = self.emulated_device {
            store = store.with_emulated_device(device);
        }
        if let Some(faults) = &self.faults {
            store = store.with_fault_injector(Arc::clone(faults));
        }
        Ok(store)
    }
}

//! Hot checkpoint reload: the epoch-versioned snapshot handle and the
//! background checkpoint watcher.
//!
//! A [`SnapshotHandle`] is an ArcSwap-style cell: readers clone the current
//! `Arc<Snapshot>` under a momentary read lock (no IO, no allocation beyond
//! the refcount bump) and then work entirely against that pinned snapshot, so
//! an in-flight query finishes against the epoch it started on even if a
//! reload swaps the handle mid-query. Writers swap the whole `Arc` at once —
//! there is no observable intermediate state, hence no torn answers.
//!
//! [`CheckpointWatcher`] turns [`crate::Server::reload`] into a continuous
//! train→checkpoint→serve loop: a background thread polls the checkpoint
//! root and swaps in each new `epoch-NNNNNN/` version as training publishes
//! it. Transient reload failures (a checkpoint mid-write, a flaky device) are
//! counted and retried at the next poll; the previous snapshot keeps serving
//! throughout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::{Server, Snapshot};

/// ArcSwap-style holder of the server's current loaded checkpoint.
pub(crate) struct SnapshotHandle {
    inner: RwLock<Arc<Snapshot>>,
}

impl SnapshotHandle {
    pub(crate) fn new(snapshot: Snapshot) -> Self {
        SnapshotHandle {
            inner: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// Pins the current snapshot: the returned `Arc` stays valid (and keeps
    /// its backing data alive) across any number of concurrent reloads.
    pub(crate) fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.inner.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Atomically publishes a new snapshot. In-flight readers keep their
    /// pinned `Arc`; subsequent loads observe the new one.
    pub(crate) fn store(&self, snapshot: Arc<Snapshot>) {
        *self.inner.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
    }
}

/// Handle to the background thread that polls a checkpoint root and hot-swaps
/// new versions into a shared [`Server`]. Obtained from
/// [`Server::watch_checkpoints`]; dropping it (or calling
/// [`CheckpointWatcher::stop`]) stops the thread and joins it. If the thread
/// cannot be spawned, the watcher has none: the server keeps serving its
/// snapshot and counts the failure in `health().reload_errors`.
pub struct CheckpointWatcher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl CheckpointWatcher {
    pub(crate) fn spawn(server: Arc<Server>, poll: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let watched = Arc::clone(&server);
        let spawned = std::thread::Builder::new()
            .name("serve-ckpt-watch".to_string())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    if watched.reload().is_err() {
                        // A checkpoint mid-write or a transient device fault:
                        // keep serving the current snapshot and try again at
                        // the next poll.
                        watched.note_reload_error();
                    }
                    // Sleep in short slices so stop() returns promptly even
                    // under a long poll interval.
                    let slice = Duration::from_millis(5);
                    let mut slept = Duration::ZERO;
                    while slept < poll && !flag.load(Ordering::Relaxed) {
                        let nap = slice.min(poll - slept);
                        std::thread::sleep(nap);
                        slept += nap;
                    }
                }
            });
        if spawned.is_err() {
            server.note_reload_error();
        }
        CheckpointWatcher {
            stop,
            handle: spawned.ok(),
        }
    }

    /// Stops the watcher and joins its thread. The server keeps serving its
    /// current snapshot; explicit [`Server::reload`] calls still work.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CheckpointWatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

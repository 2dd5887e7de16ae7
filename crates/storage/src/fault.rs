//! Deterministic IO fault injection: the fault model, error taxonomy, and
//! retry semantics of the storage layer.
//!
//! # Why inject faults
//!
//! The paper trains out-of-core on cheap cloud block storage (EBS-class
//! devices), where transient read/write errors, latency spikes, and
//! interrupted processes are the normal operating regime rather than the
//! exception. This module makes that regime *reproducible*: an
//! [`IoFaultPlan`] is a seed-driven schedule of injected faults, attached to
//! a [`crate::disk::PartitionStore`] by opening it under an
//! [`crate::IoEnv`] that carries the plan's injector
//! ([`crate::IoEnv::open_store`]), so every chaos scenario can be replayed
//! exactly from its seed.
//!
//! # The fault model
//!
//! The injector sits at the boundary between the store and the filesystem
//! and can produce four kinds of events, each decided deterministically:
//!
//! * **Transient read/write failures** — the operation fails with
//!   [`StorageError::Transient`]; a retry of the same operation re-rolls the
//!   decision. A cap ([`IoFaultPlan::max_consecutive`]) bounds how many times
//!   the *same* logical operation may fail in a row, so any transient plan
//!   whose cap is below the retry budget is guaranteed survivable.
//! * **Torn writes** — a failing write first leaves a partial `*.tmp`
//!   staging sibling behind, emulating a crash mid-write. The destination
//!   file is never torn (the store only renames complete temp files into
//!   place); the litter is overwritten by the retry and swept by
//!   [`crate::disk::PartitionStore::open`].
//! * **Latency spikes** — the operation succeeds after an injected delay,
//!   emulating tail latency.
//! * **Outages and permanent failures** — a window of the global operation
//!   sequence during which every operation fails transiently (an
//!   [`Outage`]), or a point after which every operation fails permanently.
//!   Both can be armed mid-run through the shared [`FaultInjector`] handle,
//!   which chaos tests use to fault a specific phase of training without
//!   estimating operation counts.
//!
//! # Determinism
//!
//! Per-operation decisions are keyed on a stable operation key (for example
//! `"partition/3"` or `"bucket/0_2"`) and a per-key access counter, *not* on
//! global ordering — so the schedule a given operation sees is independent of
//! how pipeline threads interleave. Outage/permanent windows use the global
//! operation counter (they model the device, not an operation), and chaos
//! tests arm them relative to the current count.
//!
//! # Error taxonomy and retry semantics
//!
//! [`StorageError`] splits faults into *transient* (safe to retry:
//! [`StorageError::Transient`] and interrupted/timed-out [`StorageError::Io`]
//! kinds) and *permanent* (everything else, including
//! [`StorageError::Pipeline`], which wraps a failed or panicked pipeline
//! stage). The store wraps partition reads, bucket IO, write-back flushes,
//! and checkpoint placement in the bounded exponential-backoff retry of
//! [`crate::retry`]; a transient fault therefore slows training down instead
//! of aborting it, and — because retries happen entirely below the pipeline —
//! a retried run's loss trajectory is bit-identical to a fault-free run.
//! Exhausting the retry budget, or hitting a permanent fault, surfaces a
//! typed error through the pipeline's supervision layer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::{Result, StorageError};

/// FNV-1a hash of `bytes` (stable across runs and platforms).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 finalizer: a cheap, well-mixed hash of a 64-bit value.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The kind of storage operation being checked against the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Read,
    Write,
}

/// A window of the global operation sequence during which every operation
/// fails transiently (a device outage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First global operation index inside the outage.
    pub start_op: u64,
    /// Number of operations the outage lasts.
    pub ops: u64,
}

/// A seed-driven schedule of injected IO faults.
///
/// Sibling of [`crate::io_model::IoCostModel`]: where the cost model answers
/// "how slow is this device", the fault plan answers "how does it fail".
/// Build one with a constructor, customize fields, then open a store under
/// an [`crate::IoEnv`] whose `faults` holds [`IoFaultPlan::build`]'s
/// injector (or hand the injector to the session/serve facades).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultPlan {
    /// Seed from which every decision is derived.
    pub seed: u64,
    /// Probability that a read fails transiently.
    pub read_fail: f64,
    /// Probability that a write fails transiently.
    pub write_fail: f64,
    /// Probability that a failing write also leaves a torn `*.tmp` prefix.
    pub torn_write: f64,
    /// Probability that a successful operation suffers a latency spike.
    pub latency_spike: f64,
    /// Duration of an injected latency spike.
    pub spike: Duration,
    /// Upper bound on consecutive transient failures of one logical
    /// operation. Keep this below the retry budget to guarantee the plan is
    /// survivable.
    pub max_consecutive: u32,
    /// Optional outage window over the global operation sequence.
    pub outage: Option<Outage>,
    /// Optional global operation index after which every operation fails
    /// permanently.
    pub permanent_after: Option<u64>,
}

impl IoFaultPlan {
    /// A plan that injects nothing (useful as a base, or to obtain a shared
    /// [`FaultInjector`] handle that is armed later).
    pub fn quiet(seed: u64) -> Self {
        IoFaultPlan {
            seed,
            read_fail: 0.0,
            write_fail: 0.0,
            torn_write: 0.0,
            latency_spike: 0.0,
            spike: Duration::ZERO,
            max_consecutive: 2,
            outage: None,
            permanent_after: None,
        }
    }

    /// The standard transient regime used by the chaos suite: ~8% of reads
    /// and writes fail transiently, a quarter of failing writes tear, 2% of
    /// operations see a small latency spike. Survivable under the default
    /// retry budget (`max_consecutive = 2 < 4 retries`).
    pub fn flaky(seed: u64) -> Self {
        IoFaultPlan {
            read_fail: 0.08,
            write_fail: 0.08,
            torn_write: 0.25,
            latency_spike: 0.02,
            spike: Duration::from_micros(200),
            ..IoFaultPlan::quiet(seed)
        }
    }

    /// A plan where every operation from global index `after_ops` fails
    /// permanently (a dead device).
    pub fn permanent(seed: u64, after_ops: u64) -> Self {
        IoFaultPlan {
            permanent_after: Some(after_ops),
            ..IoFaultPlan::quiet(seed)
        }
    }

    /// Builds the stateful injector for this plan.
    pub fn build(self) -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(self))
    }
}

#[derive(Debug, Default)]
struct KeyState {
    /// How many times this key has been checked (drives the decision hash).
    accesses: u64,
    /// Current run of consecutive injected failures for this key.
    consecutive: u32,
}

/// The stateful engine that evaluates an [`IoFaultPlan`].
///
/// Shared (`Arc`) between the store clones of a run — and, in recovery
/// scenarios, across trainer restarts, so a one-shot outage window is not
/// replayed by the restarted run. All counters are monotonic; the store
/// snapshots them per epoch.
#[derive(Debug)]
pub struct FaultInjector {
    plan: IoFaultPlan,
    /// Global operation counter (drives outage/permanent windows).
    ops: AtomicU64,
    /// Per-key access counters and consecutive-failure runs.
    keys: Mutex<HashMap<u64, KeyState>>,
    /// Total faults injected (transient + permanent + torn).
    faults: AtomicU64,
    /// Armed outage window start (u64::MAX = disarmed).
    outage_start: AtomicU64,
    /// Armed outage window end (exclusive).
    outage_end: AtomicU64,
    /// Armed permanent-failure threshold (u64::MAX = disarmed).
    permanent_after: AtomicU64,
}

impl FaultInjector {
    fn new(plan: IoFaultPlan) -> Self {
        let (outage_start, outage_end) = match plan.outage {
            Some(o) => (o.start_op, o.start_op.saturating_add(o.ops)),
            None => (u64::MAX, u64::MAX),
        };
        FaultInjector {
            ops: AtomicU64::new(0),
            keys: Mutex::new(HashMap::new()),
            faults: AtomicU64::new(0),
            outage_start: AtomicU64::new(outage_start),
            outage_end: AtomicU64::new(outage_end),
            permanent_after: AtomicU64::new(plan.permanent_after.unwrap_or(u64::MAX)),
            plan,
        }
    }

    /// The plan this injector evaluates.
    pub fn plan(&self) -> &IoFaultPlan {
        &self.plan
    }

    /// Total storage operations checked so far.
    pub(crate) fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Total faults injected so far (monotonic).
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Arms a transient outage window starting `delay_ops` operations from
    /// now and lasting `ops` operations. Chaos tests use this (for example
    /// from an epoch hook) to place an outage in a specific phase of
    /// training without estimating absolute operation counts.
    pub fn arm_outage(&self, delay_ops: u64, ops: u64) {
        let start = self.ops_seen().saturating_add(delay_ops);
        self.outage_start.store(start, Ordering::Relaxed);
        self.outage_end
            .store(start.saturating_add(ops), Ordering::Relaxed);
    }

    /// Arms a permanent device failure starting `delay_ops` operations from
    /// now.
    pub fn arm_permanent(&self, delay_ops: u64) {
        self.permanent_after
            .store(self.ops_seen().saturating_add(delay_ops), Ordering::Relaxed);
    }

    /// Checks a read operation against the plan.
    pub fn check_read(&self, key: &str) -> Result<()> {
        self.check(FaultKind::Read, key, |_| {})
    }

    /// Checks a write operation against the plan. `torn` is invoked with the
    /// fraction of the payload to tear when the plan injects a torn write
    /// (the store writes that prefix to the `*.tmp` staging sibling).
    pub fn check_write(&self, key: &str, torn: impl FnOnce(f64)) -> Result<()> {
        self.check(FaultKind::Write, key, torn)
    }

    fn check(&self, kind: FaultKind, key: &str, torn: impl FnOnce(f64)) -> Result<()> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);

        if op >= self.permanent_after.load(Ordering::Relaxed) {
            self.faults.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(std::io::Error::other(format!(
                "injected permanent device failure on {key} (op {op})"
            ))));
        }
        if op >= self.outage_start.load(Ordering::Relaxed)
            && op < self.outage_end.load(Ordering::Relaxed)
        {
            self.faults.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Transient {
                reason: format!("injected device outage on {key} (op {op})"),
            });
        }

        let key_hash = fnv1a(key.as_bytes()) ^ (kind as u64).wrapping_mul(0x9e37_79b9);
        let p_fail = match kind {
            FaultKind::Read => self.plan.read_fail,
            FaultKind::Write => self.plan.write_fail,
        };
        // Decide under the lock (cheap hashes only); sleep outside it.
        let decision = {
            let mut keys = self.keys.lock().unwrap_or_else(PoisonError::into_inner);
            let state = keys.entry(key_hash).or_default();
            let nth = state.accesses;
            state.accesses += 1;
            let roll =
                splitmix64(self.plan.seed ^ key_hash ^ nth.wrapping_mul(0xd134_2543_de82_ef95));
            if unit(roll) < p_fail && state.consecutive < self.plan.max_consecutive {
                state.consecutive += 1;
                Err(unit(splitmix64(roll)))
            } else {
                state.consecutive = 0;
                Ok(unit(splitmix64(roll ^ 0x5bf0_3635)))
            }
        };
        match decision {
            Err(tear_roll) => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                if kind == FaultKind::Write && tear_roll < self.plan.torn_write {
                    // Tear between 10% and 90% of the payload.
                    torn(0.1 + 0.8 * tear_roll / self.plan.torn_write.max(f64::MIN_POSITIVE));
                }
                Err(StorageError::Transient {
                    reason: format!("injected transient {kind:?} fault on {key}"),
                })
            }
            Ok(spike_roll) => {
                if spike_roll < self.plan.latency_spike && !self.plan.spike.is_zero() {
                    std::thread::sleep(self.plan.spike);
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let inj = IoFaultPlan::quiet(7).build();
        for i in 0..100 {
            inj.check_read(&format!("partition/{}", i % 4)).unwrap();
            inj.check_write(&format!("partition/{}", i % 4), |_| panic!("torn"))
                .unwrap();
        }
        assert_eq!(inj.faults_injected(), 0);
        assert_eq!(inj.ops_seen(), 200);
    }

    #[test]
    fn flaky_plan_replays_identically_and_respects_the_consecutive_cap() {
        let plan = IoFaultPlan {
            spike: Duration::ZERO,
            ..IoFaultPlan::flaky(99)
        };
        let a = plan.build();
        let b = plan.build();
        let mut run = 0u32;
        for i in 0..400u64 {
            let key = format!("bucket/{}_{}", i % 3, i % 2);
            let ra = a.check_read(&key).is_err();
            let rb = b.check_read(&key).is_err();
            assert_eq!(ra, rb, "replay diverged at op {i}");
        }
        assert_eq!(a.faults_injected(), b.faults_injected());
        assert!(a.faults_injected() > 0, "flaky plan never fired");
        // Hammer a single key: failure runs must respect the cap.
        let c = plan.build();
        for _ in 0..400 {
            if c.check_read("partition/0").is_err() {
                run += 1;
                assert!(run <= plan.max_consecutive, "consecutive cap exceeded");
            } else {
                run = 0;
            }
        }
    }

    #[test]
    fn outage_window_fails_transiently_then_recovers() {
        let inj = IoFaultPlan {
            outage: Some(Outage {
                start_op: 5,
                ops: 10,
            }),
            ..IoFaultPlan::quiet(1)
        }
        .build();
        let mut failed = 0;
        for _ in 0..30 {
            match inj.check_read("partition/1") {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.is_transient());
                    failed += 1;
                }
            }
        }
        assert_eq!(failed, 10);
        assert!(inj.check_read("partition/1").is_ok());
    }

    #[test]
    fn armed_permanent_failure_is_not_transient() {
        let inj = IoFaultPlan::quiet(3).build();
        inj.check_read("partition/0").unwrap();
        inj.arm_permanent(2);
        inj.check_read("partition/0").unwrap();
        inj.check_write("partition/0", |_| {}).unwrap();
        let err = inj.check_read("partition/0").unwrap_err();
        assert!(!err.is_transient());
        assert!(inj.check_write("partition/0", |_| {}).is_err());
    }

    #[test]
    fn torn_write_callback_fires_with_a_bounded_fraction() {
        let plan = IoFaultPlan {
            write_fail: 1.0,
            torn_write: 1.0,
            max_consecutive: u32::MAX,
            spike: Duration::ZERO,
            ..IoFaultPlan::quiet(11)
        };
        let inj = plan.build();
        let mut fractions = Vec::new();
        for _ in 0..20 {
            let _ = inj.check_write("partition/2", |f| fractions.push(f));
        }
        assert_eq!(fractions.len(), 20);
        assert!(fractions.iter().all(|f| (0.1..=0.9).contains(f)));
    }
}

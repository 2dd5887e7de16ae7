//! The metrics registry: named counters, gauges and fixed-bucket histograms.
//!
//! A [`Counter`] is an `Arc<AtomicU64>` that always counts: the layer that
//! sees a fact (a read, a retry, a shed query) increments its own handle, and
//! reads its own totals back from it with or without a recorder. An enabled
//! [`crate::Telemetry`] registers each handle under its name and reports the
//! sum of every handle registered under that name, so the registry is a view
//! over the layers' counts, never a second copy of them.
//!
//! [`Gauge`] and [`Histogram`] handles are `Option<Arc<..>>` wrappers shared
//! by name; on a disabled recorder they are `None`, so their record methods
//! reduce to a single branch and **allocate nothing**.
//!
//! All updates are relaxed atomic operations — no lock is ever taken while
//! recording, only while registering a handle or taking a snapshot.

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter. Every handle counts, registered in a
/// recorder or not; clones share one count, and [`Counter::get`] reads it.
/// The default value is a fresh, unregistered handle at zero.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds a duration, recorded in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn add_duration(&self, d: Duration) {
        self.add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// This handle's count: everything added through it and its clones.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// The atomic cell behind the handle, for code that counts into a plain
    /// `&AtomicU64` (such as `marius_storage::retry::with_retry`).
    pub fn cell(&self) -> &AtomicU64 {
        &self.0
    }
}

/// A named gauge holding the most recently set value.
///
/// The default value is a disabled (no-op) handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the gauge. A no-op on a disabled handle.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 on a disabled handle).
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map(|cell| cell.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Returns the bucket index for `v` against `bounds` (inclusive upper bounds,
/// strictly increasing): the first bucket whose bound is `>= v`, or the
/// overflow bucket `bounds.len()` when `v` exceeds every bound.
///
/// This function is the *only* bucketing rule in the crate; the histogram
/// property tests pin its determinism (same value → same bucket, order of
/// recording irrelevant).
pub fn bucket_index(bounds: &[u64], v: u64) -> usize {
    bounds.partition_point(|&b| b < v)
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistogramCore {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram of `u64` samples.
///
/// Buckets are fixed at registration time (inclusive upper bounds plus an
/// implicit overflow bucket), so recording never allocates and bucket
/// boundaries are identical across runs. The default value is a disabled
/// (no-op) handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one sample. A no-op on a disabled handle.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            let idx = bucket_index(&core.bounds, v);
            core.counts[idx].fetch_add(1, Ordering::Relaxed);
            core.total.fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Number of samples recorded so far (0 on a disabled handle).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map(|core| core.total.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; `counts.len() == bounds.len() + 1`, the last
    /// entry being the overflow bucket.
    pub counts: Vec<u64>,
    /// Total number of samples.
    pub total: u64,
    /// Sum of all sample values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
}

/// Point-in-time copy of the whole registry, sorted by metric name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, i64)>,
    /// Histogram name → snapshot.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as the `metrics.json` document: three sorted
    /// name→value maps. Uses the shared [`crate::json`] helpers, so the
    /// encoding matches every other JSON writer in the workspace.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json::escape(name), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json::escape(name), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let bounds: Vec<String> = h.bounds.iter().map(|b| b.to_string()).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                "\"{}\":{{\"bounds\":[{}],\"counts\":[{}],\"total\":{},\"sum\":{},\"mean\":{}}}",
                json::escape(name),
                bounds.join(","),
                counts.join(","),
                h.total,
                h.sum,
                json::num(h.mean()),
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The handles registered under one counter name, plus the count of those
/// that only the registry still held when it last looked.
#[derive(Default)]
struct CounterFamily {
    /// Final counts of handles every owner has dropped.
    retired: u64,
    live: Vec<Arc<AtomicU64>>,
}

impl CounterFamily {
    /// Folds every handle nobody else holds into `retired`: its count can no
    /// longer change, and keeping it would grow the registry with every
    /// store or server a long-lived process opens.
    fn fold_dropped(&mut self) {
        for cell in std::mem::take(&mut self.live) {
            match Arc::try_unwrap(cell) {
                Ok(cell) => self.retired = self.retired.saturating_add(cell.into_inner()),
                Err(cell) => self.live.push(cell),
            }
        }
    }
}

/// Name-keyed registry behind [`crate::Telemetry`]. Registration takes a
/// short-lived lock; recording through the returned handles is lock-free.
#[derive(Default)]
pub(crate) struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, CounterFamily>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

impl MetricsRegistry {
    /// A new counter handle, registered under `name`: the snapshot value of
    /// `name` is the sum over every handle ever registered under it.
    pub(crate) fn counter(&self, name: &str) -> Counter {
        let counter = Counter::default();
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let family = map.entry(name.to_string()).or_default();
        family.fold_dropped();
        family.live.push(Arc::clone(&counter.0));
        counter
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        Gauge(Some(Arc::clone(map.entry(name.to_string()).or_default())))
    }

    pub(crate) fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Histogram(Some(Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramCore::new(bounds))),
        )))
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter_mut()
            .map(|(name, family)| {
                family.fold_dropped();
                let total = family.live.iter().fold(family.retired, |sum, cell| {
                    sum.saturating_add(cell.load(Ordering::Relaxed))
                });
                (name.clone(), total)
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, core)| {
                (
                    name.clone(),
                    HistogramSnapshot {
                        bounds: core.bounds.clone(),
                        counts: core
                            .counts
                            .iter()
                            .map(|c| c.load(Ordering::Relaxed))
                            .collect(),
                        total: core.total.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        // A counter always counts, registered or not.
        let c = Counter::default();
        c.incr();
        c.add(100);
        assert_eq!(c.get(), 101);
        let g = Gauge::default();
        g.set(7);
        assert_eq!(g.get(), 0);
        let h = Histogram::default();
        h.record(3);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn registry_handles_share_state_by_name() {
        let reg = MetricsRegistry::default();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!((a.get(), b.get()), (2, 3));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), Some(5));
    }

    /// Handles come and go (serve opens a store per reload): the name's
    /// total stays exact while the registry holds only the live handles.
    #[test]
    fn dropped_handles_fold_into_an_exact_bounded_total() {
        let reg = MetricsRegistry::default();
        let keep = reg.counter("reads");
        keep.add(5);
        for i in 0..1_000u64 {
            reg.counter("reads").add(i);
        }
        let held = |reg: &MetricsRegistry| reg.counters.lock().unwrap()["reads"].live.len();
        assert!(held(&reg) <= 2, "{} handles held", held(&reg));
        assert_eq!(reg.snapshot().counter("reads"), Some(5 + 999 * 1_000 / 2));
        assert_eq!(held(&reg), 1);
        drop(keep);
        assert_eq!(reg.snapshot().counter("reads"), Some(5 + 999 * 1_000 / 2));
        assert_eq!(held(&reg), 0);
    }

    #[test]
    fn bucket_index_is_inclusive_upper_bound() {
        let bounds = [0, 1, 2, 4, 8];
        assert_eq!(bucket_index(&bounds, 0), 0);
        assert_eq!(bucket_index(&bounds, 1), 1);
        assert_eq!(bucket_index(&bounds, 3), 3);
        assert_eq!(bucket_index(&bounds, 4), 3);
        assert_eq!(bucket_index(&bounds, 8), 4);
        assert_eq!(bucket_index(&bounds, 9), 5);
        assert_eq!(bucket_index(&bounds, u64::MAX), 5);
    }

    #[test]
    fn histogram_counts_land_in_fixed_buckets() {
        let reg = MetricsRegistry::default();
        let h = reg.histogram("depth", &[0, 1, 2, 4]);
        for v in [0, 0, 1, 3, 4, 100] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("depth").unwrap();
        assert_eq!(hs.counts, vec![2, 1, 0, 2, 1]);
        assert_eq!(hs.total, 6);
        assert_eq!(hs.sum, 108);
        assert!((hs.mean() - 18.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_is_sorted_and_parsable_shape() {
        let reg = MetricsRegistry::default();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        reg.gauge("g").set(-3);
        reg.histogram("h", &[1, 2]).record(5);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{"));
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "counters must be name-sorted");
        assert!(json.contains("\"g\":-3"));
        assert!(json.contains("\"bounds\":[1,2]"));
        assert!(json.contains("\"counts\":[0,0,1]"));
    }
}

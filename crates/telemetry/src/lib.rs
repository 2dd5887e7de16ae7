//! End-to-end telemetry for the MariusGNN reproduction: per-stage tracing
//! spans, a metrics registry, and Chrome-trace export.
//!
//! # Event model
//!
//! A [`Telemetry`] value is a cheaply clonable handle shared by every layer
//! of the system — one handle is cloned into each pipeline stage thread, the
//! partition store/buffer, and the trainer epoch loop. It records two kinds
//! of data:
//!
//! - **Spans** — begin/end (and instant) events carrying a stage name plus
//!   optional `step` and `partition` labels. Each thread records into a
//!   thread-private buffer through a [`SpanScope`] (obtained from
//!   [`Telemetry::scope`]); timestamps come from one shared monotonic origin
//!   [`std::time::Instant`], and the buffers are merged into the recorder
//!   when the scope drops (typically at epoch end). Recording a span is two
//!   `Vec` pushes and one relaxed atomic increment — no locks on the hot
//!   path.
//! - **Metrics** — named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s ([`Telemetry::counter`] / [`Telemetry::gauge`] /
//!   [`Telemetry::histogram`]), whose record methods are relaxed atomics.
//!   A counter always counts: it is the one copy of its fact, which the
//!   layer that owns it reads back directly, and the registry reports the
//!   sum of every handle registered under a name. Registration takes a
//!   short-lived lock, so register once and keep the handle.
//!
//! # Overhead guarantees
//!
//! - **Allocation-free recording when disabled.** [`Telemetry::disabled`]
//!   (also the `Default`) holds no allocation at all, and cloning it is
//!   free. Every scope, gauge and histogram handle derived from it is `None`
//!   inside, so each record call is a single branch. A counter handle is one
//!   `Arc` allocated when it is made (stores, buffers and servers make
//!   theirs when they are built, never per step), and counting into it is
//!   one relaxed atomic add.
//! - **Deterministic when enabled.** The recorder only ever *reads* monotonic
//!   clocks and increments private state. It draws no randomness, takes no
//!   locks shared with training code, and never sits inside an RNG-consuming
//!   path — so loss trajectories are bit-identical with telemetry on or off
//!   (pinned by the `telemetry_bit_exactness` golden tests).
//!
//! # Exporters
//!
//! - [`Telemetry::chrome_trace_json`] renders merged spans as a Chrome
//!   `trace_event` JSON document. Save it as `trace.json` and load it in
//!   `chrome://tracing`, or drag-and-drop the file into
//!   <https://ui.perfetto.dev> — one track per pipeline stage thread, spans
//!   labelled with step/partition, queue waits visible as gaps.
//! - [`Telemetry::metrics_json`] renders the registry as an aggregated
//!   `metrics.json` snapshot (`examples/tracing.rs` writes one). Counters
//!   mirror the `EpochReport`/`PipelineReport` aggregates exactly — same
//!   sums, with per-event provenance in the trace.
//!
//! ```
//! use marius_telemetry::{Telemetry, NO_LABEL};
//!
//! let telemetry = Telemetry::enabled();
//! let mut scope = telemetry.scope("compute");
//! scope.begin("compute-step", 0, NO_LABEL);
//! telemetry.counter("pipeline.batches").incr();
//! scope.end();
//! drop(scope); // merge the thread buffer
//! let trace = telemetry.chrome_trace_json();
//! assert!(trace.contains("compute-step"));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod metrics;
mod trace;

pub mod json;

pub use metrics::{bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
pub use trace::{Phase, SpanEvent, NO_LABEL};

use metrics::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Inner {
    origin: Instant,
    spans: Mutex<Vec<SpanEvent>>,
    threads: Mutex<Vec<String>>,
    seq: AtomicU64,
    metrics: MetricsRegistry,
}

/// The telemetry recorder handle. See the [module docs](self) for the event
/// model and overhead guarantees.
///
/// `Clone` is cheap (an `Arc` clone when enabled, a copy of `None` when
/// disabled); clones share one recorder.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// Creates an enabled recorder.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                spans: Mutex::new(Vec::new()),
                threads: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                metrics: MetricsRegistry::default(),
            })),
        }
    }

    /// Creates a disabled (no-op, zero-allocation) recorder. Equivalent to
    /// `Telemetry::default()`.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a per-thread span recorder labelled `thread_label` (the track
    /// name in the exported trace). Buffered events merge into the recorder
    /// when the returned scope drops; any spans still open at that point are
    /// closed automatically, so the merged stream is always balanced.
    pub fn scope(&self, thread_label: &str) -> SpanScope {
        let Some(inner) = &self.inner else {
            return SpanScope { state: None };
        };
        let tid = {
            let mut threads = inner.threads.lock().unwrap_or_else(|e| e.into_inner());
            threads.push(thread_label.to_string());
            (threads.len() - 1) as u32
        };
        SpanScope {
            state: Some(ScopeState {
                shared: Arc::clone(inner),
                tid,
                events: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    /// Returns a new counter handle. An enabled recorder registers it under
    /// `name`, whose snapshot value is the sum of every handle registered
    /// under it; a disabled one does not, but the handle counts either way.
    /// Registration locks briefly; keep the handle for hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.metrics.counter(name),
            None => Counter::default(),
        }
    }

    /// Returns the gauge registered under `name` (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.metrics.gauge(name),
            None => Gauge::default(),
        }
    }

    /// Returns the fixed-bucket histogram registered under `name`, creating
    /// it with `bounds` (strictly increasing inclusive upper bounds) on first
    /// registration. No-op handle when disabled.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match &self.inner {
            Some(inner) => inner.metrics.histogram(name, bounds),
            None => Histogram::default(),
        }
    }

    /// Point-in-time copy of the metrics registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// A copy of every merged span event so far (empty when disabled).
    /// Events from still-open [`SpanScope`]s are not included until those
    /// scopes drop.
    pub fn span_events(&self) -> Vec<SpanEvent> {
        match &self.inner {
            Some(inner) => inner
                .spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            None => Vec::new(),
        }
    }

    /// Renders the merged spans as a Chrome `trace_event` JSON document
    /// (see the [module docs](self) for how to open it). An empty-but-valid
    /// document when disabled.
    pub fn chrome_trace_json(&self) -> String {
        match &self.inner {
            Some(inner) => {
                let threads = inner
                    .threads
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone();
                let mut events = inner
                    .spans
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone();
                trace::chrome_trace_json(&threads, &mut events)
            }
            None => trace::chrome_trace_json(&[], &mut []),
        }
    }

    /// Renders the metrics registry as the `metrics.json` document.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// Writes [`Telemetry::chrome_trace_json`] to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// Writes [`Telemetry::metrics_json`] to `path`.
    pub fn write_metrics_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.metrics_json())
    }
}

struct ScopeState {
    shared: Arc<Inner>,
    tid: u32,
    events: Vec<SpanEvent>,
    /// Names of the currently open spans (LIFO), so end events carry the
    /// matching name — Chrome pairs by stack, but named ends keep the trace
    /// self-describing and checkable.
    open: Vec<&'static str>,
}

impl ScopeState {
    fn record(&mut self, name: &'static str, phase: Phase, step: i64, partition: i64) {
        let ts_ns = u64::try_from(self.shared.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        self.events.push(SpanEvent {
            name,
            phase,
            ts_ns,
            tid: self.tid,
            seq,
            step,
            partition,
        });
    }
}

/// Per-thread span recorder. Obtained from [`Telemetry::scope`]; records into
/// a thread-private buffer and merges it into the shared recorder on drop.
///
/// Spans nest LIFO: [`SpanScope::end`] always closes the innermost open span,
/// so a begin can never be left unmatched (any span still open when the scope
/// drops is closed at that point).
pub struct SpanScope {
    state: Option<ScopeState>,
}

impl SpanScope {
    /// Opens a span. `step` / `partition` label the span in the trace; pass
    /// [`NO_LABEL`] when not applicable.
    #[inline]
    pub fn begin(&mut self, name: &'static str, step: i64, partition: i64) {
        if let Some(state) = &mut self.state {
            state.record(name, Phase::Begin, step, partition);
            state.open.push(name);
        }
    }

    /// Closes the innermost open span. A no-op if none is open.
    #[inline]
    pub fn end(&mut self) {
        if let Some(state) = &mut self.state {
            if let Some(name) = state.open.pop() {
                state.record(name, Phase::End, NO_LABEL, NO_LABEL);
            }
        }
    }

    /// Records a zero-duration instant event.
    #[inline]
    pub fn instant(&mut self, name: &'static str, step: i64, partition: i64) {
        if let Some(state) = &mut self.state {
            state.record(name, Phase::Instant, step, partition);
        }
    }

    /// Runs `f` inside a `begin`/`end` pair.
    #[inline]
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        step: i64,
        partition: i64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, step, partition);
        let out = f();
        self.end();
        out
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        if let Some(mut state) = self.state.take() {
            while let Some(name) = state.open.pop() {
                state.record(name, Phase::End, NO_LABEL, NO_LABEL);
            }
            state
                .shared
                .spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(&mut state.events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_fully_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let mut scope = t.scope("x");
        scope.begin("a", 0, NO_LABEL);
        scope.end();
        drop(scope);
        t.counter("c").incr();
        assert!(t.span_events().is_empty());
        assert!(t.metrics_snapshot().counters.is_empty());
        let trace = t.chrome_trace_json();
        assert!(trace.contains("\"traceEvents\""));
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn spans_merge_balanced_and_ordered() {
        let t = Telemetry::enabled();
        let mut scope = t.scope("worker");
        scope.begin("outer", 1, NO_LABEL);
        scope.begin("inner", 1, 2);
        scope.end();
        scope.instant("tick", 1, NO_LABEL);
        drop(scope); // "outer" still open: closed automatically
        let events = t.span_events();
        let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = events.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        // Per-thread events keep record order via seq.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        // Nesting is LIFO: depth never goes negative and ends at zero.
        let mut depth = 0i64;
        for e in &events {
            match e.phase {
                Phase::Begin => depth += 1,
                Phase::End => {
                    depth -= 1;
                    assert!(depth >= 0);
                }
                Phase::Instant => {}
            }
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn scopes_from_threads_all_merge() {
        let t = Telemetry::enabled();
        std::thread::scope(|s| {
            for i in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    let mut scope = t.scope("stage");
                    scope.timed("work", i, NO_LABEL, || {});
                });
            }
        });
        let events = t.span_events();
        assert_eq!(events.len(), 8);
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn counters_shared_across_clones() {
        let t = Telemetry::enabled();
        let c1 = t.counter("n");
        let c2 = t.clone().counter("n");
        c1.add(1);
        c2.add(2);
        assert_eq!(t.metrics_snapshot().counter("n"), Some(3));
    }
}

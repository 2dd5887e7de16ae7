//! Turns the recorder's begin/end events back into spans with self time.
//!
//! Harness spans (`bench.*`) and the program's own spans land in one
//! `marius_telemetry` recorder, so one pairing pass serves both: the harness
//! reads its per-query / per-epoch spans and the program's `epoch.eval` and
//! `epoch.checkpoint` spans from the same list.

use marius::telemetry::{Phase, SpanEvent};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    /// The per-epoch / per-query id the span was opened with.
    pub step: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration minus the part of the interval covered by child spans on the
    /// same thread.
    pub self_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Pairs begin/end events per thread (spans nest LIFO within a thread) and
/// subtracts each span's direct children to get its self time. Unclosed
/// begins are dropped.
pub fn pair(events: &[SpanEvent]) -> Vec<Span> {
    let mut by_thread: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
    for e in events {
        by_thread.entry(e.tid).or_default().push(e);
    }
    let mut spans = Vec::new();
    for (tid, mut thread_events) in by_thread {
        thread_events.sort_by_key(|e| e.seq);
        // (begin event, nanoseconds covered by already-closed children)
        let mut open: Vec<(&SpanEvent, u64)> = Vec::new();
        for e in thread_events {
            match e.phase {
                Phase::Begin => open.push((e, 0)),
                Phase::End => {
                    let Some((begin, children_ns)) = open.pop() else {
                        continue;
                    };
                    let duration = e.ts_ns.saturating_sub(begin.ts_ns);
                    if let Some(parent) = open.last_mut() {
                        parent.1 += duration;
                    }
                    spans.push(Span {
                        name: begin.name,
                        tid,
                        step: begin.step,
                        start_ns: begin.ts_ns,
                        end_ns: e.ts_ns,
                        self_ns: duration.saturating_sub(children_ns),
                    });
                }
                Phase::Instant => {}
            }
        }
    }
    spans
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Total self time in seconds per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *totals.entry(s.name).or_default() += s.self_ns;
    }
    let mut out: Vec<_> = totals
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 * 1e-9))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, phase: Phase, ts_ns: u64, tid: u32, seq: u64) -> SpanEvent {
        SpanEvent {
            name,
            phase,
            ts_ns,
            tid,
            seq,
            step: seq as i64,
            partition: -1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = [
            event("train", Phase::Begin, 0, 0, 0),
            event("epoch", Phase::Begin, 10, 0, 1),
            event("eval", Phase::Begin, 40, 0, 2),
            event("eval", Phase::End, 60, 0, 3),
            event("epoch", Phase::End, 70, 0, 4),
            event("epoch", Phase::Begin, 70, 0, 5),
            event("epoch", Phase::End, 90, 0, 6),
            event("train", Phase::End, 100, 0, 7),
            // Another thread's span overlaps in time but is nobody's child.
            event("query", Phase::Begin, 20, 1, 8),
            event("query", Phase::End, 50, 1, 9),
        ];
        let spans = pair(&events);
        let find = |name, start| {
            spans
                .iter()
                .find(|s| s.name == name && s.start_ns == start)
                .unwrap()
        };
        assert_eq!(find("eval", 40).self_ns, 20);
        assert_eq!(find("epoch", 10).self_ns, 40); // 60 - eval's 20
        assert_eq!(find("epoch", 70).self_ns, 20);
        assert_eq!(find("train", 0).self_ns, 20); // 100 - (60 + 20), eval not double-counted
        assert_eq!(find("query", 20).self_ns, 30);
        assert_eq!(find("epoch", 10).step, 1);
        let epochs = durations(&spans, "epoch");
        assert!(
            (epochs[0] - 60e-9).abs() < 1e-15 && (epochs[1] - 20e-9).abs() < 1e-15,
            "{epochs:?}"
        );
        let totals = self_time_by_name(&spans);
        assert_eq!(totals[0].0, "epoch");
        let sum: f64 = totals.iter().map(|t| t.1).sum();
        assert!((sum - 130e-9).abs() < 1e-15);
    }

    #[test]
    fn unbalanced_events_are_ignored() {
        let events = [
            event("orphan-end", Phase::End, 5, 0, 0),
            event("open", Phase::Begin, 6, 0, 1),
        ];
        assert!(pair(&events).is_empty());
    }
}

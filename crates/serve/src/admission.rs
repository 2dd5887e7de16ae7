//! Admission control: the bounded in-flight budget and per-query deadlines.
//!
//! A production read path degrades *predictably* under overload: rather than
//! queueing without bound (and blowing tail latency for everyone), the server
//! sheds queries that arrive while the in-flight budget is full, and abandons
//! queries that outlive their deadline at the next block boundary. Both
//! outcomes are typed rejections ([`crate::ServeError::Overloaded`] /
//! [`crate::ServeError::DeadlineExceeded`]) the client can act on, and both
//! count once, into the `server.shed` / `server.deadline_exceeded` counters
//! that [`crate::Server::health`] reads back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use marius_telemetry::{Counter, Telemetry};

use crate::error::{ServeError, ServeResult};

/// The in-flight budget and deadline configuration of one server.
pub(crate) struct Admission {
    /// Maximum concurrently admitted queries (`u64::MAX` = unbounded).
    limit: u64,
    /// Per-query deadline, if any.
    deadline: Option<Duration>,
    in_flight: AtomicU64,
    /// Queries shed (`server.shed`).
    pub(crate) shed: Counter,
}

impl Admission {
    pub(crate) fn new(
        limit: Option<u64>,
        deadline: Option<Duration>,
        telemetry: &Telemetry,
    ) -> Self {
        Admission {
            // A zero budget would deterministically reject everything;
            // clamp to one so a misconfigured server still drains work.
            limit: limit.unwrap_or(u64::MAX).max(1),
            deadline,
            in_flight: AtomicU64::new(0),
            shed: telemetry.counter("server.shed"),
        }
    }

    /// Admits one query, or sheds it when the budget is full. The returned
    /// permit releases the slot on drop, so every exit path (success, error,
    /// panic unwind) gives the slot back.
    pub(crate) fn admit(&self) -> ServeResult<InFlightPermit<'_>> {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.limit {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.shed.incr();
            return Err(ServeError::Overloaded {
                in_flight: prev,
                limit: self.limit,
            });
        }
        Ok(InFlightPermit {
            in_flight: &self.in_flight,
        })
    }

    /// Starts the deadline clock for one admitted query.
    pub(crate) fn clock(&self) -> QueryClock {
        QueryClock {
            start: Instant::now(),
            deadline: self.deadline,
        }
    }

    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// The configured budget, `None` when unbounded.
    pub(crate) fn limit(&self) -> Option<u64> {
        (self.limit != u64::MAX).then_some(self.limit)
    }

    pub(crate) fn deadline(&self) -> Option<Duration> {
        self.deadline
    }
}

/// One admitted query's slot in the in-flight budget.
#[derive(Debug)]
pub(crate) struct InFlightPermit<'a> {
    in_flight: &'a AtomicU64,
}

impl Drop for InFlightPermit<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The deadline clock of one query, checked before every block so a slow
/// query is abandoned at the next boundary instead of running to completion.
pub(crate) struct QueryClock {
    start: Instant,
    deadline: Option<Duration>,
}

impl QueryClock {
    pub(crate) fn check(&self) -> ServeResult<()> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let elapsed = self.start.elapsed();
        // A zero deadline trips deterministically (useful in tests and as a
        // drain-everything switch); otherwise trip once elapsed passes it.
        if deadline.is_zero() || elapsed > deadline {
            return Err(ServeError::DeadlineExceeded { elapsed, deadline });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sheds_excess_and_permits_release_on_drop() {
        let telemetry = Telemetry::enabled();
        let admission = Admission::new(Some(2), None, &telemetry);
        let a = admission.admit().unwrap();
        let _b = admission.admit().unwrap();
        assert_eq!(admission.in_flight(), 2);
        let err = admission.admit().unwrap_err();
        assert!(matches!(
            err,
            ServeError::Overloaded {
                in_flight: 2,
                limit: 2
            }
        ));
        assert_eq!(admission.shed.get(), 1);
        drop(a);
        assert_eq!(admission.in_flight(), 1);
        let _c = admission.admit().unwrap();
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("server.shed"), Some(1));
    }

    #[test]
    fn unbounded_admission_never_sheds() {
        let telemetry = Telemetry::disabled();
        let admission = Admission::new(None, None, &telemetry);
        assert_eq!(admission.limit(), None);
        let permits: Vec<_> = (0..64).map(|_| admission.admit().unwrap()).collect();
        assert_eq!(admission.in_flight(), 64);
        drop(permits);
        assert_eq!(admission.in_flight(), 0);
    }

    #[test]
    fn zero_deadline_trips_deterministically() {
        let telemetry = Telemetry::disabled();
        let admission = Admission::new(None, Some(Duration::ZERO), &telemetry);
        let clock = admission.clock();
        assert!(matches!(
            clock.check(),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        let generous = Admission::new(None, Some(Duration::from_secs(3600)), &telemetry);
        assert!(generous.clock().check().is_ok());
        let unbounded = Admission::new(None, None, &telemetry);
        assert!(unbounded.clock().check().is_ok());
    }
}

//! Typed serving errors: the query path's transient/permanent taxonomy.
//!
//! Load-time failures (missing checkpoints, encoder-bearing models, absent
//! partition snapshots) keep surfacing as [`StorageError`] through
//! [`crate::Server::from_checkpoint_with`] — they describe the checkpoint,
//! not a query. Query-time failures instead surface as [`ServeError`], which
//! adds the two failure classes a production read path needs that storage has
//! no word for: admission rejections ([`ServeError::Overloaded`]) and missed
//! deadlines ([`ServeError::DeadlineExceeded`]). Storage faults that escape
//! every retry layer are classified through [`StorageError::is_transient`]
//! into [`ServeError::Transient`] (safe to resubmit) or
//! [`ServeError::Permanent`] (resubmitting cannot help).

use std::time::Duration;

use marius_storage::StorageError;

/// Result alias for query-path operations.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// A typed query failure. See the module docs for the taxonomy.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control shed the query: the in-flight budget was full when
    /// it arrived. Safe to resubmit once load drains.
    Overloaded {
        /// Queries in flight at rejection time.
        in_flight: u64,
        /// The configured in-flight budget.
        limit: u64,
    },
    /// The query ran past its deadline and was abandoned between blocks.
    DeadlineExceeded {
        /// Time elapsed when the deadline check fired.
        elapsed: Duration,
        /// The configured per-query deadline.
        deadline: Duration,
    },
    /// A transient storage fault survived every retry layer below this query.
    /// Safe to resubmit; the underlying reason (including the spent retry
    /// budget) is preserved.
    Transient {
        /// Root-cause description.
        reason: String,
    },
    /// A permanent fault — dead device, corrupt snapshot, failed checksum
    /// verification. Resubmitting the query cannot help.
    Permanent {
        /// Root-cause description.
        reason: String,
    },
    /// The query itself is malformed (for example an out-of-range node id).
    InvalidQuery {
        /// What was wrong with the query.
        reason: String,
    },
}

impl ServeError {
    /// Whether resubmitting the query later may succeed. Overload and
    /// deadline rejections are retryable by the client; permanent faults and
    /// malformed queries are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded { .. }
                | ServeError::DeadlineExceeded { .. }
                | ServeError::Transient { .. }
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { in_flight, limit } => write!(
                f,
                "query shed: {in_flight} queries in flight at the budget of {limit}"
            ),
            ServeError::DeadlineExceeded { elapsed, deadline } => write!(
                f,
                "deadline exceeded: {elapsed:?} elapsed against a deadline of {deadline:?}"
            ),
            ServeError::Transient { reason } => write!(f, "transient serve error: {reason}"),
            ServeError::Permanent { reason } => write!(f, "permanent serve error: {reason}"),
            ServeError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StorageError> for ServeError {
    fn from(e: StorageError) -> Self {
        if e.is_transient() {
            ServeError::Transient {
                reason: e.to_string(),
            }
        } else if matches!(e, StorageError::InvalidPlan { .. }) {
            // The backend reports malformed queries (out-of-range ids)
            // through InvalidPlan; everything else non-transient is a real
            // storage-side failure.
            ServeError::InvalidQuery {
                reason: e.to_string(),
            }
        } else {
            ServeError::Permanent {
                reason: e.to_string(),
            }
        }
    }
}

/// Lets facade callers (`marius::Result` is `marius_storage::Result`) use
/// `?` on query results: the transient classification round-trips, everything
/// else lands in the storage taxonomy's closest variant.
impl From<ServeError> for StorageError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Transient { reason } => StorageError::Transient { reason },
            ServeError::InvalidQuery { reason } => StorageError::InvalidPlan { reason },
            other => StorageError::Pipeline {
                stage: "serve".to_string(),
                reason: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_errors_classify_by_transience() {
        let e: ServeError = StorageError::transient("blip").into();
        assert!(matches!(e, ServeError::Transient { .. }) && e.is_transient());

        let e: ServeError = StorageError::checkpoint("bad blob").into();
        assert!(matches!(e, ServeError::Permanent { .. }) && !e.is_transient());

        let e: ServeError = StorageError::InvalidPlan {
            reason: "node 9 out of range".into(),
        }
        .into();
        assert!(matches!(e, ServeError::InvalidQuery { .. }) && !e.is_transient());

        let e: ServeError = StorageError::Io(std::io::Error::other("dead device")).into();
        assert!(matches!(e, ServeError::Permanent { .. }));
    }

    #[test]
    fn admission_errors_are_retryable_by_the_client() {
        assert!(ServeError::Overloaded {
            in_flight: 8,
            limit: 8
        }
        .is_transient());
        assert!(ServeError::DeadlineExceeded {
            elapsed: Duration::from_millis(3),
            deadline: Duration::from_millis(1),
        }
        .is_transient());
    }

    #[test]
    fn round_trip_to_storage_preserves_transience() {
        let e: StorageError = ServeError::Transient {
            reason: "still flaky".into(),
        }
        .into();
        assert!(e.is_transient());
        let e: StorageError = ServeError::Permanent {
            reason: "dead".into(),
        }
        .into();
        assert!(!e.is_transient());
        assert!(format!("{e}").contains("serve"), "{e}");
    }
}

//! Chronological (temporal) edge-split utilities.
//!
//! The synthetic datasets carry an implicit timestamp: the position of an edge
//! in the generated edge list *is* its time. The generator emits edges in
//! draw order (time `0..E-1`), and the streaming ingest path appends new edges
//! strictly after the base list (time `E`, `E+1`, …). Temporal tasks therefore
//! never need an explicit time column — index order is time order.
//!
//! # Split rules
//!
//! [`chronological_split`] freezes the evaluation windows over the **base**
//! prefix of the edge list (the first `base_len` edges, i.e. the dataset as
//! originally generated):
//!
//! * **test** — the newest `h` base edges,
//! * **valid** — the `h` base edges immediately before the test window,
//! * **train** — every older base edge, **plus every streamed edge** (index
//!   `>= base_len`) in time order,
//!
//! where `h = ``holdout_size``(base_len)` (the same 1%-bounded holdout rule
//! the strided link-prediction split uses). Two properties follow directly
//! and are what the streaming trainer relies on:
//!
//! * **Leak-free** — every train edge from the base prefix is strictly older
//!   than every valid edge, which is strictly older than every test edge.
//!   Streamed train edges are newer than the eval windows by construction,
//!   which is the fine-tuning regime: the model trains on the present while
//!   being evaluated on a frozen held-out past window.
//! * **Append-stable** — the split of a grown list equals the split of the
//!   base list with the streamed suffix appended to `train`. Growing the
//!   dataset never moves an edge between splits, so evaluation stays
//!   bit-comparable across ingest cycles, and the split is independent of how
//!   the streamed suffix was chunked into ingest batches.

use crate::{Edge, NodeId};

/// Number of held-out edges per evaluation window (valid and test each) for a
/// base edge list of `base_len` edges: 1% of the base, at least 1, at most
/// 2000 — bounded so MRR evaluation stays cheap at every scale.
pub(crate) fn holdout_size(base_len: usize) -> usize {
    ((base_len as f64 * 0.01) as usize).clamp(1, 2000)
}

/// A chronological train/valid/test split of a timestamped edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChronologicalSplit {
    /// Training edges: the oldest base edges plus every streamed edge, in
    /// time order.
    pub train: Vec<Edge>,
    /// Validation edges: the second-newest holdout window of the base prefix.
    pub valid: Vec<Edge>,
    /// Test edges: the newest holdout window of the base prefix.
    pub test: Vec<Edge>,
    /// The base-prefix length the evaluation windows were frozen over.
    pub base_len: usize,
}

/// Splits `edges` chronologically, freezing the eval windows over the first
/// `base_len` edges. See the module docs for the exact rules.
///
/// # Panics
///
/// Panics if `base_len` is zero, exceeds `edges.len()`, or is too small to
/// leave a non-empty training window (`base_len <= 2 * holdout_size`).
pub fn chronological_split(edges: &[Edge], base_len: usize) -> ChronologicalSplit {
    assert!(
        base_len > 0 && base_len <= edges.len(),
        "base_len {base_len} out of range for {} edges",
        edges.len()
    );
    let h = holdout_size(base_len);
    assert!(
        base_len > 2 * h,
        "base_len {base_len} too small for two holdout windows of {h}"
    );
    let train_end = base_len - 2 * h;
    let mut train = Vec::with_capacity(train_end + (edges.len() - base_len));
    train.extend_from_slice(&edges[..train_end]);
    train.extend_from_slice(&edges[base_len..]);
    ChronologicalSplit {
        train,
        valid: edges[train_end..train_end + h].to_vec(),
        test: edges[train_end + h..base_len].to_vec(),
        base_len,
    }
}

/// The nodes observed as endpoints of `edges`, ascending and deduplicated.
///
/// Temporal evaluation draws its ranking candidates from this set computed
/// over the *base training window* only — no node is ranked against the test
/// window unless it was already observed strictly before it ("time-split"
/// negative sampling). The set is frozen over the base window, so streamed
/// edges never change it and evaluation stays bit-comparable across ingest.
pub fn observed_nodes(edges: &[Edge]) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = edges.iter().flat_map(|e| [e.src, e.dst]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Encodes an edge whose source doubles as its timestamp, so split
    /// membership is checkable by inspection.
    fn timed_edges(n: usize) -> Vec<Edge> {
        (0..n as u64).map(|t| Edge::new(t, t + 1)).collect()
    }

    #[test]
    fn holdout_follows_the_bounded_one_percent_rule() {
        assert_eq!(holdout_size(10), 1);
        assert_eq!(holdout_size(1000), 10);
        assert_eq!(holdout_size(1_000_000), 2000);
    }

    #[test]
    fn split_windows_are_chronological_and_exhaustive() {
        let edges = timed_edges(1000);
        let s = chronological_split(&edges, 1000);
        assert_eq!(s.train.len() + s.valid.len() + s.test.len(), 1000);
        assert_eq!(s.valid.len(), 10);
        assert_eq!(s.test.len(), 10);
        // Strict time ordering between the windows.
        let max_train = s.train.iter().map(|e| e.src).max().unwrap();
        let min_valid = s.valid.iter().map(|e| e.src).min().unwrap();
        let max_valid = s.valid.iter().map(|e| e.src).max().unwrap();
        let min_test = s.test.iter().map(|e| e.src).min().unwrap();
        assert!(max_train < min_valid);
        assert!(max_valid < min_test);
    }

    #[test]
    fn streamed_suffix_appends_to_train_only() {
        let edges = timed_edges(600);
        let base = chronological_split(&edges[..500], 500);
        let grown = chronological_split(&edges, 500);
        assert_eq!(grown.valid, base.valid);
        assert_eq!(grown.test, base.test);
        assert_eq!(grown.train[..base.train.len()], base.train[..]);
        assert_eq!(&grown.train[base.train.len()..], &edges[500..]);
    }

    #[test]
    fn observed_nodes_sorted_and_deduplicated() {
        let edges = vec![Edge::new(5, 2), Edge::new(2, 9), Edge::new(5, 9)];
        assert_eq!(observed_nodes(&edges), vec![2, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_base_panics() {
        let edges = timed_edges(2);
        let _ = chronological_split(&edges, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The split is a pure function of the edge list: re-splitting yields
        /// identical windows (seed stability of everything derived from it).
        #[test]
        fn split_is_deterministic(base in 10usize..400, extra in 0usize..100) {
            let edges = timed_edges(base + extra);
            let a = chronological_split(&edges, base);
            let b = chronological_split(&edges, base);
            prop_assert!(a == b);
        }

        /// No eval edge shares a timestamp with (or predates) a base train
        /// edge: the eval windows sit strictly after the base train window.
        #[test]
        fn split_is_leak_free(base in 10usize..400, extra in 0usize..100) {
            let edges = timed_edges(base + extra);
            let s = chronological_split(&edges, base);
            let h = holdout_size(base);
            let train_end = (base - 2 * h) as u64;
            for e in s.valid.iter().chain(&s.test) {
                prop_assert!(e.src >= train_end);
            }
            // Base train edges all predate the eval windows; streamed train
            // edges all postdate them.
            for e in &s.train {
                prop_assert!(e.src < train_end || e.src >= base as u64);
            }
        }

        /// The split only depends on the concatenated edge list, not on how
        /// the streamed suffix was chunked into ingest batches.
        #[test]
        fn split_ignores_ingest_batch_boundaries(
            base in 10usize..200,
            chunks in proptest::collection::vec(0usize..40, 0..6),
        ) {
            let streamed: usize = chunks.iter().sum();
            let edges = timed_edges(base + streamed);
            // Re-assemble the grown list chunk by chunk, as ingest would.
            let mut grown = edges[..base].to_vec();
            let mut offset = base;
            for c in &chunks {
                grown.extend_from_slice(&edges[offset..offset + c]);
                offset += c;
            }
            prop_assert!(
                chronological_split(&grown, base) == chronological_split(&edges, base)
            );
        }
    }
}

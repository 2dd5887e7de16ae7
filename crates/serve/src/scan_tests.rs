//! Tests of the block scan against an independent reference: both backends,
//! every query kind, bit for bit — plus the scan's fetch accounting and its
//! deadline behaviour.
//!
//! The reference deliberately keeps the shape of the scan this crate used to
//! run: gather the candidate rows into a fresh tensor, score them with the
//! general batched product (`score_negatives` with two sources; k-NN is
//! `rows · query` through `Tensor::matmul`), sort *everything* under
//! `rank_order`, truncate.

use std::time::Duration;

use marius_gnn::DistMult;
use marius_graph::{NodeId, PartitionId, Partitioner, RelId};
use marius_storage::{IoEnv, PartitionStore};
use marius_telemetry::Telemetry;
use marius_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::admission::{Admission, QueryClock};
use crate::backend::Backend;
use crate::cache::ReadCache;
use crate::{rank_order, Prediction, ServeError, Snapshot};

const RELATIONS: usize = 3;

/// One table served twice: from memory and through a read cache over
/// `partitions` partition files under `budget` bytes.
struct Fixture {
    table: Vec<f32>,
    dim: usize,
    mem: Snapshot,
    ooc: Snapshot,
    /// Value bytes of every partition the cache did not admit.
    cold_value_bytes: u64,
    cold_partitions: u64,
    /// Some node of an admitted partition.
    hot_node: NodeId,
    telemetry: Telemetry,
    store: PartitionStore,
}

impl Fixture {
    fn new(label: &str, table: Vec<f32>, dim: usize, partitions: u32, budget: u64) -> Self {
        let n = table.len() / dim;
        let mut rng = StdRng::seed_from_u64(partitions as u64 * 31 + n as u64);
        let assignment = Partitioner::new(partitions)
            .unwrap()
            .random(n as u64, &mut rng);
        let telemetry = Telemetry::enabled();
        let env = IoEnv {
            telemetry: telemetry.clone(),
            ..IoEnv::default()
        };
        let store = env.open_store(PartitionStore::temp_path(label)).unwrap();
        store.clear().unwrap();
        for p in 0..partitions {
            let values: Vec<f32> = assignment
                .nodes_in(p)
                .iter()
                .flat_map(|&node| table[node as usize * dim..][..dim].iter().copied())
                .collect();
            // A non-zero state block: reading it by mistake would show.
            let state = vec![7.0f32; values.len()];
            store.write_partition(p, &values, &state).unwrap();
        }
        let heat: Vec<PartitionId> = (0..partitions).rev().collect();
        let sizes = assignment.partition_sizes();
        let cache = ReadCache::new(&heat, &sizes, dim, budget, &telemetry);
        let cold_value_bytes = (table.len() * 4) as u64 - cache.admitted_bytes();
        let cold_partitions = u64::from(partitions) - cache.admitted_partitions() as u64;
        // The hottest partition is admitted whatever the budget.
        let hot_node = assignment.nodes_in(heat[0]).first().copied().unwrap_or(0);
        let snapshot = |backend| Snapshot {
            epoch: 1,
            decoder: DistMult::new(RELATIONS, dim, &mut StdRng::seed_from_u64(5)),
            backend,
            dim,
            num_nodes: n as u64,
            num_relations: RELATIONS,
        };
        Fixture {
            mem: snapshot(Backend::in_memory(table.clone(), dim)),
            ooc: snapshot(Backend::out_of_core(store.clone(), assignment, cache, dim)),
            table,
            dim,
            cold_value_bytes,
            cold_partitions,
            hot_node,
            telemetry,
            store,
        }
    }

    fn num_nodes(&self) -> usize {
        self.table.len() / self.dim
    }

    fn rows_of(&self, nodes: &[NodeId]) -> Tensor {
        let data = nodes
            .iter()
            .flat_map(|&node| self.table[node as usize * self.dim..][..self.dim].iter())
            .copied()
            .collect();
        Tensor::from_vec(data, nodes.len(), self.dim)
    }

    fn reference_top_k(
        &self,
        src: NodeId,
        rel: RelId,
        k: usize,
        candidates: &[NodeId],
    ) -> Vec<Prediction> {
        let scores = self.mem.decoder.score_negatives(
            &self.rows_of(&[src, src]),
            &[rel, rel],
            &self.rows_of(candidates),
        );
        let scored = candidates.iter().enumerate().map(|(i, &node)| Prediction {
            node,
            score: scores.get(0, i),
        });
        ranked(scored.collect(), k)
    }

    fn reference_knn(&self, node: NodeId, k: usize) -> Vec<Prediction> {
        let all: Vec<NodeId> = (0..self.num_nodes() as NodeId).collect();
        let sims = self
            .rows_of(&all)
            .matmul(&self.rows_of(&[node]).transpose());
        let scored = all
            .iter()
            .filter(|&&cand| cand != node)
            .map(|&cand| Prediction {
                node: cand,
                score: sims.get(cand as usize, 0),
            });
        ranked(scored.collect(), k)
    }

    /// `server.cache.hit + miss + bypass` and `storage.bytes_read` so far.
    fn fetches_and_bytes(&self) -> (u64, u64) {
        let snap = self.telemetry.metrics_snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        (
            count("server.cache.hit") + count("server.cache.miss") + count("server.cache.bypass"),
            count("storage.bytes_read"),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.store.root());
    }
}

fn ranked(mut all: Vec<Prediction>, k: usize) -> Vec<Prediction> {
    all.sort_by(rank_order);
    all.truncate(k);
    all
}

fn bits(predictions: &[Prediction]) -> Vec<(NodeId, u32)> {
    predictions
        .iter()
        .map(|p| (p.node, p.score.to_bits()))
        .collect()
}

fn no_deadline() -> QueryClock {
    Admission::new(None, None, &Telemetry::disabled()).clock()
}

fn zero_deadline() -> QueryClock {
    Admission::new(None, Some(Duration::ZERO), &Telemetry::disabled()).clock()
}

/// A table built to tie: values from a small exactly-summable lattice (or
/// arbitrary floats, where the accumulation order shows in the low bits), a
/// `0.0`/`-0.0` first column, and every third row a copy of an earlier one.
fn table(n: usize, dim: usize, lattice: bool, seed: u64) -> Vec<f32> {
    const LATTICE: [f32; 6] = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table: Vec<f32> = (0..n * dim)
        .map(|_| match lattice {
            true => LATTICE[rng.gen_range(0..LATTICE.len())],
            false => rng.gen_range(-1.0f32..1.0),
        })
        .collect();
    for node in 0..n {
        if node % 3 == 2 {
            let twin = rng.gen_range(0..node);
            table.copy_within(twin * dim..(twin + 1) * dim, node * dim);
        }
        table[node * dim] = if node % 2 == 0 { 0.0 } else { -0.0 };
    }
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_backends_equal_the_brute_force_reference(
        n in prop_oneof![1usize..=80, 1020usize..=1100],
        dim in 1usize..=9,
        partitions in 1u32..=9,
        budget_share in 0u64..=4,
        lattice in 0u8..=1,
        seed in 0u64..1_000_000,
    ) {
        let table_bytes = (n * dim * 4) as u64;
        // 1 byte, a quarter, a half, three quarters, the whole table.
        let budget = (table_bytes * budget_share / 4).max(1);
        let fx = Fixture::new("scan-prop", table(n, dim, lattice == 1, seed), dim, partitions, budget);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let clock = no_deadline();
        for _ in 0..3 {
            let src = rng.gen_range(0..n as NodeId);
            let rel = rng.gen_range(0..2 * RELATIONS as RelId);
            let everyone: Vec<NodeId> = (0..n as NodeId).collect();
            // Explicit candidates: any length up to 2n, so duplicates occur.
            let some: Vec<NodeId> = (0..rng.gen_range(0..=2 * n))
                .map(|_| rng.gen_range(0..n as NodeId))
                .collect();
            for k in [0, 1, rng.gen_range(1..=n), n + 3] {
                let want = bits(&fx.reference_top_k(src, rel, k, &everyone));
                let want_among = bits(&fx.reference_top_k(src, rel, k, &some));
                let want_knn = bits(&fx.reference_knn(src, k));
                for (name, snap) in [("memory", &fx.mem), ("read cache", &fx.ooc)] {
                    let got = snap.top_k(src, rel, k, None, &clock).unwrap();
                    prop_assert_eq!(bits(&got), want.clone(), "top_k {} k={}", name, k);
                    let got = snap.top_k(src, rel, k, Some(&some), &clock).unwrap();
                    prop_assert_eq!(bits(&got), want_among.clone(), "top_k_among {} k={}", name, k);
                    let got = snap.knn(src, k, &clock).unwrap();
                    prop_assert_eq!(bits(&got), want_knn.clone(), "knn {} k={}", name, k);
                }
            }
        }
    }
}

/// Once per partition, as an exact count: a warm full scan asks the cache for
/// every partition once plus once for the source row, and reads from the
/// store exactly the header and value bytes of the partitions the cache does
/// not hold — never their optimizer state, never a partition twice.
#[test]
fn a_full_scan_fetches_each_partition_exactly_once() {
    let (n, dim, partitions) = (2_500usize, 4usize, 7u32);
    let budget = (n * dim * 4 / 3) as u64;
    let fx = Fixture::new(
        "scan-count",
        table(n, dim, false, 9),
        dim,
        partitions,
        budget,
    );
    assert!(fx.cold_partitions > 0 && fx.cold_partitions < u64::from(partitions));
    let clock = no_deadline();
    let src = fx.hot_node;
    fx.ooc.top_k(src, 1, 10, None, &clock).unwrap(); // warm the admitted set

    let scan_bytes = fx.cold_value_bytes + 8 * fx.cold_partitions;
    let (fetches, bytes) = fx.fetches_and_bytes();
    fx.ooc.top_k(src, 1, 10, None, &clock).unwrap();
    let after_top_k = fx.fetches_and_bytes();
    assert_eq!(after_top_k.0 - fetches, u64::from(partitions) + 1);
    assert_eq!(after_top_k.1 - bytes, scan_bytes);

    fx.ooc.knn(src, 10, &clock).unwrap();
    let after_knn = fx.fetches_and_bytes();
    assert_eq!(after_knn.0 - after_top_k.0, u64::from(partitions) + 1);
    assert_eq!(after_knn.1 - after_top_k.1, scan_bytes);

    // Point lookups: one fetch per *distinct* partition, however the list
    // interleaves them and whichever side of a triple a node is on.
    let everyone: Vec<NodeId> = (0..n as NodeId).rev().collect();
    fx.ooc.top_k(src, 1, 10, Some(&everyone), &clock).unwrap();
    let after_among = fx.fetches_and_bytes();
    assert_eq!(after_among.0 - after_knn.0, u64::from(partitions) + 1);
    assert_eq!(after_among.1 - after_knn.1, scan_bytes);

    let triples: Vec<(NodeId, RelId, NodeId)> = (0..64)
        .map(|i| (i as NodeId, 0, (n - 1 - i) as NodeId))
        .collect();
    let scores = fx.ooc.score_pairs(&triples, &clock).unwrap();
    let after_pairs = fx.fetches_and_bytes();
    assert_eq!(after_pairs.0 - after_among.0, u64::from(partitions));
    assert_eq!(after_pairs.1 - after_among.1, scan_bytes);
    assert_eq!(
        scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        fx.mem
            .score_pairs(&triples, &clock)
            .unwrap()
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>()
    );
}

/// Duplicates are scored once per occurrence; an out-of-range id anywhere in
/// the list fails the query with the first offender, on both backends.
#[test]
fn explicit_candidates_keep_duplicates_and_reject_out_of_range_ids() {
    let (n, dim) = (30usize, 3usize);
    let fx = Fixture::new("scan-among", table(n, dim, true, 3), dim, 4, 64);
    let clock = no_deadline();
    for snap in [&fx.mem, &fx.ooc] {
        let got = snap.top_k(1, 0, 4, Some(&[7, 7, 7, 2]), &clock).unwrap();
        assert_eq!(got.iter().filter(|p| p.node == 7).count(), 3);
        assert_eq!(
            bits(&got),
            bits(&fx.reference_top_k(1, 0, 4, &[7, 7, 7, 2]))
        );
        assert!(snap.top_k(1, 0, 4, Some(&[]), &clock).unwrap().is_empty());

        let err = snap.top_k(1, 0, 4, Some(&[2, 99, 5, 1000]), &clock);
        match err {
            Err(ServeError::InvalidQuery { reason }) => {
                assert!(reason.contains("node 99 is out of range"), "{reason}")
            }
            other => panic!("expected an invalid-query rejection, got {other:?}"),
        }
        let err = snap.score_pairs(&[(0, 0, 1), (2, 0, 31), (30, 0, 1)], &clock);
        match err {
            // Sources are validated before destinations, as two gathers did.
            Err(ServeError::InvalidQuery { reason }) => {
                assert!(reason.contains("node 30 is out of range"), "{reason}")
            }
            other => panic!("expected an invalid-query rejection, got {other:?}"),
        }
    }
}

/// A zero deadline is refused before the first block is touched: no callback
/// runs and, out of core, the cache is never asked for anything.
#[test]
fn a_zero_deadline_is_rejected_before_the_first_block() {
    let (n, dim) = (40usize, 2usize);
    let fx = Fixture::new("scan-deadline", table(n, dim, true, 1), dim, 5, 1);
    let clock = zero_deadline();
    let expired = |r: Result<(), ServeError>| matches!(r, Err(ServeError::DeadlineExceeded { .. }));
    for snap in [&fx.mem, &fx.ooc] {
        let mut blocks = 0;
        assert!(expired(
            snap.backend.for_each_block(&clock, |_, _| blocks += 1)
        ));
        assert!(expired(snap.backend.for_each_row(
            &[3, 4],
            &clock,
            |_, _| blocks += 1
        )));
        assert_eq!(blocks, 0);
        assert!(expired(snap.top_k(3, 0, 5, None, &clock).map(drop)));
        assert!(expired(
            snap.top_k(3, 0, 5, Some(&[1, 2]), &clock).map(drop)
        ));
        assert!(expired(snap.knn(3, 5, &clock).map(drop)));
        assert!(expired(snap.score_pairs(&[(1, 0, 2)], &clock).map(drop)));
    }
    assert_eq!(fx.fetches_and_bytes(), (0, 0));
}

//! The two serving workloads: the same DistMult checkpoint, query list and
//! two closed-loop clients, answered from memory (`serve_mem`) or through a
//! read cache a third the size of the table (`serve_cache`).

use crate::json::{num, text};
use crate::probes;
use crate::run::{burn_in, repeat_setup, spanned, Ctx, EndToEnd, Outcome};
use crate::spans;
use crate::spec::Workload;
use crate::stats::{fastest_window, median, peak_rss_mb, percentile_name, tail, Fnv};
use crate::train::{collect_spans, setup_layers};
use marius::graph::datasets::DatasetSpec;
use marius::graph::{NodeId, RelId};
use marius::telemetry::NO_LABEL;
use marius::{
    DiskConfig, ModelConfig, Prediction, ServeConfig, ServeResult, Server, Session, Storage,
    TrainConfig, ZipfWorkload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Closed-loop clients: callers of an embedded `Server` wait for their reply.
/// Query `i` goes to client `i % CLIENTS`; the box has two cores.
const CLIENTS: usize = 2;
const PARTITIONS: u32 = 16;
const PAIRS_PER_QUERY: usize = 16;
const K: usize = 10;
/// `marius_serve` scores candidates in chunks of this many rows; the decoder
/// probe uses the same shape.
const SCAN_CHUNK: usize = 1024;

enum Query {
    Pairs(Vec<(NodeId, RelId, NodeId)>),
    TopK(NodeId, RelId),
    Knn(NodeId),
}

const KINDS: [&str; 3] = [
    "bench.query.pairwise",
    "bench.query.topk",
    "bench.query.knn",
];

impl Query {
    fn kind(&self) -> usize {
        match self {
            Query::Pairs(_) => 0,
            Query::TopK(..) => 1,
            Query::Knn(_) => 2,
        }
    }

    /// Runs the query and digests the answer's exact bits.
    fn answer(&self, server: &Server) -> ServeResult<u64> {
        let mut h = Fnv::default();
        let mut ranked = |predictions: Vec<Prediction>| {
            for p in predictions {
                h.u64(p.node);
                h.u64(u64::from(p.score.to_bits()));
            }
        };
        match self {
            Query::Pairs(triples) => {
                for score in server.score_pairs(triples)? {
                    h.u64(u64::from(score.to_bits()));
                }
            }
            Query::TopK(src, rel) => ranked(server.top_k(*src, *rel, K)?),
            Query::Knn(node) => ranked(server.knn(*node, K)?),
        }
        Ok(h.0)
    }
}

/// The query list: Zipf(1.0) node popularity, 20 % pairwise x16, 60 % top-k,
/// 20 % k-NN. Generated once; every pass replays it.
///
/// Top-k is more than half of the mix on purpose. With exactly half, and the
/// other two families both cheaper (a k-NN scan costs about 3/4 of a top-k
/// scan), the median query sits on the boundary between the k-NN and the
/// top-k cluster and jumps from one to the other with the seed's exact
/// counts (1.84 vs 2.48 ms).
fn query_list(ctx: &Ctx, server: &Server, count: usize) -> Vec<Query> {
    let mut zipf = ZipfWorkload::new(
        server.num_nodes(),
        server.num_relations() as u32,
        1.0,
        ctx.seed(3),
    );
    let mut mix = StdRng::seed_from_u64(ctx.seed(6));
    (0..count)
        .map(|_| match mix.gen_range(0..5u32) {
            0 => Query::Pairs((0..PAIRS_PER_QUERY).map(|_| zipf.next_triple()).collect()),
            1..=3 => Query::TopK(zipf.next_node(), zipf.next_relation()),
            _ => Query::Knn(zipf.next_node()),
        })
        .collect()
}

#[derive(Default)]
struct Pass {
    wall_s: f64,
    /// Queries per second, summed over the clients: each client's count over
    /// its own loop time. A closed-loop client's rate is its own; the wait of
    /// the faster client for the slower one at the end of a pass is the
    /// harness's barrier, not the server's doing.
    qps: f64,
    /// Latency in seconds of every answered query, by kind.
    latency_s: [Vec<f64>; 3],
    /// Queries that errored, were refused, or disagreed with the oracle.
    failed: u64,
}

impl Pass {
    fn all_ms(&self) -> Vec<f64> {
        self.latency_s.iter().flatten().map(|s| s * 1e3).collect()
    }
}

/// One pass over `queries` from [`CLIENTS`] threads, each checking its answers
/// against `oracle` as they arrive.
fn run_pass(ctx: &Ctx, server: &Server, queries: &[Query], oracle: &[u64], pass: i64) -> Pass {
    let start = Instant::now();
    let per_client: Vec<Pass> = std::thread::scope(|threads| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                threads.spawn(move || {
                    let mut track = ctx.telemetry.scope("bench.client");
                    track.begin("bench.pass", pass, NO_LABEL);
                    let mut mine = Pass::default();
                    let (mut asked, begun) = (0usize, Instant::now());
                    for (i, query) in queries.iter().enumerate().skip(client).step_by(CLIENTS) {
                        asked += 1;
                        track.begin(KINDS[query.kind()], i as i64, NO_LABEL);
                        let sent = Instant::now();
                        let answer = query.answer(server);
                        let latency = sent.elapsed().as_secs_f64();
                        track.end();
                        match answer {
                            Ok(digest) if digest == oracle[i] => {
                                mine.latency_s[query.kind()].push(latency)
                            }
                            _ => mine.failed += 1,
                        }
                    }
                    mine.qps = asked as f64 / begun.elapsed().as_secs_f64();
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        ..Default::default()
    };
    for client in per_client {
        merged.failed += client.failed;
        merged.qps += client.qps;
        for (all, mine) in merged.latency_s.iter_mut().zip(client.latency_s) {
            all.extend(mine);
        }
    }
    merged
}

/// Set-up: generate the dataset, train DistMult for one epoch out of core
/// into a fresh checkpoint directory, open the server under test on it.
/// Returns the last repetition's server and directory.
fn setup(ctx: &Ctx, config: impl Fn(u64) -> ServeConfig) -> ((Server, PathBuf), Vec<f64>) {
    let spec = DatasetSpec::fb15k_237().scaled(ctx.sizes.scale);
    let mut train = TrainConfig::quick(1, ctx.seed(2));
    train.num_negatives = 32;
    let table_bytes = spec.num_nodes * ctx.sizes.dim as u64 * 4;
    repeat_setup(ctx, &spec, |id, data| {
        let dir = ctx.tmp.join(format!("checkpoint-{id}"));
        let (mut session, _) = spanned(&ctx.scope, "bench.session_build", id, || {
            Session::builder()
                .dataset(data)
                .model(ModelConfig::paper_distmult(ctx.sizes.dim))
                .train(train.clone())
                .storage(Storage::Disk(DiskConfig::comet(PARTITIONS, 4)))
                .checkpoint_to(&dir, 1)
                .telemetry(&ctx.telemetry)
                .build()
                .expect("valid session configuration")
        });
        spanned(&ctx.scope, "bench.checkpoint_train", id, || {
            session.train().expect("checkpoint training succeeds")
        });
        let (server, _) = spanned(&ctx.scope, "bench.serve_open", id, || {
            Server::from_checkpoint_with(&dir, config(table_bytes).with_telemetry(&ctx.telemetry))
                .expect("checkpoint opens")
        });
        (server, dir)
    })
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Size in MB of the newest checkpoint version under `root`.
pub fn newest_checkpoint_mb(root: &Path) -> f64 {
    std::fs::read_to_string(root.join("LATEST"))
        .map(|name| dir_bytes(&root.join(name.trim())) as f64 / 1e6)
        .unwrap_or(0.0)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let cached = ctx.args.workload == Workload::ServeCache;
    let ((server, dir), setup_samples) = setup(ctx, |table_bytes| {
        if cached {
            // Working set three times the cache: the Zipf tail pays reads.
            ServeConfig::read_cache(table_bytes / 3)
        } else {
            ServeConfig::in_memory()
        }
    });

    // The oracle: a separate in-memory server, one thread, telemetry off.
    let queries = query_list(ctx, &server, ctx.sizes.queries_per_pass);
    let oracle_server = Server::from_checkpoint(&dir).expect("checkpoint opens in memory");
    let oracle: Vec<u64> = queries
        .iter()
        .map(|q| {
            q.answer(&oracle_server)
                .expect("the oracle answers every query")
        })
        .collect();
    drop(oracle_server);
    let mut digest = Fnv::default();
    oracle.iter().for_each(|d| digest.u64(*d));

    let counter = |name: &str| ctx.telemetry.metrics_snapshot().counter(name).unwrap_or(0);
    burn_in(ctx);
    let cold = run_pass(ctx, &server, &queries, &oracle, -1);
    let cache_counters = [
        "server.cache.hit",
        "server.cache.miss",
        "server.cache.bypass",
        "storage.bytes_read",
    ];
    let before = cache_counters.map(counter);
    let passes: Vec<Pass> = (0..ctx.sizes.units)
        .map(|pass| run_pass(ctx, &server, &queries, &oracle, pass as i64))
        .collect();
    let during: Vec<u64> = cache_counters
        .iter()
        .zip(before)
        .map(|(name, b)| counter(name) - b)
        .collect();

    let asked = (queries.len() * passes.len()) as u64;
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    ctx.ops.add(
        queries.len() as u64,
        cold.failed,
        "warm-pass queries failed or disagreed with the oracle",
    );
    ctx.ops.add(
        asked,
        failed,
        "timed queries failed or disagreed with the oracle",
    );

    // Every pass replays the same list, so the passes differ only in how
    // much the host disturbed them: each metric is its best pass's.
    let tails: Vec<(f64, f64)> = passes.iter().map(|p| tail(&p.all_ms())).collect();
    let best = |per_pass: Vec<f64>| fastest_window(&per_pass, 1);
    let e2e = EndToEnd {
        setup_samples,
        run_s: passes.iter().map(|p| p.wall_s).sum(),
        throughput: passes.iter().map(|p| p.qps).fold(0.0, f64::max),
        latency_p50_ms: best(passes.iter().map(|p| median(&p.all_ms())).collect()),
        latency_tail_ms: best(tails.iter().map(|t| t.1).collect()),
        tail_kind: percentile_name(tails[0].0),
        latency_samples: queries.len(),
        quality: (asked - failed) as f64 / asked as f64,
        peak_rss_mb: peak_rss_mb(),
    };
    let mut out = Outcome {
        e2e,
        ..Default::default()
    };
    out.note("oracle_digest", text(format!("{:016x}", digest.0)));
    out.note("queries_per_pass", num(queries.len() as f64));
    out.note("timed_passes", num(passes.len() as f64));
    if !ctx.args.traced {
        return out;
    }

    let health = server.health();
    let spans = collect_spans(ctx);
    setup_layers(&mut out.layers, &spans);
    let by_kind = |kind: usize| {
        let pooled: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.latency_s[kind].iter().map(|s| s * 1e6))
            .collect();
        median(&pooled)
    };
    let lookups = during[0] + during[1] + during[2];
    out.layers.extend([
        ("serve.pairwise_us_p50", by_kind(0)),
        ("serve.topk_us_p50", by_kind(1)),
        ("serve.knn_us_p50", by_kind(2)),
        (
            "serve.cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                during[0] as f64 / lookups as f64
            },
        ),
        ("serve.cache_read_mb", during[3] as f64 / 1e6),
        ("serve.store_retries", health.store_retries as f64),
        (
            "serve.rejected",
            (health.shed + health.deadline_exceeded) as f64,
        ),
        (
            "serve.open_s",
            median(&spans::durations(&spans, "bench.serve_open")),
        ),
        ("serve.cold_pass_s", cold.wall_s),
        (
            "core.checkpoint_write_s",
            median(&spans::durations(&spans, "epoch.checkpoint")),
        ),
        ("core.checkpoint_mb", newest_checkpoint_mb(&dir)),
    ]);
    let rng = &mut probes::rng(ctx.seed(5));
    probes::decoder(
        &mut out.layers,
        rng,
        server.num_relations() as u32,
        server.dim(),
        1,
        SCAN_CHUNK,
    );
    let rows = (server.num_nodes() / u64::from(PARTITIONS)) as usize;
    probes::storage(&mut out.layers, rng, &ctx.tmp, rows, server.dim());
    probes::table(
        &mut out.layers,
        rng,
        server.num_nodes() as usize,
        server.dim(),
        SCAN_CHUNK,
    );
    out
}

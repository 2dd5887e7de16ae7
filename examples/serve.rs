//! Train → checkpoint → serve: stand up a read-only query server over a
//! finished out-of-core run and answer link-prediction queries from four
//! threads.
//!
//! The server pages node embeddings through a byte-budgeted hot-partition
//! read cache (admission ranked by COMET plan heat), so only the hottest
//! partitions stay resident while cold ones read through to disk. Queries
//! are pure lookups plus decoder kernels — no RNG — so every answer is
//! bit-identical regardless of thread count or cache budget.
//!
//! All artifacts stay under `target/`; nothing is written to the repo root.
//!
//! Run with: `cargo run --release --example serve`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::{
    DiskConfig, ModelConfig, ServeConfig, Session, Storage, Telemetry, TrainConfig, ZipfWorkload,
};

fn main() -> marius::Result<()> {
    let ckpt_dir = std::path::Path::new("target/serve-example/checkpoints");
    let _ = std::fs::remove_dir_all(ckpt_dir);

    // 1. Train a small decoder-only (DistMult) model out of core and
    //    checkpoint every epoch. Serving is decoder-only by design: base
    //    embeddings are directly comparable without an encoder pass.
    let spec = DatasetSpec::fb15k_237().scaled(0.05);
    let data = ScaledDataset::generate(&spec, 7);
    println!(
        "Training DistMult on {}: {} nodes, {} train edges",
        spec.name,
        data.num_nodes(),
        data.train_edges.len()
    );
    let mut train = TrainConfig::quick(2, 7);
    train.batch_size = 512;
    train.num_negatives = 64;
    let mut session = Session::builder()
        .dataset(data)
        .model(ModelConfig::paper_distmult(16))
        .train(train)
        .storage(Storage::Disk(DiskConfig::comet(16, 4)))
        .checkpoint_to(ckpt_dir, 1)
        .build()?;
    let report = session.train()?;
    println!("{}", report.to_table());

    // 2. Reopen the checkpoint as a server. A budget of 32 KiB holds only
    //    the hottest partitions; the rest read through on demand.
    let telemetry = Telemetry::enabled();
    let server =
        session.serve_with(ServeConfig::read_cache(32 << 10).with_telemetry(&telemetry))?;
    println!(
        "\nServing {} nodes x {} dims, {} relations; cache admits {}/{} partitions ({} bytes of {})",
        server.num_nodes(),
        server.dim(),
        server.num_relations(),
        server.cache_admitted_partitions().unwrap_or(0),
        16,
        server.cache_admitted_bytes().unwrap_or(0),
        server.cache_budget_bytes().unwrap_or(0),
    );

    // 3. Ask some questions single-threaded.
    println!("\nTop-5 tails for (node 0, relation 3):");
    for p in server.top_k(0, 3, 5)? {
        println!("  node {:>6}  score {:+.4}", p.node, p.score);
    }
    println!("Nearest neighbours of node 42:");
    for p in server.knn(42, 5)? {
        println!("  node {:>6}  cosine-free dot {:+.4}", p.node, p.score);
    }
    let pairs = [(0, 3, 17), (42, 1, 7)];
    println!(
        "Pairwise scores for {pairs:?}: {:?}",
        server.score_pairs(&pairs)?
    );

    // 4. Hammer it from four threads with a zipfian mix and report QPS.
    let queries_per_thread = 500usize;
    let answered = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let server = &server;
            let answered = &answered;
            scope.spawn(move || {
                let mut workload =
                    ZipfWorkload::new(server.num_nodes(), server.num_relations() as u32, 1.0, t);
                for _ in 0..queries_per_thread {
                    let (src, rel, _) = workload.next_triple();
                    server.top_k(src, rel, 10).expect("query");
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "\n4 threads answered {} top-10 queries in {elapsed:.2} s ({:.0} QPS)",
        answered.load(Ordering::Relaxed),
        answered.load(Ordering::Relaxed) as f64 / elapsed
    );

    // 5. The cache counters explain the latency profile. Scans are
    //    partition-major, so every top-k/k-NN query makes exactly one cache
    //    fetch per partition plus one for its own source row: with 16
    //    partitions, hit + miss + bypass = 17 per query. `miss` stops at the
    //    number of admitted partitions (each is read once, then stays
    //    resident), `bypass` counts the cold partitions read through, and
    //    `storage.bytes_read` is those partitions' value bytes, once each per
    //    query. The health snapshot is what a readiness probe would scrape:
    //    served epoch, in-flight load, and every degradation counter (errors,
    //    shed, deadline trips, quarantines, reloads).
    let snap = telemetry.metrics_snapshot();
    for key in [
        "server.cache.hit",
        "server.cache.miss",
        "server.cache.bypass",
        "storage.bytes_read",
    ] {
        println!("  {key:<22} {}", snap.counter(key).unwrap_or(0));
    }
    println!("\nhealth: {:?}", server.health());
    std::fs::create_dir_all("target")?;
    telemetry.write_metrics_json("target/serve_metrics.json")?;
    println!("wrote target/serve_metrics.json");
    Ok(())
}

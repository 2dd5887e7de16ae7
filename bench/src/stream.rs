//! `stream_loop`: ingest -> fine-tune -> checkpoint on one thread while a
//! server on the same directory hot-reloads each version and a probe thread
//! watches for it — the only workload where checkpoint and reload cost are on
//! the blocking path.

use crate::json::{num, text};
use crate::probes;
use crate::run::{begin, burn_in, end, mean, repeat_setup, spanned, Ctx, EndToEnd, Outcome, Scope};
use crate::serve::newest_checkpoint_mb;
use crate::spans;
use crate::stats::{median, peak_rss_mb, percentile_name, tail};
use crate::train::{
    collect_spans, epoch_span_hook, loss_digest, loss_reduction, report_layers, setup_layers,
};
use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::telemetry::Phase;
use marius::{
    DiskConfig, EpochReport, ExperimentReport, ModelConfig, ServeConfig, Server, Session, Storage,
    StreamConfig, TemporalLinkPredictionTask, TrainConfig,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PARTITIONS: u32 = 8;
const BUFFER: usize = 4;
/// One batch of 1024 edges per cycle rather than four of 256: every batch
/// rewrites nearly all 64 bucket files, and on the reference box's disk four
/// rounds of replace-by-rename per cycle made cycle time swing 3x with the
/// host's IO weather (`stream.ingest_apply_ms_per_batch` 13..42 ms).
const BATCH_EDGES: usize = 1024;
const BATCHES_PER_CYCLE: usize = 1;
const EPOCHS_PER_CYCLE: usize = 1;
const WATCH_POLL: Duration = Duration::from_millis(5);
/// Pause between probe polls; a spinning probe would take a core from the
/// trainer on the two-core box.
const PROBE_PAUSE: Duration = Duration::from_millis(2);
/// How long the probe waits for the last version after training ends.
const CATCH_UP: Duration = Duration::from_secs(10);

/// When the epoch hook reported each epoch, and what it ingested.
type Boundaries = Arc<Mutex<Vec<(usize, Instant, u64)>>>;

struct Prepared {
    session: Session<TemporalLinkPredictionTask>,
    dir: std::path::PathBuf,
    boundaries: Boundaries,
    /// The training thread's span track (the probe thread keeps `ctx.scope`).
    track: Scope,
}

/// Set-up as the training workloads measure it (`train::setup`): generate,
/// assemble, and a zero-epoch `train()` for the partitioning and the initial
/// store writes. The session that then streams is built once more, outside
/// the samples.
fn setup(ctx: &Ctx, total_epochs: usize) -> (Prepared, Vec<f64>) {
    let spec = DatasetSpec::fb15k_237().scaled(ctx.sizes.scale);
    let session = |id: i64, data: ScaledDataset, epochs: usize, hook: Option<EpochHook>| {
        let mut train = TrainConfig::quick(epochs, ctx.seed(2));
        train.num_negatives = 32;
        let builder = Session::builder()
            .task(TemporalLinkPredictionTask)
            .dataset(data)
            .model(ModelConfig::paper_distmult(ctx.sizes.dim))
            .train(train)
            .storage(Storage::Disk(DiskConfig::comet(PARTITIONS, BUFFER)))
            .checkpoint_to(ctx.tmp.join(format!("checkpoint-{id}")), 1)
            .telemetry(&ctx.telemetry);
        let builder = match hook {
            Some(hook) => builder.on_epoch(hook),
            None => builder,
        };
        spanned(&ctx.scope, "bench.session_build", id, || {
            builder.build().expect("valid session configuration")
        })
        .0
    };
    let ((), samples) = repeat_setup(ctx, &spec, |id, data| {
        let mut dry = session(id, data, 0, None);
        spanned(&ctx.scope, "bench.train_setup", id, || {
            dry.train().expect("a zero-epoch run succeeds")
        });
    });

    let boundaries = Boundaries::default();
    let track: Scope = Arc::new(Mutex::new(ctx.telemetry.scope("bench.stream")));
    let (seen, epoch_spans) = (boundaries.clone(), epoch_span_hook(&track, total_epochs));
    let hook: EpochHook = Box::new(move |e: &EpochReport| {
        seen.lock().expect("boundary log poisoned").push((
            e.epoch,
            Instant::now(),
            e.edges_ingested,
        ));
        epoch_spans(e);
    });
    let data = ScaledDataset::generate(&spec, ctx.seed(1));
    let prepared = Prepared {
        session: session(-1, data, 1, Some(hook)),
        dir: ctx.tmp.join("checkpoint--1"),
        boundaries,
        track,
    };
    (prepared, samples)
}

type EpochHook = Box<dyn Fn(&EpochReport) + Send + Sync>;

/// What the probe thread saw: when `server.epoch()` first reached each value.
struct Probe {
    first_seen: Vec<Option<Instant>>,
    final_epoch: usize,
    server: Arc<Server>,
}

/// Opens a server on `dir` as soon as a checkpoint exists, follows it with a
/// watcher, and polls `epoch()` plus one `score_pairs` until `total_epochs`
/// is served (or training is over and the catch-up window has passed).
fn probe(
    ctx: &mut Ctx,
    dir: &std::path::Path,
    total_epochs: usize,
    training_done: &dyn Fn() -> bool,
) -> Option<Probe> {
    let config = || ServeConfig::in_memory().with_telemetry(&ctx.telemetry);
    let (server, _) = spanned(&ctx.scope, "bench.serve_open", 0, || loop {
        match Server::from_checkpoint_with(dir, config()) {
            Ok(server) => break Some(Arc::new(server)),
            Err(_) if training_done() => break None,
            // No version published yet (or one mid-publish): try again.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    });
    let server = server?;
    let watcher = server.watch_checkpoints(WATCH_POLL);
    let mut first_seen = vec![None; total_epochs + 1];
    let mut reached = 0usize;
    let mut done_since: Option<Instant> = None;
    let mut poll = 0i64;
    loop {
        begin(&ctx.scope, "bench.probe", poll);
        let epoch = server.epoch().min(total_epochs);
        let now = Instant::now();
        for (e, slot) in first_seen
            .iter_mut()
            .enumerate()
            .take(epoch + 1)
            .skip(reached + 1)
        {
            *slot = Some(now);
            ctx.scope
                .lock()
                .expect("span scope poisoned")
                .instant("bench.servable", e as i64, -1);
        }
        reached = reached.max(epoch);
        let score = server.score_pairs(&[(0, 0, 1)]);
        end(&ctx.scope);
        ctx.ops
            .check(matches!(&score, Ok(s) if s[0].is_finite()), || {
                format!("probe query at poll {poll} failed: {score:?}")
            });
        poll += 1;
        if reached >= total_epochs {
            break;
        }
        if training_done() && done_since.get_or_insert(now).elapsed() > CATCH_UP {
            break;
        }
        std::thread::sleep(PROBE_PAUSE);
    }
    watcher.stop();
    Some(Probe {
        first_seen,
        final_epoch: reached,
        server,
    })
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let cycles = ctx.sizes.units;
    let total_epochs = cycles * EPOCHS_PER_CYCLE;
    let config = StreamConfig::new(
        ctx.seed(4),
        BATCH_EDGES,
        BATCHES_PER_CYCLE,
        EPOCHS_PER_CYCLE,
        cycles,
    );
    let (
        Prepared {
            mut session,
            dir,
            boundaries,
            track,
        },
        setup_samples,
    ) = setup(ctx, total_epochs);

    burn_in(ctx);
    begin(&track, "bench.train", 0);
    begin(&track, "bench.epoch", 0);
    let start = Instant::now();
    let (report, seen): (marius::Result<ExperimentReport>, Option<Probe>) =
        std::thread::scope(|threads| {
            let trainer = threads.spawn(|| session.stream(config));
            let seen = probe(ctx, &dir, total_epochs, &|| trainer.is_finished());
            (trainer.join().expect("training thread panicked"), seen)
        });
    let loop_s = start.elapsed().as_secs_f64();
    end(&track);
    let report = report.expect("the streamed run succeeds on a healthy device");

    let mut out = Outcome::default();
    for e in &report.epochs {
        ctx.ops.check(e.loss.is_finite() && e.examples > 0, || {
            format!(
                "epoch {}: loss {} over {} examples",
                e.epoch, e.loss, e.examples
            )
        });
    }
    let expected_edges = ((cycles - 1) * BATCHES_PER_CYCLE * BATCH_EDGES) as u64;
    let ingested: u64 = report.epochs.iter().map(|e| e.edges_ingested).sum();
    ctx.ops.check(ingested == expected_edges, || {
        format!("ingested {ingested} edges, expected exactly {expected_edges}")
    });
    let final_epoch = seen.as_ref().map_or(0, |p| p.final_epoch);
    ctx.ops.check(final_epoch == total_epochs, || {
        format!("server ended on epoch {final_epoch}, expected {total_epochs}")
    });

    // Ingest reported by the hook of epoch e is fine-tuned on in epoch e + 1
    // and first servable in the version with e + 2 completed epochs.
    let mut lag_ms = Vec::new();
    let boundaries = boundaries.lock().expect("boundary log poisoned");
    let cycle_s: Vec<f64> = boundaries
        .windows(2)
        .map(|w| w[1].1.duration_since(w[0].1).as_secs_f64() * EPOCHS_PER_CYCLE as f64)
        .collect();
    if let Some(p) = &seen {
        for &(epoch, at, edges) in boundaries.iter() {
            if edges == 0 {
                continue;
            }
            let served = p.first_seen.get(epoch + 2).copied().flatten();
            ctx.ops.check(served.is_some(), || {
                format!("ingest after epoch {epoch} never became servable")
            });
            lag_ms.extend(served.map(|t| t.saturating_duration_since(at).as_secs_f64() * 1e3));
        }
    }
    let (tail_percentile, latency_tail_ms) = tail(&lag_ms);
    out.e2e = EndToEnd {
        setup_samples,
        run_s: loop_s,
        // From the median cycle (epoch report to epoch report), not from the
        // loop's wall: a slow spell of the host then costs a few cycles'
        // rank, not its whole length. Not from the fastest cycles either:
        // the graph grows by 1024 edges a cycle and the partition plan
        // changes, so cycles differ in their work.
        throughput: (BATCHES_PER_CYCLE * BATCH_EDGES) as f64 / median(&cycle_s),
        latency_p50_ms: median(&lag_ms),
        latency_tail_ms,
        tail_kind: percentile_name(tail_percentile),
        latency_samples: lag_ms.len(),
        quality: loss_reduction(&report),
        peak_rss_mb: peak_rss_mb(),
    };
    out.note("loss_digest", text(loss_digest(&report)));
    out.note("final_metric", num(report.final_metric()));
    out.note("edges_ingested", num(ingested as f64));
    out.note("final_server_epoch", num(final_epoch as f64));
    if !ctx.args.traced {
        return out;
    }

    *track.lock().expect("span scope poisoned") = ctx.telemetry.scope("bench.stream.done");
    let spans = collect_spans(ctx);
    // The sequential disk executor samples on the compute thread.
    report_layers(&mut out.layers, &report, &spans, true);
    setup_layers(&mut out.layers, &spans);
    let counters = ctx.telemetry.metrics_snapshot();
    let counter = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    ctx.ops.check(
        counter("ingest.edges_appended") == expected_edges as f64,
        || {
            format!(
                "ingest.edges_appended = {}, expected {expected_edges}",
                counter("ingest.edges_appended")
            )
        },
    );

    // The writer's `epoch.checkpoint` span of epoch N - 1 produces version N;
    // `bench.servable` marks the probe first seeing epoch() >= N. Both are on
    // the recorder's clock. The span's *start* is the reference: the version
    // turns visible (LATEST swapped) a few ms before the span ends, so
    // measured from its end the reload time would be negative.
    let published: Vec<(i64, u64)> = spans
        .iter()
        .filter(|s| s.name == "epoch.checkpoint")
        .map(|s| (s.step + 1, s.start_ns))
        .collect();
    let reloads: Vec<f64> = ctx
        .telemetry
        .span_events()
        .iter()
        .filter(|e| e.name == "bench.servable" && e.phase == Phase::Instant)
        .filter_map(|e| {
            let (_, at) = published.iter().find(|(version, _)| *version == e.step)?;
            Some(e.ts_ns.saturating_sub(*at) as f64 / 1e6)
        })
        .collect();
    let health = seen.as_ref().map(|p| p.server.health());
    out.layers.extend([
        ("serve.reload_ms", median(&reloads)),
        (
            "serve.open_s",
            median(&spans::durations(&spans, "bench.serve_open")),
        ),
        (
            "serve.store_retries",
            health.as_ref().map_or(0.0, |h| h.store_retries as f64),
        ),
        (
            "serve.rejected",
            health
                .as_ref()
                .map_or(0.0, |h| (h.shed + h.deadline_exceeded) as f64),
        ),
        (
            "core.checkpoint_write_s",
            median(&spans::durations(&spans, "epoch.checkpoint")),
        ),
        ("core.checkpoint_mb", newest_checkpoint_mb(&dir)),
        (
            "stream.ingest_apply_ms_per_batch",
            counter("ingest.apply_ns") / counter("ingest.deltas_applied").max(1.0) / 1e6,
        ),
        ("stream.edges_appended", counter("ingest.edges_appended")),
        (
            "stream.finetune_s_per_cycle",
            mean(report.epochs.iter().map(|e| e.epoch_time.as_secs_f64()))
                * EPOCHS_PER_CYCLE as f64,
        ),
    ]);

    let data = session.dataset();
    let rng = &mut probes::rng(ctx.seed(5));
    probes::graph(&mut out.layers, rng, data, PARTITIONS, BUFFER as u32);
    probes::negatives(&mut out.layers, rng, data.num_nodes(), 32);
    probes::decoder(
        &mut out.layers,
        rng,
        data.spec.num_relations,
        ctx.sizes.dim,
        256,
        32,
    );
    probes::table(
        &mut out.layers,
        rng,
        data.num_nodes() as usize,
        ctx.sizes.dim,
        512,
    );
    let rows = data.num_nodes() as usize / PARTITIONS as usize;
    probes::storage(&mut out.layers, rng, &ctx.tmp, rows, ctx.sizes.dim);
    out
}

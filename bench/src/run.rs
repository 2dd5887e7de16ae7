//! What every workload shares: the run context (arguments, recorder, scratch
//! directory, checked-operation counts) and the outcome it hands back.

use crate::json::Json;
use crate::spec::{setup_repeats, sizes, Sizes, Workload};
use crate::stats;
use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::telemetry::{SpanScope, NO_LABEL};
use marius::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The benchmark's own directory (`bench/` in the checkout it was built in).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs write their records, traces and scratch files.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
}

/// Operations whose outcome the harness checked: epochs, queries, ingest
/// boundaries, probe queries and the end-of-run invariants.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, printed with the result.
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed, without a
    /// description each (query passes report their mismatches in bulk).
    pub fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures
                .push(format!("{failed} of {attempted} {what}"));
        }
    }
}

/// The harness's span track. Shared behind a mutex because the epoch hook —
/// which closes one `bench.epoch` span and opens the next — is a `Sync`
/// closure owned by the session.
pub type Scope = Arc<Mutex<SpanScope>>;

pub fn begin(scope: &Scope, name: &'static str, id: i64) {
    scope
        .lock()
        .expect("span scope poisoned")
        .begin(name, id, NO_LABEL);
}

pub fn end(scope: &Scope) {
    scope.lock().expect("span scope poisoned").end();
}

/// Runs `f` inside a harness span and returns its result and wall seconds.
pub fn spanned<T>(scope: &Scope, name: &'static str, id: i64, f: impl FnOnce() -> T) -> (T, f64) {
    begin(scope, name, id);
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    end(scope);
    (out, secs)
}

/// Set-up, [`setup_repeats`] times: generates the dataset from its seed (a
/// `bench.generate` span) and hands it to `finish` with the repetition's id,
/// all inside a `bench.setup` span. Returns the last repetition's result —
/// the one the run goes on to use — and every repetition's wall seconds.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    spec: &DatasetSpec,
    mut finish: impl FnMut(i64, ScaledDataset) -> T,
) -> (T, Vec<f64>) {
    let mut samples = Vec::new();
    let mut last = None;
    for id in 0..setup_repeats(ctx.args.workload, ctx.args.smoke) as i64 {
        let (built, secs) = spanned(&ctx.scope, "bench.setup", id, || {
            let (data, _) = spanned(&ctx.scope, "bench.generate", id, || {
                ScaledDataset::generate(spec, ctx.seed(1))
            });
            finish(id, data)
        });
        samples.push(secs);
        last = Some(built);
    }
    (last.expect("at least one set-up repeat"), samples)
}

pub struct Ctx {
    pub args: Args,
    pub sizes: Sizes,
    /// Enabled in the traced pass, a no-op handle otherwise; passed through
    /// the program's public builders so harness and program spans share one
    /// recorder.
    pub telemetry: Telemetry,
    pub scope: Scope,
    /// This run's scratch directory (`bench/out/tmp/<workload>-<pid>`), removed
    /// when the run ends. Checkpoints go here, and `TMPDIR` points here so the
    /// program's temporary partition stores do too.
    pub tmp: PathBuf,
    pub ops: Ops,
}

impl Ctx {
    pub fn new(args: Args) -> Ctx {
        let telemetry = if args.traced {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let tmp =
            out_dir()
                .join("tmp")
                .join(format!("{}-{}", args.workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).expect("create scratch directory under bench/out");
        Ctx {
            args,
            sizes: sizes(args.workload, args.seconds, args.smoke),
            scope: Arc::new(Mutex::new(telemetry.scope("bench"))),
            telemetry,
            tmp,
            ops: Ops::default(),
        }
    }

    /// One of the seeds derived from `--seed` (1 dataset, 2 training,
    /// 3 queries, 4 stream).
    pub fn seed(&self, stream: u64) -> u64 {
        stats::derive_seed(self.args.seed, stream)
    }
}

/// End-to-end numbers of one run (the untraced pass reports these).
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall seconds of each set-up repetition.
    pub setup_samples: Vec<f64>,
    pub run_s: f64,
    pub throughput: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
    /// What `latency_tail_ms` is: `p99`, `p75`, ... as picked by
    /// `stats::tail`, or `cold_start` on the training workloads.
    pub tail_kind: String,
    pub latency_samples: usize,
    pub quality: f64,
    pub peak_rss_mb: f64,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: EndToEnd,
    /// Per-layer metrics by name; names not listed read 0.
    pub layers: Vec<(&'static str, f64)>,
    /// Digests, exact counts and sample counts for the ledger.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }
}

/// How long [`burn_in`] keeps every core busy.
const BURN_IN: Duration = Duration::from_secs(2);

/// Keeps every core busy for [`BURN_IN`] right before a timed region.
///
/// On the reference box (a 2-vCPU Firecracker guest) the multi-threaded
/// workloads run in one of two host-scheduling states: after the guest has
/// been idle, `lp_disk_ebs` epochs take ~4.4 s; after both vCPUs have been
/// saturated for about two seconds they take ~3.3 s, and stay there while
/// load continues. Which state a run starts in would otherwise depend on what
/// ran before it, so every run puts the box in the saturated state first.
/// The spin is warm-up, not measured work: it is outside every timed region.
/// `--smoke` runs skip it (their numbers are not comparable anyway).
pub fn burn_in(ctx: &Ctx) {
    if ctx.args.smoke {
        return;
    }
    let until = Instant::now() + BURN_IN;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|threads| {
        for _ in 0..cores {
            threads.spawn(|| {
                let mut x = 1u64;
                while Instant::now() < until {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(1),
                        );
                    }
                }
            });
        }
    });
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

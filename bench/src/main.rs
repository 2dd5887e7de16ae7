//! `marius-perf` — the repo's performance benchmark. See `bench/README.md`.
//!
//! ```text
//! marius-perf --workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]
//! marius-perf all [--seed <n>] [--seconds <n>] [--smoke] [--check-repeat]
//! marius-perf compare <a.json> <b.json>
//! ```

mod alloc;
mod json;
mod ledger;
mod probes;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;
mod stream;
mod train;

use json::{entries, get, get_str, num, obj, render, text, Json};
use run::{out_dir, Args, Ctx, Outcome};
use spec::{MetricSpec, Workload, END_TO_END, PER_LAYER, REFERENCE_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  marius-perf --workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]
  marius-perf all [--seed <n>] [--seconds <n>] [--smoke] [--check-repeat]
  marius-perf compare <a.json> <b.json>
workloads: lp_disk_ebs nc_mem serve_mem serve_cache stream_loop";

/// Flags shared by the single-workload form and `all`.
#[derive(Debug, Default)]
pub struct Flags {
    pub workload: Option<Workload>,
    pub seed: Option<u64>,
    pub seconds: Option<u64>,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub check_repeat: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                flags.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => flags.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let seconds: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => flags.smoke = true,
            "--check-repeat" => flags.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

/// Where a finished run leaves its full record for `all` and for the traced
/// pass's overhead ratio.
pub fn record_path(workload: Workload, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "{}.trace{}.json",
        workload.name(),
        u8::from(traced)
    ))
}

fn metric_json(specs: &[MetricSpec], values: &[(&str, f64)]) -> Json {
    obj(specs.iter().map(|spec| {
        let value = values
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map_or(0.0, |(_, v)| *v);
        (
            spec.name,
            obj([("value", num(value)), ("unit", text(spec.unit))]),
        )
    }))
}

/// `telemetry.*`: what the traced pass itself recorded and wrote. (What it
/// cost in wall time takes the untraced pass too: `all` works that out.)
fn telemetry_layers(ctx: &Ctx, out: &mut Outcome) {
    let events = ctx.telemetry.span_events();
    // Self time (span minus its children) of the harness's own spans: where
    // the traced pass's wall time went, by the harness's account.
    for (name, secs) in spans::self_time_by_name(&spans::pair(&events)) {
        if name.starts_with("bench.") {
            out.note(&format!("self_s.{name}"), num(secs));
        }
    }
    let start = Instant::now();
    let trace = out_dir().join(format!("trace-{}.json", ctx.args.workload.name()));
    ctx.telemetry
        .write_chrome_trace(&trace)
        .expect("write the Chrome trace under bench/out");
    out.layers
        .push(("telemetry.export_s", start.elapsed().as_secs_f64()));
    out.layers
        .push(("telemetry.events_recorded", events.len() as f64));
}

fn run_workload(args: Args) -> ExitCode {
    let mut ctx = Ctx::new(args);
    // The program opens its temporary partition stores under the system temp
    // directory; point that at this run's scratch directory so they stay
    // inside the checkout and go away with it. Set before any thread exists.
    std::env::set_var("TMPDIR", &ctx.tmp);
    let mut out = match args.workload {
        Workload::LpDiskEbs => train::lp_disk_ebs(&mut ctx),
        Workload::NcMem => train::nc_mem(&mut ctx),
        Workload::ServeMem | Workload::ServeCache => serve::run(&mut ctx),
        Workload::StreamLoop => stream::run(&mut ctx),
    };
    if args.traced {
        telemetry_layers(&ctx, &mut out);
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp);

    let e = &out.e2e;
    let end_to_end = [
        ("setup_s", stats::median(&e.setup_samples)),
        ("throughput", e.throughput),
        ("latency_p50_ms", e.latency_p50_ms),
        ("latency_tail_ms", e.latency_tail_ms),
        ("quality", e.quality),
        ("peak_rss_mb", e.peak_rss_mb),
    ];
    let values: Vec<(&str, f64)> = if args.traced {
        out.layers.clone()
    } else {
        end_to_end.to_vec()
    };
    let specs = if args.traced { PER_LAYER } else { END_TO_END };
    for (name, _) in &values {
        assert!(
            specs.iter().any(|s| s.name == *name),
            "metric {name} is not in the spec table"
        );
    }
    let metrics = metric_json(specs, &values);
    let correct = ctx.ops.failed == 0;

    let name = args.workload.name();
    for (metric, entry) in entries(&metrics) {
        let value = get(entry, "value").map_or_else(String::new, render);
        let unit = get_str(entry, "unit").unwrap_or("");
        println!("{name} {metric} {value} {unit}");
    }
    out.detail.extend([
        ("latency_tail_kind".to_string(), text(e.tail_kind.as_str())),
        ("latency_samples".to_string(), num(e.latency_samples as f64)),
        (
            "setup_repeats".to_string(),
            num(e.setup_samples.len() as f64),
        ),
    ]);
    for (key, value) in &out.detail {
        println!("{name} detail.{key} {}", render(value));
    }
    // The timed region's whole wall: reported, not bounded — on the shared
    // reference box it follows the neighbours (see README, "Bounds").
    println!("{name} run_s {} s", e.run_s);
    println!("{name} ops_attempted {} count", ctx.ops.attempted);
    println!("{name} ops_failed {} count", ctx.ops.failed);
    println!(
        "{name} fail_ratio {} ratio",
        ctx.ops.failed as f64 / ctx.ops.attempted.max(1) as f64
    );
    for failure in &ctx.ops.failures {
        eprintln!("FAILED {name}: {failure}");
    }

    let result = [
        ("correct", Json::Bool(correct)),
        ("attempted", num(ctx.ops.attempted as f64)),
        ("failed", num(ctx.ops.failed as f64)),
        ("metrics", metrics),
    ];
    let mut record = vec![
        ("workload", text(name)),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("traced", Json::Bool(args.traced)),
        ("run_s", num(out.e2e.run_s)),
    ];
    record.extend(result.iter().cloned());
    record.push(("detail", Json::Obj(out.detail)));
    record.push((
        "failures",
        Json::Arr(ctx.ops.failures.iter().map(text).collect()),
    ));
    std::fs::write(
        record_path(args.workload, args.traced),
        render(&obj(record)),
    )
    .expect("write the run record under bench/out");

    println!("{}", render(&obj(result)));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => ledger::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two ledger files".into()),
        },
        Some("all") => parse_flags(&args[1..]).and_then(|flags| ledger::all(&flags)),
        _ => parse_flags(&args).and_then(|flags| match flags {
            Flags {
                workload: Some(workload),
                seed: Some(seed),
                seconds,
                trace: Some(traced),
                smoke,
                check_repeat: false,
            } => Ok(run_workload(Args {
                workload,
                seed,
                seconds: seconds.unwrap_or(REFERENCE_SECONDS),
                traced,
                smoke,
            })),
            _ => Err("--workload, --seed and --trace are required".into()),
        }),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("error: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}

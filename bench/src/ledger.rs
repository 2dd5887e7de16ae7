//! The `all` and `compare` subcommands: run every workload in its own child
//! process (untraced three times over, then traced), write
//! `bench/out/ledger.json`, and diff two ledgers against the bounds in
//! `BENCHMARK.json`.

use crate::json::{entries, get, get_f64, get_str, items, num, obj, parse, render, text, Json};
use crate::run::{bench_dir, out_dir};
use crate::spec::{Workload, END_TO_END, REFERENCE_SECONDS};
use crate::stats::median;
use crate::{record_path, Flags};
use std::path::Path;
use std::process::{Command, ExitCode};

/// Seed `all` uses when none is given (the committed baseline's first seed).
const DEFAULT_SEED: u64 = 1;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were taken: they are only comparable within one of these.
fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    obj([
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", text(cpu)),
        ("kernel", text(kernel)),
        ("rustc", text(command_line("rustc", &["-V"]))),
        ("git_sha", text(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

/// Runs one workload pass in a child process of this same binary, so
/// `peak_rss_mb` is per workload, and returns the record it left behind.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    // A record from an earlier run must not stand in for this one.
    let record = record_path(workload, traced);
    let _ = std::fs::remove_file(&record);
    // Inherited stdio: the child's metric lines are this command's output.
    let status = command
        .status()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    if !status.success() {
        return Err(format!(
            "{} (trace {}) exited with {status}",
            workload.name(),
            u8::from(traced)
        ));
    }
    std::fs::read_to_string(&record)
        .map_err(|e| format!("{} left no record: {e}", workload.name()))
        .and_then(|text| parse(&text))
}

/// Untraced passes per workload in one set. The ledger's end-to-end value is
/// their median and their range is the run-to-run spread `compare` holds
/// against the bound. The rounds are interleaved across the workloads: the
/// reference box has slow spells of a minute or so, which then land on one
/// run each of several workloads instead of on every run of one.
const UNTRACED_RUNS: usize = 3;

/// One full set: [`UNTRACED_RUNS`] rounds of every workload untraced (one
/// round under `--smoke`), then every workload traced. Returns one ledger
/// entry per workload.
fn run_set(seed: u64, seconds: u64, smoke: bool) -> Result<Vec<Json>, String> {
    let mut untraced: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    for _ in 0..if smoke { 1 } else { UNTRACED_RUNS } {
        for (runs, workload) in untraced.iter_mut().zip(Workload::ALL) {
            runs.push(run_child(workload, seed, seconds, false, smoke)?);
        }
    }
    let mut workloads = Vec::new();
    for (runs, workload) in untraced.iter().zip(Workload::ALL) {
        let name = workload.name();
        let traced = run_child(workload, seed, seconds, true, smoke)?;
        let passes = || runs.iter().chain([&traced]);
        let total = |key: &str| passes().filter_map(|r| get_f64(r, key)).sum::<f64>();
        let metric = |metric: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| get_f64(get(get(r, "metrics")?, metric)?, "value"))
                .collect()
        };
        let run_s: Vec<f64> = runs.iter().filter_map(|r| get_f64(r, "run_s")).collect();
        // One seed, one commit: digests and counts are the same in every run.
        let detail = get(&runs[0], "detail").cloned().unwrap_or(Json::Null);
        let repeats = runs.iter().all(|r| get(r, "detail") == Some(&detail));
        if !repeats {
            eprintln!("FAILED {name}: exact values differ between the runs of one set");
        }
        // The price of tracing: the same timed region, traced over untraced.
        let overhead = match (get_f64(&traced, "run_s"), median(&run_s)) {
            (Some(with), without) if without > 0.0 => with / without - 1.0,
            _ => f64::NAN,
        };
        println!("{name} telemetry.overhead_ratio {overhead} ratio");
        let mut per_layer = get(&traced, "metrics").map_or_else(Vec::new, |m| entries(m).to_vec());
        per_layer.push((
            "telemetry.overhead_ratio".into(),
            obj([("value", num(overhead)), ("unit", text("ratio"))]),
        ));
        let with_runs = |values: Vec<f64>, unit: &str| {
            obj([
                ("value", num(median(&values))),
                ("unit", text(unit)),
                ("runs", Json::Arr(values.into_iter().map(num).collect())),
            ])
        };
        let end_to_end = END_TO_END
            .iter()
            .map(|spec| (spec.name, with_runs(metric(spec.name), spec.unit)));
        workloads.push(obj([
            ("name", text(name)),
            (
                "correct",
                Json::Bool(
                    repeats && passes().all(|r| get(r, "correct") == Some(&Json::Bool(true))),
                ),
            ),
            ("attempted", num(total("attempted"))),
            ("failed", num(total("failed"))),
            ("end_to_end", obj(end_to_end)),
            // Wall of the whole timed region: kept, not bounded.
            ("run_s", with_runs(run_s, "s")),
            ("per_layer", Json::Obj(per_layer)),
            ("detail", detail),
        ]));
    }
    Ok(workloads)
}

fn write_ledger(
    name: &str,
    (seed, seconds, smoke): (u64, u64, bool),
    workloads: Vec<Json>,
) -> Result<Json, String> {
    let ledger = obj([
        ("schema", num(2.0)),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds as f64)),
        ("smoke", Json::Bool(smoke)),
        ("fingerprint", fingerprint()),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = out_dir().join(name);
    std::fs::write(&path, render(&ledger))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ledger)
}

pub fn all(flags: &Flags) -> Result<ExitCode, String> {
    if flags.workload.is_some() || flags.trace.is_some() {
        return Err(
            "all runs every workload, untraced then traced; drop --workload / --trace".into(),
        );
    }
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(REFERENCE_SECONDS);
    let header = (seed, seconds, flags.smoke);
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create bench/out: {e}"))?;
    let set = || run_set(seed, seconds, flags.smoke);
    let first = write_ledger("ledger.json", header, set()?)?;
    let wrong = |ledger: &Json| {
        items(ledger, "workloads")
            .iter()
            .any(|w| get(w, "correct") != Some(&Json::Bool(true)))
    };
    if !flags.check_repeat {
        return Ok(ExitCode::from(u8::from(wrong(&first))));
    }
    let second = write_ledger("ledger-repeat.json", header, set()?)?;
    let rows = compare_repeat(&first, &second, &load_bounds()?);
    print_rows(&rows);
    // Two sets of one commit: no timing may be further from the other set's
    // than its bound, whichever ran first, and every exact value (digests,
    // counts, quality) must repeat bit for bit. `unresolved` rows pass: they
    // say a set's own runs were further apart than the bound, which limits
    // what a later `compare` against this ledger can tell, not whether the
    // two sets agree.
    let count = |status| rows.iter().filter(|r| r.status == status).count();
    let bad = count(Status::Regressed) + count(Status::Differs);
    println!(
        "{} rows, {bad} not repeated, {} unresolved",
        rows.len(),
        count(Status::Unresolved)
    );
    Ok(if bad == 0 && !wrong(&first) && !wrong(&second) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub name: &'static str,
    pub bound: f64,
    pub lower_is_better: bool,
}

/// The regression bounds, from the one place they are fixed.
fn load_bounds() -> Result<Vec<Bound>, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse(&text)?;
    END_TO_END
        .iter()
        .map(|spec| {
            let entry = items(&doc, "end_to_end")
                .iter()
                .find(|e| get_str(e, "name") == Some(spec.name))
                .ok_or_else(|| format!("BENCHMARK.json has no end_to_end metric {}", spec.name))?;
            Ok(Bound {
                name: spec.name,
                bound: get_f64(entry, "bound").ok_or("bound missing")?,
                lower_is_better: get_str(entry, "better") == Some("lower"),
            })
        })
        .collect()
}

/// An end-to-end metric in one ledger entry: its value (the median of the
/// set's runs) and the runs' range as a share of it — with three runs, the
/// distance between their quartiles over their median. No spread is known
/// for an entry that holds a single run.
fn end_to_end(entry: &Json, metric: &str) -> Option<(f64, Option<f64>)> {
    let metric = get(get(entry, "end_to_end")?, metric)?;
    let value = get_f64(metric, "value")?;
    let runs: Vec<f64> = items(metric, "runs")
        .iter()
        .filter_map(|r| r.as_f64().ok())
        .collect();
    let range = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - runs.iter().copied().fold(f64::INFINITY, f64::min);
    let spread = (runs.len() > 1 && value != 0.0).then(|| range / value.abs());
    Some((value, spread))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// Worse than the base by more than the metric's bound.
    Regressed,
    /// The runs either ledger took its median from are further apart than the
    /// bound, so a difference of that size says nothing about the code.
    Unresolved,
    /// An exact value (digest, count) is not the same on both sides.
    Differs,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: String,
    pub new: String,
    /// Share of the base by which the new value is worse (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub status: Status,
}

/// One row per (workload, end-to-end metric), plus one per exact detail value
/// the two ledgers share. `quality` is both: bounded across commits, and an
/// exact value within one.
pub fn compare(base: &Json, new: &Json, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for a in items(base, "workloads") {
        let name = get_str(a, "name").unwrap_or("");
        let Some(b) = items(new, "workloads")
            .iter()
            .find(|w| get_str(w, "name") == Some(name))
        else {
            continue;
        };
        for bound in bounds {
            let (Some((x, x_spread)), Some((y, y_spread))) =
                (end_to_end(a, bound.name), end_to_end(b, bound.name))
            else {
                continue;
            };
            let worse_by = if x == 0.0 {
                0.0
            } else if bound.lower_is_better {
                (y - x) / x.abs()
            } else {
                (x - y) / x.abs()
            };
            let unsteady = [x_spread, y_spread]
                .into_iter()
                .flatten()
                .any(|s| s > bound.bound);
            let status = if unsteady {
                Status::Unresolved
            } else if worse_by > bound.bound {
                Status::Regressed
            } else {
                Status::Ok
            };
            rows.push(Row {
                workload: name.into(),
                metric: bound.name.into(),
                base: format!("{x}"),
                new: format!("{y}"),
                worse_by,
                bound: bound.bound,
                status,
            });
        }
        let exact = |w: &Json| -> Vec<(String, Json)> {
            let mut values = get(w, "detail").map_or_else(Vec::new, |d| entries(d).to_vec());
            values.extend(
                get(w, "end_to_end")
                    .and_then(|m| get(m, "quality"))
                    .and_then(|q| get(q, "value"))
                    .map(|v| ("quality".to_string(), v.clone())),
            );
            values
        };
        let theirs = exact(b);
        for (key, x) in exact(a) {
            let Some((_, y)) = theirs.iter().find(|(k, _)| *k == key) else {
                continue;
            };
            rows.push(Row {
                workload: name.into(),
                metric: format!("exact.{key}"),
                base: render(&x),
                new: render(y),
                worse_by: 0.0,
                bound: 0.0,
                status: if x == *y { Status::Ok } else { Status::Differs },
            });
        }
    }
    rows
}

/// [`compare`] for two sets of one commit, where neither is the base: a row
/// is `regressed` when either set is worse than the other by more than the
/// bound, so the verdict does not depend on which set ran first.
pub fn compare_repeat(first: &Json, second: &Json, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = compare(first, second, bounds);
    for (row, back) in rows.iter_mut().zip(compare(second, first, bounds)) {
        if row.status == Status::Ok {
            row.status = back.status;
        }
    }
    rows
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<12} {:<30} {:>20} {:>20} {:>9} {:>6}  status",
        "workload", "metric", "base", "new", "worse_by", "bound"
    );
    for r in rows {
        let status = match r.status {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
            Status::Differs => "differs",
        };
        println!(
            "{:<12} {:<30} {:>20} {:>20} {:>+9.4} {:>6.2}  {status}",
            r.workload, r.metric, r.base, r.new, r.worse_by, r.bound
        );
    }
}

/// `compare a.json b.json`: exits non-zero when any metric regressed. Exact
/// values that differ are reported but do not fail the comparison — across
/// two commits a reordered kernel legitimately changes a loss digest.
pub fn compare_files(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let rows = compare(&load(base)?, &load(new)?, &load_bounds()?);
    print_rows(&rows);
    let count = |status| rows.iter().filter(|r| r.status == status).count();
    let regressed = count(Status::Regressed);
    println!(
        "{} rows, {regressed} regressed, {} unresolved",
        rows.len(),
        count(Status::Unresolved)
    );
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-workload ledger whose `latency_p50_ms` and `throughput` each hold the
    /// given runs (value = their median).
    fn ledger(latency: &[f64], throughput: &[f64], digest: &str) -> Json {
        let metric = |runs: &[f64]| {
            obj([
                ("value", num(median(runs))),
                ("unit", text("x")),
                ("runs", Json::Arr(runs.iter().copied().map(num).collect())),
            ])
        };
        obj([(
            "workloads",
            Json::Arr(vec![obj([
                ("name", text("lp_disk_ebs")),
                (
                    "end_to_end",
                    obj([
                        ("latency_p50_ms", metric(latency)),
                        ("throughput", metric(throughput)),
                        ("quality", metric(&[0.5])),
                    ]),
                ),
                ("detail", obj([("loss_digest", text(digest))])),
            ])]),
        )])
    }

    const BOUNDS: &[Bound] = &[
        Bound {
            name: "latency_p50_ms",
            bound: 0.10,
            lower_is_better: true,
        },
        Bound {
            name: "throughput",
            bound: 0.10,
            lower_is_better: false,
        },
        Bound {
            name: "peak_rss_mb",
            bound: 0.10,
            lower_is_better: true,
        },
    ];

    fn status(rows: &[Row], metric: &str) -> Status {
        rows.iter().find(|r| r.metric == metric).unwrap().status
    }

    #[test]
    fn within_bound_is_ok_and_direction_matters() {
        let rows = compare(
            &ledger(&[10.0], &[100.0], "aa"),
            &ledger(&[10.9], &[91.0], "aa"),
            BOUNDS,
        );
        assert_eq!(status(&rows, "latency_p50_ms"), Status::Ok);
        assert_eq!(status(&rows, "throughput"), Status::Ok);
        assert_eq!(status(&rows, "exact.loss_digest"), Status::Ok);
        assert_eq!(status(&rows, "exact.quality"), Status::Ok);
        // A metric missing from the ledgers produces no row.
        assert!(rows.iter().all(|r| r.metric != "peak_rss_mb"));
        // Across two commits getting faster is never a regression.
        let rows = compare(
            &ledger(&[10.0], &[100.0], "aa"),
            &ledger(&[5.0], &[200.0], "aa"),
            BOUNDS,
        );
        assert_eq!(status(&rows, "latency_p50_ms"), Status::Ok);
        assert_eq!(status(&rows, "throughput"), Status::Ok);
    }

    #[test]
    fn beyond_bound_regresses_unless_the_runs_are_too_far_apart_to_tell() {
        let base = ledger(&[9.8, 10.0, 10.3], &[98.0, 100.0, 101.0], "aa");
        let rows = compare(
            &base,
            &ledger(&[11.4, 11.5, 11.6], &[79.0, 80.0, 80.5], "bb"),
            BOUNDS,
        );
        assert_eq!(status(&rows, "latency_p50_ms"), Status::Regressed);
        assert_eq!(status(&rows, "throughput"), Status::Regressed);
        assert_eq!(status(&rows, "exact.loss_digest"), Status::Differs);
        let worse = rows
            .iter()
            .find(|r| r.metric == "throughput")
            .unwrap()
            .worse_by;
        assert!((worse - 0.2).abs() < 1e-12);
        // The new side's runs span 26 % of their median: cannot tell, even
        // though the medians are 15 % apart.
        let rows = compare(
            &base,
            &ledger(&[10.0, 11.5, 13.0], &[100.0, 100.0, 100.0], "aa"),
            BOUNDS,
        );
        assert_eq!(status(&rows, "latency_p50_ms"), Status::Unresolved);
        assert_eq!(status(&rows, "throughput"), Status::Ok);
        // The base side's runs are the unsteady ones: same verdict.
        let rows = compare(
            &ledger(&[9.0, 10.0, 10.5], &[100.0], "aa"),
            &ledger(&[10.0], &[100.0], "aa"),
            BOUNDS,
        );
        assert_eq!(status(&rows, "latency_p50_ms"), Status::Unresolved);
    }

    /// Two sets of one commit: the verdict must not depend on which ran
    /// first.
    #[test]
    fn repeat_check_is_symmetric() {
        let slow = ledger(&[12.9, 13.0, 13.1], &[76.0, 77.0, 78.0], "aa");
        let fast = ledger(&[9.9, 10.0, 10.1], &[99.0, 100.0, 101.0], "aa");
        // One way round the second set merely got faster ...
        let forward = compare(&slow, &fast, BOUNDS);
        assert_eq!(status(&forward, "latency_p50_ms"), Status::Ok);
        // ... but two sets of one commit 30 % apart did not repeat, in either order.
        for (first, second) in [(&slow, &fast), (&fast, &slow)] {
            let rows = compare_repeat(first, second, BOUNDS);
            assert_eq!(status(&rows, "latency_p50_ms"), Status::Regressed);
            assert_eq!(status(&rows, "throughput"), Status::Regressed);
            assert_eq!(status(&rows, "exact.loss_digest"), Status::Ok);
        }
        let close = ledger(&[10.3, 10.5, 10.6], &[95.0, 96.0, 97.0], "aa");
        for (first, second) in [(&close, &fast), (&fast, &close)] {
            let rows = compare_repeat(first, second, BOUNDS);
            assert!(rows.iter().all(|r| r.status == Status::Ok), "{rows:?}");
        }
    }

    #[test]
    fn bounds_load_from_benchmark_json() {
        let bounds = load_bounds().unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(setup.lower_is_better);
        assert!(bounds.iter().all(|b| b.bound <= setup.bound));
        assert!(
            !bounds
                .iter()
                .find(|b| b.name == "throughput")
                .unwrap()
                .lower_is_better
        );
    }
}

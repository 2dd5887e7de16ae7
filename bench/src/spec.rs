//! The frozen definition of the benchmark: workloads, their sizes, and the
//! metric tables `BENCHMARK.json` mirrors (a unit test keeps the two equal).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LpDiskEbs,
    NcMem,
    ServeMem,
    ServeCache,
    StreamLoop,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LpDiskEbs,
        Workload::NcMem,
        Workload::ServeMem,
        Workload::ServeCache,
        Workload::StreamLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LpDiskEbs => "lp_disk_ebs",
            Workload::NcMem => "nc_mem",
            Workload::ServeMem => "serve_mem",
            Workload::ServeCache => "serve_cache",
            Workload::StreamLoop => "stream_loop",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The `--seconds` value the unit counts below were calibrated for on the
/// 2-core reference box (`run_seconds` in `BENCHMARK.json`): each timed region
/// then lasts 15-19 s, and a whole run under 27 s.
pub const REFERENCE_SECONDS: u64 = 20;

/// How many times set-up is repeated per run; `setup_s` is their median.
/// Serve set-up trains a checkpoint (~0.9 s) and `nc_mem` generates 67 737
/// nodes' features (~0.6 s); the two small disk set-ups take ~0.1 s.
pub fn setup_repeats(workload: Workload, smoke: bool) -> usize {
    if smoke {
        return 2;
    }
    match workload {
        Workload::NcMem | Workload::ServeMem | Workload::ServeCache => 5,
        Workload::LpDiskEbs => 9,
        Workload::StreamLoop => 25,
    }
}

/// Frozen sizes of one workload. Work is never sized from the clock: the
/// unit count is a pure function of `--seconds`, so two commits given the same
/// arguments do exactly the same work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Dataset scale factor (`DatasetSpec::scaled`).
    pub scale: f64,
    /// Embedding / hidden dimension.
    pub dim: usize,
    /// Training epochs, timed serve passes, or stream cycles.
    pub units: usize,
    /// Serve workloads: queries per pass.
    pub queries_per_pass: usize,
    /// `nc_mem`: mini batches per epoch (`TrainConfig::max_batches_per_epoch`).
    pub batches_per_epoch: usize,
}

/// Units for `seconds`, scaled from the count calibrated at
/// [`REFERENCE_SECONDS`] and never below `min`.
fn units(at_reference: u64, min: u64, seconds: u64) -> usize {
    ((at_reference * seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS).max(min) as usize
}

pub fn sizes(workload: Workload, seconds: u64, smoke: bool) -> Sizes {
    let sized = |scale, dim, units, queries_per_pass, batches_per_epoch| Sizes {
        scale,
        dim,
        units,
        queries_per_pass,
        batches_per_epoch,
    };
    if smoke {
        return match workload {
            Workload::LpDiskEbs => sized(0.1, 16, 2, 0, 0),
            Workload::NcMem => sized(0.01, 32, 2, 0, 2),
            Workload::ServeMem => sized(0.2, 32, 2, 200, 0),
            Workload::ServeCache => sized(0.2, 32, 2, 100, 0),
            Workload::StreamLoop => sized(0.05, 16, 6, 0, 0),
        };
    }
    match workload {
        // 3.0-3.6 s per epoch; epoch 0 is warm-up.
        Workload::LpDiskEbs => sized(1.0, 16, units(5, 2, seconds), 0, 0),
        // ~0.6 s per batch of the paper's 30/20/10 fanouts on 67 737 nodes:
        // fourteen epochs of two batches, thirteen of them measured.
        Workload::NcMem => sized(0.4, 32, units(14, 2, seconds), 0, 2),
        // 2-2.8 ms per query, two closed-loop clients: ~1.3 s per pass, and
        // 1200 queries leave twelve beyond each pass's p99.
        Workload::ServeMem => sized(1.0, 32, units(9, 2, seconds), 1200, 0),
        // 17-22 ms per query once the Zipf tail pays partition reads: ~2.1 s
        // per pass, twelve queries beyond each pass's p95.
        Workload::ServeCache => sized(1.0, 32, units(6, 2, seconds), 240, 0),
        // 0.19-0.25 s per cycle; 69 ingest boundaries, p75 as the tail.
        Workload::StreamLoop => sized(0.25, 16, units(70, 3, seconds), 0, 0),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. Every workload reports every
/// one; the README glossary says what each means per workload. Bounds live in
/// `BENCHMARK.json`.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", "lower"),
    m("throughput", "1/s", "higher"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_tail_ms", "ms", "lower"),
    m("quality", "ratio", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, measured in the traced pass; the prefix is the crate the
/// number belongs to. A metric that does not apply to a workload reads 0.
/// (`telemetry.overhead_ratio` takes both passes, so `all` adds it to the
/// ledger; a single traced pass cannot know it.)
pub const PER_LAYER: &[MetricSpec] = &[
    m("tensor.matmul_gflops", "GFLOP/s", "higher"),
    m("tensor.index_select_gbps", "GB/s", "higher"),
    m("tensor.index_add_gbps", "GB/s", "higher"),
    m("tensor.segment_sum_gbps", "GB/s", "higher"),
    m("sampling.dense_edges_per_s", "1/s", "higher"),
    m("sampling.negatives_per_s", "1/s", "higher"),
    m("sampling.busy_s_per_epoch", "s", "lower"),
    m("sampling.edges_sampled_per_epoch", "count", "lower"),
    m("gnn.encoder_fwd_ms_per_batch", "ms", "lower"),
    m("gnn.encoder_bwd_ms_per_batch", "ms", "lower"),
    m("gnn.decoder_score_ns_per_pair", "ns", "lower"),
    m("gnn.gather_gbps", "GB/s", "higher"),
    m("gnn.sparse_update_rows_per_s", "1/s", "higher"),
    m("graph.generate_s", "s", "lower"),
    m("graph.partition_build_s", "s", "lower"),
    m("graph.subgraph_build_ms", "ms", "lower"),
    m("storage.read_partition_mbps", "MB/s", "higher"),
    m("storage.write_partition_mbps", "MB/s", "higher"),
    m("storage.read_partition_emulated_mbps", "MB/s", "higher"),
    m("storage.write_partition_emulated_mbps", "MB/s", "higher"),
    m("storage.io_read_mb_per_epoch", "MB", "lower"),
    m("storage.io_written_mb_per_epoch", "MB", "lower"),
    m("storage.partition_loads_per_epoch", "count", "lower"),
    m("storage.buffer_hit_ratio", "ratio", "higher"),
    m("storage.buffer_evictions_per_epoch", "count", "lower"),
    m("storage.throttle_wait_s_per_epoch", "s", "lower"),
    m("storage.io_retries", "count", "lower"),
    m("storage.faults_injected", "count", "lower"),
    m("pipeline.compute_wait_s_per_epoch", "s", "lower"),
    m("pipeline.idle_share", "ratio", "lower"),
    m("pipeline.stall_s_per_epoch", "s", "lower"),
    m("pipeline.writeback_busy_s_per_epoch", "s", "lower"),
    m("pipeline.overlap_ratio", "ratio", "higher"),
    m("core.compute_busy_s_per_epoch", "s", "lower"),
    m("core.warmup_epoch_s", "s", "lower"),
    m("core.eval_s", "s", "lower"),
    m("core.batch_prepare_us", "us", "lower"),
    m("core.batch_train_us", "us", "lower"),
    m("core.allocs_per_step", "count", "lower"),
    m("core.alloc_mb_per_step", "MB", "lower"),
    m("core.checkpoint_write_s", "s", "lower"),
    m("core.checkpoint_mb", "MB", "lower"),
    m("core.session_build_s", "s", "lower"),
    m("core.unattributed_s_per_epoch", "s", "lower"),
    m("serve.topk_us_p50", "us", "lower"),
    m("serve.pairwise_us_p50", "us", "lower"),
    m("serve.knn_us_p50", "us", "lower"),
    m("serve.cache_hit_ratio", "ratio", "higher"),
    m("serve.cache_read_mb", "MB", "lower"),
    m("serve.store_retries", "count", "lower"),
    m("serve.rejected", "count", "lower"),
    m("serve.open_s", "s", "lower"),
    m("serve.cold_pass_s", "s", "lower"),
    m("serve.reload_ms", "ms", "lower"),
    m("stream.ingest_apply_ms_per_batch", "ms", "lower"),
    m("stream.edges_appended", "count", "higher"),
    m("stream.finetune_s_per_cycle", "s", "lower"),
    m("telemetry.events_recorded", "count", "lower"),
    m("telemetry.export_s", "s", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{get_f64, get_str, items, parse};

    #[test]
    fn units_scale_with_seconds_and_respect_the_floor() {
        let units = |w, seconds| sizes(w, seconds, false).units;
        assert_eq!(units(Workload::LpDiskEbs, REFERENCE_SECONDS), 5);
        assert_eq!(units(Workload::LpDiskEbs, 40), 10);
        assert_eq!(units(Workload::LpDiskEbs, 1), 2);
        assert_eq!(units(Workload::StreamLoop, REFERENCE_SECONDS), 70);
        assert_eq!(units(Workload::ServeMem, 10), 5);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(sizes(w, REFERENCE_SECONDS, true).units >= 2);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// `BENCHMARK.json` is the contract the driver reads; these tables are
    /// what the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_mirrors_the_spec_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            items(&doc, key)
                .iter()
                .map(|e| {
                    let field = |f: &str| get_str(e, f).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |specs: &[MetricSpec]| -> Vec<(String, String, String)> {
            specs
                .iter()
                .map(|s| (s.name.into(), s.unit.into(), s.better.into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = items(&doc, "workloads")
            .iter()
            .filter_map(|w| get_str(w, "name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        assert_eq!(get_f64(&doc, "run_seconds"), Some(REFERENCE_SECONDS as f64));
        // The driver's ceiling.
        for e in items(&doc, "end_to_end") {
            let bound = get_f64(e, "bound").unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{e:?}");
        }
    }
}

//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Each benchmark target under `benches/` is a standalone binary (Criterion is
//! used for the kernel micro-benchmarks; the table-level harnesses run scaled
//! experiments and print the corresponding table). The helpers here keep the
//! output format consistent and provide the baseline-system timing model shared
//! by the end-to-end comparisons.

use marius_baselines::scaling::BaselineSystem;
use marius_baselines::{LayerwiseSampler, MultiGpuScaling};
use marius_core::ModelConfig;
use marius_gnn::Encoder;
use marius_graph::{InMemorySubgraph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Prints a section header for a table/figure.
pub fn header(title: &str) {
    println!();
    println!("==========================================================");
    println!("{title}");
    println!("==========================================================");
}

/// Formats a duration in minutes with two decimals (the unit most paper tables
/// use).
pub fn minutes(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() / 60.0)
}

/// Formats a duration in milliseconds.
pub fn millis(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Formats a duration in seconds with two decimals (used by the scaled-down
/// harnesses whose epochs are sub-minute).
pub fn seconds(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Measured single-batch costs of a DGL/PyG-style baseline execution:
/// layer-wise re-sampling plus the same GNN forward pass over the larger blocks
/// it produces (backward is charged at the forward's cost).
#[derive(Debug, Clone, Copy)]
pub struct BaselineBatchCost {
    /// CPU sampling time per mini batch.
    pub sample_time: Duration,
    /// Model compute time per mini batch.
    pub compute_time: Duration,
    /// Unique base nodes gathered per mini batch.
    pub nodes_sampled: usize,
    /// Neighbour edges sampled per mini batch.
    pub edges_sampled: usize,
}

/// Measures the per-batch cost of the layer-wise baseline pipeline on a graph,
/// averaged over `rounds` batches of `batch_size` targets.
pub fn measure_baseline_batch(
    config: &ModelConfig,
    encoder: &Encoder,
    subgraph: &InMemorySubgraph,
    num_nodes: u64,
    batch_size: usize,
    rounds: usize,
    seed: u64,
) -> BaselineBatchCost {
    let sampler = LayerwiseSampler::new(config.fanouts.clone(), config.direction);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sample_time = Duration::ZERO;
    let mut compute_time = Duration::ZERO;
    let mut nodes = 0usize;
    let mut edges = 0usize;
    for round in 0..rounds {
        let start_node = (round * batch_size) as u64 % num_nodes.max(1);
        let targets: Vec<NodeId> = (0..batch_size as u64)
            .map(|i| (start_node + i) % num_nodes.max(1))
            .collect();
        let t0 = std::time::Instant::now();
        let sample = sampler.sample(subgraph, &targets, &mut rng);
        sample_time += t0.elapsed();
        nodes += sample.stats.nodes_sampled;
        edges += sample.stats.edges_sampled;
        if encoder.num_layers() == sample.contexts.len() && encoder.num_layers() > 0 {
            let h0 = marius_tensor::uniform_init(
                &mut rng,
                sample.base_nodes.len(),
                config.input_dim,
                0.1,
            );
            let t1 = std::time::Instant::now();
            let _acts = encoder.forward_contexts(&sample.contexts, h0);
            // Charge backward at roughly the forward cost.
            compute_time += t1.elapsed() * 2;
        }
    }
    let n = rounds.max(1) as u32;
    BaselineBatchCost {
        sample_time: sample_time / n,
        compute_time: compute_time / n,
        nodes_sampled: nodes / rounds.max(1),
        edges_sampled: edges / rounds.max(1),
    }
}

/// Extrapolates a baseline system's epoch time from measured per-batch costs.
pub fn baseline_epoch_time(
    cost: &BaselineBatchCost,
    batches_per_epoch: usize,
    system: BaselineSystem,
    gpus: u32,
) -> Duration {
    let single_gpu = (cost.sample_time + cost.compute_time) * batches_per_epoch.max(1) as u32;
    MultiGpuScaling::from_paper().scaled_epoch_time(system, gpus, single_gpu)
}

/// Writes the labeled experiment reports of one benchmark harness as
/// `BENCH_<name>.json` in the current working directory, so the perf
/// trajectory of every harness is machine-readable alongside its text table.
/// IO failures are reported on stderr but never abort the harness.
pub fn write_bench_json(name: &str, reports: &[(&str, &marius_core::ExperimentReport)]) {
    let mut out = format!("{{\"bench\":\"{name}\",\"reports\":[");
    for (i, (label, report)) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"report\":{}}}",
            marius_telemetry::json::escape(label),
            report.to_json()
        ));
    }
    out.push_str("]}");
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, out) {
        Ok(()) => println!("\nwrote {path} ({} reports)", reports.len()),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// Writes the telemetry artifacts of an instrumented harness run next to its
/// `BENCH_<name>.json`: `TRACE_<name>.json` (Chrome `trace_event` JSON,
/// loadable in `chrome://tracing` or Perfetto) and `METRICS_<name>.json` (the
/// aggregated counter/gauge/histogram snapshot). A disabled handle writes
/// nothing; IO failures are reported on stderr but never abort the harness.
pub fn write_telemetry_artifacts(name: &str, telemetry: &marius_telemetry::Telemetry) {
    if !telemetry.is_enabled() {
        return;
    }
    for (path, result) in [
        (
            format!("TRACE_{name}.json"),
            telemetry.write_chrome_trace(format!("TRACE_{name}.json")),
        ),
        (
            format!("METRICS_{name}.json"),
            telemetry.write_metrics_json(format!("METRICS_{name}.json")),
        ),
    ] {
        match result {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius_core::models::build_encoder;
    use marius_graph::Edge;

    #[test]
    fn baseline_measurement_produces_nonzero_costs() {
        let mut edges = Vec::new();
        for i in 0..200u64 {
            edges.push(Edge::new((i + 1) % 200, i));
            edges.push(Edge::new((i + 7) % 200, i));
        }
        let subgraph = InMemorySubgraph::from_edges(&edges);
        let config = ModelConfig::paper_link_prediction_graphsage(8).shrunk(5, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let encoder = build_encoder(&config, &mut rng);
        let cost = measure_baseline_batch(&config, &encoder, &subgraph, 200, 32, 2, 3);
        assert!(cost.edges_sampled > 0);
        assert!(cost.sample_time > Duration::ZERO);
        let epoch = baseline_epoch_time(&cost, 10, BaselineSystem::Dgl, 4);
        assert!(epoch > Duration::ZERO);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(minutes(Duration::from_secs(90)), "1.50");
        assert_eq!(millis(Duration::from_millis(5)), "5.00");
    }
}

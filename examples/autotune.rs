//! Applies the §6 auto-tuning rules to the paper's datasets on each AWS P3
//! instance and prints the chosen (p, l, c) configuration — the decision
//! MariusGNN makes "out of the box" before disk-based training starts.
//!
//! Run with: `cargo run --release --example autotune`

use marius::graph::datasets::{DatasetSpec, Task};
use marius::storage::auto_tune;

/// The AWS P3 instances of the paper's Table 2: name and CPU memory in bytes.
const INSTANCES: [(&str, u64); 3] = [
    ("P3.2xLarge", 61_000_000_000),
    ("P3.8xLarge", 244_000_000_000),
    ("P3.16xLarge", 488_000_000_000),
];

fn main() {
    let block_size = 128 * 1024u64; // EBS effective block size used in the paper.
    println!(
        "{:<16} {:<12} | {:>6} {:>6} {:>6} | mode",
        "dataset", "instance", "p", "l", "c"
    );
    for spec in DatasetSpec::table1() {
        for (instance, memory_bytes) in INSTANCES {
            let learnable = !spec.fixed_features && spec.task == Task::LinkPrediction;
            // Reserve ~10% of RAM as working memory (the fudge factor F).
            let fudge = memory_bytes / 10;
            let bytes_per_edge = if spec.num_relations > 1 { 12 } else { 8 };
            let cfg = auto_tune(
                spec.num_nodes,
                spec.feat_dim,
                spec.num_edges,
                bytes_per_edge,
                memory_bytes,
                block_size,
                fudge,
                learnable,
            );
            println!(
                "{:<16} {:<12} | {:>6} {:>6} {:>6} | {}",
                spec.name,
                instance,
                cfg.physical_partitions,
                cfg.logical_partitions,
                cfg.buffer_capacity,
                if cfg.fits_in_memory {
                    "in-memory"
                } else {
                    "disk-based"
                }
            );
        }
    }
    println!(
        "\nReading the table: a (1, 1, 1) in-memory row means the dataset fits in that\n\
         instance's CPU memory and no partitioning is needed; otherwise the rules of §6\n\
         pick the partition count from the disk block size and the buffer from the\n\
         memory budget, with l = 2p/c logical partitions."
    );
}

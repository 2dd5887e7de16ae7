//! End-to-end telemetry integration tests through the public `Session` API.
//!
//! * **Bit-exactness goldens** — a run with a telemetry recorder attached must
//!   reproduce the untraced run's loss/metric trajectory bit for bit, for both
//!   tasks and for both the in-memory and the pipelined out-of-core paths
//!   (the recorder reads only monotonic clocks, never an RNG stream).
//! * **Trace-export schema** — the Chrome trace document is valid JSON, every
//!   stage of the five-stage pipeline shows up as a named track, begin/end
//!   events pair up LIFO per thread with matching names, and timestamps are
//!   nondecreasing.
//! * **Metrics agreement** — the exported `metrics.json` counters mirror the
//!   `EpochReport` aggregates exactly (same nanosecond sums), and the
//!   queue/buffer/storage instruments are populated.

use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::telemetry::json::Json;
use marius::{
    DiskConfig, ExperimentReport, ModelConfig, NodeClassificationTask, PipelineConfig, Session,
    Storage, Telemetry, TrainConfig,
};

fn lp_data() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.02), 77)
}

fn lp_train() -> TrainConfig {
    let mut train = TrainConfig::quick(2, 77);
    train.batch_size = 192;
    train.num_negatives = 48;
    train.eval_negatives = 64;
    train
}

fn run_lp(storage: Storage, pipeline: PipelineConfig, telemetry: &Telemetry) -> ExperimentReport {
    let mut session = Session::builder()
        .dataset(lp_data())
        .model(ModelConfig::paper_link_prediction_graphsage(16).shrunk(6, 16))
        .train(lp_train())
        .storage(storage)
        .pipeline(pipeline)
        .telemetry(telemetry)
        .build()
        .expect("valid session");
    session.train().expect("training succeeds")
}

fn nc_run(storage: Storage, pipeline: PipelineConfig, telemetry: &Telemetry) -> ExperimentReport {
    let spec = DatasetSpec::ogbn_arxiv().scaled(0.008);
    let data = ScaledDataset::generate(&spec, 55);
    let mut model = ModelConfig::paper_node_classification(spec.feat_dim, 12);
    model.num_layers = 2;
    model.fanouts = vec![8, 5];
    let mut train = TrainConfig::quick(2, 55);
    train.batch_size = 128;
    let mut session = Session::builder()
        .task(NodeClassificationTask)
        .dataset(data)
        .model(model)
        .train(train)
        .storage(storage)
        .pipeline(pipeline)
        .telemetry(telemetry)
        .build()
        .expect("valid session");
    session.train().expect("training succeeds")
}

fn assert_bit_identical(plain: &ExperimentReport, traced: &ExperimentReport) {
    assert_eq!(plain.epochs.len(), traced.epochs.len());
    for (a, b) in plain.epochs.iter().zip(&traced.epochs) {
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "epoch {} loss diverged under telemetry: {} vs {}",
            a.epoch,
            a.loss,
            b.loss
        );
        assert_eq!(a.metric.to_bits(), b.metric.to_bits(), "epoch {}", a.epoch);
        assert_eq!(a.examples, b.examples, "epoch {}", a.epoch);
        assert_eq!(a.partition_loads, b.partition_loads, "epoch {}", a.epoch);
        assert_eq!(a.io_bytes_read, b.io_bytes_read, "epoch {}", a.epoch);
    }
}

#[test]
fn link_prediction_bit_exact_with_telemetry_on_and_off() {
    // In-memory.
    let plain = run_lp(
        Storage::InMemory,
        PipelineConfig::disabled(),
        &Telemetry::disabled(),
    );
    let telemetry = Telemetry::enabled();
    let traced = run_lp(Storage::InMemory, PipelineConfig::disabled(), &telemetry);
    assert_bit_identical(&plain, &traced);
    assert!(!telemetry.span_events().is_empty());

    // Pipelined out-of-core.
    let disk = Storage::Disk(DiskConfig::comet(8, 4));
    let plain = run_lp(
        disk.clone(),
        PipelineConfig::with_workers(2),
        &Telemetry::disabled(),
    );
    let telemetry = Telemetry::enabled();
    let traced = run_lp(disk, PipelineConfig::with_workers(2), &telemetry);
    assert_bit_identical(&plain, &traced);
    assert!(
        telemetry
            .metrics_snapshot()
            .counter("pipeline.steps")
            .unwrap()
            > 0
    );
}

#[test]
fn node_classification_bit_exact_with_telemetry_on_and_off() {
    let plain = nc_run(
        Storage::InMemory,
        PipelineConfig::disabled(),
        &Telemetry::disabled(),
    );
    let traced = nc_run(
        Storage::InMemory,
        PipelineConfig::disabled(),
        &Telemetry::enabled(),
    );
    assert_bit_identical(&plain, &traced);

    let disk = Storage::Disk(DiskConfig::node_cache(8, 6));
    let plain = nc_run(
        disk.clone(),
        PipelineConfig::with_workers(2),
        &Telemetry::disabled(),
    );
    let telemetry = Telemetry::enabled();
    let traced = nc_run(disk, PipelineConfig::with_workers(2), &telemetry);
    assert_bit_identical(&plain, &traced);
    assert!(
        telemetry
            .metrics_snapshot()
            .counter("buffer.misses")
            .unwrap()
            > 0
    );
}

#[test]
fn chrome_trace_export_is_valid_balanced_and_ordered() {
    let telemetry = Telemetry::enabled();
    run_lp(
        Storage::Disk(DiskConfig::comet(8, 4)),
        PipelineConfig::with_workers(2),
        &telemetry,
    );

    let doc = Json::parse(&telemetry.chrome_trace_json()).expect("trace is valid JSON");
    let events = doc
        .field("traceEvents")
        .and_then(|e| e.as_array().map(<[Json]>::to_vec))
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Every stage of the five-stage pipeline (plus the trainer loop) has a
    // named track in the thread-name metadata.
    let mut tracks = Vec::new();
    for e in &events {
        if e.str_field("name").ok() == Some("thread_name") {
            tracks.push(
                e.field("args")
                    .and_then(|a| a.str_field("name"))
                    .unwrap()
                    .to_string(),
            );
        }
    }
    for stage in [
        "trainer",
        "context-prefetch",
        "partition-prefetch",
        "batch-worker-0",
        "batch-worker-1",
        "compute",
        "writeback-drain",
    ] {
        assert!(tracks.iter().any(|t| t == stage), "missing track {stage}");
    }

    // Begin/end events pair LIFO per thread with matching names; timestamps
    // are nondecreasing across the whole document; every expected span name
    // appears at least once.
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut names = std::collections::BTreeSet::new();
    let mut last_ts = f64::MIN;
    for e in &events {
        let ph = e.str_field("ph").expect("ph");
        if ph == "M" {
            continue;
        }
        let ts = e.f64_field("ts").expect("ts");
        assert!(ts >= last_ts, "timestamps must be nondecreasing");
        last_ts = ts;
        let tid = e.u64_field("tid").expect("tid");
        let name = e.str_field("name").expect("name").to_string();
        match ph {
            "B" => {
                names.insert(name.clone());
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let open = stacks.entry(tid).or_default().pop();
                assert_eq!(open.as_deref(), Some(name.as_str()), "unbalanced end");
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(stacks.values().all(Vec::is_empty), "spans left open");
    for span in [
        "epoch",
        "epoch.train",
        "context-prefetch.step",
        "partition-prefetch.step",
        "partition-prefetch.read",
        "sample.step",
        "compute.step",
        "compute.batch",
        "writeback.step",
        "writeback.write",
    ] {
        assert!(names.contains(span), "missing span {span}");
    }
}

#[test]
fn metrics_export_agrees_with_epoch_report() {
    let telemetry = Telemetry::enabled();
    let report = run_lp(
        Storage::Disk(DiskConfig::comet(8, 4)),
        PipelineConfig::with_workers(2),
        &telemetry,
    );

    let doc = Json::parse(&telemetry.metrics_json()).expect("metrics.json is valid JSON");
    let counters = doc.field("counters").expect("counters object");
    let counter = |name: &str| {
        counters.u64_field(name).unwrap_or_else(|_| {
            panic!("missing counter {name}");
        })
    };

    // The trainer.* counters mirror the finalized EpochReport fields exactly:
    // the same nanosecond sums, re-derivable from the export alone.
    let ns = |f: fn(&marius::EpochReport) -> std::time::Duration| -> u64 {
        report.epochs.iter().map(|e| f(e).as_nanos() as u64).sum()
    };
    assert_eq!(counter("trainer.epochs"), report.epochs.len() as u64);
    assert_eq!(
        counter("trainer.examples"),
        report.epochs.iter().map(|e| e.examples as u64).sum::<u64>()
    );
    assert_eq!(counter("trainer.io_wait_ns"), ns(|e| e.io_wait_time));
    assert_eq!(counter("trainer.stall_ns"), ns(|e| e.stall_time));
    assert_eq!(counter("trainer.writeback_ns"), ns(|e| e.writeback_time));
    assert_eq!(
        counter("trainer.throttle_wait_ns"),
        ns(|e| e.throttle_wait_time)
    );
    assert_eq!(
        counter("trainer.buffer_hits"),
        report.epochs.iter().map(|e| e.buffer_hits).sum::<u64>()
    );
    assert_eq!(
        counter("trainer.buffer_misses"),
        report.epochs.iter().map(|e| e.buffer_misses).sum::<u64>()
    );
    assert_eq!(
        counter("trainer.buffer_evictions"),
        report
            .epochs
            .iter()
            .map(|e| e.buffer_evictions)
            .sum::<u64>()
    );

    // The pipeline/storage/buffer instruments are live, not just registered.
    assert!(counter("pipeline.steps") > 0);
    assert!(counter("pipeline.batches") > 0);
    assert!(counter("storage.reads") > 0);
    assert!(counter("storage.writes") > 0);
    assert!(counter("buffer.misses") > 0);
    let histograms = doc.field("histograms").expect("histograms object");
    let depth = histograms
        .field("pipeline.queue_depth.batch")
        .expect("batch queue-depth histogram");
    assert!(depth.u64_field("total").unwrap() > 0);
    assert_eq!(
        depth.field("bounds").unwrap().as_array().unwrap().len() + 1,
        depth.field("counts").unwrap().as_array().unwrap().len(),
        "one overflow bucket past the last bound"
    );
}

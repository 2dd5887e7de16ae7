//! Experiment reporting structures shared by the examples, the chaos suites
//! and the perf ledger.
//!
//! Reports render two ways: [`ExperimentReport::to_table`] produces the
//! aligned text tables the examples print, and [`ExperimentReport::to_json`]
//! produces a machine-readable document (the chaos suites write it as
//! `BENCH_*.json` so fault trajectories can be compared across commits).

use crate::checkpoint::Codec;
use marius_storage::Result;
use marius_telemetry::json::Json;
use marius_telemetry::Telemetry;
use std::time::Duration;

/// How one [`EpochReport`] field type is spelled: exactly, as one 64-bit word
/// (a count, nanoseconds, or a float's bit pattern) in a checkpoint manifest
/// and as a telemetry counter increment; in human units in report JSON.
trait Field: Sized {
    /// Appended to the field name to form its manifest key.
    const MANIFEST_SUFFIX: &'static str = "";
    /// Appended to the field name to form its report-JSON key.
    const JSON_SUFFIX: &'static str = "";
    /// Whether the word is a bit pattern, written as a `"0x…"` string.
    const BITS: bool = false;
    fn to_word(&self) -> u64;
    fn from_word(word: u64) -> Self;
    fn report_json(&self) -> Json {
        Json::Num(self.to_word().to_string())
    }
}

impl Field for u64 {
    fn to_word(&self) -> u64 {
        *self
    }
    fn from_word(word: u64) -> Self {
        word
    }
}

impl Field for usize {
    fn to_word(&self) -> u64 {
        *self as u64
    }
    fn from_word(word: u64) -> Self {
        word as usize
    }
}

impl Field for f64 {
    const MANIFEST_SUFFIX: &'static str = "_bits";
    const BITS: bool = true;
    fn to_word(&self) -> u64 {
        self.to_bits()
    }
    fn from_word(word: u64) -> Self {
        f64::from_bits(word)
    }
    fn report_json(&self) -> Json {
        Json::float(*self)
    }
}

impl Field for Duration {
    const MANIFEST_SUFFIX: &'static str = "_ns";
    const JSON_SUFFIX: &'static str = "_s";
    fn to_word(&self) -> u64 {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX)
    }
    fn from_word(word: u64) -> Self {
        Duration::from_nanos(word)
    }
    fn report_json(&self) -> Json {
        Json::float(self.as_secs_f64())
    }
}

fn manifest_field<F: Field>(name: &str, value: &F) -> (String, Json) {
    let word = value.to_word();
    let value = if F::BITS {
        Json::hex(word)
    } else {
        Json::Num(word.to_string())
    };
    (format!("{name}{}", F::MANIFEST_SUFFIX), value)
}

fn json_field<F: Field>(name: &str, value: &F) -> (String, Json) {
    (format!("{name}{}", F::JSON_SUFFIX), value.report_json())
}

/// Reads one manifest field; a field that is absent reads as `absent` when
/// there is one. A field that is present but malformed is always an error.
fn read_field<F: Field>(j: &Json, name: &str, absent: Option<F>) -> Result<F> {
    let value = match (j.field(&format!("{name}{}", F::MANIFEST_SUFFIX)), absent) {
        (Err(_), Some(absent)) => return Ok(absent),
        (value, _) => value?,
    };
    Ok(F::from_word(if F::BITS {
        value.as_hex_u64()?
    } else {
        value.as_u64()?
    }))
}

/// Declares [`EpochReport`] once: the struct, its bit-exact manifest codec,
/// its report-JSON object and its `trainer.*` counter mirror all expand from
/// this one field table, so adding a field is one line here. A field is
/// required in a manifest unless it names (`= value`) what it reads as when
/// absent — the fields added after format version 1 shipped do. A
/// `=> "name"` suffix mirrors the field into that telemetry counter.
macro_rules! epoch_report {
    ($( $(#[$doc:meta])* $field:ident: $ty:ty $(= $absent:expr)? $(=> $counter:literal)?, )*) => {
        /// Per-epoch measurements.
        #[derive(Debug, Clone, Default)]
        pub struct EpochReport {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        /// One entry of a manifest's `"epochs"` array: every field,
        /// bit-exactly.
        impl Codec for EpochReport {
            fn to_json(&self) -> Json {
                Json::Obj(vec![$( manifest_field(stringify!($field), &self.$field), )*])
            }

            fn from_json(j: &Json) -> Result<Self> {
                Ok(EpochReport {
                    $( $field: read_field(j, stringify!($field), None $(.or(Some($absent)))?)?, )*
                })
            }
        }

        impl EpochReport {
            /// The epoch's object in [`ExperimentReport::to_json`]: durations
            /// in (fractional) seconds, non-finite floats as `null`.
            fn report_json(&self) -> Json {
                Json::Obj(vec![$( json_field(stringify!($field), &self.$field), )*])
            }

            /// Mirrors one finalized epoch into `trainer.*` counters, so
            /// `metrics.json` aggregates agree with the summed report fields
            /// exactly.
            pub(crate) fn mirror_into(&self, telemetry: &Telemetry) {
                if !telemetry.is_enabled() {
                    return;
                }
                telemetry.counter("trainer.epochs").incr();
                $( $( telemetry.counter($counter).add(self.$field.to_word()); )? )*
            }
        }
    };
}

epoch_report! {
    /// Epoch index (0-based).
    epoch: usize,
    /// Mean training loss over the epoch.
    loss: f64,
    /// Task metric after the epoch: accuracy for node classification, MRR for
    /// link prediction.
    metric: f64,
    /// Pipelined runs only: summed per-stage busy time divided by epoch wall
    /// time. Values above 1.0 quantify how much work the stages overlapped;
    /// 0.0 on the in-order schedule.
    overlap: f64,
    /// Wall-clock duration of the epoch's training phase.
    epoch_time: Duration => "trainer.epoch_time_ns",
    /// Time spent in CPU neighbourhood sampling. On pipelined runs this sums
    /// across concurrent sampling workers (CPU time, not wall time), so it
    /// can legitimately exceed `epoch_time`.
    sample_time: Duration,
    /// Time spent in forward/backward compute and updates.
    compute_time: Duration,
    /// Device time the emulated device charged for the epoch's IO (zero
    /// without an emulated device).
    io_time: Duration,
    /// Pipelined runs only: time the compute consumer spent blocked waiting
    /// for upstream stages (prefetched partitions or constructed batches).
    /// Zero on the in-order schedule, where every wait is inline.
    io_wait_time: Duration => "trainer.io_wait_ns",
    /// Pipelined runs only: time the prefetcher and sampling workers spent
    /// blocked on back-pressure or write-back dependencies. The write-back
    /// drain's idle wait is excluded (it spends most of the epoch waiting
    /// for work by design); back-pressure *from* the drain shows up in
    /// `io_wait_time` via the consumer's queue wait.
    stall_time: Duration => "trainer.stall_ns",
    /// Pipelined runs only: time the write-back drain thread spent writing
    /// evicted dirty partitions to disk, off the compute path. Zero on the
    /// in-order schedule, where eviction writes are inline (and land in
    /// `epoch_time` directly).
    writeback_time: Duration => "trainer.writeback_ns",
    /// Bytes read from disk during the epoch.
    io_bytes_read: u64,
    /// Bytes written to disk during the epoch.
    io_bytes_written: u64,
    /// Partition loads performed during the epoch.
    partition_loads: usize,
    /// Training examples processed.
    examples: usize => "trainer.examples",
    /// Total unique nodes sampled across mini batches.
    nodes_sampled: usize,
    /// Total neighbour edges sampled across mini batches.
    edges_sampled: usize,
    /// Transient IO failures that were absorbed by the retry layer during the
    /// epoch (each one is an extra attempt of a partition/bucket/checkpoint
    /// operation). Zero on a healthy device.
    io_retries: u64 = 0,
    /// Faults an attached [`marius_storage::fault::FaultInjector`] injected
    /// into the training store's own operations during the epoch (the scope
    /// of `io_retries`; faults in a stream's staging store are not counted);
    /// zero when no fault plan is armed.
    faults_injected: u64 = 0,
    /// Number of checkpoint-resume recoveries that preceded this epoch in a
    /// `train_with_recovery` run; zero on an uninterrupted run.
    recoveries: usize = 0,
    /// Disk runs only: partitions the buffer found already resident during
    /// this epoch's swaps (no disk read needed).
    buffer_hits: u64 = 0 => "trainer.buffer_hits",
    /// Disk runs only: partitions the buffer had to load from the store
    /// during this epoch's swaps. Mirrors `partition_loads` through the
    /// buffer's own accounting.
    buffer_misses: u64 = 0 => "trainer.buffer_misses",
    /// Disk runs only: partitions evicted from the buffer during the epoch
    /// (written back inline or detached to the write-back drain when dirty).
    buffer_evictions: u64 = 0 => "trainer.buffer_evictions",
    /// Emulated-device runs only: time IO operations spent queued behind the
    /// device's single-lane reservation before their transfer began. Zero on
    /// real (non-emulated) devices.
    throttle_wait_time: Duration = Duration::ZERO => "trainer.throttle_wait_ns",
    /// Streaming runs only: edges ingested into the training buckets at this
    /// epoch's boundary (applied at the write-back safe point, after the
    /// epoch's training but before its evaluation). Zero on frozen-dataset
    /// runs.
    edges_ingested: u64 = 0,
}

/// A complete experiment run: configuration label plus per-epoch reports.
#[derive(Debug, Clone, Default)]
pub struct ExperimentReport {
    /// System / configuration label (e.g. "M-GNN_Mem", "M-GNN_Disk (COMET)").
    pub(crate) system: String,
    /// Dataset label.
    pub dataset: String,
    /// Per-epoch measurements, in order.
    pub epochs: Vec<EpochReport>,
}

impl ExperimentReport {
    /// Creates an empty report with labels.
    pub fn new(system: impl Into<String>, dataset: impl Into<String>) -> Self {
        ExperimentReport {
            system: system.into(),
            dataset: dataset.into(),
            epochs: Vec::new(),
        }
    }

    /// The final epoch's metric (0.0 if no epochs ran).
    pub fn final_metric(&self) -> f64 {
        self.epochs.last().map(|e| e.metric).unwrap_or(0.0)
    }

    /// The best metric across epochs.
    pub(crate) fn best_metric(&self) -> f64 {
        self.epochs.iter().map(|e| e.metric).fold(0.0, f64::max)
    }

    /// Mean epoch time.
    pub fn avg_epoch_time(&self) -> Duration {
        if self.epochs.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.epochs.iter().map(|e| e.epoch_time).sum();
        total / self.epochs.len() as u32
    }

    /// Total training time across epochs.
    pub(crate) fn total_time(&self) -> Duration {
        self.epochs.iter().map(|e| e.epoch_time).sum()
    }

    /// Renders the report as a self-contained JSON document: the labels, the
    /// derived summary metrics, and one object per epoch. Durations are
    /// emitted in (fractional) seconds; skipped-evaluation metrics are
    /// rendered as `null`.
    pub fn to_json(&self) -> String {
        let epochs = self.epochs.iter().map(EpochReport::report_json);
        Json::obj([
            ("system", Json::Str(self.system.clone())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("final_metric", Json::float(self.final_metric())),
            ("best_metric", Json::float(self.best_metric())),
            (
                "avg_epoch_time_s",
                Json::float(self.avg_epoch_time().as_secs_f64()),
            ),
            ("total_time_s", Json::float(self.total_time().as_secs_f64())),
            ("epochs", Json::Arr(epochs.collect())),
        ])
        .render()
    }

    /// Renders the report as an aligned text table (one row per epoch).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} on {}\n", self.system, self.dataset));
        out.push_str("epoch |   loss   | metric | epoch_s | sample_s | compute_s | io_s | loads\n");
        for e in &self.epochs {
            out.push_str(&format!(
                "{:5} | {:8.4} | {:6.4} | {:7.2} | {:8.2} | {:9.2} | {:4.2} | {:5}\n",
                e.epoch,
                e.loss,
                e.metric,
                e.epoch_time.as_secs_f64(),
                e.sample_time.as_secs_f64(),
                e.compute_time.as_secs_f64(),
                e.io_time.as_secs_f64(),
                e.partition_loads,
            ));
        }
        out
    }
}

/// The manifest codec under the names the tests below call it by.
#[cfg(test)]
impl EpochReport {
    fn to_manifest_json(&self) -> String {
        Codec::to_json(self).render()
    }

    fn from_manifest_json(j: &Json) -> Result<Self> {
        Codec::from_json(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(metrics: &[f64], secs: u64) -> ExperimentReport {
        let mut r = ExperimentReport::new("test-system", "test-data");
        for (i, &m) in metrics.iter().enumerate() {
            r.epochs.push(EpochReport {
                epoch: i,
                metric: m,
                epoch_time: Duration::from_secs(secs),
                ..Default::default()
            });
        }
        r
    }

    #[test]
    fn metric_accessors() {
        let r = report_with(&[0.1, 0.3, 0.25], 60);
        assert_eq!(r.final_metric(), 0.25);
        assert_eq!(r.best_metric(), 0.3);
        assert_eq!(r.avg_epoch_time(), Duration::from_secs(60));
        assert_eq!(r.total_time(), Duration::from_secs(180));
    }

    #[test]
    fn empty_report_defaults() {
        let r = ExperimentReport::new("s", "d");
        assert_eq!(r.final_metric(), 0.0);
        assert_eq!(r.avg_epoch_time(), Duration::ZERO);
    }

    #[test]
    fn table_rendering_contains_rows() {
        let r = report_with(&[0.5, 0.6], 10);
        let table = r.to_table();
        assert!(table.contains("test-system"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn json_rendering_contains_labels_summary_and_epochs() {
        let r = report_with(&[0.5, 0.6], 10);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"system\":\"test-system\""));
        assert!(json.contains("\"dataset\":\"test-data\""));
        assert!(json.contains("\"final_metric\":0.6"));
        assert!(json.contains("\"epoch_time_s\":10"));
        assert_eq!(json.matches("\"epoch\":").count(), 2);
    }

    /// An epoch with a distinct, non-default value in every field.
    fn distinct_epoch() -> EpochReport {
        let ns = Duration::from_nanos;
        EpochReport {
            epoch: 3,
            loss: 0.1 + 0.2, // not exactly representable: exercises the bit codec
            metric: f64::NAN,
            overlap: 1.75,
            epoch_time: ns(1_000_000_007),
            sample_time: ns(11),
            compute_time: ns(12),
            io_time: ns(13),
            io_wait_time: ns(14),
            stall_time: ns(15),
            writeback_time: ns(16),
            io_bytes_read: u64::MAX,
            io_bytes_written: 18,
            partition_loads: 19,
            examples: 20,
            nodes_sampled: 21,
            edges_sampled: 22,
            io_retries: 23,
            faults_injected: 24,
            recoveries: 25,
            buffer_hits: 26,
            buffer_misses: 27,
            buffer_evictions: 28,
            throttle_wait_time: ns(29),
            edges_ingested: 30,
        }
    }

    #[test]
    fn the_manifest_codec_is_bit_exact_and_tolerates_fields_added_after_v1() {
        let epoch = distinct_epoch();
        let manifest = epoch.to_manifest_json();
        let back = EpochReport::from_manifest_json(&Json::parse(&manifest).unwrap()).unwrap();
        // Debug prints every field (floats by shortest round-trip digits), so
        // equal text plus equal float bits is field-for-field equality.
        assert_eq!(format!("{back:?}"), format!("{epoch:?}"));
        assert_eq!(back.loss.to_bits(), epoch.loss.to_bits());
        assert_eq!(back.metric.to_bits(), epoch.metric.to_bits());
        assert_eq!(back.to_manifest_json(), manifest);

        // What a version-1 writer produced: everything up to edges_sampled.
        let v1 = format!(
            "{}}}",
            &manifest[..manifest.find(",\"io_retries\"").unwrap()]
        );
        let old = EpochReport::from_manifest_json(&Json::parse(&v1).unwrap()).unwrap();
        let later = EpochReport {
            io_retries: 0,
            faults_injected: 0,
            recoveries: 0,
            buffer_hits: 0,
            buffer_misses: 0,
            buffer_evictions: 0,
            throttle_wait_time: Duration::ZERO,
            edges_ingested: 0,
            ..epoch
        };
        assert_eq!(format!("{old:?}"), format!("{later:?}"));
        // A version-1 field, by contrast, is required.
        let broken = manifest.replace("\"examples\":20,", "");
        assert!(EpochReport::from_manifest_json(&Json::parse(&broken).unwrap()).is_err());
    }

    #[test]
    fn report_json_names_the_same_25_keys_as_ever() {
        let mut r = ExperimentReport::new("s", "d");
        r.epochs.push(distinct_epoch());
        let doc = Json::parse(&r.to_json()).unwrap();
        let epoch = &doc.field("epochs").unwrap().as_array().unwrap()[0];
        let Json::Obj(pairs) = epoch else {
            panic!("an epoch renders as an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let expected = "epoch loss metric overlap epoch_time_s sample_time_s compute_time_s \
                        io_time_s io_wait_time_s stall_time_s writeback_time_s io_bytes_read \
                        io_bytes_written partition_loads examples nodes_sampled edges_sampled \
                        io_retries faults_injected recoveries buffer_hits buffer_misses \
                        buffer_evictions throttle_wait_time_s edges_ingested";
        assert_eq!(keys, expected.split(' ').collect::<Vec<_>>());
        assert_eq!(epoch.f64_field("epoch_time_s").unwrap(), 1.000000007);
        assert_eq!(epoch.u64_field("io_bytes_read").unwrap(), u64::MAX);
        assert_eq!(epoch.field("metric").unwrap(), &Json::Null);
    }

    #[test]
    fn the_counter_mirror_sums_to_the_report() {
        let telemetry = Telemetry::enabled();
        let (a, mut b) = (distinct_epoch(), distinct_epoch());
        b.examples = 1;
        b.io_wait_time = Duration::from_nanos(1_000);
        a.mirror_into(&telemetry);
        b.mirror_into(&telemetry);
        a.mirror_into(&Telemetry::disabled()); // a no-op
        let counters = telemetry.metrics_snapshot();
        type Get = fn(&EpochReport) -> u64;
        let mirrored: [(&str, Get); 9] = [
            ("trainer.examples", |e| e.examples as u64),
            ("trainer.epoch_time_ns", |e| e.epoch_time.as_nanos() as u64),
            ("trainer.io_wait_ns", |e| e.io_wait_time.as_nanos() as u64),
            ("trainer.stall_ns", |e| e.stall_time.as_nanos() as u64),
            ("trainer.writeback_ns", |e| {
                e.writeback_time.as_nanos() as u64
            }),
            ("trainer.throttle_wait_ns", |e| {
                e.throttle_wait_time.as_nanos() as u64
            }),
            ("trainer.buffer_hits", |e| e.buffer_hits),
            ("trainer.buffer_misses", |e| e.buffer_misses),
            ("trainer.buffer_evictions", |e| e.buffer_evictions),
        ];
        assert_eq!(counters.counter("trainer.epochs"), Some(2));
        assert_eq!(counters.counter("trainer.io_wait_ns"), Some(14 + 1_000));
        for (name, field) in mirrored {
            assert_eq!(
                counters.counter(name),
                Some(field(&a) + field(&b)),
                "{name}"
            );
        }
    }

    #[test]
    fn json_escapes_labels_and_renders_nan_as_null() {
        let mut r = ExperimentReport::new("sys \"quoted\"\\", "d");
        r.epochs.push(EpochReport {
            metric: f64::NAN,
            ..Default::default()
        });
        let json = r.to_json();
        assert!(json.contains("sys \\\"quoted\\\"\\\\"));
        assert!(json.contains("\"metric\":null"));
    }
}

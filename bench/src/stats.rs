//! Order statistics, the tail-percentile picker, digests and `VmHWM` parsing.

/// Median of `values` (mean of the two middle values for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The tail of a latency sample as `(percentile, value)`: the highest
/// percentile of [`TAIL_LADDER`] that still has at least ten samples beyond
/// it, so the reported tail is never a single outlier. With fewer than forty
/// samples no rung qualifies and no tail is claimed: the median is returned
/// as percentile 50 (the maximum of a handful of epochs is exactly the
/// one-outlier number the rule exists to avoid).
pub fn tail(values: &[f64]) -> (f64, f64) {
    for &per_mille in TAIL_LADDER {
        // Integer arithmetic: 100 samples have exactly ten beyond p90.
        if values.len() * (1000 - per_mille) >= 10 * 1000 {
            let p = per_mille as f64 / 10.0;
            return (p, percentile(values, p));
        }
    }
    (50.0, median(values))
}

/// The smallest sum of `k` consecutive `samples` (all of them when there are
/// fewer than `k`); 0 when empty.
///
/// The reference box is shared: a neighbour's load slows everything by up to
/// a quarter for seconds at a time and never speeds anything up, so of units
/// that do the same work (the passes of a serve workload, the epochs of
/// `lp_disk_ebs`) the fastest is the one least disturbed, while their mean
/// and median follow the neighbour. Units that differ in their work
/// (`nc_mem` epochs, stream cycles) are reduced with the median instead.
pub fn fastest_window(samples: &[f64], k: usize) -> f64 {
    samples
        .windows(k.clamp(1, samples.len().max(1)))
        .map(|w| w.iter().sum::<f64>())
        .min_by(f64::total_cmp)
        .unwrap_or(0.0)
}

/// How a percentile picked by [`tail`] is named in a run's details (`p99`).
pub fn percentile_name(p: f64) -> String {
    format!("p{p}")
}

/// Percentiles [`tail`] chooses from, highest first, in tenths of a percent.
const TAIL_LADDER: &[usize] = &[999, 990, 950, 900, 750];

/// 64-bit FNV-1a over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// splitmix64: derives the dataset / training / query / stream seeds from the
/// single `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Extracts `VmHWM` (peak resident set) in MB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let samples = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 39 samples: even p75 leaves fewer than ten beyond it.
        assert_eq!(tail(&samples(39)), (50.0, 20.0));
        assert_eq!(tail(&samples(3)), (50.0, 2.0));
        assert_eq!(tail(&samples(40)).0, 75.0);
        assert_eq!(tail(&samples(100)).0, 90.0);
        assert_eq!(tail(&samples(999)).0, 95.0);
        assert_eq!(tail(&samples(1000)).0, 99.0);
        assert_eq!(tail(&samples(10_000)).0, 99.9);
        let (p, v) = tail(&samples(1001));
        assert_eq!(p, 99.0);
        assert!((v - 991.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn fastest_window_is_the_smallest_run_of_consecutive_samples() {
        let samples = [5.0, 1.0, 2.0, 9.0, 1.5, 1.5, 1.0];
        assert_eq!(fastest_window(&samples, 1), 1.0);
        assert_eq!(fastest_window(&samples, 2), 2.5);
        assert_eq!(fastest_window(&samples, 3), 4.0);
        assert_eq!(fastest_window(&samples, 99), 21.0);
        assert_eq!(fastest_window(&[], 3), 0.0);
    }

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 25.0), 2.5);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status_text() {
        let status =
            "Name:\tmarius-perf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn fnv_and_seed_derivation_are_stable() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}

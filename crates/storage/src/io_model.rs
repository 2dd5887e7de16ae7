//! Block-storage cost model (the paper's EBS volume: 1 GB/s, 10 000 IOPS).
//!
//! Out-of-core experiments in this reproduction run against the local filesystem,
//! which is much faster than the cloud volume the paper used. To reproduce the
//! paper's IO regime, a store can emulate a device under this model
//! ([`crate::PartitionStore::with_emulated_device`]): each op sleeps out the
//! time the model charges for it, and [`crate::disk::IoStats::device_time`]
//! sums those charges.

use std::time::Duration;

/// Bandwidth / IOPS / block-size model of a block storage device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoCostModel {
    /// Sustained sequential bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Maximum IO operations per second.
    pub iops: f64,
    /// Device block size in bytes; reads smaller than this still pay for a full
    /// block (§6's argument for bounding the number of physical partitions).
    pub block_size: u64,
}

impl IoCostModel {
    /// The EBS gp2/gp3 volume used in the paper's evaluation (§7.1): 1 GB/s of
    /// bandwidth and 10 000 IOPS, with a 128 KiB effective block size.
    pub fn ebs_gp3() -> Self {
        IoCostModel {
            bandwidth_bytes_per_sec: 1.0e9,
            iops: 10_000.0,
            block_size: 128 * 1024,
        }
    }

    /// A local NVMe SSD (for sensitivity analysis): 3 GB/s, 400k IOPS, 4 KiB blocks.
    pub fn local_nvme() -> Self {
        IoCostModel {
            bandwidth_bytes_per_sec: 3.0e9,
            iops: 400_000.0,
            block_size: 4 * 1024,
        }
    }

    /// Estimated time to perform `ops` operations moving `bytes` in total.
    ///
    /// The device is limited by whichever is slower: moving the bytes at the
    /// sequential bandwidth (rounding every operation up to a whole block) or
    /// issuing the operations at the IOPS limit.
    pub(crate) fn transfer_time(&self, bytes: u64, ops: u64) -> Duration {
        let effective_bytes = bytes.max(ops * self.block_size);
        let bandwidth_time = effective_bytes as f64 / self.bandwidth_bytes_per_sec;
        let iops_time = ops as f64 / self.iops;
        Duration::from_secs_f64(bandwidth_time.max(iops_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_bound_transfer() {
        let m = IoCostModel::ebs_gp3();
        // 10 GB in 10 ops: bandwidth-bound at ~10 s.
        let t = m.transfer_time(10_000_000_000, 10);
        assert!((t.as_secs_f64() - 10.0).abs() < 0.5);
    }

    #[test]
    fn iops_bound_transfer() {
        let m = IoCostModel::ebs_gp3();
        // 100k tiny reads: IOPS-bound at ~10 s even though bytes are negligible.
        let t = m.transfer_time(100_000, 100_000);
        assert!(t.as_secs_f64() >= 9.9);
    }

    #[test]
    fn small_reads_pay_full_blocks() {
        let m = IoCostModel::ebs_gp3();
        let few_big = m.transfer_time(1_000_000, 8);
        let many_small = m.transfer_time(1_000_000, 5_000);
        assert!(many_small > few_big);
    }

    #[test]
    fn nvme_faster_than_ebs() {
        let bytes = 5_000_000_000u64;
        assert!(
            IoCostModel::local_nvme().transfer_time(bytes, 100)
                < IoCostModel::ebs_gp3().transfer_time(bytes, 100)
        );
    }
}

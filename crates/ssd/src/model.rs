//! NVMe SSD timing model.
//!
//! Table 1 of the paper pins the local SSD to a Huawei ES3600P V5 with
//! 88 µs read / 14 µs write latency; Figure 7 shows local Ext4's IOPS
//! saturating once concurrency exceeds the SSD's internal parallelism.
//! The model is intentionally simple: a fixed per-command service time by
//! direction plus a size-proportional transfer term, executed on
//! `channels`-way internal parallelism (a `dpc-sim` station).

use dpc_fault::Nanos;

#[derive(Copy, Clone, Debug)]
pub struct SsdModel {
    /// Base service time of a small read command.
    pub read_service: Nanos,
    /// Base service time of a small write command (cache-absorbed, hence
    /// much lower than reads on this device).
    pub write_service: Nanos,
    /// Internal parallelism: concurrent commands served without queueing.
    pub channels: usize,
    /// Sustained media/interface bandwidth for the size-dependent term.
    pub bandwidth_bytes_per_sec: f64,
    /// Command size at or below which the transfer term is considered
    /// included in the base service time.
    pub base_covers_bytes: u64,
}

impl Default for SsdModel {
    /// Calibrated to the ES3600P V5 in Table 1.
    fn default() -> Self {
        SsdModel {
            read_service: Nanos::from_micros(88.0),
            write_service: Nanos::from_micros(14.0),
            channels: 16,
            bandwidth_bytes_per_sec: 3.2e9,
            base_covers_bytes: 8192,
        }
    }
}

impl SsdModel {
    /// Service time for one read command of `bytes`.
    pub fn read_time(&self, bytes: u64) -> Nanos {
        self.read_service + self.transfer_excess(bytes)
    }

    /// Service time for one write command of `bytes`.
    pub fn write_time(&self, bytes: u64) -> Nanos {
        self.write_service + self.transfer_excess(bytes)
    }

    fn transfer_excess(&self, bytes: u64) -> Nanos {
        let excess = bytes.saturating_sub(self.base_covers_bytes);
        Nanos::for_transfer(excess, self.bandwidth_bytes_per_sec)
    }

    /// Theoretical small-read IOPS ceiling (channels / service time).
    pub fn peak_read_iops(&self) -> f64 {
        self.channels as f64 / self.read_service.as_secs()
    }

    /// Theoretical small-write IOPS ceiling.
    pub fn peak_write_iops(&self) -> f64 {
        self.channels as f64 / self.write_service.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let m = SsdModel::default();
        assert_eq!(m.read_time(4096), Nanos::from_micros(88.0));
        assert_eq!(m.write_time(4096), Nanos::from_micros(14.0));
    }

    #[test]
    fn small_commands_pay_only_base() {
        let m = SsdModel::default();
        assert_eq!(m.read_time(512), m.read_time(8192));
    }

    #[test]
    fn large_commands_pay_transfer() {
        let m = SsdModel::default();
        let t1m = m.read_time(1 << 20);
        assert!(t1m > m.read_time(8192));
        // 1MiB - 8KiB at 3.2 GB/s is about 325us of transfer.
        let extra = (t1m - m.read_time(8192)).as_micros();
        assert!((300.0..350.0).contains(&extra), "{extra}");
    }

    #[test]
    fn iops_ceilings() {
        let m = SsdModel::default();
        // 16 channels / 88us ≈ 181k read IOPS; matches Fig 7 where Ext4
        // read IOPS plateau in the low-hundreds-of-thousands.
        assert!((m.peak_read_iops() - 181_818.0).abs() < 2000.0);
        assert!(m.peak_write_iops() > m.peak_read_iops());
    }
}

//! # dpc-net — the RDMA fabric between clients and disaggregated storage
//!
//! The paper's DPU talks RoCE/InfiniBand to the disaggregated KV store and
//! the DFS backend (§2.2). We model the fabric as a timing function plus
//! message accounting; the *contents* of messages are moved by direct calls
//! in the functional layer (`dpc-kvstore`, `dpc-dfs`), and the *time* they
//! take is charged through [`NetworkModel`] at `dpc-sim` stations.

use std::sync::atomic::{AtomicU64, Ordering};

use dpc_fault::Nanos;

/// Timing model of one RDMA-capable link/fabric path.
#[derive(Copy, Clone, Debug)]
pub struct NetworkModel {
    /// Round-trip time of a minimal message (send + completion).
    pub rtt: Nanos,
    /// Usable bandwidth of the path.
    pub bandwidth_bytes_per_sec: f64,
    /// CPU time to post and reap one message pair (per side; charged at
    /// whichever CPU station initiates the exchange).
    pub per_message_cpu: Nanos,
}

impl Default for NetworkModel {
    /// A 100 GbE RoCE fabric: 5 µs RTT, 12.5 GB/s.
    fn default() -> Self {
        NetworkModel {
            rtt: Nanos::from_micros(5.0),
            bandwidth_bytes_per_sec: 12.5e9,
            per_message_cpu: Nanos::from_micros(0.6),
        }
    }
}

impl NetworkModel {
    /// Wire time of a one-way transfer of `bytes` (no RTT component).
    pub fn one_way(&self, bytes: u64) -> Nanos {
        Nanos::for_transfer(bytes, self.bandwidth_bytes_per_sec)
    }

    /// Total wire time of a request/response exchange: one RTT plus the
    /// serialisation time of both payloads.
    pub fn round_trip(&self, request_bytes: u64, response_bytes: u64) -> Nanos {
        self.rtt + self.one_way(request_bytes) + self.one_way(response_bytes)
    }

    /// RDMA one-sided read of `bytes`: half an RTT to issue, payload back.
    pub fn rdma_read(&self, bytes: u64) -> Nanos {
        self.rtt / 2 + self.one_way(bytes)
    }

    /// RDMA one-sided write of `bytes`: payload out, half an RTT for the ack.
    pub fn rdma_write(&self, bytes: u64) -> Nanos {
        self.one_way(bytes) + self.rtt / 2
    }
}

/// Message counters for a fabric endpoint.
#[derive(Default, Debug)]
pub struct NetCounters {
    messages: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

/// Snapshot of [`NetCounters`].
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct NetSnapshot {
    pub messages: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl NetCounters {
    pub fn record(&self, sent: u64, received: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(sent, Ordering::Relaxed);
        self.bytes_received.fetch_add(received, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            messages: self.messages.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }
}

impl NetSnapshot {
    pub fn since(&self, earlier: &NetSnapshot) -> NetSnapshot {
        NetSnapshot {
            messages: self.messages - earlier.messages,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_round_trip_is_rtt() {
        let n = NetworkModel::default();
        assert_eq!(n.round_trip(0, 0), n.rtt);
    }

    #[test]
    fn payload_adds_serialisation() {
        let n = NetworkModel::default();
        let t = n.round_trip(0, 1 << 20);
        // 1 MiB at 12.5 GB/s ≈ 83.9 us on top of 5 us RTT.
        assert!((t.as_micros() - 88.9).abs() < 1.0, "{t}");
    }

    #[test]
    fn one_sided_ops_cheaper_than_two_sided() {
        let n = NetworkModel::default();
        assert!(n.rdma_read(4096) < n.round_trip(64, 4096));
        assert!(n.rdma_write(4096) < n.round_trip(4096 + 64, 64));
    }

    #[test]
    fn counters_accumulate() {
        let c = NetCounters::default();
        c.record(100, 4096);
        c.record(50, 0);
        let s = c.snapshot();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.bytes_received, 4096);
        let later = NetCounters::default();
        later.record(1, 1);
        assert_eq!(later.snapshot().since(&NetSnapshot::default()).messages, 1);
    }
}

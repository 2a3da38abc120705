//! Spans recorded from outside the program: one around every `DpcFs` call
//! of a traced round, one around every probe call into a single layer.
//! Kept in memory; written as JSONL when the child ends.

use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use crate::workload::Class;

/// Adapter spans written per file: the head of the first traced round,
/// the ops the probe phase replays. The rest stay in memory for the
/// statistics only (a 360 000-op round would otherwise write 40 MB).
const WRITTEN_ADAPTER_SPANS: usize = crate::probe::REPLAY_OPS;

#[derive(Copy, Clone)]
struct AdapterSpan {
    start_ns: u64,
    dur_ns: u32,
    /// Link calls the op made (`ChannelPool` submissions).
    calls: u16,
    class: Class,
}

struct ProbeSpan {
    name: &'static str,
    parent: Class,
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    rounds: Vec<Vec<AdapterSpan>>,
    probes: Vec<ProbeSpan>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            rounds: Vec::new(),
            probes: Vec::new(),
        }
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin_round(&mut self, ops: usize) {
        self.rounds.push(Vec::with_capacity(ops));
    }

    /// Record the span of the round's next adapter op (`req` is its
    /// position in the round).
    #[inline]
    pub fn adapter(&mut self, class: Class, start_ns: u64, end_ns: u64, calls: u32) {
        let round = self.rounds.last_mut().expect("begin_round first");
        round.push(AdapterSpan {
            start_ns,
            dur_ns: (end_ns - start_ns).min(u32::MAX as u64) as u32,
            calls: calls.min(u16::MAX as u32) as u16,
            class,
        });
    }

    /// Record a probe call into one layer, standing in for what adapter op
    /// `req` of class `parent` makes that layer do.
    #[inline]
    pub fn probe(
        &mut self,
        name: &'static str,
        parent: Class,
        req: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.probes.push(ProbeSpan {
            name,
            parent,
            req,
            start_ns,
            end_ns,
        });
    }

    /// Latencies (ns) of the round being recorded.
    pub fn round_latencies(&self) -> Vec<u32> {
        self.rounds
            .last()
            .map(|r| r.iter().map(|s| s.dur_ns).collect())
            .unwrap_or_default()
    }

    /// Latencies (ns) of every traced op, by class index.
    pub fn class_latencies(&self) -> Vec<Vec<u32>> {
        let mut by: Vec<Vec<u32>> = Class::ALL.iter().map(|_| Vec::new()).collect();
        for s in self.rounds.iter().flatten() {
            by[s.class as usize].push(s.dur_ns);
        }
        by
    }

    /// `(self µs/op, mean µs/op, link calls/op)` over every traced op.
    /// From outside, an op's time can be called the adapter's own only
    /// when the op made no link call; ops that cross contribute nothing
    /// here and their host-side marshalling lands in the unattributed
    /// remainder.
    pub fn self_time_per_op(&self) -> (f64, f64, f64) {
        let (mut own, mut total, mut calls, mut n) = (0u64, 0u64, 0u64, 0u64);
        for s in self.rounds.iter().flatten() {
            n += 1;
            total += s.dur_ns as u64;
            calls += s.calls as u64;
            if s.calls == 0 {
                own += s.dur_ns as u64;
            }
        }
        if n == 0 {
            return (0.0, 0.0, 0.0);
        }
        let n = n as f64;
        (
            own as f64 / 1e3 / n,
            total as f64 / 1e3 / n,
            calls as f64 / n,
        )
    }

    /// Write `{name, req, parent, start_ns, end_ns}` lines under the
    /// crate's own `target/` (ignored by git, inside the checkout).
    pub fn write_jsonl(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/trace");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        let mut f = BufWriter::new(std::fs::File::create(&path)?);
        if let Some(round) = self.rounds.first() {
            for (req, s) in round.iter().take(WRITTEN_ADAPTER_SPANS).enumerate() {
                writeln!(
                    f,
                    "{{\"name\":\"core.adapter.{}\",\"req\":{req},\"parent\":null,\"start_ns\":{},\"end_ns\":{},\"link_calls\":{}}}",
                    s.class.name(),
                    s.start_ns,
                    s.start_ns + s.dur_ns as u64,
                    s.calls
                )?;
            }
        }
        for p in &self.probes {
            writeln!(
                f,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":\"core.adapter.{}\",\"start_ns\":{},\"end_ns\":{}}}",
                p.name,
                p.req,
                p.parent.name(),
                p.start_ns,
                p.end_ns
            )?;
        }
        f.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_only_ops_that_did_not_cross() {
        let mut s = Spans::new(Instant::now());
        s.begin_round(3);
        s.adapter(Class::Read, 0, 1000, 0);
        s.adapter(Class::Read, 1000, 4000, 1);
        s.adapter(Class::Stat, 4000, 6000, 5);
        let (own, mean, calls) = s.self_time_per_op();
        assert!((own - 1.0 / 3.0).abs() < 1e-9);
        assert!((mean - 2.0).abs() < 1e-9);
        assert!((calls - 2.0).abs() < 1e-9);
        assert_eq!(s.round_latencies(), vec![1000, 3000, 2000]);
        let by = s.class_latencies();
        assert_eq!(by[Class::Read as usize], vec![1000, 3000]);
        assert_eq!(by[Class::Stat as usize], vec![2000]);
    }
}

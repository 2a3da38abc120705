//! The buffered data path against a byte model.
//!
//! One instance runs a seeded schedule of `write` / `writev` / `read` /
//! `truncate` / `fsync` over two files; every read is compared with an
//! in-memory model, and after a final `fsync` so are each file's size
//! and durable bytes. Run plain, under seeded chaos at `nvmefs.defer` +
//! `cache.flush` (seeds 1/7/42, or `DPC_CHAOS_SEED=<u64>` to pin one),
//! with a small intent-log ring under the same chaos, and over random
//! seeds. No other suite drives `writev` and `truncate` — the ops the log
//! records — through those two fault sites.

use dpc::core::{Dpc, DpcConfig, Fd};
use dpc::sim::{FaultPlan, FaultSpec};
use proptest::prelude::*;

const CHAOS_SEEDS: [u64; 3] = [1, 7, 42];

fn seeds() -> Vec<u64> {
    match std::env::var("DPC_CHAOS_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("DPC_CHAOS_SEED must be an unsigned integer")],
        Err(_) => CHAOS_SEEDS.to_vec(),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pattern(seed: u64, tag: u64, len: usize) -> Vec<u8> {
    let mut s = seed ^ tag.rotate_left(23);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix(&mut s).to_le_bytes());
    }
    out.truncate(len);
    out
}

const FILES: usize = 2;
const MAX_BYTES: u64 = 64 * 1024;
const OPS: u64 = 40;

#[derive(Debug)]
enum Op {
    Write {
        file: usize,
        offset: u64,
        data: Vec<u8>,
    },
    Writev {
        file: usize,
        offset: u64,
        parts: Vec<Vec<u8>>,
    },
    Read {
        file: usize,
        offset: u64,
        len: usize,
    },
    Truncate {
        file: usize,
        size: u64,
    },
    Fsync {
        file: usize,
    },
}

fn gen_op(seed: u64, rng: &mut u64, tag: u64) -> Op {
    let file = (splitmix(rng) % FILES as u64) as usize;
    match splitmix(rng) % 12 {
        0..=4 => {
            let offset = splitmix(rng) % (MAX_BYTES - 16 * 1024);
            let len = 1 + (splitmix(rng) % (12 * 1024)) as usize;
            Op::Write {
                file,
                offset,
                data: pattern(seed, tag, len),
            }
        }
        5..=6 => {
            // Gathers of 1–4 parts, sub-page and 4 KiB-multiple.
            let offset = splitmix(rng) % (MAX_BYTES - 32 * 1024);
            let nparts = 1 + (splitmix(rng) % 4) as usize;
            let parts = (0..nparts)
                .map(|i| {
                    let len = match splitmix(rng) % 3 {
                        0 => 1 + (splitmix(rng) % 1000) as usize,
                        1 => 4096,
                        _ => 4096 * (1 + (splitmix(rng) % 2) as usize),
                    };
                    pattern(seed, tag ^ ((i as u64) << 48), len)
                })
                .collect();
            Op::Writev {
                file,
                offset,
                parts,
            }
        }
        7..=8 => Op::Read {
            file,
            offset: splitmix(rng) % MAX_BYTES,
            len: 1 + (splitmix(rng) % (16 * 1024)) as usize,
        },
        9..=10 => Op::Truncate {
            file,
            size: splitmix(rng) % MAX_BYTES,
        },
        _ => Op::Fsync { file },
    }
}

fn model_write(model: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let end = offset as usize + data.len();
    if model.len() < end {
        model.resize(end, 0);
    }
    model[offset as usize..end].copy_from_slice(data);
}

/// Run one seeded schedule, comparing every read against the model,
/// then the final durable contents.
fn model_run(seed: u64, chaos: bool, wal: bool) {
    let mut cfg = DpcConfig {
        cache_pages: 256,
        prefetch: false,
        ..DpcConfig::default()
    };
    if wal {
        // A small ring: the `writev`s and truncates each log a record.
        cfg.wal_bytes = 256 * 1024;
    }
    if chaos {
        let plan = FaultPlan::new(seed);
        plan.arm("nvmefs.defer", FaultSpec::probability(0.05).with_delay(3));
        plan.arm("cache.flush", FaultSpec::probability(0.25));
        cfg.faults = Some(plan);
    }
    let dpc = Dpc::new(cfg);
    let fs = dpc.fs();
    let fds: Vec<Fd> = (0..FILES)
        .map(|f| fs.create(&format!("/f{f}")).unwrap())
        .collect();

    let mut model: Vec<Vec<u8>> = vec![Vec::new(); FILES];
    let mut rng = seed;
    let mut buf = Vec::new();
    for tag in 0..OPS {
        let op = gen_op(seed, &mut rng, tag);
        match &op {
            Op::Write { file, offset, data } => {
                assert_eq!(fs.write(fds[*file], *offset, data).unwrap(), data.len());
                model_write(&mut model[*file], *offset, data);
            }
            Op::Writev {
                file,
                offset,
                parts,
            } => {
                let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
                let flat = parts.concat();
                assert_eq!(fs.writev(fds[*file], *offset, &refs).unwrap(), flat.len());
                model_write(&mut model[*file], *offset, &flat);
            }
            Op::Read { file, offset, len } => {
                buf.clear();
                buf.resize(*len, 0xEE);
                let n = fs.read(fds[*file], *offset, &mut buf).unwrap();
                let m = &model[*file];
                let start = (*offset as usize).min(m.len());
                let want = &m[start..(start + len).min(m.len())];
                assert_eq!(&buf[..n], want, "seed {seed} tag {tag}: {op:?} vs model");
            }
            Op::Truncate { file, size } => {
                fs.truncate(fds[*file], *size).unwrap();
                model[*file].resize(*size as usize, 0);
            }
            Op::Fsync { file } => fs.fsync(fds[*file]).unwrap(),
        }
    }

    // Durable end state: flush, then compare size and full bytes.
    for f in 0..FILES {
        fs.fsync(fds[f]).unwrap();
        assert_eq!(
            fs.size(fds[f]).unwrap() as usize,
            model[f].len(),
            "seed {seed}: size vs model f{f}"
        );
        let (mut got, want) = (vec![0u8; model[f].len()], &model[f]);
        assert_eq!(fs.read(fds[f], 0, &mut got).unwrap(), got.len());
        if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "seed {seed}: final bytes diverged from the model for f{f} at byte {i}: \
                 {:?}... vs {:?}...",
                &got[i..(i + 16).min(got.len())],
                &want[i..(i + 16).min(want.len())]
            );
        }
    }
}

#[test]
fn schedule_matches_model_plain() {
    for seed in seeds() {
        model_run(seed, false, false);
    }
}

#[test]
fn schedule_matches_model_under_chaos() {
    for seed in seeds() {
        model_run(seed, true, false);
    }
}

#[test]
fn schedule_matches_model_with_wal_under_chaos() {
    for seed in seeds() {
        model_run(seed, true, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random seeds beyond the fixed chaos triple, exploring schedule
    /// shapes the triple does not.
    #[test]
    fn random_seeds_match_model(seed in any::<u64>()) {
        model_run(seed, true, false);
    }
}

//! The direct read-miss fill (DESIGN.md §15).
//!
//! `DpcConfig::zero_copy` makes a buffered read miss ask the DPU, with a
//! header-only SQE, to land the backend extent straight in the cache page
//! pool; the bytes then reach the caller through the ordinary hit path.
//! It gates nothing else. These tests pin:
//!
//! 1. **Equivalence** — fill on vs fill off is byte-exact over mixed
//!    write/writev/read/truncate schedules, with and without seeded
//!    chaos at `nvmefs.defer` + `cache.flush` (seeds 1/7/42, or
//!    `DPC_CHAOS_SEED=<u64>` to pin one), with and without the intent
//!    log; and, fault-free, every op but `read` sends exactly the
//!    requests it sends with the knob off.
//! 2. **The fill itself** — a cold read lands whole extents through the
//!    `ReadFill` class and a warm re-read moves nothing.
//! 3. **Dormancy** — with the knob off, every `dma_*` class counter
//!    stays zero through a real workload.
//!
//! (PR 10's write half — the DPU-side absorb this knob used to route
//! every cached write through — was deleted at PR 17; append-before-ack
//! and the crash sweep are the host path's, in `tests/wal_crash.rs`.)

use dpc::core::{Dpc, DpcConfig, DpcFs, Fd};
use dpc::pcie::DmaClass;
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

fn zc_cfg(zero_copy: bool) -> DpcConfig {
    DpcConfig {
        zero_copy,
        cache_pages: 256,
        prefetch: false,
        background_flush: false,
        ..DpcConfig::default()
    }
}

// ---- equivalence sweep -------------------------------------------------

const FILES: usize = 2;
const MAX_BYTES: u64 = 64 * 1024;
const OPS: u64 = 40;

#[derive(Clone, Debug)]
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

fn apply_op(fs: &DpcFs, fds: &[Fd], op: &Op, out: &mut Vec<u8>) -> usize {
    match op {
        Op::Write { file, offset, data } => fs.write(fds[*file], *offset, data).unwrap(),
        Op::Writev {
            file,
            offset,
            parts,
        } => {
            let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            fs.writev(fds[*file], *offset, &refs).unwrap()
        }
        Op::Read { file, offset, len } => {
            out.clear();
            out.resize(*len, 0xEE);
            let n = fs.read(fds[*file], *offset, out).unwrap();
            out.truncate(n);
            n
        }
        Op::Truncate { file, size } => {
            fs.truncate(fds[*file], *size).unwrap();
            0
        }
        Op::Fsync { file } => {
            fs.fsync(fds[*file]).unwrap();
            0
        }
    }
}

/// Run one seeded schedule against a fill-on and a fill-off instance in
/// lockstep, comparing every read against both the sibling and an
/// in-memory model, then the final durable contents. Fault-free, the
/// two must also submit the same number of commands for every op that
/// is not a `read`: the knob changes the miss path and nothing else.
fn equivalence_run(seed: u64, chaos: bool, wal: bool) {
    let mk = |zero_copy: bool| {
        let mut cfg = zc_cfg(zero_copy);
        if wal {
            cfg.wal = true;
            cfg.wal_bytes = 256 * 1024;
        }
        if chaos {
            let plan = FaultPlan::new(seed ^ (zero_copy as u64));
            plan.arm("nvmefs.defer", FaultSpec::probability(0.05).with_delay(3));
            plan.arm("cache.flush", FaultSpec::probability(0.25));
            cfg.faults = Some(plan);
        }
        Dpc::new(cfg)
    };
    let on = mk(true);
    let off = mk(false);
    let fs_on = on.fs();
    let fs_off = off.fs();

    let mut fds_on = Vec::new();
    let mut fds_off = Vec::new();
    for f in 0..FILES {
        let path = format!("/f{f}");
        fds_on.push(fs_on.create(&path).unwrap());
        fds_off.push(fs_off.create(&path).unwrap());
    }

    let mut model: Vec<Vec<u8>> = vec![Vec::new(); FILES];
    let mut rng = seed;
    let (mut buf_on, mut buf_off) = (Vec::new(), Vec::new());
    for tag in 0..OPS {
        let op = gen_op(seed, &mut rng, tag);
        if std::env::var("DPC_ZC_TRACE").is_ok() {
            match &op {
                Op::Write { file, offset, data } => {
                    eprintln!("{tag}: write f{file} @{offset} +{}", data.len())
                }
                Op::Writev {
                    file,
                    offset,
                    parts,
                } => eprintln!(
                    "{tag}: writev f{file} @{offset} {:?}",
                    parts.iter().map(|p| p.len()).collect::<Vec<_>>()
                ),
                other => eprintln!("{tag}: {other:?}"),
            }
        }
        let (sent_on, sent_off) = (on.pool_stats().submitted, off.pool_stats().submitted);
        let n_on = apply_op(&fs_on, &fds_on, &op, &mut buf_on);
        let n_off = apply_op(&fs_off, &fds_off, &op, &mut buf_off);
        assert_eq!(
            n_on, n_off,
            "seed {seed} tag {tag}: result count diverged on {op:?}"
        );
        if !chaos && !matches!(op, Op::Read { .. }) {
            assert_eq!(
                on.pool_stats().submitted - sent_on,
                off.pool_stats().submitted - sent_off,
                "seed {seed} tag {tag}: the knob changed what {op:?} sends"
            );
        }
        match &op {
            Op::Write { file, offset, data } => model_write(&mut model[*file], *offset, data),
            Op::Writev {
                file,
                offset,
                parts,
            } => {
                let mut pos = *offset;
                for p in parts {
                    model_write(&mut model[*file], pos, p);
                    pos += p.len() as u64;
                }
            }
            Op::Read { file, offset, .. } => {
                assert_eq!(
                    buf_on, buf_off,
                    "seed {seed} tag {tag}: read bytes diverged on {op:?}"
                );
                let m = &model[*file];
                let want: &[u8] = if (*offset as usize) < m.len() {
                    &m[*offset as usize..(*offset as usize + buf_on.len()).min(m.len())]
                } else {
                    &[]
                };
                assert_eq!(
                    buf_on.len(),
                    want.len(),
                    "seed {seed} tag {tag}: read length vs model on {op:?}"
                );
                assert_eq!(
                    buf_on, want,
                    "seed {seed} tag {tag}: read vs model on {op:?}"
                );
            }
            Op::Truncate { file, size } => model[*file].resize(*size as usize, 0),
            Op::Fsync { .. } => {}
        }
    }

    // Durable end state: flush both, then compare sizes and full bytes.
    for f in 0..FILES {
        fs_on.fsync(fds_on[f]).unwrap();
        fs_off.fsync(fds_off[f]).unwrap();
        let sz_on = fs_on.size(fds_on[f]).unwrap();
        let sz_off = fs_off.size(fds_off[f]).unwrap();
        assert_eq!(sz_on, sz_off, "seed {seed}: final size diverged for f{f}");
        assert_eq!(
            sz_on as usize,
            model[f].len(),
            "seed {seed}: size vs model f{f}"
        );
        let mut a = vec![0u8; model[f].len()];
        let mut b = vec![0u8; model[f].len()];
        assert_eq!(fs_on.read(fds_on[f], 0, &mut a).unwrap(), a.len());
        assert_eq!(fs_off.read(fds_off[f], 0, &mut b).unwrap(), b.len());
        for (which, got, want) in [
            ("on-vs-model", &a, &model[f]),
            ("off-vs-model", &b, &model[f]),
        ] {
            if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                panic!(
                    "seed {seed}: final bytes diverged ({which}) for f{f} at byte {i}: \
                     {:?}... vs {:?}...",
                    &got[i..(i + 16).min(got.len())],
                    &want[i..(i + 16).min(want.len())]
                );
            }
        }
    }

    // The on-instance must actually have exercised the direct fill —
    // otherwise this whole sweep silently proves nothing.
    assert!(
        !on.metrics().dma.is_zero(),
        "seed {seed}: fill-on instance never took the direct fill"
    );
    assert!(
        off.metrics().dma.is_zero(),
        "seed {seed}: fill-off instance touched the fill counters"
    );
}

#[test]
fn on_vs_off_stays_byte_exact_plain() {
    for seed in seeds() {
        equivalence_run(seed, false, false);
    }
}

#[test]
fn on_vs_off_stays_byte_exact_under_chaos() {
    for seed in seeds() {
        equivalence_run(seed, true, false);
    }
}

#[test]
fn on_vs_off_stays_byte_exact_with_wal_under_chaos() {
    for seed in seeds() {
        equivalence_run(seed, true, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random seeds beyond the fixed chaos triple: same lockstep
    /// equivalence invariant, exploring schedule shapes the triple
    /// does not.
    #[test]
    fn random_seeds_stay_byte_exact(seed in any::<u64>()) {
        equivalence_run(seed, true, false);
    }
}

// ---- the fill itself --------------------------------------------------

#[test]
fn read_miss_fill_lands_in_pool_and_serves_the_hit_path() {
    // Write + flush through one instance, then read cold through a
    // second instance sharing the KV store: every page is a miss, the
    // fill lands the extent directly in pool pages (ReadFill class),
    // and the bytes reach the caller through the ReadRef hit path.
    let writer = Dpc::new(zc_cfg(true));
    let wfs = writer.fs();
    let fd = wfs.create("/cold").unwrap();
    let data = pattern(11, 0, 6 * 4096);
    assert_eq!(wfs.write(fd, 0, &data).unwrap(), data.len());
    wfs.close(fd).unwrap();

    let reader = Dpc::with_shared_storage(zc_cfg(true), Some(writer.kv_store()), None);
    let rfs = reader.fs();
    let fd = rfs.open("/cold").unwrap();
    let mut back = vec![0u8; 6 * 4096];
    assert_eq!(rfs.read(fd, 0, &mut back).unwrap(), back.len());
    assert_eq!(back, data);

    let m = reader.metrics();
    let r = m.dma.class(DmaClass::ReadFill);
    assert!(r.dma_ops >= 1, "the cold read must take the direct fill");
    assert!(
        r.dma_bytes >= back.len() as u64,
        "the whole extent lands via the fill class"
    );
    // A re-read is now pure hit traffic: no new fill DMAs.
    let before = m.dma;
    let mut again = vec![0u8; 6 * 4096];
    assert_eq!(rfs.read(fd, 0, &mut again).unwrap(), again.len());
    assert_eq!(again, back);
    assert!(
        reader.metrics().dma.since(&before).is_zero(),
        "warm re-read must not touch the link data path"
    );
    rfs.close(fd).unwrap();
}

// ---- dormancy ----------------------------------------------------------

#[test]
fn knob_off_keeps_every_dma_class_counter_at_zero() {
    // Default config: zero_copy off. A real mixed workload must leave
    // every per-class cell pinned at zero: the counters only move on
    // the direct-fill path, so dormancy is structural, not filtered.
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/dormant").unwrap();
    let data = pattern(17, 0, 40_000);
    fs.write(fd, 0, &data).unwrap();
    let refs: Vec<&[u8]> = vec![&data[..4096], &data[4096..6000]];
    fs.writev(fd, 48 * 1024, &refs).unwrap();
    fs.fsync(fd).unwrap();
    fs.truncate(fd, 20_000).unwrap();
    let mut buf = vec![0u8; 20_000];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), 20_000);
    fs.close(fd).unwrap();

    let dma = dpc.metrics().dma;
    assert!(
        dma.is_zero(),
        "zero_copy off must keep dma_* dormant: {dma:?}"
    );
    for class in DmaClass::ALL {
        assert!(dma.class(class).is_zero(), "{} moved", class.name());
    }
}

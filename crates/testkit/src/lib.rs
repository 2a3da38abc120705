//! The integration suites' one test model: the chaos seeds, the splitmix
//! byte generator, a file's byte model, the buffered data path's seeded
//! op schedule and its lockstep, the crash oracle, whole-file read-backs,
//! and the `fsync` loop that races a suite's writers.
//!
//! Every suite takes its bytes from [`fill`]: a bare seed, or a seed and
//! an object id mixed by [`fill_for`], so every byte it writes is its own.
//! The op schedule's payloads mix with [`payload`].
//!
//! Beside the model, the seeded workload shapes: [`FileSetGen`] drives
//! the file-set churn suite with vdbench-style namespace op mixes,
//! [`Zipf`] adds skew for the cache-policy ablation, and [`HotSetGen`]
//! composes it into the read-mostly hot-set stream (Zipfian offsets over
//! a small file set) that drives the lock-free meta-plane chaos suite.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod fileset;
mod hotset;
mod zipf;

pub use fileset::{FileOp, FileSetGen, FileSetMix};
pub use hotset::{HotSetGen, HotSetOp, HotSetSpec};
pub use zipf::Zipf;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use dpc_core::{Dpc, DpcConfig, DpcError, DpcFs, Fd};

/// The chaos seeds: 1, 7 and 42, or the one `DPC_CHAOS_SEED` pins.
pub fn seeds() -> Vec<u64> {
    match std::env::var("DPC_CHAOS_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("DPC_CHAOS_SEED must be an unsigned integer")],
        Err(_) => vec![1, 7, 42],
    }
}

/// SplitMix64: advance `state` and return its next output — the fault
/// sites' generator.
pub use dpc_fault::splitmix64 as splitmix;

/// `len` bytes of the splitmix stream from `state`, each output
/// little-endian.
pub fn fill(mut state: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix(&mut state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `len` bytes of object `id`'s stream under `seed`.
pub fn fill_for(seed: u64, id: u64, len: usize) -> Vec<u8> {
    fill(seed ^ id.rotate_left(29), len)
}

/// The bytes of op `tag` of `seed`'s schedule.
pub fn payload(seed: u64, tag: u64, len: usize) -> Vec<u8> {
    fill(seed ^ tag.rotate_left(23), len)
}

/// A file's bytes as a run with no crash leaves them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileModel(Vec<u8>);

impl FileModel {
    pub fn new(bytes: Vec<u8>) -> Self {
        Self(bytes)
    }

    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Write `data` at `offset`; a write past the end extends the file
    /// with zeros up to it.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        let (start, end) = (offset as usize, offset as usize + data.len());
        if self.0.len() < end {
            self.0.resize(end, 0);
        }
        self.0[start..end].copy_from_slice(data);
    }

    pub fn truncate(&mut self, size: u64) {
        self.0.resize(size as usize, 0);
    }

    /// What a read of `len` bytes at `offset` returns: clipped at EOF.
    pub fn read(&self, offset: u64, len: usize) -> &[u8] {
        let start = (offset as usize).min(self.0.len());
        &self.0[start..(start + len).min(self.0.len())]
    }

    /// Panic unless `got` is this file, naming the first byte that
    /// differs.
    pub fn check(&self, got: &[u8], ctx: fmt::Arguments) {
        assert_eq!(got.len(), self.0.len(), "{ctx}: size vs model");
        assert!(got == self.0, "{ctx}: {}", first_diff(got, &self.0));
    }
}

/// Where `got` first differs from `want`, and the bytes from there.
fn first_diff(got: &[u8], want: &[u8]) -> String {
    let i = got.iter().zip(want).position(|(a, b)| a != b);
    let i = i.unwrap_or(got.len().min(want.len()));
    let from = |b: &[u8]| b[i..(i + 16).min(b.len())].to_vec();
    format!(
        "first diff at byte {i}: got {:?}.. want {:?}..",
        from(got),
        from(want)
    )
}

/// How many files a schedule spreads its ops over, and how far into them.
pub const FILES: usize = 2;
const MAX_BYTES: u64 = 64 * 1024;

/// One op of a seeded data-path schedule, on file `file` of [`FILES`].
#[derive(Debug)]
pub enum DataOp {
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

impl DataOp {
    fn file(&self) -> usize {
        match *self {
            DataOp::Write { file, .. }
            | DataOp::Writev { file, .. }
            | DataOp::Read { file, .. }
            | DataOp::Truncate { file, .. }
            | DataOp::Fsync { file } => file,
        }
    }

    /// What the op leaves of its file once it has returned `Ok`.
    fn apply(&self, model: &mut FileModel) {
        match self {
            DataOp::Write { offset, data, .. } => model.write(*offset, data),
            DataOp::Writev { offset, parts, .. } => model.write(*offset, &parts.concat()),
            DataOp::Truncate { size, .. } => model.truncate(*size),
            DataOp::Read { .. } | DataOp::Fsync { .. } => {}
        }
    }
}

impl fmt::Display for DataOp {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        let (what, start, len) = match self {
            DataOp::Write { offset, data, .. } => ("write", *offset, data.len()),
            DataOp::Writev { offset, parts, .. } => ("writev", *offset, parts.concat().len()),
            DataOp::Read { offset, len, .. } => ("read", *offset, *len),
            DataOp::Truncate { size, .. } => {
                return write!(f, "truncate f{} -> {size}", self.file())
            }
            DataOp::Fsync { .. } => return write!(f, "fsync f{}", self.file()),
        };
        write!(
            f,
            "{what} f{} [{start}..{})",
            self.file(),
            start + len as u64
        )
    }
}

/// Each op kind's share of a schedule's draws, in [`DataOp`] order:
/// write, writev, read, truncate, fsync.
pub type Weights = [u64; 5];

/// `data_path_model`'s draw: 5 writes, 2 writevs, 2 reads, 2 truncates
/// and 1 fsync in 12.
pub const DATA_PATH: Weights = [5, 2, 2, 2, 1];

/// `wal_crash`'s draw: 6 writes, 2 truncates and 2 fsyncs in 10.
pub const CRASH: Weights = [6, 0, 0, 2, 2];

/// Op `tag` of `seed`'s schedule, drawn from `rng` by `weights`.
pub fn gen_op(seed: u64, rng: &mut u64, tag: u64, weights: &Weights) -> DataOp {
    let file = (splitmix(rng) % FILES as u64) as usize;
    let mut draw = splitmix(rng) % weights.iter().sum::<u64>();
    let mut kind = 0;
    while draw >= weights[kind] {
        draw -= weights[kind];
        kind += 1;
    }
    match kind {
        0 => {
            let offset = splitmix(rng) % (MAX_BYTES - 16 * 1024);
            let len = 1 + (splitmix(rng) % (12 * 1024)) as usize;
            DataOp::Write {
                file,
                offset,
                data: payload(seed, tag, len),
            }
        }
        1 => {
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
                    payload(seed, tag ^ ((i as u64) << 48), len)
                })
                .collect();
            DataOp::Writev {
                file,
                offset,
                parts,
            }
        }
        2 => DataOp::Read {
            file,
            offset: splitmix(rng) % MAX_BYTES,
            len: 1 + (splitmix(rng) % (16 * 1024)) as usize,
        },
        3 => DataOp::Truncate {
            file,
            size: splitmix(rng) % MAX_BYTES,
        },
        _ => DataOp::Fsync { file },
    }
}

/// Run `op` on `fs`, file `i` open at `fds[i]`. A write must take every
/// byte, and a read must return what `models` holds; the op's file model
/// moves only when the op returns `Ok`.
pub fn step(
    fs: &DpcFs,
    fds: &[Fd],
    op: &DataOp,
    models: &mut [FileModel],
    ctx: fmt::Arguments,
) -> Result<(), DpcError> {
    let (fd, model) = (fds[op.file()], &mut models[op.file()]);
    match op {
        DataOp::Write { offset, data, .. } => {
            assert_eq!(fs.write(fd, *offset, data)?, data.len(), "{ctx}: {op}");
        }
        DataOp::Writev { offset, parts, .. } => {
            let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let len: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(fs.writev(fd, *offset, &refs)?, len, "{ctx}: {op}");
        }
        DataOp::Read { offset, len, .. } => {
            let mut buf = vec![0xEE; *len];
            let n = fs.read(fd, *offset, &mut buf)?;
            assert_eq!(&buf[..n], model.read(*offset, *len), "{ctx}: {op} vs model");
        }
        DataOp::Truncate { size, .. } => fs.truncate(fd, *size)?,
        DataOp::Fsync { .. } => fs.fsync(fd)?,
    }
    op.apply(model);
    Ok(())
}

/// What recovery may leave of each file after a crash: the bytes every
/// acknowledged op committed, or, for the file of the one op in flight
/// when the DPU died (it errored, so the host may assume neither
/// outcome), those bytes with that op applied.
pub struct CrashOracle {
    committed: Vec<FileModel>,
    in_flight: Option<DataOp>,
}

impl CrashOracle {
    pub fn new(files: usize) -> Self {
        Self {
            committed: vec![FileModel::default(); files],
            in_flight: None,
        }
    }

    /// The committed models, for [`step`] to move.
    pub fn committed(&mut self) -> &mut [FileModel] {
        &mut self.committed
    }

    pub fn in_flight(&mut self, op: DataOp) {
        self.in_flight = Some(op);
    }

    /// Panic unless `got`, what recovery left of file `file`, is one of
    /// the outcomes the oracle accepts.
    pub fn check(&self, file: usize, got: &[u8], ctx: fmt::Arguments) {
        let committed = &self.committed[file];
        let op = self.in_flight.as_ref();
        let alt = op.filter(|op| op.file() == file).map(|op| {
            let mut m = committed.clone();
            op.apply(&mut m);
            m
        });
        assert!(
            got == committed.0 || alt.as_ref().is_some_and(|a| got == a.0),
            "{ctx} diverged after recovery (got {} B, committed {} B, ambiguous-alt {:?} B, \
             ambiguous op {:?}); vs committed: {}; vs alt: {:?}",
            got.len(),
            committed.0.len(),
            alt.as_ref().map(|a| a.0.len()),
            op.map(DataOp::to_string),
            first_diff(got, &committed.0),
            alt.as_ref().map(|a| first_diff(got, &a.0)),
        );
    }
}

/// Read all `size` bytes of `fd` at offset 0, and check the read stops
/// there.
fn read_whole(fs: &DpcFs, fd: Fd, size: usize) -> Vec<u8> {
    let mut buf = vec![0u8; size + 16];
    assert_eq!(fs.read(fd, 0, &mut buf).unwrap(), size, "whole-file read");
    buf.truncate(size);
    buf
}

/// Every byte of the file open at `fd`, by the size the adapter holds.
pub fn read_fd(fs: &DpcFs, fd: Fd) -> Vec<u8> {
    read_whole(fs, fd, fs.size(fd).unwrap() as usize)
}

/// Every byte of `path`: stat its size, open, read, close.
pub fn read_file(fs: &DpcFs, path: &str) -> Vec<u8> {
    let size = fs
        .stat(path)
        .unwrap_or_else(|e| panic!("stat {path}: {e}"))
        .size as usize;
    let fd = fs.open(path).unwrap();
    let bytes = read_whole(fs, fd, size);
    fs.close(fd).unwrap();
    bytes
}

/// `path` as a fresh instance over `dpc`'s store reads it: what reached
/// the backend.
pub fn cold_read(dpc: &Dpc, path: &str) -> Vec<u8> {
    let cold = Dpc::with_shared_storage(DpcConfig::default(), Some(dpc.kv_store()), None);
    read_file(&cold.fs(), path)
}

/// Run `body` while a second thread runs `turn` round after round, until
/// `body` returns or panics, and at least once: the shape of every racing
/// test here.
pub fn racing<R>(mut turn: impl FnMut() + Send, body: impl FnOnce() -> R) -> R {
    struct Done<'a>(&'a AtomicBool);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| loop {
            turn();
            if done.load(Ordering::Acquire) {
                return;
            }
            std::thread::yield_now();
        });
        let _done = Done(&done);
        body()
    })
}

/// Run `body` while a second adapter loops a scoped `fsync` of every file
/// listed in `dirs` — open, `fsync`, close, round after round until `body`
/// returns or panics, and at least once: the DPU flush pass that races a
/// suite's host writers on their inodes. A file unlinked under the loop is
/// skipped; any other error fails the test.
pub fn racing_fsync<R>(dpc: &Dpc, dirs: &[&str], body: impl FnOnce() -> R) -> R {
    let fs = dpc.fs();
    racing(
        || {
            for dir in dirs {
                for entry in fs.readdir(dir).unwrap() {
                    let path = format!("{}/{}", dir.trim_end_matches('/'), entry.name);
                    let Ok(fd) = fs.open(&path) else {
                        continue;
                    };
                    match fs.fsync(fd).and_then(|()| fs.close(fd)) {
                        Ok(()) | Err(DpcError::NOT_FOUND) => {}
                        Err(e) => panic!("racing fsync of {path}: {e}"),
                    }
                }
            }
        },
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a: a hash that no toolchain change moves.
    fn fnv(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash = (*hash ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }

    /// A hash of the first 64 ops of seed 7's schedule: each op's kind,
    /// file, offset, lengths and payload bytes.
    fn stream_hash(weights: &Weights) -> u64 {
        let (mut hash, mut rng) = (0xCBF2_9CE4_8422_2325, 7);
        for tag in 0..64 {
            let op = gen_op(7, &mut rng, tag, weights);
            let (kind, at, len, bytes): (u64, u64, u64, Vec<&[u8]>) = match &op {
                DataOp::Write { offset, data, .. } => (0, *offset, 0, vec![data]),
                DataOp::Writev { offset, parts, .. } => {
                    (1, *offset, 0, parts.iter().map(Vec::as_slice).collect())
                }
                DataOp::Read { offset, len, .. } => (2, *offset, *len as u64, vec![]),
                DataOp::Truncate { size, .. } => (3, *size, 0, vec![]),
                DataOp::Fsync { .. } => (4, 0, 0, vec![]),
            };
            let lens = bytes.iter().map(|b| b.len() as u64);
            for word in [op.file() as u64, kind, at, len].into_iter().chain(lens) {
                fnv(&mut hash, &word.to_le_bytes());
            }
            bytes.iter().for_each(|b| fnv(&mut hash, b));
        }
        hash
    }

    #[test]
    fn the_data_path_schedule_is_pinned() {
        assert_eq!(stream_hash(&DATA_PATH), 0xFE72_3C4F_16CC_D148);
    }

    #[test]
    fn the_crash_schedule_is_pinned() {
        assert_eq!(stream_hash(&CRASH), 0x6354_516C_5474_23A1);
    }

    #[test]
    fn fill_is_pinned() {
        let mut hash = 0xCBF2_9CE4_8422_2325;
        for (state, len) in [(0, 0), (1, 1), (7, 4096), (42, 9001)] {
            fnv(&mut hash, &fill(state, len));
        }
        assert_eq!(hash, 0xF3D3_2EEF_8031_0C31);
        assert_eq!(fill(7, 5), fill(7, 13)[..5], "a shorter fill is a prefix");
    }

    #[test]
    fn a_file_model_extends_with_zeros_and_reads_clip_at_eof() {
        let mut m = FileModel::default();
        m.write(3, b"ab");
        assert_eq!(m.bytes(), b"\0\0\0ab");
        assert_eq!(m.read(4, 10), b"b");
        assert_eq!(m.read(9, 1), b"");
        m.truncate(1);
        m.truncate(3);
        assert_eq!(m.bytes(), b"\0\0\0");
    }

    #[test]
    fn the_oracle_takes_the_committed_bytes_or_the_op_in_flight() {
        let mut oracle = CrashOracle::new(2);
        oracle.committed()[0].write(0, b"old");
        oracle.in_flight(DataOp::Write {
            file: 0,
            offset: 1,
            data: b"XY".to_vec(),
        });
        oracle.check(0, b"old", format_args!("committed"));
        oracle.check(0, b"oXY", format_args!("in flight"));
        oracle.check(1, b"", format_args!("untouched"));
        for (file, got) in [(0, &b"oXd"[..]), (1, b"XY")] {
            let caught = std::panic::catch_unwind(|| oracle.check(file, got, format_args!("f")));
            assert!(caught.is_err(), "f{file}: {got:?} accepted");
        }
    }
}

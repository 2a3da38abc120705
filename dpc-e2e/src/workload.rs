//! The six workloads: their sizes, their seeded op streams, the world each
//! one runs in (populate, reopen, warm), the executor, and the oracles.

use dpc_core::{Dpc, DpcConfig, DpcFs, Fd};
use dpc_dfs::DfsConfig;
use dpc_nvmefs::WireDirent;

use crate::stats::{mix, pin_current_thread, Rng};

/// I/O unit of every data workload.
pub const BLOCK: usize = 8192;

/// Cache size the workloads are sized against (`DpcConfig::default()`'s,
/// pinned so a changed default cannot silently turn the hit workload
/// into a miss workload).
pub const CACHE_PAGES: usize = 4096;

const HIT_FILE_BLOCKS: u32 = 1024; // 8 MiB: half the cache
const MISS_FILE_BLOCKS: u32 = 16384; // 128 MiB: 8x the cache
const SEQ_BLOCKS_PER_OP: u16 = 16; // 128 KiB
const WRITE_FILE_BLOCKS: u32 = 1024; // 8 MiB, overwritten in place
const WRITES_PER_FSYNC: usize = 64;
const META_DIRS: u16 = 64;
const META_FILES: u16 = 256;
const DFS_FILE_BLOCKS: u32 = 4096; // 32 MiB

/// The ten-op cycle of `meta_mix`: 6 stat, 1 open+close, 1 readdir,
/// 1 create+close, 1 unlink of the name just created.
const META_CYCLE: [MetaKind; 10] = [
    MetaKind::Stat,
    MetaKind::Stat,
    MetaKind::OpenClose,
    MetaKind::Stat,
    MetaKind::CreateClose,
    MetaKind::Stat,
    MetaKind::Readdir,
    MetaKind::Stat,
    MetaKind::Unlink,
    MetaKind::Stat,
];

#[derive(Copy, Clone)]
enum MetaKind {
    Stat,
    OpenClose,
    Readdir,
    CreateClose,
    Unlink,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    ReadHit8k,
    ReadMiss8k,
    ReadSeq128k,
    WriteFsync8k,
    MetaMix,
    DfsRw8k,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ReadHit8k,
        Workload::ReadMiss8k,
        Workload::ReadSeq128k,
        Workload::WriteFsync8k,
        Workload::MetaMix,
        Workload::DfsRw8k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHit8k => "read_hit_8k",
            Workload::ReadMiss8k => "read_miss_8k",
            Workload::ReadSeq128k => "read_seq_128k",
            Workload::WriteFsync8k => "write_fsync_8k",
            Workload::MetaMix => "meta_mix",
            Workload::DfsRw8k => "dfs_rw_8k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReadHit8k => "uniform 8 KiB reads of an 8 MiB file resident in the host cache: adapter and cache only, no link crossing",
            Workload::ReadMiss8k => "uniform 8 KiB reads of a 128 MiB file, 8x the cache: latency of the whole miss chain down to the KV store",
            Workload::ReadSeq128k => "sequential 128 KiB reads cycling the 128 MiB file: the miss chain used for bandwidth, with readahead",
            Workload::WriteFsync8k => "8 KiB overwrites in place with an fsync every 64 writes: cache absorb, flush path and KV writes",
            Workload::MetaMix => "stat/open/readdir/create/unlink over 64 dirs x 256 files at constant size: metadata path, data cache bypassed",
            Workload::DfsRw8k => "70/25/5 read/overwrite/getattr of 8 KiB blocks of a 32 MiB DFS file: distributed dispatch, EC and DFS client",
        }
    }

    /// Ops in one measured round: a constant, so counters repeat exactly.
    /// Sized to about 0.65 s on the 2-vCPU box that produced the committed
    /// numbers, and a multiple of the workload's mix period.
    pub fn ops_per_round(self) -> usize {
        match self {
            Workload::ReadHit8k => 360_000,
            Workload::ReadMiss8k => 35_000,
            Workload::ReadSeq128k => 5_600,
            Workload::WriteFsync8k => 21_125, // 325 x (64 writes + fsync)
            Workload::MetaMix => 9_000,
            Workload::DfsRw8k => 13_000,
        }
    }

    fn file_blocks(self) -> u32 {
        match self {
            Workload::ReadHit8k => HIT_FILE_BLOCKS,
            Workload::ReadMiss8k | Workload::ReadSeq128k => MISS_FILE_BLOCKS,
            Workload::WriteFsync8k => WRITE_FILE_BLOCKS,
            Workload::MetaMix => 0,
            Workload::DfsRw8k => DFS_FILE_BLOCKS,
        }
    }

    /// Stable lane number for [`Rng::derive`].
    fn lane(self) -> u64 {
        Workload::ALL.iter().position(|w| *w == self).unwrap_or(0) as u64 + 1
    }
}

/// Op classes: the unit of per-class latency reporting.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Class {
    Read,
    Write,
    Fsync,
    Stat,
    OpenClose,
    CreateClose,
    Unlink,
    Readdir,
    DfsRead,
    DfsWrite,
    DfsGetattr,
}

impl Class {
    pub const ALL: [Class; 11] = [
        Class::Read,
        Class::Write,
        Class::Fsync,
        Class::Stat,
        Class::OpenClose,
        Class::CreateClose,
        Class::Unlink,
        Class::Readdir,
        Class::DfsRead,
        Class::DfsWrite,
        Class::DfsGetattr,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Fsync => "fsync",
            Class::Stat => "stat",
            Class::OpenClose => "open_close",
            Class::CreateClose => "create_close",
            Class::Unlink => "unlink",
            Class::Readdir => "readdir",
            Class::DfsRead => "dfs_read",
            Class::DfsWrite => "dfs_write",
            Class::DfsGetattr => "dfs_getattr",
        }
    }
}

/// One file-system call (or open/create + close pair) of the generator.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Read `blocks` 8 KiB blocks starting at `block`.
    Read {
        block: u32,
        blocks: u16,
    },
    /// Overwrite one 8 KiB block with its next version.
    Write {
        block: u32,
    },
    Fsync,
    Stat {
        dir: u16,
        file: u16,
    },
    OpenClose {
        dir: u16,
        file: u16,
    },
    Readdir {
        dir: u16,
    },
    /// Create + close `new_paths[name]` of the round's stream.
    CreateClose {
        name: u32,
    },
    Unlink {
        name: u32,
    },
    DfsRead {
        block: u32,
    },
    DfsWrite {
        block: u32,
    },
    DfsGetattr,
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Read { .. } => Class::Read,
            Op::Write { .. } => Class::Write,
            Op::Fsync => Class::Fsync,
            Op::Stat { .. } => Class::Stat,
            Op::OpenClose { .. } => Class::OpenClose,
            Op::Readdir { .. } => Class::Readdir,
            Op::CreateClose { .. } => Class::CreateClose,
            Op::Unlink { .. } => Class::Unlink,
            Op::DfsRead { .. } => Class::DfsRead,
            Op::DfsWrite { .. } => Class::DfsWrite,
            Op::DfsGetattr => Class::DfsGetattr,
        }
    }
}

/// One round's ops, built from the seed before the round's clock starts.
#[derive(Default)]
pub struct Stream {
    pub ops: Vec<Op>,
    /// Paths `CreateClose`/`Unlink` refer to; unique per (child, round).
    pub new_paths: Vec<String>,
}

/// Build the op stream of `(seed, child, round)` into `out`, reusing its
/// storage. `n` ops; the same arguments always give the same stream.
pub fn generate(w: Workload, seed: u64, child: u32, round: u32, n: usize, out: &mut Stream) {
    let mut rng = Rng::derive(seed, w.lane(), ((child as u64) << 32) | round as u64);
    out.ops.clear();
    out.new_paths.clear();
    out.ops.reserve(n);
    let blocks = w.file_blocks();
    match w {
        Workload::ReadHit8k | Workload::ReadMiss8k => {
            for _ in 0..n {
                let block = rng.below(blocks as u64) as u32;
                out.ops.push(Op::Read { block, blocks: 1 });
            }
        }
        Workload::ReadSeq128k => {
            // Sequential from a seeded, 128 KiB-aligned start; wraps.
            let chunks = blocks / SEQ_BLOCKS_PER_OP as u32;
            let start = rng.below(chunks as u64) as u32;
            for i in 0..n as u32 {
                let block = ((start + i) % chunks) * SEQ_BLOCKS_PER_OP as u32;
                out.ops.push(Op::Read {
                    block,
                    blocks: SEQ_BLOCKS_PER_OP,
                });
            }
        }
        Workload::WriteFsync8k => {
            for i in 0..n {
                if i % (WRITES_PER_FSYNC + 1) == WRITES_PER_FSYNC {
                    out.ops.push(Op::Fsync);
                } else {
                    let block = rng.below(blocks as u64) as u32;
                    out.ops.push(Op::Write { block });
                }
            }
        }
        Workload::MetaMix => {
            let mut pending: Option<u32> = None;
            for i in 0..n {
                let dir = rng.below(META_DIRS as u64) as u16;
                let file = rng.below(META_FILES as u64) as u16;
                out.ops.push(match META_CYCLE[i % META_CYCLE.len()] {
                    MetaKind::Stat => Op::Stat { dir, file },
                    MetaKind::OpenClose => Op::OpenClose { dir, file },
                    MetaKind::Readdir => Op::Readdir { dir },
                    MetaKind::CreateClose => {
                        let name = out.new_paths.len() as u32;
                        out.new_paths
                            .push(format!("{}/n{child}_{round}_{name}", dir_path(dir)));
                        pending = Some(name);
                        Op::CreateClose { name }
                    }
                    MetaKind::Unlink => match pending.take() {
                        Some(name) => Op::Unlink { name },
                        // A stream cut before its create: stat instead.
                        None => Op::Stat { dir, file },
                    },
                });
            }
            // A stream cut between create and unlink must not leak a name:
            // drop the create if it is the last op, else end on its unlink.
            if let (Some(name), Some(last)) = (pending, out.ops.last_mut()) {
                if *last == (Op::CreateClose { name }) {
                    out.new_paths.pop();
                    *last = Op::Stat { dir: 0, file: 0 };
                } else {
                    *last = Op::Unlink { name };
                }
            }
        }
        Workload::DfsRw8k => {
            for _ in 0..n {
                let block = rng.below(blocks as u64) as u32;
                out.ops.push(match rng.below(100) {
                    0..=69 => Op::DfsRead { block },
                    70..=94 => Op::DfsWrite { block },
                    _ => Op::DfsGetattr,
                });
            }
        }
    }
}

fn dir_path(dir: u16) -> String {
    format!("/d{dir:02}")
}

fn file_name(file: u16) -> String {
    format!("f{file:03}")
}

/// First word of block `block` of `file` at `version` under `seed`; word
/// `i` of the block is `base ^ i * ODD`, so a block is checked without a
/// reference copy.
fn block_base(seed: u64, file: u64, block: u32, version: u32) -> u64 {
    mix(seed ^ mix(file << 32 | block as u64) ^ ((version as u64) << 40))
}

const ODD: u64 = 0x9E37_79B9_7F4A_7C15;

pub fn fill_block(seed: u64, file: u64, block: u32, version: u32, out: &mut [u8]) {
    debug_assert_eq!(out.len(), BLOCK);
    let base = block_base(seed, file, block, version);
    for (i, w) in out.chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&(base ^ (i as u64).wrapping_mul(ODD)).to_le_bytes());
    }
}

pub fn check_block(seed: u64, file: u64, block: u32, version: u32, data: &[u8]) -> bool {
    if data.len() != BLOCK {
        return false;
    }
    let base = block_base(seed, file, block, version);
    let mut diff = 0u64;
    for (i, w) in data.chunks_exact(8).enumerate() {
        let got = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        diff |= got ^ base ^ (i as u64).wrapping_mul(ODD);
    }
    diff == 0
}

/// The configuration every workload runs: the defaults, with sizing only.
/// No feature knob is set here, so a default that flips moves the numbers
/// and nothing else can.
pub fn config(w: Workload) -> DpcConfig {
    DpcConfig {
        queues: 1,
        cache_pages: CACHE_PAGES,
        dfs: (w == Workload::DfsRw8k).then(DfsConfig::default),
        ..DpcConfig::default()
    }
}

/// The core the whole client runs on: generator and every `dpu-*` thread
/// (threads inherit the affinity of the thread that spawns them). On a
/// shared 2-vCPU box the cost of a cross-core hand-off moves with where
/// the hypervisor puts the vCPUs, and took run-to-run spread from under
/// 2 % to 5-10 % on every workload that crosses the link; on one core a
/// hand-off is a `sched_yield`, and throughput is the CPU work of both
/// sides per op. The other core is left to the parent and the box.
pub fn pin_client() -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The last core: interrupts mostly land on the first.
    pin_current_thread(cores - 1)
}

pub const DATA_PATH: &str = "/data";
const DATA_FILE_ID: u64 = 1;
pub const DFS_NAME: &str = "data";

/// A measured DPC instance over populated storage, plus the bench-side
/// model the oracles compare against.
pub struct World {
    pub w: Workload,
    pub seed: u64,
    pub dpc: Dpc,
    pub fs: DpcFs,
    fd: Option<Fd>,
    dfs_ino: u64,
    /// Current version of every block (writes bump it).
    versions: Vec<u32>,
    /// `paths[dir * META_FILES + file]`.
    paths: Vec<String>,
    dirs: Vec<String>,
    buf: Vec<u8>,
    dirents: Vec<WireDirent>,
}

impl World {
    /// Populate through a bring-up instance, drop it, and reopen a fresh
    /// one over the surviving storage: the measured cache starts empty
    /// and the store holds its final key set.
    pub fn build(w: Workload, seed: u64) -> Result<World, String> {
        let cfg = config(w);
        let blocks = w.file_blocks();
        let mut buf = vec![0u8; BLOCK * SEQ_BLOCKS_PER_OP as usize];
        let paths: Vec<String> = (0..META_DIRS)
            .flat_map(|d| (0..META_FILES).map(move |f| format!("{}/{}", dir_path(d), file_name(f))))
            .collect();
        let dirs: Vec<String> = (0..META_DIRS).map(dir_path).collect();

        let bringup = Dpc::new(cfg.clone());
        {
            let fs = bringup.fs();
            let e = |what: &str, e: dpc_core::DpcError| format!("populate {what}: {e}");
            match w {
                Workload::MetaMix => {
                    for d in &dirs {
                        fs.mkdir(d).map_err(|x| e("mkdir", x))?;
                    }
                    for p in &paths {
                        let fd = fs.create(p).map_err(|x| e("create", x))?;
                        fs.close(fd).map_err(|x| e("close", x))?;
                    }
                }
                Workload::DfsRw8k => {
                    let ino = fs.dfs_create(0, DFS_NAME).map_err(|x| e("dfs_create", x))?;
                    for b in 0..blocks {
                        fill_block(seed, DATA_FILE_ID, b, 0, &mut buf[..BLOCK]);
                        fs.dfs_write_block(ino, b as u64, &buf[..BLOCK])
                            .map_err(|x| e("dfs_write_block", x))?;
                    }
                    fs.dfs_sync().map_err(|x| e("dfs_sync", x))?;
                }
                _ => {
                    let fd = fs.create(DATA_PATH).map_err(|x| e("create", x))?;
                    let per = SEQ_BLOCKS_PER_OP as u32;
                    for chunk in 0..blocks / per {
                        for k in 0..per {
                            let at = k as usize * BLOCK;
                            fill_block(
                                seed,
                                DATA_FILE_ID,
                                chunk * per + k,
                                0,
                                &mut buf[at..at + BLOCK],
                            );
                        }
                        let off = (chunk * per) as u64 * BLOCK as u64;
                        let n = fs.write(fd, off, &buf).map_err(|x| e("write", x))?;
                        if n != buf.len() {
                            return Err(format!("populate: short write {n}"));
                        }
                    }
                    fs.close(fd).map_err(|x| e("close", x))?;
                }
            }
        }
        let store = bringup.kv_store();
        let backend = bringup.dfs_backend().cloned();
        drop(bringup);

        let dpc = Dpc::with_shared_storage(cfg, Some(store), backend);
        let fs = dpc.fs();
        let (fd, dfs_ino) = match w {
            Workload::MetaMix => (None, 0),
            Workload::DfsRw8k => (
                None,
                fs.dfs_lookup(0, DFS_NAME)
                    .map_err(|e| format!("dfs_lookup: {e}"))?,
            ),
            _ => (
                Some(fs.open(DATA_PATH).map_err(|e| format!("open: {e}"))?),
                0,
            ),
        };
        Ok(World {
            w,
            seed,
            dpc,
            fs,
            fd,
            dfs_ino,
            versions: vec![0; blocks as usize],
            paths,
            dirs,
            buf,
            dirents: Vec::new(),
        })
    }

    /// One pass over the working set so the caches hold what they will
    /// hold in steady state. Returns `(ops, failed ops)`.
    pub fn warm_pass(&mut self) -> (u64, u64) {
        let none = Stream::default();
        let blocks = self.w.file_blocks();
        let ops: Vec<Op> = match self.w {
            Workload::MetaMix => (0..META_DIRS)
                .flat_map(|dir| {
                    std::iter::once(Op::Readdir { dir })
                        .chain((0..META_FILES).map(move |file| Op::Stat { dir, file }))
                })
                .collect(),
            Workload::DfsRw8k => (0..blocks).map(|block| Op::DfsRead { block }).collect(),
            _ => (0..blocks)
                .map(|block| Op::Read { block, blocks: 1 })
                .collect(),
        };
        let failed = ops.iter().filter(|op| !self.exec(op, &none)).count();
        self.dpc.drain_prefetch();
        (ops.len() as u64, failed as u64)
    }

    /// Run one op against the client and check its result. `false` on any
    /// `Err`, short read or content mismatch.
    #[inline]
    pub fn exec(&mut self, op: &Op, stream: &Stream) -> bool {
        match *op {
            Op::Read { block, blocks } => {
                let len = blocks as usize * BLOCK;
                let fd = self.fd.expect("data workload has an fd");
                let off = block as u64 * BLOCK as u64;
                match self.fs.read(fd, off, &mut self.buf[..len]) {
                    Ok(n) if n == len => (0..blocks as u32).all(|k| {
                        let at = k as usize * BLOCK;
                        let b = block + k;
                        check_block(
                            self.seed,
                            DATA_FILE_ID,
                            b,
                            self.versions[b as usize],
                            &self.buf[at..at + BLOCK],
                        )
                    }),
                    _ => false,
                }
            }
            Op::Write { block } => {
                let fd = self.fd.expect("data workload has an fd");
                let v = self.versions[block as usize] + 1;
                fill_block(self.seed, DATA_FILE_ID, block, v, &mut self.buf[..BLOCK]);
                let off = block as u64 * BLOCK as u64;
                match self.fs.write(fd, off, &self.buf[..BLOCK]) {
                    Ok(BLOCK) => {
                        self.versions[block as usize] = v;
                        true
                    }
                    _ => false,
                }
            }
            Op::Fsync => self
                .fs
                .fsync(self.fd.expect("data workload has an fd"))
                .is_ok(),
            Op::Stat { dir, file } => {
                let p = &self.paths[dir as usize * META_FILES as usize + file as usize];
                matches!(self.fs.stat(p), Ok(a) if a.kind == 0 && a.size == 0)
            }
            Op::OpenClose { dir, file } => {
                let p = &self.paths[dir as usize * META_FILES as usize + file as usize];
                match self.fs.open(p) {
                    Ok(fd) => self.fs.close(fd).is_ok(),
                    Err(_) => false,
                }
            }
            Op::Readdir { dir } => {
                let p = &self.dirs[dir as usize];
                self.fs.readdir_into(p, &mut self.dirents).is_ok()
                    && self.dirents.len() >= META_FILES as usize
            }
            Op::CreateClose { name } => match self.fs.create(&stream.new_paths[name as usize]) {
                Ok(fd) => self.fs.close(fd).is_ok(),
                Err(_) => false,
            },
            Op::Unlink { name } => self.fs.unlink(&stream.new_paths[name as usize]).is_ok(),
            Op::DfsRead { block } => match self.fs.dfs_read_block(self.dfs_ino, block as u64) {
                Ok(data) => check_block(
                    self.seed,
                    DATA_FILE_ID,
                    block,
                    self.versions[block as usize],
                    &data,
                ),
                Err(_) => false,
            },
            Op::DfsWrite { block } => {
                let v = self.versions[block as usize] + 1;
                fill_block(self.seed, DATA_FILE_ID, block, v, &mut self.buf[..BLOCK]);
                match self
                    .fs
                    .dfs_write_block(self.dfs_ino, block as u64, &self.buf[..BLOCK])
                {
                    Ok(BLOCK) => {
                        self.versions[block as usize] = v;
                        true
                    }
                    _ => false,
                }
            }
            Op::DfsGetattr => matches!(
                self.fs.dfs_getattr(self.dfs_ino),
                Ok(a) if a.size == DFS_FILE_BLOCKS as u64 * BLOCK as u64
            ),
        }
    }

    /// The end-of-run oracle. Returns `(checks made, checks failed)`.
    /// `write_fsync_8k` verifies through a second, fresh instance over
    /// the same store while this one sits idle.
    pub fn final_check(&mut self) -> (u64, u64) {
        let none = Stream::default();
        let (mut checked, mut failed) = (0u64, 0u64);
        match self.w {
            Workload::ReadHit8k | Workload::ReadMiss8k | Workload::ReadSeq128k => {}
            Workload::WriteFsync8k => {
                // Everything acknowledged before this fsync must be what a
                // new client sees.
                checked += 1;
                failed += !self.exec(&Op::Fsync, &none) as u64;
                let (seed, versions) = (self.seed, &self.versions);
                let dpc = Dpc::with_shared_storage(config(self.w), Some(self.dpc.kv_store()), None);
                let fs = dpc.fs();
                let mut buf = vec![0u8; BLOCK];
                match fs.open(DATA_PATH) {
                    Ok(fd) => {
                        for (b, v) in versions.iter().enumerate() {
                            checked += 1;
                            let ok =
                                matches!(fs.read(fd, b as u64 * BLOCK as u64, &mut buf), Ok(BLOCK))
                                    && check_block(seed, DATA_FILE_ID, b as u32, *v, &buf);
                            failed += !ok as u64;
                        }
                    }
                    Err(_) => {
                        checked += versions.len() as u64;
                        failed += versions.len() as u64;
                    }
                }
            }
            Workload::MetaMix => {
                // The namespace must be exactly the prebuilt tree: every
                // created name was unlinked again.
                let mut want: Vec<String> = (0..META_FILES).map(file_name).collect();
                want.sort();
                for dir in 0..META_DIRS {
                    checked += 1;
                    let ok = match self.fs.readdir(&self.dirs[dir as usize]) {
                        Ok(entries) => {
                            let mut got: Vec<String> =
                                entries.into_iter().map(|e| e.name).collect();
                            got.sort();
                            got == want
                        }
                        Err(_) => false,
                    };
                    failed += !ok as u64;
                    checked += 1;
                    let ok = matches!(self.fs.stat(&self.dirs[dir as usize]), Ok(a) if a.kind == 1);
                    failed += !ok as u64;
                }
            }
            Workload::DfsRw8k => {
                for block in 0..DFS_FILE_BLOCKS {
                    if self.versions[block as usize] > 0 {
                        checked += 1;
                        failed += !self.exec(&Op::DfsRead { block }, &none) as u64;
                    }
                }
            }
        }
        (checked, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, child: u32, round: u32, n: usize) -> Stream {
        let mut s = Stream::default();
        generate(w, seed, child, round, n, &mut s);
        s
    }

    #[test]
    fn streams_are_deterministic_per_workload_and_seed() {
        for w in Workload::ALL {
            let a = stream(w, 11, 0, 1, 2000);
            let b = stream(w, 11, 0, 1, 2000);
            assert_eq!(a.ops, b.ops, "{}", w.name());
            assert_eq!(a.new_paths, b.new_paths);
            assert_eq!(a.ops.len(), 2000);
            let other_seed = stream(w, 12, 0, 1, 2000);
            assert_ne!(a.ops, other_seed.ops, "{} ignores its seed", w.name());
            let other_round = stream(w, 11, 0, 2, 2000);
            assert_ne!(a.ops, other_round.ops, "{} repeats rounds", w.name());
            let other_child = stream(w, 11, 1, 1, 2000);
            assert_ne!(a.ops, other_child.ops, "{} repeats children", w.name());
        }
    }

    #[test]
    fn ops_stay_inside_their_files() {
        for w in Workload::ALL {
            for op in stream(w, 3, 2, 4, 5000).ops {
                match op {
                    Op::Read { block, blocks } => {
                        assert!(block + blocks as u32 <= w.file_blocks())
                    }
                    Op::Write { block } | Op::DfsRead { block } | Op::DfsWrite { block } => {
                        assert!(block < w.file_blocks())
                    }
                    Op::Stat { dir, file } | Op::OpenClose { dir, file } => {
                        assert!(dir < META_DIRS && file < META_FILES)
                    }
                    Op::Readdir { dir } => assert!(dir < META_DIRS),
                    _ => {}
                }
            }
        }
    }

    fn share(ops: &[Op], c: Class) -> f64 {
        ops.iter().filter(|o| o.class() == c).count() as f64 / ops.len() as f64
    }

    #[test]
    fn mix_ratios() {
        let meta = stream(Workload::MetaMix, 5, 0, 0, 30_000).ops;
        assert_eq!(share(&meta, Class::Stat), 0.6);
        for c in [
            Class::OpenClose,
            Class::Readdir,
            Class::CreateClose,
            Class::Unlink,
        ] {
            assert_eq!(share(&meta, c), 0.1, "{}", c.name());
        }

        let n = Workload::WriteFsync8k.ops_per_round();
        let wf = stream(Workload::WriteFsync8k, 5, 0, 0, n).ops;
        assert_eq!(n % (WRITES_PER_FSYNC + 1), 0);
        assert_eq!(wf.last(), Some(&Op::Fsync));
        let fsyncs = wf.iter().filter(|o| **o == Op::Fsync).count();
        assert_eq!(fsyncs * (WRITES_PER_FSYNC + 1), n);

        let dfs = stream(Workload::DfsRw8k, 5, 0, 0, 100_000).ops;
        assert!((share(&dfs, Class::DfsRead) - 0.70).abs() < 0.01);
        assert!((share(&dfs, Class::DfsWrite) - 0.25).abs() < 0.01);
        assert!((share(&dfs, Class::DfsGetattr) - 0.05).abs() < 0.005);

        let seq = stream(Workload::ReadSeq128k, 5, 0, 0, 4000).ops;
        for pair in seq.windows(2) {
            let (Op::Read { block: a, .. }, Op::Read { block: b, .. }) = (pair[0], pair[1]) else {
                panic!("read_seq_128k holds reads only");
            };
            assert!(b == a + 16 || b == 0, "not sequential: {a} -> {b}");
        }
    }

    #[test]
    fn meta_mix_keeps_the_namespace_constant() {
        // Every created name is unlinked later in the same stream, at any
        // cut length, and names never repeat across rounds or children.
        for n in [10, 15, 29, 30_000] {
            let s = stream(Workload::MetaMix, 9, 1, 2, n);
            let mut live = std::collections::BTreeSet::new();
            for op in &s.ops {
                match op {
                    Op::CreateClose { name } => assert!(live.insert(*name)),
                    Op::Unlink { name } => assert!(live.remove(name)),
                    _ => {}
                }
            }
            assert!(live.is_empty(), "n = {n} leaks {live:?}");
        }
        let a = stream(Workload::MetaMix, 9, 1, 2, 100).new_paths;
        let b = stream(Workload::MetaMix, 9, 1, 3, 100).new_paths;
        let c = stream(Workload::MetaMix, 9, 2, 2, 100).new_paths;
        assert!(a.iter().all(|p| !b.contains(p) && !c.contains(p)));
    }

    #[test]
    fn sampling_stride_is_coprime_with_every_mix_period() {
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        for period in [META_CYCLE.len(), WRITES_PER_FSYNC + 1] {
            assert_eq!(gcd(crate::child::SAMPLE_EVERY, period), 1);
        }
    }

    #[test]
    fn block_contents_depend_on_file_block_version_and_seed() {
        let mut a = vec![0u8; BLOCK];
        fill_block(1, 1, 7, 3, &mut a);
        assert!(check_block(1, 1, 7, 3, &a));
        assert!(!check_block(2, 1, 7, 3, &a));
        assert!(!check_block(1, 2, 7, 3, &a));
        assert!(!check_block(1, 1, 8, 3, &a));
        assert!(!check_block(1, 1, 7, 4, &a));
        assert!(!check_block(1, 1, 7, 3, &a[..BLOCK - 8]));
        a[BLOCK - 1] ^= 1;
        assert!(!check_block(1, 1, 7, 3, &a));
    }

    #[test]
    fn oracles_pass_on_a_clean_run_and_catch_a_wrong_block() {
        let mut world = World::build(Workload::WriteFsync8k, 21).expect("world");
        let s = stream(Workload::WriteFsync8k, 21, 0, 1, 2 * (WRITES_PER_FSYNC + 1));
        assert!(s.ops.iter().all(|op| world.exec(op, &s)));
        let Op::Write { block } = s.ops[0] else {
            panic!("a cycle starts with a write");
        };
        assert!(world.versions[block as usize] >= 1);
        assert!(world.exec(&Op::Read { block, blocks: 1 }, &s));
        assert_eq!(world.final_check(), (1 + WRITE_FILE_BLOCKS as u64, 0));
        // The model now expects a version the store never saw.
        world.versions[block as usize] += 1;
        assert!(!world.exec(&Op::Read { block, blocks: 1 }, &s));
        assert_eq!(world.final_check().1, 1);

        let mut world = World::build(Workload::MetaMix, 21).expect("world");
        let s = stream(Workload::MetaMix, 21, 0, 1, 50);
        assert!(s.ops.iter().all(|op| world.exec(op, &s)));
        assert_eq!(world.final_check(), (2 * META_DIRS as u64, 0));
        // A leaked name is a namespace the model does not know.
        let fd = world.fs.create("/d00/leak").expect("create");
        world.fs.close(fd).expect("close");
        assert_eq!(world.final_check().1, 1);
    }

    #[test]
    fn sizes_match_the_cache() {
        assert_eq!(HIT_FILE_BLOCKS as usize * BLOCK, CACHE_PAGES * 4096 / 2);
        assert_eq!(MISS_FILE_BLOCKS as usize * BLOCK, CACHE_PAGES * 4096 * 8);
        assert_eq!(
            config(Workload::ReadHit8k).cache_pages,
            DpcConfig::default().cache_pages
        );
        assert_eq!(config(Workload::MetaMix).queues, 1);
        assert!(config(Workload::DfsRw8k).dfs.is_some());
        assert!(config(Workload::ReadMiss8k).dfs.is_none());
    }
}

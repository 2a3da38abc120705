//! The distributed-file-system backend: metadata servers and data servers.
//!
//! The paper's client-side optimizations only make sense against a real
//! backend shape (§2.1): metadata is hash-partitioned across MDSes, so a
//! request sent to the wrong ("entry") MDS is *forwarded* to its home MDS
//! — the hop the optimized client's metadata view avoids. File data is
//! erasure-coded `k+m` over stripes of `k` consecutive 8 KiB blocks: each
//! block is stored whole on a data server of its own, and `m` parity
//! cells on `m` more (DESIGN.md §10.1). EC runs on the MDS for standard
//! clients and on the client (host or DPU) for optimized/DPC clients —
//! through the same stripe read and stripe write.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_codec::crc32c;
use dpc_ec::{gf256, ReedSolomon};
use dpc_fault::{FaultPlan, FaultSite};
use parking_lot::{Mutex, RwLock};

use crate::client::OpTrace;

/// Data is striped and erasure-coded at this granularity.
pub const DFS_BLOCK: usize = 8192;

/// A coded cell: a block zero-padded to [`DFS_BLOCK`], then a 4-byte
/// length tag (`len + 1`, little-endian; 0 = never written). Parity is
/// computed over cells, so a parity cell carries its blocks' tags and a
/// reconstructed block comes back with its length.
pub const CELL: usize = DFS_BLOCK + 4;

/// Bounded reissues of a data-server RPC refused by a down server.
const DS_RETRIES: u32 = 3;
/// Repair queue bound: beyond this, the oldest pending repair is shed
/// (and counted) instead of letting the queue grow without limit.
const REPAIR_CAP: usize = 1024;
/// Repair entries attempted per drain pass (keeps a dead server from
/// turning every write into a full queue sweep).
const REPAIR_DRAIN: usize = 8;

/// Exponential backoff between recovery attempts (microseconds, capped).
pub(crate) fn backoff(attempt: u32) {
    let us = (20u64 << attempt.min(8)).min(2_000);
    std::thread::sleep(std::time::Duration::from_micros(us));
}

/// The byte offset just past `len` bytes written at block `block`, if the
/// block fits the stripe unit and the offset fits a `u64`.
pub(crate) fn block_end(block: u64, len: usize) -> Option<u64> {
    (len <= DFS_BLOCK)
        .then(|| block.checked_mul(DFS_BLOCK as u64))
        .flatten()
        .and_then(|start| start.checked_add(len as u64))
}

/// Turn a block's bytes into its coded cell in place.
fn to_cell(buf: &mut Vec<u8>, written: bool) {
    let tag = if written { buf.len() as u32 + 1 } else { 0 };
    buf.resize(DFS_BLOCK, 0);
    buf.extend_from_slice(&tag.to_le_bytes());
}

/// The block a coded cell holds (`None`: never written). A tag no block
/// can carry means the cell was decoded from inconsistent survivors.
fn block_of(cell: &[u8]) -> Result<Option<&[u8]>, DfsError> {
    let tag = cell
        .get(DFS_BLOCK..CELL)
        .and_then(|t| <[u8; 4]>::try_from(t).ok())
        .map(u32::from_le_bytes)
        .ok_or(DfsError::Unrecoverable)?;
    match tag as usize {
        0 => Ok(None),
        t if t - 1 <= DFS_BLOCK => Ok(Some(&cell[..t - 1])),
        _ => Err(DfsError::Unrecoverable),
    }
}

/// `cell(new) ⊕ cell(old)` into `delta`: what every parity cell of the
/// stripe must absorb, scaled by its coefficient.
fn fill_delta(delta: &mut Vec<u8>, new: &[u8], old: Option<&[u8]>) {
    delta.clear();
    delta.extend_from_slice(new);
    delta.resize(DFS_BLOCK, 0);
    let mut tag = new.len() as u32 + 1;
    if let Some(old) = old {
        for (d, o) in delta.iter_mut().zip(old) {
            *d ^= o;
        }
        tag ^= old.len() as u32 + 1;
    }
    delta.extend_from_slice(&tag.to_le_bytes());
}

/// Minimal file attributes tracked by the MDS.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DfsAttr {
    pub ino: u64,
    pub size: u64,
    pub mtime: u64,
}

/// DFS-level errors.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DfsError {
    NotFound,
    AlreadyExists,
    /// Too many cells of a stripe unavailable to reconstruct a block, or
    /// a write that landed nowhere.
    Unrecoverable,
    /// Delegation conflict: another client holds it.
    Delegated,
    /// Transient server fault (injected): safe to retry.
    Transient,
    /// The request itself is malformed (a block larger than the stripe
    /// unit, a block number whose byte offset overflows).
    InvalidArgument,
}

impl core::fmt::Display for DfsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DfsError::NotFound => "no such file",
            DfsError::AlreadyExists => "file exists",
            DfsError::Unrecoverable => "too many shards lost",
            DfsError::Delegated => "delegation held by another client",
            DfsError::Transient => "transient server fault",
            DfsError::InvalidArgument => "invalid argument",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DfsError {}

fn hash64(x: u64, y: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes().into_iter().chain(y.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn hash_name(p_ino: u64, name: &str) -> u64 {
    let mut h: u64 = hash64(p_ino, 0x9E37_79B9);
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Namespace lock stripes per metadata server: dentry stripes keyed by
/// parent ino, inode stripes by ino.
const NS_SHARDS: usize = 16;

/// One lock stripe of a server's dentry map: (parent ino, name) → ino.
type DentryStripe = RwLock<HashMap<(u64, String), u64>>;

/// One metadata server: a hash partition of dentries, inodes, layouts and
/// delegations.
///
/// The namespace maps are striped into `NS_SHARDS` hash-sharded
/// stripes (the fd-table split, applied server-side): dentries shard by
/// *parent* ino so one directory's entries colocate in one stripe — a
/// create storm in `/a` and a stat stampede in `/b` take different locks
/// — and inodes shard by ino.
pub struct MetadataServer {
    pub id: usize,
    dentries: Box<[DentryStripe]>,
    inodes: Box<[RwLock<HashMap<u64, DfsAttr>>]>,
    /// ino → client id currently holding the delegation.
    delegations: RwLock<HashMap<u64, u64>>,
    /// Delegations revoked by a recall, pending acknowledgement by their
    /// former holder: (ino, old holder).
    revoked: RwLock<std::collections::HashSet<(u64, u64)>>,
    /// RPCs served (including forwarded ones landing here).
    pub rpcs: AtomicU64,
    /// Requests this MDS had to forward to the home MDS.
    pub forwarded: AtomicU64,
    /// Delegation recalls performed.
    pub recalls: AtomicU64,
}

impl MetadataServer {
    fn new(id: usize) -> MetadataServer {
        MetadataServer {
            id,
            dentries: (0..NS_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            inodes: (0..NS_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            delegations: RwLock::new(HashMap::new()),
            revoked: RwLock::new(std::collections::HashSet::new()),
            rpcs: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            recalls: AtomicU64::new(0),
        }
    }

    /// The dentry stripe holding every entry of directory `p_ino` that
    /// lives on this MDS.
    fn dentry_shard(&self, p_ino: u64) -> &DentryStripe {
        &self.dentries[(hash64(p_ino, 0xD5) % self.dentries.len() as u64) as usize]
    }

    /// The inode stripe holding `ino`'s attributes on this MDS.
    fn inode_shard(&self, ino: u64) -> &RwLock<HashMap<u64, DfsAttr>> {
        &self.inodes[(hash64(ino, 0x1A) % self.inodes.len() as u64) as usize]
    }
}

/// What a data server stores: a block, or one parity cell of a stripe
/// (the stripe of `k` blocks starting at block `stripe · k`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cell {
    Block { ino: u64, block: u64 },
    Parity { ino: u64, stripe: u64, p: usize },
}

/// Why a data server did not serve a cell.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Refusal {
    /// The server is down, or a scheduled fault fired: worth a retry.
    Down,
    /// The server stored this cell, then crashed: its bytes are gone.
    /// Lost is not unwritten — a lost cell never reads as zeros.
    Lost,
    /// The stored bytes no longer match the CRC32C stored with them.
    Rotten,
}

/// A cell at rest: payload plus the CRC32C it was stored with. The
/// checksum is verified before a byte leaves the server and before a
/// swap or delta touches the bytes, so silent bit-rot surfaces as a
/// refusal and flows into reconstruct + repair, never into a fresh CRC.
struct StoredCell {
    data: Vec<u8>,
    crc: u32,
    /// Set by [`DataServer::crash`]: the key survives, its bytes do not.
    lost: bool,
}

type CellMap = HashMap<Cell, StoredCell>;

/// Store `data` (with its checksum) under `cell`. An overwrite reuses the
/// stored buffer, so rewriting a cell at its old length allocates
/// nothing.
fn store(cells: &mut CellMap, cell: Cell, data: &[u8], crc: u32) {
    match cells.entry(cell) {
        Entry::Occupied(mut e) => {
            let stored = e.get_mut();
            stored.data.clear();
            stored.data.extend_from_slice(data);
            stored.crc = crc;
            stored.lost = false;
        }
        Entry::Vacant(v) => {
            v.insert(StoredCell {
                data: data.to_vec(),
                crc,
                lost: false,
            });
        }
    }
}

/// One data server: whole blocks and parity cells, keyed by [`Cell`].
/// Every RPC — get, swap, delta, put, repair — is counted in `rpcs` by
/// the server that serves it, refused or not.
pub struct DataServer {
    pub id: usize,
    cells: RwLock<CellMap>,
    /// Failure injection: a failed server refuses every RPC.
    failed: std::sync::atomic::AtomicBool,
    /// Optional scheduled fault site (flaky / slow behaviour): when it
    /// fires, the RPC is refused even though the server is otherwise up.
    fault: RwLock<Option<Arc<FaultSite>>>,
    pub rpcs: AtomicU64,
    /// Shared with [`DfsRecoveryStats::crc_rejects`]: cells whose stored
    /// checksum no longer matched.
    recovery: Arc<DfsRecoveryStats>,
}

impl DataServer {
    fn new(id: usize, recovery: Arc<DfsRecoveryStats>) -> DataServer {
        DataServer {
            id,
            cells: RwLock::new(HashMap::new()),
            failed: std::sync::atomic::AtomicBool::new(false),
            fault: RwLock::new(None),
            rpcs: AtomicU64::new(0),
            recovery,
        }
    }

    /// Count one RPC; refuse it if the server is down or its scheduled
    /// fault fires.
    fn serve(&self) -> Result<(), Refusal> {
        self.rpcs.fetch_add(1, Ordering::Relaxed);
        let down = self.failed.load(Ordering::Relaxed)
            || self.fault.read().as_ref().is_some_and(|site| site.fires());
        if down {
            Err(Refusal::Down)
        } else {
            Ok(())
        }
    }

    /// Is a stored cell still what was stored? A checksum failure is
    /// counted.
    fn check(&self, stored: &StoredCell) -> Result<(), Refusal> {
        if stored.lost {
            return Err(Refusal::Lost);
        }
        if crc32c(&stored.data) != stored.crc {
            self.recovery.crc_rejects.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::Rotten);
        }
        Ok(())
    }

    /// Read a cell by appending it to `out`. `Ok(false)` (and `out`
    /// untouched): never written.
    pub fn get(&self, cell: Cell, out: &mut Vec<u8>) -> Result<bool, Refusal> {
        Ok(self
            .get_with(cell, |data| out.extend_from_slice(data))?
            .is_some())
    }

    /// Read a cell by handing its stored bytes to `copy` — the payload's
    /// one copy on a healthy read, made under the read lock right after
    /// its checksum verified. `Ok(None)` (and `copy` never called): never
    /// written.
    fn get_with<R>(&self, cell: Cell, copy: impl FnOnce(&[u8]) -> R) -> Result<Option<R>, Refusal> {
        self.serve()?;
        let cells = self.cells.read();
        let Some(stored) = cells.get(&cell) else {
            return Ok(None);
        };
        self.check(stored)?;
        Ok(Some(copy(&stored.data)))
    }

    /// Replace a block and hand back its predecessor: `buf` holds the new
    /// bytes on entry and the old ones on return (`Ok(false)`: there were
    /// none). The old bytes are verified first: a lost or rotten block is
    /// refused and nothing is stored, so rot never feeds a delta.
    pub(crate) fn swap(&self, cell: Cell, buf: &mut Vec<u8>) -> Result<bool, Refusal> {
        self.serve()?;
        let crc = crc32c(buf);
        match self.cells.write().entry(cell) {
            Entry::Occupied(mut e) => {
                let stored = e.get_mut();
                self.check(stored)?;
                std::mem::swap(&mut stored.data, buf);
                stored.crc = crc;
                Ok(true)
            }
            Entry::Vacant(v) => {
                v.insert(StoredCell {
                    data: std::mem::take(buf),
                    crc,
                    lost: false,
                });
                Ok(false)
            }
        }
    }

    /// Apply `coeff · delta` to a parity cell and re-checksum it. A
    /// never-written cell starts as zeros (so was every block of its
    /// stripe); a lost or rotten one is refused untouched.
    pub(crate) fn delta(&self, cell: Cell, coeff: u8, delta: &[u8]) -> Result<(), Refusal> {
        self.serve()?;
        let mut cells = self.cells.write();
        let stored = cells.entry(cell).or_insert_with(|| {
            let data = vec![0u8; delta.len()];
            StoredCell {
                crc: crc32c(&data),
                data,
                lost: false,
            }
        });
        self.check(stored)?;
        if stored.data.len() != delta.len() {
            return Err(Refusal::Rotten);
        }
        gf256::mul_acc_slice(coeff, delta, &mut stored.data);
        stored.crc = crc32c(&stored.data);
        Ok(())
    }

    /// Store a cell whole over whatever the server holds: a restore or a
    /// parity rebuild, computed from verified bytes.
    pub(crate) fn put(&self, cell: Cell, data: &[u8]) -> Result<(), Refusal> {
        self.serve()?;
        let crc = crc32c(data);
        store(&mut self.cells.write(), cell, data, crc);
        Ok(())
    }

    /// Read repair: store `data` only over a cell this server answers as
    /// lost or rotten, so a reconstruction never overwrites a write that
    /// landed after it. `Ok(true)` when it was stored.
    pub(crate) fn repair(&self, cell: Cell, data: &[u8]) -> Result<bool, Refusal> {
        self.serve()?;
        let crc = crc32c(data);
        let mut cells = self.cells.write();
        let broken = cells
            .get(&cell)
            .is_some_and(|s| s.lost || crc32c(&s.data) != s.crc);
        if broken {
            store(&mut cells, cell, data, crc);
        }
        Ok(broken)
    }

    /// Test hook: flip one payload bit in a stored cell *without*
    /// updating its checksum, simulating at-rest bit-rot.
    pub fn corrupt(&self, cell: Cell) -> bool {
        let mut cells = self.cells.write();
        match cells.get_mut(&cell) {
            Some(stored) if !stored.data.is_empty() => {
                let mid = stored.data.len() / 2;
                stored.data[mid] ^= 0x01;
                true
            }
            _ => false,
        }
    }

    /// Inject / clear a hard failure (all RPCs refused while set).
    pub fn set_failed(&self, failed: bool) {
        self.failed.store(failed, Ordering::Relaxed);
    }

    /// Attach a scheduled fault site (flaky/slow behaviour driven by a
    /// [`FaultPlan`]); `None` detaches.
    pub fn set_fault_site(&self, site: Option<Arc<FaultSite>>) {
        *self.fault.write() = site;
    }

    /// Crash: lose the bytes of every stored cell — each is answered as
    /// [`Refusal::Lost`] from now on, until a put or repair replaces it —
    /// and refuse RPCs until [`restart`](DataServer::restart).
    pub fn crash(&self) {
        self.failed.store(true, Ordering::Relaxed);
        for stored in self.cells.write().values_mut() {
            stored.lost = true;
            stored.data = Vec::new();
        }
    }

    /// Bring a crashed server back up (empty — repair must repopulate it).
    pub fn restart(&self) {
        self.failed.store(false, Ordering::Relaxed);
    }

    /// Cells this server holds the bytes of (lost ones are not counted).
    pub fn cell_count(&self) -> usize {
        self.cells.read().values().filter(|s| !s.lost).count()
    }
}

/// One repair a stripe client owes.
enum Repair {
    /// A block whose server refused its write: the bytes it should hold.
    Restore { ino: u64, block: u64, data: Vec<u8> },
    /// A parity cell that missed a delta: recompute it from the stripe.
    Rebuild { ino: u64, stripe: u64, p: usize },
}

/// What a stripe client — a [`ClientCore`](crate::ClientCore), or the
/// MDS's proxy path — carries between operations: recycled buffers and
/// the repairs it owes.
#[derive(Default)]
pub(crate) struct StripeIo {
    /// A write's new block on its way to the swap, its old one back.
    swap: Vec<u8>,
    /// The coded delta `cell(new) ⊕ cell(old)`.
    delta: Vec<u8>,
    /// Bounded by [`REPAIR_CAP`]; drained by
    /// [`DfsBackend::drain_repairs`].
    repairs: VecDeque<Repair>,
}

impl StripeIo {
    pub(crate) fn pending(&self) -> usize {
        self.repairs.len()
    }

    /// The bytes a queued restore of `block` holds: until it lands, the
    /// block's server holds stale ones (or none).
    fn restore_of(&self, ino: u64, block: u64) -> Option<&Vec<u8>> {
        self.repairs.iter().find_map(|r| match r {
            Repair::Restore {
                ino: i,
                block: b,
                data,
            } if (*i, *b) == (ino, block) => Some(data),
            _ => None,
        })
    }

    /// Does this client owe parity cell `p` of the stripe a rebuild (so
    /// it may be missing deltas)?
    fn owes_rebuild(&self, ino: u64, stripe: u64, p: usize) -> bool {
        self.repairs.iter().any(|r| {
            matches!(r, Repair::Rebuild { ino: i, stripe: s, p: q } if (*i, *s, *q) == (ino, stripe, p))
        })
    }

    /// Queue `block`'s bytes for its server, replacing a restore already
    /// queued for it.
    fn owe_restore(&mut self, backend: &DfsBackend, ino: u64, block: u64, bytes: &[u8]) {
        for r in &mut self.repairs {
            if let Repair::Restore {
                ino: i,
                block: b,
                data,
            } = r
            {
                if (*i, *b) == (ino, block) {
                    data.clear();
                    data.extend_from_slice(bytes);
                    return;
                }
            }
        }
        let data = bytes.to_vec();
        self.queue(backend, Repair::Restore { ino, block, data });
    }

    fn owe_rebuild(&mut self, backend: &DfsBackend, ino: u64, stripe: u64, p: usize) {
        if !self.owes_rebuild(ino, stripe, p) {
            self.queue(backend, Repair::Rebuild { ino, stripe, p });
        }
    }

    /// Queue a repair, shedding the oldest entry when the queue is full.
    fn queue(&mut self, backend: &DfsBackend, repair: Repair) {
        if self.repairs.len() >= REPAIR_CAP {
            self.repairs.pop_front();
            backend
                .recovery
                .repair_drops
                .fetch_add(1, Ordering::Relaxed);
        }
        self.repairs.push_back(repair);
    }
}

/// Backend configuration.
#[derive(Copy, Clone, Debug)]
pub struct DfsConfig {
    pub mds_count: usize,
    pub data_server_count: usize,
    /// EC data cells per stripe: the stripe's blocks.
    pub ec_k: usize,
    /// EC parity cells per stripe.
    pub ec_m: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            mds_count: 4,
            data_server_count: 6,
            ec_k: 4,
            ec_m: 2,
        }
    }
}

/// Client-side recovery counters, shared by every client of one backend
/// (all monotonic; every recovery action increments exactly one).
#[derive(Default)]
pub struct DfsRecoveryStats {
    /// Data-server RPC reissues after a down server refused one.
    pub ds_retries: AtomicU64,
    /// MDS RPC reissues after a transient fault.
    pub mds_retries: AtomicU64,
    /// Blocks rebuilt from the rest of their stripe (by a degraded read,
    /// or by a write whose swap was refused).
    pub reconstructions: AtomicU64,
    /// Cells re-written to their home server: read repairs, queued
    /// restores and parity rebuilds.
    pub repairs: AtomicU64,
    /// Repair work items shed because the repair queue was full.
    pub repair_drops: AtomicU64,
    /// Cells whose stored CRC32C failed verification (bit-rot detected
    /// and refused as rotten).
    pub crc_rejects: AtomicU64,
}

/// Point-in-time copy of [`DfsRecoveryStats`].
#[derive(Copy, Clone, Default, Debug)]
pub struct DfsRecoverySnapshot {
    pub ds_retries: u64,
    pub mds_retries: u64,
    pub reconstructions: u64,
    pub repairs: u64,
    pub repair_drops: u64,
    pub crc_rejects: u64,
}

impl DfsRecoveryStats {
    pub fn snapshot(&self) -> DfsRecoverySnapshot {
        DfsRecoverySnapshot {
            ds_retries: self.ds_retries.load(Ordering::Relaxed),
            mds_retries: self.mds_retries.load(Ordering::Relaxed),
            reconstructions: self.reconstructions.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            repair_drops: self.repair_drops.load(Ordering::Relaxed),
            crc_rejects: self.crc_rejects.load(Ordering::Relaxed),
        }
    }
}

/// The whole backend cluster.
pub struct DfsBackend {
    pub cfg: DfsConfig,
    mdses: Vec<MetadataServer>,
    data_servers: Vec<DataServer>,
    ec: ReedSolomon,
    next_ino: AtomicU64,
    clock: AtomicU64,
    /// "mds.rpc" fault site: MDS ops fail with [`DfsError::Transient`]
    /// (before any mutation) while it fires.
    mds_fault: RwLock<Option<Arc<FaultSite>>>,
    /// True once a [`FaultPlan`] was attached: clients only engage their
    /// retry machinery when faults are possible, so recovery counters are
    /// exactly zero on a healthy run.
    faults_on: std::sync::atomic::AtomicBool,
    recovery: Arc<DfsRecoveryStats>,
    /// `ring[i] = i % data_servers.len()`, long enough that the servers
    /// of any stripe are one contiguous slice of it: placements are
    /// borrowed from here instead of collected per call.
    ring: Vec<usize>,
    /// The MDS proxy path's stripe client (standard clients' reads and
    /// writes, one at a time).
    mds_io: Mutex<StripeIo>,
}

impl DfsBackend {
    pub fn new(cfg: DfsConfig) -> Arc<DfsBackend> {
        assert!(
            cfg.ec_k + cfg.ec_m <= cfg.data_server_count,
            "need at least k+m data servers"
        );
        let recovery = Arc::new(DfsRecoveryStats::default());
        Arc::new(DfsBackend {
            mdses: (0..cfg.mds_count).map(MetadataServer::new).collect(),
            data_servers: (0..cfg.data_server_count)
                .map(|id| DataServer::new(id, Arc::clone(&recovery)))
                .collect(),
            ec: ReedSolomon::new(cfg.ec_k, cfg.ec_m),
            next_ino: AtomicU64::new(1),
            clock: AtomicU64::new(1),
            mds_fault: RwLock::new(None),
            faults_on: std::sync::atomic::AtomicBool::new(false),
            recovery,
            ring: (0..cfg.data_server_count + cfg.ec_k + cfg.ec_m)
                .map(|i| i % cfg.data_server_count)
                .collect(),
            mds_io: Mutex::new(StripeIo::default()),
            cfg,
        })
    }

    /// Attach a fault plan: creates the "mds.rpc" site (initially `Off`)
    /// and per-data-server "ds.<id>.rpc" sites, and flips
    /// [`faults_enabled`](DfsBackend::faults_enabled) on so clients engage
    /// their recovery paths.
    pub fn set_fault_plan(&self, plan: &Arc<FaultPlan>) {
        *self.mds_fault.write() = Some(plan.site("mds.rpc"));
        for ds in &self.data_servers {
            ds.set_fault_site(Some(plan.site(&format!("ds.{}.rpc", ds.id))));
        }
        self.faults_on.store(true, Ordering::Release);
    }

    /// Are scheduled faults (or injected failures) possible on this
    /// backend? Also flipped on by [`DataServer::set_failed`]-style manual
    /// injection via [`enable_recovery`](DfsBackend::enable_recovery).
    pub fn faults_enabled(&self) -> bool {
        self.faults_on.load(Ordering::Acquire)
    }

    /// Turn client recovery machinery on without attaching a plan (manual
    /// `set_failed` / `crash` injection).
    pub fn enable_recovery(&self) {
        self.faults_on.store(true, Ordering::Release);
    }

    /// Shared recovery counters.
    pub fn recovery(&self) -> &DfsRecoveryStats {
        &self.recovery
    }

    /// Consult the "mds.rpc" fault site; fires → the op fails before any
    /// state change, so a retry is always safe.
    fn mds_fault(&self) -> Result<(), DfsError> {
        if let Some(site) = &*self.mds_fault.read() {
            if site.fires() {
                return Err(DfsError::Transient);
            }
        }
        Ok(())
    }

    pub fn ec(&self) -> &ReedSolomon {
        &self.ec
    }

    pub fn mds(&self, id: usize) -> &MetadataServer {
        &self.mdses[id]
    }

    pub fn data_server(&self, id: usize) -> &DataServer {
        &self.data_servers[id]
    }

    pub fn mds_count(&self) -> usize {
        self.mdses.len()
    }

    pub fn data_server_count(&self) -> usize {
        self.data_servers.len()
    }

    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Home MDS of a dentry.
    pub fn home_mds_of_name(&self, p_ino: u64, name: &str) -> usize {
        (hash_name(p_ino, name) % self.mdses.len() as u64) as usize
    }

    /// Home MDS of an inode.
    pub fn home_mds_of_ino(&self, ino: u64) -> usize {
        (hash64(ino, 0) % self.mdses.len() as u64) as usize
    }

    /// The data servers of the stripe holding block `block` of `ino`:
    /// its `k` blocks' servers in block order, then its `m` parity
    /// servers — one slice of the ring, rotated by stripe for balance.
    /// Block `block` lives on `placement(ino, block)[block % k]`.
    pub fn placement(&self, ino: u64, block: u64) -> &[usize] {
        let stripe = block / self.cfg.ec_k as u64;
        let base = (hash64(ino, stripe) % self.data_servers.len() as u64) as usize;
        &self.ring[base..base + self.cfg.ec_k + self.cfg.ec_m]
    }

    /// Slot `s` of stripe `stripe` of `ino`: its `s`-th block for
    /// `s < k`, parity cell `s - k` after.
    fn cell(&self, ino: u64, stripe: u64, s: usize) -> Cell {
        let k = self.cfg.ec_k;
        if s < k {
            Cell::Block {
                ino,
                block: stripe * k as u64 + s as u64,
            }
        } else {
            Cell::Parity {
                ino,
                stripe,
                p: s - k,
            }
        }
    }

    // ---- MDS-side operations (each counts an RPC at the serving MDS) ----

    /// Create a file. `via` is the MDS the client contacted; forwarding to
    /// the home MDS is counted there.
    pub fn mds_create(&self, via: usize, p_ino: u64, name: &str) -> Result<DfsAttr, DfsError> {
        self.mds_fault()?;
        let home = self.home_mds_of_name(p_ino, name);
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        if home != via {
            self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
            self.mdses[home].rpcs.fetch_add(1, Ordering::Relaxed);
        }
        let mds = &self.mdses[home];
        let mut dentries = mds.dentry_shard(p_ino).write();
        if dentries.contains_key(&(p_ino, name.to_string())) {
            return Err(DfsError::AlreadyExists);
        }
        let ino = self.next_ino.fetch_add(1, Ordering::Relaxed);
        dentries.insert((p_ino, name.to_string()), ino);
        drop(dentries);
        let attr = DfsAttr {
            ino,
            size: 0,
            mtime: self.now(),
        };
        // The inode may live on a different home; store it there.
        let ihome = self.home_mds_of_ino(ino);
        self.mdses[ihome].inode_shard(ino).write().insert(ino, attr);
        Ok(attr)
    }

    /// Lookup a dentry.
    pub fn mds_lookup(&self, via: usize, p_ino: u64, name: &str) -> Result<u64, DfsError> {
        self.mds_fault()?;
        let home = self.home_mds_of_name(p_ino, name);
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        if home != via {
            self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
            self.mdses[home].rpcs.fetch_add(1, Ordering::Relaxed);
        }
        self.mdses[home]
            .dentry_shard(p_ino)
            .read()
            .get(&(p_ino, name.to_string()))
            .copied()
            .ok_or(DfsError::NotFound)
    }

    /// Fetch attributes.
    pub fn mds_getattr(&self, via: usize, ino: u64) -> Result<DfsAttr, DfsError> {
        self.mds_fault()?;
        let home = self.home_mds_of_ino(ino);
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        if home != via {
            self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
            self.mdses[home].rpcs.fetch_add(1, Ordering::Relaxed);
        }
        self.mdses[home]
            .inode_shard(ino)
            .read()
            .get(&ino)
            .copied()
            .ok_or(DfsError::NotFound)
    }

    /// Update size/mtime after a write (direct to the home MDS: this path
    /// is used by lazily-batched metadata updates too).
    pub fn mds_update_size(&self, via: usize, ino: u64, end: u64) -> Result<(), DfsError> {
        self.mds_fault()?;
        let home = self.home_mds_of_ino(ino);
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        if home != via {
            self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
            self.mdses[home].rpcs.fetch_add(1, Ordering::Relaxed);
        }
        let now = self.now();
        let mut inodes = self.mdses[home].inode_shard(ino).write();
        let attr = inodes.get_mut(&ino).ok_or(DfsError::NotFound)?;
        if end > attr.size {
            attr.size = end;
        }
        attr.mtime = now;
        Ok(())
    }

    /// List directory `p_ino`, paginated under a name cursor. Dentries
    /// are hash-partitioned *across* MDSes, so one page visits every MDS
    /// — but on each it touches exactly the parent's dentry stripe, takes
    /// a scoped snapshot of the matching entries under that one read
    /// lock, and releases it before merging. No lock is ever held across
    /// the whole scan (let alone across pages), so a concurrent create in
    /// another directory — even a 1M-entry walk of this one — never
    /// blocks behind it.
    ///
    /// Returns up to `max` `(name, ino)` pairs in name order, strictly
    /// after `cursor` (`None` starts from the beginning), plus the cursor
    /// for the next page (`None` when the listing is exhausted).
    #[allow(clippy::type_complexity)]
    pub fn mds_readdir(
        &self,
        via: usize,
        p_ino: u64,
        cursor: Option<&str>,
        max: usize,
    ) -> Result<(Vec<(String, u64)>, Option<String>), DfsError> {
        self.mds_fault()?;
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        let mut entries: Vec<(String, u64)> = Vec::new();
        for mds in &self.mdses {
            if mds.id != via {
                // The entry MDS fans the scan out to every partition.
                self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
                mds.rpcs.fetch_add(1, Ordering::Relaxed);
            }
            // Scoped snapshot: clone only this directory's entries past
            // the cursor, then drop the stripe lock immediately.
            let shard = mds.dentry_shard(p_ino).read();
            entries.extend(shard.iter().filter_map(|((p, name), &ino)| {
                let past = cursor.is_none_or(|c| name.as_str() > c);
                (*p == p_ino && past).then(|| (name.clone(), ino))
            }));
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let more = entries.len() > max;
        entries.truncate(max);
        let next = (more && max > 0).then(|| entries[max - 1].0.clone());
        Ok((entries, next))
    }

    /// Acquire (or confirm) a delegation of `ino` for `client`.
    pub fn mds_delegate(&self, via: usize, ino: u64, client: u64) -> Result<(), DfsError> {
        self.mds_fault()?;
        let home = self.home_mds_of_ino(ino);
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        if home != via {
            self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
            self.mdses[home].rpcs.fetch_add(1, Ordering::Relaxed);
        }
        let mut del = self.mdses[home].delegations.write();
        match del.get(&ino).copied() {
            Some(holder) if holder != client => {
                // Recall: revoke the current holder's delegation (it will
                // observe the revocation on its next lease check and drop
                // its cached state), then grant to the requester.
                self.mdses[home].revoked.write().insert((ino, holder));
                self.mdses[home].recalls.fetch_add(1, Ordering::Relaxed);
                del.insert(ino, client);
                Ok(())
            }
            _ => {
                del.insert(ino, client);
                Ok(())
            }
        }
    }

    /// Lease check: has `client`'s delegation of `ino` been recalled?
    /// Consuming the flag acknowledges the recall (the client must drop
    /// its cached attributes and flush pending metadata first).
    pub fn delegation_revoked(&self, ino: u64, client: u64) -> bool {
        let home = self.home_mds_of_ino(ino);
        self.mdses[home].revoked.read().contains(&(ino, client))
    }

    /// Acknowledge a recall after the client has dropped its state.
    pub fn ack_recall(&self, ino: u64, client: u64) {
        let home = self.home_mds_of_ino(ino);
        self.mdses[home].revoked.write().remove(&(ino, client));
    }

    /// Total delegation recalls across all MDSes.
    pub fn total_recalls(&self) -> u64 {
        self.mdses
            .iter()
            .map(|m| m.recalls.load(Ordering::Relaxed))
            .sum()
    }

    // ---- the stripe data path (one read, one write, for every client) ---

    /// Serve `op` on data server `server`, reissuing a refusal by a down
    /// server — bounded, with backoff — once faults are possible. Lost and
    /// rotten are answers, not outages: never reissued.
    fn ds_call<T>(
        &self,
        server: usize,
        mut op: impl FnMut(&DataServer) -> Result<T, Refusal>,
    ) -> Result<T, Refusal> {
        let ds = &self.data_servers[server];
        let mut res = op(ds);
        if !self.faults_enabled() {
            return res;
        }
        let mut attempt = 0;
        while matches!(res, Err(Refusal::Down)) && attempt < DS_RETRIES {
            attempt += 1;
            self.recovery.ds_retries.fetch_add(1, Ordering::Relaxed);
            backoff(attempt);
            res = op(ds);
        }
        res
    }

    /// Read block `block` of `ino` into the front of `out` — the one
    /// stripe read of every client — and return how many bytes it wrote:
    /// the block's length, or `out`'s if that is shorter. Healthy, it is
    /// one RPC to the block's server and one copy, from its store into
    /// `out`, allocating nothing. A block `io` owes a restore is served
    /// from the queued bytes: its server's are stale. A block its server
    /// refuses, lost or found rotten is reconstructed from `k` other cells
    /// of the stripe (at most `k + 1` RPCs in all), copied into `out`, and
    /// a lost or rotten one is read-repaired. On an error nothing is
    /// written.
    pub(crate) fn stripe_read(
        &self,
        ino: u64,
        block: u64,
        out: &mut [u8],
        io: &mut StripeIo,
    ) -> Result<(usize, OpTrace), DfsError> {
        let copy = |out: &mut [u8], data: &[u8]| {
            let n = data.len().min(out.len());
            out[..n].copy_from_slice(&data[..n]);
            n
        };
        if let Some(owed) = io.restore_of(ino, block) {
            let n = copy(out, owed);
            let trace = OpTrace {
                bytes_in: n as u64,
                ..Default::default()
            };
            return Ok((n, trace));
        }
        let k = self.cfg.ec_k as u64;
        let server = self.placement(ino, block)[(block % k) as usize];
        let cell = Cell::Block { ino, block };
        let mut trace = OpTrace {
            ds_rpcs: 1,
            ..Default::default()
        };
        let n = match self.ds_call(server, |ds| ds.get_with(cell, |data| copy(out, data))) {
            Ok(Some(n)) => n,
            Ok(None) => return Err(DfsError::NotFound),
            Err(refusal) => {
                let coded = self.reconstruct(ino, block, io, &mut trace.ds_rpcs)?;
                let data = block_of(&coded)?.ok_or(DfsError::NotFound)?;
                // A server that answered is up: heal it now. One that is
                // down still holds its bytes.
                if refusal != Refusal::Down
                    && self.data_servers[server].repair(cell, data) == Ok(true)
                {
                    self.recovery.repairs.fetch_add(1, Ordering::Relaxed);
                }
                copy(out, data)
            }
        };
        trace.bytes_in = n as u64;
        Ok((n, trace))
    }

    /// Rebuild block `block`'s coded cell from the first `k` other cells
    /// of its stripe that answer — blocks first (a never-written one is a
    /// zero cell; one `io` owes a restore is its queued bytes), then the
    /// parity cells `io` owes no rebuild. Adds its RPCs to `rpcs`.
    fn reconstruct(
        &self,
        ino: u64,
        block: u64,
        io: &StripeIo,
        rpcs: &mut u32,
    ) -> Result<Vec<u8>, DfsError> {
        let (k, n) = (self.cfg.ec_k, self.cfg.ec_k + self.cfg.ec_m);
        let (stripe, slot) = (block / k as u64, (block % k as u64) as usize);
        let placement = self.placement(ino, block);
        let mut cells: Vec<Option<Vec<u8>>> = vec![None; n];
        let mut found = 0;
        for s in (0..n).filter(|&s| s != slot) {
            if found == k {
                break;
            }
            let coded = self.coded_cell(self.cell(ino, stripe, s), placement[s], io, rpcs);
            found += coded.is_some() as usize;
            cells[s] = coded;
        }
        self.ec
            .reconstruct(&mut cells)
            .map_err(|_| DfsError::Unrecoverable)?;
        self.recovery
            .reconstructions
            .fetch_add(1, Ordering::Relaxed);
        cells[slot].take().ok_or(DfsError::Unrecoverable)
    }

    /// `cell` as a coded cell — a block padded and tagged (the bytes of a
    /// restore `io` owes it, if any), a parity cell as stored (zeros if
    /// never written) — or `None` if `server` does not serve it, or `io`
    /// owes the parity cell a rebuild. Adds its RPC to `rpcs`.
    fn coded_cell(
        &self,
        cell: Cell,
        server: usize,
        io: &StripeIo,
        rpcs: &mut u32,
    ) -> Option<Vec<u8>> {
        let mut buf = Vec::with_capacity(CELL);
        let is_block = match cell {
            Cell::Block { ino, block } => {
                if let Some(owed) = io.restore_of(ino, block) {
                    buf.extend_from_slice(owed);
                    to_cell(&mut buf, true);
                    return Some(buf);
                }
                true
            }
            Cell::Parity { ino, stripe, p } => {
                if io.owes_rebuild(ino, stripe, p) {
                    return None;
                }
                false
            }
        };
        *rpcs += 1;
        let written = self.ds_call(server, |ds| ds.get(cell, &mut buf)).ok()?;
        if is_block || !written {
            to_cell(&mut buf, written);
        }
        Some(buf)
    }

    /// Write block `block` of `ino` — the one stripe write of every
    /// client: one swap RPC to the block's server (new bytes in, verified
    /// old bytes back), then one delta RPC per parity cell applying
    /// `c[p][slot] · (cell(old) ⊕ cell(new))`. XOR deltas commute and a
    /// swap returns its exact predecessor, so concurrent writers of one
    /// stripe — of one block, even — leave the parity right.
    ///
    /// A swap refused, or answered lost or rotten, takes the old block
    /// from the stripe and queues the new one for restore; a refused
    /// delta queues a rebuild of that parity cell (a delta is never
    /// replayed). A write none of whose bytes landed anywhere is
    /// `Unrecoverable` and changed nothing.
    pub(crate) fn stripe_write(
        &self,
        ino: u64,
        block: u64,
        data: &[u8],
        io: &mut StripeIo,
    ) -> Result<OpTrace, DfsError> {
        block_end(block, data.len()).ok_or(DfsError::InvalidArgument)?;
        if self.faults_enabled() && io.pending() > 0 {
            self.drain_repairs(io);
        }
        let (k, m) = (self.cfg.ec_k, self.cfg.ec_m);
        let (stripe, slot) = (block / k as u64, (block % k as u64) as usize);
        let placement = self.placement(ino, block);
        let cell = Cell::Block { ino, block };
        let mut trace = OpTrace::default();
        // `old` ends up holding the block's predecessor as the parity
        // knows it; `stored` says whether the new bytes reached its server.
        let mut old = std::mem::take(&mut io.swap);
        old.clear();
        let (stored, old_written) = if let Some(owed) = io.restore_of(ino, block) {
            old.extend_from_slice(owed);
            (false, true)
        } else {
            old.extend_from_slice(data);
            trace.ds_rpcs += 1;
            trace.bytes_out += data.len() as u64;
            match self.ds_call(placement[slot], |ds| ds.swap(cell, &mut old)) {
                Ok(written) => {
                    trace.bytes_in += old.len() as u64;
                    (true, written)
                }
                Err(_) => {
                    let coded = self.reconstruct(ino, block, io, &mut trace.ds_rpcs);
                    old.clear();
                    match coded.as_deref().map(block_of) {
                        Ok(Ok(prev)) => {
                            old.extend_from_slice(prev.unwrap_or_default());
                            (false, prev.is_some())
                        }
                        _ => {
                            io.swap = old;
                            return Err(DfsError::Unrecoverable);
                        }
                    }
                }
            }
        };
        fill_delta(&mut io.delta, data, old_written.then_some(&old[..]));
        io.swap = old;
        let mut landed = 0;
        let mut missed: Vec<usize> = Vec::new();
        for p in 0..m {
            let parity = Cell::Parity { ino, stripe, p };
            let coeff = self.ec.coefficient(p, slot);
            let delta = &io.delta;
            trace.ds_rpcs += 1;
            trace.bytes_out += CELL as u64;
            match self.ds_call(placement[k + p], |ds| ds.delta(parity, coeff, delta)) {
                Ok(()) => landed += 1,
                Err(_) => missed.push(p),
            }
        }
        if !stored && landed == 0 {
            return Err(DfsError::Unrecoverable);
        }
        for p in missed {
            io.owe_rebuild(self, ino, stripe, p);
        }
        if !stored {
            io.owe_restore(self, ino, block, data);
        }
        Ok(trace)
    }

    /// One repair pass over `io`'s queue: up to [`REPAIR_DRAIN`] entries,
    /// re-queueing the ones still refused. Every repair RPC is counted by
    /// the server that serves it.
    pub(crate) fn drain_repairs(&self, io: &mut StripeIo) {
        let k = self.cfg.ec_k as u64;
        for _ in 0..REPAIR_DRAIN.min(io.pending()) {
            let Some(repair) = io.repairs.pop_front() else {
                break;
            };
            let done = match &repair {
                Repair::Restore { ino, block, data } => {
                    let server = self.placement(*ino, *block)[(block % k) as usize];
                    let cell = Cell::Block {
                        ino: *ino,
                        block: *block,
                    };
                    self.data_servers[server].put(cell, data).is_ok()
                }
                Repair::Rebuild { ino, stripe, p } => self.rebuild_parity(*ino, *stripe, *p, io),
            };
            if done {
                self.recovery.repairs.fetch_add(1, Ordering::Relaxed);
            } else {
                io.repairs.push_back(repair);
            }
        }
    }

    /// Recompute parity cell `p` of a stripe from its `k` blocks (a
    /// restore `io` owes stands in for its server's stale bytes) and store
    /// it whole. Idempotent; `false` when a block could not be read.
    fn rebuild_parity(&self, ino: u64, stripe: u64, p: usize, io: &StripeIo) -> bool {
        let k = self.cfg.ec_k;
        let placement = self.placement(ino, stripe * k as u64);
        let mut parity = vec![0u8; CELL];
        for (s, &server) in placement[..k].iter().enumerate() {
            let cell = self.cell(ino, stripe, s);
            let Some(coded) = self.coded_cell(cell, server, io, &mut 0) else {
                return false;
            };
            gf256::mul_acc_slice(self.ec.coefficient(p, s), &coded, &mut parity);
        }
        let cell = Cell::Parity { ino, stripe, p };
        self.data_servers[placement[k + p]]
            .put(cell, &parity)
            .is_ok()
    }

    /// Every coded cell of stripe `stripe` of `ino`, blocks then parity,
    /// read straight from the servers (one RPC each) — what
    /// `ReedSolomon::verify` checks a stripe with.
    pub fn stripe_cells(&self, ino: u64, stripe: u64) -> Result<Vec<Vec<u8>>, DfsError> {
        let placement = self.placement(ino, stripe * self.cfg.ec_k as u64);
        let none_owed = StripeIo::default();
        (0..placement.len())
            .map(|s| {
                let cell = self.cell(ino, stripe, s);
                self.coded_cell(cell, placement[s], &none_owed, &mut 0)
                    .ok_or(DfsError::Unrecoverable)
            })
            .collect()
    }

    // ---- server-side data path (standard client: MDS proxies + EC) -----

    /// Standard-client write: the MDS receives the whole block and writes
    /// it through the stripe write, EC computed server-side. A write that
    /// landed nowhere is `Unrecoverable` and leaves the size alone.
    pub fn mds_write_block(
        &self,
        via: usize,
        ino: u64,
        block: u64,
        data: &[u8],
    ) -> Result<(), DfsError> {
        let end = block_end(block, data.len()).ok_or(DfsError::InvalidArgument)?;
        self.mds_fault()?;
        let home = self.home_mds_of_ino(ino);
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        if home != via {
            self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
            self.mdses[home].rpcs.fetch_add(1, Ordering::Relaxed);
        }
        self.stripe_write(ino, block, data, &mut self.mds_io.lock())?;
        self.grow(home, ino, end);
        Ok(())
    }

    /// Raise `ino`'s size to `end` (never lower it) and stamp its mtime.
    fn grow(&self, home: usize, ino: u64, end: u64) {
        let now = self.now();
        let mut inodes = self.mdses[home].inode_shard(ino).write();
        if let Some(attr) = inodes.get_mut(&ino) {
            if end > attr.size {
                attr.size = end;
            }
            attr.mtime = now;
        }
    }

    /// Standard-client read: the MDS reads the block through the stripe
    /// read (reconstructing it if need be) and returns it.
    pub fn mds_read_block(&self, via: usize, ino: u64, block: u64) -> Result<Vec<u8>, DfsError> {
        self.mds_fault()?;
        let home = self.home_mds_of_ino(ino);
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        if home != via {
            self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
            self.mdses[home].rpcs.fetch_add(1, Ordering::Relaxed);
        }
        self.gather_block(ino, block)
    }

    /// One block as the MDS proxy path reads it: the stripe read, with
    /// the repairs the MDS owes.
    pub fn gather_block(&self, ino: u64, block: u64) -> Result<Vec<u8>, DfsError> {
        let mut out = vec![0; DFS_BLOCK];
        let (n, _) = self.stripe_read(ino, block, &mut out, &mut self.mds_io.lock())?;
        out.truncate(n);
        Ok(out)
    }

    /// Total RPCs served across all MDSes.
    pub fn total_mds_rpcs(&self) -> u64 {
        self.mdses
            .iter()
            .map(|m| m.rpcs.load(Ordering::Relaxed))
            .sum()
    }

    /// Total forwarding hops across all MDSes.
    pub fn total_forwards(&self) -> u64 {
        self.mdses
            .iter()
            .map(|m| m.forwarded.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_getattr() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "file").unwrap();
        assert_eq!(b.mds_lookup(0, 0, "file").unwrap(), attr.ino);
        assert_eq!(b.mds_getattr(0, attr.ino).unwrap().size, 0);
        assert_eq!(b.mds_create(0, 0, "file"), Err(DfsError::AlreadyExists));
        assert_eq!(b.mds_lookup(0, 0, "nope"), Err(DfsError::NotFound));
    }

    #[test]
    fn forwarding_counted_when_entry_is_not_home() {
        let b = DfsBackend::new(DfsConfig::default());
        // Find a name whose home is not MDS 0, then contact via MDS 0.
        let name = (0..100)
            .map(|i| format!("f{i}"))
            .find(|n| b.home_mds_of_name(0, n) != 0)
            .unwrap();
        b.mds_create(0, 0, &name).unwrap();
        assert_eq!(b.total_forwards(), 1);
        // Contacting the home directly forwards nothing.
        let home = b.home_mds_of_name(0, "direct");
        let before = b.total_forwards();
        b.mds_create(home, 0, "direct").unwrap();
        assert_eq!(b.total_forwards(), before);
    }

    #[test]
    fn server_side_write_then_read() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "data").unwrap();
        let block: Vec<u8> = (0..DFS_BLOCK).map(|i| (i % 251) as u8).collect();
        b.mds_write_block(1, attr.ino, 0, &block).unwrap();
        let back = b.mds_read_block(2, attr.ino, 0).unwrap();
        assert_eq!(back, block);
        assert_eq!(b.mds_getattr(0, attr.ino).unwrap().size, DFS_BLOCK as u64);
    }

    #[test]
    fn shards_spread_across_servers() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "spread").unwrap();
        for block in 0..12u64 {
            b.mds_write_block(0, attr.ino, block, &vec![1u8; DFS_BLOCK])
                .unwrap();
        }
        // Every data server should hold some cells: 12 blocks are 3
        // stripes, each 4 blocks + 2 parity cells over 6 servers.
        for ds in 0..b.data_server_count() {
            assert!(b.data_server(ds).cell_count() > 0, "server {ds} empty");
        }
        let total: usize = (0..b.data_server_count())
            .map(|i| b.data_server(i).cell_count())
            .sum();
        assert_eq!(total, 12 + 3 * 2);
    }

    #[test]
    fn degraded_read_survives_m_failures() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "resilient").unwrap();
        let block: Vec<u8> = (0..DFS_BLOCK).map(|i| (i * 7 % 253) as u8).collect();
        b.mds_write_block(0, attr.ino, 0, &block).unwrap();
        // Fail two (m = 2) data servers.
        b.data_server(0).set_failed(true);
        b.data_server(1).set_failed(true);
        assert_eq!(b.mds_read_block(0, attr.ino, 0).unwrap(), block);
        // A third failure makes the block unrecoverable.
        b.data_server(2).set_failed(true);
        assert!(matches!(
            b.mds_read_block(0, attr.ino, 0),
            Err(DfsError::Unrecoverable) | Err(DfsError::NotFound)
        ));
    }

    #[test]
    fn delegation_recall_semantics() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "locked").unwrap();
        b.mds_delegate(0, attr.ino, 1).unwrap();
        b.mds_delegate(0, attr.ino, 1).unwrap(); // re-confirm is fine
        assert_eq!(b.total_recalls(), 0);
        assert!(!b.delegation_revoked(attr.ino, 1));
        // A competing client triggers a recall and takes the delegation.
        b.mds_delegate(0, attr.ino, 2).unwrap();
        assert_eq!(b.total_recalls(), 1);
        assert!(
            b.delegation_revoked(attr.ino, 1),
            "old holder sees the recall"
        );
        assert!(!b.delegation_revoked(attr.ino, 2), "new holder is clean");
        b.ack_recall(attr.ino, 1);
        assert!(!b.delegation_revoked(attr.ino, 1));
    }

    #[test]
    fn corrupt_shard_detected_and_reconstructed() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "rotten").unwrap();
        let block: Vec<u8> = (0..DFS_BLOCK).map(|i| (i * 13 % 241) as u8).collect();
        b.mds_write_block(0, attr.ino, 0, &block).unwrap();
        // Flip a payload bit in block 0 without touching its CRC.
        let server0 = b.placement(attr.ino, 0)[0];
        let cell = Cell::Block {
            ino: attr.ino,
            block: 0,
        };
        assert!(b.data_server(server0).corrupt(cell));
        assert_eq!(b.recovery().snapshot().crc_rejects, 0);
        // The read still returns correct bytes: the corrupt block reads
        // as rotten and reconstructs from the rest of its stripe.
        assert_eq!(b.mds_read_block(0, attr.ino, 0).unwrap(), block);
        let snap = b.recovery().snapshot();
        assert_eq!(snap.crc_rejects, 1);
        assert_eq!(snap.reconstructions, 1);
    }

    #[test]
    fn readdir_paginates_in_name_order_across_partitions() {
        let b = DfsBackend::new(DfsConfig::default());
        let mut want: Vec<String> = (0..37).map(|i| format!("f{i:03}")).collect();
        for name in &want {
            b.mds_create(0, 0, name).unwrap();
        }
        // Another directory's entries never leak in.
        let dir2 = b.mds_create(0, 0, "other-dir").unwrap();
        b.mds_create(0, dir2.ino, "intruder").unwrap();
        want.push("other-dir".to_string());
        want.sort_unstable();
        let mut got = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            let (page, next) = b.mds_readdir(1, 0, cursor.as_deref(), 10).unwrap();
            assert!(page.len() <= 10);
            got.extend(page.into_iter().map(|(n, _)| n));
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(got, want);
        let (sub, next) = b.mds_readdir(0, dir2.ino, None, 100).unwrap();
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].0, "intruder");
        assert!(next.is_none());
    }

    #[test]
    fn a_proxied_write_that_lands_nowhere_is_unrecoverable_and_keeps_the_size() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "refused").unwrap();
        let old: Vec<u8> = (0..DFS_BLOCK).map(|i| (i % 199) as u8).collect();
        b.mds_write_block(0, attr.ino, 1, &old).unwrap();
        // The block's own server and two more of its stripe are down: the
        // swap is refused and the old block cannot be rebuilt from the 3
        // cells left, so the write must not be acknowledged.
        let placement = b.placement(attr.ino, 0).to_vec();
        for s in [1, 2, 4] {
            b.data_server(placement[s]).set_failed(true);
        }
        let new = vec![0x5A; DFS_BLOCK];
        assert_eq!(
            b.mds_write_block(0, attr.ino, 1, &new),
            Err(DfsError::Unrecoverable)
        );
        assert_eq!(
            b.mds_write_block(0, attr.ino, 2, &new),
            Err(DfsError::Unrecoverable),
            "a never-written block's old bytes are unknown too"
        );
        assert_eq!(
            b.mds_getattr(0, attr.ino).unwrap().size,
            2 * DFS_BLOCK as u64
        );
        for s in [1, 2, 4] {
            b.data_server(placement[s]).set_failed(false);
        }
        assert_eq!(b.mds_read_block(0, attr.ino, 1).unwrap(), old);
        assert_eq!(b.mds_read_block(0, attr.ino, 2), Err(DfsError::NotFound));
        let cells = b.stripe_cells(attr.ino, 0).unwrap();
        assert!(b.ec().verify(&cells).unwrap(), "the stripe still verifies");
    }

    #[test]
    fn an_acknowledged_proxied_write_reads_back_once_the_servers_return() {
        // Three of six servers down, the block's own server up: the swap
        // lands, the deltas that miss queue parity rebuilds at the MDS.
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "acked").unwrap();
        let placement = b.placement(attr.ino, 0).to_vec();
        for s in [1, 4, 5] {
            b.data_server(placement[s]).set_failed(true);
        }
        let data: Vec<u8> = (0..DFS_BLOCK).map(|i| (i % 241) as u8).collect();
        b.mds_write_block(0, attr.ino, 0, &data).unwrap();
        assert_eq!(b.mds_getattr(0, attr.ino).unwrap().size, DFS_BLOCK as u64);
        for s in [1, 4, 5] {
            b.data_server(placement[s]).set_failed(false);
        }
        assert_eq!(b.mds_read_block(0, attr.ino, 0).unwrap(), data);
    }

    #[test]
    fn bad_proxied_input_is_invalid_argument_not_a_panic() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "bad").unwrap();
        let before = b.total_mds_rpcs();
        assert_eq!(
            b.mds_write_block(0, attr.ino, 0, &vec![0; DFS_BLOCK + 1]),
            Err(DfsError::InvalidArgument)
        );
        assert_eq!(
            b.mds_write_block(0, attr.ino, u64::MAX / 4096, &[0; 16]),
            Err(DfsError::InvalidArgument)
        );
        assert_eq!(b.total_mds_rpcs(), before, "refused before it was served");
        assert_eq!(b.mds_getattr(0, attr.ino).unwrap().size, 0);
    }

    #[test]
    fn partial_tail_block_round_trips() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "tail").unwrap();
        let data = vec![0xEE; 5000];
        b.mds_write_block(0, attr.ino, 0, &data).unwrap();
        let back = b.mds_read_block(0, attr.ino, 0).unwrap();
        assert_eq!(back, data);
        // Degraded, the same bytes and the same length: the parity cells
        // carry the block's length tag.
        b.data_server(b.placement(attr.ino, 0)[0]).set_failed(true);
        assert_eq!(b.mds_read_block(0, attr.ino, 0).unwrap(), data);
    }
}

//! The distributed-file-system backend: metadata servers and data servers.
//!
//! The paper's client-side optimizations only make sense against a real
//! backend shape (§2.1): metadata is hash-partitioned across MDSes, so a
//! request sent to the wrong ("entry") MDS is *forwarded* to its home MDS
//! — the hop the optimized client's metadata view avoids. File data is
//! striped in 8 KiB blocks, each erasure-coded `k+m` and spread across
//! data servers; EC runs on the MDS for standard clients and on the
//! client (host or DPU) for optimized/DPC clients.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_codec::crc32c;
use dpc_ec::ReedSolomon;
use dpc_sim::fault::{FaultPlan, FaultSite};
use parking_lot::RwLock;

/// Data is striped and erasure-coded at this granularity.
pub const DFS_BLOCK: usize = 8192;

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
    /// Too many shards unavailable to reconstruct a block.
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

/// One lock stripe of a server's dentry map: (parent ino, name) → ino.
type DentryStripe = RwLock<HashMap<(u64, String), u64>>;

/// One metadata server: a hash partition of dentries, inodes, layouts and
/// delegations.
///
/// The namespace maps are striped into [`DfsConfig::ns_shards`]
/// hash-sharded stripes (the PR 2 fd-table split, applied server-side):
/// dentries shard by *parent* ino so one directory's entries colocate in
/// one stripe — a create storm in `/a` and a stat stampede in `/b` take
/// different locks — and inodes shard by ino. `ns_shards = 1` degenerates
/// to the old single-global-lock server and serves as the contention
/// baseline in benches and equivalence tests.
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
    fn new(id: usize, ns_shards: usize) -> MetadataServer {
        let shards = ns_shards.max(1);
        MetadataServer {
            id,
            dentries: (0..shards)
                .map(|_| RwLock::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            inodes: (0..shards)
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

/// A shard at rest: payload plus the CRC32C it arrived with. The
/// checksum is verified on every read so silent bit-rot surfaces as a
/// *lost* shard and flows into the ordinary reconstruct + read-repair
/// recovery path rather than returning corrupt bytes.
struct StoredShard {
    data: Vec<u8>,
    crc: u32,
}

type ShardMap = HashMap<(u64, u64, usize), StoredShard>;

/// Store `data` (with the checksum it arrived with) under `key`. An
/// overwrite reuses the stored buffer, so rewriting a shard at its old
/// length — every in-place block overwrite — allocates nothing.
fn store(shards: &mut ShardMap, key: (u64, u64, usize), data: &[u8], crc: u32) {
    match shards.entry(key) {
        Entry::Occupied(mut e) => {
            let stored = e.get_mut();
            stored.data.clear();
            stored.data.extend_from_slice(data);
            stored.crc = crc;
        }
        Entry::Vacant(v) => {
            v.insert(StoredShard {
                data: data.to_vec(),
                crc,
            });
        }
    }
}

/// One data server: shard storage keyed by `(ino, block, shard)`.
pub struct DataServer {
    pub id: usize,
    shards: RwLock<ShardMap>,
    /// Failure injection: a failed server refuses reads and writes.
    failed: std::sync::atomic::AtomicBool,
    /// Optional scheduled fault site (flaky / slow behaviour): when it
    /// fires, the RPC is refused even though the server is otherwise up.
    fault: RwLock<Option<Arc<FaultSite>>>,
    pub rpcs: AtomicU64,
    /// Shared with [`DfsRecoveryStats::crc_rejects`]: shards whose
    /// stored checksum no longer matched on read.
    recovery: Arc<DfsRecoveryStats>,
}

impl DataServer {
    fn new(id: usize, recovery: Arc<DfsRecoveryStats>) -> DataServer {
        DataServer {
            id,
            shards: RwLock::new(HashMap::new()),
            failed: std::sync::atomic::AtomicBool::new(false),
            fault: RwLock::new(None),
            rpcs: AtomicU64::new(0),
            recovery,
        }
    }

    /// Does this RPC fail right now (hard failure, or a scheduled fault)?
    fn refuses(&self) -> bool {
        if self.failed.load(Ordering::Relaxed) {
            return true;
        }
        match &*self.fault.read() {
            Some(site) => site.fires(),
            None => false,
        }
    }

    /// Store one shard (checksummed before the lock is taken; the insert
    /// is the only place the payload is copied). Returns `false` when the
    /// server refused the write (failed, or a scheduled fault fired) — the
    /// shard is NOT stored.
    pub fn put_shard(&self, ino: u64, block: u64, shard: usize, data: &[u8]) -> bool {
        self.rpcs.fetch_add(1, Ordering::Relaxed);
        if self.refuses() {
            return false;
        }
        let crc = crc32c(data);
        store(&mut self.shards.write(), (ino, block, shard), data, crc);
        true
    }

    pub fn get_shard(&self, ino: u64, block: u64, shard: usize) -> Option<Vec<u8>> {
        let mut data = Vec::new();
        self.get_shard_into(ino, block, shard, &mut data)
            .then_some(data)
    }

    /// Fetch one shard by appending it to `out` — the payload's one copy
    /// on a healthy read, made under the read lock right after its
    /// checksum verified. `false` (and `out` untouched) when the server
    /// refused, holds no such shard, or the checksum failed.
    pub fn get_shard_into(&self, ino: u64, block: u64, shard: usize, out: &mut Vec<u8>) -> bool {
        self.rpcs.fetch_add(1, Ordering::Relaxed);
        if self.refuses() {
            return false;
        }
        let shards = self.shards.read();
        let Some(stored) = shards.get(&(ino, block, shard)) else {
            return false;
        };
        if crc32c(&stored.data) != stored.crc {
            // Bit-rot: report the shard as lost so the caller's degraded
            // path reconstructs it (and read-repair overwrites us).
            self.recovery.crc_rejects.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        out.extend_from_slice(&stored.data);
        true
    }

    /// Test hook: flip one payload bit in a stored shard *without*
    /// updating its checksum, simulating at-rest bit-rot.
    pub fn corrupt_shard(&self, ino: u64, block: u64, shard: usize) -> bool {
        let mut shards = self.shards.write();
        match shards.get_mut(&(ino, block, shard)) {
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

    /// Crash: lose all stored shards and refuse RPCs until
    /// [`restart`](DataServer::restart).
    pub fn crash(&self) {
        self.failed.store(true, Ordering::Relaxed);
        self.shards.write().clear();
    }

    /// Bring a crashed server back up (empty — repair must repopulate it).
    pub fn restart(&self) {
        self.failed.store(false, Ordering::Relaxed);
    }

    pub fn shard_count(&self) -> usize {
        self.shards.read().len()
    }
}

/// Backend configuration.
#[derive(Copy, Clone, Debug)]
pub struct DfsConfig {
    pub mds_count: usize,
    pub data_server_count: usize,
    /// EC data shards per block.
    pub ec_k: usize,
    /// EC parity shards per block.
    pub ec_m: usize,
    /// Namespace stripes per MDS (dentry stripes keyed by parent ino,
    /// inode stripes by ino). `1` is the pre-shard single-lock server.
    pub ns_shards: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            mds_count: 4,
            data_server_count: 6,
            ec_k: 4,
            ec_m: 2,
            ns_shards: 16,
        }
    }
}

/// Client-side recovery counters, shared by every client of one backend
/// (all monotonic; every recovery action increments exactly one).
#[derive(Default)]
pub struct DfsRecoveryStats {
    /// Data-server RPC reissues after a refused shard get/put.
    pub ds_retries: AtomicU64,
    /// MDS RPC reissues after a transient fault.
    pub mds_retries: AtomicU64,
    /// Blocks rebuilt from parity on the read path.
    pub reconstructions: AtomicU64,
    /// Shards re-written to their home server by background repair.
    pub repairs: AtomicU64,
    /// Repair work items shed because the repair queue was full.
    pub repair_drops: AtomicU64,
    /// Shards whose stored CRC32C failed verification on read (bit-rot
    /// detected and reported as a lost shard).
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
}

impl DfsBackend {
    pub fn new(cfg: DfsConfig) -> Arc<DfsBackend> {
        assert!(
            cfg.ec_k + cfg.ec_m <= cfg.data_server_count,
            "need at least k+m data servers"
        );
        let recovery = Arc::new(DfsRecoveryStats::default());
        Arc::new(DfsBackend {
            mdses: (0..cfg.mds_count)
                .map(|id| MetadataServer::new(id, cfg.ns_shards))
                .collect(),
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

    /// The data servers hosting block `block` of `ino`, one per EC shard
    /// (rotated by block number for balance).
    pub fn placement(&self, ino: u64, block: u64) -> &[usize] {
        let base = (hash64(ino, block) % self.data_servers.len() as u64) as usize;
        &self.ring[base..base + self.cfg.ec_k + self.cfg.ec_m]
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

    pub fn mds_release_delegation(&self, ino: u64, client: u64) {
        let home = self.home_mds_of_ino(ino);
        let mut del = self.mdses[home].delegations.write();
        if del.get(&ino) == Some(&client) {
            del.remove(&ino);
        }
    }

    // ---- server-side data path (standard client: MDS proxies + EC) -----

    /// Standard-client write: the MDS receives the whole block, computes
    /// EC server-side and distributes shards to the data servers.
    pub fn mds_write_block(
        &self,
        via: usize,
        ino: u64,
        block: u64,
        data: &[u8],
    ) -> Result<(), DfsError> {
        assert!(data.len() <= DFS_BLOCK);
        self.mds_fault()?;
        let home = self.home_mds_of_ino(ino);
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        if home != via {
            self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
            self.mdses[home].rpcs.fetch_add(1, Ordering::Relaxed);
        }
        let shards = self
            .ec
            .encode_buffer(data)
            .map_err(|_| DfsError::Unrecoverable)?;
        for (s, &server) in self.placement(ino, block).iter().enumerate() {
            self.data_servers[server].put_shard(ino, block, s, &shards[s]);
        }
        let end = block * DFS_BLOCK as u64 + data.len() as u64;
        let now = self.now();
        let mut inodes = self.mdses[home].inode_shard(ino).write();
        if let Some(attr) = inodes.get_mut(&ino) {
            if end > attr.size {
                attr.size = end;
            }
            attr.mtime = now;
        }
        Ok(())
    }

    /// Small-I/O packing (§2.1 "Direct I/O"): the client packs several
    /// sub-block writes into a single message; the MDS consolidates them
    /// into whole-block updates (read-modify-write per touched block) and
    /// writes each block's stripe once. Returns the number of consolidated
    /// block writes — the client paid *one* RPC for all of it.
    pub fn mds_write_packed(
        &self,
        via: usize,
        ino: u64,
        ios: &[(u64, Vec<u8>)], // (byte offset, data), each < DFS_BLOCK
    ) -> Result<usize, DfsError> {
        self.mds_fault()?;
        let home = self.home_mds_of_ino(ino);
        self.mdses[via].rpcs.fetch_add(1, Ordering::Relaxed);
        if home != via {
            self.mdses[via].forwarded.fetch_add(1, Ordering::Relaxed);
            self.mdses[home].rpcs.fetch_add(1, Ordering::Relaxed);
        }
        // Group the small I/Os by the block they touch.
        let mut blocks: std::collections::BTreeMap<u64, Vec<(usize, &[u8])>> =
            std::collections::BTreeMap::new();
        let mut max_end = 0u64;
        for (offset, data) in ios {
            assert!(
                (*offset % DFS_BLOCK as u64) as usize + data.len() <= DFS_BLOCK,
                "small I/O may not span blocks"
            );
            let block = offset / DFS_BLOCK as u64;
            let in_block = (offset % DFS_BLOCK as u64) as usize;
            blocks.entry(block).or_default().push((in_block, data));
            max_end = max_end.max(offset + data.len() as u64);
        }
        // Consolidate: one read-modify-write per touched block.
        let consolidated = blocks.len();
        for (block, writes) in blocks {
            let mut buf = self
                .gather_block(ino, block)
                .unwrap_or_else(|_| vec![0u8; DFS_BLOCK]);
            buf.resize(DFS_BLOCK, 0);
            for (in_block, data) in writes {
                buf[in_block..in_block + data.len()].copy_from_slice(data);
            }
            let shards = self
                .ec
                .encode_buffer(&buf)
                .map_err(|_| DfsError::Unrecoverable)?;
            for (sh, &server) in self.placement(ino, block).iter().enumerate() {
                self.data_servers[server].put_shard(ino, block, sh, &shards[sh]);
            }
        }
        let now = self.now();
        let mut inodes = self.mdses[home].inode_shard(ino).write();
        if let Some(attr) = inodes.get_mut(&ino) {
            if max_end > attr.size {
                attr.size = max_end;
            }
            attr.mtime = now;
        }
        Ok(consolidated)
    }

    /// Standard-client read: the MDS gathers shards, reassembles the block
    /// (reconstructing if shards are missing) and returns it.
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

    /// Fetch k+m shards and reassemble/reconstruct one block. Shared by
    /// the MDS proxy path and the client-direct path.
    pub fn gather_block(&self, ino: u64, block: u64) -> Result<Vec<u8>, DfsError> {
        let placement = self.placement(ino, block);
        let k = self.cfg.ec_k;
        let mut shards: Vec<Option<Vec<u8>>> = placement
            .iter()
            .enumerate()
            .map(|(s, &server)| self.data_servers[server].get_shard(ino, block, s))
            .collect();
        if shards.iter().all(|s| s.is_none()) {
            return Err(DfsError::NotFound);
        }
        if shards[..k].iter().any(|s| s.is_none()) {
            // Degraded read: reconstruct from parity.
            self.ec
                .reconstruct(&mut shards)
                .map_err(|_| DfsError::Unrecoverable)?;
            self.recovery
                .reconstructions
                .fetch_add(1, Ordering::Relaxed);
        }
        let mut out = Vec::with_capacity(DFS_BLOCK);
        for s in shards.into_iter().take(k) {
            let shard = s.ok_or(DfsError::Unrecoverable)?;
            out.extend_from_slice(&shard);
        }
        out.truncate(DFS_BLOCK);
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
        // Every data server should hold some shards (12 blocks × 6 shards
        // over 6 servers).
        for ds in 0..b.data_server_count() {
            assert!(b.data_server(ds).shard_count() > 0, "server {ds} empty");
        }
        let total: usize = (0..b.data_server_count())
            .map(|i| b.data_server(i).shard_count())
            .sum();
        assert_eq!(total, 12 * 6);
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
        // Voluntary release by the new holder.
        b.mds_release_delegation(attr.ino, 2);
        b.mds_delegate(0, attr.ino, 1).unwrap();
        assert_eq!(b.total_recalls(), 1, "no recall on a free delegation");
    }

    #[test]
    fn corrupt_shard_detected_and_reconstructed() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "rotten").unwrap();
        let block: Vec<u8> = (0..DFS_BLOCK).map(|i| (i * 13 % 241) as u8).collect();
        b.mds_write_block(0, attr.ino, 0, &block).unwrap();
        // Flip a payload bit in data shard 0 without touching its CRC.
        let server0 = b.placement(attr.ino, 0)[0];
        assert!(b.data_server(server0).corrupt_shard(attr.ino, 0, 0));
        assert_eq!(b.recovery().snapshot().crc_rejects, 0);
        // The read still returns correct bytes: the corrupt shard reads
        // as lost and the block reconstructs from parity.
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
    fn single_lock_baseline_is_equivalent_to_sharded() {
        let sharded = DfsBackend::new(DfsConfig::default());
        let single = DfsBackend::new(DfsConfig {
            ns_shards: 1,
            ..DfsConfig::default()
        });
        for b in [&sharded, &single] {
            let dir = b.mds_create(0, 0, "dir").unwrap();
            for i in 0..25 {
                b.mds_create(i % 4, dir.ino, &format!("n{i}")).unwrap();
            }
            b.mds_create(0, dir.ino, "n3").unwrap_err();
        }
        for b in [&sharded, &single] {
            let dir = b.mds_lookup(0, 0, "dir").unwrap();
            let (page, next) = b.mds_readdir(0, dir, None, 100).unwrap();
            assert_eq!(page.len(), 25);
            assert!(next.is_none());
            for (name, ino) in page {
                assert_eq!(b.mds_lookup(2, dir, &name).unwrap(), ino);
                assert_eq!(b.mds_getattr(1, ino).unwrap().ino, ino);
            }
        }
    }

    #[test]
    fn partial_tail_block_round_trips() {
        let b = DfsBackend::new(DfsConfig::default());
        let attr = b.mds_create(0, 0, "tail").unwrap();
        let data = vec![0xEE; 5000];
        b.mds_write_block(0, attr.ino, 0, &data).unwrap();
        let back = b.mds_read_block(0, attr.ino, 0).unwrap();
        assert_eq!(&back[..5000], &data[..]);
    }
}

//! The three fs-client flavours the evaluation compares (Fig 1, Fig 9):
//!
//! - [`StandardClient`] — NFS-like: every operation is one RPC to the
//!   client's *entry* MDS (forwarded server-side when the metadata lives
//!   elsewhere); data is proxied through the MDS, which computes EC
//!   server-side. Minimal host CPU, minimal performance.
//! - [`OptimizedClient`] — the host-side optimized client: a metadata
//!   view routes requests straight to home MDSes, EC is computed on the
//!   client, direct I/O sends shards straight to data servers, metadata
//!   updates batch lazily, and delegations let attributes be cached
//!   locally. 4–5× the IOPS — and the "datacenter tax" in host CPU.
//! - [`DpcClient`] — identical logic, executed on the DPU ([`ClientCore`]
//!   shared with the optimized client). The functional behaviour is the
//!   same; *where* the cycles land differs, which the benchmarks express
//!   by charging DPU stations instead of host stations.
//!
//! Every operation returns an [`OpTrace`] describing exactly what crossed
//! the network and what was computed locally, so the benchmarks can
//! convert structure into time without re-guessing the protocol.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::backend::{DfsAttr, DfsBackend, DfsError, DFS_BLOCK};

/// Bounded reissues of a refused data-server RPC before giving up on that
/// server (degraded read / repair queue take over).
const DS_RETRIES: u32 = 3;
/// Bounded reissues of an MDS RPC that failed with a transient fault.
const MDS_RETRIES: u32 = 8;
/// Write-path repair queue bound: beyond this, the oldest pending repair
/// is shed (and counted) instead of letting the queue grow without limit.
const REPAIR_CAP: usize = 1024;
/// Repair entries attempted per drain pass (keeps a dead server from
/// turning every write into a full queue sweep).
const REPAIR_DRAIN: usize = 8;

/// One shard write still owed to a server: (server, ino, block, shard, data).
type Repair = (usize, u64, u64, usize, Vec<u8>);

/// Exponential backoff between recovery attempts (microseconds, capped).
fn backoff(attempt: u32) {
    let us = (20u64 << attempt.min(8)).min(2_000);
    std::thread::sleep(std::time::Duration::from_micros(us));
}

/// Run an MDS operation, reissuing on [`DfsError::Transient`] with bounded
/// exponential backoff. Transient faults are raised before any server-side
/// mutation, so the retry is always safe — including for `create`.
fn retry_mds<T>(
    backend: &DfsBackend,
    mut op: impl FnMut() -> Result<T, DfsError>,
) -> Result<T, DfsError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Err(DfsError::Transient) if attempt < MDS_RETRIES => {
                attempt += 1;
                backend
                    .recovery()
                    .mds_retries
                    .fetch_add(1, Ordering::Relaxed);
                backoff(attempt);
            }
            other => return other,
        }
    }
}

/// What one client operation did (structure, not time).
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct OpTrace {
    /// RPCs the client issued to metadata servers.
    pub mds_rpcs: u32,
    /// RPCs the client issued directly to data servers.
    pub ds_rpcs: u32,
    /// Bytes erasure-coded *on the client* (0 for the standard client).
    pub ec_bytes: u64,
    /// Payload bytes sent / received by the client.
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Whether client-side metadata caching short-circuited the op.
    pub meta_cache_hit: bool,
}

impl OpTrace {
    fn add(&mut self, other: OpTrace) {
        self.mds_rpcs += other.mds_rpcs;
        self.ds_rpcs += other.ds_rpcs;
        self.ec_bytes += other.ec_bytes;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
    }
}

/// The uniform client interface (block-granular data path, as the
/// evaluation drives 8 KiB I/O).
pub trait FsClient {
    fn client_name(&self) -> &'static str;
    fn create(&mut self, parent: u64, name: &str) -> Result<(DfsAttr, OpTrace), DfsError>;
    fn lookup(&mut self, parent: u64, name: &str) -> Result<(u64, OpTrace), DfsError>;
    fn getattr(&mut self, ino: u64) -> Result<(DfsAttr, OpTrace), DfsError>;
    fn write_block(&mut self, ino: u64, block: u64, data: &[u8]) -> Result<OpTrace, DfsError>;
    fn read_block(&mut self, ino: u64, block: u64) -> Result<(Vec<u8>, OpTrace), DfsError>;
    /// Flush any lazily batched metadata updates.
    fn sync_meta(&mut self) -> Result<OpTrace, DfsError>;
}

// ---------------------------------------------------------------------
// Standard (NFS-like) client
// ---------------------------------------------------------------------

pub struct StandardClient {
    backend: Arc<DfsBackend>,
    entry_mds: usize,
}

impl StandardClient {
    pub fn new(backend: Arc<DfsBackend>, entry_mds: usize) -> StandardClient {
        StandardClient { backend, entry_mds }
    }

    /// Small-I/O packing: send several sub-block writes to the entry MDS
    /// in one message; the MDS consolidates them into whole-block stripe
    /// updates (§2.1's "MDS consolidates multiple small I/Os into a single
    /// large I/O"). One client RPC regardless of the I/O count.
    pub fn write_small_packed(
        &mut self,
        ino: u64,
        ios: &[(u64, Vec<u8>)],
    ) -> Result<(usize, OpTrace), DfsError> {
        let consolidated = self.backend.mds_write_packed(self.entry_mds, ino, ios)?;
        let bytes: u64 = ios.iter().map(|(_, d)| d.len() as u64 + 16).sum();
        Ok((
            consolidated,
            OpTrace {
                mds_rpcs: 1,
                bytes_out: bytes,
                ..Default::default()
            },
        ))
    }
}

impl FsClient for StandardClient {
    fn client_name(&self) -> &'static str {
        "standard-nfs"
    }

    fn create(&mut self, parent: u64, name: &str) -> Result<(DfsAttr, OpTrace), DfsError> {
        let attr = self.backend.mds_create(self.entry_mds, parent, name)?;
        Ok((
            attr,
            OpTrace {
                mds_rpcs: 1,
                bytes_out: name.len() as u64 + 16,
                ..Default::default()
            },
        ))
    }

    fn lookup(&mut self, parent: u64, name: &str) -> Result<(u64, OpTrace), DfsError> {
        let ino = self.backend.mds_lookup(self.entry_mds, parent, name)?;
        Ok((
            ino,
            OpTrace {
                mds_rpcs: 1,
                bytes_out: name.len() as u64 + 16,
                bytes_in: 8,
                ..Default::default()
            },
        ))
    }

    fn getattr(&mut self, ino: u64) -> Result<(DfsAttr, OpTrace), DfsError> {
        let attr = self.backend.mds_getattr(self.entry_mds, ino)?;
        Ok((
            attr,
            OpTrace {
                mds_rpcs: 1,
                bytes_in: 64,
                ..Default::default()
            },
        ))
    }

    fn write_block(&mut self, ino: u64, block: u64, data: &[u8]) -> Result<OpTrace, DfsError> {
        // Whole block to the MDS; EC happens server-side.
        self.backend
            .mds_write_block(self.entry_mds, ino, block, data)?;
        Ok(OpTrace {
            mds_rpcs: 1,
            bytes_out: data.len() as u64,
            ..Default::default()
        })
    }

    fn read_block(&mut self, ino: u64, block: u64) -> Result<(Vec<u8>, OpTrace), DfsError> {
        let data = self.backend.mds_read_block(self.entry_mds, ino, block)?;
        let n = data.len() as u64;
        Ok((
            data,
            OpTrace {
                mds_rpcs: 1,
                bytes_in: n,
                ..Default::default()
            },
        ))
    }

    fn sync_meta(&mut self) -> Result<OpTrace, DfsError> {
        Ok(OpTrace::default()) // nothing batched
    }
}

// ---------------------------------------------------------------------
// Optimized client core (shared by host-optimized and DPC clients)
// ---------------------------------------------------------------------

/// The optimized fs-client logic: metadata view, client-side EC + direct
/// I/O, delegation-backed attribute caching, lazy metadata batching.
pub struct ClientCore {
    backend: Arc<DfsBackend>,
    client_id: u64,
    /// Cached attributes for delegated inodes.
    attr_cache: HashMap<u64, DfsAttr>,
    /// Pending lazy size updates: ino → max end offset.
    pending_meta: HashMap<u64, u64>,
    /// Flush pending metadata after this many batched writes.
    pub meta_batch: usize,
    batched: usize,
    /// Shards whose home server refused the write even after retries.
    /// Drained opportunistically on later writes / metadata syncs;
    /// bounded by [`REPAIR_CAP`].
    pending_repair: VecDeque<Repair>,
    /// Recycled `k + m` stripe buffers [`write_block`](Self::write_block)
    /// encodes into.
    shard_bufs: Vec<Vec<u8>>,
}

impl ClientCore {
    pub fn new(backend: Arc<DfsBackend>, client_id: u64) -> ClientCore {
        ClientCore {
            backend,
            client_id,
            attr_cache: HashMap::new(),
            pending_meta: HashMap::new(),
            meta_batch: 16,
            batched: 0,
            pending_repair: VecDeque::new(),
            shard_bufs: Vec::new(),
        }
    }

    pub fn backend(&self) -> &Arc<DfsBackend> {
        &self.backend
    }

    /// Shard repairs still queued (shed or completed ones are not).
    pub fn pending_repairs(&self) -> usize {
        self.pending_repair.len()
    }

    /// Fetch one shard by appending it to `out`, reissuing a bounded
    /// number of times when the server refuses and recovery is engaged.
    /// Only the first attempt is an [`OpTrace`]-visible RPC; reissues land
    /// in the recovery counters. `false` leaves `out` untouched.
    fn get_shard_recovering_into(
        &self,
        server: usize,
        ino: u64,
        block: u64,
        shard: usize,
        out: &mut Vec<u8>,
    ) -> bool {
        let ds = self.backend.data_server(server);
        if ds.get_shard_into(ino, block, shard, out) {
            return true;
        }
        if !self.backend.faults_enabled() {
            return false;
        }
        for attempt in 1..=DS_RETRIES {
            self.backend
                .recovery()
                .ds_retries
                .fetch_add(1, Ordering::Relaxed);
            backoff(attempt);
            if ds.get_shard_into(ino, block, shard, out) {
                return true;
            }
        }
        false
    }

    /// [`get_shard_recovering_into`](Self::get_shard_recovering_into) a
    /// buffer of the shard's own — the degraded paths' shape.
    fn get_shard_recovering(
        &self,
        server: usize,
        ino: u64,
        block: u64,
        shard: usize,
    ) -> Option<Vec<u8>> {
        let mut data = Vec::new();
        self.get_shard_recovering_into(server, ino, block, shard, &mut data)
            .then_some(data)
    }

    /// Queue a shard for background repair, shedding the oldest entry
    /// when the queue is full. (Takes the two fields it touches, so a
    /// caller may hold a placement borrowed from the backend.)
    fn queue_repair(pending: &mut VecDeque<Repair>, backend: &DfsBackend, repair: Repair) {
        if pending.len() >= REPAIR_CAP {
            pending.pop_front();
            backend
                .recovery()
                .repair_drops
                .fetch_add(1, Ordering::Relaxed);
        }
        pending.push_back(repair);
    }

    /// One repair pass: attempt up to [`REPAIR_DRAIN`] queued shard
    /// writes, re-queueing the ones their server still refuses.
    fn drain_repairs(&mut self) {
        for _ in 0..REPAIR_DRAIN.min(self.pending_repair.len()) {
            let Some((server, ino, block, shard, data)) = self.pending_repair.pop_front() else {
                break;
            };
            if self
                .backend
                .data_server(server)
                .put_shard(ino, block, shard, &data)
            {
                self.backend
                    .recovery()
                    .repairs
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                self.pending_repair
                    .push_back((server, ino, block, shard, data));
            }
        }
    }

    pub fn create(&mut self, parent: u64, name: &str) -> Result<(DfsAttr, OpTrace), DfsError> {
        // Metadata view: go straight to the home MDS — no forwarding hop.
        let home = self.backend.home_mds_of_name(parent, name);
        let attr = retry_mds(&self.backend, || {
            self.backend.mds_create(home, parent, name)
        })?;
        // Take the delegation immediately (create-and-write pattern).
        let ihome = self.backend.home_mds_of_ino(attr.ino);
        retry_mds(&self.backend, || {
            self.backend.mds_delegate(ihome, attr.ino, self.client_id)
        })?;
        self.attr_cache.insert(attr.ino, attr);
        Ok((
            attr,
            OpTrace {
                mds_rpcs: 2,
                bytes_out: name.len() as u64 + 16,
                ..Default::default()
            },
        ))
    }

    pub fn lookup(&mut self, parent: u64, name: &str) -> Result<(u64, OpTrace), DfsError> {
        let home = self.backend.home_mds_of_name(parent, name);
        let ino = retry_mds(&self.backend, || {
            self.backend.mds_lookup(home, parent, name)
        })?;
        Ok((
            ino,
            OpTrace {
                mds_rpcs: 1,
                bytes_out: name.len() as u64 + 16,
                bytes_in: 8,
                ..Default::default()
            },
        ))
    }

    /// List a directory, paging through the MDS cursor protocol (one
    /// client RPC per page; the entry MDS fans each page out to the other
    /// namespace partitions server-side). Entries come back in name
    /// order.
    pub fn readdir(&mut self, parent: u64) -> Result<(Vec<(String, u64)>, OpTrace), DfsError> {
        const PAGE: usize = 256;
        let home = self.backend.home_mds_of_name(parent, "");
        let mut entries = Vec::new();
        let mut cursor: Option<String> = None;
        let mut trace = OpTrace::default();
        loop {
            let (page, next) = retry_mds(&self.backend, || {
                self.backend
                    .mds_readdir(home, parent, cursor.as_deref(), PAGE)
            })?;
            trace.mds_rpcs += 1;
            trace.bytes_in += page
                .iter()
                .map(|(name, _)| name.len() as u64 + 8)
                .sum::<u64>();
            entries.extend(page);
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        Ok((entries, trace))
    }

    /// Lease check: if the MDS recalled our delegation of `ino`, drop the
    /// cached attributes, flush any pending lazy metadata for that inode,
    /// and acknowledge the recall. Returns true when a recall was served.
    pub fn check_lease(&mut self, ino: u64) -> Result<bool, DfsError> {
        if !self.backend.delegation_revoked(ino, self.client_id) {
            return Ok(false);
        }
        self.attr_cache.remove(&ino);
        if let Some(end) = self.pending_meta.remove(&ino) {
            let home = self.backend.home_mds_of_ino(ino);
            retry_mds(&self.backend, || {
                self.backend.mds_update_size(home, ino, end)
            })?;
        }
        self.backend.ack_recall(ino, self.client_id);
        Ok(true)
    }

    pub fn getattr(&mut self, ino: u64) -> Result<(DfsAttr, OpTrace), DfsError> {
        self.check_lease(ino)?;
        if let Some(attr) = self.attr_cache.get(&ino) {
            // Delegation held: answer locally, but reflect pending writes.
            let mut attr = *attr;
            if let Some(&end) = self.pending_meta.get(&ino) {
                attr.size = attr.size.max(end);
            }
            return Ok((
                attr,
                OpTrace {
                    meta_cache_hit: true,
                    ..Default::default()
                },
            ));
        }
        let home = self.backend.home_mds_of_ino(ino);
        let attr = retry_mds(&self.backend, || self.backend.mds_getattr(home, ino))?;
        // Acquire a delegation so subsequent getattrs are local.
        let mut trace = OpTrace {
            mds_rpcs: 1,
            bytes_in: 64,
            ..Default::default()
        };
        if retry_mds(&self.backend, || {
            self.backend.mds_delegate(home, ino, self.client_id)
        })
        .is_ok()
        {
            self.attr_cache.insert(ino, attr);
            trace.mds_rpcs += 1;
        }
        Ok((attr, trace))
    }

    pub fn write_block(&mut self, ino: u64, block: u64, data: &[u8]) -> Result<OpTrace, DfsError> {
        // A block that does not fit the stripe unit, or whose end offset
        // does not fit a u64, is the caller's error — never a panic here.
        let end = (block.checked_mul(DFS_BLOCK as u64))
            .and_then(|start| start.checked_add(data.len() as u64))
            .filter(|_| data.len() <= DFS_BLOCK)
            .ok_or(DfsError::InvalidArgument)?;
        // Client-side EC: the real Reed–Solomon encode runs here, into
        // stripe buffers that outlive the call.
        let mut shards = std::mem::take(&mut self.shard_bufs);
        let sent = self
            .backend
            .ec()
            .encode_buffer_into(data, &mut shards)
            .map_err(|_| DfsError::Unrecoverable)
            .map(|()| self.send_stripe(ino, block, &shards));
        self.shard_bufs = shards;
        let mut trace = sent?;
        trace.ec_bytes = data.len() as u64;
        // Lazy metadata: batch the size update.
        let e = self.pending_meta.entry(ino).or_insert(0);
        *e = (*e).max(end);
        if let Some(attr) = self.attr_cache.get_mut(&ino) {
            attr.size = attr.size.max(end);
        }
        self.batched += 1;
        if self.batched >= self.meta_batch {
            trace.add(self.sync_meta()?);
        }
        Ok(trace)
    }

    /// Direct I/O: one block's `k + m` shards straight to their data
    /// servers. A refused put is retried with backoff; a persistently
    /// refusing server gets the shard queued for background repair (the
    /// block stays readable through parity meanwhile).
    fn send_stripe(&mut self, ino: u64, block: u64, shards: &[Vec<u8>]) -> OpTrace {
        // Opportunistic repair pass before new work.
        let recovering = self.backend.faults_enabled();
        if recovering && !self.pending_repair.is_empty() {
            self.drain_repairs();
        }
        let backend = &self.backend;
        for (s, &server) in backend.placement(ino, block).iter().enumerate() {
            let ds = backend.data_server(server);
            // The shard travels as a slice the whole way down; the only
            // copy is the storage insert inside `put_shard` (or the
            // repair-queue entry when the server keeps refusing).
            let mut ok = ds.put_shard(ino, block, s, &shards[s]);
            if ok || !recovering {
                continue;
            }
            for attempt in 1..=DS_RETRIES {
                backend
                    .recovery()
                    .ds_retries
                    .fetch_add(1, Ordering::Relaxed);
                backoff(attempt);
                if ds.put_shard(ino, block, s, &shards[s]) {
                    ok = true;
                    break;
                }
            }
            if !ok {
                let repair = (server, ino, block, s, shards[s].clone());
                Self::queue_repair(&mut self.pending_repair, backend, repair);
            }
        }
        OpTrace {
            ds_rpcs: shards.len() as u32,
            bytes_out: shards.iter().map(|s| s.len() as u64).sum(),
            ..Default::default()
        }
    }

    pub fn read_block(&mut self, ino: u64, block: u64) -> Result<(Vec<u8>, OpTrace), DfsError> {
        let mut out = Vec::with_capacity(DFS_BLOCK);
        let trace = self.read_block_into(ino, block, &mut out)?;
        Ok((out, trace))
    }

    /// Read one block into `out` (cleared first): `k` data-server RPCs
    /// when healthy, all `k + m` plus a local reconstruct (and
    /// read-repair) when a data shard is lost. A healthy read copies each
    /// shard once — from its data server's store into `out` — and
    /// allocates nothing once `out` holds a block's capacity.
    pub fn read_block_into(
        &mut self,
        ino: u64,
        block: u64,
        out: &mut Vec<u8>,
    ) -> Result<OpTrace, DfsError> {
        out.clear();
        let backend = &self.backend;
        let placement = backend.placement(ino, block);
        let k = backend.cfg.ec_k;
        // Fetch the k data shards directly, each straight into `out`.
        let lost = placement[..k]
            .iter()
            .enumerate()
            .position(|(s, &server)| !self.get_shard_recovering_into(server, ino, block, s, out));
        let mut ds_rpcs = k as u32;
        if let Some(first_lost) = lost {
            // Degraded read: every shard in a buffer of its own (the shape
            // `reconstruct` takes), rebuilt locally from any k of the k+m.
            // Those already in `out` are equal-length pieces of it — one
            // stripe is always written at one shard length.
            let fetch = |s: usize| self.get_shard_recovering(placement[s], ino, block, s);
            let shard_len = out.len().checked_div(first_lost).unwrap_or(0);
            let mut shards: Vec<Option<Vec<u8>>> = (0..first_lost)
                .map(|s| Some(out[s * shard_len..(s + 1) * shard_len].to_vec()))
                .collect();
            shards.push(None);
            shards.extend((first_lost + 1..k).map(fetch));
            if shards.iter().all(|s| s.is_none()) {
                return Err(DfsError::NotFound);
            }
            shards.extend((k..placement.len()).map(fetch));
            ds_rpcs = placement.len() as u32;
            let missing: Vec<usize> = (0..shards.len()).filter(|&s| shards[s].is_none()).collect();
            backend
                .ec()
                .reconstruct(&mut shards)
                .map_err(|_| DfsError::Unrecoverable)?;
            backend
                .recovery()
                .reconstructions
                .fetch_add(1, Ordering::Relaxed);
            // Read repair: push the rebuilt shards back to their homes so
            // the stripe heals (only counted when the put sticks; the
            // server may still be down).
            if backend.faults_enabled() {
                for s in missing {
                    if let Some(data) = shards[s].as_ref() {
                        if backend
                            .data_server(placement[s])
                            .put_shard(ino, block, s, data)
                        {
                            backend.recovery().repairs.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            out.clear();
            for shard in shards.into_iter().take(k) {
                out.extend_from_slice(&shard.ok_or(DfsError::Unrecoverable)?);
            }
        }
        out.truncate(DFS_BLOCK);
        Ok(OpTrace {
            ds_rpcs,
            bytes_in: out.len() as u64,
            ..Default::default()
        })
    }

    pub fn sync_meta(&mut self) -> Result<OpTrace, DfsError> {
        if self.backend.faults_enabled() && !self.pending_repair.is_empty() {
            self.drain_repairs();
        }
        let mut trace = OpTrace::default();
        // `drain`, not `take`: the map keeps its capacity, so the write
        // after a metadata flush allocates no more than any other.
        let backend = &self.backend;
        for (ino, end) in self.pending_meta.drain() {
            let home = backend.home_mds_of_ino(ino);
            retry_mds(backend, || backend.mds_update_size(home, ino, end))?;
            trace.mds_rpcs += 1;
        }
        self.batched = 0;
        Ok(trace)
    }
}

/// The host-side optimized client.
pub struct OptimizedClient(pub ClientCore);

impl OptimizedClient {
    pub fn new(backend: Arc<DfsBackend>, client_id: u64) -> OptimizedClient {
        OptimizedClient(ClientCore::new(backend, client_id))
    }
}

impl FsClient for OptimizedClient {
    fn client_name(&self) -> &'static str {
        "optimized-host"
    }
    fn create(&mut self, parent: u64, name: &str) -> Result<(DfsAttr, OpTrace), DfsError> {
        self.0.create(parent, name)
    }
    fn lookup(&mut self, parent: u64, name: &str) -> Result<(u64, OpTrace), DfsError> {
        self.0.lookup(parent, name)
    }
    fn getattr(&mut self, ino: u64) -> Result<(DfsAttr, OpTrace), DfsError> {
        self.0.getattr(ino)
    }
    fn write_block(&mut self, ino: u64, block: u64, data: &[u8]) -> Result<OpTrace, DfsError> {
        self.0.write_block(ino, block, data)
    }
    fn read_block(&mut self, ino: u64, block: u64) -> Result<(Vec<u8>, OpTrace), DfsError> {
        self.0.read_block(ino, block)
    }
    fn sync_meta(&mut self) -> Result<OpTrace, DfsError> {
        self.0.sync_meta()
    }
}

/// The DPC client: the optimized client's logic running on the DPU.
///
/// Functionally identical to [`OptimizedClient`]; the benchmarks charge
/// its CPU work to the DPU's cores and route requests through nvme-fs,
/// which is the whole point of the paper (§4.3: optimized-client
/// performance at standard-client host CPU cost).
pub struct DpcClient(pub ClientCore);

impl DpcClient {
    pub fn new(backend: Arc<DfsBackend>, client_id: u64) -> DpcClient {
        DpcClient(ClientCore::new(backend, client_id))
    }
}

impl FsClient for DpcClient {
    fn client_name(&self) -> &'static str {
        "dpc"
    }
    fn create(&mut self, parent: u64, name: &str) -> Result<(DfsAttr, OpTrace), DfsError> {
        self.0.create(parent, name)
    }
    fn lookup(&mut self, parent: u64, name: &str) -> Result<(u64, OpTrace), DfsError> {
        self.0.lookup(parent, name)
    }
    fn getattr(&mut self, ino: u64) -> Result<(DfsAttr, OpTrace), DfsError> {
        self.0.getattr(ino)
    }
    fn write_block(&mut self, ino: u64, block: u64, data: &[u8]) -> Result<OpTrace, DfsError> {
        self.0.write_block(ino, block, data)
    }
    fn read_block(&mut self, ino: u64, block: u64) -> Result<(Vec<u8>, OpTrace), DfsError> {
        self.0.read_block(ino, block)
    }
    fn sync_meta(&mut self) -> Result<OpTrace, DfsError> {
        self.0.sync_meta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DfsConfig;

    fn backend() -> Arc<DfsBackend> {
        DfsBackend::new(DfsConfig::default())
    }

    #[test]
    fn all_clients_round_trip_data() {
        let b = backend();
        let block: Vec<u8> = (0..DFS_BLOCK).map(|i| (i % 241) as u8).collect();
        let mut clients: Vec<Box<dyn FsClient>> = vec![
            Box::new(StandardClient::new(b.clone(), 0)),
            Box::new(OptimizedClient::new(b.clone(), 1)),
            Box::new(DpcClient::new(b.clone(), 2)),
        ];
        for (i, c) in clients.iter_mut().enumerate() {
            let (attr, _) = c.create(0, &format!("f{i}")).unwrap();
            c.write_block(attr.ino, 0, &block).unwrap();
            let (back, _) = c.read_block(attr.ino, 0).unwrap();
            assert_eq!(back, block, "client {}", c.client_name());
            // Cross-client visibility: the standard client can read what
            // the optimized client wrote.
        }
        let mut std_client = StandardClient::new(b.clone(), 0);
        let (ino, _) = std_client.lookup(0, "f1").unwrap();
        let (back, _) = std_client.read_block(ino, 0).unwrap();
        assert_eq!(back, block);
    }

    #[test]
    fn standard_client_generates_forwards_optimized_does_not() {
        let b = backend();
        let mut std_c = StandardClient::new(b.clone(), 0);
        for i in 0..40 {
            std_c.create(0, &format!("std{i}")).unwrap();
        }
        let fwd_std = b.total_forwards();
        assert!(fwd_std > 0, "entry-MDS routing must forward sometimes");

        let mut opt = OptimizedClient::new(b.clone(), 1);
        for i in 0..40 {
            opt.create(0, &format!("opt{i}")).unwrap();
        }
        assert_eq!(b.total_forwards(), fwd_std, "metadata view avoids forwards");
    }

    #[test]
    fn optimized_write_is_direct_io_with_client_ec() {
        let b = backend();
        let mut opt = OptimizedClient::new(b.clone(), 1);
        let (attr, _) = opt.create(0, "f").unwrap();
        let t = opt.write_block(attr.ino, 0, &vec![1u8; DFS_BLOCK]).unwrap();
        assert_eq!(t.ds_rpcs, 6, "k+m shards written directly");
        assert_eq!(t.ec_bytes, DFS_BLOCK as u64, "EC computed on client");
        assert_eq!(t.mds_rpcs, 0, "metadata batched lazily");
    }

    #[test]
    fn standard_write_proxies_via_mds() {
        let b = backend();
        let mut std_c = StandardClient::new(b.clone(), 0);
        let (attr, _) = std_c.create(0, "f").unwrap();
        let t = std_c
            .write_block(attr.ino, 0, &vec![1u8; DFS_BLOCK])
            .unwrap();
        assert_eq!(t.mds_rpcs, 1);
        assert_eq!(t.ds_rpcs, 0, "client never touches data servers");
        assert_eq!(t.ec_bytes, 0, "EC is server-side");
    }

    #[test]
    fn delegation_makes_getattr_local() {
        let b = backend();
        let mut opt = OptimizedClient::new(b.clone(), 1);
        let (attr, _) = opt.create(0, "f").unwrap();
        let (_, t1) = opt.getattr(attr.ino).unwrap();
        assert!(t1.meta_cache_hit, "create already took the delegation");
        assert_eq!(t1.mds_rpcs, 0);
        // The standard client always pays an RPC.
        let mut std_c = StandardClient::new(b.clone(), 0);
        let (_, t2) = std_c.getattr(attr.ino).unwrap();
        assert!(!t2.meta_cache_hit);
        assert_eq!(t2.mds_rpcs, 1);
    }

    #[test]
    fn lazy_metadata_flush_updates_size() {
        let b = backend();
        let mut opt = OptimizedClient::new(b.clone(), 1);
        opt.0.meta_batch = 4;
        let (attr, _) = opt.create(0, "f").unwrap();
        for blk in 0..3u64 {
            opt.write_block(attr.ino, blk, &vec![1u8; DFS_BLOCK])
                .unwrap();
        }
        // Not flushed yet: the MDS still sees size 0, but the client's own
        // cached view reflects the writes.
        let home = b.home_mds_of_ino(attr.ino);
        assert_eq!(b.mds_getattr(home, attr.ino).unwrap().size, 0);
        let (local, _) = opt.getattr(attr.ino).unwrap();
        assert_eq!(local.size, 3 * DFS_BLOCK as u64);
        // Fourth write triggers the batch flush.
        opt.write_block(attr.ino, 3, &vec![1u8; DFS_BLOCK]).unwrap();
        assert_eq!(
            b.mds_getattr(home, attr.ino).unwrap().size,
            4 * DFS_BLOCK as u64
        );
    }

    #[test]
    fn optimized_degraded_read_reconstructs_client_side() {
        let b = backend();
        let mut opt = OptimizedClient::new(b.clone(), 1);
        let (attr, _) = opt.create(0, "f").unwrap();
        let block: Vec<u8> = (0..DFS_BLOCK).map(|i| (i % 199) as u8).collect();
        opt.write_block(attr.ino, 0, &block).unwrap();
        // Fail the server holding data shard 0.
        let placement = b.placement(attr.ino, 0);
        b.data_server(placement[0]).set_failed(true);
        let (back, t) = opt.read_block(attr.ino, 0).unwrap();
        assert_eq!(back, block);
        assert_eq!(t.ds_rpcs, 6, "degraded read touched parity shards");
    }

    #[test]
    fn dpc_client_matches_optimized_structure() {
        // The DPC client is the optimized client offloaded: identical
        // OpTraces for identical operations.
        let b1 = backend();
        let b2 = backend();
        let mut opt = OptimizedClient::new(b1, 1);
        let mut dpc = DpcClient::new(b2, 1);
        let (a1, t1c) = opt.create(0, "f").unwrap();
        let (a2, t2c) = dpc.create(0, "f").unwrap();
        assert_eq!(t1c, t2c);
        let t1 = opt.write_block(a1.ino, 0, &vec![1u8; DFS_BLOCK]).unwrap();
        let t2 = dpc.write_block(a2.ino, 0, &vec![1u8; DFS_BLOCK]).unwrap();
        assert_eq!(t1, t2);
        let (_, r1) = opt.read_block(a1.ino, 0).unwrap();
        let (_, r2) = dpc.read_block(a2.ino, 0).unwrap();
        assert_eq!(r1, r2);
    }
}

#[cfg(test)]
mod recall_tests {
    use super::*;
    use crate::backend::{DfsConfig, DFS_BLOCK as BLK};

    #[test]
    fn recall_transfers_delegation_and_flushes_lazy_metadata() {
        let b = crate::backend::DfsBackend::new(DfsConfig::default());
        let mut a = OptimizedClient::new(b.clone(), 1);
        let mut c = OptimizedClient::new(b.clone(), 2);

        // A creates the file (taking the delegation) and batches writes.
        let (attr, _) = a.create(0, "shared").unwrap();
        a.0.meta_batch = 100; // keep the size update lazy
        for blk in 0..3u64 {
            a.write_block(attr.ino, blk, &vec![1u8; BLK]).unwrap();
        }
        let home = b.home_mds_of_ino(attr.ino);
        assert_eq!(b.mds_getattr(home, attr.ino).unwrap().size, 0, "lazy");

        // B getattrs: the MDS recalls A's delegation and grants B's.
        let (seen_by_b, _) = c.getattr(attr.ino).unwrap();
        assert_eq!(b.total_recalls(), 1);
        // B took the delegation before A flushed, so B may see the stale
        // size — that's the recall race the lease check closes:
        let _ = seen_by_b;

        // A's next op detects the recall, flushes pending size and drops
        // its cache.
        assert!(a.0.check_lease(attr.ino).unwrap());
        assert_eq!(
            b.mds_getattr(home, attr.ino).unwrap().size,
            3 * BLK as u64,
            "recall forced the lazy metadata out"
        );
        // B now holds the delegation: local hits.
        let (_, t) = c.getattr(attr.ino).unwrap();
        assert!(t.meta_cache_hit);
        // A no longer answers getattr locally — and its re-fetch recalls
        // the delegation right back (the ping-pong a real MDS rate-limits).
        let (_, t) = a.getattr(attr.ino).unwrap();
        assert!(!t.meta_cache_hit, "A lost the delegation");
        assert_eq!(b.total_recalls(), 2);
    }

    #[test]
    fn no_recall_without_contention() {
        let b = crate::backend::DfsBackend::new(DfsConfig::default());
        let mut a = OptimizedClient::new(b.clone(), 1);
        let (attr, _) = a.create(0, "solo").unwrap();
        for _ in 0..5 {
            a.getattr(attr.ino).unwrap();
        }
        assert_eq!(b.total_recalls(), 0);
        assert!(!a.0.check_lease(attr.ino).unwrap());
    }

    #[test]
    fn recall_ping_pong_stays_consistent() {
        let b = crate::backend::DfsBackend::new(DfsConfig::default());
        let mut a = OptimizedClient::new(b.clone(), 1);
        let mut c = OptimizedClient::new(b.clone(), 2);
        let (attr, _) = a.create(0, "pingpong").unwrap();
        for round in 1..=4u64 {
            // Alternate writers; each write-then-stat pair must observe
            // the other side's flushed size after the recall dance.
            let (w, r): (&mut OptimizedClient, &mut OptimizedClient) = if round % 2 == 1 {
                (&mut a, &mut c)
            } else {
                (&mut c, &mut a)
            };
            w.0.check_lease(attr.ino).unwrap();
            w.write_block(attr.ino, round - 1, &vec![round as u8; BLK])
                .unwrap();
            w.sync_meta().unwrap();
            r.0.check_lease(attr.ino).unwrap();
            let (seen, _) = r.getattr(attr.ino).unwrap();
            assert!(
                seen.size >= round * BLK as u64,
                "round {round}: {}",
                seen.size
            );
        }
    }
}

#[cfg(test)]
mod packing_tests {
    use super::*;
    use crate::backend::{DfsConfig, DFS_BLOCK as BLK};

    #[test]
    fn packed_small_writes_consolidate_at_the_mds() {
        let b = crate::backend::DfsBackend::new(DfsConfig::default());
        let mut c = StandardClient::new(b.clone(), 0);
        let (attr, _) = c.create(0, "packed").unwrap();

        // 16 x 512B writes, all landing in two 8K blocks.
        let ios: Vec<(u64, Vec<u8>)> = (0..16u64)
            .map(|i| (i * 1024, vec![i as u8 + 1; 512]))
            .collect();
        let ds_rpcs_before: u64 = (0..b.data_server_count())
            .map(|i| {
                b.data_server(i)
                    .rpcs
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum();
        let (consolidated, trace) = c.write_small_packed(attr.ino, &ios).unwrap();
        assert_eq!(consolidated, 2, "16 small I/Os became 2 block writes");
        assert_eq!(trace.mds_rpcs, 1, "one packed message from the client");
        let ds_rpcs_after: u64 = (0..b.data_server_count())
            .map(|i| {
                b.data_server(i)
                    .rpcs
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum();
        // 2 blocks x 6 shards written, plus the RMW gathers; without
        // packing, 16 separate writes would have cost 16 x (6 + gather).
        assert!(
            ds_rpcs_after - ds_rpcs_before <= 2 * 6 + 2 * 6,
            "consolidation bounds stripe traffic: {}",
            ds_rpcs_after - ds_rpcs_before
        );

        // Content round-trips.
        let (block0, _) = c.read_block(attr.ino, 0).unwrap();
        for i in 0..8u64 {
            let start = (i * 1024) as usize;
            assert!(block0[start..start + 512].iter().all(|&x| x == i as u8 + 1));
        }
        // Size advanced to the max end.
        assert_eq!(b.mds_getattr(0, attr.ino).unwrap().size, 15 * 1024 + 512);
    }

    #[test]
    fn packed_writes_respect_existing_data() {
        let b = crate::backend::DfsBackend::new(DfsConfig::default());
        let mut c = StandardClient::new(b.clone(), 0);
        let (attr, _) = c.create(0, "rmw").unwrap();
        c.write_block(attr.ino, 0, &vec![0xEE; BLK]).unwrap();
        // A small packed write must not clobber the rest of the block.
        c.write_small_packed(attr.ino, &[(100, vec![0x11; 8])])
            .unwrap();
        let (back, _) = c.read_block(attr.ino, 0).unwrap();
        assert_eq!(back[99], 0xEE);
        assert_eq!(back[100..108], [0x11; 8]);
        assert_eq!(back[108], 0xEE);
    }

    #[test]
    #[should_panic(expected = "may not span blocks")]
    fn spanning_small_io_rejected() {
        let b = crate::backend::DfsBackend::new(DfsConfig::default());
        let mut c = StandardClient::new(b.clone(), 0);
        let (attr, _) = c.create(0, "bad").unwrap();
        let _ = c.write_small_packed(attr.ino, &[(BLK as u64 - 4, vec![0; 16])]);
    }
}

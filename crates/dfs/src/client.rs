//! The DFS client, [`ClientCore`]: the paper's optimized fs-client
//! (Fig 1, Fig 9). A metadata view routes requests straight to home
//! MDSes, EC is computed on the client, direct I/O sends blocks and
//! parity deltas straight to data servers, metadata updates batch
//! lazily, and delegations let attributes be cached locally. On the
//! host it is the "datacenter tax" in host CPU; a `Dpc` runs one on the
//! DPU, where the same logic costs the host nothing. The standard
//! NFS-like client the figures compare against is priced from a model
//! in `dpc-bench`; no functional client runs it.
//!
//! Every operation returns an [`OpTrace`] describing exactly what crossed
//! the network and what was computed locally, so the benchmarks can
//! convert structure into time without re-guessing the protocol.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::backend::{backoff, block_end, DfsAttr, DfsBackend, DfsError, StripeIo, DFS_BLOCK};

/// Bounded reissues of an MDS RPC that failed with a transient fault.
const MDS_RETRIES: u32 = 8;

/// Batched writes after which [`ClientCore`] flushes its lazy size
/// updates.
const META_BATCH: usize = 16;

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
    /// Bytes erasure-coded on the client.
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

/// The optimized fs-client logic: metadata view, client-side EC + direct
/// I/O, delegation-backed attribute caching, lazy metadata batching.
pub struct ClientCore {
    backend: Arc<DfsBackend>,
    client_id: u64,
    /// Cached attributes for delegated inodes.
    attr_cache: HashMap<u64, DfsAttr>,
    /// Pending lazy size updates: ino → max end offset.
    pending_meta: HashMap<u64, u64>,
    /// Writes since the last metadata flush.
    batched: usize,
    /// The stripe path's recycled buffers and the repairs this client
    /// owes (restores of blocks whose server refused a write, rebuilds of
    /// parity cells that missed a delta). Drained opportunistically on
    /// later writes and metadata syncs.
    io: StripeIo,
}

impl ClientCore {
    pub fn new(backend: Arc<DfsBackend>, client_id: u64) -> ClientCore {
        ClientCore {
            backend,
            client_id,
            attr_cache: HashMap::new(),
            pending_meta: HashMap::new(),
            batched: 0,
            io: StripeIo::default(),
        }
    }

    pub fn backend(&self) -> &Arc<DfsBackend> {
        &self.backend
    }

    /// Repairs still queued (shed or completed ones are not).
    pub fn pending_repairs(&self) -> usize {
        self.io.pending()
    }

    pub fn create(&mut self, parent: u64, name: &str) -> Result<(DfsAttr, OpTrace), DfsError> {
        // Metadata view: straight to the home MDS — no forwarding hop.
        let attr = retry_mds(&self.backend, || self.backend.mds_create(parent, name))?;
        // Take the delegation immediately (create-and-write pattern).
        retry_mds(&self.backend, || {
            self.backend.mds_delegate(attr.ino, self.client_id)
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
        let ino = retry_mds(&self.backend, || self.backend.mds_lookup(parent, name))?;
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

    /// Lease check: if the MDS recalled our delegation of `ino`, drop the
    /// cached attributes, flush any pending lazy metadata for that inode,
    /// and acknowledge the recall. Returns true when a recall was served.
    pub fn check_lease(&mut self, ino: u64) -> Result<bool, DfsError> {
        if !self.backend.delegation_revoked(ino, self.client_id) {
            return Ok(false);
        }
        self.attr_cache.remove(&ino);
        if let Some(end) = self.pending_meta.remove(&ino) {
            retry_mds(&self.backend, || self.backend.mds_update_size(ino, end))?;
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
        let attr = retry_mds(&self.backend, || self.backend.mds_getattr(ino))?;
        // Acquire a delegation so subsequent getattrs are local.
        let mut trace = OpTrace {
            mds_rpcs: 1,
            bytes_in: 64,
            ..Default::default()
        };
        if retry_mds(&self.backend, || {
            self.backend.mds_delegate(ino, self.client_id)
        })
        .is_ok()
        {
            self.attr_cache.insert(ino, attr);
            trace.mds_rpcs += 1;
        }
        Ok((attr, trace))
    }

    /// Client-side EC + direct I/O: one swap RPC to the block's data
    /// server and one delta RPC per parity cell
    /// (`DfsBackend::stripe_write`); the size update is batched lazily.
    pub fn write_block(&mut self, ino: u64, block: u64, data: &[u8]) -> Result<OpTrace, DfsError> {
        // A block that does not fit the stripe unit, or whose end offset
        // does not fit a u64, is the caller's error — never a panic here.
        let end = block_end(block, data.len()).ok_or(DfsError::InvalidArgument)?;
        let mut trace = self.backend.stripe_write(ino, block, data, &mut self.io)?;
        trace.ec_bytes = data.len() as u64;
        // Lazy metadata: batch the size update.
        let e = self.pending_meta.entry(ino).or_insert(0);
        *e = (*e).max(end);
        if let Some(attr) = self.attr_cache.get_mut(&ino) {
            attr.size = attr.size.max(end);
        }
        self.batched += 1;
        if self.batched >= META_BATCH {
            trace.add(self.sync_meta()?);
        }
        Ok(trace)
    }

    /// One block in a buffer of its own: [`read_block_to`](Self::read_block_to)
    /// into a whole block, cut to the block's length: the form the
    /// benchmark's probe prices. The dispatcher reads through
    /// `read_block_to` itself.
    pub fn read_block(&mut self, ino: u64, block: u64) -> Result<(Vec<u8>, OpTrace), DfsError> {
        let mut out = vec![0; DFS_BLOCK];
        let (n, trace) = self.read_block_to(ino, block, &mut out)?;
        out.truncate(n);
        Ok((out, trace))
    }

    /// Read one block into the front of `dst` and return how many bytes
    /// that is — the block's length, or `dst`'s if shorter: one
    /// data-server RPC when healthy, copied once from the server's store
    /// into `dst` (`DfsBackend::stripe_read`); a block this client owes a
    /// restore is served from the queued bytes, a degraded one is
    /// reconstructed and copied in.
    pub fn read_block_to(
        &mut self,
        ino: u64,
        block: u64,
        dst: &mut [u8],
    ) -> Result<(usize, OpTrace), DfsError> {
        self.backend.stripe_read(ino, block, dst, &mut self.io)
    }

    pub fn sync_meta(&mut self) -> Result<OpTrace, DfsError> {
        if self.backend.faults_enabled() && self.io.pending() > 0 {
            self.backend.drain_repairs(&mut self.io);
        }
        let mut trace = OpTrace::default();
        // `drain`, not `take`: the map keeps its capacity, so the write
        // after a metadata flush allocates no more than any other.
        let backend = &self.backend;
        for (ino, end) in self.pending_meta.drain() {
            retry_mds(backend, || backend.mds_update_size(ino, end))?;
            trace.mds_rpcs += 1;
        }
        self.batched = 0;
        Ok(trace)
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
        let mut clients = [ClientCore::new(b.clone(), 0), ClientCore::new(b.clone(), 1)];
        for (i, c) in clients.iter_mut().enumerate() {
            let (attr, _) = c.create(0, &format!("f{i}")).unwrap();
            c.write_block(attr.ino, 0, &block).unwrap();
            let (back, _) = c.read_block(attr.ino, 0).unwrap();
            assert_eq!(back, block, "client {i}");
        }
        // Cross-client visibility: one client reads what the other wrote.
        let (ino, _) = clients[0].lookup(0, "f1").unwrap();
        let (back, _) = clients[0].read_block(ino, 0).unwrap();
        assert_eq!(back, block);
    }

    #[test]
    fn optimized_write_is_direct_io_with_client_ec() {
        let b = backend();
        let mut opt = ClientCore::new(b.clone(), 1);
        let (attr, _) = opt.create(0, "f").unwrap();
        let t = opt.write_block(attr.ino, 0, &vec![1u8; DFS_BLOCK]).unwrap();
        assert_eq!(
            t.ds_rpcs, 3,
            "1 swap + m deltas, straight to the data servers"
        );
        assert_eq!(t.ec_bytes, DFS_BLOCK as u64, "EC computed on client");
        assert_eq!(t.mds_rpcs, 0, "metadata batched lazily");
    }

    #[test]
    fn delegation_makes_getattr_local() {
        let b = backend();
        let mut opt = ClientCore::new(b.clone(), 1);
        let (attr, _) = opt.create(0, "f").unwrap();
        let (_, t1) = opt.getattr(attr.ino).unwrap();
        assert!(t1.meta_cache_hit, "create already took the delegation");
        assert_eq!(t1.mds_rpcs, 0);
    }

    #[test]
    fn lazy_metadata_flush_updates_size() {
        let b = backend();
        let mut opt = ClientCore::new(b.clone(), 1);
        let (attr, _) = opt.create(0, "f").unwrap();
        let last = META_BATCH as u64 - 1;
        for blk in 0..last {
            opt.write_block(attr.ino, blk, &vec![1u8; DFS_BLOCK])
                .unwrap();
        }
        // Not flushed yet: the MDS still sees size 0, but the client's own
        // cached view reflects the writes.
        assert_eq!(b.mds_getattr(attr.ino).unwrap().size, 0);
        let (local, _) = opt.getattr(attr.ino).unwrap();
        assert_eq!(local.size, last * DFS_BLOCK as u64);
        // The sixteenth write triggers the batch flush.
        opt.write_block(attr.ino, last, &vec![1u8; DFS_BLOCK])
            .unwrap();
        assert_eq!(
            b.mds_getattr(attr.ino).unwrap().size,
            META_BATCH as u64 * DFS_BLOCK as u64
        );
    }

    #[test]
    fn optimized_degraded_read_reconstructs_client_side() {
        let b = backend();
        let mut opt = ClientCore::new(b.clone(), 1);
        let (attr, _) = opt.create(0, "f").unwrap();
        let block: Vec<u8> = (0..DFS_BLOCK).map(|i| (i % 199) as u8).collect();
        opt.write_block(attr.ino, 0, &block).unwrap();
        // Fail the server holding block 0.
        let placement = b.placement(attr.ino, 0);
        b.data_server(placement[0]).set_failed(true);
        let (back, t) = opt.read_block(attr.ino, 0).unwrap();
        assert_eq!(back, block);
        assert_eq!(
            t.ds_rpcs, 5,
            "the refused get + k survivors, parity among them"
        );
    }
}

#[cfg(test)]
mod recall_tests {
    use super::*;
    use crate::backend::{DfsConfig, DFS_BLOCK as BLK};

    #[test]
    fn recall_transfers_delegation_and_flushes_lazy_metadata() {
        let b = crate::backend::DfsBackend::new(DfsConfig::default());
        let mut a = ClientCore::new(b.clone(), 1);
        let mut c = ClientCore::new(b.clone(), 2);

        // A creates the file (taking the delegation) and batches writes.
        let (attr, _) = a.create(0, "shared").unwrap();
        // Fewer writes than a batch: the size update stays lazy.
        for blk in 0..3u64 {
            a.write_block(attr.ino, blk, &vec![1u8; BLK]).unwrap();
        }
        assert_eq!(b.mds_getattr(attr.ino).unwrap().size, 0, "lazy");

        // B getattrs: the MDS recalls A's delegation and grants B's.
        let (seen_by_b, _) = c.getattr(attr.ino).unwrap();
        assert_eq!(b.total_recalls(), 1);
        // B took the delegation before A flushed, so B may see the stale
        // size — that's the recall race the lease check closes:
        let _ = seen_by_b;

        // A's next op detects the recall, flushes pending size and drops
        // its cache.
        assert!(a.check_lease(attr.ino).unwrap());
        assert_eq!(
            b.mds_getattr(attr.ino).unwrap().size,
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
        let mut a = ClientCore::new(b.clone(), 1);
        let (attr, _) = a.create(0, "solo").unwrap();
        for _ in 0..5 {
            a.getattr(attr.ino).unwrap();
        }
        assert_eq!(b.total_recalls(), 0);
        assert!(!a.check_lease(attr.ino).unwrap());
    }

    #[test]
    fn recall_ping_pong_stays_consistent() {
        let b = crate::backend::DfsBackend::new(DfsConfig::default());
        let mut a = ClientCore::new(b.clone(), 1);
        let mut c = ClientCore::new(b.clone(), 2);
        let (attr, _) = a.create(0, "pingpong").unwrap();
        for round in 1..=4u64 {
            // Alternate writers; each write-then-stat pair must observe
            // the other side's flushed size after the recall dance.
            let (w, r): (&mut ClientCore, &mut ClientCore) = if round % 2 == 1 {
                (&mut a, &mut c)
            } else {
                (&mut c, &mut a)
            };
            w.check_lease(attr.ino).unwrap();
            w.write_block(attr.ino, round - 1, &vec![round as u8; BLK])
                .unwrap();
            w.sync_meta().unwrap();
            r.check_lease(attr.ino).unwrap();
            let (seen, _) = r.getattr(attr.ino).unwrap();
            assert!(
                seen.size >= round * BLK as u64,
                "round {round}: {}",
                seen.size
            );
        }
    }
}

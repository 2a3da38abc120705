//! The DPU's IO-dispatch module (Figure 3).
//!
//! nvme-fs delivers each command with a dispatch bit (Dword0 bit 10):
//! standalone file requests go to KVFS, distributed file requests go to
//! the offloaded DFS client — one per `Dpc`, shared by every service
//! thread. The dispatcher also owns this service thread's slice of the
//! hybrid-cache control plane, so flush/evict requests are served here;
//! demand reads only *feed* the shared readahead table — planned windows
//! go to the prefetch queue and the background prefetcher thread fills
//! them, never the request path.

use std::sync::Arc;

use dpc_cache::{
    ControlPlane, FlushBackend, HybridCache, PrefetchJob, PrefetchQueue, RaWindow, ReadBackend,
    ReadaheadTable,
};
use dpc_dfs::{ClientCore, DfsError, DFS_BLOCK};
use dpc_fault::FaultSite;
use dpc_kvfs::{validate_name, FileAttr, FsError, Kvfs, WalkStep};
use dpc_nvmefs::{
    encode_dirent, DispatchType, FileIncoming, FileIncomingBatch, FileRequest, FileResponse,
    FileTarget, WireAttr, WireStep,
};
use parking_lot::Mutex;

/// Flush passes a scoped `Fsync` runs while its inode's pages are being
/// refused, before it answers EIO: with the control plane's in-pass
/// retries, sixteen attempts at each refused batch.
const FSYNC_PASSES: u32 = 4;

/// A scoped `Fsync` whose inode still has a page a host writer held
/// through the pass: the host re-sends it (the writer may be waiting on
/// this very service thread, so it is never waited for here).
const EAGAIN: i32 = 11;
const EINVAL: i32 = 22;
const EOPNOTSUPP: i32 = 95;

/// Map a KVFS attribute to the wire form.
fn wire_attr(a: &dpc_kvfs::FileAttr) -> WireAttr {
    WireAttr {
        ino: a.ino,
        size: a.size,
        mode: a.mode,
        nlink: a.nlink,
        uid: a.uid,
        gid: a.gid,
        atime_ns: a.atime,
        mtime_ns: a.mtime,
        ctime_ns: a.ctime,
        kind: a.kind.to_byte(),
    }
}

/// A [`Kvfs::walk`] trail that records each step in wire form.
fn wire_trail(trail: &mut Vec<u8>) -> impl FnMut(WalkStep) + '_ {
    |step| {
        match step {
            WalkStep::Entry(ino) => WireStep::Entry(ino),
            WalkStep::Followed(ino) => WireStep::Followed(ino),
            WalkStep::Absent => WireStep::Absent,
        }
        .encode(trail)
    }
}

/// Stream `dir`'s listing into `out`, each entry encoded straight from
/// the store's bytes. `cap` is the host's read buffer.
fn list_dir(kvfs: &Kvfs, dir: u64, cap: u32, out: &mut Vec<u8>) -> FileResponse {
    let mut entries = 0u32;
    let listed = kvfs.readdir_with(dir, |ino, kind, name| {
        encode_dirent(ino, kind.to_byte(), name, out);
        entries += 1;
    });
    match listed {
        Ok(()) if out.len() > cap as usize => {
            // The host's buffer cannot hold the listing.
            out.clear();
            FileResponse::Err(34 /* ERANGE */)
        }
        Ok(()) => FileResponse::Entries(entries),
        Err(e) => fs_err(e),
    }
}

fn fs_err(e: FsError) -> FileResponse {
    FileResponse::Err(e.errno())
}

/// The reply to a KVFS call: its response, or its errno.
fn reply(result: Result<FileResponse, FsError>) -> FileResponse {
    result.unwrap_or_else(fs_err)
}

fn dfs_err(e: DfsError) -> FileResponse {
    FileResponse::Err(match e {
        DfsError::NotFound => 2,
        DfsError::AlreadyExists => 17,
        DfsError::Unrecoverable => 5, // EIO
        DfsError::Delegated => 11,    // EAGAIN
        // A transient server fault that survived the client's retry
        // budget: the host may simply try again.
        DfsError::Transient => 11, // EAGAIN
        DfsError::InvalidArgument => 22,
    })
}

/// The flush sink: dirty hybrid-cache pages persist into KVFS, a batch per
/// request — its blocks and its inode's attribute in one
/// ([`Kvfs::write_blocks`], DESIGN.md §9.4). Reports failure (instead of
/// panicking or silently dropping) so the control plane can retry and
/// leave the pages dirty — a fault-site hit models a transiently
/// unreachable store. Every flush site builds one: the scoped `Fsync`,
/// `CacheEvictBatch`, and the drain that teardown and recovery run.
pub(crate) struct KvfsFlush<'a> {
    pub kvfs: &'a Kvfs,
    pub fault: Option<&'a Arc<FaultSite>>,
}

impl FlushBackend for KvfsFlush<'_> {
    fn try_flush_batch(&mut self, ino: u64, runs: &[(u64, usize)], data: &[u8]) -> bool {
        // One fault-site draw per *batch* attempt, mirroring the real
        // failure unit: a refused request fails whole.
        if self.fault.is_some_and(|site| site.fires()) {
            return false;
        }
        let page = dpc_cache::PAGE_SIZE as u64;
        let runs = runs.iter().scan(0, |at, &(lpn, len)| {
            let run = (lpn * page, &data[*at..*at + len]);
            *at += len;
            Some(run)
        });
        match self.kvfs.write_blocks(ino, runs) {
            // The file vanished (unlinked with dirty pages still cached):
            // the pages are garbage, dropping them is the correct outcome.
            Ok(_) | Err(FsError::NotFound) => true,
            Err(_) => false,
        }
    }
}

/// The prefetcher's page source: background window fills read from KVFS.
/// A sequential window is one contiguous [`Kvfs::read`] — one attribute
/// fetch, then one multi-key KV sub-read for all the window's 8 KiB blocks,
/// each landing straight in its place in the window: a window is one
/// backend request.
pub(crate) struct KvfsRead<'a> {
    pub kvfs: &'a Arc<Kvfs>,
}

impl ReadBackend for KvfsRead<'_> {
    fn read_page(&mut self, ino: u64, lpn: u64, out: &mut [u8]) -> Option<usize> {
        match self.kvfs.read(ino, lpn * dpc_cache::PAGE_SIZE as u64, out) {
            Ok(n) if n > 0 => {
                out[n..].fill(0);
                Some(n)
            }
            _ => None,
        }
    }

    fn read_pages(&mut self, ino: u64, start: u64, out: &mut [u8]) -> usize {
        let page = dpc_cache::PAGE_SIZE;
        let n = self.kvfs.read(ino, start * page as u64, out).unwrap_or(0);
        // `read` wrote `out[..n]` and nothing else: pad out the tail page.
        let pad_end = n.next_multiple_of(page).min(out.len());
        out[n..pad_end].fill(0);
        n
    }
}

/// The prefetcher's free-page floor: an eighth of the cache. A window is
/// neither queued nor filled past it — a fill shrinks to the headroom
/// above it, and never evicts — so a reader cannot push out a writer's
/// working set (DESIGN.md §8.3).
pub(crate) fn ra_floor(cache: &HybridCache) -> u64 {
    cache.config().pages as u64 / 8
}

/// One service thread's dispatcher.
pub struct Dispatcher {
    kvfs: Arc<Kvfs>,
    control: ControlPlane,
    /// The offloaded DFS client (None when DPC runs standalone-only). A
    /// `Dpc` hands every service thread the same one: the MDS sees one
    /// client per DPU, with one set of delegations, lazy sizes and owed
    /// repairs. Held for the whole of each DFS request.
    pub(crate) dfs: Option<Arc<Mutex<ClientCore>>>,
    /// Readahead hooks shared across service threads: the per-ino
    /// adaptive-window table plus the queue feeding the background
    /// prefetcher. Every `Dpc` attaches them; a dispatcher built alone
    /// has none, and its demand reads are plain KVFS reads.
    ra: Option<(Arc<ReadaheadTable>, Arc<PrefetchQueue>)>,
    /// Coalesce adjacent dirty pages into extent writes on the `Fsync`
    /// flush path; off caps every extent at one page.
    pub coalesce: bool,
    /// Fault site fired on every flush-to-KVFS attempt ("cache.flush").
    pub(crate) flush_fault: Option<Arc<FaultSite>>,
    /// Recycled payload buffer for [`Dispatcher::handle_batch`]'s replies
    /// other than a `Read`'s: listings, walk trails, link targets.
    payload_scratch: Vec<u8>,
    /// Recycled buffer for the walk trail of the request being served.
    trail_scratch: Vec<u8>,
}

impl Dispatcher {
    pub fn new(kvfs: Arc<Kvfs>, control: ControlPlane, dfs: Option<ClientCore>) -> Dispatcher {
        Dispatcher {
            kvfs,
            control,
            dfs: dfs.map(|client| Arc::new(Mutex::new(client))),
            ra: None,
            coalesce: true,
            flush_fault: None,
            payload_scratch: Vec::new(),
            trail_scratch: Vec::new(),
        }
    }

    /// Attach the shared readahead state (enables adaptive prefetch).
    pub fn set_readahead(&mut self, table: Arc<ReadaheadTable>, queue: Arc<PrefetchQueue>) {
        self.ra = Some((table, queue));
    }

    /// Feed one demand read into the readahead state machine. The DPU
    /// only ever sees *misses* (hits are absorbed by the host data
    /// plane), so a planned window is queued for the background
    /// prefetcher rather than filled here — the request path never does
    /// window I/O.
    fn note_read(&self, ino: u64, offset: u64, len: u32) {
        let Some((table, _)) = &self.ra else {
            return;
        };
        let page = dpc_cache::PAGE_SIZE as u64;
        let lpn = offset / page;
        let span = ((offset % page + len as u64).div_ceil(page)).max(1) as u32;
        if let Some(window) = table.on_read(ino, lpn, span) {
            self.queue_window(ino, window);
        }
    }

    /// Hand a planned window to the background prefetcher — unless the
    /// cache is at its free-page floor ([`ra_floor`]), where the
    /// prefetcher would only wake up to drop it (counted as throttled
    /// here instead). A full queue drops the job (readahead is
    /// best-effort).
    fn queue_window(&self, ino: u64, window: RaWindow) {
        let Some((_, queue)) = &self.ra else {
            return;
        };
        let floor = ra_floor(self.control.cache());
        if self.control.window_headroom(floor).is_none() {
            return;
        }
        if !queue.push(PrefetchJob { ino, window }) {
            self.control.cache().note_ra_dropped();
        }
    }

    /// Serve one request; returns the response header and read payload.
    pub fn handle(&mut self, inc: &FileIncoming) -> (FileResponse, Vec<u8>) {
        let mut payload = Vec::new();
        let resp = self.handle_into(inc, &mut payload);
        (resp, payload)
    }

    /// Serve one request, leaving in `payload_out` exactly the read payload
    /// (if any), whatever the buffer held before — it is the caller's
    /// scratch, reused across requests, so a warm serve loop does no heap
    /// allocation. A `Read` is served into it in place: it is sized to the
    /// read, only ever growing (zero-filling the growth, nothing else),
    /// then cut to the bytes read. One longer than its `read_len` is
    /// EINVAL, refused before the buffer is sized.
    pub fn handle_into(&mut self, inc: &FileIncoming, payload_out: &mut Vec<u8>) -> FileResponse {
        if let FileRequest::Read { ino, offset, len } = inc.request {
            let len = len as usize;
            if len > inc.read_len as usize {
                payload_out.clear();
                return FileResponse::Err(EINVAL);
            }
            if payload_out.len() < len {
                payload_out.resize(len, 0);
            }
            let dst = &mut payload_out[..len];
            let (resp, n) = self.serve_read(inc.dispatch, ino, offset, dst);
            payload_out.truncate(n);
            self.noted(inc, &resp);
            return resp;
        }
        match inc.dispatch {
            DispatchType::Standalone => self.handle_kvfs(inc, payload_out),
            DispatchType::Distributed => self.handle_dfs(inc, payload_out),
        }
    }

    /// Serve every request in `batch` and reply on `target`. A `Read` is
    /// served straight into the read half of its command's transport
    /// buffer, its bytes written once on the DPU; one longer than that
    /// half is refused before the backend is touched. Every other reply's
    /// payload — a listing, a walk trail, a link target — goes through one
    /// recycled buffer. Returns the number served.
    pub fn handle_batch(&mut self, batch: &FileIncomingBatch, target: &mut FileTarget) -> usize {
        let mut payload = std::mem::take(&mut self.payload_scratch);
        let mut served = 0usize;
        for inc in batch {
            if let FileRequest::Read { ino, offset, len } = inc.request {
                let mut answered = None;
                target.reply_with(inc.slot, |dst| {
                    let dst = dst.get_mut(..len as usize)?;
                    let (resp, n) = self.serve_read(inc.dispatch, ino, offset, dst);
                    answered = Some(resp.clone());
                    Some((resp, n))
                });
                if let Some(resp) = answered {
                    self.noted(inc, &resp);
                }
            } else {
                let resp = self.handle_into(inc, &mut payload);
                target.reply(inc.slot, &resp, &payload);
            }
            served += 1;
        }
        self.payload_scratch = payload;
        served
    }

    /// Serve a `Read` of `dst.len()` bytes at `offset` into `dst`: the
    /// reply, and the payload bytes written at the front of `dst`. Each
    /// dispatch type's one `Read` arm. It may run under the data pool's
    /// write guard, so it takes only the backend's own locks.
    fn serve_read(
        &self,
        dispatch: DispatchType,
        ino: u64,
        offset: u64,
        dst: &mut [u8],
    ) -> (FileResponse, usize) {
        let read = match dispatch {
            // `Kvfs::read` writes every byte of the `n` it reports — one
            // KV sub-read for every block of the range, each straight into
            // place — and nothing past it.
            DispatchType::Standalone => self.kvfs.read(ino, offset, dst).map_err(fs_err),
            DispatchType::Distributed => self.read_dfs(ino, offset, dst),
        };
        match read {
            Ok(n) => (FileResponse::Bytes(n as u32), n),
            Err(resp) => (resp, 0),
        }
    }

    /// The offloaded DFS client's read: one block, shards landing in
    /// `dst` itself; a short `dst` clips it.
    fn read_dfs(&self, ino: u64, offset: u64, dst: &mut [u8]) -> Result<usize, FileResponse> {
        let Some(dfs) = &self.dfs else {
            return Err(FileResponse::Err(EOPNOTSUPP));
        };
        if !offset.is_multiple_of(DFS_BLOCK as u64) {
            return Err(FileResponse::Err(EINVAL));
        }
        let block = offset / DFS_BLOCK as u64;
        match dfs.lock().read_block_to(ino, block, dst) {
            Ok((n, _)) => Ok(n),
            Err(e) => Err(dfs_err(e)),
        }
    }

    /// A KVFS read that succeeded feeds the readahead state — after its
    /// reply is out, outside the data pool's guard.
    fn noted(&self, inc: &FileIncoming, resp: &FileResponse) {
        if let (DispatchType::Standalone, FileRequest::Read { ino, offset, len }) =
            (inc.dispatch, &inc.request)
        {
            if matches!(resp, FileResponse::Bytes(_)) {
                self.note_read(*ino, *offset, *len);
            }
        }
    }

    /// One foreground flush of `ino`'s dirty pages in the hybrid cache
    /// into KVFS. With `coalesce` off the extent cap is one page: every
    /// dirty page is a run of its own (a batch is still one request).
    /// Returns the pages the backend refused and the pages a host writer
    /// held; both stay dirty.
    fn flush(&mut self, ino: u64) -> (usize, usize) {
        let cap = self.control.max_extent_pages;
        if !self.coalesce {
            self.control.max_extent_pages = 1;
        }
        let mut sink = KvfsFlush {
            kvfs: &self.kvfs,
            fault: self.flush_fault.as_ref(),
        };
        self.control.flush_extents(&mut sink, Some(ino), false);
        self.control.max_extent_pages = cap;
        (self.control.refused(), self.control.busy())
    }

    fn handle_kvfs(&mut self, inc: &FileIncoming, out: &mut Vec<u8>) -> FileResponse {
        // Every arm appends to an empty buffer.
        out.clear();
        let mut trail = std::mem::take(&mut self.trail_scratch);
        trail.clear();
        let resp = self.serve_kvfs(inc, out, &mut trail);
        // The walk trail rides behind the op's own payload — with an error
        // reply too, so the host learns where the walk stopped — as many
        // whole steps as the host left room for (none when it asked for no
        // read payload: a host without a dentry cache has no use for it).
        let room = (inc.read_len as usize).saturating_sub(out.len());
        let fits = trail.len().min(room) / WireStep::SIZE * WireStep::SIZE;
        out.extend_from_slice(&trail[..fits]);
        self.trail_scratch = trail;
        resp
    }

    /// A name of the inode `attr` describes went away (unlink, or a rename
    /// over it). Cached pages of a dead inode are the host's problem (it
    /// invalidates by ino, from this reply's `last`); the readahead stream
    /// is ours, and dies with the inode's last link, not before.
    fn name_removed(&self, attr: &FileAttr) -> FileResponse {
        let last = attr.nlink == 0;
        if let (Some((table, _)), true) = (&self.ra, last) {
            table.reset(attr.ino);
        }
        FileResponse::Removed {
            ino: attr.ino,
            last,
        }
    }

    /// Serve one standalone request. Every path a request carries is
    /// resolved here, by the one [`Kvfs::walk`], and reported to `trail`.
    fn serve_kvfs(
        &mut self,
        inc: &FileIncoming,
        out: &mut Vec<u8>,
        trail: &mut Vec<u8>,
    ) -> FileResponse {
        let kvfs = &self.kvfs;
        let mut steps = wire_trail(trail);
        match &inc.request {
            FileRequest::Lookup { parent, name } => match kvfs.lookup(*parent, name) {
                Ok(ino) => FileResponse::Ino(ino),
                Err(e) => fs_err(e),
            },
            FileRequest::StatAt { start, path } => reply(
                kvfs.walk(*start, path, &mut steps)
                    .and_then(|ino| kvfs.get_attr(ino))
                    .map(|a| FileResponse::Attr(wire_attr(&a))),
            ),
            FileRequest::ReaddirAt { start, path } => match kvfs.walk(*start, path, &mut steps) {
                Ok(dir) => {
                    // The trail rides behind the listing: both must fit.
                    drop(steps);
                    let cap = inc.read_len.saturating_sub(trail.len() as u32);
                    list_dir(kvfs, dir, cap, out)
                }
                Err(e) => fs_err(e),
            },
            FileRequest::Create { parent, name, mode } => reply(
                kvfs.walk_parent(*parent, name, &mut steps)
                    .and_then(|(dir, leaf)| kvfs.create_in(dir, leaf, *mode))
                    .map(FileResponse::Ino),
            ),
            FileRequest::Mkdir { parent, name, mode } => reply(
                kvfs.walk_parent(*parent, name, &mut steps)
                    .and_then(|(dir, leaf)| kvfs.mkdir_in(dir, leaf, *mode))
                    .map(FileResponse::Ino),
            ),
            FileRequest::Read { .. } => unreachable!("a read is served by `serve_read`"),
            FileRequest::ReadaheadHint { ino, lpn } => {
                // The host's demand read consumed a marker page: plan the
                // next window while the stream still has this one to
                // chew on. Fire-and-forget (always Ok) — a reset or
                // never-tracked stream simply ignores the hint.
                if let Some((table, _)) = &self.ra {
                    if let Some(window) = table.on_marker(*ino, *lpn) {
                        self.queue_window(*ino, window);
                    }
                }
                FileResponse::Ok
            }
            FileRequest::Write { ino, offset, .. } => {
                match kvfs.write(*ino, *offset, &inc.payload) {
                    Ok(n) => FileResponse::Bytes(n as u32),
                    Err(e) => fs_err(e),
                }
            }
            FileRequest::Truncate { ino, size } => match kvfs.truncate(*ino, *size) {
                Ok(()) => {
                    // The stream's planned frontier may point past the new
                    // end; forget it so stale windows are never queued.
                    if let Some((table, _)) = &self.ra {
                        table.reset(*ino);
                    }
                    FileResponse::Ok
                }
                Err(e) => fs_err(e),
            },
            FileRequest::Unlink { parent, name } => reply(
                kvfs.walk_parent(*parent, name, &mut steps)
                    .and_then(|(dir, leaf)| kvfs.unlink_entry(dir, leaf))
                    .map(|victim| self.name_removed(&victim)),
            ),
            FileRequest::Rmdir { parent, name } => reply(
                kvfs.walk_parent(*parent, name, &mut steps)
                    .and_then(|(dir, leaf)| kvfs.rmdir_in(dir, leaf))
                    .map(|()| FileResponse::Ok),
            ),
            FileRequest::Readdir { ino } => list_dir(kvfs, *ino, inc.read_len, out),
            FileRequest::GetAttr { ino } => match kvfs.get_attr(*ino) {
                Ok(a) => FileResponse::Attr(wire_attr(&a)),
                Err(e) => fs_err(e),
            },
            FileRequest::Rename {
                parent,
                name,
                new_parent,
                new_name,
            } => {
                let renamed = kvfs
                    .walk_parent(*parent, name, &mut steps)
                    .and_then(|from| {
                        Ok((from, kvfs.walk_parent(*new_parent, new_name, &mut steps)?))
                    })
                    .and_then(|((fp, fname), (tp, tname))| kvfs.rename_in(fp, fname, tp, tname));
                reply(renamed.map(|replaced| match replaced {
                    Some(replaced) => self.name_removed(&replaced),
                    None => FileResponse::Ok,
                }))
            }
            FileRequest::Fsync { ino } => {
                // Persist the hybrid cache's dirty pages into KVFS, then
                // the (always-durable) store needs no further barrier.
                // The dirty-range index scopes the flush to this inode
                // (other files' pages wait for their own fsync, close,
                // eviction or the teardown drain); an inode KVFS does not
                // hold has none, and its barrier answers ENOENT.
                //
                // A sync answers for what it made durable: pages the
                // backend keeps refusing stay dirty, and the reply says EIO;
                // a page a writer held through the pass is still dirty, and
                // the reply says "again".
                let mut passes = 1;
                let busy = loop {
                    match self.flush(*ino) {
                        (0, busy) => break busy,
                        _ if passes == FSYNC_PASSES => return FileResponse::Err(5 /* EIO */),
                        _ => passes += 1,
                    }
                };
                if busy > 0 {
                    return FileResponse::Err(EAGAIN);
                }
                // The KVFS barrier can genuinely fail (vanished inode, KV
                // refusal) — swallowing it here once turned fsync into a
                // false durability promise. Each batch's attribute landed
                // with its blocks, so the reply has nothing to carry but
                // `Ok`, in the CQE.
                match self.kvfs.fsync(*ino) {
                    Ok(()) => FileResponse::Ok,
                    Err(e) => fs_err(e),
                }
            }
            FileRequest::Link {
                parent,
                name,
                new_parent,
                new_name,
            } => {
                let linked = kvfs
                    .walk(*parent, name, &mut steps)
                    .and_then(|ino| Ok((ino, kvfs.walk_parent(*new_parent, new_name, &mut steps)?)))
                    .and_then(|(ino, (dir, leaf))| kvfs.link_in(ino, dir, leaf));
                reply(linked.map(|()| FileResponse::Ok))
            }
            FileRequest::Symlink {
                parent,
                name,
                target,
            } => reply(
                kvfs.walk_parent(*parent, name, &mut steps)
                    .and_then(|(dir, leaf)| kvfs.symlink_in(dir, leaf, target))
                    .map(FileResponse::Ino),
            ),
            FileRequest::Readlink { parent, name } => {
                // The link itself is the subject: walk to its directory,
                // look the name up, follow nothing.
                let target = kvfs
                    .walk_parent(*parent, name, &mut steps)
                    .and_then(|(dir, leaf)| kvfs.lookup(dir, leaf))
                    .and_then(|ino| kvfs.readlink(ino));
                reply(target.map(|target| {
                    out.extend_from_slice(target.as_bytes());
                    FileResponse::Bytes(out.len() as u32)
                }))
            }
            FileRequest::CacheEvictBatch { buckets } => {
                // One doorbell frees a slot per requested bucket occurrence.
                // Wire-supplied indices are wrapped into range — the host
                // always sends valid ones, but a hostile peer must not be
                // able to panic a service thread.
                let nb = self.control.cache().bucket_count();
                let wanted: Vec<usize> = buckets.iter().map(|b| (*b as usize) % nb).collect();
                let mut sink = KvfsFlush {
                    kvfs,
                    fault: self.flush_fault.as_ref(),
                };
                let freed = self.control.evict_batch(&wanted, &mut sink);
                if freed == 0 && wanted.iter().any(|&b| self.control.bucket_occupied(b)) {
                    // Even after a flush pass nothing in a populated
                    // bucket could be evicted: tell the host so it falls
                    // back to write-through instead of assuming a free
                    // frame exists. All-empty buckets stay a success —
                    // there was nothing to do.
                    return FileResponse::Err(16 /* EBUSY */);
                }
                FileResponse::Bytes(freed as u32)
            }
        }
    }

    fn handle_dfs(&mut self, inc: &FileIncoming, out: &mut Vec<u8>) -> FileResponse {
        out.clear();
        let Some(dfs) = &self.dfs else {
            return FileResponse::Err(EOPNOTSUPP);
        };
        if let FileRequest::Create { name, .. } | FileRequest::Lookup { name, .. } = &inc.request {
            // A DFS name follows the KVFS name rule: the host wrote it, so
            // a name KVFS would refuse is refused here, before the MDS
            // can store it.
            if let Err(e) = validate_name(name) {
                return FileResponse::Err(e.errno());
            }
        }
        let mut dfs = dfs.lock();
        match &inc.request {
            FileRequest::Create { parent, name, .. } => match dfs.create(*parent, name) {
                Ok((attr, _)) => FileResponse::Ino(attr.ino),
                Err(e) => dfs_err(e),
            },
            FileRequest::Lookup { parent, name } => match dfs.lookup(*parent, name) {
                Ok((ino, _)) => FileResponse::Ino(ino),
                Err(e) => dfs_err(e),
            },
            FileRequest::GetAttr { ino } => match dfs.getattr(*ino) {
                Ok((a, _)) => FileResponse::Attr(WireAttr {
                    ino: a.ino,
                    size: a.size,
                    mtime_ns: a.mtime,
                    nlink: 1,
                    mode: 0o644,
                    ..Default::default()
                }),
                Err(e) => dfs_err(e),
            },
            FileRequest::Write { ino, offset, .. } => {
                if *offset % DFS_BLOCK as u64 != 0 || inc.payload.len() > DFS_BLOCK {
                    // The DFS data path is block-granular; an unaligned
                    // offset or an oversize payload is a caller error the
                    // host must not be able to turn into a DPU panic.
                    return FileResponse::Err(EINVAL);
                }
                let block = offset / DFS_BLOCK as u64;
                match dfs.write_block(*ino, block, &inc.payload) {
                    Ok(_) => FileResponse::Bytes(inc.payload.len() as u32),
                    Err(e) => dfs_err(e),
                }
            }
            FileRequest::Fsync { .. } => match dfs.sync_meta() {
                Ok(_) => FileResponse::Ok,
                Err(e) => dfs_err(e),
            },
            // A `Read` is served by `serve_read`.
            _ => FileResponse::Err(EOPNOTSUPP),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_cache::{CacheConfig, HybridCache, PAGE_SIZE};
    use dpc_kvfs::{DataFormat, BIG_BLOCK};
    use dpc_kvstore::KvStore;
    use dpc_pcie::DmaEngine;

    fn control() -> ControlPlane {
        let cache = HybridCache::new(CacheConfig {
            pages: 64,
            bucket_entries: 8,
            mode: 1,
            meta_lockfree: true,
        });
        ControlPlane::new(Arc::new(cache), DmaEngine::new())
    }

    /// `ino`'s attribute as the store holds it: a fresh mount reads it
    /// past KVFS's inode cache (a get and a scan; no put, no sub-write).
    fn stored(kvfs: &Kvfs, ino: u64) -> FileAttr {
        let cold = Kvfs::open(kvfs.store().clone()).unwrap();
        cold.get_attr(ino).unwrap()
    }

    /// Two big files of 32 blocks each.
    fn two_files() -> (Kvfs, u64, u64) {
        let kvfs = Kvfs::new(Arc::new(KvStore::new()));
        let a = kvfs.create("/a", 0o644).unwrap();
        let b = kvfs.create("/b", 0o644).unwrap();
        for ino in [a, b] {
            kvfs.write(ino, 0, &vec![1u8; 32 * BIG_BLOCK]).unwrap();
        }
        (kvfs, a, b)
    }

    /// The LPN of every other 8 KiB block: no two extents adjacent.
    fn lpn(k: u64) -> u64 {
        k * 2 * (BIG_BLOCK / PAGE_SIZE) as u64
    }

    /// One batch of `ino`'s eight non-adjacent blocks: eight runs.
    fn eight_runs() -> (Vec<(u64, usize)>, Vec<u8>) {
        let runs = (0..8).map(|k| (lpn(k), BIG_BLOCK)).collect();
        (runs, vec![2u8; 8 * BIG_BLOCK])
    }

    #[test]
    fn a_pass_writes_each_block_once_and_each_inode_attribute_once() {
        let (kvfs, a, b) = two_files();
        let (attr_a, attr_b) = (stored(&kvfs, a), stored(&kvfs, b));
        let before = kvfs.store().stats();
        let (runs, data) = eight_runs();
        let mut sink = KvfsFlush {
            kvfs: &kvfs,
            fault: None,
        };
        assert!(sink.try_flush_batch(a, &runs, &data));
        let mid = kvfs.store().stats();
        // One request for a's eight blocks and, last, its attribute (eight
        // before batches, and a put after the pass before the attribute
        // rode the batch).
        assert_eq!(mid.sub_writes - before.sub_writes, 1);
        assert_eq!(mid.sub_write_keys - before.sub_write_keys, 9);
        assert_eq!(
            mid.puts, before.puts,
            "no put: the attribute rode the batch"
        );
        let now_a = stored(&kvfs, a);
        assert!(
            now_a.mtime > attr_a.mtime,
            "a's mtime landed with its blocks"
        );
        assert_eq!(stored(&kvfs, b), attr_b);
        assert!(sink.try_flush_batch(b, &runs, &data));
        let after = kvfs.store().stats();
        assert_eq!(after.sub_writes - before.sub_writes, 2);
        assert_eq!(after.sub_write_keys - before.sub_write_keys, 18);
        assert_eq!(after.puts, before.puts);
        let now_b = stored(&kvfs, b);
        assert!(now_b.mtime > now_a.mtime);
        assert_eq!((now_a.size, now_b.size), (attr_a.size, attr_b.size));
    }

    #[test]
    fn growth_and_promotion_reach_the_store_before_the_sink_returns() {
        let (kvfs, big, _) = two_files();
        let small = kvfs.create("/small", 0o644).unwrap();
        kvfs.write(small, 0, &[5u8; 100]).unwrap();
        let mut sink = KvfsFlush {
            kvfs: &kvfs,
            fault: None,
        };
        // One block past EOF: a read bounded by the stored size must see it
        // the moment the page can be marked clean.
        let grow = [(lpn(0), BIG_BLOCK), (lpn(16), BIG_BLOCK)];
        assert!(sink.try_flush_batch(big, &grow, &[3u8; 2 * BIG_BLOCK]));
        assert_eq!(stored(&kvfs, big).size, 33 * BIG_BLOCK as u64);
        // Small → big, same rule.
        assert!(sink.try_flush_batch(small, &[(0, BIG_BLOCK)], &[4u8; BIG_BLOCK]));
        let attr = stored(&kvfs, small);
        assert_eq!(
            (attr.format, attr.size),
            (DataFormat::Big, BIG_BLOCK as u64)
        );
    }

    #[test]
    fn a_scoped_fsync_past_a_page_a_writer_holds_is_eagain_until_it_lands() {
        let (kvfs, a, _) = two_files();
        let kvfs = Arc::new(kvfs);
        let control = control();
        let cache = control.cache().clone();
        let mut dispatcher = Dispatcher::new(kvfs.clone(), control, None);
        for lpn in [0, 5] {
            let mut page = cache.begin_write(a, lpn).unwrap();
            page.write(0, &[7u8; PAGE_SIZE]);
            page.commit_dirty();
        }
        let fsync = FileIncoming {
            request: FileRequest::Fsync { ino: a },
            ..FileIncoming::default()
        };
        let first_bytes = |kvfs: &Kvfs| {
            let mut buf = [0u8; 6 * PAGE_SIZE];
            kvfs.read(a, 0, &mut buf).unwrap();
            (buf[0], buf[5 * PAGE_SIZE])
        };
        // A host writer holds page 0 across the request (its own crossing
        // may be queued behind this very `Fsync`).
        let held = cache.begin_write(a, 0).unwrap();
        let (resp, _) = dispatcher.handle(&fsync);
        assert!(matches!(resp, FileResponse::Err(EAGAIN)), "{resp:?}");
        // Page 5 landed; page 0 did not, and is still dirty.
        assert_eq!(first_bytes(&kvfs), (1, 7));
        assert_eq!(cache.dirty_count(), 1);
        drop(held);
        let (resp, _) = dispatcher.handle(&fsync);
        assert_eq!(resp, FileResponse::Ok);
        assert_eq!((first_bytes(&kvfs), cache.dirty_count()), ((7, 7), 0));
        assert_eq!(kvfs.get_attr(a).unwrap().size, (32 * BIG_BLOCK) as u64);
    }

    #[test]
    fn an_fsync_of_an_inode_kvfs_does_not_hold_flushes_nothing_and_is_enoent() {
        let (kvfs, a, b) = two_files();
        let kvfs = Arc::new(kvfs);
        let control = control();
        let cache = control.cache().clone();
        let mut dispatcher = Dispatcher::new(kvfs.clone(), control, None);
        for ino in [a, b] {
            let mut page = cache.begin_write(ino, 0).unwrap();
            page.write(0, &[7u8; PAGE_SIZE]);
            page.commit_dirty();
        }
        let before = kvfs.store().stats();
        // `u64::MAX` is an unknown inode like any other: no sweep.
        for ino in [9999, u64::MAX] {
            let fsync = FileIncoming {
                request: FileRequest::Fsync { ino },
                ..FileIncoming::default()
            };
            assert_eq!(dispatcher.handle(&fsync).0, FileResponse::Err(2), "{ino}");
        }
        let after = kvfs.store().stats();
        assert_eq!(cache.dirty_count(), 2, "both files' pages are still dirty");
        assert_eq!(
            (after.sub_writes, after.puts),
            (before.sub_writes, before.puts)
        );
    }

    #[test]
    fn coalescing_off_caps_a_run_at_one_page_and_the_batch_is_still_one_request() {
        for coalesce in [true, false] {
            let (kvfs, a, _) = two_files();
            let kvfs = Arc::new(kvfs);
            let control = control();
            let cache = control.cache().clone();
            let mut dispatcher = Dispatcher::new(kvfs.clone(), control, None);
            dispatcher.coalesce = coalesce;
            // Four adjacent pages: two blocks.
            for lpn in 0..4 {
                let mut page = cache.begin_write(a, lpn).unwrap();
                page.write(0, &[9u8; PAGE_SIZE]);
                page.commit_dirty();
            }
            let before = kvfs.store().stats();
            let fsync = FileIncoming {
                request: FileRequest::Fsync { ino: a },
                ..FileIncoming::default()
            };
            assert_eq!(dispatcher.handle(&fsync).0, FileResponse::Ok);
            let after = kvfs.store().stats();
            // Off: four one-page runs, each its own key write (one KV
            // request per page before batches); on: one run of two blocks.
            // Either way the attribute is the batch's last key.
            let (runs, keys) = if coalesce { (1, 3) } else { (4, 5) };
            assert_eq!(cache.stats().extents_flushed, runs, "coalesce {coalesce}");
            assert_eq!(
                (
                    after.sub_writes - before.sub_writes,
                    after.sub_write_keys - before.sub_write_keys
                ),
                (1, keys),
                "coalesce {coalesce}"
            );
            let mut back = [0u8; 4 * PAGE_SIZE];
            kvfs.read(a, 0, &mut back).unwrap();
            assert!(back.iter().all(|&b| b == 9));
        }
    }
}

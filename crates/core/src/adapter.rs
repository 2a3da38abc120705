//! The host-side *fs-adapter* (Figure 3).
//!
//! The fs-adapter replaces FUSE under the VFS: it serves reads and
//! absorbs writes from the hybrid cache's host-resident data plane, and
//! converts everything else into nvme-fs messages. [`DpcFs`] is that
//! adapter plus a small fd table — the file API applications use.
//!
//! Concurrency model (see DESIGN.md §4): the adapter holds **no** big
//! lock. Link round-trips go through the shared
//! [`ChannelPool`](dpc_nvmefs::ChannelPool) multiplexer, which never
//! holds a lock across a round-trip; descriptor state lives in a sharded
//! fd table (shard mutexes are held only for map lookups, never across a
//! call) with the logical size tracked as a per-inode atomic; cache
//! access keeps its own per-entry PCIe-atomic locks. Any number of
//! threads can drive one `DpcFs` — or many `DpcFs` clones of the same
//! `Dpc` — concurrently.
//!
//! Semantics notes (standard kernel behaviour): the host owns each open
//! file's logical size, one cell per *inode* like the kernel's `i_size`
//! ([`InodeSizes`]), because buffered writes grow a file before any of
//! it reaches the backend. The flusher writes only each page's valid
//! prefix, so a flush lands the backend on the size the pages make, and
//! `fsync` sends nothing but the flush; each op that moves the backend's
//! size orders itself against the flushes (DESIGN.md §4.1).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dpc_cache::{
    HybridCache, IntentLog, MetaAttr, MetaCache, NameLookup, WalError, WalKind, WriteError,
    WriteGuard, KIND_DIR, KIND_FILE, PAGE_SIZE,
};
use dpc_dfs::DFS_BLOCK;
use dpc_nvmefs::{
    decode_dirents_into, CallError, ChannelPool, DispatchType, FileCompletion, FileRequest,
    FileResponse, Payload, Reply, Sides, Ticket, WireAttr, WireDirent, WireStep, MAX_NAME_LEN,
    MAX_PATH_LEN, READ_HEADER_CAP, SGL_LIST_CAP, SGL_MAX_SEGMENTS,
};
use parking_lot::Mutex;

use crate::DpcConfig;

/// Errors surfaced by the adapter (errno-carrying).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DpcError(pub i32);

impl DpcError {
    pub fn errno(&self) -> i32 {
        self.0
    }

    pub const NOT_FOUND: DpcError = DpcError(2);
    pub const INVALID: DpcError = DpcError(22);
    pub const IO: DpcError = DpcError(5);
    pub const AGAIN: DpcError = DpcError(11);
    pub const NAME_TOO_LONG: DpcError = DpcError(36);
}

impl core::fmt::Display for DpcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "dpc error (errno {})", self.0)
    }
}

impl std::error::Error for DpcError {}

/// An open-file descriptor returned by [`DpcFs::open`] / [`DpcFs::create`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Fd(pub u64);

/// Per-descriptor state. The inode is fixed at open; the logical size is
/// the inode's shared cell, an atomic so the data path updates it without
/// any map lock. Dropping the entry — at `close`, or when the last
/// in-flight op that still borrows it returns — gives the hold back.
struct FdEntry {
    ino: u64,
    cell: Arc<InodeCell>,
    sizes: Arc<InodeSizes>,
}

/// The `ino` of a retired [`FdEntry`]: it holds no inode.
const NO_INO: u64 = u64::MAX;
/// Retired descriptors and size cells each shard keeps for reuse, so an
/// `open` + `close` cycle allocates nothing once warm.
const SPARES: usize = 8;

/// `fresh` in a retired allocation if `spare` has one, a new one if not.
fn recycled<T>(spare: &mut Vec<Arc<T>>, fresh: T) -> Arc<T> {
    match spare.pop() {
        Some(mut old) => {
            *Arc::get_mut(&mut old).expect("a spare is unshared") = fresh;
            old
        }
        None => Arc::new(fresh),
    }
}

impl FdEntry {
    /// A hold on `ino`'s cell: see [`InodeSizes::open`].
    fn open(
        sizes: &Arc<InodeSizes>,
        ino: u64,
        backend_size: u64,
        seen: Option<u64>,
    ) -> Option<FdEntry> {
        Some(FdEntry {
            ino,
            cell: sizes.open(ino, backend_size, seen)?,
            sizes: sizes.clone(),
        })
    }

    /// Give the hold back now and become a spare: an allocation for the
    /// next `open`, bound to no inode.
    fn retire(&mut self) {
        self.cell = self.sizes.idle.clone();
        self.sizes.release(std::mem::replace(&mut self.ino, NO_INO));
    }
}

impl Drop for FdEntry {
    fn drop(&mut self) {
        if self.ino != NO_INO {
            self.sizes.release(self.ino);
        }
    }
}

/// Logical file sizes, one cell per open *inode*: every descriptor of an
/// inode — through any adapter of the same `Dpc` — shares it, so a write
/// or truncate through one descriptor is what another's `read`, `fsync`
/// and `close` see. Each map entry counts its holders; the last one out
/// removes it.
pub(crate) struct InodeSizes {
    shards: [Mutex<SizeShard>; FD_SHARDS],
    /// Inodes with a cell, across every shard: with none open, `stat` asks
    /// no shard.
    open: AtomicUsize,
    /// Cells removed by their last holder, ever. Bumped under the removed
    /// cell's shard lock and read under the opened one's, so an `open` of
    /// the same inode sees every removal that beat it to the lock.
    released: AtomicU64,
    /// What a retired descriptor points at.
    idle: Arc<InodeCell>,
}

#[derive(Default)]
struct SizeShard {
    open: HashMap<u64, SizeCell>,
    spare: Vec<Arc<InodeCell>>,
}

struct SizeCell {
    holders: usize,
    cell: Arc<InodeCell>,
}

/// What the host tracks per open inode: the logical size, and whether
/// anything was written since the last `fsync` that covered it.
struct InodeCell {
    size: AtomicU64,
    /// Bumped *before* every `write`/`writev`/`truncate` touches anything.
    mutations: AtomicU64,
    /// Bumped when each of those has landed its pages and its size, or
    /// failed: never ahead of `mutations`.
    landed: AtomicU64,
    /// The `landed` value a successful scoped `Fsync` is known to cover:
    /// the one sampled before that request was sent.
    synced: AtomicU64,
}

/// An op on an [`InodeCell`] from its start to its end: see
/// [`InodeCell::mutation`].
struct Mutation<'a>(&'a InodeCell);

impl Drop for Mutation<'_> {
    fn drop(&mut self) {
        self.0.landed.fetch_add(1, Ordering::AcqRel);
    }
}

impl InodeCell {
    fn new(size: u64) -> InodeCell {
        InodeCell {
            size: AtomicU64::new(size),
            mutations: AtomicU64::new(0),
            landed: AtomicU64::new(0),
            synced: AtomicU64::new(0),
        }
    }

    /// Start a mutation: counted in `mutations` now, and in `landed` when
    /// the returned guard drops — hold it until the op's pages and size
    /// are in place.
    fn mutation(&self) -> Mutation<'_> {
        // Release pairs with `is_clean`'s Acquire load of `mutations`.
        self.mutations.fetch_add(1, Ordering::AcqRel);
        Mutation(self)
    }

    /// Nothing was modified since the last covering fsync: no page of
    /// this inode can have been dirtied by this host since, so a `close`
    /// has nothing to flush. An fsync covers only
    /// the mutations that had landed when it sampled `landed`: one still
    /// in flight then may dirty its pages after the flush pass, and one
    /// that starts later bumps `mutations` past the sample. (A fresh cell
    /// is clean: whoever closed last either was clean or synced on its way
    /// out.)
    fn is_clean(&self) -> bool {
        self.synced.load(Ordering::Acquire) == self.mutations.load(Ordering::Acquire)
    }
}

impl InodeSizes {
    pub(crate) fn new() -> InodeSizes {
        InodeSizes {
            shards: std::array::from_fn(|_| Mutex::default()),
            open: AtomicUsize::new(0),
            released: AtomicU64::new(0),
            idle: Arc::new(InodeCell::new(0)),
        }
    }

    fn shard(&self, ino: u64) -> &Mutex<SizeShard> {
        &self.shards[(ino % FD_SHARDS as u64) as usize]
    }

    /// Take a hold on the cell of `ino`. While some descriptor holds the
    /// inode open its logical size wins (the backend's may lag unflushed
    /// writes); otherwise the cell starts at `backend_size`. `seen` is a
    /// [`released`](Self::released) sample taken before `backend_size` was
    /// read: if a last holder has left since, its close may have flushed
    /// the backend past that size, and `None` says to read it again.
    fn open(&self, ino: u64, backend_size: u64, seen: Option<u64>) -> Option<Arc<InodeCell>> {
        let mut shard = self.shard(ino).lock();
        let SizeShard { open, spare } = &mut *shard;
        let cell = match open.entry(ino) {
            Entry::Occupied(live) => live.into_mut(),
            Entry::Vacant(_) if seen.is_some_and(|s| s != self.released()) => return None,
            Entry::Vacant(fresh) => {
                self.open.fetch_add(1, Ordering::AcqRel);
                fresh.insert(SizeCell {
                    holders: 0,
                    cell: recycled(spare, InodeCell::new(backend_size)),
                })
            }
        };
        cell.holders += 1;
        Some(cell.cell.clone())
    }

    /// Cells removed so far: sample it before reading a size to start a
    /// cell from.
    fn released(&self) -> u64 {
        self.released.load(Ordering::Acquire)
    }

    /// `attr` as `stat` reports it: while some descriptor holds its inode
    /// open, with the logical size, which unflushed growth may have moved
    /// past the backend's. With no inode open anywhere, one atomic load.
    #[inline]
    fn sized(&self, mut attr: WireAttr) -> WireAttr {
        if self.open.load(Ordering::Acquire) != 0 {
            if let Some(size) = self.open_size(attr.ino) {
                attr.size = size;
            }
        }
        attr
    }

    /// The logical size of `ino`, if some descriptor holds it open. Kept
    /// out of line: `stat`'s hit path with nothing open never calls it.
    #[inline(never)]
    fn open_size(&self, ino: u64) -> Option<u64> {
        let shard = self.shard(ino).lock();
        let cell = shard.open.get(&ino)?;
        Some(cell.cell.size.load(Ordering::Acquire))
    }

    /// Give one hold back; the last holder of `ino` removes its cell.
    fn release(&self, ino: u64) {
        let mut shard = self.shard(ino).lock();
        let Some(cell) = shard.open.get_mut(&ino) else {
            return;
        };
        cell.holders -= 1;
        if cell.holders == 0 {
            let gone = shard.open.remove(&ino).expect("just seen").cell;
            self.open.fetch_sub(1, Ordering::AcqRel);
            self.released.fetch_add(1, Ordering::AcqRel);
            if Arc::strong_count(&gone) == 1 && shard.spare.len() < SPARES {
                shard.spare.push(gone);
            }
        }
    }
}

/// Sharded descriptor table: fd → entry. A shard mutex is held only long
/// enough to touch its map — never across a link round-trip — so
/// descriptor churn on one shard cannot serialize I/O on another.
const FD_SHARDS: usize = 16;

struct FdTable {
    shards: [Mutex<FdShard>; FD_SHARDS],
    next_fd: AtomicU64,
}

#[derive(Default)]
struct FdShard {
    open: HashMap<u64, Arc<FdEntry>>,
    spare: Vec<Arc<FdEntry>>,
}

impl FdTable {
    fn new() -> FdTable {
        FdTable {
            shards: std::array::from_fn(|_| Mutex::default()),
            next_fd: AtomicU64::new(3),
        }
    }

    fn shard(&self, fd: u64) -> &Mutex<FdShard> {
        &self.shards[(fd % FD_SHARDS as u64) as usize]
    }

    fn insert(&self, entry: FdEntry) -> Fd {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(fd).lock();
        let entry = recycled(&mut shard.spare, entry);
        shard.open.insert(fd, entry);
        Fd(fd)
    }

    fn get(&self, fd: Fd) -> Result<Arc<FdEntry>, DpcError> {
        self.shard(fd.0)
            .lock()
            .open
            .get(&fd.0)
            .cloned()
            .ok_or(DpcError(9 /* EBADF */))
    }

    /// Forget `fd`. With nobody else borrowing the entry it is retired
    /// here and its allocation kept; an op still in flight drops it — and
    /// the hold — when it returns.
    fn remove(&self, fd: Fd) {
        let mut shard = self.shard(fd.0).lock();
        let Some(mut entry) = shard.open.remove(&fd.0) else {
            return;
        };
        if let (Some(e), true) = (Arc::get_mut(&mut entry), shard.spare.len() < SPARES) {
            e.retire();
            shard.spare.push(entry);
        }
    }
}

/// Cap on pages fetched by one spanning miss read (256 KiB — well under
/// the default 1 MiB nvme-fs buffer capacity, and matching the flush
/// extent cap).
const MAX_MISS_RUN_PAGES: usize = 64;

/// Miss runs of one read staged before the first is waited; a read whose
/// misses break into more fetches these first.
const MAX_RUNS: usize = 16;

/// Contiguous missing pages of one read, fetched by one spanning `Read`.
#[derive(Copy, Clone, Default)]
struct Run {
    lpn: u64,
    pages: usize,
}

/// Where page `lpn` meets the `n` bytes read at `offset`: its position in
/// the caller's buffer, its offset in the page, and how many bytes.
fn page_span(offset: u64, n: usize, lpn: u64) -> (usize, usize, usize) {
    let start = (lpn * PAGE_SIZE as u64).max(offset);
    let end = ((lpn + 1) * PAGE_SIZE as u64).min(offset + n as u64);
    let in_page = (start % PAGE_SIZE as u64) as usize;
    ((start - offset) as usize, in_page, (end - start) as usize)
}

/// Rounds of scoped `Fsync` an uncached op spends flushing the dirty
/// pages it overlaps before it gives up with EBUSY.
const PREFLUSH_ROUNDS: u32 = 4;

/// Pages one buffered write claims before it lands a byte (DESIGN.md §4.4).
/// A longer write goes window by window, under an intent record.
const CLAIM_WINDOW: usize = 64;

/// Yields an append waits on a full intent log, for in-flight ops to
/// retire their records, before the op gives up with EBUSY.
const LOG_WAIT_YIELDS: u32 = 1 << 20;

/// A completion's reply, or its errno.
fn reply(done: Result<FileCompletion, CallError>) -> Result<(FileResponse, Vec<u8>), DpcError> {
    let done = done.map_err(|e| DpcError(e.errno()))?;
    match done.response {
        FileResponse::Err(e) => Err(DpcError(e)),
        resp => Ok((resp, done.payload)),
    }
}

/// I/O mode for the data path.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum IoMode {
    /// Through the hybrid cache (the default).
    Buffered,
    /// Straight to the DPU (the `DIRECT_IO` flag).
    Direct,
}

/// What `fsync` waits for (DESIGN.md §4.6).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FsyncMode {
    /// Flush dirty pages to the backing store — durable on the store, the
    /// default tier.
    Data,
    /// Return at once, and so does `close`. An acknowledged buffered write
    /// is its dirty pages in host memory, which a DPU crash does not take:
    /// `Dpc::recover` adopts and flushes them, and a clean teardown drains
    /// them. What bypasses the pool was logged before it ran. Durable
    /// against a DPU reset, not against losing the host.
    Log,
}

/// The host-side file interface: the shared nvme-fs channel pool + the
/// hybrid cache data plane. Fully concurrent — share behind `Arc` or hand
/// every thread its own adapter from [`Dpc::fs`](crate::Dpc::fs); both
/// multiplex over the same queues.
pub struct DpcFs {
    cache: Arc<HybridCache>,
    pool: Arc<ChannelPool>,
    fds: FdTable,
    /// Per-inode logical sizes, shared across every adapter of one `Dpc`.
    sizes: Arc<InodeSizes>,
    pub mode: IoMode,
    /// Durability tier `fsync` provides (see [`FsyncMode`]).
    pub fsync_mode: FsyncMode,
    /// Host-side metadata cache (DESIGN.md §4.7), shared across every
    /// adapter of one `Dpc`.
    meta: Arc<MetaCache>,
    /// Per-direction capacity of one transport buffer: what an uncached
    /// op may move in one command.
    max_io: usize,
    /// The instance's intent log: uncached writes and truncates.
    log: Arc<IntentLog>,
}

/// One path a namespace request asks the DPU to walk: the inode the host's
/// dentry layer got to (the root, without one) and what is left of the
/// path from there.
#[derive(Copy, Clone)]
struct Leg<'p> {
    start: u64,
    rest: &'p str,
    /// The request acts on the final component (create, unlink, …): the
    /// walk, and so the trail, stops at its parent directory.
    to_parent: bool,
}

/// Reply bytes the walk trail of `legs` takes: a step per component walked.
fn trail_room(legs: &[Leg]) -> usize {
    legs.iter().map(|l| l.walked().count()).sum::<usize>() * WireStep::SIZE
}

impl<'p> Leg<'p> {
    fn components(&self) -> impl Iterator<Item = &'p str> {
        self.rest.split('/').filter(|c| !c.is_empty())
    }

    /// The final component — the name a `to_parent` request acts on.
    fn leaf(&self) -> &'p str {
        self.components().last().unwrap_or("")
    }

    /// The components the DPU walks, and reports in the trail.
    fn walked(&self) -> impl Iterator<Item = &'p str> {
        let leaf = self.to_parent as usize;
        let n = self.components().count().saturating_sub(leaf);
        self.components().take(n)
    }
}

impl DpcFs {
    pub(crate) fn new(
        cache: Arc<HybridCache>,
        pool: Arc<ChannelPool>,
        sizes: Arc<InodeSizes>,
        meta: Arc<MetaCache>,
        log: Arc<IntentLog>,
        cfg: &DpcConfig,
    ) -> DpcFs {
        DpcFs {
            cache,
            pool,
            fds: FdTable::new(),
            sizes,
            mode: cfg.io_mode,
            fsync_mode: cfg.fsync_mode,
            meta,
            max_io: cfg.max_io_bytes,
            log,
        }
    }

    pub fn cache(&self) -> &Arc<HybridCache> {
        &self.cache
    }

    /// The shared channel multiplexer (diagnostics/tests).
    pub fn pool(&self) -> &Arc<ChannelPool> {
        &self.pool
    }

    /// One command whose reply is a header and nothing else: what the
    /// data path sends besides its reads (those are `read_into` and
    /// `fetch_runs`).
    fn call(&self, req: &FileRequest, payload: &[u8]) -> Result<FileResponse, DpcError> {
        let done = self.pool.call(DispatchType::Standalone, req, payload, 0);
        reply(done).map(|(resp, _)| resp)
    }

    // ---- metadata fast path (DESIGN.md §4.7) ---------------------------

    fn meta_to_wire(a: MetaAttr) -> WireAttr {
        WireAttr {
            ino: a.ino,
            size: a.size,
            mode: a.mode,
            nlink: a.nlink,
            uid: a.uid,
            gid: a.gid,
            atime_ns: a.atime_ns,
            mtime_ns: a.mtime_ns,
            ctime_ns: a.ctime_ns,
            kind: a.kind,
        }
    }

    fn wire_to_meta(a: &WireAttr) -> MetaAttr {
        MetaAttr {
            ino: a.ino,
            size: a.size,
            mode: a.mode,
            nlink: a.nlink,
            uid: a.uid,
            gid: a.gid,
            atime_ns: a.atime_ns,
            mtime_ns: a.mtime_ns,
            ctime_ns: a.ctime_ns,
            kind: a.kind,
        }
    }

    // ---- namespace API (DESIGN.md §4.8) ----------------------------------
    //
    // Every call below is ONE crossing whatever the path's depth: the
    // request carries `(start ino, rest of the path)` and the DPU walks it
    // (`Kvfs::walk`), symlinks included. The host first consumes the prefix
    // its name tables can answer — all of it, for a warm path: no crossing —
    // and learns the rest from the walk trail the reply carries.

    /// Bound `path` (ENAMETOOLONG before anything is encoded) and walk the
    /// prefix the name tables know. A hit is never a symlink's, so it is
    /// safe to walk through. With `to_parent` the final component is left
    /// for the request to name.
    fn enter<'p>(&self, path: &'p str, to_parent: bool) -> Result<Leg<'p>, DpcError> {
        if path.len() > MAX_PATH_LEN || path.split('/').any(|c| c.len() > MAX_NAME_LEN) {
            return Err(DpcError::NAME_TOO_LONG);
        }
        let (mut start, mut rest) = (0 /* root */, path.trim_start_matches('/'));
        while !rest.is_empty() {
            let (comp, tail) = rest.split_once('/').unwrap_or((rest, ""));
            let tail = tail.trim_start_matches('/');
            if to_parent && tail.is_empty() {
                break;
            }
            match self.meta.lookup_name(start, comp) {
                NameLookup::Hit(ino) => (start, rest) = (ino, tail),
                // A known-absent name answers a read outright. A mutation
                // crosses anyway, and the DPU's verdict keeps a two-path
                // call's errors in the order it walks the paths.
                NameLookup::Negative if !to_parent => return Err(DpcError::NOT_FOUND),
                _ => break,
            }
        }
        Ok(Leg {
            start,
            rest,
            to_parent,
        })
    }

    /// One namespace crossing: `legs` are the paths `req` has the DPU walk,
    /// in wire order; `own_len` bounds the read payload the op itself
    /// returns (a listing, a link target). The walk trail rides behind it,
    /// with error replies too. Returns the reply, the op's own payload and
    /// the inode each leg's walk ended on (the parent a mutation is noted
    /// under).
    fn ns_call(
        &self,
        req: &FileRequest,
        legs: &[Leg],
        own_len: u32,
    ) -> Result<(FileResponse, Vec<u8>, [u64; 2]), DpcError> {
        let room = trail_room(legs);
        let seen = self.meta.epoch();
        let mut done = self
            .pool
            .call(DispatchType::Standalone, req, b"", own_len + room as u32)
            .map_err(|e| DpcError(e.errno()))?;
        if let FileResponse::Err(e) = done.response {
            let _ = self.prime(legs, &done.payload, seen);
            return Err(DpcError(e));
        }
        // A success walked every component: its trail is the last `room`
        // bytes, exactly.
        let own = done.payload.len().checked_sub(room).ok_or(DpcError::IO)?;
        let ends = self.prime(legs, &done.payload[own..], seen)?;
        done.payload.truncate(own);
        Ok((done.response, done.payload, ends))
    }

    /// Teach the meta cache what the DPU's walk, asked for at epoch `seen`,
    /// found: a name per plain component, none for one reached through a
    /// symlink (those cross every time), an absence where the walk fell
    /// off. Returns the inode each leg ended on, an error if the trail
    /// stops short of it.
    fn prime(&self, legs: &[Leg], trail: &[u8], seen: u64) -> Result<[u64; 2], DpcError> {
        let mut ends = [0u64; 2];
        let mut steps = WireStep::decode_all(trail);
        for (leg, end) in legs.iter().zip(&mut ends) {
            *end = leg.start;
            for comp in leg.walked() {
                match steps.next() {
                    Some(WireStep::Entry(ino)) => {
                        self.meta.learn(*end, comp, Some(ino), seen);
                        *end = ino;
                    }
                    Some(WireStep::Followed(ino)) => *end = ino,
                    Some(WireStep::Absent) => {
                        self.meta.learn(*end, comp, None, seen);
                        return Err(DpcError::NOT_FOUND);
                    }
                    None => return Err(DpcError::IO),
                }
            }
        }
        Ok(ends)
    }

    /// Resolve `path`, symlinks followed, to its attributes: no crossing
    /// when the name tables and the attr table cover it, one otherwise.
    /// The size is never short of the inode's dirty pages, and while the
    /// inode is open it is this host's logical one (DESIGN.md §4.1).
    pub fn stat(&self, path: &str) -> Result<WireAttr, DpcError> {
        let leg = self.enter(path, false)?;
        if leg.rest.is_empty() {
            if let Some(a) = self.meta.get_attr(leg.start) {
                return Ok(self.sized(Self::meta_to_wire(a)));
            }
        }
        let (seen, flushed) = (self.meta.epoch(), self.cache.flushed());
        let req = FileRequest::StatAt {
            start: leg.start,
            path: leg.rest.to_string(),
        };
        let (FileResponse::Attr(attr), ..) = self.ns_call(&req, &[leg], 0)? else {
            return Err(DpcError::IO);
        };
        // A size the inode's dirty pages have passed goes stale when they
        // are flushed, by an eviction as much as by an fsync: not cached.
        // Nor is a reply that crossed a flush: it may hold the size from
        // before pages `dirty_end` no longer sees.
        let lagging = self
            .cache
            .dirty_end(attr.ino)
            .is_some_and(|end| end > attr.size);
        if !lagging && self.cache.flushed() == flushed {
            self.meta.insert_attr_seen(Self::wire_to_meta(&attr), seen);
        }
        Ok(self.sized(attr))
    }

    /// `attr` with the size `stat` reports: the logical size while some
    /// descriptor holds the inode open, and never short of where its dirty
    /// pages end — a `close` at [`FsyncMode::Log`] sends nothing, so a
    /// closed file's writes may be dirty pages alone. With no inode open
    /// and no page dirty, two atomic loads.
    fn sized(&self, attr: WireAttr) -> WireAttr {
        let mut attr = self.sizes.sized(attr);
        if let Some(end) = self.cache.dirty_end(attr.ino) {
            attr.size = attr.size.max(end);
        }
        attr
    }

    /// Send one request that acts on `path`'s final component; returns
    /// the reply, and the parent directory and that component to `note`.
    fn mutate<'p>(
        &self,
        path: &'p str,
        req: impl FnOnce(u64, String) -> FileRequest,
    ) -> Result<(FileResponse, u64, &'p str), DpcError> {
        let leg = self.enter(path, true)?;
        let req = req(leg.start, leg.rest.to_string());
        let (resp, _, [parent, _]) = self.ns_call(&req, &[leg], 0)?;
        Ok((resp, parent, leg.leaf()))
    }

    /// A name of inode `ino` is gone (unlink, or a rename over it). Its
    /// host pages and dirty data go only with the `last` name — the other
    /// names still open and read this inode — its cached attr always
    /// (nlink moved).
    fn name_removed(&self, ino: u64, last: bool) {
        if last {
            self.cache.invalidate_ino(ino);
        }
        self.meta.invalidate_ino(ino);
    }

    pub fn create(&self, path: &str) -> Result<Fd, DpcError> {
        self.create_mode(path, 0o644)
    }

    pub fn create_mode(&self, path: &str, mode: u32) -> Result<Fd, DpcError> {
        let create = |parent, name| FileRequest::Create { parent, name, mode };
        let (FileResponse::Ino(ino), parent, leaf) = self.mutate(path, create)? else {
            return Err(DpcError::IO);
        };
        self.meta.note_create(parent, leaf, ino, KIND_FILE);
        let entry =
            FdEntry::open(&self.sizes, ino, 0, None).expect("no `seen`: a cell always starts");
        Ok(self.fds.insert(entry))
    }

    /// Open `path`. With no descriptor of the inode open, its size is the
    /// one `stat` read — read again if a last `close` of the inode raced
    /// the read (see [`InodeSizes::open`]).
    pub fn open(&self, path: &str) -> Result<Fd, DpcError> {
        loop {
            let seen = self.sizes.released();
            let attr = self.stat(path)?;
            if let Some(entry) = FdEntry::open(&self.sizes, attr.ino, attr.size, Some(seen)) {
                return Ok(self.fds.insert(entry));
            }
        }
    }

    /// Make buffered data durable, then drop the descriptor. A descriptor
    /// whose inode nobody modified since its last successful `fsync`
    /// (opened, stat-ed, read) has nothing to flush and sends nothing.
    pub fn close(&self, fd: Fd) -> Result<(), DpcError> {
        if !self.fds.get(fd)?.cell.is_clean() {
            self.fsync(fd)?;
        }
        self.fds.remove(fd);
        Ok(())
    }

    pub fn mkdir(&self, path: &str) -> Result<(), DpcError> {
        let mode = 0o755;
        let mkdir = |parent, name| FileRequest::Mkdir { parent, name, mode };
        let (FileResponse::Ino(ino), parent, leaf) = self.mutate(path, mkdir)? else {
            return Err(DpcError::IO);
        };
        self.meta.note_create(parent, leaf, ino, KIND_DIR);
        // The new directory's `..` is a link to the parent.
        self.meta.invalidate_ino(parent);
        Ok(())
    }

    pub fn readdir(&self, path: &str) -> Result<Vec<WireDirent>, DpcError> {
        let mut entries = Vec::new();
        self.readdir_into(path, &mut entries)?;
        Ok(entries)
    }

    /// `readdir` into a caller-owned buffer: `out`'s entries and their
    /// name storage are recycled across calls, so a polling consumer
    /// (watcher loops, `ls`-style sweeps) decodes the listing without
    /// per-entry allocations once the buffer is warm.
    pub fn readdir_into(&self, path: &str, out: &mut Vec<WireDirent>) -> Result<(), DpcError> {
        let leg = self.enter(path, false)?;
        let mut n = 0;
        let reuse = |ino, kind, name: &str| {
            if n == out.len() {
                out.push(WireDirent {
                    ino,
                    kind,
                    name: String::new(),
                });
            }
            (out[n].ino, out[n].kind) = (ino, kind);
            out[n].name.clear();
            out[n].name.push_str(name);
            n += 1;
        };
        if leg.rest.is_empty() && self.meta.readdir_with(leg.start, reuse) {
            out.truncate(n);
            return Ok(());
        }
        let seen = self.meta.epoch();
        let req = FileRequest::ReaddirAt {
            start: leg.start,
            path: leg.rest.to_string(),
        };
        // Listing capacity: what the read half holds beside the reply
        // header and the walk trail. A longer listing is the DPU's ERANGE.
        let room = self.max_io - READ_HEADER_CAP;
        let own = room.saturating_sub(trail_room(&[leg]));
        let (resp, listing, [dir, _]) = self.ns_call(&req, &[leg], own as u32)?;
        let FileResponse::Entries(n) = resp else {
            return Err(DpcError::IO);
        };
        decode_dirents_into(&listing, n as usize, out).map_err(|_| DpcError::IO)?;
        let entries = out.iter().map(|e| (e.ino, e.kind, e.name.as_str()));
        self.meta.insert_dir(dir, seen, entries);
        Ok(())
    }

    pub fn unlink(&self, path: &str) -> Result<(), DpcError> {
        let unlink = |parent, name| FileRequest::Unlink { parent, name };
        let (FileResponse::Removed { ino, last }, parent, leaf) = self.mutate(path, unlink)? else {
            return Err(DpcError::IO);
        };
        self.name_removed(ino, last);
        self.meta.note_remove(parent, leaf);
        Ok(())
    }

    /// Rename; an existing regular-file destination is replaced.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), DpcError> {
        let legs = [self.enter(from, true)?, self.enter(to, true)?];
        let req = FileRequest::Rename {
            parent: legs[0].start,
            name: legs[0].rest.to_string(),
            new_parent: legs[1].start,
            new_name: legs[1].rest.to_string(),
        };
        let (resp, _, [parent, new_parent]) = self.ns_call(&req, &legs, 0)?;
        if let FileResponse::Removed { ino, last } = resp {
            self.name_removed(ino, last);
        }
        // The reply names neither the inode that moved nor its kind: both
        // tables forget the name (a rename *into* a cached-absent name must
        // start resolving again) and stop being whole listings.
        self.meta.note_changed(parent, legs[0].leaf());
        self.meta.note_changed(new_parent, legs[1].leaf());
        if parent != new_parent {
            // If it was a directory, its `..` link moved with it.
            self.meta.invalidate_ino(parent);
            self.meta.invalidate_ino(new_parent);
        }
        Ok(())
    }

    pub fn rmdir(&self, path: &str) -> Result<(), DpcError> {
        let rmdir = |parent, name| FileRequest::Rmdir { parent, name };
        let (_, parent, leaf) = self.mutate(path, rmdir)?;
        if let Some(dir) = self.meta.note_remove(parent, leaf) {
            self.meta.forget_dir(dir);
        }
        // The removed directory's `..` was a link to the parent.
        self.meta.invalidate_ino(parent);
        Ok(())
    }

    /// Hard link: `new_path` becomes another name for the file at
    /// `existing`.
    pub fn link(&self, existing: &str, new_path: &str) -> Result<(), DpcError> {
        let legs = [self.enter(existing, false)?, self.enter(new_path, true)?];
        let req = FileRequest::Link {
            parent: legs[0].start,
            name: legs[0].rest.to_string(),
            new_parent: legs[1].start,
            new_name: legs[1].rest.to_string(),
        };
        let (.., [ino, new_parent]) = self.ns_call(&req, &legs, 0)?;
        self.meta.note_changed(new_parent, legs[1].leaf());
        // nlink changed.
        self.meta.invalidate_ino(ino);
        Ok(())
    }

    /// Create a symbolic link at `path` pointing to `target`.
    pub fn symlink(&self, path: &str, target: &str) -> Result<(), DpcError> {
        if target.len() > MAX_PATH_LEN {
            return Err(DpcError::NAME_TOO_LONG);
        }
        let target = target.to_string();
        let symlink = |parent, name| FileRequest::Symlink {
            parent,
            name,
            target,
        };
        let (_, parent, leaf) = self.mutate(path, symlink)?;
        self.meta.note_changed(parent, leaf);
        Ok(())
    }

    /// Read a symlink's target. `path` must name the link itself (the
    /// final component is not followed).
    pub fn readlink(&self, path: &str) -> Result<String, DpcError> {
        let leg = self.enter(path, true)?;
        let req = FileRequest::Readlink {
            parent: leg.start,
            name: leg.rest.to_string(),
        };
        let (FileResponse::Bytes(n), mut target, _) = self.ns_call(&req, &[leg], 4096)? else {
            return Err(DpcError::IO);
        };
        // Consume the reply buffer in place — no `to_vec` copy.
        target.truncate(n as usize);
        String::from_utf8(target).map_err(|_| DpcError::IO)
    }

    // ---- data API --------------------------------------------------------

    /// Append the intent record of an op the page pool cannot express —
    /// an uncached write, a truncate — before it touches the store. A full
    /// ring waits for in-flight ops to retire theirs (`wal_stalls` counts
    /// each refusal), and is EBUSY past a bounded wait. A payload larger
    /// than the whole ring is not logged (`None`): that write is not
    /// atomic across a DPU crash. A dead DPU is EIO.
    fn log_op(
        &self,
        kind: WalKind,
        ino: u64,
        offset: u64,
        payload: &[u8],
    ) -> Result<Option<u64>, DpcError> {
        for _ in 0..LOG_WAIT_YIELDS {
            match self.log.try_append(kind, ino, offset, payload, 1) {
                Ok(seq) => return Ok(Some(seq)),
                Err(WalError::TooLarge) => return Ok(None),
                Err(WalError::Crashed) => return Err(DpcError::IO),
                Err(WalError::WouldBlock) => std::thread::yield_now(),
            }
        }
        Err(DpcError(16 /* EBUSY */))
    }

    /// Retire a logged op's record once the op has answered — unless the
    /// crash is what answered. Then the op is ambiguous, and its live
    /// record has recovery run it whole.
    fn retire(&self, seq: Option<u64>, ok: bool) {
        if let Some(seq) = seq {
            if ok || !self.log.crashed() {
                self.log.retire_all(seq);
            }
        }
    }

    /// Write at `offset`. Buffered mode absorbs the write in the hybrid
    /// cache (the paper's front-end write); direct mode sends it straight
    /// to the DPU.
    pub fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> Result<usize, DpcError> {
        if data.is_empty() {
            return Ok(0);
        }
        // Hostile offsets (end past u64::MAX) must error, not overflow.
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(DpcError::INVALID)?;
        let entry = self.fds.get(fd)?;
        if self.mode == IoMode::Direct {
            return self.write_direct(&entry, offset, &[data]);
        }
        let ino = entry.ino;
        let _mutation = entry.cell.mutation();
        let pages = (end - 1) / PAGE_SIZE as u64 - offset / PAGE_SIZE as u64 + 1;
        let landed = if pages <= CLAIM_WINDOW as u64 {
            // The dirty pages are the record: nothing is logged.
            self.absorb(ino, offset, data)
                .map(|took| took.then_some(data.len()))
        } else {
            // Too long to claim at once: a crash between two windows would
            // leave part of the write, so a record covers it until the ack.
            let seq = self.log_op(WalKind::Write, ino, offset, data)?;
            let res = self.absorb_windows(ino, offset, data);
            self.retire(seq, res.is_ok());
            res.map(Some)
        };
        // Size/mtime change, dropped once the pages have landed: a `stat`
        // that crossed while they landed saw neither them nor a new size.
        self.meta.invalidate_ino(ino);
        let Some(n) = landed? else {
            return self.write_direct(&entry, offset, &[data]);
        };
        entry
            .cell
            .size
            .fetch_max(offset + n as u64, Ordering::AcqRel);
        Ok(n)
    }

    /// What a write that landed its first `n` bytes and then failed with
    /// `e` answers: `n`, Linux's short write, so the size covers exactly
    /// the bytes that landed and no flush publishes a byte past it. Unless
    /// nothing landed, or the crash is what answered: then `e`, and the
    /// op's live record has recovery run it whole.
    fn short(&self, n: usize, e: DpcError) -> Result<usize, DpcError> {
        if n == 0 || self.log.crashed() {
            Err(e)
        } else {
            Ok(n)
        }
    }

    /// The buffered write of `data` at `offset`, at most [`CLAIM_WINDOW`]
    /// pages (DESIGN.md §4.4, "A buffered write is its dirty pages"). It
    /// claims every page in ascending order, then makes each crossing it
    /// needs: one `CacheEvictBatch` for the buckets it found full (its
    /// claims dropped across it, then taken again from the first page),
    /// and the old bytes of a fresh first or last page it covers in part.
    /// Only then does it land bytes and commit, so a crash at a crossing
    /// leaves none of the write. `Ok(false)`: a page still had no slot
    /// after the eviction, nothing landed, and the caller writes around
    /// the cache.
    fn absorb(&self, ino: u64, offset: u64, data: &[u8]) -> Result<bool, DpcError> {
        let first = offset / PAGE_SIZE as u64;
        let n = ((offset + data.len() as u64 - 1) / PAGE_SIZE as u64 - first + 1) as usize;
        let mut claims: [Option<WriteGuard<'_>>; CLAIM_WINDOW] = [const { None }; CLAIM_WINDOW];
        let claims = &mut claims[..n];
        let mut evicted = false;
        loop {
            // One occurrence per page without a slot: duplicates are
            // deliberate, each asks for a slot.
            let mut full: Vec<u64> = Vec::new();
            for (claim, lpn) in claims.iter_mut().zip(first..) {
                match self.cache.begin_write(ino, lpn) {
                    Ok(guard) => *claim = Some(guard),
                    Err(WriteError::NeedEviction { bucket }) => full.push(bucket as u64),
                }
            }
            if full.is_empty() {
                break;
            }
            claims.fill_with(|| None);
            if evicted {
                self.cache.note_write_through();
                return Ok(false);
            }
            for _ in &full {
                self.cache.note_evict_stall();
            }
            // EBUSY: the DPU freed nothing, even after a flush pass.
            match self.call(&FileRequest::CacheEvictBatch { buckets: full }, b"") {
                Ok(_) => evicted = true,
                Err(DpcError(16)) => {
                    self.cache.note_write_through();
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        for (claim, lpn) in claims.iter_mut().zip(first..) {
            let Some(guard) = claim else { continue };
            if guard.claimed_free() && page_span(offset, data.len(), lpn).2 < PAGE_SIZE {
                // Scrub recycled pool bytes and lay down the old content in
                // one page write. Only the fetched bytes are *valid*: the
                // zero padding past them must never be flushed.
                let mut old = [0u8; PAGE_SIZE];
                let valid = self.read_into(ino, lpn * PAGE_SIZE as u64, &mut old)?;
                guard.write(0, &old);
                guard.set_valid(valid);
            }
        }
        for (claim, lpn) in claims.iter_mut().zip(first..) {
            let (pos, in_page, take) = page_span(offset, data.len(), lpn);
            if let Some(mut guard) = claim.take() {
                guard.write(in_page, &data[pos..pos + take]);
                guard.commit_dirty();
            }
        }
        Ok(true)
    }

    /// A buffered write longer than [`CLAIM_WINDOW`], one window at a
    /// time; a window the cache cannot take crosses uncached. Returns the
    /// bytes that landed: short when a later window fails (see
    /// [`short`](Self::short)).
    fn absorb_windows(&self, ino: u64, offset: u64, data: &[u8]) -> Result<usize, DpcError> {
        let mut pos = 0;
        while pos < data.len() {
            let at = offset + pos as u64;
            let window_end = (at / PAGE_SIZE as u64 + CLAIM_WINDOW as u64) * PAGE_SIZE as u64;
            let chunk = &data[pos..pos + ((window_end - at) as usize).min(data.len() - pos)];
            let took = match self.absorb(ino, at, chunk) {
                Ok(true) => Ok(chunk.len()),
                Ok(false) => self.write_around(ino, at, &[chunk]),
                Err(e) => Err(e),
            };
            match took {
                Ok(n) if n == chunk.len() => pos += n,
                Ok(n) => return Ok(pos + n),
                Err(e) => return self.short(pos, e),
            }
        }
        Ok(pos)
    }

    /// The one uncached write: `IoMode::Direct`, `writev`, and a buffered
    /// write the cache could not take. Its intent record is appended
    /// before anything moves and retired at ack; then
    /// [`write_around`](Self::write_around); then the logical size grows.
    fn write_direct(
        &self,
        entry: &FdEntry,
        offset: u64,
        segments: &[&[u8]],
    ) -> Result<usize, DpcError> {
        let total: usize = segments.iter().map(|s| s.len()).sum();
        if total == 0 {
            return Ok(0);
        }
        offset.checked_add(total as u64).ok_or(DpcError::INVALID)?;
        let ino = entry.ino;
        let _mutation = entry.cell.mutation();
        // Replay needs the bytes contiguous: a gather is flattened for the
        // log only; the wire path still crosses as an SGL.
        let seq = match segments {
            [one] => self.log_op(WalKind::Write, ino, offset, one)?,
            _ => self.log_op(WalKind::Write, ino, offset, &segments.concat())?,
        };
        let res = self.write_around(ino, offset, segments);
        self.retire(seq, res.is_ok());
        // After the crossing, as in `fsync`: the size it replaced is stale.
        self.meta.invalidate_ino(ino);
        let n = res?;
        entry
            .cell
            .size
            .fetch_max(offset + n as u64, Ordering::AcqRel);
        Ok(n)
    }

    /// The O_DIRECT rule, in order: the dirty cached pages the write
    /// overlaps reach the backend first; the segments cross; the touched
    /// pages leave the cache, so no read serves the bytes they replaced.
    /// Returns the bytes the backend took.
    fn write_around(&self, ino: u64, offset: u64, segments: &[&[u8]]) -> Result<usize, DpcError> {
        let end = offset + segments.iter().map(|s| s.len() as u64).sum::<u64>();
        // Inclusive last touched page, NOT div_ceil: one page too far would
        // drop a dirty page past the write that the pre-flush never covered.
        let pages = offset / PAGE_SIZE as u64..=(end - 1) / PAGE_SIZE as u64;
        self.flush_range(ino, pages.clone())?;
        let res = self.cross_write(ino, offset, segments);
        // Whatever part landed, no cached copy of it may stay readable.
        for lpn in pages {
            self.cache.invalidate(ino, lpn);
        }
        res
    }

    /// O_DIRECT coherence: the dirty cached pages of `ino` in `pages`
    /// reach the backend before an uncached op goes to it — flushed, never
    /// discarded. The dirty-range index answers the overlap query, so
    /// other files' dirty pages force nothing. EBUSY when they stay dirty:
    /// the backend keeps refusing them (the `Fsync` answers EIO), or
    /// writers keep re-dirtying them.
    fn flush_range(&self, ino: u64, pages: RangeInclusive<u64>) -> Result<(), DpcError> {
        let mut rounds = 0;
        while self
            .cache
            .has_dirty_in_range(ino, *pages.start(), *pages.end())
        {
            if rounds == PREFLUSH_ROUNDS {
                return Err(DpcError(16 /* EBUSY */));
            }
            rounds += 1;
            match self.sync_ino(ino) {
                // Some page of the inode was refused; the loop's test says
                // whether it was one of ours.
                Err(DpcError::IO) => rounds = PREFLUSH_ROUNDS,
                res => res?,
            }
        }
        Ok(())
    }

    /// One scoped `Fsync` of `ino`, sent again while the DPU answers
    /// EAGAIN: a writer held a page of the inode through the flush pass,
    /// so the reply could not promise it. The writer may be one of this
    /// host's, holding its claims across a crossing queued behind the
    /// `Fsync` — so the DPU never waits for it, and the host yields
    /// before asking again.
    fn sync_ino(&self, ino: u64) -> Result<(), DpcError> {
        loop {
            match self.call(&FileRequest::Fsync { ino }, b"") {
                Err(DpcError::AGAIN) => std::thread::yield_now(),
                res => return res.map(drop),
            }
        }
    }

    /// Cross `segments`, back to back from `offset`, in `Write` commands
    /// that fit a transport buffer (its write half also holds an SGL's
    /// descriptor list and, when it does not ride the SQE, the header): one
    /// piece goes as a plain payload, more as an SGL. Returns the bytes the
    /// backend took: short when a later command fails (see
    /// [`short`](Self::short)).
    fn cross_write(&self, ino: u64, offset: u64, segments: &[&[u8]]) -> Result<usize, DpcError> {
        // Page-aligned when the buffer holds a page, so no crossing but
        // the last splits one.
        let room = self.max_io - SGL_LIST_CAP - READ_HEADER_CAP;
        let room = match room / PAGE_SIZE {
            0 => room,
            pages => pages * PAGE_SIZE,
        };
        let (mut written, mut rest) = (0usize, segments.iter().copied());
        let mut cur: &[u8] = &[];
        let mut pieces: [&[u8]; SGL_MAX_SEGMENTS] = [&[]; SGL_MAX_SEGMENTS];
        loop {
            let (mut count, mut len) = (0, 0);
            while count < SGL_MAX_SEGMENTS && len < room {
                if cur.is_empty() {
                    match rest.next() {
                        Some(seg) => cur = seg,
                        None => break,
                    }
                    continue;
                }
                let take = cur.len().min(room - len);
                (pieces[count], cur) = cur.split_at(take);
                count += 1;
                len += take;
            }
            let req = FileRequest::Write {
                ino,
                offset: offset + written as u64,
                len: len as u32,
            };
            let resp = match pieces[..count] {
                [] => return Ok(written),
                [one] => self.call(&req, one),
                ref gather => {
                    let done = self
                        .pool
                        .call_sgl(DispatchType::Standalone, &req, gather, 0);
                    reply(done).map(|(resp, _)| resp)
                }
            };
            let n = match resp {
                Ok(FileResponse::Bytes(n)) => n,
                Ok(_) => return self.short(written, DpcError::IO),
                Err(e) => return self.short(written, e),
            };
            written += n as usize;
            if (n as usize) < len {
                return Ok(written);
            }
        }
    }

    /// Read at `offset`. Buffered mode checks the hybrid cache page by
    /// page before asking the DPU (the fs-adapter's read path).
    pub fn read(&self, fd: Fd, offset: u64, dst: &mut [u8]) -> Result<usize, DpcError> {
        let entry = self.fds.get(fd)?;
        let (ino, size) = (entry.ino, entry.cell.size.load(Ordering::Acquire));
        if offset >= size || dst.is_empty() {
            return Ok(0);
        }
        let n = ((size - offset) as usize).min(dst.len());

        match self.mode {
            IoMode::Direct => {
                // The backend must hold what this host wrote (O_DIRECT
                // coherence), then the reads go in buffer-sized pieces.
                let last = offset + n as u64 - 1;
                self.flush_range(ino, offset / PAGE_SIZE as u64..=last / PAGE_SIZE as u64)?;
                let room = self.max_io - READ_HEADER_CAP;
                let mut got = 0;
                while got < n {
                    let len = (n - got).min(room);
                    let k = self.read_into(ino, offset + got as u64, &mut dst[got..got + len])?;
                    got += k;
                    if k < len {
                        break;
                    }
                }
                Ok(got)
            }
            IoMode::Buffered => {
                let dst = &mut dst[..n];
                // Page scratch for the settled-copy path and a miss run's
                // short tail page only: neither an all-hit read nor a miss
                // of whole pages ever sizes (allocates) it.
                let mut page: Vec<u8> = Vec::new();
                // Pass 1: serve cache hits zero-copy, gather the misses
                // into contiguous runs. A hit borrows the shared pool page
                // through an epoch-validated `ReadRef` and lands the bytes
                // straight in the caller's buffer — exactly one copy, at
                // the user boundary, for whole-page and partial reads
                // alike. A torn validation (writer moved the page
                // mid-read) falls back to the bounded-retry locked copy
                // path. A hit that consumed a readahead marker page is
                // remembered so the DPU can be told (once per call) to
                // plan the next window while this one is still being
                // consumed.
                let mut runs = [Run::default(); MAX_RUNS];
                let (mut k, mut marker_hint) = (0, None);
                let last = (offset + n as u64 - 1) / PAGE_SIZE as u64;
                for lpn in offset / PAGE_SIZE as u64..=last {
                    let (pos, in_page, take) = page_span(offset, n, lpn);
                    let hint = match self.cache.lookup_read_ref(ino, lpn) {
                        Some(r) => {
                            r.read(in_page, &mut dst[pos..pos + take]);
                            match r.finish() {
                                Some(hint) => Some(hint),
                                // Torn: the provisional bytes in `dst`
                                // are overwritten by whichever settled
                                // copy (or miss fill) follows.
                                None => {
                                    page.resize(PAGE_SIZE, 0);
                                    self.cache
                                        .lookup_read_hint(ino, lpn, &mut page)
                                        .inspect(|_| {
                                            dst[pos..pos + take]
                                                .copy_from_slice(&page[in_page..in_page + take]);
                                        })
                                }
                            }
                        }
                        None => {
                            self.cache.note_read_miss();
                            None
                        }
                    };
                    match hint {
                        Some(hint) => {
                            if hint.marker && marker_hint.is_none() {
                                marker_hint = Some(lpn);
                            }
                        }
                        None => match runs[..k].last_mut() {
                            Some(r)
                                if r.pages < MAX_MISS_RUN_PAGES
                                    && r.lpn + r.pages as u64 == lpn =>
                            {
                                r.pages += 1;
                            }
                            _ => {
                                if k == MAX_RUNS {
                                    self.fetch_runs(ino, offset, &runs, dst, &mut page)?;
                                    k = 0;
                                }
                                runs[k] = Run { lpn, pages: 1 };
                                k += 1;
                            }
                        },
                    }
                }
                // Pass 2: fetch each run with ONE spanning read (the DPU
                // serves it as one vectored KVFS extent read); the runs
                // themselves go out together, under one doorbell while
                // they fit a ring. A lone miss is one command.
                self.fetch_runs(ino, offset, &runs[..k], dst, &mut page)?;
                if let Some(lpn) = marker_hint {
                    // Async trigger: one fire-and-forget hint per read
                    // call; the DPU plans (and background-fills) the next
                    // window. Errors just mean no readahead this round.
                    let _ = self.call(&FileRequest::ReadaheadHint { ino, lpn }, b"");
                }
                Ok(n)
            }
        }
    }

    /// Fetch the miss `runs` of the read of `dst.len()` bytes at `offset`
    /// and land each reply: `dst`, and every page the cache still lacks
    /// filled clean. All runs are staged before the first is waited — one
    /// doorbell while they fit a ring, never a round trip after a round
    /// trip. Every ticket is waited whatever an earlier one said; the
    /// first error wins.
    fn fetch_runs(
        &self,
        ino: u64,
        offset: u64,
        runs: &[Run],
        dst: &mut [u8],
        page: &mut Vec<u8>,
    ) -> Result<(), DpcError> {
        if runs.is_empty() {
            return Ok(());
        }
        let reqs: [FileRequest; MAX_RUNS] = std::array::from_fn(|i| {
            let r = runs.get(i).copied().unwrap_or_default();
            let (offset, len) = (r.lpn * PAGE_SIZE as u64, (r.pages * PAGE_SIZE) as u32);
            FileRequest::Read { ino, offset, len }
        });
        let sides = Sides {
            dispatch: DispatchType::Standalone,
            write: Payload::Flat(b""),
            read_len: runs.iter().map(|r| r.pages * PAGE_SIZE).max().unwrap_or(0) as u32,
        };
        let mut tickets = [Ticket::default(); MAX_RUNS];
        let (mut landed, mut next) = (Ok(()), 0);
        while next < runs.len() {
            let q = self.pool.preferred_queue();
            let staged = self
                .pool
                .stage(q, &sides, &reqs[next..runs.len()], &mut tickets[next..]);
            let batch = runs[next..].iter().zip(&reqs[next..]);
            for ((run, req), &ticket) in batch.zip(&tickets[next..next + staged]) {
                let done = self.pool.wait(ticket, &sides, req, |resp, payload| {
                    match resp {
                        FileResponse::Bytes(_) => {}
                        FileResponse::Err(e) => return Err(DpcError(e)),
                        _ => return Err(DpcError::IO),
                    }
                    self.land_run(ino, offset, *run, payload, dst, page);
                    Ok(())
                });
                landed = landed.and(done.map_err(|e| DpcError(e.errno())).and_then(|r| r));
            }
            next += staged;
        }
        landed
    }

    /// Land one run's reply. The run's overlap with the read goes from the
    /// transport buffer into `dst` in one copy, zeros past what the backend
    /// had; then each page the cache lacks is filled clean from `dst` —
    /// through the zero-padded scratch `page` only when `dst` holds part of
    /// it (the first or last page of an unaligned or short read) — while
    /// the cache has a free slot. A full cache is not tried.
    fn land_run(
        &self,
        ino: u64,
        offset: u64,
        run: Run,
        payload: Reply<'_>,
        dst: &mut [u8],
        page: &mut Vec<u8>,
    ) {
        let got = payload.len();
        let base = run.lpn * PAGE_SIZE as u64;
        let start = base.max(offset);
        let end = (base + (run.pages * PAGE_SIZE) as u64).min(offset + dst.len() as u64);
        let have = (base + got as u64).clamp(start, end);
        let [from, split, to] = [start, have, end].map(|at| (at - offset) as usize);
        if split > from {
            payload.copy_to((start - base) as usize, &mut dst[from..split]);
        }
        dst[split..to].fill(0);
        if run.pages > 1 {
            self.cache.note_vector_fill();
        }
        for k in 0..run.pages {
            let lpn = run.lpn + k as u64;
            let valid = got.saturating_sub(k * PAGE_SIZE).min(PAGE_SIZE);
            // The fill only ever takes a free slot: on a full cache, one
            // relaxed load instead of a bucket claim and two chain walks
            // that end in `NeedEviction`.
            if valid == 0 || self.cache.header().free() == 0 {
                continue;
            }
            let (pos, _, take) = page_span(offset, dst.len(), lpn);
            let src: &[u8] = if take == PAGE_SIZE {
                &dst[pos..pos + PAGE_SIZE]
            } else {
                page.resize(PAGE_SIZE, 0);
                payload.copy_to(k * PAGE_SIZE, &mut page[..valid]);
                page[valid..].fill(0);
                page
            };
            // Fill the cache clean (front-end read protocol). Only a
            // freshly claimed entry may be written: a page that appeared
            // since pass 1 belongs to a concurrent writer (possibly dirty)
            // and must not be clobbered with the older backend bytes. Only
            // the fetched prefix is marked valid — the zero padding of a
            // tail page must never be flushed (size inflation).
            if let Ok(mut g) = self.cache.begin_write(ino, lpn) {
                if g.claimed_free() {
                    g.write(0, src);
                    g.set_valid(valid);
                    g.commit_clean();
                }
            }
        }
    }

    /// One uncached `Read` of `dst.len()` bytes at `offset`, landed from
    /// the transport buffer straight into `dst`. Returns the bytes the
    /// backend had: fewer than asked at end of file.
    fn read_into(&self, ino: u64, offset: u64, dst: &mut [u8]) -> Result<usize, DpcError> {
        let len = dst.len() as u32;
        let req = FileRequest::Read { ino, offset, len };
        let sides = Sides {
            dispatch: DispatchType::Standalone,
            write: Payload::Flat(b""),
            read_len: len,
        };
        let mut ticket = Ticket::default();
        let one = std::slice::from_mut(&mut ticket);
        let q = self.pool.preferred_queue();
        self.pool.stage(q, &sides, std::slice::from_ref(&req), one);
        let land = |resp, payload: Reply<'_>| match resp {
            // The transport refuses a reply longer than `len`.
            FileResponse::Bytes(_) => {
                payload.copy_to(0, &mut dst[..payload.len()]);
                Ok(payload.len())
            }
            FileResponse::Err(e) => Err(DpcError(e)),
            _ => Err(DpcError::IO),
        };
        let done = self.pool.wait(ticket, &sides, &req, land);
        done.map_err(|e| DpcError(e.errno()))?
    }

    /// Vectored write (writev): the segments cross nvme-fs as an SGL —
    /// one DMA per segment, no host-side coalescing copy. Always a durable
    /// direct write, whatever the I/O mode says (gathering through the
    /// page cache would defeat the point).
    pub fn writev(&self, fd: Fd, offset: u64, segments: &[&[u8]]) -> Result<usize, DpcError> {
        self.write_direct(&*self.fds.get(fd)?, offset, segments)
    }

    /// Flush buffered data: the scoped `Fsync` of the inode, and nothing
    /// else — the flush lands the backend on the size the pages make.
    ///
    /// Two durability tiers (DESIGN.md §4.6): [`FsyncMode::Data`] flushes
    /// dirty pages; [`FsyncMode::Log`] returns at once — the acknowledged
    /// writes already survive a DPU reset, as dirty pages or as the records
    /// of the ops that bypassed the pool.
    pub fn fsync(&self, fd: Fd) -> Result<(), DpcError> {
        let entry = self.fds.get(fd)?;
        if self.fsync_mode == FsyncMode::Log {
            return Ok(());
        }
        let ino = entry.ino;
        // Sampled before the request leaves: whatever this fsync covers
        // had landed before now (see `InodeCell::is_clean`).
        let covers = entry.cell.landed.load(Ordering::Acquire);
        let synced = self.sync_ino(ino);
        // The flush rewrote the backend's size and mtime (even a refused
        // pass may have landed a batch): drop the cached attribute after
        // it, not before, so a `stat` that raced it cannot leave the size
        // it replaced behind — an `open` after the last close starts from
        // it, and would read the file short.
        self.meta.invalidate_ino(ino);
        synced?;
        entry.cell.synced.fetch_max(covers, Ordering::AcqRel);
        Ok(())
    }

    pub fn truncate(&self, fd: Fd, size: u64) -> Result<(), DpcError> {
        let entry = self.fds.get(fd)?;
        let (ino, old) = (entry.ino, entry.cell.size.load(Ordering::Acquire));
        let _mutation = entry.cell.mutation();
        // The pool cannot express a truncate: its record is appended before
        // anything moves and retired at ack. Live at a crash, it has
        // recovery truncate the store and drop the inode's adopted pages.
        let seq = self.log_op(WalKind::Truncate, ino, size, b"")?;
        let shrinks = size < old;
        if shrinks {
            // Before the cut crosses: `invalidate` and the clip's claim wait
            // out a flush that holds the page, so a flush that took it
            // earlier lands before the cut, and a later one finds nothing
            // past the end to grow the file back with. A `Truncate` that
            // then fails has still dropped them: bytes the caller asked to
            // cut.
            self.cut_pages(ino, size, old);
        }
        let res = self.call(&FileRequest::Truncate { ino, size }, b"");
        self.retire(seq, res.is_ok());
        // After the call, as in `fsync`: the size it replaced is stale.
        self.meta.invalidate_ino(ino);
        res?;
        if shrinks {
            // And once it has landed: a fill that read the store before the
            // cut — a prefetch window, whose epoch check the first pass's
            // bump came too early for — may have landed pages since.
            self.cut_pages(ino, size, old);
        }
        entry.cell.size.store(size, Ordering::Release);
        Ok(())
    }

    /// Drop `ino`'s cached pages past `size` up to `old`, and clip the
    /// boundary page's valid length to `size`.
    fn cut_pages(&self, ino: u64, size: u64, old: u64) {
        let first = size.div_ceil(PAGE_SIZE as u64);
        let last = old.div_ceil(PAGE_SIZE as u64);
        for lpn in first..=last {
            self.cache.invalidate(ino, lpn);
        }
        let tail = (size % PAGE_SIZE as u64) as usize;
        if tail != 0 {
            if let Ok(mut g) = self.cache.begin_write(ino, size / PAGE_SIZE as u64) {
                if g.claimed_free() {
                    // Wasn't cached; roll the claim back.
                    drop(g);
                } else {
                    g.set_valid(tail);
                    g.commit_dirty();
                }
            }
        }
    }

    /// File size as tracked by the adapter.
    pub fn size(&self, fd: Fd) -> Result<u64, DpcError> {
        self.fds
            .get(fd)
            .map(|e| e.cell.size.load(Ordering::Acquire))
    }

    // ---- distributed (DFS) dispatch -------------------------------------
    //
    // These send commands with the SQE dispatch bit set to Distributed, so
    // the DPU's IO-dispatch routes them to the offloaded DFS client
    // (requires `DpcConfig::dfs`). The DFS data path is 8 KiB-block
    // granular, mirroring the backend's EC stripe unit.

    fn dfs_call(
        &self,
        req: &FileRequest,
        payload: &[u8],
        read_len: u32,
    ) -> Result<(FileResponse, Vec<u8>), DpcError> {
        reply(
            self.pool
                .call(DispatchType::Distributed, req, payload, read_len),
        )
    }

    /// Create a DFS file; returns its inode. A name over
    /// [`MAX_NAME_LEN`] is ENAMETOOLONG, as KVFS answers it.
    pub fn dfs_create(&self, parent: u64, name: &str) -> Result<u64, DpcError> {
        Self::dfs_name(name)?;
        let (resp, _) = self.dfs_call(
            &FileRequest::Create {
                parent,
                name: name.to_string(),
                mode: 0o644,
            },
            b"",
            0,
        )?;
        match resp {
            FileResponse::Ino(i) => Ok(i),
            _ => Err(DpcError::IO),
        }
    }

    /// The inode of DFS file `name` under `parent`; a name over
    /// [`MAX_NAME_LEN`] is ENAMETOOLONG.
    pub fn dfs_lookup(&self, parent: u64, name: &str) -> Result<u64, DpcError> {
        Self::dfs_name(name)?;
        let (resp, _) = self.dfs_call(
            &FileRequest::Lookup {
                parent,
                name: name.to_string(),
            },
            b"",
            0,
        )?;
        match resp {
            FileResponse::Ino(i) => Ok(i),
            _ => Err(DpcError::IO),
        }
    }

    pub fn dfs_getattr(&self, ino: u64) -> Result<WireAttr, DpcError> {
        let (resp, _) = self.dfs_call(&FileRequest::GetAttr { ino }, b"", 0)?;
        match resp {
            FileResponse::Attr(a) => Ok(a),
            _ => Err(DpcError::IO),
        }
    }

    /// ENAMETOOLONG for a name too long to encode; the DPU answers the
    /// rest of the KVFS name rule.
    fn dfs_name(name: &str) -> Result<(), DpcError> {
        if name.len() > MAX_NAME_LEN {
            return Err(DpcError::NAME_TOO_LONG);
        }
        Ok(())
    }

    /// Byte offset of DFS block `block`; EINVAL when it does not fit.
    fn dfs_block_offset(block: u64) -> Result<u64, DpcError> {
        block.checked_mul(DFS_BLOCK as u64).ok_or(DpcError::INVALID)
    }

    /// Write one 8 KiB-aligned block (at most 8 KiB of data) through the
    /// offloaded DFS client.
    pub fn dfs_write_block(&self, ino: u64, block: u64, data: &[u8]) -> Result<usize, DpcError> {
        if data.len() > DFS_BLOCK {
            return Err(DpcError::INVALID);
        }
        let (resp, _) = self.dfs_call(
            &FileRequest::Write {
                ino,
                offset: Self::dfs_block_offset(block)?,
                len: data.len() as u32,
            },
            data,
            0,
        )?;
        match resp {
            FileResponse::Bytes(n) => Ok(n as usize),
            _ => Err(DpcError::IO),
        }
    }

    /// Read one 8 KiB block through the offloaded DFS client.
    pub fn dfs_read_block(&self, ino: u64, block: u64) -> Result<Vec<u8>, DpcError> {
        let (resp, payload) = self.dfs_call(
            &FileRequest::Read {
                ino,
                offset: Self::dfs_block_offset(block)?,
                len: DFS_BLOCK as u32,
            },
            b"",
            DFS_BLOCK as u32,
        )?;
        match resp {
            FileResponse::Bytes(_) => Ok(payload),
            _ => Err(DpcError::IO),
        }
    }

    /// Flush the offloaded client's lazily batched metadata.
    pub fn dfs_sync(&self) -> Result<(), DpcError> {
        self.dfs_call(&FileRequest::Fsync { ino: 0 }, b"", 0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_size_cell_lives_exactly_as_long_as_its_last_holder() {
        let sizes = Arc::new(InodeSizes::new());
        let a = Arc::new(FdEntry::open(&sizes, 7, 100, None).unwrap());
        // A second descriptor adopts the live cell, not the backend size.
        let b = FdEntry::open(&sizes, 7, 0, None).unwrap();
        assert_eq!(b.cell.size.load(Ordering::Acquire), 100);
        let in_flight = a.clone();
        drop((a, b));
        // An op that still borrows a closed descriptor keeps the cell…
        assert_eq!(sizes.open.load(Ordering::Acquire), 1);
        assert_eq!(sizes.open_size(7), Some(100));
        // …and takes it along when it returns: nothing is left behind.
        drop(in_flight);
        assert_eq!(sizes.open.load(Ordering::Acquire), 0);
        assert_eq!(sizes.open_size(7), None);
        assert_eq!(
            FdEntry::open(&sizes, 7, 5, None)
                .unwrap()
                .cell
                .size
                .load(Ordering::Acquire),
            5
        );
    }

    #[test]
    fn an_fsync_covers_no_mutation_still_in_flight() {
        let cell = InodeCell::new(0);
        assert!(cell.is_clean());
        let write = cell.mutation();
        assert!(!cell.is_clean());
        // An fsync samples while the write has not landed its pages…
        let covers = cell.landed.load(Ordering::Acquire);
        cell.synced.fetch_max(covers, Ordering::AcqRel);
        assert!(!cell.is_clean());
        drop(write);
        // …so the close after it still flushes.
        assert!(!cell.is_clean());
        let covers = cell.landed.load(Ordering::Acquire);
        cell.synced.fetch_max(covers, Ordering::AcqRel);
        assert!(cell.is_clean());
    }

    #[test]
    fn a_size_read_before_a_last_close_starts_no_cell() {
        let sizes = Arc::new(InodeSizes::new());
        let writer = FdEntry::open(&sizes, 7, 0, None).unwrap();
        writer.cell.size.store(8192, Ordering::Release);
        // A reader samples, reads the backend's 0 — and the writer's close
        // (which flushed 8 KiB) removes the cell before the reader's open.
        let seen = sizes.released();
        drop(writer);
        assert!(FdEntry::open(&sizes, 7, 0, Some(seen)).is_none());
        // Read again after the close: the cell starts from that size.
        let seen = sizes.released();
        let reader = FdEntry::open(&sizes, 7, 8192, Some(seen)).unwrap();
        assert_eq!(reader.cell.size.load(Ordering::Acquire), 8192);
        // A live cell is adopted whatever was released meanwhile.
        drop(FdEntry::open(&sizes, 9, 0, None));
        let again = FdEntry::open(&sizes, 7, 0, Some(seen)).unwrap();
        assert_eq!(again.cell.size.load(Ordering::Acquire), 8192);
    }
}

//! The host-side *fs-adapter* (Figure 3).
//!
//! The fs-adapter replaces FUSE under the VFS: it serves reads and
//! absorbs writes from the hybrid cache's host-resident data plane, and
//! converts everything else into nvme-fs messages. [`DpcFs`] is that
//! adapter plus a small fd table — the file API applications use.
//!
//! Concurrency model (see DESIGN.md §7): the adapter holds **no** big
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
//! prefix, so after a flush the backend normally agrees; the `Fsync`
//! reply carries the backend's size and `fsync` sends a reconciling
//! `Truncate` only when it differs (DESIGN.md §9.1).

use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_cache::{
    HybridCache, IntentLog, MetaAttr, MetaCache, NameLookup, WalError, WalKind, WriteError,
    KIND_DIR, KIND_FILE, PAGE_SIZE,
};
use dpc_dfs::DFS_BLOCK;
use dpc_nvmefs::{
    decode_dirents, decode_dirents_into, CallError, ChannelPool, DispatchType, FileCompletion,
    FileRequest, FileResponse, Payload, Sides, Ticket, WireAttr, WireDirent, WireStep,
    MAX_NAME_LEN, MAX_PATH_LEN, READ_HEADER_CAP, SGL_LIST_CAP, SGL_MAX_SEGMENTS,
};
use parking_lot::Mutex;

use crate::dispatch::FSYNC_ALL;

/// Errors surfaced by the adapter (errno-carrying).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DpcError(pub i32);

impl DpcError {
    pub fn errno(&self) -> i32 {
        self.0
    }

    pub const NOT_FOUND: DpcError = DpcError(2);
    pub const EXISTS: DpcError = DpcError(17);
    pub const INVALID: DpcError = DpcError(22);
    pub const IO: DpcError = DpcError(5);
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
    fn open(sizes: &Arc<InodeSizes>, ino: u64, backend_size: u64) -> FdEntry {
        FdEntry {
            ino,
            cell: sizes.open(ino, backend_size),
            sizes: sizes.clone(),
        }
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
/// and `close` see. (Per-descriptor sizes made `close` reconcile the
/// backend to a stale private size and cut another descriptor's fsynced
/// data.) Each map entry counts its holders; the last one out removes it.
pub(crate) struct InodeSizes {
    shards: [Mutex<SizeShard>; FD_SHARDS],
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
    /// The `mutations` value a successful scoped `Fsync` is known to
    /// cover: the one sampled before that request was sent.
    synced: AtomicU64,
}

impl InodeCell {
    fn new(size: u64) -> InodeCell {
        InodeCell {
            size: AtomicU64::new(size),
            mutations: AtomicU64::new(0),
            synced: AtomicU64::new(0),
        }
    }

    fn note_mutation(&self) {
        self.mutations.fetch_add(1, Ordering::AcqRel);
    }

    /// Nothing was modified since the last covering fsync: no page of
    /// this inode can have been dirtied by this host since, and the
    /// logical size is the one that fsync reconciled — a `close` has
    /// nothing to flush and nothing to reconcile. (A mutation racing the
    /// fsync bumps `mutations` past the value the fsync sampled, so it is
    /// never taken for covered. A fresh cell is clean: whoever closed last
    /// either was clean or synced on its way out.)
    fn is_clean(&self) -> bool {
        self.synced.load(Ordering::Acquire) == self.mutations.load(Ordering::Acquire)
    }
}

impl InodeSizes {
    pub(crate) fn new() -> InodeSizes {
        InodeSizes {
            shards: std::array::from_fn(|_| Mutex::default()),
            idle: Arc::new(InodeCell::new(0)),
        }
    }

    fn shard(&self, ino: u64) -> &Mutex<SizeShard> {
        &self.shards[(ino % FD_SHARDS as u64) as usize]
    }

    /// Take a hold on the cell of `ino`. While some descriptor holds the
    /// inode open its logical size wins (the backend's may lag unflushed
    /// writes); otherwise the cell starts at `backend_size`.
    fn open(&self, ino: u64, backend_size: u64) -> Arc<InodeCell> {
        let mut shard = self.shard(ino).lock();
        let SizeShard { open, spare } = &mut *shard;
        let cell = open.entry(ino).or_insert_with(|| SizeCell {
            holders: 0,
            cell: recycled(spare, InodeCell::new(backend_size)),
        });
        cell.holders += 1;
        cell.cell.clone()
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
            if Arc::strong_count(&gone) == 1 && shard.spare.len() < SPARES {
                shard.spare.push(gone);
            }
        }
    }

    #[cfg(test)]
    fn open_inodes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().open.len()).sum()
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

/// What `fsync` waits for (DESIGN.md §13) — only meaningful when the
/// intent log is on; without one the adapter always behaves as `Data`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FsyncMode {
    /// Flush dirty pages to the backing store and reconcile the size —
    /// data-durable, the classic (and default) tier.
    Data,
    /// Return once every acknowledged write is in the intent log.
    /// Because the DPU appends the record *before* acking any buffered
    /// write, that is already true by the time `fsync` is called — the
    /// call is a no-op, and crash recovery replays the log to
    /// reconstruct the data. The cheap tier for intent-logged deployments.
    Log,
}

/// Admission verdict from the intent log for one data-plane op.
enum WalAdmit {
    /// No log attached — proceed exactly as before PR 8.
    None,
    /// Intent record appended (write-ahead of the mutation); the op must
    /// retire the carried seq as its pages/ack become durable.
    Logged(Arc<IntentLog>, u64),
    /// The payload can never fit the ring. The log was forcibly drained,
    /// so the op may proceed unlogged — but only *durably* (a buffered
    /// absorb would reopen the lost-ack window the log exists to close).
    Bypass,
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
    /// Host-side metadata cache (DESIGN.md §14), shared across every
    /// adapter of one `Dpc`.
    meta: Arc<MetaCache>,
    /// Per-direction capacity of one transport buffer: what an uncached
    /// op may move in one command.
    max_io: usize,
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

/// One page of the paper's front-end write protocol, shared by the host
/// absorb and by crash replay: claim the entry, read-modify-fill a fresh
/// partial page from `fetch_old` (which fills its buffer with the page's
/// durable bytes — over the link on the host, from KVFS in replay — and
/// returns how many are valid), write the chunk, register the intent
/// obligation under the entry lock, commit dirty. `Ok(Ok(()))` means the
/// cache absorbed the page; `Ok(Err(bucket))` reports a full bucket for
/// the caller to batch into one eviction command.
pub(crate) fn cache_write_page<E>(
    cache: &HybridCache,
    ino: u64,
    lpn: u64,
    in_page: usize,
    chunk: &[u8],
    wal: Option<(&Arc<IntentLog>, u64)>,
    fetch_old: impl FnOnce(&mut [u8]) -> Result<usize, E>,
) -> Result<Result<(), usize>, E> {
    match cache.begin_write(ino, lpn) {
        Ok(mut guard) => {
            if guard.claimed_free() && chunk.len() < PAGE_SIZE {
                // Scrub recycled pool bytes and lay down the old content
                // in one page write. Only the fetched bytes are *valid* —
                // the zero padding past them must never be flushed (it
                // would inflate the file's logical size).
                let mut old = [0u8; PAGE_SIZE];
                let valid = fetch_old(&mut old)?;
                guard.write(0, &old);
                guard.set_valid(valid);
            }
            guard.write(in_page, chunk);
            if let Some((log, seq)) = wal {
                // Register the obligation while still holding the
                // entry write lock: the moment `commit_dirty` lands,
                // a flusher may drain (and try to retire) this page.
                log.note_committed(ino, lpn, seq);
            }
            guard.commit_dirty();
            Ok(Ok(()))
        }
        Err(WriteError::NeedEviction { bucket }) => Ok(Err(bucket)),
    }
}

impl DpcFs {
    pub(crate) fn new(
        cache: Arc<HybridCache>,
        pool: Arc<ChannelPool>,
        sizes: Arc<InodeSizes>,
        mode: IoMode,
        fsync_mode: FsyncMode,
        meta: Arc<MetaCache>,
        max_io: usize,
    ) -> DpcFs {
        DpcFs {
            cache,
            pool,
            fds: FdTable::new(),
            sizes,
            mode,
            fsync_mode,
            meta,
            max_io,
        }
    }

    pub fn cache(&self) -> &Arc<HybridCache> {
        &self.cache
    }

    /// The shared channel multiplexer (diagnostics/tests).
    pub fn pool(&self) -> &Arc<ChannelPool> {
        &self.pool
    }

    fn call(
        &self,
        req: &FileRequest,
        payload: &[u8],
        read_len: u32,
    ) -> Result<(FileResponse, Vec<u8>), DpcError> {
        reply(
            self.pool
                .call(DispatchType::Standalone, req, payload, read_len),
        )
    }

    // ---- metadata fast path (DESIGN.md §14) ----------------------------

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

    // ---- namespace API (DESIGN.md §14) -----------------------------------
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
        let walked = legs.iter().map(|l| l.walked().count()).sum::<usize>();
        let room = walked * WireStep::SIZE;
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
    pub fn stat(&self, path: &str) -> Result<WireAttr, DpcError> {
        let leg = self.enter(path, false)?;
        if leg.rest.is_empty() {
            if let Some(a) = self.meta.get_attr(leg.start) {
                return Ok(Self::meta_to_wire(a));
            }
        }
        let seen = self.meta.epoch();
        let req = FileRequest::StatAt {
            start: leg.start,
            path: leg.rest.to_string(),
        };
        let (FileResponse::Attr(attr), ..) = self.ns_call(&req, &[leg], 0)? else {
            return Err(DpcError::IO);
        };
        self.meta.insert_attr_seen(Self::wire_to_meta(&attr), seen);
        Ok(attr)
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

    /// A name of the inode `attr` describes is gone (unlink, or a rename
    /// over it). Its host pages, WAL ownership and dirty data go only with
    /// the *last* name — the other names still open and read this inode —
    /// its cached attr always (nlink moved).
    fn name_removed(&self, attr: &WireAttr) {
        if attr.nlink == 0 {
            self.cache.invalidate_ino(attr.ino);
        }
        self.meta.invalidate_ino(attr.ino);
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
        Ok(self.fds.insert(FdEntry::open(&self.sizes, ino, 0)))
    }

    pub fn open(&self, path: &str) -> Result<Fd, DpcError> {
        let attr = self.stat(path)?;
        let entry = FdEntry::open(&self.sizes, attr.ino, attr.size);
        Ok(self.fds.insert(entry))
    }

    /// Make buffered data durable, then drop the descriptor. A descriptor
    /// whose inode nobody modified since its last successful `fsync`
    /// (opened, stat-ed, read) has nothing to flush or reconcile and sends
    /// nothing.
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
        // Listing capacity: half a megabyte of dirents (the slot reserves
        // READ_HEADER_CAP on top, so stay under max_io).
        let (resp, listing, [dir, _]) = self.ns_call(&req, &[leg], 512 * 1024)?;
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
        let (FileResponse::Attr(victim), parent, leaf) = self.mutate(path, unlink)? else {
            return Err(DpcError::IO);
        };
        self.name_removed(&victim);
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
        if let FileResponse::Attr(replaced) = resp {
            self.name_removed(&replaced);
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

    /// Append the intent record for one data-plane op (write-ahead: the
    /// record must be in the ring before the mutation is acknowledged —
    /// for a buffered write, before the cache absorbs a single page).
    ///
    /// A full ring is back-pressure, not an error: records retire as
    /// their pages become durable, so forcing flushes reclaims space.
    /// Each stall round escalates from a scoped fsync to a global one;
    /// a ring that stays full after a bounded number of rounds surfaces
    /// as EBUSY (`wal_stalls` counts every full-ring encounter). A
    /// payload larger than the whole ring drains the log and proceeds
    /// unlogged-but-durable ([`WalAdmit::Bypass`]); a tripped crash
    /// switch is EIO (the DPU is dead — nothing can be acknowledged).
    fn wal_admit(
        &self,
        kind: WalKind,
        ino: u64,
        offset: u64,
        payload: &[u8],
        obligations: u32,
    ) -> Result<WalAdmit, DpcError> {
        let Some(log) = self.cache.wal() else {
            return Ok(WalAdmit::None);
        };
        const STALL_ROUNDS: u32 = 32;
        let mut rounds = 0u32;
        loop {
            match log.try_append(kind, ino, offset, payload, obligations) {
                Ok(seq) => return Ok(WalAdmit::Logged(log, seq)),
                Err(WalError::Crashed) => return Err(DpcError::IO),
                Err(WalError::WouldBlock) => {
                    rounds += 1;
                    if rounds > STALL_ROUNDS {
                        return Err(DpcError(16 /* EBUSY */));
                    }
                    // Make this file's pages durable first (cheap,
                    // targeted); escalate to a global flush if the ring
                    // is pinned by other files' records.
                    let scope = if rounds <= 2 { ino } else { FSYNC_ALL };
                    self.call(&FileRequest::Fsync { ino: scope }, b"", 0)?;
                }
                Err(WalError::TooLarge) => {
                    let mut drain_rounds = 0u32;
                    while !log.is_drained() {
                        drain_rounds += 1;
                        if drain_rounds > STALL_ROUNDS {
                            return Err(DpcError(16 /* EBUSY */));
                        }
                        if log.crashed() {
                            return Err(DpcError::IO);
                        }
                        self.call(&FileRequest::Fsync { ino: FSYNC_ALL }, b"", 0)?;
                    }
                    return Ok(WalAdmit::Bypass);
                }
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
        entry.cell.note_mutation();
        // Size/mtime change: the cached attr is stale either way.
        self.meta.invalidate_ino(ino);
        // Write-ahead: the intent record must be on the ring before the
        // cache absorbs the first page — an acked buffered write is then
        // always recoverable.
        let first_lpn = offset / PAGE_SIZE as u64;
        let last_lpn = (end - 1) / PAGE_SIZE as u64;
        let pages = (last_lpn - first_lpn + 1) as u32;
        let wal = match self.wal_admit(WalKind::Write, ino, offset, data, pages)? {
            WalAdmit::None => None,
            WalAdmit::Logged(log, seq) => Some((log, seq)),
            WalAdmit::Bypass => return self.write_direct(&entry, offset, &[data]),
        };
        let res = self.write_buffered(&entry, ino, offset, end, data, wal.as_ref());
        if res.is_err() {
            if let Some((log, seq)) = &wal {
                // A non-crash error mid-write: pages that did commit
                // retire on flush; the rest must not pin the ring. After a
                // crash the record stays so replay redoes the whole
                // (ambiguous) op — some pages may already be committed or
                // durable, and only a full redo leaves a consistent
                // outcome.
                if !log.crashed() {
                    log.retire_all(*seq);
                }
            }
        }
        res
    }

    /// The buffered two-pass absorb (the paper's front-end write),
    /// factored out so the caller can void the intent record on error.
    fn write_buffered(
        &self,
        entry: &FdEntry,
        ino: u64,
        offset: u64,
        end: u64,
        data: &[u8],
        wal: Option<&(Arc<IntentLog>, u64)>,
    ) -> Result<usize, DpcError> {
        // Pass 1: absorb whatever the cache will take, remember
        // the pages whose bucket was full instead of evicting
        // inline — a dirty-heavy burst used to ping-pong one
        // CacheEvict round-trip per stalled page.
        struct Stalled {
            lpn: u64,
            in_page: usize,
            pos: usize,
            len: usize,
        }
        let wal = wal.map(|(log, seq)| (log, *seq));
        // A partial write into a fresh page fetches the old content from
        // the DPU first (read-modify-write).
        let absorb = |lpn: u64, in_page: usize, chunk: &[u8]| {
            cache_write_page(&self.cache, ino, lpn, in_page, chunk, wal, |old| {
                let (_, payload) = self.call(
                    &FileRequest::Read {
                        ino,
                        offset: lpn * PAGE_SIZE as u64,
                        len: PAGE_SIZE as u32,
                    },
                    b"",
                    PAGE_SIZE as u32,
                )?;
                let n = payload.len().min(old.len());
                old[..n].copy_from_slice(&payload[..n]);
                Ok::<_, DpcError>(n)
            })
        };
        let mut stalled: Vec<Stalled> = Vec::new();
        let mut buckets: Vec<u64> = Vec::new();
        let mut pos = 0usize;
        let mut off = offset;
        while pos < data.len() {
            let lpn = off / PAGE_SIZE as u64;
            let in_page = (off % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - pos);
            match absorb(lpn, in_page, &data[pos..pos + n])? {
                Ok(()) => {}
                Err(bucket) => {
                    self.cache.note_evict_stall();
                    stalled.push(Stalled {
                        lpn,
                        in_page,
                        pos,
                        len: n,
                    });
                    // One occurrence per needed slot — duplicates
                    // are deliberate.
                    buckets.push(bucket as u64);
                }
            }
            pos += n;
            off += n as u64;
        }
        // Pass 2: one batched eviction round-trip frees a slot
        // per stalled page, then each page retries once. EBUSY
        // means the DPU could not free anything even after a
        // flush pass — retrying is pointless, write through.
        if !stalled.is_empty() {
            let evicted = match self.call(
                &FileRequest::CacheEvictBatch {
                    buckets: std::mem::take(&mut buckets),
                },
                b"",
                0,
            ) {
                Ok(_) => true,
                Err(DpcError(16 /* EBUSY */)) => false,
                Err(e) => return Err(e),
            };
            for s in &stalled {
                let chunk = &data[s.pos..s.pos + s.len];
                if evicted && absorb(s.lpn, s.in_page, chunk)?.is_ok() {
                    continue;
                }
                self.cache.note_write_through();
                let at = s.lpn * PAGE_SIZE as u64 + s.in_page as u64;
                self.cross_write(ino, at, &[chunk])?;
                if let Some((log, seq)) = wal {
                    // Written through durably: that page's
                    // obligation is already met.
                    log.retire_page(seq);
                }
            }
        }
        entry.cell.size.fetch_max(end, Ordering::AcqRel);
        Ok(data.len())
    }

    /// The one uncached write: `IoMode::Direct`, `writev`, and a buffered
    /// write the intent log can never hold ([`WalAdmit::Bypass`]). The
    /// O_DIRECT rule, in order: the dirty cached pages it overlaps reach
    /// the backend first; the intent record orders it against live
    /// buffered records under positional replay; the segments cross; the
    /// touched pages leave the cache, so no read serves the bytes they
    /// replaced; the logical size grows.
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
        let end = offset.checked_add(total as u64).ok_or(DpcError::INVALID)?;
        let ino = entry.ino;
        entry.cell.note_mutation();
        self.meta.invalidate_ino(ino);
        // Inclusive last touched page, NOT div_ceil: one page too far would
        // drop a dirty page past the write that the pre-flush never covered.
        let pages = offset / PAGE_SIZE as u64..=(end - 1) / PAGE_SIZE as u64;
        self.flush_range(ino, pages.clone())?;
        // Replay needs the bytes contiguous: a gather is flattened for the
        // log only; the wire path still crosses as an SGL.
        let admit = match segments {
            _ if self.cache.wal().is_none() => WalAdmit::None,
            [one] => self.wal_admit(WalKind::Write, ino, offset, one, 1)?,
            _ => self.wal_admit(WalKind::Write, ino, offset, &segments.concat(), 1)?,
        };
        let res = self.cross_write(ino, offset, segments);
        if let WalAdmit::Logged(log, seq) = &admit {
            // Durable at ack; voided on a non-crash error. After a crash
            // the op is ambiguous — the record must stay live so positional
            // replay resolves it one way.
            if res.is_ok() || !log.crashed() {
                log.retire_all(*seq);
            }
        }
        // Whatever part landed, no cached copy of it may stay readable.
        for lpn in pages {
            self.cache.invalidate(ino, lpn);
        }
        let n = res?;
        entry
            .cell
            .size
            .fetch_max(offset + n as u64, Ordering::AcqRel);
        Ok(n)
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
            match self.call(&FileRequest::Fsync { ino }, b"", 0) {
                // Some page of the inode was refused; the loop's test says
                // whether it was one of ours.
                Err(DpcError::IO) => rounds = PREFLUSH_ROUNDS,
                res => {
                    res?;
                }
            }
        }
        Ok(())
    }

    /// Cross `segments`, back to back from `offset`, in `Write` commands
    /// that fit a transport buffer (its write half also holds an SGL's
    /// descriptor list and, when it does not ride the SQE, the header): one
    /// piece goes as a plain payload, more as an SGL. Returns the bytes the
    /// backend took.
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
            let (resp, _) = match pieces[..count] {
                [] => return Ok(written),
                [one] => self.call(&req, one, 0)?,
                ref gather => reply(
                    self.pool
                        .call_sgl(DispatchType::Standalone, &req, gather, 0),
                )?,
            };
            let FileResponse::Bytes(n) = resp else {
                return Err(DpcError::IO);
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
                    let (resp, payload) = self.call(
                        &FileRequest::Read {
                            ino,
                            offset: offset + got as u64,
                            len: len as u32,
                        },
                        b"",
                        len as u32,
                    )?;
                    let FileResponse::Bytes(k) = resp else {
                        return Err(DpcError::IO);
                    };
                    let k = k as usize;
                    dst[got..got + k].copy_from_slice(&payload[..k]);
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
                    let _ = self.call(&FileRequest::ReadaheadHint { ino, lpn }, b"", 0);
                }
                Ok(n)
            }
        }
    }

    /// Fetch the miss `runs` of the read of `dst.len()` bytes at `offset`
    /// and land each reply: every page the cache still lacks filled clean,
    /// and `dst`. All runs are staged before the first is waited — one
    /// doorbell while they fit a ring, never a round trip after a round
    /// trip — and each is read out of its mailbox in place. Every ticket
    /// is waited whatever an earlier one said; the first error wins.
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
                let done = self.pool.wait(ticket, &sides, req, |resp, done| {
                    let got = match resp {
                        FileResponse::Bytes(got) => got as usize,
                        FileResponse::Err(e) => return Err(DpcError(e)),
                        _ => return Err(DpcError::IO),
                    };
                    if run.pages > 1 {
                        self.cache.note_vector_fill();
                    }
                    for k in 0..run.pages {
                        let lpn = run.lpn + k as u64;
                        let valid = got.saturating_sub(k * PAGE_SIZE).min(PAGE_SIZE);
                        // A whole page is served straight from the reply;
                        // only a short tail page (or one past what the
                        // backend had) goes through the zero-padded
                        // scratch page.
                        let at = k * PAGE_SIZE;
                        let src: &[u8] = if valid == PAGE_SIZE {
                            &done.payload[at..at + PAGE_SIZE]
                        } else {
                            page.resize(PAGE_SIZE, 0);
                            if valid > 0 {
                                page[..valid].copy_from_slice(&done.payload[at..at + valid]);
                            }
                            page[valid..].fill(0);
                            page
                        };
                        // Fill the cache clean (front-end read protocol).
                        // Only a freshly claimed entry may be written: a
                        // page that appeared since pass 1 belongs to a
                        // concurrent writer (possibly dirty) and must not
                        // be clobbered with the older backend bytes. Only
                        // the fetched prefix is marked valid — the zero
                        // padding of a tail page must never be flushed
                        // (size inflation).
                        if valid > 0 {
                            if let Ok(mut g) = self.cache.begin_write(ino, lpn) {
                                if g.claimed_free() {
                                    g.write(0, src);
                                    g.set_valid(valid);
                                    g.commit_clean();
                                }
                            }
                        }
                        let (pos, in_page, take) = page_span(offset, dst.len(), lpn);
                        dst[pos..pos + take].copy_from_slice(&src[in_page..in_page + take]);
                    }
                    Ok(())
                });
                landed = landed.and(done.map_err(|e| DpcError(e.errno())).and_then(|r| r));
            }
            next += staged;
        }
        landed
    }

    /// Vectored write (writev): the segments cross nvme-fs as an SGL —
    /// one DMA per segment, no host-side coalescing copy. Always a durable
    /// direct write, whatever the I/O mode says (gathering through the
    /// page cache would defeat the point).
    pub fn writev(&self, fd: Fd, offset: u64, segments: &[&[u8]]) -> Result<usize, DpcError> {
        self.write_direct(&*self.fds.get(fd)?, offset, segments)
    }

    /// Flush buffered data and, if the backend then disagrees with the
    /// logical size, reconcile it.
    ///
    /// Two durability tiers (DESIGN.md §13): [`FsyncMode::Data`] flushes
    /// dirty pages and reconciles the size; [`FsyncMode::Log`] returns
    /// immediately when the intent log is attached — every acknowledged
    /// write already has its record on the ring (write-ahead of the
    /// ack), so log-durability holds by construction and recovery
    /// replays the rest.
    pub fn fsync(&self, fd: Fd) -> Result<(), DpcError> {
        let entry = self.fds.get(fd)?;
        if self.fsync_mode == FsyncMode::Log && self.cache.wal().is_some() {
            return Ok(());
        }
        let ino = entry.ino;
        // The flush rewrites the backend size/mtime.
        self.meta.invalidate_ino(ino);
        // Sampled before the request leaves: whatever this fsync covers
        // was written before now (see `InodeCell::is_clean`).
        let covers = entry.cell.mutations.load(Ordering::Acquire);
        let (resp, _) = self.call(&FileRequest::Fsync { ino }, b"", 0)?;
        let FileResponse::Attr(backend) = resp else {
            return Err(DpcError::IO);
        };
        // Size reconcile (kernel i_size): the flusher writes each page's
        // valid prefix, so the backend normally lands on the logical size
        // and this is the only crossing. It differs when the flush was
        // not the whole story — pages of a write that failed part-way —
        // and only then is the backend truncated to the size this host
        // acknowledged. A flush the backend refused never gets here: the
        // reply is EIO, the size stays unreconciled and `synced` stays
        // where it was, so `close` tries again. Known
        // limitation (ROADMAP item 5): the host's size is trusted even
        // over another `Dpc` on the same store, so a descriptor here can
        // cut growth that client fsynced; nothing keeps two clients
        // coherent yet. No intent record: replay reconciles every touched
        // file's size itself, from the records it redoes.
        let size = entry.cell.size.load(Ordering::Acquire);
        if backend.size != size {
            self.call(&FileRequest::Truncate { ino, size }, b"", 0)?;
        }
        entry.cell.synced.fetch_max(covers, Ordering::AcqRel);
        Ok(())
    }

    pub fn truncate(&self, fd: Fd, size: u64) -> Result<(), DpcError> {
        let entry = self.fds.get(fd)?;
        let (ino, old) = (entry.ino, entry.cell.size.load(Ordering::Acquire));
        entry.cell.note_mutation();
        self.meta.invalidate_ino(ino);
        // Write-ahead: the truncate record orders against live buffered
        // records (positional replay), so a post-crash redo of an older
        // write can never resurrect the clipped bytes. Durable at ack —
        // retired (voided) when the call returns, unless a crash made
        // the op ambiguous (then replay applies the surviving record).
        let admit = self.wal_admit(WalKind::Truncate, ino, size, b"", 1)?;
        let res = self.call(&FileRequest::Truncate { ino, size }, b"", 0);
        if let WalAdmit::Logged(log, seq) = &admit {
            if res.is_ok() || !log.crashed() {
                log.retire_all(*seq);
            }
        }
        res?;
        entry.cell.size.store(size, Ordering::Release);
        // Invalidate cached pages past the new end, and clip the valid
        // length of the boundary page so a later flush cannot re-extend
        // the file.
        if size < old {
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
        Ok(())
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

    /// Create a DFS file; returns its inode.
    pub fn dfs_create(&self, parent: u64, name: &str) -> Result<u64, DpcError> {
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

    pub fn dfs_lookup(&self, parent: u64, name: &str) -> Result<u64, DpcError> {
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

    /// List a DFS directory through the offloaded client (the MDS serves
    /// it as cursor-paginated per-shard snapshots; entries arrive in name
    /// order).
    pub fn dfs_readdir(&self, dir: u64) -> Result<Vec<WireDirent>, DpcError> {
        let (resp, payload) = self.dfs_call(&FileRequest::Readdir { ino: dir }, b"", 512 * 1024)?;
        let FileResponse::Entries(n) = resp else {
            return Err(DpcError::IO);
        };
        decode_dirents(&payload, n as usize).map_err(|_| DpcError::IO)
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
        let a = Arc::new(FdEntry::open(&sizes, 7, 100));
        // A second descriptor adopts the live cell, not the backend size.
        let b = FdEntry::open(&sizes, 7, 0);
        assert_eq!(b.cell.size.load(Ordering::Acquire), 100);
        let in_flight = a.clone();
        drop((a, b));
        // An op that still borrows a closed descriptor keeps the cell…
        assert_eq!(sizes.open_inodes(), 1);
        // …and takes it along when it returns: nothing is left behind.
        drop(in_flight);
        assert_eq!(sizes.open_inodes(), 0);
        assert_eq!(
            FdEntry::open(&sizes, 7, 5)
                .cell
                .size
                .load(Ordering::Acquire),
            5
        );
    }
}

//! Host-side metadata cache: one name table per directory, one attribute
//! table, one byte budget (DESIGN.md §4.7).
//!
//! The paper's DFS-offload pillar (§1) moves cache management — data *and*
//! metadata — next to the client; KucoFS (PAPERS.md) shows client-side
//! metadata with cheap validation is where stat-heavy small-file trees
//! win. This is the host half of that plane, in front of the nvme-fs
//! namespace requests: what the host already knows, it answers without a
//! crossing. Everything is striped over [`MetaConfig::shards`] mutexes by
//! inode number — a directory's table by the directory's, an attribute by
//! the file's.
//!
//! - **Name tables.** A cached directory is a [`Dir`]: its names, sorted,
//!   stored once in one arena. Holding the *whole* listing (`complete`)
//!   it answers a lookup either way — hit, or definitive ENOENT — and
//!   serves `readdir` in KV key order; holding only names a walk trail
//!   taught it (positive or observed-absent) it answers those and misses
//!   the rest. A local mutation that carries all it changed (create,
//!   mkdir, unlink, rmdir) **patches** the table and leaves it complete;
//!   one that does not (rename, link, symlink) forgets the name and the
//!   completeness with it.
//! - **Attributes.** A direct-mapped array of cache-line slots per shard,
//!   indexed by inode number: KVFS allocates those from a counter, so a
//!   tree's attributes pack densely; two live inodes on one slot grow the
//!   array while the budget has room and replace each other once not.
//! - **Budget.** Tables and slots are charged at their capacity against
//!   one byte budget. Going over it evicts from the shard at hand:
//!   attribute slots first, then its least recently used tables — a name
//!   costs ≈ 20 B and saves the listing, an attribute 64 B and one stat.
//!   Budget 0 holds nothing: every call takes the same path and crosses.
//!
//! Coherence is with *this* instance's mutations only: they patch or
//! invalidate as they return. An answer fetched before a mutation but
//! arriving after it is refused (`seen`, against the shard's last
//! mutation tick). Remote writers are bounded by [`MetaConfig::attr_ttl`]
//! and nothing else.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use parking_lot::{Mutex, MutexGuard};

/// Budget of [`MetaCache::new`]: what `Dpc` derives for its default
/// 4 096-page data cache.
pub const DEFAULT_META_BUDGET: usize = 2 << 20;

/// Metadata-cache geometry and policy.
#[derive(Copy, Clone, Debug)]
pub struct MetaConfig {
    /// Lock stripes (the PR 2 fd-table split). Clamped to ≥ 1.
    pub shards: usize,
    /// Whatever was fetched expires after this many logical ticks (one
    /// tick per local mutation); `0` = never.
    pub attr_ttl: u64,
    /// Answer ENOENT from a cached absence.
    pub negative: bool,
}

impl Default for MetaConfig {
    fn default() -> Self {
        MetaConfig {
            shards: 16,
            attr_ttl: 0,
            negative: true,
        }
    }
}

/// Cached file attributes — mirrors the wire `WireAttr` field-for-field
/// (this crate sits below the wire protocol, so it keeps its own copy).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MetaAttr {
    pub ino: u64,
    pub size: u64,
    pub mode: u32,
    pub nlink: u32,
    pub uid: u32,
    pub gid: u32,
    pub atime_ns: u64,
    pub mtime_ns: u64,
    pub ctime_ns: u64,
    /// 0 = file, 1 = dir, 2 = symlink.
    pub kind: u8,
}

pub const KIND_FILE: u8 = 0;
pub const KIND_DIR: u8 = 1;
const KIND_SYMLINK: u8 = 2;
/// A name a walk trail resolved: safe to walk through, `d_type` unknown.
const KIND_WALKED: u8 = 0xFE;
/// A name a walk found absent.
const KIND_ABSENT: u8 = 0xFF;

/// What the cache knows about one name of one directory.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NameLookup {
    /// The name maps to this ino (never a symlink's: those always cross).
    Hit(u64),
    /// Known absent — observed, or missing from a complete listing.
    Negative,
    /// Unknown: go to the backend.
    Miss,
}

/// Point-in-time counters, and the bytes charged to the budget.
#[derive(Copy, Clone, Debug, Default)]
pub struct MetaStats {
    pub attr_hits: u64,
    pub attr_misses: u64,
    pub dentry_hits: u64,
    pub dentry_misses: u64,
    pub neg_hits: u64,
    pub readdir_hits: u64,
    pub readdir_misses: u64,
    pub invalidations: u64,
    /// Attributes and name tables dropped to stay inside the budget.
    pub evictions: u64,
    pub bytes: u64,
}

#[derive(Default)]
struct Counters {
    attr_hits: AtomicU64,
    attr_misses: AtomicU64,
    dentry_hits: AtomicU64,
    dentry_misses: AtomicU64,
    neg_hits: AtomicU64,
    readdir_hits: AtomicU64,
    readdir_misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

/// One name of a [`Dir`]: 16 bytes beside its bytes in the arena.
#[derive(Copy, Clone)]
struct Name {
    ino: u64,
    off: u32,
    len: u16,
    kind: u8,
}

/// A sparse table (not a whole listing) holds at most this many names; the
/// one after starts it over, so an insert never shifts more than 16 KiB.
const SPARSE_MAX: usize = 1024;
/// Charged per table beside its two buffers: the struct and its map slot.
const DIR_FIXED: usize = 96;

/// The name table of one directory.
struct Dir {
    /// Sorted by name, which is KV key order: what `readdir` returns.
    names: Vec<Name>,
    arena: String,
    /// Arena bytes of removed names; `remove` rebuilds the arena once
    /// they are most of it.
    dead: usize,
    /// The whole listing: a name not here does not exist.
    complete: bool,
    /// Tick it was fetched at (TTL), shard clock it was last used at (LRU).
    stamp: u64,
    used: u64,
}

/// Room for `extra` more elements, an eighth at a time: doubling would
/// charge — and, once touched, hold — twice what the table needs.
fn reserve(len: usize, cap: usize, extra: usize) -> usize {
    if len + extra > cap {
        extra + len / 8 + 4
    } else {
        0
    }
}

impl Dir {
    fn new(names: usize, bytes: usize, stamp: u64) -> Dir {
        Dir {
            names: Vec::with_capacity(names),
            arena: String::with_capacity(bytes),
            dead: 0,
            complete: false,
            stamp,
            used: 0,
        }
    }

    fn bytes(&self) -> usize {
        DIR_FIXED + self.names.capacity() * size_of::<Name>() + self.arena.capacity()
    }

    fn name(&self, n: &Name) -> &str {
        &self.arena[n.off as usize..][..n.len as usize]
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.names.binary_search_by(|n| self.name(n).cmp(name))
    }

    fn push(&mut self, at: usize, name: &str, ino: u64, kind: u8) {
        let (names, arena) = (&mut self.names, &mut self.arena);
        names.reserve_exact(reserve(names.len(), names.capacity(), 1));
        arena.reserve_exact(reserve(arena.len(), arena.capacity(), name.len()));
        let (off, len) = (arena.len() as u32, name.len() as u16);
        arena.push_str(name);
        let name = Name {
            ino,
            off,
            len,
            kind,
        };
        names.insert(at, name);
    }

    fn put(&mut self, name: &str, ino: u64, kind: u8) {
        match self.find(name) {
            Ok(i) => (self.names[i].ino, self.names[i].kind) = (ino, kind),
            Err(_) if !self.complete && self.names.len() >= SPARSE_MAX => {
                *self = Dir::new(0, 0, self.stamp);
                self.push(0, name, ino, kind);
            }
            Err(at) => self.push(at, name, ino, kind),
        }
    }

    fn remove(&mut self, name: &str) -> Option<Name> {
        let gone = self.names.remove(self.find(name).ok()?);
        self.dead += gone.len as usize;
        if self.dead > 256 && self.dead > self.arena.len() / 2 {
            let mut arena = String::with_capacity(self.arena.len() - self.dead);
            for n in &mut self.names {
                let off = arena.len() as u32;
                arena.push_str(&self.arena[n.off as usize..][..n.len as usize]);
                n.off = off;
            }
            (self.arena, self.dead) = (arena, 0);
        }
        Some(gone)
    }
}

/// One cached attribute, one cache line: `[ino, size, atime, mtime, ctime,
/// mode | nlink << 32, uid | gid << 32, stamp << 9 | kind << 1 | live]`.
/// Plain words so a zeroed table is all-empty and the pages of it nobody
/// wrote are never committed.
type Slot = [u64; 8];
const SLOT: usize = size_of::<Slot>();

fn live(s: &Slot) -> bool {
    s[7] & 1 == 1
}

/// A shard's direct-mapped attribute table. The shard got every
/// `stride`-th inode number, so the slot is `ino / stride % len`.
struct Attrs {
    slots: Vec<Slot>,
    stride: u64,
}

impl Attrs {
    fn at(&self, ino: u64) -> Option<usize> {
        let len = self.slots.len() as u64;
        (len > 0).then(|| (ino / self.stride % len) as usize)
    }

    /// The slot holding `ino`'s attribute.
    fn find(&self, ino: u64) -> Option<usize> {
        let i = self.at(ino)?;
        (live(&self.slots[i]) && self.slots[i][0] == ino).then_some(i)
    }

    /// Store `slot`; returns how many other inodes' attributes that cost.
    fn put(&mut self, slot: Slot) -> u64 {
        let Some(i) = self.at(slot[0]) else { return 1 };
        let old = std::mem::replace(&mut self.slots[i], slot);
        (live(&old) && old[0] != slot[0]) as u64
    }

    /// Re-map onto `len` slots; returns how many attributes did not fit.
    fn resize(&mut self, len: usize) -> u64 {
        let old = std::mem::replace(&mut self.slots, vec![[0u64; 8]; len]);
        old.into_iter().filter(live).map(|s| self.put(s)).sum()
    }
}

struct Shard {
    dirs: HashMap<u64, Dir>,
    attrs: Attrs,
    /// Tick of the last local mutation noted here: an answer sampled
    /// before it may predate it and is not cached.
    mutated: u64,
    clock: u64,
}

/// The sharded host metadata cache. Thread-safe; shared behind an `Arc`
/// by every adapter handed out by one `Dpc`.
pub struct MetaCache {
    cfg: MetaConfig,
    shards: Box<[Mutex<Shard>]>,
    /// Logical clock: one tick per local mutation. `Relaxed` throughout:
    /// it publishes nothing — a reply asked for before a mutation is
    /// ordered before it by the link and the shard lock it is cached under.
    tick: AtomicU64,
    budget: AtomicUsize,
    used: AtomicUsize,
    n: Counters,
}

impl MetaCache {
    pub fn new(cfg: MetaConfig) -> MetaCache {
        MetaCache::with_budget(cfg, DEFAULT_META_BUDGET)
    }

    /// A cache that holds at most `budget` bytes; 0 holds nothing.
    pub fn with_budget(cfg: MetaConfig, budget: usize) -> MetaCache {
        let stride = cfg.shards.max(1) as u64;
        let shard = |_| {
            let (dirs, slots) = (HashMap::new(), Vec::new());
            Mutex::new(Shard {
                dirs,
                attrs: Attrs { slots, stride },
                mutated: 0,
                clock: 0,
            })
        };
        MetaCache {
            cfg,
            shards: (0..stride).map(shard).collect(),
            tick: AtomicU64::new(1),
            budget: AtomicUsize::new(budget),
            used: AtomicUsize::new(0),
            n: Counters::default(),
        }
    }

    fn shard(&self, ino: u64) -> MutexGuard<'_, Shard> {
        self.shards[(ino % self.shards.len() as u64) as usize].lock()
    }

    /// Advance the clock for a local mutation of `ino` (or, for a
    /// directory, of its names) and fence out answers sampled before it.
    fn mutate(&self, ino: u64) -> MutexGuard<'_, Shard> {
        let tick = self.tick.fetch_add(1, Relaxed) + 1;
        let mut shard = self.shard(ino);
        shard.mutated = tick;
        shard
    }

    /// Sample before a crossing whose reply will be cached; pass as `seen`.
    pub fn epoch(&self) -> u64 {
        self.tick.load(Relaxed)
    }

    fn expired(&self, stamp: u64) -> bool {
        self.cfg.attr_ttl != 0 && self.epoch().saturating_sub(stamp) > self.cfg.attr_ttl
    }

    // ---- the budget -----------------------------------------------------

    pub fn budget(&self) -> usize {
        self.budget.load(Relaxed)
    }

    /// Resize the cache, evicting down to `bytes` at once.
    pub fn set_budget(&self, bytes: usize) {
        self.budget.store(bytes, Relaxed);
        for shard in self.shards.iter() {
            self.reclaim(&mut shard.lock(), None);
        }
    }

    /// A table of `dir` went from `was` to `now` bytes (0 = no table).
    fn charge(&self, shard: &mut Shard, was: usize, now: usize, dir: u64) {
        if now > was {
            self.used.fetch_add(now - was, Relaxed);
            self.reclaim(shard, Some(dir));
        } else {
            self.used.fetch_sub(was - now, Relaxed);
        }
    }

    /// Evict from this shard until the cache fits its budget again:
    /// attribute slots, then tables from the least recently used, `keep`
    /// last of all.
    fn reclaim(&self, shard: &mut Shard, mut keep: Option<u64>) {
        loop {
            let over = self.used.load(Relaxed).saturating_sub(self.budget());
            let len = shard.attrs.slots.len();
            if over == 0 {
                return;
            } else if len > 0 {
                let cut = over.div_ceil(SLOT).max(len / 8).min(len);
                let lost = shard.attrs.resize(len - cut);
                self.n.evictions.fetch_add(lost, Relaxed);
                self.used.fetch_sub(cut * SLOT, Relaxed);
                continue;
            }
            let others = shard.dirs.iter().filter(|(ino, _)| Some(**ino) != keep);
            let lru = others.min_by_key(|(_, d)| d.used).map(|(ino, _)| *ino);
            let Some(victim) = lru.or_else(|| keep.take()) else {
                return;
            };
            if !self.drop_dir(shard, victim) {
                return;
            }
            self.n.evictions.fetch_add(1, Relaxed);
        }
    }

    fn drop_dir(&self, shard: &mut Shard, dir: u64) -> bool {
        let gone = shard.dirs.remove(&dir);
        self.used
            .fetch_sub(gone.as_ref().map_or(0, Dir::bytes), Relaxed);
        gone.is_some()
    }

    // ---- names ----------------------------------------------------------

    /// The live table of `dir`, marked used.
    fn dir<'s>(&self, shard: &'s mut Shard, dir: u64) -> Option<&'s mut Dir> {
        if self.cfg.attr_ttl != 0 && shard.dirs.get(&dir).is_some_and(|d| self.expired(d.stamp)) {
            self.drop_dir(shard, dir);
        }
        shard.clock += 1;
        let d = shard.dirs.get_mut(&dir)?;
        d.used = shard.clock;
        Some(d)
    }

    /// Run `patch` on `dir`'s table — started empty when `create` — and
    /// settle what that did to the budget.
    fn edit(&self, shard: &mut Shard, dir: u64, create: bool, patch: impl FnOnce(&mut Dir)) {
        let stamp = self.epoch();
        let was = self.dir(shard, dir).map(|d| d.bytes());
        if was.is_none() && (!create || self.budget() == 0) {
            return;
        }
        let d = shard
            .dirs
            .entry(dir)
            .or_insert_with(|| Dir::new(0, 0, stamp));
        patch(d);
        let now = d.bytes();
        self.charge(shard, was.unwrap_or(0), now, dir);
    }

    /// Probe one path component.
    pub fn lookup_name(&self, parent: u64, name: &str) -> NameLookup {
        let mut shard = self.shard(parent);
        let found = match self.dir(&mut shard, parent) {
            None => NameLookup::Miss,
            Some(d) => match d.find(name).map(|i| d.names[i]) {
                // The host cannot follow a symlink: the DPU walks it.
                Ok(n) if n.kind == KIND_SYMLINK => NameLookup::Miss,
                Ok(n) if n.kind != KIND_ABSENT => NameLookup::Hit(n.ino),
                Err(_) if !d.complete => NameLookup::Miss,
                _ => NameLookup::Negative,
            },
        };
        drop(shard);
        let (found, counter) = match found {
            NameLookup::Hit(_) => (found, &self.n.dentry_hits),
            NameLookup::Negative if self.cfg.negative => (found, &self.n.neg_hits),
            _ => (NameLookup::Miss, &self.n.dentry_misses),
        };
        counter.fetch_add(1, Relaxed);
        found
    }

    /// Record what a walk (its reply asked for at `seen`) found `name`
    /// to be: an inode that is not a symlink, or absent.
    pub fn learn(&self, parent: u64, name: &str, found: Option<u64>, seen: u64) {
        let mut shard = self.shard(parent);
        if shard.mutated > seen || (found.is_none() && !self.cfg.negative) {
            return;
        }
        self.edit(&mut shard, parent, true, |d| {
            let known = d.find(name).ok().map(|i| d.names[i]);
            let agrees = match known {
                Some(n) => n.kind != KIND_ABSENT && found == Some(n.ino),
                None => d.complete && found.is_none(),
            };
            // A listing the walk contradicts (a remote writer) is one no more.
            if !agrees {
                d.complete = false;
                let kind = found.map_or(KIND_ABSENT, |_| KIND_WALKED);
                d.put(name, found.unwrap_or(0), kind);
            }
        });
    }

    /// Serve `dir`'s listing, in KV key order, if the whole of it is held.
    pub fn readdir_with(&self, dir: u64, mut visit: impl FnMut(u64, u8, &str)) -> bool {
        let mut shard = self.shard(dir);
        let Some(d) = self.dir(&mut shard, dir).filter(|d| d.complete) else {
            self.n.readdir_misses.fetch_add(1, Relaxed);
            return false;
        };
        d.names.iter().for_each(|n| visit(n.ino, n.kind, d.name(n)));
        self.n.readdir_hits.fetch_add(1, Relaxed);
        true
    }

    /// Record the whole listing of `dir` as a reply asked for at `seen`
    /// carried it. Not held if it is out of name order (a patch could not
    /// keep it in KV key order) or bigger than the budget.
    pub fn insert_dir<'a, I>(&self, dir: u64, seen: u64, entries: I)
    where
        I: Iterator<Item = (u64, u8, &'a str)> + Clone,
    {
        let sizes = entries.clone().map(|(.., name)| name.len());
        let (names, bytes) = sizes.fold((0, 0), |(n, b), len| (n + 1, b + len));
        if DIR_FIXED + names * size_of::<Name>() + bytes > self.budget() {
            return;
        }
        let mut table = Dir::new(names, bytes, self.epoch());
        table.complete = true;
        for (ino, kind, name) in entries {
            if table.names.last().is_some_and(|l| table.name(l) >= name) {
                return;
            }
            table.push(table.names.len(), name, ino, kind);
        }
        let mut shard = self.shard(dir);
        if shard.mutated > seen {
            return;
        }
        shard.clock += 1;
        table.used = shard.clock;
        let now = table.bytes();
        let was = shard.dirs.insert(dir, table).map_or(0, |old| old.bytes());
        self.charge(&mut shard, was, now, dir);
    }

    // ---- attrs ----------------------------------------------------------

    /// TTL-validated attr probe.
    pub fn get_attr(&self, ino: u64) -> Option<MetaAttr> {
        let shard = self.shard(ino);
        let hit = shard.attrs.find(ino).map(|i| &shard.attrs.slots[i]);
        let attr = hit.filter(|s| !self.expired(s[7] >> 9)).map(|s| MetaAttr {
            ino: s[0],
            size: s[1],
            atime_ns: s[2],
            mtime_ns: s[3],
            ctime_ns: s[4],
            mode: s[5] as u32,
            nlink: (s[5] >> 32) as u32,
            uid: s[6] as u32,
            gid: (s[6] >> 32) as u32,
            kind: (s[7] >> 1) as u8,
        });
        drop(shard);
        let counter = [&self.n.attr_misses, &self.n.attr_hits][attr.is_some() as usize];
        counter.fetch_add(1, Relaxed);
        attr
    }

    /// Record an attribute, unconditionally. No product path calls it (a
    /// reply's attribute goes in through
    /// [`insert_attr_seen`](Self::insert_attr_seen)); it stays only
    /// because the benchmark's probe (`dpc-e2e`) fills a cache with it.
    pub fn insert_attr(&self, attr: MetaAttr) {
        self.insert_attr_seen(attr, u64::MAX);
    }

    /// Record an attribute a reply asked for at `seen` carried.
    pub fn insert_attr_seen(&self, a: MetaAttr, seen: u64) {
        let mut shard = self.shard(a.ino);
        if shard.mutated > seen {
            return;
        }
        let tag = self.epoch() << 9 | (a.kind as u64) << 1 | 1;
        let (perm, owner) = (
            a.mode as u64 | (a.nlink as u64) << 32,
            a.uid as u64 | (a.gid as u64) << 32,
        );
        let slot = [
            a.ino, a.size, a.atime_ns, a.mtime_ns, a.ctime_ns, perm, owner, tag,
        ];
        let (len, attrs) = (shard.attrs.slots.len(), &mut shard.attrs);
        let other = |s: &Slot| live(s) && s[0] != a.ino;
        let taken = attrs.at(a.ino).is_none_or(|i| other(&attrs.slots[i]));
        // Another inode's slot (or no table yet): a longer table tells
        // them apart, if the budget has room for one.
        let more = (len / 8 + 8) * SLOT;
        let room = |used: usize| (used + more <= self.budget()).then_some(used + more);
        let mut lost = 0;
        if taken && self.used.fetch_update(Relaxed, Relaxed, room).is_ok() {
            lost = attrs.resize(len + more / SLOT);
        }
        lost += attrs.put(slot);
        self.n.evictions.fetch_add(lost, Relaxed);
    }

    /// Drop a cached attr (size, mtime or nlink changed).
    pub fn invalidate_ino(&self, ino: u64) {
        let mut shard = self.mutate(ino);
        if let Some(i) = shard.attrs.find(ino) {
            shard.attrs.slots[i][7] = 0;
            self.n.invalidations.fetch_add(1, Relaxed);
        }
    }

    // ---- what a local mutation did --------------------------------------

    /// `name` now exists under `parent`, as `ino` of `kind`: all a
    /// listing needs, so a complete table stays complete.
    pub fn note_create(&self, parent: u64, name: &str, ino: u64, kind: u8) {
        let mut shard = self.mutate(parent);
        self.edit(&mut shard, parent, true, |d| d.put(name, ino, kind));
        self.n.invalidations.fetch_add(1, Relaxed);
    }

    /// `name` is gone from `parent`. Returns the inode it was, if known.
    pub fn note_remove(&self, parent: u64, name: &str) -> Option<u64> {
        let mut shard = self.mutate(parent);
        let mut gone = None;
        self.edit(&mut shard, parent, false, |d| gone = d.remove(name));
        self.n.invalidations.fetch_add(1, Relaxed);
        gone.filter(|n| n.kind != KIND_ABSENT).map(|n| n.ino)
    }

    /// `name` under `parent` changed in a way its reply does not spell
    /// out (rename, link, symlink): forget it, and that the table was whole.
    pub fn note_changed(&self, parent: u64, name: &str) {
        let mut shard = self.mutate(parent);
        self.edit(&mut shard, parent, false, |d| {
            d.remove(name);
            d.complete = false;
        });
        self.n.invalidations.fetch_add(1, Relaxed);
    }

    /// The directory `dir` itself is gone (rmdir): its table and attr.
    pub fn forget_dir(&self, dir: u64) {
        self.drop_dir(&mut self.shard(dir), dir);
        self.invalidate_ino(dir);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MetaStats {
        let n = &self.n;
        MetaStats {
            attr_hits: n.attr_hits.load(Relaxed),
            attr_misses: n.attr_misses.load(Relaxed),
            dentry_hits: n.dentry_hits.load(Relaxed),
            dentry_misses: n.dentry_misses.load(Relaxed),
            neg_hits: n.neg_hits.load(Relaxed),
            readdir_hits: n.readdir_hits.load(Relaxed),
            readdir_misses: n.readdir_misses.load(Relaxed),
            invalidations: n.invalidations.load(Relaxed),
            evictions: n.evictions.load(Relaxed),
            bytes: self.used.load(Relaxed) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: u64 = u64::MAX;

    fn attr(ino: u64) -> MetaAttr {
        MetaAttr {
            ino,
            size: ino * 10,
            mode: 0o644,
            nlink: 1,
            uid: 7,
            gid: 8,
            atime_ns: 1,
            mtime_ns: 2,
            ctime_ns: 3,
            kind: (ino % 3) as u8,
        }
    }

    fn listing(m: &MetaCache, dir: u64) -> Option<Vec<(u64, u8, String)>> {
        let mut out = Vec::new();
        m.readdir_with(dir, |ino, kind, name| {
            out.push((ino, kind, name.to_string()))
        })
        .then_some(out)
    }

    #[test]
    fn dentry_hit_after_insert() {
        let m = MetaCache::new(MetaConfig::default());
        assert_eq!(m.lookup_name(1, "a"), NameLookup::Miss);
        m.learn(1, "a", Some(7), NOW);
        assert_eq!(m.lookup_name(1, "a"), NameLookup::Hit(7));
        // A sparse table knows nothing about its other names.
        assert_eq!(m.lookup_name(1, "b"), NameLookup::Miss);
        let s = m.stats();
        assert_eq!((s.dentry_hits, s.dentry_misses), (1, 2));
    }

    #[test]
    fn negative_entry_dies_on_create() {
        let m = MetaCache::new(MetaConfig::default());
        m.learn(1, "ghost", None, NOW);
        assert_eq!(m.lookup_name(1, "ghost"), NameLookup::Negative);
        // A create of another name leaves it standing (it is still true)...
        m.note_create(1, "other", 9, KIND_FILE);
        assert_eq!(m.lookup_name(1, "ghost"), NameLookup::Negative);
        // ...a create of, or a rename into, the name itself does not.
        m.note_create(1, "ghost", 10, KIND_FILE);
        assert_eq!(m.lookup_name(1, "ghost"), NameLookup::Hit(10));
        m.learn(1, "gone", None, NOW);
        m.note_changed(1, "gone");
        assert_eq!(m.lookup_name(1, "gone"), NameLookup::Miss);
        assert_eq!(m.stats().neg_hits, 2);
    }

    #[test]
    fn negative_caching_can_be_disabled() {
        let m = MetaCache::new(MetaConfig {
            negative: false,
            ..Default::default()
        });
        m.learn(1, "ghost", None, NOW);
        m.insert_dir(2, NOW, [(5, KIND_FILE, "x")].into_iter());
        assert_eq!(m.lookup_name(1, "ghost"), NameLookup::Miss);
        assert_eq!(m.lookup_name(2, "ghost"), NameLookup::Miss);
        assert_eq!(m.stats().neg_hits, 0);
    }

    #[test]
    fn attr_ttl_expires_entries() {
        let m = MetaCache::new(MetaConfig {
            attr_ttl: 2,
            ..Default::default()
        });
        m.insert_attr(attr(5));
        m.insert_dir(4, NOW, [(5, KIND_FILE, "x")].into_iter());
        assert_eq!(m.get_attr(5), Some(attr(5)));
        assert_eq!(m.lookup_name(4, "x"), NameLookup::Hit(5));
        // Three mutations age both past the 2-tick TTL.
        (97..100).for_each(|ino| m.invalidate_ino(ino));
        assert_eq!(m.get_attr(5), None);
        assert_eq!(m.lookup_name(4, "x"), NameLookup::Miss);
        assert_eq!(
            m.stats().bytes,
            SLOT as u64 * 8,
            "the expired table is gone"
        );
    }

    #[test]
    fn readdir_cache_validates_generation() {
        let m = MetaCache::new(MetaConfig::default());
        assert!(listing(&m, 4).is_none());
        let names = [
            (9, KIND_FILE, "b"),
            (3, KIND_DIR, "d"),
            (8, KIND_SYMLINK, "s"),
        ];
        m.insert_dir(4, m.epoch(), names.into_iter());
        assert_eq!(listing(&m, 4).unwrap().len(), 3);
        assert_eq!(m.lookup_name(4, "a"), NameLookup::Negative, "definitive");
        assert_eq!(m.lookup_name(4, "s"), NameLookup::Miss, "symlinks cross");
        // Patched in place, in name order, still the whole listing.
        m.note_create(4, "c", 11, KIND_FILE);
        assert_eq!(m.note_remove(4, "d"), Some(3));
        let names: Vec<_> = listing(&m, 4).unwrap().into_iter().map(|e| e.2).collect();
        assert_eq!(names, ["b", "c", "s"]);
        assert_eq!(m.lookup_name(4, "d"), NameLookup::Negative);
        // A change the reply does not spell out ends that; the rest stays.
        m.note_changed(4, "s");
        assert!(listing(&m, 4).is_none());
        assert_eq!(m.lookup_name(4, "c"), NameLookup::Hit(11));
        assert_eq!(m.lookup_name(4, "zz"), NameLookup::Miss);
        let s = m.stats();
        assert_eq!((s.readdir_hits, s.readdir_misses), (2, 2));
    }

    #[test]
    fn invalidate_ino_drops_attr_only_once() {
        let m = MetaCache::new(MetaConfig::default());
        m.insert_attr(attr(3));
        m.invalidate_ino(3);
        m.invalidate_ino(3);
        assert_eq!(m.stats().invalidations, 1);
        assert_eq!(m.get_attr(3), None);
    }

    #[test]
    fn stale_listing_inserted_after_mutation_never_validates() {
        let m = MetaCache::new(MetaConfig::default());
        // A scan and a stat leave, a mutation lands, their replies arrive:
        // neither may predate it, so neither is cached.
        let seen = m.epoch();
        m.note_create(8, "new", 11, KIND_FILE);
        m.insert_dir(8, seen, std::iter::empty());
        m.insert_attr_seen(attr(8), seen);
        m.learn(8, "new", None, seen);
        assert!(listing(&m, 8).is_none());
        assert_eq!(m.get_attr(8), None);
        assert_eq!(m.lookup_name(8, "new"), NameLookup::Hit(11));
        // An unsorted listing could not be patched in key order: not held.
        m.insert_dir(9, m.epoch(), [(1, 0, "b"), (2, 0, "a")].into_iter());
        assert!(listing(&m, 9).is_none());
    }

    #[test]
    fn the_budget_evicts_attrs_before_names_and_zero_holds_nothing() {
        let cfg = MetaConfig {
            shards: 1,
            ..Default::default()
        };
        let m = MetaCache::with_budget(cfg, 4096);
        (0..40).for_each(|ino| m.insert_attr(attr(ino)));
        assert!((0..40).all(|ino| m.get_attr(ino) == Some(attr(ino))));
        let names: Vec<String> = (0..100).map(|i| format!("f{i:03}")).collect();
        for dir in 100..110 {
            let entries = names.iter().map(|n| (dir, KIND_FILE, n.as_str()));
            m.insert_dir(dir, NOW, entries);
            assert!(m.stats().bytes <= 4096);
        }
        // Each table is 96 + 100 * 20 B: one fits beside no attrs, the
        // latest one inserted; the nine before it were evicted in turn.
        assert!((0..40).all(|ino| m.get_attr(ino).is_none()));
        assert!((100..109).all(|dir| listing(&m, dir).is_none()));
        assert_eq!(listing(&m, 109).unwrap().len(), 100);
        assert_eq!(m.stats().evictions, 40 + 9);
        m.set_budget(0);
        assert_eq!(m.stats().bytes, 0);
        m.insert_attr(attr(1));
        m.learn(1, "a", Some(2), NOW);
        m.note_create(1, "b", 3, KIND_FILE);
        assert_eq!(
            (m.get_attr(1), m.lookup_name(1, "a")),
            (None, NameLookup::Miss)
        );
        assert_eq!(m.stats().bytes, 0);
    }
}

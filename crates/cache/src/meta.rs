//! Host-side metadata cache: attr / dentry / negative / readdir layers.
//!
//! The paper's DFS-offload pillar (§1) moves cache management — data *and*
//! metadata — next to the client; KucoFS (PAPERS.md) shows client-side
//! metadata caching with validation epochs is where the wins live for
//! stat-heavy small-file trees. This module is the host half of that
//! plane: a sharded cache in front of the nvme-fs namespace requests
//! (`StatAt`/`ReaddirAt` and the mutations), primed from the walk trail
//! their replies carry, so a stat stampede over a million-file tree
//! crosses the link once per hot path instead of once per call.
//!
//! Four layers, all striped over [`MetaConfig::shards`] mutexes (dentry /
//! negative / readdir / generation state shard by **parent** ino so one
//! directory's state colocates; attrs shard by ino):
//!
//! - **attr cache**: ino → [`MetaAttr`] stamped with a logical tick;
//!   entries older than [`MetaConfig::attr_ttl`] ticks (0 = no expiry)
//!   re-fetch. Serves `stat` and the size `open` starts from.
//! - **dentry cache**: (parent, name) → ino. Serves the prefix of a path
//!   the host can walk itself; the rest crosses in one request. It never
//!   holds a symlink's name (the adapter does not insert them), so a hit
//!   is always safe to walk through.
//! - **negative cache**: (parent, name) observed ENOENT, stamped with the
//!   parent's generation — a repeated lookup of an absent name answers
//!   locally with zero RPCs. Any mutation of the parent bumps its
//!   generation, killing every negative entry at once.
//! - **readdir cache**: dir ino → full listing (page-assembled by the
//!   caller) stamped with the parent's generation.
//!
//! Invalidation is generation-based and local-mutation-driven:
//! create/unlink/rename/mkdir/rmdir call [`MetaCache::note_create`] /
//! [`MetaCache::note_remove`], which bump the parent's generation (and
//! eagerly drop that directory's negative + readdir state); size-changing
//! data ops call [`MetaCache::invalidate_ino`] to drop the attr. Remote
//! writers are *not* observed — the attr TTL bounds that staleness, the
//! same contract the DFS client's delegation lease covers on the
//! distributed path.
//!
//! Everything is counted ([`MetaStats`]); with the `meta_cache` knob off
//! the cache is simply never constructed, so every counter is provably
//! zero (the established dormancy pattern).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Metadata-cache geometry and policy.
#[derive(Copy, Clone, Debug)]
pub struct MetaConfig {
    /// Lock stripes (the PR 2 fd-table split). Clamped to ≥ 1.
    pub shards: usize,
    /// Attr entries expire after this many logical ticks (one tick per
    /// cache mutation); `0` = never expire.
    pub attr_ttl: u64,
    /// Cache observed-ENOENT names.
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

/// One cached directory entry — mirrors the wire `WireDirent`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetaDirent {
    pub ino: u64,
    pub kind: u8,
    pub name: String,
}

/// What the combined dentry + negative probe knows about a name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NameLookup {
    /// Dentry cache hit: the name maps to this ino.
    Hit(u64),
    /// Valid negative entry: the name was absent and nothing in the
    /// parent changed since — answer ENOENT with zero RPCs.
    Negative,
    /// Unknown: go to the backend.
    Miss,
}

/// Point-in-time counter snapshot. All-zero when the cache was never
/// constructed (knobs off).
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
}

#[derive(Default)]
struct Shard {
    /// ino → (attr, insertion tick).
    attrs: HashMap<u64, (MetaAttr, u64)>,
    /// (parent, name) → ino.
    dentries: HashMap<(u64, String), u64>,
    /// (parent, name) → parent generation at insert.
    negatives: HashMap<(u64, String), u64>,
    /// dir ino → (listing, parent generation at insert).
    dirs: HashMap<u64, (Arc<Vec<MetaDirent>>, u64)>,
    /// dir ino → current generation (missing = 0).
    gens: HashMap<u64, u64>,
}

/// The sharded host metadata cache. Thread-safe; cheap to share behind an
/// `Arc` across every adapter handed out by one `Dpc`.
pub struct MetaCache {
    cfg: MetaConfig,
    shards: Box<[Mutex<Shard>]>,
    /// Logical clock: advanced by every mutation; stamps attr inserts.
    tick: AtomicU64,
    attr_hits: AtomicU64,
    attr_misses: AtomicU64,
    dentry_hits: AtomicU64,
    dentry_misses: AtomicU64,
    neg_hits: AtomicU64,
    readdir_hits: AtomicU64,
    readdir_misses: AtomicU64,
    invalidations: AtomicU64,
}

fn shard_hash(x: u64) -> u64 {
    // FNV-1a over the little-endian bytes, like the DFS partition hash.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl MetaCache {
    pub fn new(cfg: MetaConfig) -> MetaCache {
        let n = cfg.shards.max(1);
        MetaCache {
            cfg,
            shards: (0..n)
                .map(|_| Mutex::new(Shard::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            tick: AtomicU64::new(1),
            attr_hits: AtomicU64::new(0),
            attr_misses: AtomicU64::new(0),
            dentry_hits: AtomicU64::new(0),
            dentry_misses: AtomicU64::new(0),
            neg_hits: AtomicU64::new(0),
            readdir_hits: AtomicU64::new(0),
            readdir_misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Dentry / negative / readdir / generation state shards by the
    /// *parent* (directory) ino; attrs shard by the file's own ino.
    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(shard_hash(key) % self.shards.len() as u64) as usize]
    }

    fn bump(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    // ---- name resolution ------------------------------------------------

    /// Combined dentry + negative probe for one path component.
    pub fn lookup_name(&self, parent: u64, name: &str) -> NameLookup {
        let shard = self.shard(parent).lock();
        // Borrow-friendly keying: the maps key by owned (u64, String);
        // build the key once.
        let key = (parent, name.to_string());
        if let Some(&ino) = shard.dentries.get(&key) {
            self.dentry_hits.fetch_add(1, Ordering::Relaxed);
            return NameLookup::Hit(ino);
        }
        if self.cfg.negative {
            if let Some(&gen) = shard.negatives.get(&key) {
                if gen == shard.gens.get(&parent).copied().unwrap_or(0) {
                    self.neg_hits.fetch_add(1, Ordering::Relaxed);
                    return NameLookup::Negative;
                }
            }
        }
        self.dentry_misses.fetch_add(1, Ordering::Relaxed);
        NameLookup::Miss
    }

    /// Record a backend lookup result: the name resolved to `ino`.
    pub fn insert_dentry(&self, parent: u64, name: &str, ino: u64) {
        let mut shard = self.shard(parent).lock();
        let key = (parent, name.to_string());
        shard.negatives.remove(&key);
        shard.dentries.insert(key, ino);
    }

    /// Record an observed ENOENT, stamped with the parent's current
    /// generation (no-op when negative caching is off).
    pub fn insert_negative(&self, parent: u64, name: &str) {
        if !self.cfg.negative {
            return;
        }
        let mut shard = self.shard(parent).lock();
        let gen = shard.gens.get(&parent).copied().unwrap_or(0);
        shard.negatives.insert((parent, name.to_string()), gen);
    }

    // ---- attrs ----------------------------------------------------------

    /// TTL-validated attr probe.
    pub fn get_attr(&self, ino: u64) -> Option<MetaAttr> {
        let shard = self.shard(ino).lock();
        if let Some(&(attr, stamp)) = shard.attrs.get(&ino) {
            let now = self.tick.load(Ordering::Relaxed);
            if self.cfg.attr_ttl == 0 || now.saturating_sub(stamp) <= self.cfg.attr_ttl {
                self.attr_hits.fetch_add(1, Ordering::Relaxed);
                return Some(attr);
            }
        }
        self.attr_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Record an attribute a reply carried.
    pub fn insert_attr(&self, attr: MetaAttr) {
        let stamp = self.tick.load(Ordering::Relaxed);
        self.shard(attr.ino)
            .lock()
            .attrs
            .insert(attr.ino, (attr, stamp));
    }

    /// Drop a cached attr (size/mtime changed: write-back, truncate,
    /// fsync reconcile, close).
    pub fn invalidate_ino(&self, ino: u64) {
        self.bump();
        if self.shard(ino).lock().attrs.remove(&ino).is_some() {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    // ---- readdir --------------------------------------------------------

    /// Generation-validated listing probe.
    pub fn get_dir(&self, dir: u64) -> Option<Arc<Vec<MetaDirent>>> {
        let shard = self.shard(dir).lock();
        if let Some((entries, gen)) = shard.dirs.get(&dir) {
            if *gen == shard.gens.get(&dir).copied().unwrap_or(0) {
                self.readdir_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(entries));
            }
        }
        self.readdir_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Record a backend listing, stamped with the dir's current
    /// generation (a racing mutation since the scan started will have
    /// bumped it, so the stale listing never validates).
    pub fn insert_dir(&self, dir: u64, entries: Vec<MetaDirent>) {
        let mut shard = self.shard(dir).lock();
        let gen = shard.gens.get(&dir).copied().unwrap_or(0);
        shard.dirs.insert(dir, (Arc::new(entries), gen));
    }

    // ---- mutation hooks -------------------------------------------------

    /// A name was created (or linked, or renamed-in) under `parent`:
    /// bump the generation — killing the readdir listing and every
    /// negative entry of that directory — and prime the dentry.
    pub fn note_create(&self, parent: u64, name: &str, ino: u64) {
        self.bump();
        let mut shard = self.shard(parent).lock();
        Self::bump_gen_locked(&mut shard, parent);
        let key = (parent, name.to_string());
        shard.negatives.remove(&key);
        shard.dentries.insert(key, ino);
        drop(shard);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// A name was removed (or renamed-away) from `parent`: bump the
    /// generation and drop the dentry. The caller also
    /// [`invalidate_ino`](MetaCache::invalidate_ino)s the victim when it
    /// knows the ino.
    pub fn note_remove(&self, parent: u64, name: &str) {
        self.bump();
        let mut shard = self.shard(parent).lock();
        Self::bump_gen_locked(&mut shard, parent);
        shard.dentries.remove(&(parent, name.to_string()));
        drop(shard);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    fn bump_gen_locked(shard: &mut Shard, parent: u64) {
        let gen = shard.gens.entry(parent).or_insert(0);
        *gen += 1;
        let gen = *gen;
        shard.dirs.remove(&parent);
        // Eager purge keeps the negative map bounded by live state; the
        // generation stamp alone already makes stale entries inert.
        shard
            .negatives
            .retain(|(p, _), g| *p != parent || *g == gen);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MetaStats {
        MetaStats {
            attr_hits: self.attr_hits.load(Ordering::Relaxed),
            attr_misses: self.attr_misses.load(Ordering::Relaxed),
            dentry_hits: self.dentry_hits.load(Ordering::Relaxed),
            dentry_misses: self.dentry_misses.load(Ordering::Relaxed),
            neg_hits: self.neg_hits.load(Ordering::Relaxed),
            readdir_hits: self.readdir_hits.load(Ordering::Relaxed),
            readdir_misses: self.readdir_misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(ino: u64) -> MetaAttr {
        MetaAttr {
            ino,
            size: ino * 10,
            kind: 0,
            ..Default::default()
        }
    }

    #[test]
    fn dentry_hit_after_insert() {
        let m = MetaCache::new(MetaConfig::default());
        assert_eq!(m.lookup_name(1, "a"), NameLookup::Miss);
        m.insert_dentry(1, "a", 7);
        assert_eq!(m.lookup_name(1, "a"), NameLookup::Hit(7));
        let s = m.stats();
        assert_eq!((s.dentry_hits, s.dentry_misses), (1, 1));
    }

    #[test]
    fn negative_entry_dies_on_create() {
        let m = MetaCache::new(MetaConfig::default());
        m.insert_negative(1, "ghost");
        assert_eq!(m.lookup_name(1, "ghost"), NameLookup::Negative);
        // Any mutation of the parent invalidates every negative entry —
        // including a create of a *different* name (rename-into semantics
        // are covered by the same generation bump).
        m.note_create(1, "other", 9);
        assert_eq!(m.lookup_name(1, "ghost"), NameLookup::Miss);
        // And a create of the cached-absent name itself serves a hit.
        m.insert_negative(1, "ghost");
        m.note_create(1, "ghost", 10);
        assert_eq!(m.lookup_name(1, "ghost"), NameLookup::Hit(10));
        assert!(m.stats().neg_hits >= 1);
    }

    #[test]
    fn negative_caching_can_be_disabled() {
        let m = MetaCache::new(MetaConfig {
            negative: false,
            ..Default::default()
        });
        m.insert_negative(1, "ghost");
        assert_eq!(m.lookup_name(1, "ghost"), NameLookup::Miss);
        assert_eq!(m.stats().neg_hits, 0);
    }

    #[test]
    fn attr_ttl_expires_entries() {
        let m = MetaCache::new(MetaConfig {
            attr_ttl: 2,
            ..Default::default()
        });
        m.insert_attr(attr(5));
        assert_eq!(m.get_attr(5), Some(attr(5)));
        // Three mutations age the entry past its 2-tick TTL.
        m.invalidate_ino(99);
        m.invalidate_ino(98);
        m.invalidate_ino(97);
        assert_eq!(m.get_attr(5), None);
    }

    #[test]
    fn readdir_cache_validates_generation() {
        let m = MetaCache::new(MetaConfig::default());
        assert!(m.get_dir(4).is_none());
        m.insert_dir(
            4,
            vec![MetaDirent {
                ino: 9,
                kind: 0,
                name: "x".into(),
            }],
        );
        assert_eq!(m.get_dir(4).unwrap().len(), 1);
        m.note_remove(4, "x");
        assert!(m.get_dir(4).is_none(), "listing dies with the generation");
        let s = m.stats();
        assert_eq!(s.readdir_hits, 1);
        assert_eq!(s.readdir_misses, 2);
        assert!(s.invalidations >= 1);
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
        // A scan snapshots the listing, a mutation lands, then the scan's
        // (now stale) result is inserted stamped with the *new* gen — the
        // insert-time stamp means only post-mutation scans may be cached.
        // Simulate the reverse race: insert, mutate, probe.
        m.insert_dir(8, Vec::new());
        m.note_create(8, "new", 11);
        assert!(m.get_dir(8).is_none());
    }
}

//! KVFS: the POSIX-style standalone file service over the disaggregated
//! KV store (§3.4).
//!
//! Every file operation becomes KV operations: path resolution recursively
//! fetches inode KVs from the root (ino 0) using `p_ino + name` keys;
//! `readdir` is a prefix scan; a namespace mutation is one conditional
//! multi-key commit (DESIGN.md §9.3); data lives in small-file KVs
//! (< 8 KiB, whole-value rewrite) or big-file KVs (8 KiB in-place block
//! updates via the file object). Dentry and inode caches — the ones the
//! VFS layer would provide — are built in and instrumented.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_kvstore::{Check, KvStore, Write};
use parking_lot::{Mutex, MutexGuard};

use crate::cache::{Cache, Entry, LookupStats};
use crate::fileobj::FileObject;
use crate::keys::{
    attr_key, big_key, dentry_value, inode_key, inode_prefix, name_from_inode_key, parse_dentry,
    small_key, validate_name, with_inode_key,
};
#[cfg(test)]
use crate::types::BIG_BLOCK;
use crate::types::{
    DataFormat, Dirent, FileAttr, FileKind, FsError, WalkStep, MAX_NAME_LEN, ROOT_INO,
    SMALL_FILE_MAX,
};

const INO_LOCKS: usize = 64;

/// The KV-backed file system.
pub struct Kvfs {
    store: Arc<KvStore>,
    next_ino: AtomicU64,
    /// The dentry and inode caches, and the rule they are kept by.
    cache: Cache,
    /// Per-inode write serialisation (sharded by ino).
    ino_locks: Box<[Mutex<()>]>,
    /// Logical clock for timestamps (deterministic under simulation).
    clock: AtomicU64,
}

/// An inode losing one name: its attribute with one link fewer, and the
/// keys the commit that takes the name writes for it.
struct Unlinked {
    attr: FileAttr,
    attr_key: [u8; 9],
    encoded: [u8; 256],
    data_key: [u8; 9],
}

impl Unlinked {
    /// This inode's writes in the name's commit: the attribute with one
    /// link fewer, or, for the last name of a small file or a symlink, its
    /// attribute and its data. A big file's last name writes nothing here
    /// ([`Kvfs::settle`] says why).
    fn writes<'a>(&'a self, out: &mut Vec<Write<'a>>) {
        let attr = &self.attr;
        if attr.nlink > 0 {
            out.push(Write::Put(&self.attr_key, &self.encoded));
        } else if attr.format == DataFormat::Small {
            out.push(Write::Delete(&self.attr_key));
            // A 0-byte file has no small-file KV; a symlink always has its
            // target.
            if attr.size > 0 || attr.kind == FileKind::Symlink {
                out.push(Write::Delete(&self.data_key));
            }
        }
    }
}

impl Kvfs {
    /// Create a fresh KVFS on `store`, initialising the root directory
    /// (ino 0).
    pub fn new(store: Arc<KvStore>) -> Kvfs {
        let fs = Self::construct(store, 1, 1);
        let root = FileAttr::new_dir(ROOT_INO, 0o755, 0);
        fs.store.put(&attr_key(ROOT_INO), &root.encode());
        fs
    }

    /// Remount an existing KVFS from its disaggregated store — the
    /// diskless-server reboot: the application server restarts with no
    /// local state and recovers the namespace entirely from the KV store.
    /// The inode allocator resumes past the highest inode found in the
    /// attribute-KV keyspace, and the clock past the latest timestamp, so
    /// a remount never stamps an mtime older than one the store holds.
    pub fn open(store: Arc<KvStore>) -> Result<Kvfs, FsError> {
        // The root attribute must exist, or this store holds no KVFS.
        let raw = store.get(&attr_key(ROOT_INO)).ok_or(FsError::NotFound)?;
        FileAttr::decode(&raw).ok_or(FsError::NotFound)?;
        // Recover the allocator: attribute keys are `0x02 ‖ ino(BE)`, so a
        // prefix scan over the tag visits every live inode's key in place.
        let (mut max_ino, mut latest) = (ROOT_INO, 0);
        store.scan_prefix_with(&[0x02], |key, value| {
            // A malformed (short) attribute key must not panic the
            // remount; it simply doesn't inform the allocator.
            if let Some(ino) = key.get(1..9).and_then(|b| b.try_into().ok()) {
                max_ino = max_ino.max(u64::from_be_bytes(ino));
            }
            if let Some(a) = FileAttr::decode(value) {
                latest = latest.max(a.atime).max(a.mtime).max(a.ctime);
            }
        });
        Ok(Self::construct(store, max_ino + 1, latest + 1))
    }

    fn construct(store: Arc<KvStore>, next_ino: u64, clock: u64) -> Kvfs {
        Kvfs {
            store,
            next_ino: AtomicU64::new(next_ino),
            cache: Cache::default(),
            ino_locks: (0..INO_LOCKS).map(|_| Mutex::new(())).collect(),
            clock: AtomicU64::new(clock),
        }
    }

    pub fn store(&self) -> &Arc<KvStore> {
        &self.store
    }

    pub fn lookup_stats(&self) -> LookupStats {
        self.cache.stats()
    }

    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn ino_lock(&self, ino: u64) -> &Mutex<()> {
        &self.ino_locks[(ino as usize) % INO_LOCKS]
    }

    /// The [`Kvfs::ino_lock`]s of several inodes, each lock once, taken in
    /// ascending lock order: a call that holds more than one inode's lock
    /// takes them here, so no two calls wait on each other in a cycle.
    fn lock_inos(&self, inos: &[u64]) -> Vec<MutexGuard<'_, ()>> {
        let mut locks: Vec<usize> = inos.iter().map(|&ino| ino as usize % INO_LOCKS).collect();
        locks.sort_unstable();
        locks.dedup();
        locks
            .into_iter()
            .map(|i| self.ino_locks[i].lock())
            .collect()
    }

    fn alloc_ino(&self) -> u64 {
        self.next_ino.fetch_add(1, Ordering::Relaxed)
    }

    // ---- attribute plumbing -------------------------------------------

    /// Fetch an attribute (through the inode cache).
    pub fn get_attr(&self, ino: u64) -> Result<FileAttr, FsError> {
        let fetch = || FileAttr::decode(&self.store.get(&attr_key(ino))?);
        self.cache.attr(ino, fetch).ok_or(FsError::NotFound)
    }

    fn put_attr(&self, attr: &FileAttr) {
        self.store.put(&attr_key(attr.ino), &attr.encode());
        self.cache.put_attr(*attr);
    }

    fn drop_attr(&self, ino: u64) {
        self.store.delete(&attr_key(ino));
        self.cache.drop_attr(ino);
    }

    /// A directory's attribute with `by` added to its link count: a
    /// child's `..` came or went. The caller holds the directory's
    /// [`Kvfs::ino_lock`] and writes the result.
    fn relinked(&self, dir: u64, by: i32) -> Result<FileAttr, FsError> {
        let mut attr = self.get_attr(dir)?;
        attr.nlink = attr.nlink.saturating_add_signed(by);
        Ok(attr)
    }

    // ---- lookup / resolution ------------------------------------------

    /// One-step lookup: `name` under directory `parent`.
    pub fn lookup(&self, parent: u64, name: &str) -> Result<u64, FsError> {
        self.lookup_entry(parent, name).map(|(ino, _)| ino)
    }

    /// [`Kvfs::lookup`] with the entry's kind, which the inode KV records:
    /// a walk learns "directory", "symlink" or "file" from the dentry it
    /// just read instead of fetching the child's attribute.
    fn lookup_entry(&self, parent: u64, name: &str) -> Result<Entry, FsError> {
        validate_name(name)?;
        let fetch = || parse_dentry(&with_inode_key(parent, name, |key| self.store.get(key))?);
        let found = self.cache.name(parent, name, fetch);
        found.ok_or(FsError::NotFound)
    }

    /// Resolve an absolute path to an inode by recursively fetching inode
    /// KVs from the root (the paper's path-resolution procedure).
    /// Symbolic links are followed, with a depth limit of 8.
    pub fn resolve(&self, path: &str) -> Result<u64, FsError> {
        self.walk(ROOT_INO, path, &mut |_| {})
    }

    /// Resolve without following a final symlink (lstat-style).
    pub fn resolve_nofollow(&self, path: &str) -> Result<u64, FsError> {
        let (parent, name) = self.parent_of(path)?;
        self.lookup(parent, name)
    }

    const MAX_SYMLINK_DEPTH: u32 = 8;

    /// The one path walker: resolve `path` relative to the directory
    /// `start` (openat-style; an empty path is `start` itself), following
    /// every symbolic link it meets, the last component's included.
    /// Empty components (`//`, a trailing `/`) are skipped; `.` and `..`
    /// are refused like any other invalid name.
    ///
    /// Each component walked is reported to `trail` — the nvme-fs
    /// dispatcher ships those steps to the host so its dentry layer
    /// learns what this walk learnt. A step costs one dentry-cache probe;
    /// the walk keeps no per-path state.
    pub fn walk(
        &self,
        start: u64,
        path: &str,
        trail: &mut dyn FnMut(WalkStep),
    ) -> Result<u64, FsError> {
        self.walk_depth(start, path, 0, trail)
    }

    fn walk_depth(
        &self,
        start: u64,
        path: &str,
        depth: u32,
        trail: &mut dyn FnMut(WalkStep),
    ) -> Result<u64, FsError> {
        if depth > Self::MAX_SYMLINK_DEPTH {
            return Err(FsError::TooManyLinks);
        }
        let mut ino = start;
        // Kind of `ino` when a dentry told us; the start's, and that of a
        // followed link's target, take an attribute probe.
        let mut kind = None;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let is_dir = match kind {
                Some(k) => k == FileKind::Dir,
                None => self.get_attr(ino)?.is_dir(),
            };
            if !is_dir {
                return Err(FsError::NotADirectory);
            }
            let (child, child_kind) = self.lookup_entry(ino, comp).inspect_err(|e| {
                if *e == FsError::NotFound {
                    trail(WalkStep::Absent);
                }
            })?;
            if child_kind == FileKind::Symlink {
                // Targets are absolute paths in KVFS (documented choice).
                let target = self.readlink(child)?;
                ino = self.walk_depth(ROOT_INO, &target, depth + 1, &mut |_| {})?;
                kind = None;
                trail(WalkStep::Followed(ino));
            } else {
                ino = child;
                kind = Some(child_kind);
                trail(WalkStep::Entry(ino));
            }
        }
        Ok(ino)
    }

    /// Walk to the directory that holds `path`'s final component; returns
    /// it with that component (which is *not* looked up, so a symlink
    /// there is the caller's to follow or not).
    pub fn walk_parent<'p>(
        &self,
        start: u64,
        path: &'p str,
        trail: &mut dyn FnMut(WalkStep),
    ) -> Result<(u64, &'p str), FsError> {
        let trimmed = path.trim_end_matches('/');
        let (dir, name) = match trimmed.rfind('/') {
            Some(i) => (&trimmed[..i], &trimmed[i + 1..]),
            None => ("", trimmed),
        };
        if name.is_empty() {
            return Err(FsError::InvalidName);
        }
        let parent = self.walk(start, dir, trail)?;
        if !self.get_attr(parent)?.is_dir() {
            return Err(FsError::NotADirectory);
        }
        Ok((parent, name))
    }

    /// [`Kvfs::walk_parent`] of an absolute path, for the whole-path calls.
    fn parent_of<'p>(&self, path: &'p str) -> Result<(u64, &'p str), FsError> {
        self.walk_parent(ROOT_INO, path, &mut |_| {})
    }

    /// Claim `name` under `parent` for `attr`'s inode, if it is free
    /// (`AlreadyExists` otherwise) and `parent` still exists (`NotFound`
    /// otherwise), writing the attribute and `also` in the same
    /// [`KvStore::commit`]; then the caches. The caller holds `parent`'s
    /// [`Kvfs::ino_lock`]: an `rmdir` of it, which holds the same lock from
    /// its emptiness scan to its commit, is wholly before or after.
    fn publish(
        &self,
        parent: u64,
        name: &str,
        attr: &FileAttr,
        also: &[Write<'_>],
    ) -> Result<(), FsError> {
        let (key, value) = (inode_key(parent, name), dentry_value(attr.ino, attr.kind));
        let (akey, avalue) = (attr_key(attr.ino), attr.encode());
        let pkey = attr_key(parent);
        let mut writes = Vec::with_capacity(2 + also.len());
        writes.extend([Write::Put(&key, &value), Write::Put(&akey, &avalue)]);
        writes.extend_from_slice(also);
        if !self
            .store
            .commit(&[Check::Absent(&key), Check::Present(&pkey)], &writes)
        {
            // Refused: the name was taken, or an rmdir took the parent
            // (under the lock this call holds, so the cache knows which).
            return Err(match self.get_attr(parent) {
                Ok(_) => FsError::AlreadyExists,
                Err(_) => FsError::NotFound,
            });
        }
        self.cache.put_name(parent, name, (attr.ino, attr.kind));
        self.cache.put_attr(*attr);
        Ok(())
    }

    /// Create a symbolic link at `path` pointing to the absolute `target`.
    pub fn symlink(&self, path: &str, target: &str) -> Result<u64, FsError> {
        let (parent, name) = self.parent_of(path)?;
        self.symlink_in(parent, name, target)
    }

    /// Create a symbolic link under a known parent inode.
    pub fn symlink_in(&self, parent: u64, name: &str, target: &str) -> Result<u64, FsError> {
        validate_name(name)?;
        if target.len() > MAX_NAME_LEN {
            return Err(FsError::NameTooLong);
        }
        let _guard = self.ino_lock(parent).lock();
        let ino = self.alloc_ino();
        let mut attr = FileAttr::new_file(ino, 0o777, self.now());
        attr.kind = FileKind::Symlink;
        attr.size = target.len() as u64;
        // The target string lives in the small-file KV.
        let target_key = small_key(ino);
        let target = Write::Put(&target_key, target.as_bytes());
        self.publish(parent, name, &attr, &[target])?;
        Ok(ino)
    }

    /// Read a symlink's target.
    pub fn readlink(&self, ino: u64) -> Result<String, FsError> {
        let attr = self.get_attr(ino)?;
        if attr.kind != FileKind::Symlink {
            return Err(FsError::InvalidOperation);
        }
        let raw = self.store.get(&small_key(ino)).ok_or(FsError::NotFound)?;
        String::from_utf8(raw).map_err(|_| FsError::InvalidOperation)
    }

    /// Create a hard link: `new_path` becomes another name for the regular
    /// file at `existing`. Directories cannot be hard-linked.
    pub fn link(&self, existing: &str, new_path: &str) -> Result<(), FsError> {
        let ino = self.resolve(existing)?;
        let (parent, name) = self.parent_of(new_path)?;
        self.link_in(ino, parent, name)
    }

    /// Hard-link the file at `ino` under a known parent inode.
    pub fn link_in(&self, ino: u64, parent: u64, name: &str) -> Result<(), FsError> {
        let _guards = self.lock_inos(&[ino, parent]);
        let mut attr = self.get_attr(ino)?;
        if attr.kind != FileKind::File {
            return Err(FsError::InvalidOperation);
        }
        validate_name(name)?;
        attr.nlink += 1;
        attr.ctime = self.now();
        self.publish(parent, name, &attr, &[])
    }

    // ---- namespace operations -----------------------------------------
    //
    // Each namespace mutation — create, mkdir, symlink, link, unlink,
    // rmdir, rename — is one `KvStore::commit`: its checks are the names
    // it expects (a dentry holding a given inode, or none), its writes
    // every dentry and attribute it changes. Inode locks come first, then the
    // store's shard guards inside the commit, then the cache: the store is
    // written before the cache, and each cache write ticks its stripe. A
    // call that adds a name holds the directory's lock and checks that the
    // directory's attribute is still there, so it cannot land in a
    // directory an rmdir has found empty.

    /// Create a regular file; returns its inode.
    pub fn create(&self, path: &str, mode: u32) -> Result<u64, FsError> {
        let (parent, name) = self.parent_of(path)?;
        self.create_in(parent, name, mode)
    }

    /// Create a regular file under a known parent inode.
    pub fn create_in(&self, parent: u64, name: &str, mode: u32) -> Result<u64, FsError> {
        validate_name(name)?;
        let _guard = self.ino_lock(parent).lock();
        let attr = FileAttr::new_file(self.alloc_ino(), mode, self.now());
        // A 0-byte file has no small-file KV: every reader takes an absent
        // value for zeros, and the first write puts it.
        self.publish(parent, name, &attr, &[])?;
        Ok(attr.ino)
    }

    /// Create a directory; returns its inode.
    pub fn mkdir(&self, path: &str, mode: u32) -> Result<u64, FsError> {
        let (parent, name) = self.parent_of(path)?;
        self.mkdir_in(parent, name, mode)
    }

    /// Create a directory under a known parent inode.
    pub fn mkdir_in(&self, parent: u64, name: &str, mode: u32) -> Result<u64, FsError> {
        validate_name(name)?;
        let _guard = self.ino_lock(parent).lock();
        // The parent gains a link: the new directory's "..".
        let dir = self.relinked(parent, 1)?;
        let attr = FileAttr::new_dir(self.alloc_ino(), mode, self.now());
        let (dkey, dvalue) = (attr_key(parent), dir.encode());
        self.publish(parent, name, &attr, &[Write::Put(&dkey, &dvalue)])?;
        self.cache.put_attr(dir);
        Ok(attr.ino)
    }

    /// List a directory: a prefix scan over `p_ino`-keyed inode KVs, in
    /// name order.
    pub fn readdir(&self, dir: u64) -> Result<Vec<Dirent>, FsError> {
        let mut out = Vec::new();
        self.readdir_with(dir, |ino, kind, name| {
            out.push(Dirent {
                ino,
                name: name.to_string(),
                kind,
            })
        })?;
        Ok(out)
    }

    /// [`Kvfs::readdir`] without the collection: `visit(ino, kind, name)`
    /// runs once per entry, in name order, on the store's own bytes — one
    /// ordered scan, no get (the inode KV carries the kind), no clone.
    /// `visit` runs under the store's read guards and must not call back
    /// into this file system.
    pub fn readdir_with(
        &self,
        dir: u64,
        mut visit: impl FnMut(u64, FileKind, &str),
    ) -> Result<(), FsError> {
        if !self.get_attr(dir)?.is_dir() {
            return Err(FsError::NotADirectory);
        }
        self.store
            .scan_prefix_with(&inode_prefix(dir), |key, value| {
                if let (Some(name), Some((ino, kind))) =
                    (name_from_inode_key(key), parse_dentry(value))
                {
                    visit(ino, kind, name);
                }
            });
        Ok(())
    }

    /// Number of entries in a directory, without materialising them.
    /// Emptiness checks should use this (and existence checks
    /// [`Kvfs::lookup`]) instead of `readdir` — a listing
    /// allocates a name `String` and an attribute fetch per entry just
    /// to be thrown away.
    pub fn dir_entry_count(&self, dir: u64) -> Result<u64, FsError> {
        let attr = self.get_attr(dir)?;
        if !attr.is_dir() {
            return Err(FsError::NotADirectory);
        }
        Ok(self.entries_under(dir))
    }

    /// The inode KVs under `dir`, counted by one key-order scan: a request
    /// the store counts, where `count_prefix` is a free diagnostic.
    fn entries_under(&self, dir: u64) -> u64 {
        let mut entries = 0;
        self.store
            .scan_prefix_with(&inode_prefix(dir), |_, _| entries += 1);
        entries
    }

    /// Remove a regular file.
    pub fn unlink(&self, path: &str) -> Result<(), FsError> {
        let (parent, name) = self.parent_of(path)?;
        self.unlink_in(parent, name)
    }

    /// Remove a name. Data is reclaimed only when the last hard link to
    /// the inode goes away. [`Kvfs::unlink`] is its product caller; it is
    /// public only because the benchmark's probe (`dpc-e2e`) prices it.
    pub fn unlink_in(&self, parent: u64, name: &str) -> Result<(), FsError> {
        self.unlink_entry(parent, name).map(drop)
    }

    /// [`Kvfs::unlink_in`], returning the inode's attribute as the removal
    /// left it: `nlink == 0` says the inode itself is gone, anything else
    /// that it lives on under its other names.
    pub fn unlink_entry(&self, parent: u64, name: &str) -> Result<FileAttr, FsError> {
        let (ino, kind) = self.lookup_entry(parent, name)?;
        if kind == FileKind::Dir {
            return Err(FsError::IsADirectory);
        }
        // The link count is read under the lock: two names of one inode
        // unlinked at once must not both count down from the same value.
        let _guard = self.ino_lock(ino).lock();
        let unlinked = self.one_link_fewer(self.get_attr(ino)?);
        let (key, value) = (inode_key(parent, name), dentry_value(ino, kind));
        let mut writes = Vec::with_capacity(3);
        writes.push(Write::Delete(&key));
        unlinked.writes(&mut writes);
        // Refused: another unlink, or a rename, took the name first.
        if !self.store.commit(&[Check::Holds(&key, &value)], &writes) {
            return Err(FsError::NotFound);
        }
        self.cache.drop_name(parent, name);
        self.settle(&unlinked);
        Ok(unlinked.attr)
    }

    /// `attr` with one name fewer. The caller holds its inode's lock.
    fn one_link_fewer(&self, mut attr: FileAttr) -> Unlinked {
        attr.nlink = attr.nlink.saturating_sub(1);
        if attr.nlink > 0 {
            attr.ctime = self.now();
        }
        Unlinked {
            attr,
            attr_key: attr_key(attr.ino),
            encoded: attr.encode(),
            data_key: small_key(attr.ino),
        }
    }

    /// After the commit that took one of `unlinked`'s names: the inode
    /// cache and, when that was a big file's last name, the blocks and
    /// then the attribute.
    fn settle(&self, unlinked: &Unlinked) {
        let attr = unlinked.attr;
        if attr.nlink > 0 {
            self.cache.put_attr(attr);
        } else if attr.format == DataFormat::Big {
            // The one namespace call that is not one request. The blocks
            // go before the attribute, never after: `Kvfs::open` restarts
            // the inode allocator past the highest attribute that
            // survives, so an attribute deleted first could let a remount
            // hand this inode number out again over the stale blocks.
            FileObject::new(&self.store, attr.ino).delete_all();
            self.drop_attr(attr.ino);
        } else {
            self.cache.drop_attr(attr.ino);
        }
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, path: &str) -> Result<(), FsError> {
        let (parent, name) = self.parent_of(path)?;
        self.rmdir_in(parent, name)
    }

    /// Remove an empty directory under a known parent inode.
    pub fn rmdir_in(&self, parent: u64, name: &str) -> Result<(), FsError> {
        let (ino, kind) = self.lookup_entry(parent, name)?;
        if kind != FileKind::Dir {
            return Err(FsError::NotADirectory);
        }
        // The directory's own lock keeps a mkdir out of it from here on.
        let _guards = self.lock_inos(&[parent, ino]);
        if self.entries_under(ino) != 0 {
            return Err(FsError::DirectoryNotEmpty);
        }
        let dir = self.relinked(parent, -1)?;
        let (key, value) = (inode_key(parent, name), dentry_value(ino, kind));
        let (akey, pkey, pvalue) = (attr_key(ino), attr_key(parent), dir.encode());
        let writes = [
            Write::Delete(&key),
            Write::Delete(&akey),
            Write::Put(&pkey, &pvalue),
        ];
        // Refused: a rename took the name first.
        if !self.store.commit(&[Check::Holds(&key, &value)], &writes) {
            return Err(FsError::NotFound);
        }
        self.cache.drop_name(parent, name);
        self.cache.drop_attr(ino);
        self.cache.put_attr(dir);
        Ok(())
    }

    /// Rename by path; see [`Kvfs::rename_in`].
    pub fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        let (fp, fname) = self.parent_of(from)?;
        let (tp, tname) = self.parent_of(to)?;
        self.rename_in(fp, fname, tp, tname).map(drop)
    }

    /// Rename under known parent inodes. POSIX semantics: an existing
    /// regular-file destination is atomically replaced (its data reclaimed
    /// when this was its last link); a directory destination is rejected.
    /// Returns the replaced inode's attribute as [`Kvfs::unlink_entry`]
    /// left it, `None` when the destination name was free.
    pub fn rename_in(
        &self,
        fp: u64,
        fname: &str,
        tp: u64,
        tname: &str,
    ) -> Result<Option<FileAttr>, FsError> {
        validate_name(tname)?;
        let entry = self.lookup_entry(fp, fname)?;
        if fp == tp && fname == tname {
            return Ok(None); // rename to self is a no-op
        }
        // The destination as the dentry cache has it — a free name is not
        // asked of the store, its commit checks it — and, when the commit
        // finds that wrong, as the store has it.
        let cached = self.cache.name(tp, tname, || None);
        if let Some(done) = self.commit_rename(fp, fname, entry, tp, tname, cached)? {
            return Ok(done);
        }
        let stored = with_inode_key(tp, tname, |key| self.store.get(key));
        let stored = stored.as_deref().and_then(parse_dentry);
        if let Some(done) = self.commit_rename(fp, fname, entry, tp, tname, stored)? {
            return Ok(done);
        }
        // Refused twice: another call took the source first, an rmdir took
        // the destination directory, or another call keeps changing the
        // destination.
        let from = inode_key(fp, fname);
        let source_stands =
            self.store.get(&from).as_deref() == Some(&dentry_value(entry.0, entry.1));
        Err(match source_stands && self.get_attr(tp).is_ok() {
            true => FsError::AlreadyExists,
            false => FsError::NotFound,
        })
    }

    /// One try at [`Kvfs::rename_in`] of `entry`, believing the
    /// destination holds `dest` (`None`: free): one commit whose checks
    /// are both names as believed. `Ok(None)` when it was refused.
    fn commit_rename(
        &self,
        fp: u64,
        fname: &str,
        (ino, kind): Entry,
        tp: u64,
        tname: &str,
        dest: Option<Entry>,
    ) -> Result<Option<Option<FileAttr>>, FsError> {
        if let Some((_, FileKind::Dir)) = dest {
            return Err(FsError::IsADirectory);
        }
        // A directory moving to another parent takes its `..` along. The
        // locks: the replaced inode's (its link count, as `unlink_entry`
        // reads it), the destination directory's (as every call that adds
        // a name holds it, against an rmdir), and the source directory's
        // too when a directory moves (as mkdir and rmdir hold them).
        let moves_dir = kind == FileKind::Dir && fp != tp;
        let mut inos = Vec::with_capacity(3);
        inos.extend(dest.map(|(replaced, _)| replaced));
        inos.push(tp);
        if moves_dir {
            inos.push(fp);
        }
        let _guards = self.lock_inos(&inos);
        let unlinked = match dest.map(|(replaced, _)| self.get_attr(replaced)) {
            Some(Ok(attr)) => Some(self.one_link_fewer(attr)),
            // A name believed to hold an inode that is gone: believed
            // wrongly, as a refused commit would say.
            Some(Err(_)) => return Ok(None),
            None => None,
        };
        let parents = match moves_dir {
            true => Some((self.relinked(fp, -1)?, self.relinked(tp, 1)?)),
            false => None,
        };

        let (from, to) = (inode_key(fp, fname), inode_key(tp, tname));
        let value = dentry_value(ino, kind);
        let was = dest.map(|(replaced, rkind)| dentry_value(replaced, rkind));
        let tkey = attr_key(tp);
        let checks = [
            Check::Holds(&from, &value),
            match &was {
                Some(was) => Check::Holds(&to, was),
                None => Check::Absent(&to),
            },
            Check::Present(&tkey),
        ];
        let mut writes = Vec::with_capacity(6);
        writes.extend([Write::Put(&to, &value), Write::Delete(&from)]);
        if let Some(unlinked) = &unlinked {
            unlinked.writes(&mut writes);
        }
        let moved = parents.map(|(f, t)| (attr_key(fp), f.encode(), tkey, t.encode()));
        if let Some((fkey, fvalue, tkey, tvalue)) = &moved {
            writes.extend([Write::Put(fkey, fvalue), Write::Put(tkey, tvalue)]);
        }
        if !self.store.commit(&checks, &writes) {
            return Ok(None);
        }
        // The destination is replaced in the cache, never dropped first: a
        // reader finds the old inode there or the new one, never neither.
        self.cache.put_name(tp, tname, (ino, kind));
        self.cache.drop_name(fp, fname);
        if let Some((f, t)) = parents {
            self.cache.put_attr(f);
            self.cache.put_attr(t);
        }
        Ok(Some(unlinked.map(|unlinked| {
            self.settle(&unlinked);
            unlinked.attr
        })))
    }

    /// `stat` by path: the walk, then one inode-cache probe.
    pub fn stat(&self, path: &str) -> Result<FileAttr, FsError> {
        let ino = self.resolve(path)?;
        self.get_attr(ino)
    }

    // ---- data operations ----------------------------------------------

    /// Write `data` at `offset`; extends the file. Returns bytes written.
    pub fn write(&self, ino: u64, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        self.write_extent(ino, offset, &[data])
    }

    /// Vectored write: lay `segments` down contiguously starting at
    /// `offset` ([`Kvfs::write_blocks`] of one run per segment). N
    /// segments cost one `write_extent` instead of N `write` calls.
    /// Returns total bytes written. [`Kvfs::write`] is its product
    /// caller; it is public only because the benchmark's probe
    /// (`dpc-e2e`) prices it.
    pub fn write_extent(
        &self,
        ino: u64,
        offset: u64,
        segments: &[&[u8]],
    ) -> Result<usize, FsError> {
        let runs = segments.iter().scan(offset, |at, &seg| {
            let run = (*at, seg);
            *at = at.saturating_add(seg.len() as u64);
            Some(run)
        });
        self.write_blocks(ino, runs)
    }

    /// Lay each `(offset, bytes)` run down, in the order given, under
    /// **one** inode lock, and move the attribute — size, format and
    /// mtime — in the same KV write request (DESIGN.md §9.4); the whole
    /// of a flush batch. A big file's runs and its attribute, last, are
    /// one multi-key sub-write ([`FileObject::write_runs`]), however many
    /// blocks and runs there are. A file under 8 KiB rewrites its whole
    /// small-file KV (the paper's update rule) in one commit with the
    /// attribute; a write that ends at or past 8 KiB promotes it
    /// first, in the same request. Returns the bytes written.
    pub fn write_blocks<'d, R>(&self, ino: u64, runs: R) -> Result<usize, FsError>
    where
        R: IntoIterator<Item = (u64, &'d [u8])>,
        R::IntoIter: Clone,
    {
        // An empty run writes nothing, and bounds nothing.
        let runs = runs.into_iter().filter(|(_, run)| !run.is_empty());
        let total: usize = runs.clone().map(|(_, run)| run.len()).sum();
        if total == 0 {
            return Ok(0);
        }
        // A hostile offset near u64::MAX must surface as an error, not an
        // arithmetic overflow panic.
        let mut end = 0u64;
        for (offset, run) in runs.clone() {
            let run_end = offset
                .checked_add(run.len() as u64)
                .ok_or(FsError::InvalidOperation)?;
            end = end.max(run_end);
        }
        let _guard = self.ino_lock(ino).lock();
        let mut attr = self.get_attr(ino)?;
        if attr.is_dir() {
            return Err(FsError::IsADirectory);
        }
        attr.size = attr.size.max(end);
        attr.mtime = self.now();
        if attr.format == DataFormat::Small && end < SMALL_FILE_MAX {
            // Every run fits the small KV: one rewrite, beside the
            // attribute.
            let mut v = self.store.get(&small_key(ino)).unwrap_or_default();
            if (v.len() as u64) < end {
                v.resize(end as usize, 0);
            }
            for (offset, run) in runs {
                v[offset as usize..offset as usize + run.len()].copy_from_slice(run);
            }
            let (key, encoded) = (attr_key(ino), attr.encode());
            let writes = [Write::Put(&small_key(ino), &v), Write::Put(&key, &encoded)];
            self.store.commit(&[], &writes);
            self.cache.put_attr(attr);
        } else {
            self.write_big(&mut attr, runs);
        }
        Ok(total)
    }

    /// Write `runs` into `attr.ino`'s blocks and `attr`, as a big file's,
    /// in one sub-write request, then cache the attribute. A small file is
    /// promoted on the way: its value's bytes go first in the same
    /// request, and the value is deleted only after it, so at every
    /// request boundary the attribute — stored or cached — names a value
    /// that exists. Called under the inode lock.
    fn write_big<'d>(&self, attr: &mut FileAttr, runs: impl IntoIterator<Item = (u64, &'d [u8])>) {
        let ino = attr.ino;
        let small = attr.format == DataFormat::Small;
        let old = if small {
            self.store.get(&small_key(ino)).unwrap_or_default()
        } else {
            Vec::new()
        };
        attr.format = DataFormat::Big;
        FileObject::new(&self.store, ino).write_runs(&old, runs, Some(&attr.encode()));
        self.cache.put_attr(*attr);
        if small {
            self.store.delete(&small_key(ino));
        }
    }

    /// Read up to `dst.len()` bytes at `offset`; returns bytes read
    /// (0 at or past EOF). A small file is one sub-read of its value; a big
    /// file's range is one multi-key sub-read of the blocks it spans,
    /// whatever their number ([`FileObject::read_at`]).
    pub fn read(&self, ino: u64, offset: u64, dst: &mut [u8]) -> Result<usize, FsError> {
        let attr = self.get_attr(ino)?;
        if attr.is_dir() {
            return Err(FsError::IsADirectory);
        }
        if offset >= attr.size || dst.is_empty() {
            return Ok(0);
        }
        let n = ((attr.size - offset) as usize).min(dst.len());
        let dst = &mut dst[..n];
        let blocks = FileObject::new(&self.store, ino);
        match attr.format {
            DataFormat::Small => {
                // Bytes the value does not cover read as zeros, and no value
                // is a hole — unless a promotion moved the bytes into blocks
                // since the attribute was read: it deletes the value last.
                if !self.store.read_sub(&small_key(ino), offset as usize, dst)
                    && self
                        .get_attr(ino)
                        .is_ok_and(|now| now.format == DataFormat::Big)
                {
                    blocks.read_at(offset, dst);
                }
            }
            DataFormat::Big => {
                blocks.read_at(offset, dst);
            }
        }
        Ok(n)
    }

    /// [`Kvfs::read`] scattered into `segments`: the run at `offset`,
    /// zero-filled past EOF; returns the number of valid bytes (0 at or
    /// past EOF). No product path calls it — the prefetcher reads a window
    /// as one contiguous `read` — it stays because the benchmark's probe
    /// prices it.
    pub fn read_extent(
        &self,
        ino: u64,
        offset: u64,
        segments: &mut [&mut [u8]],
    ) -> Result<usize, FsError> {
        let mut run = vec![0u8; segments.iter().map(|s| s.len()).sum()];
        let valid = self.read(ino, offset, &mut run)?;
        let mut rest = &run[..];
        for seg in segments.iter_mut() {
            let (head, tail) = rest.split_at(seg.len());
            seg.copy_from_slice(head);
            rest = tail;
        }
        Ok(valid)
    }

    /// Truncate (grow or shrink) to `size`.
    pub fn truncate(&self, ino: u64, size: u64) -> Result<(), FsError> {
        let _guard = self.ino_lock(ino).lock();
        let mut attr = self.get_attr(ino)?;
        if attr.is_dir() {
            return Err(FsError::IsADirectory);
        }
        if size == attr.size {
            // Nothing to cut, nothing to extend: no KV is touched and the
            // mtime stands.
            return Ok(());
        }
        let promote = attr.format == DataFormat::Small && size >= SMALL_FILE_MAX;
        match attr.format {
            DataFormat::Small => {
                if size == 0 {
                    // A 0-byte file has no small-file KV.
                    self.store.delete(&small_key(ino));
                } else if !promote {
                    self.store.truncate_value(&small_key(ino), size as usize);
                }
                // Growing past the boundary promotes, with the attribute.
            }
            DataFormat::Big => {
                FileObject::new(&self.store, ino).truncate(size);
            }
        }
        attr.size = size;
        attr.mtime = self.now();
        if promote {
            self.write_big(&mut attr, []);
        } else {
            self.put_attr(&attr);
        }
        Ok(())
    }

    /// Persistence barrier. The backing KV store is durable in this model,
    /// but the barrier can still fail: the inode may have vanished under
    /// the caller (`NotFound`), or the KV service may refuse the barrier
    /// outright (`Io`, modelled by a zero-delay "kv.op" fault fire).
    /// Callers must surface both — PR 8 exists because an earlier version
    /// swallowed them.
    pub fn fsync(&self, ino: u64) -> Result<(), FsError> {
        self.get_attr(ino)?;
        if !self.store.barrier() {
            return Err(FsError::Io);
        }
        Ok(())
    }

    /// Number of KV pairs currently backing the file system (diagnostic).
    pub fn kv_pairs(&self) -> usize {
        self.store.len()
    }

    /// The number of 8 KiB blocks a big file holds (diagnostic).
    pub fn big_file_blocks(&self, ino: u64) -> usize {
        self.store.count_prefix(&big_key(ino, 0)[..9])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Kvfs {
        Kvfs::new(Arc::new(KvStore::new()))
    }

    /// Whether the store holds `name`'s dentry under `parent`: one exact
    /// get, past KVFS's caches.
    fn stored_entry(fs: &Kvfs, parent: u64, name: &str) -> bool {
        fs.store().get(&inode_key(parent, name)).is_some()
    }

    #[test]
    fn root_exists_with_ino_zero() {
        let fs = fs();
        assert_eq!(fs.resolve("/").unwrap(), ROOT_INO);
        let attr = fs.get_attr(ROOT_INO).unwrap();
        assert!(attr.is_dir());
        assert_eq!(attr.nlink, 2);
    }

    #[test]
    fn create_write_read() {
        let fs = fs();
        let ino = fs.create("/hello.txt", 0o644).unwrap();
        assert_eq!(fs.write(ino, 0, b"hello world").unwrap(), 11);
        let mut buf = [0u8; 64];
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 11);
        assert_eq!(&buf[..11], b"hello world");
        assert_eq!(fs.stat("/hello.txt").unwrap().size, 11);
        // Read at EOF.
        assert_eq!(fs.read(ino, 11, &mut buf).unwrap(), 0);
        // Partial read.
        assert_eq!(fs.read(ino, 6, &mut buf[..3]).unwrap(), 3);
        assert_eq!(&buf[..3], b"wor");
    }

    #[test]
    fn nested_directories_resolve() {
        let fs = fs();
        fs.mkdir("/a", 0o755).unwrap();
        fs.mkdir("/a/b", 0o755).unwrap();
        let ino = fs.create("/a/b/c.txt", 0o644).unwrap();
        assert_eq!(fs.resolve("/a/b/c.txt").unwrap(), ino);
        assert_eq!(
            fs.resolve("a/b/c.txt").unwrap(),
            ino,
            "leading slash optional"
        );
        assert_eq!(fs.resolve("/a/b/missing"), Err(FsError::NotFound));
        assert_eq!(fs.resolve("/a/b/c.txt/x"), Err(FsError::NotADirectory));
    }

    #[test]
    fn duplicate_create_fails() {
        let fs = fs();
        fs.create("/f", 0o644).unwrap();
        assert_eq!(fs.create("/f", 0o644), Err(FsError::AlreadyExists));
        fs.mkdir("/d", 0o755).unwrap();
        assert_eq!(fs.mkdir("/d", 0o755), Err(FsError::AlreadyExists));
    }

    #[test]
    fn readdir_lists_sorted_entries() {
        let fs = fs();
        fs.create("/zeta", 0o644).unwrap();
        fs.mkdir("/alpha", 0o755).unwrap();
        fs.create("/mid", 0o644).unwrap();
        let entries = fs.readdir(ROOT_INO).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["alpha", "mid", "zeta"],
            "prefix scan is ordered"
        );
        assert_eq!(entries[0].kind, FileKind::Dir);
        assert_eq!(entries[2].kind, FileKind::File);
    }

    #[test]
    fn small_file_stays_small() {
        let fs = fs();
        let ino = fs.create("/s", 0o644).unwrap();
        fs.write(ino, 0, &[7u8; 4000]).unwrap();
        assert_eq!(fs.get_attr(ino).unwrap().format, DataFormat::Small);
        fs.write(ino, 4000, &[8u8; 191]).unwrap(); // total 4191 < 8192
        assert_eq!(fs.get_attr(ino).unwrap().format, DataFormat::Small);
    }

    #[test]
    fn small_to_big_promotion_preserves_data() {
        let fs = fs();
        let ino = fs.create("/grow", 0o644).unwrap();
        let first: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        fs.write(ino, 0, &first).unwrap();
        assert_eq!(fs.get_attr(ino).unwrap().format, DataFormat::Small);
        // This write crosses 8 KiB — promotion must occur.
        let second = vec![0xCC; 6000];
        fs.write(ino, 5000, &second).unwrap();
        let attr = fs.get_attr(ino).unwrap();
        assert_eq!(attr.format, DataFormat::Big);
        assert_eq!(attr.size, 11_000);
        let mut back = vec![0u8; 11_000];
        assert_eq!(fs.read(ino, 0, &mut back).unwrap(), 11_000);
        assert_eq!(&back[..5000], &first[..]);
        assert_eq!(&back[5000..], &second[..]);
    }

    #[test]
    fn write_extent_matches_sequential_writes() {
        let fs = fs();
        // Big-format file: the extent path writes each segment through one
        // FileObject under one lock/attr cycle.
        let a = fs.create("/ext-a", 0o644).unwrap();
        let b = fs.create("/ext-b", 0o644).unwrap();
        let pages: Vec<Vec<u8>> = (0..6u8).map(|k| vec![k + 1; 4096]).collect();
        let segs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
        assert_eq!(fs.write_extent(a, 16 * 4096, &segs).unwrap(), 6 * 4096);
        let mut pos = 16 * 4096u64;
        for p in &pages {
            fs.write(b, pos, p).unwrap();
            pos += p.len() as u64;
        }
        assert_eq!(fs.get_attr(a).unwrap().size, fs.get_attr(b).unwrap().size);
        let mut ba = vec![0u8; 22 * 4096];
        let mut bb = vec![0u8; 22 * 4096];
        assert_eq!(
            fs.read(a, 0, &mut ba).unwrap(),
            fs.read(b, 0, &mut bb).unwrap()
        );
        assert_eq!(ba, bb);
    }

    #[test]
    fn read_extent_matches_sequential_reads() {
        let fs = fs();
        let ino = fs.create("/rext", 0o644).unwrap();
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        fs.write(ino, 0, &data).unwrap();
        // Aligned window entirely inside the file.
        let mut pages: Vec<Vec<u8>> = (0..6).map(|_| vec![0xEE; 4096]).collect();
        {
            let mut segs: Vec<&mut [u8]> = pages.iter_mut().map(|p| p.as_mut_slice()).collect();
            assert_eq!(fs.read_extent(ino, 2 * 4096, &mut segs).unwrap(), 6 * 4096);
        }
        for (k, p) in pages.iter().enumerate() {
            let mut one = vec![0u8; 4096];
            assert_eq!(fs.read(ino, (2 + k as u64) * 4096, &mut one).unwrap(), 4096);
            assert_eq!(p, &one, "page {k} differs from per-page read");
        }
        // Window straddling EOF: valid bytes clamp to size, tail zero-fills.
        let mut tail: Vec<Vec<u8>> = (0..3).map(|_| vec![0xEE; 4096]).collect();
        let mut segs: Vec<&mut [u8]> = tail.iter_mut().map(|p| p.as_mut_slice()).collect();
        let valid = fs.read_extent(ino, 9 * 4096, &mut segs).unwrap();
        assert_eq!(valid, 40_000 - 9 * 4096); // 3136: EOF inside the first page
        assert_eq!(&tail[0][..valid], &data[9 * 4096..40_000]);
        assert!(tail[0][valid..].iter().all(|&b| b == 0));
        assert!(tail[1].iter().all(|&b| b == 0));
        assert!(tail[2].iter().all(|&b| b == 0));
        // Entirely past EOF: zero valid bytes, segments zeroed.
        let mut past = vec![0xEEu8; 4096];
        assert_eq!(fs.read_extent(ino, 64 * 4096, &mut [&mut past]).unwrap(), 0);
        assert!(past.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_extent_small_file() {
        let fs = fs();
        let ino = fs.create("/rext-s", 0o644).unwrap();
        fs.write(ino, 0, &[9u8; 3000]).unwrap();
        assert_eq!(fs.get_attr(ino).unwrap().format, DataFormat::Small);
        let mut a = vec![0xEEu8; 2048];
        let mut b = vec![0xEEu8; 2048];
        let valid = fs.read_extent(ino, 1024, &mut [&mut a, &mut b]).unwrap();
        assert_eq!(valid, 3000 - 1024); // 1976: EOF inside the first segment
        assert!(a[..valid].iter().all(|&x| x == 9));
        assert!(a[valid..].iter().all(|&x| x == 0));
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn read_extent_shares_block_fetches() {
        let fs = fs();
        let ino = fs.create("/rext-ops", 0o644).unwrap();
        fs.write(ino, 0, &vec![5u8; 32 * 4096]).unwrap(); // big format
        let before = fs.store().stats();
        let mut pages: Vec<Vec<u8>> = (0..8).map(|_| vec![0u8; 4096]).collect();
        let mut segs: Vec<&mut [u8]> = pages.iter_mut().map(|p| p.as_mut_slice()).collect();
        fs.read_extent(ino, 0, &mut segs).unwrap();
        let after = fs.store().stats();
        // 8 × 4 KiB pages over 8 KiB blocks: one request for 4 block
        // keys, not a key per page.
        assert_eq!(after.sub_reads - before.sub_reads, 1);
        assert_eq!(
            after.sub_read_keys - before.sub_read_keys,
            4,
            "block walk must be shared across segments"
        );
    }

    #[test]
    fn write_extent_small_file_single_rewrite() {
        let fs = fs();
        let ino = fs.create("/ext-small", 0o644).unwrap();
        assert_eq!(
            fs.write_extent(ino, 10, &[&[1u8; 100][..], &[2u8; 50][..]])
                .unwrap(),
            150
        );
        let attr = fs.get_attr(ino).unwrap();
        assert_eq!(attr.format, DataFormat::Small);
        assert_eq!(attr.size, 160);
        assert_eq!(fs.big_file_blocks(ino), 0, "no block KVs for a small file");
        let mut back = vec![0u8; 160];
        fs.read(ino, 0, &mut back).unwrap();
        assert!(back[..10].iter().all(|&x| x == 0));
        assert!(back[10..110].iter().all(|&x| x == 1));
        assert!(back[110..].iter().all(|&x| x == 2));
    }

    #[test]
    fn write_extent_promotes_across_small_boundary() {
        let fs = fs();
        let ino = fs.create("/ext-grow", 0o644).unwrap();
        let first: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        fs.write(ino, 0, &first).unwrap();
        assert_eq!(fs.get_attr(ino).unwrap().format, DataFormat::Small);
        // The extent crosses 8 KiB: promotion, then block writes.
        let segs: Vec<&[u8]> = vec![&[0xAA; 4096], &[0xBB; 4096]];
        assert_eq!(fs.write_extent(ino, 5000, &segs).unwrap(), 8192);
        let attr = fs.get_attr(ino).unwrap();
        assert_eq!(attr.format, DataFormat::Big);
        assert_eq!(attr.size, 13_192);
        let mut back = vec![0u8; 13_192];
        assert_eq!(fs.read(ino, 0, &mut back).unwrap(), 13_192);
        assert_eq!(&back[..5000], &first[..]);
        assert!(back[5000..9096].iter().all(|&x| x == 0xAA));
        assert!(back[9096..].iter().all(|&x| x == 0xBB));
    }

    #[test]
    fn write_extent_edge_cases() {
        let fs = fs();
        let ino = fs.create("/ext-edge", 0o644).unwrap();
        assert_eq!(fs.write_extent(ino, 0, &[]).unwrap(), 0);
        assert_eq!(fs.write_extent(ino, 0, &[&[][..], &[][..]]).unwrap(), 0);
        assert_eq!(fs.get_attr(ino).unwrap().size, 0, "empty extent is a no-op");
        assert!(matches!(
            fs.write_extent(ino, u64::MAX - 10, &[&[1u8; 100][..]]),
            Err(FsError::InvalidOperation)
        ));
        assert!(matches!(
            fs.write_extent(ROOT_INO, 0, &[&[1u8; 10][..]]),
            Err(FsError::IsADirectory)
        ));
    }

    #[test]
    fn n_overwrites_and_their_attribute_are_one_sub_write() {
        let fs = fs();
        let ino = fs.create("/overwrites", 0o644).unwrap();
        fs.write(ino, 0, &vec![1u8; 16 * BIG_BLOCK]).unwrap();
        let attr = fs.get_attr(ino).unwrap();
        let before = fs.store().stats();
        let block = [2u8; BIG_BLOCK];
        let runs = (0..8u64).map(|k| (2 * k * BIG_BLOCK as u64, &block[..]));
        assert_eq!(fs.write_blocks(ino, runs).unwrap(), 8 * BIG_BLOCK);
        let written = fs.store().stats();
        // One request for the eight blocks and, last, the attribute (eight
        // before the batch, and a put for the mtime after it before the
        // attribute rode the batch).
        assert_eq!(written.sub_writes - before.sub_writes, 1);
        assert_eq!(written.sub_write_keys - before.sub_write_keys, 9);
        assert_eq!((written.puts, written.gets), (before.puts, before.gets));
        // The store holds what the cache holds: the mtime moved, the size
        // did not.
        let now = fs.get_attr(ino).unwrap();
        let cold = Kvfs::open(fs.store().clone()).unwrap();
        assert_eq!(cold.get_attr(ino).unwrap(), now);
        assert!(now.mtime > attr.mtime);
        assert_eq!(now.size, attr.size);
        let mut back = vec![0u8; 16 * BIG_BLOCK];
        fs.read(ino, 0, &mut back).unwrap();
        for (k, block) in back.chunks(BIG_BLOCK).enumerate() {
            assert!(
                block.iter().all(|&b| b == 1 + (k % 2 == 0) as u8),
                "block {k}"
            );
        }
    }

    #[test]
    fn a_batch_with_growth_puts_the_attribute_once_and_writes_every_run() {
        let fs = fs();
        let ino = fs.create("/batch", 0o644).unwrap();
        fs.write(ino, 0, &[1u8; 100]).unwrap();
        // Small, promoted and grown by one batch: a run inside the small
        // value, a run past 8 KiB, and an empty run past the end.
        let before = fs.store().stats();
        let runs: [(u64, &[u8]); 3] = [(10, &[2u8; 20]), (3 * 4096, &[3u8; 4096]), (1 << 40, &[])];
        assert_eq!(fs.write_blocks(ino, runs).unwrap(), 4096 + 20);
        let after = fs.store().stats();
        // One request: the small value's bytes, the two runs and the
        // attribute; then the value's delete.
        assert_eq!(
            (
                after.sub_writes - before.sub_writes,
                after.sub_write_keys - before.sub_write_keys,
                after.puts - before.puts,
                after.deletes - before.deletes
            ),
            (1, 4, 0, 1)
        );
        let attr = Kvfs::open(fs.store().clone())
            .unwrap()
            .get_attr(ino)
            .unwrap();
        assert_eq!((attr.format, attr.size), (DataFormat::Big, 4 * 4096));
        let mut back = vec![0u8; 4 * 4096];
        assert_eq!(fs.read(ino, 0, &mut back).unwrap(), 4 * 4096);
        let mut want = vec![0u8; 4 * 4096];
        want[..100].fill(1);
        want[10..30].fill(2);
        want[3 * 4096..].fill(3);
        assert!(back == want);
        // Every run of a batch that stays small rewrites the one value
        // once, in one commit with the attribute.
        let small = fs.create("/batch-small", 0o644).unwrap();
        let before = fs.store().stats();
        let runs: [(u64, &[u8]); 2] = [(0, &[4u8; 10]), (50, &[5u8; 10])];
        assert_eq!(fs.write_blocks(small, runs).unwrap(), 20);
        let after = fs.store().stats();
        assert_eq!(
            (
                after.puts - before.puts,
                after.commit_keys - before.commit_keys
            ),
            (1, 2),
            "the value and the attribute, one request"
        );
        let mut back = [9u8; 60];
        assert_eq!(fs.read(small, 0, &mut back).unwrap(), 60);
        assert_eq!(
            (&back[..10], &back[10..50], &back[50..]),
            (&[4u8; 10][..], &[0u8; 40][..], &[5u8; 10][..])
        );
    }

    #[test]
    fn growth_and_promotion_put_the_attribute_before_returning() {
        let fs = fs();
        let ino = fs.create("/grow", 0o644).unwrap();
        // Small, growing: the size is in the store when the call returns.
        assert_eq!(fs.write_blocks(ino, [(0, &[3u8; 100][..])]).unwrap(), 100);
        let cold = Kvfs::open(fs.store().clone()).unwrap();
        assert_eq!(cold.get_attr(ino).unwrap().size, 100);
        // Small → big at the same call.
        let puts = fs.store().stats().puts;
        assert_eq!(
            fs.write_blocks(ino, [(0, &[4u8; BIG_BLOCK][..])]).unwrap(),
            BIG_BLOCK
        );
        let cold = Kvfs::open(fs.store().clone())
            .unwrap()
            .get_attr(ino)
            .unwrap();
        assert_eq!(
            (cold.format, cold.size),
            (DataFormat::Big, BIG_BLOCK as u64)
        );
        // The attribute rode the block's request: no put.
        assert_eq!(fs.store().stats().puts, puts);
        // A vanished inode's batch writes nothing.
        fs.unlink("/grow").unwrap();
        let before = fs.store().stats();
        assert_eq!(
            fs.write_blocks(ino, [(0, &[5u8; 10][..])]),
            Err(FsError::NotFound)
        );
        let after = fs.store().stats();
        assert_eq!(
            (after.sub_writes, after.puts),
            (before.sub_writes, before.puts)
        );
    }

    #[test]
    fn a_promotion_is_one_get_one_sub_write_then_one_delete() {
        let fs = fs();
        let ino = fs.create("/promote", 0o644).unwrap();
        let old: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8 + 1).collect();
        fs.write(ino, 0, &old).unwrap();
        let before = fs.store().stats();
        let runs: [(u64, &[u8]); 2] = [(4000, &[7u8; 100]), (20_000, &[8u8; 4096])];
        assert_eq!(fs.write_blocks(ino, runs).unwrap(), 4196);
        let after = fs.store().stats();
        // The small value; one request of its bytes, the two runs and the
        // attribute; the value's delete. Five requests before: the get, a
        // sub-write of the bytes, the delete, a sub-write of the runs and
        // an attribute put.
        assert_eq!(
            (
                after.gets - before.gets,
                after.sub_writes - before.sub_writes,
                after.sub_write_keys - before.sub_write_keys,
                after.deletes - before.deletes,
                after.puts - before.puts
            ),
            (1, 1, 4, 1, 0)
        );
        assert_eq!(fs.store().get(&small_key(ino)), None);
        // A second KVFS over the store reads every byte back.
        let cold = Kvfs::open(fs.store().clone()).unwrap();
        let attr = cold.get_attr(ino).unwrap();
        assert_eq!((attr.format, attr.size), (DataFormat::Big, 24_096));
        let mut want = vec![0u8; 24_096];
        want[..5000].copy_from_slice(&old);
        want[4000..4100].fill(7);
        want[20_000..].fill(8);
        let mut back = vec![0u8; want.len()];
        assert_eq!(cold.read(ino, 0, &mut back).unwrap(), want.len());
        assert!(back == want, "the promoted file diverged");
    }

    #[test]
    fn a_reader_racing_a_promotion_never_reads_zeros() {
        use std::sync::atomic::AtomicBool;
        let fs = fs();
        let (current, done) = (AtomicU64::new(u64::MAX), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut buf = [0u8; 100];
                while !done.load(Ordering::Acquire) {
                    // A file not yet written reads nothing to check.
                    let ino = current.load(Ordering::Acquire);
                    if let Ok(100) = fs.read(ino, 0, &mut buf) {
                        assert!(buf == [0xAB; 100], "inode {ino} read {:?}", &buf[..8]);
                    }
                }
            });
            for round in 0..2_000 {
                let ino = fs.create(&format!("/p{round}"), 0o644).unwrap();
                fs.write(ino, 0, &[0xAB; 100]).unwrap();
                current.store(ino, Ordering::Release);
                // Promoted: the 100 bytes move into block 0.
                fs.write(ino, BIG_BLOCK as u64, &[0xCD; BIG_BLOCK]).unwrap();
            }
            done.store(true, Ordering::Release);
        });
    }

    /// A big-file read as it was when every block was its own request:
    /// one `read_sub` per block, a miss zero-filled. The multi-key read
    /// must return these bytes exactly.
    fn read_block_by_block(fs: &Kvfs, ino: u64, offset: u64, dst: &mut [u8]) -> usize {
        let attr = fs.get_attr(ino).unwrap();
        if offset >= attr.size {
            return 0;
        }
        let n = ((attr.size - offset) as usize).min(dst.len());
        if attr.format == DataFormat::Small {
            if !fs
                .store()
                .read_sub(&small_key(ino), offset as usize, &mut dst[..n])
            {
                dst[..n].fill(0);
            }
            return n;
        }
        let mut pos = 0;
        while pos < n {
            let at = offset + pos as u64;
            let in_block = (at % BIG_BLOCK as u64) as usize;
            let piece = &mut dst[pos..pos + (BIG_BLOCK - in_block).min(n - pos)];
            let key = big_key(ino, at / BIG_BLOCK as u64);
            if !fs.store().read_sub(&key, in_block, piece) {
                piece.fill(0);
            }
            pos += piece.len();
        }
        n
    }

    #[test]
    fn a_big_read_is_one_sub_read_whatever_blocks_it_spans() {
        let fs = fs();
        let ino = fs.create("/span", 0o644).unwrap();
        fs.write(ino, 0, &vec![1u8; 32 * BIG_BLOCK]).unwrap();
        let mut buf = vec![0u8; 32 * BIG_BLOCK];
        let b = BIG_BLOCK as u64;
        // (offset, length, blocks spanned): 1, 2 and 16 aligned blocks, an
        // unaligned span whose first and last blocks are partial, and a
        // short read inside one block.
        for (offset, len, blocks) in [
            (0, BIG_BLOCK, 1),
            (0, 2 * BIG_BLOCK, 2),
            (3 * b, 16 * BIG_BLOCK, 16),
            (b - 100, BIG_BLOCK + 200, 3),
            (5 * b + 7, 100, 1),
        ] {
            let before = fs.store().stats();
            assert_eq!(fs.read(ino, offset, &mut buf[..len]).unwrap(), len);
            let after = fs.store().stats();
            assert_eq!(
                (
                    after.sub_reads - before.sub_reads,
                    after.sub_read_keys - before.sub_read_keys
                ),
                (1, blocks),
                "{len} bytes at {offset}"
            );
            assert_eq!(after.gets, before.gets, "the attribute is cached");
            assert!(buf[..len].iter().all(|&x| x == 1));
        }
    }

    #[test]
    fn a_multi_key_read_returns_exactly_the_block_by_block_bytes() {
        let fs = fs();
        let b = BIG_BLOCK as u64;
        let pattern = |len: usize, salt: u32| -> Vec<u8> {
            (0..len as u32)
                .map(|i| (i.wrapping_mul(31) ^ salt) as u8)
                .collect()
        };
        let big = fs.create("/big", 0o644).unwrap();
        // Blocks 0–3 written; 4–9 a hole; 10–11 written; then a truncate
        // to an unaligned size leaves block 11's value short, and a grow
        // reads past it into zeros.
        fs.write(big, 0, &pattern(4 * BIG_BLOCK, 7)).unwrap();
        fs.write(big, 10 * b, &pattern(2 * BIG_BLOCK, 9)).unwrap();
        fs.truncate(big, 11 * b + 1000).unwrap();
        fs.truncate(big, 13 * b + 500).unwrap();
        let small = fs.create("/small", 0o644).unwrap();
        fs.write(small, 0, &pattern(3000, 3)).unwrap();
        let size = fs.get_attr(big).unwrap().size;
        let cases = [
            (0, 4 * BIG_BLOCK),           // aligned, written
            (b + 13, 5 * BIG_BLOCK),      // partial first block, into the hole
            (3 * b, 8 * BIG_BLOCK + 17),  // across the hole, partial last
            (5 * b, 100),                 // inside the hole
            (11 * b - 50, 2 * BIG_BLOCK), // across the short value
            (size - 300, 4096),           // crossing EOF
            (size, 10),                   // at EOF
        ];
        for (offset, len) in cases {
            let (mut got, mut want) = (vec![0xEE; len], vec![0xEE; len]);
            let n = fs.read(big, offset, &mut got).unwrap();
            assert_eq!(n, read_block_by_block(&fs, big, offset, &mut want));
            assert_eq!(got[..n], want[..n], "{len} bytes at {offset}");
        }
        for (offset, len) in [(0, 3000), (100, 5000), (2999, 1)] {
            let (mut got, mut want) = (vec![0xEE; len], vec![0xEE; len]);
            let n = fs.read(small, offset, &mut got).unwrap();
            assert_eq!(n, read_block_by_block(&fs, small, offset, &mut want));
            assert_eq!(got[..n], want[..n], "small: {len} bytes at {offset}");
        }
    }

    /// Each block of a multi-key read is read under its own shard guard,
    /// so a block rewritten whole while the read runs comes back wholly
    /// old or wholly new — never torn — though two blocks of one read may
    /// come from different rewrites.
    #[test]
    fn a_ranged_read_never_tears_a_block() {
        use std::sync::atomic::AtomicBool;
        let fs = fs();
        let ino = fs.create("/torn", 0o644).unwrap();
        const BLOCKS: u64 = 16;
        fs.write(ino, 0, &vec![0u8; BLOCKS as usize * BIG_BLOCK])
            .unwrap();
        let (start, stop) = (std::sync::Barrier::new(2), AtomicBool::new(false));
        let rounds = if cfg!(debug_assertions) { 50 } else { 400 };
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for round in 1..=rounds {
                    for lbn in 0..BLOCKS {
                        let block = [round as u8; BIG_BLOCK];
                        fs.write(ino, lbn * BIG_BLOCK as u64, &block).unwrap();
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
            let mut buf = vec![0u8; 5 * BIG_BLOCK];
            let mut at = 0u64;
            start.wait();
            loop {
                // Offsets step by 4 KiB + 1: every read's first and last
                // blocks are partial, at a different place each time.
                at = (at + 4097) % ((BLOCKS - 5) * BIG_BLOCK as u64);
                fs.read(ino, at, &mut buf).unwrap();
                let first = BIG_BLOCK - (at % BIG_BLOCK as u64) as usize;
                let (head, rest) = buf.split_at(first);
                for piece in std::iter::once(head).chain(rest.chunks(BIG_BLOCK)) {
                    assert!(
                        piece.iter().all(|&x| x == piece[0]),
                        "a torn block in the read at {at}"
                    );
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        });
    }

    #[test]
    fn a_zero_byte_file_has_no_small_file_kv() {
        let fs = fs();
        let baseline = fs.kv_pairs();
        let ops = |f: &dyn Fn()| {
            let before = fs.store().stats();
            f();
            let after = fs.store().stats();
            (after.puts - before.puts, after.deletes - before.deletes)
        };
        // Create is the dentry and the attribute, in one request.
        let create = || {
            fs.create("/never", 0o644).unwrap();
        };
        assert_eq!(ops(&create), (1, 0));
        assert_eq!(fs.kv_pairs(), baseline + 2);
        // A remount reads the empty file as 0 bytes.
        let ino = fs.resolve("/never").unwrap();
        let cold = Kvfs::open(fs.store().clone()).unwrap();
        let mut buf = [9u8; 64];
        assert_eq!(cold.get_attr(ino).unwrap().size, 0);
        assert_eq!(cold.read(ino, 0, &mut buf).unwrap(), 0);
        // Unlink of a never-written file is the dentry and the attribute,
        // in one request.
        assert_eq!(ops(&|| fs.unlink("/never").unwrap()), (0, 1));
        assert_eq!(fs.kv_pairs(), baseline);
        // Write, truncate to 0, unlink: back at the baseline.
        let ino = fs.create("/brief", 0o644).unwrap();
        fs.write(ino, 0, b"some bytes").unwrap();
        assert_eq!(fs.kv_pairs(), baseline + 3);
        fs.truncate(ino, 0).unwrap();
        assert_eq!(fs.kv_pairs(), baseline + 2);
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 0);
        // Grown from nothing, it reads zeros.
        fs.truncate(ino, 40).unwrap();
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 40);
        assert!(buf[..40].iter().all(|&x| x == 0));
        fs.truncate(ino, 0).unwrap();
        fs.unlink("/brief").unwrap();
        assert_eq!(fs.kv_pairs(), baseline);
        // A symlink keeps its target value: 3 KVs in, 3 out, each three
        // in one request.
        let symlink = || {
            fs.symlink("/ln", "/x").unwrap();
        };
        assert_eq!(ops(&symlink), (1, 0));
        assert_eq!(
            fs.readlink(fs.resolve_nofollow("/ln").unwrap()).unwrap(),
            "/x"
        );
        assert_eq!(ops(&|| fs.unlink("/ln").unwrap()), (0, 1));
        assert_eq!(fs.kv_pairs(), baseline);
    }

    #[test]
    fn big_file_random_8k_updates() {
        let fs = fs();
        let ino = fs.create("/big", 0o644).unwrap();
        fs.write(ino, 0, &vec![0u8; 8 * BIG_BLOCK]).unwrap();
        fs.write(ino, 3 * BIG_BLOCK as u64, &vec![3u8; BIG_BLOCK])
            .unwrap();
        fs.write(ino, 6 * BIG_BLOCK as u64, &vec![6u8; BIG_BLOCK])
            .unwrap();
        let mut buf = vec![0u8; BIG_BLOCK];
        fs.read(ino, 3 * BIG_BLOCK as u64, &mut buf).unwrap();
        assert_eq!(buf, vec![3u8; BIG_BLOCK]);
        fs.read(ino, 4 * BIG_BLOCK as u64, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; BIG_BLOCK]);
    }

    #[test]
    fn unlink_removes_all_kvs() {
        let fs = fs();
        let baseline = fs.kv_pairs();
        let ino = fs.create("/gone", 0o644).unwrap();
        fs.write(ino, 0, &vec![1u8; 100_000]).unwrap(); // big format
        assert!(fs.kv_pairs() > baseline);
        fs.unlink("/gone").unwrap();
        assert_eq!(fs.kv_pairs(), baseline, "no leaked KVs");
        assert_eq!(fs.stat("/gone"), Err(FsError::NotFound));
    }

    #[test]
    fn unlink_directory_rejected() {
        let fs = fs();
        fs.mkdir("/d", 0o755).unwrap();
        assert_eq!(fs.unlink("/d"), Err(FsError::IsADirectory));
    }

    #[test]
    fn rmdir_semantics() {
        let fs = fs();
        fs.mkdir("/d", 0o755).unwrap();
        fs.create("/d/f", 0o644).unwrap();
        assert_eq!(fs.rmdir("/d"), Err(FsError::DirectoryNotEmpty));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert_eq!(fs.resolve("/d"), Err(FsError::NotFound));
        // Parent nlink went 2 -> 3 -> 2.
        assert_eq!(fs.get_attr(ROOT_INO).unwrap().nlink, 2);
    }

    #[test]
    fn rename_moves_entry() {
        let fs = fs();
        fs.mkdir("/src", 0o755).unwrap();
        fs.mkdir("/dst", 0o755).unwrap();
        let ino = fs.create("/src/f", 0o644).unwrap();
        fs.write(ino, 0, b"payload").unwrap();
        fs.rename("/src/f", "/dst/g").unwrap();
        assert_eq!(fs.resolve("/src/f"), Err(FsError::NotFound));
        let moved = fs.resolve("/dst/g").unwrap();
        assert_eq!(moved, ino);
        let mut buf = [0u8; 7];
        fs.read(moved, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
    }

    #[test]
    fn rename_replaces_existing_file_posix_style() {
        let fs = fs();
        let a = fs.create("/a", 0o644).unwrap();
        fs.write(a, 0, b"from a").unwrap();
        let b = fs.create("/b", 0o644).unwrap();
        fs.write(b, 0, b"old b content").unwrap();
        let kvs_before = fs.kv_pairs();
        fs.rename("/a", "/b").unwrap();
        // /a is gone; /b now names a's inode with a's content.
        assert_eq!(fs.resolve("/a"), Err(FsError::NotFound));
        assert_eq!(fs.resolve("/b").unwrap(), a);
        let mut buf = [0u8; 6];
        fs.read(a, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"from a");
        // The replaced file's KVs were reclaimed.
        assert!(fs.kv_pairs() < kvs_before);
        // A directory destination is refused.
        fs.mkdir("/dir", 0o755).unwrap();
        assert_eq!(fs.rename("/b", "/dir"), Err(FsError::IsADirectory));
        // Self-rename is a no-op.
        fs.rename("/b", "/b").unwrap();
        assert_eq!(fs.resolve("/b").unwrap(), a);
    }

    #[test]
    fn truncate_shrink_and_grow() {
        let fs = fs();
        let ino = fs.create("/t", 0o644).unwrap();
        fs.write(ino, 0, &vec![9u8; 20_000]).unwrap();
        fs.truncate(ino, 10_000).unwrap();
        assert_eq!(fs.get_attr(ino).unwrap().size, 10_000);
        let mut buf = vec![0u8; 20_000];
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 10_000);
        assert!(buf[..10_000].iter().all(|&b| b == 9));
        // Grow back: the hole reads as zeros.
        fs.truncate(ino, 15_000).unwrap();
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 15_000);
        assert!(buf[10_000..15_000].iter().all(|&b| b == 0));
    }

    #[test]
    fn truncate_costs_what_it_drops_not_what_the_file_holds() {
        let fs = fs();
        let ino = fs.create("/cost", 0o644).unwrap();
        fs.write(ino, 0, &vec![3u8; 64 * BIG_BLOCK]).unwrap();
        let delta = |f: &dyn Fn()| {
            let before = fs.store().stats();
            f();
            let after = fs.store().stats();
            (
                after.scans - before.scans,
                after.deletes - before.deletes,
                after.puts - before.puts,
                // Whole-value and sub-value reads: any copy of a block.
                after.gets - before.gets + after.sub_reads - before.sub_reads,
            )
        };
        // Shrink by 5 blocks: one range seek, five deletes, the attr put —
        // and none of the 59 surviving blocks is read.
        let shrink = delta(&|| fs.truncate(ino, 59 * BIG_BLOCK as u64).unwrap());
        assert_eq!(shrink, (1, 5, 1, 0));
        assert_eq!(fs.big_file_blocks(ino), 59);
        // Grow: nothing to delete.
        let grow = delta(&|| fs.truncate(ino, 70 * BIG_BLOCK as u64).unwrap());
        assert_eq!(grow, (1, 0, 1, 0));
        // Same size: not a single KV op, and the file is not "modified".
        let attr = fs.get_attr(ino).unwrap();
        let pairs = fs.kv_pairs();
        let same = delta(&|| fs.truncate(ino, 70 * BIG_BLOCK as u64).unwrap());
        assert_eq!(same, (0, 0, 0, 0));
        assert_eq!(fs.get_attr(ino).unwrap(), attr, "mtime must stand");
        assert_eq!(fs.kv_pairs(), pairs);
        // Unlink drops the 59 blocks in one range delete (+ dentry, attr).
        let unlink = delta(&|| fs.unlink("/cost").unwrap());
        assert_eq!(unlink, (1, 61, 0, 0));
    }

    #[test]
    fn same_size_truncate_of_a_small_file_is_free_too() {
        let fs = fs();
        let ino = fs.create("/empty", 0o644).unwrap();
        let (stats, attr) = (fs.store().stats(), fs.get_attr(ino).unwrap());
        fs.truncate(ino, 0).unwrap();
        assert_eq!(fs.store().stats(), stats);
        assert_eq!(fs.get_attr(ino).unwrap(), attr);
    }

    #[test]
    fn caches_hit_after_first_access() {
        let fs = fs();
        fs.mkdir("/etc", 0o755).unwrap();
        fs.create("/etc/conf", 0o644).unwrap();
        let (s0, kv0) = (fs.lookup_stats(), fs.store().stats());
        fs.resolve("/etc/conf").unwrap();
        fs.resolve("/etc/conf").unwrap();
        fs.resolve("/etc/conf").unwrap();
        let s1 = fs.lookup_stats();
        // After the entries are cached (they are: create/mkdir prime the
        // dentry cache), resolves hit: every walk, the first included, is
        // one dentry hit per component and no KV get.
        assert_eq!(s1.dentry_misses - s0.dentry_misses, 0);
        assert_eq!(s1.dentry_hits - s0.dentry_hits, 3 * 2);
        assert_eq!(fs.store().stats().gets, kv0.gets);
        assert_eq!((s1.path_hits, s1.path_misses), (0, 0), "retired, read 0");
    }

    #[test]
    fn repeated_stats_of_a_warm_path_cost_depth_dentry_hits_and_no_kv_get() {
        let fs = fs();
        fs.mkdir("/deep", 0o755).unwrap();
        fs.mkdir("/deep/nested", 0o755).unwrap();
        fs.create("/deep/nested/leaf", 0o644).unwrap();
        let first = fs.stat("/deep/nested/leaf").unwrap();
        let (s0, kv0) = (fs.lookup_stats(), fs.store().stats());
        for _ in 0..5 {
            assert_eq!(fs.stat("/deep/nested/leaf").unwrap().ino, first.ino);
        }
        let s1 = fs.lookup_stats();
        // A stat is the walk — one dentry hit per component — and two
        // attribute hits (the root's kind, the leaf's attribute).
        assert_eq!(s1.dentry_hits - s0.dentry_hits, 5 * 3);
        assert_eq!(s1.dentry_misses - s0.dentry_misses, 0);
        assert_eq!(s1.inode_hits - s0.inode_hits, 5 * 2);
        assert_eq!(s1.inode_misses - s0.inode_misses, 0);
        assert_eq!(fs.store().stats(), kv0, "a warm stat touches no KV");
    }

    #[test]
    fn resolve_and_stat_tell_the_truth_after_every_namespace_mutation() {
        let fs = fs();
        fs.mkdir("/d", 0o755).unwrap();
        let f = fs.create("/d/f", 0o644).unwrap();
        fs.stat("/d/f").unwrap(); // populate

        // Rename away: the old path must stop resolving.
        fs.rename("/d/f", "/d/g").unwrap();
        assert_eq!(fs.stat("/d/f"), Err(FsError::NotFound));
        let g = fs.stat("/d/g").unwrap();
        assert_eq!((g.ino, fs.resolve("/d/g")), (f, Ok(f)));

        // Rename something *else* into the old name: the pre-rename
        // NotFound result must not have poisoned anything, and the old
        // cached ino must not resurface.
        fs.create("/d/h", 0o644).unwrap();
        fs.rename("/d/h", "/d/f").unwrap();
        let f2 = fs.stat("/d/f").unwrap();
        assert_ne!(f2.ino, g.ino);

        // Unlink + recreate under the same path yields the new ino.
        fs.unlink("/d/f").unwrap();
        assert_eq!(fs.stat("/d/f"), Err(FsError::NotFound));
        let ino3 = fs.create("/d/f", 0o644).unwrap();
        assert_eq!(fs.stat("/d/f").unwrap().ino, ino3);

        // An ancestor directory renamed: every path through it moves.
        fs.rename("/d", "/e").unwrap();
        assert_eq!(fs.resolve("/d/f"), Err(FsError::NotFound));
        assert_eq!(fs.stat("/e/f").unwrap().ino, ino3);
        assert_eq!(fs.resolve("/e/g"), Ok(f));
        // mkdir, symlink, link and rmdir are namespace mutations too.
        let sub = fs.mkdir("/e/sub", 0o755).unwrap();
        fs.symlink("/ln", "/e/sub").unwrap();
        fs.link("/e/f", "/e/sub/h").unwrap();
        assert_eq!(fs.stat("/ln").unwrap().ino, sub);
        assert_eq!(fs.stat("/ln/h").unwrap().nlink, 2);
        fs.unlink("/e/sub/h").unwrap();
        fs.rmdir("/e/sub").unwrap();
        assert_eq!(fs.stat("/e/sub"), Err(FsError::NotFound));
        assert_eq!(fs.resolve("/ln"), Err(FsError::NotFound), "dangles now");
        assert_eq!(fs.stat("/e/f").unwrap().nlink, 1);
    }

    /// The fill fence, end to end: a reader that missed and went to the
    /// store must not cache what it read once the churner has moved on —
    /// unfenced, the cache ends up naming a dead inode and the churner's
    /// next `unlink_in` of the name it just created fails `NotFound`.
    #[test]
    fn a_lookup_racing_create_and_unlink_never_strands_the_name() {
        use std::sync::atomic::AtomicBool;
        let runs = if cfg!(debug_assertions) { 20 } else { 200 };
        for run in 0..runs {
            let fs = fs();
            let stop = AtomicBool::new(false);
            let mut stranded = None;
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        while !stop.load(Ordering::Relaxed) {
                            let _ = fs.lookup(ROOT_INO, "x");
                        }
                    });
                }
                // Odd runs end on the create, even ones on the unlink.
                for cycle in 0..2_000 + run % 2 {
                    let done = match cycle % 2 {
                        0 => fs.create_in(ROOT_INO, "x", 0o644).map(drop),
                        _ => fs.unlink_in(ROOT_INO, "x"),
                    };
                    if done.is_err() {
                        stranded = Some((cycle, done));
                        break;
                    }
                }
                // Before any assert: a panic here would leave the readers
                // spinning and the scope joining them forever.
                stop.store(true, Ordering::Relaxed);
            });
            assert_eq!(stranded, None, "run {run}: the churner's (cycle, result)");
            assert_eq!(
                fs.lookup(ROOT_INO, "x").is_ok(),
                stored_entry(&fs, ROOT_INO, "x"),
                "run {run}: the cache and the store disagree after quiesce"
            );
            assert_eq!(stored_entry(&fs, ROOT_INO, "x"), run % 2 == 1);
        }
    }

    /// Each namespace mutation is one KV request — one commit, counted as
    /// a put, or as a delete when it only deletes — on warm caches, where
    /// no name or attribute is read from the store. An rmdir adds its
    /// emptiness scan; a big file losing its last name adds its range
    /// delete and then its attribute's delete (DESIGN.md §9.3).
    #[test]
    fn every_namespace_mutation_is_one_kv_request() {
        let fs = fs();
        fs.mkdir("/a", 0o755).unwrap();
        fs.mkdir("/b", 0o755).unwrap();
        let data = fs.create("/a/data", 0o644).unwrap();
        fs.write(data, 0, b"small bytes").unwrap();
        let big = fs.create("/a/big", 0o644).unwrap();
        fs.write(big, 0, &vec![1u8; 4 * BIG_BLOCK]).unwrap();
        fs.create("/a/victim", 0o644).unwrap();
        let victim = fs.resolve("/a/victim").unwrap();
        fs.write(victim, 0, b"replaced").unwrap();
        // (puts, deletes, scans, gets) one call moves the store by.
        let delta = |op: &dyn Fn()| {
            let before = fs.store().stats();
            op();
            let after = fs.store().stats();
            (
                after.puts - before.puts,
                after.deletes - before.deletes,
                after.scans - before.scans,
                after.gets - before.gets,
            )
        };
        let ledger: [(&str, &dyn Fn(), _); 14] = [
            (
                "create",
                &|| _ = fs.create("/a/f", 0o644).unwrap(),
                (1, 0, 0, 0),
            ),
            ("link", &|| fs.link("/a/f", "/b/f2").unwrap(), (1, 0, 0, 0)),
            (
                "mkdir",
                &|| _ = fs.mkdir("/a/d", 0o755).unwrap(),
                (1, 0, 0, 0),
            ),
            (
                "symlink",
                &|| _ = fs.symlink("/a/ln", "/a/f").unwrap(),
                (1, 0, 0, 0),
            ),
            (
                "unlink, nlink > 1",
                &|| fs.unlink("/b/f2").unwrap(),
                (1, 0, 0, 0),
            ),
            (
                "unlink, a symlink",
                &|| fs.unlink("/a/ln").unwrap(),
                (0, 1, 0, 0),
            ),
            (
                "rename, free name",
                &|| fs.rename("/a/f", "/a/g").unwrap(),
                (1, 0, 0, 0),
            ),
            (
                "rename, over a file",
                &|| fs.rename("/a/data", "/a/victim").unwrap(),
                (1, 0, 0, 0),
            ),
            (
                "rename, dir across",
                &|| fs.rename("/a/d", "/b/d").unwrap(),
                (1, 0, 0, 0),
            ),
            ("rmdir", &|| fs.rmdir("/b/d").unwrap(), (1, 0, 1, 0)),
            (
                "unlink, 0 bytes",
                &|| fs.unlink("/a/g").unwrap(),
                (0, 1, 0, 0),
            ),
            (
                "unlink, small",
                &|| fs.unlink("/a/victim").unwrap(),
                (0, 1, 0, 0),
            ),
            // The one exception: the name, the four blocks, the attribute.
            (
                "unlink, big",
                &|| fs.unlink("/a/big").unwrap(),
                (0, 1 + 4 + 1, 1, 0),
            ),
            ("rmdir, empty", &|| fs.rmdir("/a").unwrap(), (1, 0, 1, 0)),
        ];
        for (op, call, want) in ledger {
            assert_eq!(delta(call), want, "{op}");
        }
        // What the calls left is what they should have: the tree is /b.
        let cold = Kvfs::open(fs.store().clone()).unwrap();
        assert_eq!(cold.readdir(ROOT_INO).unwrap().len(), 1);
        assert_eq!(cold.readdir(cold.resolve("/b").unwrap()).unwrap().len(), 0);
        assert_eq!(
            [ROOT_INO, cold.resolve("/b").unwrap()].map(|d| cold.get_attr(d).unwrap().nlink),
            [3, 2]
        );
        assert_eq!(
            (cold.get_attr(data), cold.get_attr(victim)),
            (Err(FsError::NotFound), Err(FsError::NotFound))
        );
        assert_eq!(cold.get_attr(big), Err(FsError::NotFound));
        assert_eq!(
            fs.kv_pairs(),
            1 + 2,
            "the root's attribute, /b's dentry and attribute"
        );
    }

    /// POSIX: a rename over an existing name replaces it atomically. A
    /// reader polling the name must find the old inode or the new one,
    /// never neither — so the rename may not remove the destination before
    /// it publishes it again, in the store or in the cache.
    #[test]
    fn a_rename_over_a_name_never_lets_the_destination_vanish() {
        use std::sync::atomic::AtomicBool;
        let fs = fs();
        let dir = fs.mkdir("/d", 0o755).unwrap();
        fs.create_in(dir, "dst", 0o644).unwrap();
        let (stop, mut vanished, mut polls) = (AtomicBool::new(false), 0u64, 0u64);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut missing = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    missing.0 += (fs.lookup(dir, "dst") == Err(FsError::NotFound)) as u64;
                    missing.1 += 1;
                }
                missing
            });
            for i in 0..10_000 {
                let src = format!("src{i}");
                let renamed = fs
                    .create_in(dir, &src, 0o644)
                    .and_then(|_| fs.rename_in(dir, &src, dir, "dst"));
                if renamed.is_err() {
                    stop.store(true, Ordering::Relaxed);
                    panic!("rename {i}: {renamed:?}");
                }
            }
            stop.store(true, Ordering::Relaxed);
            (vanished, polls) = reader.join().unwrap();
        });
        assert_eq!(
            vanished, 0,
            "the destination was missing {vanished} times in {polls} polls"
        );
        // Each rename reclaimed the file it replaced.
        assert_eq!(fs.dir_entry_count(dir).unwrap(), 1);
        assert_eq!(
            fs.kv_pairs(),
            1 + 2 + 2,
            "the root, /d and /d/dst: each an attribute"
        );
    }

    /// A rename believes the dentry cache about its destination; when a
    /// second instance over the same store has changed it, the commit is
    /// refused and the rename asks the store once more — it never replaces
    /// a name it did not check, and a source gone under it is `NotFound`.
    #[test]
    fn a_rename_whose_cache_is_wrong_about_the_destination_asks_the_store() {
        let fs = fs();
        let other = Kvfs::open(fs.store().clone()).unwrap();
        let (a, b) = (
            fs.create("/a", 0o644).unwrap(),
            fs.create("/b", 0o644).unwrap(),
        );
        fs.write(b, 0, b"old b").unwrap();
        // The other instance replaces /b behind this one's cache.
        let c = other.create("/c", 0o644).unwrap();
        assert_eq!(other.rename("/c", "/b"), Ok(()));
        assert_eq!(fs.lookup(ROOT_INO, "b"), Ok(b), "this cache is stale");
        let before = fs.store().stats();
        assert_eq!(
            fs.rename_in(ROOT_INO, "a", ROOT_INO, "b")
                .map(|r| r.map(|r| r.ino)),
            Ok(Some(c))
        );
        let after = fs.store().stats();
        assert_eq!(after.puts - before.puts, 2, "refused once, then applied");
        assert_eq!(
            fs.store().get(&inode_key(ROOT_INO, "b")).as_deref(),
            Some(&dentry_value(a, FileKind::File)[..])
        );
        assert_eq!(
            Kvfs::open(fs.store().clone()).unwrap().get_attr(c),
            Err(FsError::NotFound)
        );
        // A free name filled behind this instance: replaced as well.
        fs.create("/d", 0o644).unwrap();
        let e = other.create("/e", 0o644).unwrap();
        assert_eq!(
            fs.rename_in(ROOT_INO, "d", ROOT_INO, "e")
                .map(|r| r.map(|r| r.ino)),
            Ok(Some(e))
        );
        // A source the other instance unlinked: both commits refused.
        let f = fs.create("/f", 0o644).unwrap();
        other.unlink("/f").unwrap();
        assert_eq!(fs.lookup(ROOT_INO, "f"), Ok(f), "this cache is stale");
        assert_eq!(fs.rename("/f", "/g"), Err(FsError::NotFound));
        assert!(!stored_entry(&fs, ROOT_INO, "g"));
    }

    /// A create publishes its name and its attribute in one commit: a
    /// reader that finds the name — in the cache or in the store — finds
    /// the attribute too, never ENOENT.
    #[test]
    fn a_created_name_always_has_its_attribute() {
        use std::sync::atomic::AtomicBool;
        let fs = fs();
        let (stop, next) = (AtomicBool::new(false), AtomicU64::new(0));
        let mut orphans = (0u64, 0u64);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (mut orphans, mut found) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let name = format!("f{}", next.load(Ordering::Relaxed));
                    if let Ok(ino) = fs.lookup(ROOT_INO, &name) {
                        found += 1;
                        orphans += (fs.get_attr(ino) == Err(FsError::NotFound)) as u64;
                    }
                }
                (orphans, found)
            });
            for i in 0..20_000u64 {
                next.store(i, Ordering::Relaxed);
                fs.create_in(ROOT_INO, &format!("f{i}"), 0o644).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            orphans = reader.join().unwrap();
        });
        assert_eq!(
            orphans.0, 0,
            "{} of {} names found had no attribute",
            orphans.0, orphans.1
        );
    }

    /// An rmdir scans its directory empty, then commits. A name added in
    /// between — by a create, a symlink, a link or a rename into the
    /// victim — would outlive the directory, unreachable. Each call races
    /// an rmdir of its target directory, both released by one barrier:
    /// never do both succeed, and nothing is ever left under a directory
    /// that is gone.
    #[test]
    fn rmdir_never_orphans_a_concurrent_create() {
        use std::sync::Barrier;
        const ROUNDS: usize = 2_000;
        let fs = fs();
        let file = fs.create("/file", 0o644).unwrap();
        let kinds = ["create", "symlink", "link", "rename"];
        let mut orphans = [0usize; 4];
        for (k, kind) in kinds.into_iter().enumerate() {
            for i in 0..ROUNDS {
                let d = fs.mkdir_in(ROOT_INO, "d", 0o755).unwrap();
                let (name, src) = (format!("x{i}"), format!("{kind}{i}"));
                if kind == "rename" {
                    fs.create_in(ROOT_INO, &src, 0o644).unwrap();
                }
                let barrier = Barrier::new(2);
                let (added, removed) = std::thread::scope(|s| {
                    let adder = s.spawn(|| {
                        barrier.wait();
                        match kind {
                            "create" => fs.create_in(d, &name, 0o644).map(drop),
                            "symlink" => fs.symlink_in(d, &name, "/file").map(drop),
                            "link" => fs.link_in(file, d, &name),
                            _ => fs.rename_in(ROOT_INO, &src, d, &name).map(drop),
                        }
                    });
                    barrier.wait();
                    let removed = fs.rmdir_in(ROOT_INO, "d").is_ok();
                    (adder.join().unwrap(), removed)
                });
                let left = fs.store().count_prefix(&inode_prefix(d));
                if removed && (added.is_ok() || left > 0) {
                    orphans[k] += 1;
                } else if removed {
                    // The rmdir came first: the directory is not there.
                    assert_eq!(added, Err(FsError::NotFound), "{kind} {i}");
                } else {
                    // The name landed first: the directory was not empty.
                    assert_eq!(added, Ok(()), "{kind} {i}: neither call succeeded");
                    fs.unlink_in(d, &name).unwrap();
                    fs.rmdir_in(ROOT_INO, "d").unwrap();
                }
            }
        }
        assert_eq!(
            orphans, [0; 4],
            "rounds in {ROUNDS} that left a name under a removed directory, per {kinds:?}"
        );
    }

    #[test]
    fn a_directory_renamed_to_another_parent_takes_its_dotdot_along() {
        let fs = fs();
        let a = fs.mkdir("/a", 0o755).unwrap();
        let b = fs.mkdir("/b", 0o755).unwrap();
        let x = fs.mkdir("/a/x", 0o755).unwrap();
        let nlinks = || [a, b].map(|dir| fs.get_attr(dir).unwrap().nlink);
        assert_eq!(nlinks(), [3, 2]);
        fs.rename("/a/x", "/b/x").unwrap();
        assert_eq!(nlinks(), [2, 3]);
        assert_eq!(fs.resolve("/b/x"), Ok(x));
        // Within one parent, and for a file, no link moves.
        fs.rename("/b/x", "/b/y").unwrap();
        fs.create("/a/f", 0o644).unwrap();
        fs.rename("/a/f", "/b/f").unwrap();
        assert_eq!(nlinks(), [2, 3]);
        // A remount reads the same counts from the store.
        let again = Kvfs::open(fs.store().clone()).unwrap();
        assert_eq!([a, b].map(|d| again.get_attr(d).unwrap().nlink), [2, 3]);
        fs.rmdir("/b/y").unwrap();
        assert_eq!(nlinks(), [2, 2]);
    }

    #[test]
    fn entry_probes_do_not_materialise_listings() {
        let fs = fs();
        fs.mkdir("/dir", 0o755).unwrap();
        let dir = fs.resolve("/dir").unwrap();
        assert_eq!(fs.dir_entry_count(dir).unwrap(), 0);
        // "ab" is a byte prefix of "abc": the exact-key probe must tell
        // them apart (a prefix count would conflate them).
        let ab = fs.create("/dir/ab", 0o644).unwrap();
        let abc = fs.create("/dir/abc", 0o644).unwrap();
        assert_eq!(fs.dir_entry_count(dir).unwrap(), 2);
        assert_eq!(
            (fs.lookup(dir, "ab"), fs.lookup(dir, "abc")),
            (Ok(ab), Ok(abc))
        );
        assert!(stored_entry(&fs, dir, "ab") && stored_entry(&fs, dir, "abc"));
        fs.unlink("/dir/ab").unwrap();
        assert_eq!(fs.lookup(dir, "ab"), Err(FsError::NotFound));
        assert_eq!(fs.lookup(dir, "abc"), Ok(abc));
        assert!(!stored_entry(&fs, dir, "ab") && stored_entry(&fs, dir, "abc"));
        assert_eq!(fs.dir_entry_count(dir).unwrap(), 1);
        // Counting a file is an error, same as readdir.
        let f = fs.resolve("/dir/abc").unwrap();
        assert_eq!(fs.dir_entry_count(f), Err(FsError::NotADirectory));
    }

    #[test]
    fn concurrent_creates_in_one_directory() {
        let fs = Arc::new(fs());
        std::thread::scope(|s| {
            for t in 0..8 {
                let fs = fs.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        fs.create(&format!("/t{t}-f{i}"), 0o644).unwrap();
                    }
                });
            }
        });
        assert_eq!(fs.readdir(ROOT_INO).unwrap().len(), 400);
        // All inos distinct.
        let mut inos: Vec<u64> = fs
            .readdir(ROOT_INO)
            .unwrap()
            .into_iter()
            .map(|e| e.ino)
            .collect();
        inos.sort_unstable();
        inos.dedup();
        assert_eq!(inos.len(), 400);
    }

    #[test]
    fn remount_recovers_namespace_and_allocator() {
        let store = Arc::new(KvStore::new());
        let inos: Vec<u64> = {
            let fs = Kvfs::new(store.clone());
            fs.mkdir("/persisted", 0o755).unwrap();
            let a = fs.create("/persisted/a", 0o644).unwrap();
            fs.write(a, 0, b"survives reboot").unwrap();
            let b = fs.create("/persisted/b", 0o644).unwrap();
            fs.write(b, 0, &vec![9u8; 100_000]).unwrap(); // big format
            vec![a, b]
        }; // "server" dies: all host state gone, store remains

        let fs2 = Kvfs::open(store).unwrap();
        // Namespace and data intact.
        assert_eq!(fs2.resolve("/persisted/a").unwrap(), inos[0]);
        let mut buf = [0u8; 15];
        fs2.read(inos[0], 0, &mut buf).unwrap();
        assert_eq!(&buf, b"survives reboot");
        assert_eq!(fs2.get_attr(inos[1]).unwrap().size, 100_000);
        // New allocations never collide with recovered inodes.
        let c = fs2.create("/persisted/c", 0o644).unwrap();
        assert!(!inos.contains(&c), "ino reuse after remount");
        assert!(c > *inos.iter().max().unwrap());
        // Nor does the clock run backwards: a later write is a later mtime.
        let before = fs2.get_attr(inos[1]).unwrap().mtime;
        fs2.write(inos[0], 0, b"x").unwrap();
        assert!(fs2.get_attr(inos[0]).unwrap().mtime > before);
    }

    #[test]
    fn open_on_an_empty_store_fails() {
        assert_eq!(
            Kvfs::open(Arc::new(KvStore::new())).err(),
            Some(FsError::NotFound)
        );
    }

    #[test]
    fn hostile_offsets_error_instead_of_panicking() {
        // Regression: a write whose offset + len overflows u64 used to
        // panic in debug builds; it must surface as a typed error.
        let fs = fs();
        let ino = fs.create("/h", 0o644).unwrap();
        assert_eq!(
            fs.write(ino, u64::MAX - 3, b"boom"),
            Err(FsError::InvalidOperation)
        );
        assert_eq!(
            fs.write(ino, u64::MAX, b"x"),
            Err(FsError::InvalidOperation)
        );
        // Reads far past EOF are a clean zero, not a slice panic.
        let mut buf = [0u8; 8];
        assert_eq!(fs.read(ino, u64::MAX - 1, &mut buf).unwrap(), 0);
        // The file is still healthy afterwards.
        assert_eq!(fs.write(ino, 0, b"ok").unwrap(), 2);
    }

    #[test]
    fn malformed_store_records_do_not_panic() {
        // A corrupted dentry value (wrong width) and a short attribute key
        // must degrade to NotFound / be skipped — never panic.
        let store = Arc::new(KvStore::new());
        let fs = Kvfs::new(store.clone());
        store.put(&crate::keys::inode_key(ROOT_INO, "bad"), &[1, 2, 3]);
        assert_eq!(fs.lookup(ROOT_INO, "bad"), Err(FsError::NotFound));
        // Short attribute key in the 0x02 keyspace: remount must survive.
        store.put(&[0x02, 0x01], b"junk");
        let fs2 = Kvfs::open(store).unwrap();
        assert_eq!(fs2.resolve("/").unwrap(), ROOT_INO);
    }

    #[test]
    fn concurrent_writers_different_files() {
        let fs = Arc::new(fs());
        let inos: Vec<u64> = (0..8)
            .map(|i| fs.create(&format!("/w{i}"), 0o644).unwrap())
            .collect();
        std::thread::scope(|s| {
            for (t, &ino) in inos.iter().enumerate() {
                let fs = fs.clone();
                s.spawn(move || {
                    for chunk in 0..10u64 {
                        fs.write(ino, chunk * 4096, &vec![t as u8; 4096]).unwrap();
                    }
                });
            }
        });
        let mut buf = vec![0u8; 40960];
        for (t, &ino) in inos.iter().enumerate() {
            assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 40960);
            assert!(buf.iter().all(|&b| b == t as u8));
        }
    }
}

#[cfg(test)]
mod walk_tests {
    use super::*;

    /// `/a/b/f`, `/a/ln -> /a/b`, `/top -> /a/ln` on a fresh file system.
    struct Tree {
        fs: Kvfs,
        a: u64,
        b: u64,
        f: u64,
        ln: u64,
    }

    fn tree() -> Tree {
        let fs = Kvfs::new(Arc::new(KvStore::new()));
        let a = fs.mkdir("/a", 0o755).unwrap();
        let b = fs.mkdir("/a/b", 0o755).unwrap();
        let f = fs.create("/a/b/f", 0o644).unwrap();
        let ln = fs.symlink("/a/ln", "/a/b").unwrap();
        fs.symlink("/top", "/a/ln").unwrap();
        Tree { fs, a, b, f, ln }
    }

    fn walk(fs: &Kvfs, start: u64, path: &str) -> (Result<u64, FsError>, Vec<WalkStep>) {
        let mut trail = Vec::new();
        let r = fs.walk(start, path, &mut |s| trail.push(s));
        (r, trail)
    }

    #[test]
    fn walks_from_any_start_and_skips_empty_components() {
        let t = tree();
        use WalkStep::Entry;
        assert_eq!(
            walk(&t.fs, ROOT_INO, "/a/b/f"),
            (Ok(t.f), vec![Entry(t.a), Entry(t.b), Entry(t.f)])
        );
        assert_eq!(
            walk(&t.fs, t.a, "b/f"),
            (Ok(t.f), vec![Entry(t.b), Entry(t.f)])
        );
        assert_eq!(walk(&t.fs, t.b, "f"), (Ok(t.f), vec![Entry(t.f)]));
        // The empty path is the start itself, whatever it is.
        assert_eq!(walk(&t.fs, t.f, ""), (Ok(t.f), vec![]));
        assert_eq!(walk(&t.fs, t.b, "///"), (Ok(t.b), vec![]));
        // Doubled and trailing slashes do not count as components.
        assert_eq!(
            walk(&t.fs, ROOT_INO, "//a///b/"),
            (Ok(t.b), vec![Entry(t.a), Entry(t.b)])
        );
        // A path relative to `a` does not see the root's names.
        assert_eq!(walk(&t.fs, t.a, "a").0, Err(FsError::NotFound));
    }

    #[test]
    fn dot_components_are_refused_like_any_invalid_name() {
        let t = tree();
        for path in ["a/./b", "a/../a", ".", "..", "a/b/.."] {
            assert_eq!(
                walk(&t.fs, ROOT_INO, path).0,
                Err(FsError::InvalidName),
                "{path}"
            );
        }
        assert_eq!(
            t.fs.walk_parent(ROOT_INO, "a/..", &mut |_| {})
                .map(|(p, n)| (p, n.to_string())),
            Ok((t.a, "..".to_string())),
            "the final component is the caller's to validate"
        );
        assert_eq!(t.fs.create("/a/..", 0o644), Err(FsError::InvalidName));
        let long = "x".repeat(MAX_NAME_LEN + 1);
        assert_eq!(
            walk(&t.fs, ROOT_INO, &format!("a/{long}/f")).0,
            Err(FsError::NameTooLong)
        );
    }

    #[test]
    fn failures_report_how_far_the_walk_got() {
        let t = tree();
        use WalkStep::{Absent, Entry};
        assert_eq!(
            walk(&t.fs, ROOT_INO, "a/zz/f"),
            (Err(FsError::NotFound), vec![Entry(t.a), Absent])
        );
        // Under a file: ENOTDIR, and no dentry is claimed absent.
        assert_eq!(
            walk(&t.fs, ROOT_INO, "a/b/f/x"),
            (
                Err(FsError::NotADirectory),
                vec![Entry(t.a), Entry(t.b), Entry(t.f)]
            )
        );
        assert_eq!(walk(&t.fs, t.f, "x"), (Err(FsError::NotADirectory), vec![]));
        // A start that does not exist.
        assert_eq!(walk(&t.fs, 9999, "x").0, Err(FsError::NotFound));
        // A dangling link fails inside the follow: the link's own dentry
        // exists, so nothing is reported absent.
        t.fs.symlink("/a/dangle", "/nowhere").unwrap();
        assert_eq!(
            walk(&t.fs, ROOT_INO, "a/dangle"),
            (Err(FsError::NotFound), vec![Entry(t.a)])
        );
    }

    #[test]
    fn symlinks_are_followed_anywhere_and_flagged() {
        let t = tree();
        use WalkStep::{Entry, Followed};
        // Mid-path, chained (top -> /a/ln -> /a/b), and last.
        assert_eq!(
            walk(&t.fs, ROOT_INO, "a/ln/f"),
            (Ok(t.f), vec![Entry(t.a), Followed(t.b), Entry(t.f)])
        );
        assert_eq!(
            walk(&t.fs, ROOT_INO, "top/f"),
            (Ok(t.f), vec![Followed(t.b), Entry(t.f)])
        );
        assert_eq!(walk(&t.fs, t.a, "ln"), (Ok(t.b), vec![Followed(t.b)]));
        // `stat` follows the last component…
        assert_eq!(t.fs.stat("/top").unwrap().ino, t.b);
        // …`walk_parent` leaves it alone, so unlink and readlink act on
        // the link itself.
        let (dir, leaf) = t.fs.walk_parent(ROOT_INO, "/a/ln", &mut |_| {}).unwrap();
        assert_eq!((dir, leaf), (t.a, "ln"));
        assert_eq!(t.fs.resolve_nofollow("/a/ln").unwrap(), t.ln);
        assert_eq!(t.fs.readlink(t.ln).unwrap(), "/a/b");
        t.fs.unlink("/a/ln").unwrap();
        assert_eq!(t.fs.get_attr(t.b).unwrap().ino, t.b, "the target stands");
        assert_eq!(
            t.fs.resolve("/top"),
            Err(FsError::NotFound),
            "top dangles now"
        );
        // The parent of a path *through* a link is the link's target.
        t.fs.symlink("/a/ln", "/a/b").unwrap();
        let mut trail = Vec::new();
        let parent =
            t.fs.walk_parent(ROOT_INO, "top/new", &mut |s| trail.push(s));
        assert_eq!((parent, trail), (Ok((t.b, "new")), vec![Followed(t.b)]));
        // walk_parent wants a directory and a name.
        assert_eq!(
            t.fs.walk_parent(ROOT_INO, "a/b/f/x", &mut |_| {}),
            Err(FsError::NotADirectory)
        );
        assert_eq!(
            t.fs.walk_parent(ROOT_INO, "/", &mut |_| {}),
            Err(FsError::InvalidName)
        );
    }

    #[test]
    fn a_walk_is_dentry_probes_and_keeps_no_per_path_state() {
        let t = tree();
        walk(&t.fs, ROOT_INO, "a/b/f").0.unwrap();
        let (s0, kv0) = (t.fs.lookup_stats(), t.fs.store().stats());
        for _ in 0..10 {
            walk(&t.fs, ROOT_INO, "a/b/f").0.unwrap();
        }
        let (s1, kv1) = (t.fs.lookup_stats(), t.fs.store().stats());
        assert_eq!(kv1, kv0, "a warm walk touches no KV");
        assert_eq!(s1.dentry_hits - s0.dentry_hits, 30);
        // One attribute probe per walk: the start's. Every later hop
        // learnt its kind from the dentry.
        assert_eq!(s1.inode_hits - s0.inode_hits, 10);
        // `resolve` is this walk from the root and nothing more.
        assert_eq!(t.fs.resolve("/a/b/f"), Ok(t.f));
        let s2 = t.fs.lookup_stats();
        assert_eq!(s2.dentry_hits - s1.dentry_hits, 3);
        assert_eq!(t.fs.store().stats(), kv0);
    }

    #[test]
    fn a_listing_is_one_scan_and_no_get() {
        let store = Arc::new(KvStore::new());
        {
            let fs = Kvfs::new(store.clone());
            fs.mkdir("/d", 0o755).unwrap();
            for i in 0..256 {
                fs.create(&format!("/d/f{i:03}"), 0o644).unwrap();
            }
            fs.mkdir("/d/sub", 0o755).unwrap();
            fs.symlink("/d/zlink", "/d").unwrap();
        }
        // A remount: no entry's dentry or attribute is cached, the worst
        // case (the directory's own attribute is, from the `stat`).
        let fs = Kvfs::open(store).unwrap();
        let dir = fs.stat("/d").unwrap().ino;
        let before = fs.store().stats();
        let mut seen = Vec::new();
        fs.readdir_with(dir, |ino, kind, name| {
            seen.push((ino, kind, name.to_string()))
        })
        .unwrap();
        let after = fs.store().stats();
        assert_eq!(after.scans - before.scans, 1);
        assert_eq!(after.gets, before.gets, "the dentry carries the kind");
        assert_eq!(seen.len(), 258);
        assert!(seen.windows(2).all(|w| w[0].2 < w[1].2), "name order");
        assert_eq!(seen[256].1, FileKind::Dir);
        assert_eq!(seen[257].1, FileKind::Symlink);
        // The collecting form is the same listing.
        let listed = fs.readdir(dir).unwrap();
        assert_eq!(listed.len(), 258);
        assert!(listed
            .iter()
            .zip(&seen)
            .all(|(d, s)| (d.ino, d.kind, &d.name) == (s.0, s.1, &s.2)));
        assert_eq!(
            fs.readdir_with(seen[0].0, |_, _, _| {}),
            Err(FsError::NotADirectory)
        );
    }
}

#[cfg(test)]
mod link_tests {
    use super::*;

    fn fs() -> Kvfs {
        Kvfs::new(Arc::new(KvStore::new()))
    }

    #[test]
    fn hard_links_share_data_until_last_name_dies() {
        let fs = fs();
        let ino = fs.create("/original", 0o644).unwrap();
        fs.write(ino, 0, b"shared bytes").unwrap();
        fs.link("/original", "/alias").unwrap();
        assert_eq!(fs.get_attr(ino).unwrap().nlink, 2);
        assert_eq!(fs.resolve("/alias").unwrap(), ino);

        // Writing through one name is visible through the other.
        fs.write(ino, 0, b"UPDATED bytes").unwrap();
        let alias_ino = fs.resolve("/alias").unwrap();
        let mut buf = [0u8; 13];
        fs.read(alias_ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"UPDATED bytes");

        // Unlinking one name keeps the data alive.
        fs.unlink("/original").unwrap();
        assert_eq!(fs.get_attr(ino).unwrap().nlink, 1);
        fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"UPDATED bytes");

        // Unlinking the last name reclaims everything.
        let kvs_before = fs.kv_pairs();
        fs.unlink("/alias").unwrap();
        assert!(fs.kv_pairs() < kvs_before);
        assert_eq!(fs.get_attr(ino), Err(FsError::NotFound));
    }

    /// `unlink_entry` reads the link count under the inode's lock: read
    /// before it, two names of one inode unlinked at once both see 2,
    /// both write 1, and the attribute and data KVs outlive every name.
    #[test]
    fn two_names_of_one_inode_unlinked_at_once_free_it_exactly_once() {
        let fs = fs();
        let baseline = fs.kv_pairs();
        for round in 0..2_000 {
            let ino = fs.create("/f", 0o644).unwrap();
            fs.link("/f", "/g").unwrap();
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for path in ["/f", "/g"] {
                    let (fs, start) = (&fs, &start);
                    s.spawn(move || {
                        start.wait();
                        fs.unlink(path).unwrap();
                    });
                }
            });
            assert_eq!(fs.kv_pairs(), baseline, "round {round}: leaked KVs");
            assert_eq!(fs.get_attr(ino), Err(FsError::NotFound));
        }
        // And one name unlinked twice at once is taken once: the loser
        // must not count the other name's link down.
        for round in 0..500 {
            let ino = fs.create("/f", 0o644).unwrap();
            fs.link("/f", "/g").unwrap();
            let start = std::sync::Barrier::new(2);
            let wins = std::thread::scope(|s| {
                let racer = || {
                    start.wait();
                    fs.unlink("/f").is_ok() as u32
                };
                let (a, b) = (s.spawn(racer), s.spawn(racer));
                a.join().unwrap() + b.join().unwrap()
            });
            assert_eq!(wins, 1, "round {round}");
            assert_eq!(fs.get_attr(ino).unwrap().nlink, 1, "round {round}");
            fs.unlink("/g").unwrap();
            assert_eq!(fs.kv_pairs(), baseline);
        }
    }

    #[test]
    fn hard_link_restrictions() {
        let fs = fs();
        fs.mkdir("/d", 0o755).unwrap();
        assert_eq!(fs.link("/d", "/d2"), Err(FsError::InvalidOperation));
        fs.create("/f", 0o644).unwrap();
        fs.create("/existing", 0o644).unwrap();
        assert_eq!(fs.link("/f", "/existing"), Err(FsError::AlreadyExists));
    }

    #[test]
    fn symlink_round_trip_and_follow() {
        let fs = fs();
        fs.mkdir("/data", 0o755).unwrap();
        let target = fs.create("/data/real.txt", 0o644).unwrap();
        fs.write(target, 0, b"through the link").unwrap();

        let l = fs.symlink("/shortcut", "/data/real.txt").unwrap();
        assert_eq!(fs.readlink(l).unwrap(), "/data/real.txt");
        // resolve follows; resolve_nofollow gives the link inode.
        assert_eq!(fs.resolve("/shortcut").unwrap(), target);
        assert_eq!(fs.resolve_nofollow("/shortcut").unwrap(), l);
        // stat through the path resolves to the target file.
        assert_eq!(fs.stat("/shortcut").unwrap().ino, target);
    }

    #[test]
    fn symlink_to_directory_resolves_components() {
        let fs = fs();
        fs.mkdir("/real-dir", 0o755).unwrap();
        let f = fs.create("/real-dir/file", 0o644).unwrap();
        fs.symlink("/dirlink", "/real-dir").unwrap();
        assert_eq!(fs.resolve("/dirlink/file").unwrap(), f);
    }

    #[test]
    fn symlink_cycles_detected() {
        let fs = fs();
        fs.symlink("/a", "/b").unwrap();
        fs.symlink("/b", "/a").unwrap();
        assert_eq!(fs.resolve("/a"), Err(FsError::TooManyLinks));
        // Chains within the limit still work.
        fs.create("/end", 0o644).unwrap();
        fs.symlink("/c1", "/end").unwrap();
        fs.symlink("/c2", "/c1").unwrap();
        fs.symlink("/c3", "/c2").unwrap();
        assert_eq!(fs.resolve("/c3").unwrap(), fs.resolve("/end").unwrap());
    }

    #[test]
    fn dangling_symlink_reports_not_found() {
        let fs = fs();
        fs.symlink("/dangle", "/nothing/here").unwrap();
        assert_eq!(fs.resolve("/dangle"), Err(FsError::NotFound));
        // readlink still works on the dangling link.
        let l = fs.resolve_nofollow("/dangle").unwrap();
        assert_eq!(fs.readlink(l).unwrap(), "/nothing/here");
    }

    #[test]
    fn readlink_on_non_symlink_rejected() {
        let fs = fs();
        let ino = fs.create("/plain", 0o644).unwrap();
        assert_eq!(fs.readlink(ino), Err(FsError::InvalidOperation));
    }

    #[test]
    fn readdir_reports_symlink_kind() {
        let fs = fs();
        fs.create("/file", 0o644).unwrap();
        fs.symlink("/ln", "/file").unwrap();
        let kinds: Vec<(String, FileKind)> = fs
            .readdir(ROOT_INO)
            .unwrap()
            .into_iter()
            .map(|e| (e.name, e.kind))
            .collect();
        assert!(kinds.contains(&("ln".to_string(), FileKind::Symlink)));
    }

    #[test]
    fn links_survive_remount() {
        let store = Arc::new(KvStore::new());
        {
            let fs = Kvfs::new(store.clone());
            let ino = fs.create("/base", 0o644).unwrap();
            fs.write(ino, 0, b"x").unwrap();
            fs.link("/base", "/hard").unwrap();
            fs.symlink("/soft", "/base").unwrap();
        }
        let fs = Kvfs::open(store).unwrap();
        assert_eq!(fs.get_attr(fs.resolve("/hard").unwrap()).unwrap().nlink, 2);
        assert_eq!(fs.resolve("/soft").unwrap(), fs.resolve("/base").unwrap());
    }
}

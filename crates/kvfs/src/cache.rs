//! KVFS's two caches — names `(parent, name) → (ino, kind)` and attributes
//! `ino → FileAttr`, the pair a kernel's VFS would keep — under the one
//! rule the host's `dpc-cache::meta` already follows (DESIGN.md §4.7):
//!
//! - **The mutator writes store and cache together.** Whichever `Kvfs`
//!   function writes a name or an attribute KV calls [`Cache::put_name`] /
//!   [`Cache::drop_name`] / [`Cache::put_attr`] / [`Cache::drop_attr`]
//!   right after the store; each ticks the stripe it writes.
//! - **A reader's fill is fenced.** A probe that misses samples the
//!   stripe's tick, *then* lets the reader ask the store, and keeps the
//!   answer only if the stripe has not ticked since — what the reader
//!   read may predate that mutation.
//!
//! No lock here is held across a KV operation (a network round trip in
//! the paper); nothing expires, so a second writer to the same store is
//! never noticed. Stripes are by inode number: a directory's names under
//! the directory's, an attribute under the file's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use parking_lot::{RwLock, RwLockWriteGuard};

use crate::types::{FileAttr, FileKind};

/// Cache hit/miss counters for the dentry and inode caches. The `path_*`
/// pair counted a resolved-path cache that is gone; both read 0.
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct LookupStats {
    pub dentry_hits: u64,
    pub dentry_misses: u64,
    pub inode_hits: u64,
    pub inode_misses: u64,
    pub path_hits: u64,
    pub path_misses: u64,
}

const STRIPES: usize = 16;

/// What a name maps to: the inode, and its kind (the dirent's `d_type`).
pub(crate) type Entry = (u64, FileKind);

#[derive(Default)]
struct Stripe {
    names: HashMap<u64, HashMap<Box<str>, Entry>>,
    attrs: HashMap<u64, FileAttr>,
    /// Mutations applied here so far.
    tick: u64,
}

#[derive(Default)]
pub(crate) struct Cache {
    stripes: [RwLock<Stripe>; STRIPES],
    /// `[misses, hits]` of the name probes, and of the attribute probes.
    dentry: [AtomicU64; 2],
    inode: [AtomicU64; 2],
}

impl Cache {
    fn stripe(&self, ino: u64) -> &RwLock<Stripe> {
        &self.stripes[ino as usize % STRIPES]
    }

    /// The stripe of `ino`, ticked: a mutation is being written to it.
    fn mutate(&self, ino: u64) -> RwLockWriteGuard<'_, Stripe> {
        let mut stripe = self.stripe(ino).write();
        stripe.tick += 1;
        stripe
    }

    /// `name` under `parent`: from the cache, or on a miss from `fetch` —
    /// the store, asked with no lock held — whose answer is kept only if
    /// no mutation reached the stripe meanwhile.
    pub(crate) fn name(
        &self,
        parent: u64,
        name: &str,
        fetch: impl FnOnce() -> Option<Entry>,
    ) -> Option<Entry> {
        let (hit, seen) = {
            let stripe = self.stripe(parent).read();
            let dir = stripe.names.get(&parent);
            (dir.and_then(|dir| dir.get(name)).copied(), stripe.tick)
        };
        self.dentry[hit.is_some() as usize].fetch_add(1, Relaxed);
        if hit.is_some() {
            return hit;
        }
        let entry = fetch()?;
        let mut stripe = self.stripe(parent).write();
        if stripe.tick == seen {
            let dir = stripe.names.entry(parent).or_default();
            dir.insert(name.into(), entry);
        }
        Some(entry)
    }

    pub(crate) fn put_name(&self, parent: u64, name: &str, entry: Entry) {
        let mut stripe = self.mutate(parent);
        let dir = stripe.names.entry(parent).or_default();
        dir.insert(name.into(), entry);
    }

    pub(crate) fn drop_name(&self, parent: u64, name: &str) {
        let mut stripe = self.mutate(parent);
        let dir = stripe.names.get_mut(&parent);
        if dir.is_some_and(|dir| dir.remove(name).is_some() && dir.is_empty()) {
            stripe.names.remove(&parent);
        }
    }

    /// The attribute of `ino`: cached, or fetched and kept, as a name is.
    pub(crate) fn attr(
        &self,
        ino: u64,
        fetch: impl FnOnce() -> Option<FileAttr>,
    ) -> Option<FileAttr> {
        let (hit, seen) = {
            let stripe = self.stripe(ino).read();
            (stripe.attrs.get(&ino).copied(), stripe.tick)
        };
        self.inode[hit.is_some() as usize].fetch_add(1, Relaxed);
        if hit.is_some() {
            return hit;
        }
        let attr = fetch()?;
        let mut stripe = self.stripe(ino).write();
        if stripe.tick == seen {
            stripe.attrs.insert(ino, attr);
        }
        Some(attr)
    }

    pub(crate) fn put_attr(&self, attr: FileAttr) {
        self.mutate(attr.ino).attrs.insert(attr.ino, attr);
    }

    pub(crate) fn drop_attr(&self, ino: u64) {
        self.mutate(ino).attrs.remove(&ino);
    }

    pub(crate) fn stats(&self) -> LookupStats {
        LookupStats {
            dentry_hits: self.dentry[1].load(Relaxed),
            dentry_misses: self.dentry[0].load(Relaxed),
            inode_hits: self.inode[1].load(Relaxed),
            inode_misses: self.inode[0].load(Relaxed),
            ..LookupStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The KVFS-side twin of `dpc-cache`'s
    /// `stale_listing_inserted_after_mutation_never_validates`.
    #[test]
    fn a_fill_sampled_before_a_mutation_is_refused_after_it() {
        let cache = Cache::default();
        let x = (7, FileKind::File);
        let sized = |size| FileAttr {
            size,
            ..FileAttr::new_file(7, 0o644, 1)
        };
        // A lookup and a get_attr miss and ask the store, which answers
        // `x → 7` and a 10-byte inode 7; a `retract_name` and a `put_attr`
        // land before the answers are back. Each reader keeps its answer —
        // it was true when asked for — but the cache does not.
        let racing_retract = || {
            cache.drop_name(3, "x");
            Some(x)
        };
        assert_eq!(cache.name(3, "x", racing_retract), Some(x));
        let racing_put = || {
            cache.put_attr(sized(99));
            Some(sized(10))
        };
        assert_eq!(cache.attr(7, racing_put), Some(sized(10)));
        assert_eq!(
            cache.name(3, "x", || None),
            None,
            "the stale name is not held"
        );
        assert_eq!(cache.attr(7, || None), Some(sized(99)));
        // With no mutation in between, the same fills are kept.
        assert_eq!(cache.name(3, "x", || Some(x)), Some(x));
        assert_eq!(cache.name(3, "x", || None), Some(x));
        assert_eq!(cache.attr(23, || Some(sized(1))), Some(sized(1)));
        assert_eq!(cache.attr(23, || None), Some(sized(1)));
        // A mutation of another stripe refuses nobody.
        let elsewhere = || {
            cache.put_attr(sized(5));
            Some(x)
        };
        assert_eq!(cache.name(4, "y", elsewhere), Some(x));
        assert_eq!(cache.name(4, "y", || None), Some(x));
        // An emptied directory leaves no table behind.
        cache.drop_name(3, "x");
        assert!(cache.stripes[3].read().names.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.dentry_hits, stats.dentry_misses), (2, 4));
        assert_eq!((stats.inode_hits, stats.inode_misses), (2, 2));
    }
}

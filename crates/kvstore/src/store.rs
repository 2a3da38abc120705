//! A sharded, ordered, thread-safe KV store with prefix scans and
//! sub-value (in-place) reads/writes.
//!
//! This is the *disaggregated KV store* the paper's KVFS converts file
//! operations into (§3.4). The paper explicitly does not focus on the KV
//! store's internals, so we provide a correct, concurrent, ordered map
//! with the operations KVFS needs:
//!
//! - `get` / `put` / `put_if_absent` / `delete` — whole-value ops
//!   (inode, attribute and small-file KVs),
//! - `commit` — the conditional multi-key whole-value write: one request
//!   that checks some keys and, only if every check holds, puts and
//!   deletes others, atomically (a namespace mutation's dentries and
//!   attributes); `put`, `put_if_absent` and `delete` are one-write
//!   commits,
//! - `scan_prefix` / `scan_prefix_with` — ordered prefix scan (directory
//!   listing via the `p_ino` key prefix); the visitor form lends each
//!   key/value under the shard read guards instead of cloning it,
//! - `delete_range` — ordered, key-only range delete (a seek per shard,
//!   no value is ever copied: truncate and unlink of a big file cost what
//!   they drop, not what the file holds),
//! - `read_sub` / `write_sub` — in-place sub-value access at byte
//!   granularity (the big-file KV's 8 KiB in-place updates),
//! - `read_subs` — the multi-get: one request that reads a sub-value
//!   range from each of many keys (a big-file read's blocks),
//! - `write_subs` — its mirror, the multi-put: one request that writes a
//!   sub-value range into each of many keys (a flush batch's blocks and,
//!   last, its inode's attribute).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_fault::FaultSite;
use parking_lot::{RwLock, RwLockWriteGuard};

const SHARDS: usize = 16;

type Shard = BTreeMap<Vec<u8>, Vec<u8>>;

/// The entries of one shard whose key starts with `prefix` and is
/// `>= from`, in key order: one seek, then a walk that stops at the
/// prefix's end.
fn range_entries<'a>(
    shard: &'a Shard,
    prefix: &'a [u8],
    from: &[u8],
) -> impl Iterator<Item = (&'a Vec<u8>, &'a Vec<u8>)> {
    let start = from.max(prefix);
    shard
        .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(prefix))
}

/// The shard a key lives in: FNV-1a over the key, cheap and stable.
fn shard_index(key: &[u8]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h as usize) % SHARDS
}

/// The write guards a whole-value request holds: its one shard's, or, for
/// a commit naming keys in several shards, each of theirs in a fixed array
/// filled in ascending shard order. A one-shard request skips the array:
/// setting it up and tearing it down made a single `put` 65–100 ns dearer
/// (EXPERIMENTS.md "PR 41").
enum Guards<'g, 'a> {
    One(RwLockWriteGuard<'a, Shard>),
    Many(&'g mut [Option<RwLockWriteGuard<'a, Shard>>; SHARDS]),
}

impl Guards<'_, '_> {
    /// The locked shard `key` lives in.
    fn shard(&mut self, key: &[u8]) -> &mut Shard {
        match self {
            Guards::One(shard) => shard,
            Guards::Many(guards) => match &mut guards[shard_index(key)] {
                Some(shard) => shard,
                None => unreachable!("a commit locks the shard of every key it names"),
            },
        }
    }
}

/// [`range_entries`], keys only.
fn range_keys<'a>(
    shard: &'a Shard,
    prefix: &'a [u8],
    from: &[u8],
) -> impl Iterator<Item = &'a Vec<u8>> {
    range_entries(shard, prefix, from).map(|(k, _)| k)
}

/// One run's current entry in [`KvStore::scan_prefix_with`]'s merge heap,
/// smallest key on top.
type MergeHead<'a> = Reverse<(u64, &'a Vec<u8>, usize, &'a Vec<u8>)>;

/// Heads order by the eight key bytes after the `skip` shared ones as one
/// integer, the whole key only on a tie (a short key's zero padding sorts
/// it first, as a proper prefix should): the merge's comparisons are what
/// a scan costs over a count. A key lives in exactly one shard, so a tie
/// never reaches the run index or the value.
fn merge_head<'a>(
    skip: usize,
    (key, value): (&'a Vec<u8>, &'a Vec<u8>),
    run: usize,
) -> MergeHead<'a> {
    let mut first = [0u8; 8];
    let tail = &key[skip..];
    let n = tail.len().min(8);
    first[..n].copy_from_slice(&tail[..n]);
    Reverse((u64::from_be_bytes(first), key, run, value))
}

/// One condition of a [`KvStore::commit`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Check<'a> {
    /// The key holds exactly this value.
    Holds(&'a [u8], &'a [u8]),
    /// The key holds no value.
    Absent(&'a [u8]),
    /// The key holds some value, whatever it is.
    Present(&'a [u8]),
}

/// One write of a [`KvStore::commit`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Write<'a> {
    /// Set the key's whole value.
    Put(&'a [u8], &'a [u8]),
    /// Remove the key (a no-op when it is absent).
    Delete(&'a [u8]),
}

impl Check<'_> {
    fn key(&self) -> &[u8] {
        match *self {
            Check::Holds(key, _) | Check::Absent(key) | Check::Present(key) => key,
        }
    }
}

impl Write<'_> {
    fn key(&self) -> &[u8] {
        match *self {
            Write::Put(key, _) | Write::Delete(key) => key,
        }
    }
}

/// Operation counters. Each of `gets` … `sub_writes` counts **requests
/// served** — what a disaggregated store would see as round trips — not the
/// keys a request touched: a 256-entry listing is one scan, a 16-block
/// [`KvStore::read_subs`] one sub-read, a flush batch's
/// [`KvStore::write_subs`] of 64 blocks and its inode's attribute one
/// sub-write of 65 keys. `sub_read_keys` and `sub_write_keys` are the
/// per-key counts beside them.
///
/// What counts as what: `get`, `contains` and `value_len` are gets; `put`
/// and `put_if_absent` puts; `delete` a delete; a `commit` a delete when
/// every write it carries is a delete and a put otherwise — refused or
/// applied, however many keys it names; `delete_range` one scan plus a
/// delete per key dropped; `scan_prefix*` a scan; `read_sub`
/// and `read_subs` a sub-read; `write_sub`, `write_subs` and
/// `truncate_value` a sub-write. Every counted request first waits out a
/// firing "kv.op" fault. The diagnostics — `len`, `is_empty`,
/// `count_prefix` — are uncounted, and no fault stalls them.
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct KvStats {
    pub gets: u64,
    pub puts: u64,
    pub deletes: u64,
    pub scans: u64,
    pub sub_reads: u64,
    pub sub_writes: u64,
    /// Keys visited by sub-read requests: one per `read_sub`, one per key
    /// of a `read_subs`.
    pub sub_read_keys: u64,
    /// Keys written by sub-write requests: one per `write_sub` and
    /// `truncate_value`, one per key of a `write_subs`.
    pub sub_write_keys: u64,
    /// Keys written by whole-value requests: one per write of an applied
    /// `commit`, so one per `put`, `delete` and applied `put_if_absent`;
    /// a refused commit writes none.
    pub commit_keys: u64,
    /// Operations that had to wait out a transient fault ("kv.op" site):
    /// each stalled re-check counts one retry.
    pub retries: u64,
}

/// An ordered KV store sharded by key hash for write concurrency.
///
/// Scans merge across shards, preserving global byte order of keys.
pub struct KvStore {
    shards: Vec<RwLock<Shard>>,
    /// Optional "kv.op" fault site: while it fires, ops stall briefly and
    /// retry (the KV API has no error channel — faults here model a busy
    /// or momentarily unreachable service, recovered by waiting).
    fault: RwLock<Option<Arc<FaultSite>>>,
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    scans: AtomicU64,
    sub_reads: AtomicU64,
    sub_writes: AtomicU64,
    sub_read_keys: AtomicU64,
    sub_write_keys: AtomicU64,
    commit_keys: AtomicU64,
    retries: AtomicU64,
}

impl Default for KvStore {
    fn default() -> Self {
        Self::new()
    }
}

impl KvStore {
    pub fn new() -> Self {
        KvStore {
            shards: (0..SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
            fault: RwLock::new(None),
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            sub_reads: AtomicU64::new(0),
            sub_writes: AtomicU64::new(0),
            sub_read_keys: AtomicU64::new(0),
            sub_write_keys: AtomicU64::new(0),
            commit_keys: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Attach the "kv.op" fault site (`None` detaches).
    pub fn set_fault_site(&self, site: Option<Arc<FaultSite>>) {
        *self.fault.write() = site;
    }

    /// Wait out a firing fault site with bounded backoff: each stalled
    /// re-check is one retry. After the bound, proceed anyway — the store
    /// itself is always consistent; the fault only models added latency.
    fn fault_pause(&self) {
        let site = self.fault.read().clone();
        let Some(site) = site else {
            return;
        };
        let mut attempt = 0u32;
        while attempt < 8 && site.fires() {
            attempt += 1;
            self.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(20 << attempt.min(6)));
        }
    }

    /// One durability-barrier draw on the "kv.op" site (the fsync path).
    /// A fired fault with a positive delay models a slow-but-reachable
    /// service: stall it out like any op and report success. A fired
    /// fault with delay zero models an outright refusal — the one case
    /// the KV API surfaces as an error (`false`) instead of latency.
    pub fn barrier(&self) -> bool {
        let site = self.fault.read().clone();
        let Some(site) = site else {
            return true;
        };
        match site.check() {
            None => true,
            Some(0) => false,
            Some(d) => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(20 * d.min(512)));
                true
            }
        }
    }

    fn shard(&self, key: &[u8]) -> &RwLock<Shard> {
        &self.shards[shard_index(key)]
    }

    pub fn stats(&self) -> KvStats {
        KvStats {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            sub_reads: self.sub_reads.load(Ordering::Relaxed),
            sub_writes: self.sub_writes.load(Ordering::Relaxed),
            sub_read_keys: self.sub_read_keys.load(Ordering::Relaxed),
            sub_write_keys: self.sub_write_keys.load(Ordering::Relaxed),
            commit_keys: self.commit_keys.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.fault_pause();
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.shard(key).read().get(key).cloned()
    }

    /// Whether `key` holds a value; counted as a get.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.fault_pause();
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.shard(key).read().contains_key(key)
    }

    /// Length of the value under `key`, without copying it; counted as a
    /// get.
    pub fn value_len(&self, key: &[u8]) -> Option<usize> {
        self.fault_pause();
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.shard(key).read().get(key).map(|v| v.len())
    }

    /// A one-write [`KvStore::commit`].
    pub fn put(&self, key: &[u8], value: &[u8]) {
        self.write_whole(&[], &[Write::Put(key, value)]);
    }

    /// Insert only if absent; returns whether the insert happened. A
    /// one-write [`KvStore::commit`] with one check.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> bool {
        self.commit(&[Check::Absent(key)], &[Write::Put(key, value)])
    }

    /// Returns whether the key existed. A one-write [`KvStore::commit`].
    pub fn delete(&self, key: &[u8]) -> bool {
        self.write_whole(&[], &[Write::Delete(key)]) == Some(1)
    }

    /// The conditional multi-key write: one request that evaluates every
    /// check and, only if all of them hold, applies every write in the
    /// order given — all of it or none of it, with no reader or writer of
    /// any named key seeing a state in between. Returns whether the
    /// writes were applied. One fault pause and one count, refused or
    /// not: a delete when every write is a delete, a put otherwise;
    /// `commit_keys` counts the writes applied.
    pub fn commit(&self, checks: &[Check<'_>], writes: &[Write<'_>]) -> bool {
        self.write_whole(checks, writes).is_some()
    }

    /// The one whole-value write path, under the write guards of every
    /// shard a check or a write names, taken in ascending shard order —
    /// the order `scan_prefix_with` takes its read guards in, so no two
    /// requests ever wait on each other in a cycle. It allocates nothing
    /// but the keys and values it inserts. `None` when a check
    /// failed (nothing written); otherwise how many deletes removed a key.
    fn write_whole(&self, checks: &[Check<'_>], writes: &[Write<'_>]) -> Option<usize> {
        self.fault_pause();
        let counter = if writes.iter().all(|w| matches!(w, Write::Delete(_))) {
            &self.deletes
        } else {
            &self.puts
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let touched = checks
            .iter()
            .map(Check::key)
            .chain(writes.iter().map(Write::key))
            .fold(0u32, |set, key| set | 1 << shard_index(key));
        let mut many: [Option<RwLockWriteGuard<'_, Shard>>; SHARDS];
        let mut guards = match touched.count_ones() {
            1 => Guards::One(self.shards[touched.trailing_zeros() as usize].write()),
            _ => {
                many = Default::default();
                for (i, guard) in many.iter_mut().enumerate() {
                    if touched & 1 << i != 0 {
                        *guard = Some(self.shards[i].write());
                    }
                }
                Guards::Many(&mut many)
            }
        };
        let holds = checks.iter().all(|check| match *check {
            Check::Holds(key, value) => guards.shard(key).get(key).is_some_and(|v| v == value),
            Check::Absent(key) => !guards.shard(key).contains_key(key),
            Check::Present(key) => guards.shard(key).contains_key(key),
        });
        if !holds {
            return None;
        }
        let mut removed = 0;
        for write in writes {
            let shard = guards.shard(write.key());
            match *write {
                Write::Put(key, value) => drop(shard.insert(key.to_vec(), value.to_vec())),
                Write::Delete(key) => removed += shard.remove(key).is_some() as usize,
            }
        }
        self.commit_keys
            .fetch_add(writes.len() as u64, Ordering::Relaxed);
        Some(removed)
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, in global
    /// key order.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        self.scan_prefix_with(prefix, |k, v| out.push((k.to_vec(), v.to_vec())));
        out
    }

    /// Visit every `(key, value)` whose key starts with `prefix`, in global
    /// key order, without copying either: every shard is read-locked for
    /// the length of the scan and its sorted run merged through a
    /// 16-entry heap. `visit` must not call back into the store (a second
    /// read of a shard a writer is queued on would deadlock).
    pub fn scan_prefix_with(&self, prefix: &[u8], mut visit: impl FnMut(&[u8], &[u8])) {
        self.fault_pause();
        self.scans.fetch_add(1, Ordering::Relaxed);
        let guards: Vec<_> = self.shards.iter().map(|shard| shard.read()).collect();
        let mut runs: Vec<_> = guards
            .iter()
            .map(|guard| range_entries(guard, prefix, prefix))
            .collect();
        let skip = prefix.len();
        let mut heads = BinaryHeap::with_capacity(runs.len());
        for (i, run) in runs.iter_mut().enumerate() {
            heads.extend(run.next().map(|e| merge_head(skip, e, i)));
        }
        while let Some(mut top) = heads.peek_mut() {
            let Reverse((_, key, i, value)) = *top;
            visit(key, value);
            // Replace the head in place: one sift instead of pop + push.
            match runs[i].next() {
                Some(e) => *top = merge_head(skip, e, i),
                None => drop(PeekMut::pop(top)),
            }
        }
    }

    /// Delete every key that starts with `prefix` and is `>= from`;
    /// returns how many went. One scan plus one delete per key dropped —
    /// keys below `from` are never visited.
    pub fn delete_range(&self, prefix: &[u8], from: &[u8]) -> usize {
        self.fault_pause();
        self.scans.fetch_add(1, Ordering::Relaxed);
        let mut dropped = 0usize;
        for shard in &self.shards {
            let mut guard = shard.write();
            let doomed: Vec<Vec<u8>> = range_keys(&guard, prefix, from).cloned().collect();
            for key in &doomed {
                guard.remove(key);
            }
            dropped += doomed.len();
        }
        self.deletes.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Number of keys with the given prefix (scan without copying values).
    /// A diagnostic: uncounted, and no fault stalls it.
    pub fn count_prefix(&self, prefix: &[u8]) -> usize {
        self.shards
            .iter()
            .map(|shard| range_keys(&shard.read(), prefix, prefix).count())
            .sum()
    }

    /// Read `len` bytes at `offset` inside the value under `key`.
    /// Reads past the end of the value return zeros (sparse semantics,
    /// matching the big-file KV's block space).
    pub fn read_sub(&self, key: &[u8], offset: usize, dst: &mut [u8]) -> bool {
        self.fault_pause();
        self.sub_reads.fetch_add(1, Ordering::Relaxed);
        self.sub_read_keys.fetch_add(1, Ordering::Relaxed);
        self.copy_sub(key, offset, dst)
    }

    /// The multi-get: one request that reads, for each `(key, offset,
    /// dst)`, the `dst.len()` bytes at `offset` inside `key`'s value —
    /// zeros past the value's end, and all zeros for an absent key. One
    /// fault pause and one `sub_reads` count for the lot; `sub_read_keys`
    /// counts each key. Each key is read under its own shard's read guard,
    /// taken and dropped before the next key's: one key's range is exactly
    /// as atomic as a [`KvStore::read_sub`] of it, the set is not a
    /// snapshot, and no writer ever waits behind a guard held for another
    /// key. Returns the number of keys read; an empty set is no request.
    pub fn read_subs<'d, K: AsRef<[u8]>>(
        &self,
        reads: impl IntoIterator<Item = (K, usize, &'d mut [u8])>,
    ) -> usize {
        let mut reads = reads.into_iter().peekable();
        if reads.peek().is_none() {
            return 0;
        }
        self.fault_pause();
        self.sub_reads.fetch_add(1, Ordering::Relaxed);
        let mut keys = 0;
        for (key, offset, dst) in reads {
            if !self.copy_sub(key.as_ref(), offset, dst) {
                dst.fill(0);
            }
            keys += 1;
        }
        self.sub_read_keys.fetch_add(keys as u64, Ordering::Relaxed);
        keys
    }

    /// Copy the range at `offset` of `key`'s value into `dst` under the
    /// key's shard read guard, zero-filling past the value's end; `false`,
    /// `dst` untouched, when the key is absent.
    fn copy_sub(&self, key: &[u8], offset: usize, dst: &mut [u8]) -> bool {
        let shard = self.shard(key).read();
        let Some(v) = shard.get(key) else {
            return false;
        };
        let src = v.get(offset..).unwrap_or_default();
        let have = src.len().min(dst.len());
        dst[..have].copy_from_slice(&src[..have]);
        dst[have..].fill(0);
        true
    }

    /// Write `src` at `offset` inside the value under `key`, extending the
    /// value with zeros as needed. Creates the key when absent. A one-key
    /// [`KvStore::write_subs`].
    pub fn write_sub(&self, key: &[u8], offset: usize, src: &[u8]) {
        self.write_subs([(key, offset, src)]);
    }

    /// The multi-put: one request that writes, for each `(key, offset,
    /// src)`, `src` at `offset` inside `key`'s value — extending it with
    /// zeros as needed, creating the key when absent. One fault pause and
    /// one `sub_writes` count for the lot; `sub_write_keys` counts each
    /// key. Each key is written under its own shard's write guard, taken
    /// and dropped before the next key's: one key's range is exactly as
    /// atomic as a [`KvStore::write_sub`] of it, the set is not a
    /// transaction, and no reader ever waits behind a guard held for
    /// another key. Keys are written in the order given, so a key named
    /// twice holds the later bytes where the two overlap. Returns the
    /// number of keys written; an empty set is no request.
    pub fn write_subs<'s, K: AsRef<[u8]>>(
        &self,
        writes: impl IntoIterator<Item = (K, usize, &'s [u8])>,
    ) -> usize {
        let mut writes = writes.into_iter().peekable();
        if writes.peek().is_none() {
            return 0;
        }
        self.fault_pause();
        self.sub_writes.fetch_add(1, Ordering::Relaxed);
        let mut keys = 0;
        for (key, offset, src) in writes {
            self.put_sub(key.as_ref(), offset, src);
            keys += 1;
        }
        self.sub_write_keys
            .fetch_add(keys as u64, Ordering::Relaxed);
        keys
    }

    /// Write `src` at `offset` of `key`'s value under the key's shard
    /// write guard.
    fn put_sub(&self, key: &[u8], offset: usize, src: &[u8]) {
        let mut shard = self.shard(key).write();
        // The in-place update of an existing block must not allocate a key.
        let v = match shard.get_mut(key) {
            Some(v) => v,
            None => shard.entry(key.to_vec()).or_default(),
        };
        if v.len() < offset + src.len() {
            v.resize(offset + src.len(), 0);
        }
        v[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Shrink or grow the value under `key` to exactly `len` bytes
    /// (zero-filling on growth). Creates the key when absent. Counted as a
    /// sub-write.
    pub fn truncate_value(&self, key: &[u8], len: usize) {
        self.fault_pause();
        self.sub_writes.fetch_add(1, Ordering::Relaxed);
        self.sub_write_keys.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).write();
        let v = shard.entry(key.to_vec()).or_default();
        v.resize(len, 0);
    }

    /// Total number of keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_delete() {
        let kv = KvStore::new();
        assert_eq!(kv.get(b"a"), None);
        kv.put(b"a", b"1");
        assert_eq!(kv.get(b"a").as_deref(), Some(&b"1"[..]));
        kv.put(b"a", b"2"); // overwrite
        assert_eq!(kv.get(b"a").as_deref(), Some(&b"2"[..]));
        assert!(kv.delete(b"a"));
        assert!(!kv.delete(b"a"));
        assert_eq!(kv.get(b"a"), None);
    }

    #[test]
    fn put_if_absent_semantics() {
        let kv = KvStore::new();
        assert!(kv.put_if_absent(b"k", b"first"));
        assert!(!kv.put_if_absent(b"k", b"second"));
        assert_eq!(kv.get(b"k").as_deref(), Some(&b"first"[..]));
    }

    #[test]
    fn prefix_scan_is_ordered_and_exact() {
        let kv = KvStore::new();
        kv.put(b"dir1/b", b"2");
        kv.put(b"dir1/a", b"1");
        kv.put(b"dir1/c", b"3");
        kv.put(b"dir2/a", b"x");
        kv.put(b"dir", b"y");
        let hits = kv.scan_prefix(b"dir1/");
        let keys: Vec<&[u8]> = hits.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"dir1/a"[..], b"dir1/b", b"dir1/c"]);
        assert_eq!(kv.count_prefix(b"dir1/"), 3);
        assert_eq!(kv.count_prefix(b"dir"), 5);
        assert_eq!(kv.count_prefix(b"nope"), 0);
    }

    #[test]
    fn visitor_scan_is_ordered_counts_once_and_copies_nothing() {
        let kv = three_files();
        let prefix = &block_key(7, 0)[..9];
        let before = kv.stats();
        let mut seen: Vec<Vec<u8>> = Vec::new();
        kv.scan_prefix_with(prefix, |k, v| {
            assert!(v == [7u8; 64] || v == b"last");
            seen.push(k.to_vec());
        });
        let after = kv.stats();
        assert_eq!(after.scans - before.scans, 1);
        assert_eq!(after.gets, before.gets);
        // 41 keys spread over the shards come back in global key order,
        // and agree with the cloning scan.
        assert_eq!(seen.len(), 41);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        let cloned: Vec<Vec<u8>> = kv.scan_prefix(prefix).into_iter().map(|e| e.0).collect();
        assert_eq!(seen, cloned);
        kv.scan_prefix_with(b"nope", |_, _| panic!("nothing matches"));
    }

    #[test]
    fn empty_prefix_scans_everything_in_order() {
        let kv = KvStore::new();
        for i in 0..50u8 {
            kv.put(&[i], &[i]);
        }
        let all = kv.scan_prefix(b"");
        assert_eq!(all.len(), 50);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// `tag ‖ ino ‖ lbn`, big-endian — the shape of KVFS's block keys.
    fn block_key(ino: u64, lbn: u64) -> Vec<u8> {
        let mut k = vec![0x04];
        k.extend_from_slice(&ino.to_be_bytes());
        k.extend_from_slice(&lbn.to_be_bytes());
        k
    }

    /// Inodes 6, 7 and 8 with 40 blocks each (plus 7's `u64::MAX` block),
    /// spread over the 16 shards by key hash.
    fn three_files() -> KvStore {
        let kv = KvStore::new();
        for ino in 6..=8u64 {
            for lbn in 0..40u64 {
                kv.put(&block_key(ino, lbn), &[ino as u8; 64]);
            }
        }
        kv.put(&block_key(7, u64::MAX), b"last");
        kv
    }

    #[test]
    fn delete_range_drops_exactly_the_tail() {
        let kv = three_files();
        let prefix = &block_key(7, 0)[..9];
        let before = kv.stats();
        assert_eq!(kv.delete_range(prefix, &block_key(7, 30)), 11);
        let after = kv.stats();
        assert_eq!(after.scans - before.scans, 1);
        assert_eq!(after.deletes - before.deletes, 11);
        assert_eq!(kv.count_prefix(prefix), 30);
        assert!(kv.contains(&block_key(7, 29)));
        assert!(!kv.contains(&block_key(7, 30)));
        assert!(!kv.contains(&block_key(7, u64::MAX)));
        // Nothing at or past `from`: a seek per shard, no delete.
        assert_eq!(kv.delete_range(prefix, &block_key(7, 30)), 0);
        assert_eq!(kv.stats().deletes, after.deletes);
        // `from` past the prefix's end drops nothing; `from` below the
        // prefix starts at the prefix: the whole file, and only it.
        assert_eq!(kv.delete_range(prefix, &block_key(8, 0)), 0);
        assert_eq!(kv.delete_range(prefix, b""), 30);
        assert_eq!(kv.count_prefix(&block_key(6, 0)[..9]), 40);
        assert_eq!(kv.count_prefix(&block_key(8, 0)[..9]), 40);
        assert_eq!(kv.len(), 80);
    }

    #[test]
    fn sub_value_read_write() {
        let kv = KvStore::new();
        kv.write_sub(b"big", 8192, &[7u8; 8192]);
        assert_eq!(kv.value_len(b"big"), Some(16384));
        let mut head = [1u8; 10];
        assert!(kv.read_sub(b"big", 0, &mut head));
        assert_eq!(head, [0u8; 10]); // zero-extended hole
        let mut mid = [0u8; 4];
        assert!(kv.read_sub(b"big", 8192, &mut mid));
        assert_eq!(mid, [7u8; 4]);
        // Reads past the end give zeros.
        let mut tail = [9u8; 8];
        assert!(kv.read_sub(b"big", 16380, &mut tail));
        assert_eq!(&tail[..4], &[7, 7, 7, 7]);
        assert_eq!(&tail[4..], &[0, 0, 0, 0]);
        // Missing keys report false.
        assert!(!kv.read_sub(b"nothere", 0, &mut tail));
    }

    #[test]
    fn a_multi_get_is_one_request_and_reads_what_read_sub_reads() {
        let kv = KvStore::new();
        kv.write_sub(b"full", 0, &[1u8; 64]);
        kv.write_sub(b"short", 0, &[2u8; 10]);
        let (mut a, mut b, mut c) = ([9u8; 32], [9u8; 32], [9u8; 32]);
        let before = kv.stats();
        let reads = [
            (&b"full"[..], 16, &mut a[..]),
            (b"short", 4, &mut b[..]),
            (b"absent", 0, &mut c[..]),
        ];
        assert_eq!(kv.read_subs(reads), 3);
        let after = kv.stats();
        assert_eq!(after.sub_reads - before.sub_reads, 1);
        assert_eq!(after.sub_read_keys - before.sub_read_keys, 3);
        assert_eq!(a, [1u8; 32]);
        // A value shorter than the range, and an absent key, read zeros.
        assert_eq!(&b[..6], &[2u8; 6]);
        assert!(b[6..].iter().all(|&x| x == 0));
        assert_eq!(c, [0u8; 32]);
        // Nothing to read is no request.
        let none: [(&[u8], usize, &mut [u8]); 0] = [];
        assert_eq!(kv.read_subs(none), 0);
        assert_eq!(kv.stats(), after);
    }

    #[test]
    fn a_multi_put_is_one_request_and_writes_what_write_sub_writes() {
        let (kv, per_key) = (KvStore::new(), KvStore::new());
        for store in [&kv, &per_key] {
            store.write_sub(b"full", 0, &[1u8; 64]);
        }
        let writes: [(&[u8], usize, &[u8]); 4] = [
            (b"full", 16, &[2u8; 8]),
            (b"absent", 4, &[3u8; 6]),
            (b"full", 60, &[4u8; 10]),
            (b"full", 20, &[5u8; 2]),
        ];
        let before = kv.stats();
        assert_eq!(kv.write_subs(writes), 4);
        let after = kv.stats();
        assert_eq!(after.sub_writes - before.sub_writes, 1);
        assert_eq!(after.sub_write_keys - before.sub_write_keys, 4);
        for (key, offset, src) in writes {
            per_key.write_sub(key, offset, src);
        }
        // Key by key, in order: in-place, created with a zero head,
        // extended past the end, and a later write over an earlier one.
        for key in [&b"full"[..], b"absent"] {
            assert_eq!(kv.get(key), per_key.get(key));
        }
        let full = kv.get(b"full").unwrap();
        assert_eq!(
            (full.len(), &full[16..24], full[20]),
            (70, &[2, 2, 2, 2, 5, 5, 2, 2][..], 5)
        );
        assert_eq!(kv.get(b"absent").unwrap(), [0, 0, 0, 0, 3, 3, 3, 3, 3, 3]);
        // Nothing to write is no request.
        let none: [(&[u8], usize, &[u8]); 0] = [];
        assert_eq!(kv.write_subs(none), 0);
        let now = kv.stats();
        assert_eq!(
            (now.sub_writes, now.sub_write_keys),
            (after.sub_writes, after.sub_write_keys)
        );
    }

    #[test]
    fn a_full_length_sub_write_leaves_what_a_put_leaves() {
        // A flush batch writes its inode's 256-byte attribute as the last
        // range of its multi-put: over a value of the same length, the
        // range at 0 must replace it exactly as a whole-value put does.
        let (kv, put) = (KvStore::new(), KvStore::new());
        let old: Vec<u8> = (0..=255u8).collect();
        let new = [0xA5u8; 256];
        for store in [&kv, &put] {
            store.put(b"attr", &old);
        }
        put.put(b"attr", &new);
        kv.write_subs([(&b"block"[..], 8, &[1u8; 8][..]), (b"attr", 0, &new)]);
        assert_eq!(kv.get(b"attr"), put.get(b"attr"));
        assert_eq!(kv.get(b"attr").unwrap(), new);
    }

    #[test]
    fn every_request_counts_what_it_is() {
        let kv = KvStore::new();
        kv.put(b"v", b"hello");
        let before = kv.stats();
        assert!(kv.contains(b"v"));
        assert_eq!(kv.value_len(b"v"), Some(5));
        kv.truncate_value(b"v", 2);
        kv.write_subs([(&b"v"[..], 0, &b"h"[..]), (b"w", 0, b"x")]);
        let after = kv.stats();
        assert_eq!(
            (
                after.gets - before.gets,
                after.sub_writes - before.sub_writes,
                after.sub_write_keys - before.sub_write_keys
            ),
            (2, 2, 3)
        );
        // The diagnostics are free.
        let _ = (kv.len(), kv.is_empty(), kv.count_prefix(b""));
        assert_eq!(kv.stats(), after);
    }

    #[test]
    fn put_if_absent_waits_out_a_fault_like_every_mutation() {
        use dpc_fault::{FaultPlan, FaultSpec};
        let kv = KvStore::new();
        let plan = FaultPlan::new(1);
        kv.set_fault_site(Some(plan.arm("kv.op", FaultSpec::first_n(1))));
        assert!(kv.put_if_absent(b"k", b"v"));
        assert_eq!(kv.stats().retries, 1, "the create stalled once");
        plan.arm("kv.op", FaultSpec::first_n(1));
        kv.truncate_value(b"k", 0);
        assert_eq!(kv.stats().retries, 2);
    }

    #[test]
    fn every_counted_request_waits_out_a_fault() {
        use dpc_fault::{FaultPlan, FaultSpec};
        let kv = KvStore::new();
        kv.put(b"k", b"value");
        let plan = FaultPlan::new(1);
        kv.set_fault_site(Some(plan.site("kv.op")));
        let stalls = |op: &dyn Fn()| {
            plan.arm("kv.op", FaultSpec::first_n(1));
            let before = kv.stats().retries;
            op();
            kv.stats().retries - before
        };
        assert_eq!(stalls(&|| drop(kv.get(b"k"))), 1);
        // Until these paused too, they were the two counted requests a
        // firing fault never stalled.
        assert_eq!(stalls(&|| assert!(kv.contains(b"k"))), 1);
        assert_eq!(stalls(&|| assert_eq!(kv.value_len(b"k"), Some(5))), 1);
        assert_eq!(
            stalls(&|| assert_eq!(kv.write_subs([(&b"k"[..], 0, &b"V"[..])]), 1)),
            1
        );
        // The diagnostics never stall.
        assert_eq!(
            stalls(&|| assert_eq!((kv.len(), kv.count_prefix(b"")), (1, 1))),
            0
        );
    }

    #[test]
    fn a_refused_commit_writes_nothing_and_still_counts_one_request() {
        let kv = KvStore::new();
        kv.put(b"dentry", b"7");
        kv.put(b"attr", b"old");
        let before = kv.stats();
        // One check of two fails: neither write lands, the other key
        // keeps its value, and the refusal is one put.
        let refused = kv.commit(
            &[Check::Holds(b"dentry", b"7"), Check::Absent(b"attr")],
            &[Write::Delete(b"dentry"), Write::Put(b"attr", b"new")],
        );
        assert!(!refused);
        assert_eq!(kv.get(b"dentry").as_deref(), Some(&b"7"[..]));
        assert_eq!(kv.get(b"attr").as_deref(), Some(&b"old"[..]));
        let after = kv.stats();
        assert_eq!(
            (after.puts - before.puts, after.deletes - before.deletes),
            (1, 0)
        );
        assert_eq!(after.commit_keys, before.commit_keys, "nothing written");
        // A value that differs in one byte, or is a prefix, does not hold.
        assert!(!kv.commit(&[Check::Holds(b"attr", b"ol")], &[Write::Delete(b"attr")]));
        assert!(!kv.commit(&[Check::Holds(b"nope", b"")], &[Write::Delete(b"attr")]));
        // A key that must be there, and is not.
        assert!(!kv.commit(&[Check::Present(b"nope")], &[Write::Delete(b"attr")]));
        assert_eq!(kv.len(), 2);
        // Every check holding applies every write, in order.
        assert!(kv.commit(
            &[
                Check::Holds(b"dentry", b"7"),
                Check::Absent(b"new"),
                Check::Present(b"attr"),
            ],
            &[
                Write::Put(b"new", b"1"),
                Write::Delete(b"dentry"),
                Write::Put(b"new", b"2"),
                Write::Put(b"attr", b"newer"),
            ],
        ));
        assert_eq!(kv.get(b"new").as_deref(), Some(&b"2"[..]));
        assert_eq!(kv.get(b"attr").as_deref(), Some(&b"newer"[..]));
        assert!(!kv.contains(b"dentry"));
        assert_eq!(kv.stats().commit_keys - after.commit_keys, 4);
    }

    #[test]
    fn a_commit_is_a_delete_only_when_every_write_is_a_delete() {
        let kv = KvStore::new();
        let counts = |checks: &[Check], writes: &[Write]| {
            let before = kv.stats();
            kv.commit(checks, writes);
            let after = kv.stats();
            (
                after.puts - before.puts,
                after.deletes - before.deletes,
                after.commit_keys - before.commit_keys,
            )
        };
        assert_eq!(
            counts(&[], &[Write::Put(b"a", b"1"), Write::Put(b"b", b"2")]),
            (1, 0, 2)
        );
        assert_eq!(
            counts(&[], &[Write::Delete(b"a"), Write::Put(b"c", b"3")]),
            (1, 0, 2)
        );
        assert_eq!(
            counts(
                &[Check::Absent(b"a")],
                &[Write::Delete(b"b"), Write::Delete(b"c")]
            ),
            (0, 1, 2)
        );
        // Refused, it counts what it would have been.
        assert_eq!(
            counts(&[Check::Holds(b"b", b"2")], &[Write::Put(b"x", b"1")]),
            (1, 0, 0)
        );
        assert_eq!(
            counts(&[Check::Holds(b"b", b"")], &[Write::Delete(b"x")]),
            (0, 1, 0)
        );
        // The one-write forms are one-write commits, counted as before.
        kv.put(b"k", b"v");
        assert!(!kv.put_if_absent(b"k", b"w"));
        assert!(kv.delete(b"k"));
        assert!(!kv.delete(b"k"));
        let s = kv.stats();
        assert_eq!((s.puts, s.deletes, s.commit_keys), (5, 4, 9));
        assert!(kv.is_empty());
    }

    #[test]
    fn a_firing_fault_pauses_a_commit_once() {
        use dpc_fault::{FaultPlan, FaultSpec};
        let kv = KvStore::new();
        let plan = FaultPlan::new(1);
        kv.set_fault_site(Some(plan.arm("kv.op", FaultSpec::first_n(1))));
        let writes: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 3]).collect();
        let puts: Vec<Write> = writes.iter().map(|k| Write::Put(k, k)).collect();
        assert!(kv.commit(&[Check::Absent(b"x")], &puts));
        assert_eq!(kv.stats().retries, 1, "sixteen keys, one pause");
        assert_eq!(kv.len(), 16);
        // A refused commit pauses too.
        plan.arm("kv.op", FaultSpec::first_n(1));
        assert!(!kv.commit(&[Check::Absent(&writes[0])], &[Write::Delete(b"x")]));
        assert_eq!(kv.stats().retries, 2);
    }

    /// Two movers pass one token between eight keys in different shards
    /// with multi-shard commits, a scanner counts the tokens, and a
    /// fourth thread runs sub-value writes and range deletes over the same
    /// shards. Every request takes its guards in ascending shard order, so
    /// none waits on another in a cycle; and a commit is atomic to a scan,
    /// which always sees exactly one token.
    #[test]
    fn commit_never_deadlocks_against_scans_and_sub_writes() {
        use std::sync::mpsc;
        let kv = Arc::new(KvStore::new());
        let token = |i: u64| format!("tok/{i}").into_bytes();
        kv.put(&token(0), b"T");
        let rounds = if cfg!(debug_assertions) {
            2_000
        } else {
            100_000
        };
        let (done, finished) = mpsc::channel();
        let mut threads = Vec::new();
        for mover in 0..2u64 {
            let (kv, done) = (kv.clone(), done.clone());
            threads.push(std::thread::spawn(move || {
                let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ mover;
                let mut moved = 0;
                for _ in 0..rounds {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let (from, to) = (seed >> 33 & 7, (seed >> 40) % 7);
                    let to = if to >= from { to + 1 } else { to };
                    let (from, to) = (token(from), token(to));
                    moved += kv.commit(
                        &[Check::Holds(&from, b"T"), Check::Absent(&to)],
                        &[Write::Delete(&from), Write::Put(&to, b"T")],
                    ) as u32;
                }
                done.send(moved).unwrap();
            }));
        }
        {
            let (kv, done) = (kv.clone(), done.clone());
            threads.push(std::thread::spawn(move || {
                for _ in 0..rounds / 4 {
                    let mut tokens = 0;
                    kv.scan_prefix_with(b"tok/", |_, _| tokens += 1);
                    assert_eq!(tokens, 1, "a scan saw a commit half applied");
                }
                done.send(0).unwrap();
            }));
        }
        {
            let (kv, done) = (kv.clone(), done.clone());
            threads.push(std::thread::spawn(move || {
                let blocks: Vec<Vec<u8>> = (0..8u8).map(|i| vec![b'b', i]).collect();
                for round in 0..rounds / 4 {
                    kv.write_subs(blocks.iter().map(|k| (k, round % 64, &[1u8; 8][..])));
                    if round % 8 == 7 {
                        kv.delete_range(b"b", b"b");
                    }
                }
                done.send(0).unwrap();
            }));
        }
        drop(done);
        let mut moved = 0;
        for _ in 0..threads.len() {
            match finished.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(n) => moved += n,
                // A thread panicked: its join below says why.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress in 60 s: a deadlock"),
            }
        }
        for thread in threads {
            thread.join().unwrap();
        }
        assert!(moved > 0, "the token moved");
        assert_eq!(kv.count_prefix(b"tok/"), 1);
    }

    #[test]
    fn truncate_value_grows_and_shrinks() {
        let kv = KvStore::new();
        kv.put(b"f", b"hello world");
        kv.truncate_value(b"f", 5);
        assert_eq!(kv.get(b"f").as_deref(), Some(&b"hello"[..]));
        kv.truncate_value(b"f", 8);
        assert_eq!(kv.get(b"f").as_deref(), Some(&b"hello\0\0\0"[..]));
    }

    #[test]
    fn stats_count() {
        let kv = KvStore::new();
        kv.put(b"a", b"1");
        kv.get(b"a");
        kv.get(b"b");
        kv.scan_prefix(b"");
        kv.delete(b"a");
        kv.write_sub(b"s", 0, b"x");
        let mut buf = [0u8; 1];
        kv.read_sub(b"s", 0, &mut buf);
        let s = kv.stats();
        assert_eq!(
            (
                s.puts,
                s.gets,
                s.scans,
                s.deletes,
                s.sub_writes,
                s.sub_write_keys,
                s.sub_reads,
                s.sub_read_keys
            ),
            (1, 2, 1, 1, 1, 1, 1, 1)
        );
    }

    #[test]
    fn concurrent_mixed_ops() {
        let kv = KvStore::new();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let kv = &kv;
                s.spawn(move || {
                    for i in 0..200usize {
                        let key = format!("t{t}/k{i}");
                        kv.put(key.as_bytes(), &[t as u8; 32]);
                        assert_eq!(kv.get(key.as_bytes()).unwrap(), vec![t as u8; 32]);
                    }
                });
            }
        });
        assert_eq!(kv.len(), 1600);
        for t in 0..8usize {
            assert_eq!(kv.count_prefix(format!("t{t}/").as_bytes()), 200);
        }
    }
}

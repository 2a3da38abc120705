//! The big-file *file object* (§3.4).
//!
//! Rewriting a multi-megabyte KV on every update would amplify writes, so
//! big files are associated with a file object whose index structure maps
//! the file's contiguous logical space onto discrete 8 KiB storage blocks
//! — here realised as one block KV per logical block number
//! (`0x04 ‖ ino ‖ lbn`), updated in place, and read or written — however
//! many blocks a request spans — in one multi-key request.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use dpc_kvstore::KvStore;

use crate::keys::{attr_key, big_key, big_prefix};
use crate::types::BIG_BLOCK;

/// A key of a write batch, on the stack: a block's, or the attribute's
/// that ends the batch.
enum BatchKey {
    Block([u8; 17]),
    Attr([u8; 9]),
}

impl AsRef<[u8]> for BatchKey {
    fn as_ref(&self) -> &[u8] {
        match self {
            BatchKey::Block(key) => key,
            BatchKey::Attr(key) => key,
        }
    }
}

/// Byte-addressed access to one big file's block space.
pub(crate) struct FileObject<'a> {
    store: &'a KvStore,
    ino: u64,
}

impl<'a> FileObject<'a> {
    pub(crate) fn new(store: &'a KvStore, ino: u64) -> FileObject<'a> {
        FileObject { store, ino }
    }

    /// Read `dst.len()` bytes at `offset`: **one** multi-key sub-read
    /// ([`KvStore::read_subs`]) for every block the range spans, the first
    /// and last possibly partial, each landing straight in its place in
    /// `dst`. Holes (never-written blocks) read as zeros. Returns the
    /// number of KV operations performed: 1, or 0 for an empty `dst`.
    pub(crate) fn read_at(&self, offset: u64, dst: &mut [u8]) -> usize {
        if dst.is_empty() {
            return 0;
        }
        let in_block = (offset % BIG_BLOCK as u64) as usize;
        let (head, rest) = dst.split_at_mut((BIG_BLOCK - in_block).min(dst.len()));
        let pieces = std::iter::once((in_block, head))
            .chain(rest.chunks_mut(BIG_BLOCK).map(|piece| (0, piece)));
        let reads = (offset / BIG_BLOCK as u64..)
            .zip(pieces)
            .map(|(lbn, (at, piece))| (big_key(self.ino, lbn), at, piece));
        self.store.read_subs(reads);
        1
    }

    /// Write `promoted` at offset 0, then each `(offset, src)` run in
    /// place, in the order given, then `attr` as the file's whole
    /// attribute value: **one** multi-key sub-write for every block of
    /// every run and the attribute, keys built on the stack as
    /// [`read_at`](FileObject::read_at) builds them. `promoted` is a small
    /// file's value moving into block 0 (empty: none). Two runs may share
    /// a block; each writes its own range of it. The attribute is a
    /// full-length range at offset 0 of a value that is always 256 bytes,
    /// so it replaces the value as a `put` would, and it lands no earlier
    /// than the blocks it describes. Returns the number of KV operations
    /// performed: 1, or 0 when there is nothing to write.
    pub(crate) fn write_runs<'s>(
        &self,
        promoted: &[u8],
        runs: impl IntoIterator<Item = (u64, &'s [u8])>,
        attr: Option<&[u8; 256]>,
    ) -> usize {
        let ino = self.ino;
        let promoted =
            (!promoted.is_empty()).then(|| (BatchKey::Block(big_key(ino, 0)), 0, promoted));
        let blocks = runs
            .into_iter()
            .filter(|(_, src)| !src.is_empty())
            .flat_map(move |(offset, src)| {
                let in_block = (offset % BIG_BLOCK as u64) as usize;
                let (head, rest) = src.split_at((BIG_BLOCK - in_block).min(src.len()));
                let pieces = std::iter::once((in_block, head))
                    .chain(rest.chunks(BIG_BLOCK).map(|piece| (0, piece)));
                (offset / BIG_BLOCK as u64..)
                    .zip(pieces)
                    .map(move |(lbn, (at, piece))| (BatchKey::Block(big_key(ino, lbn)), at, piece))
            });
        let attr = attr.map(|value| (BatchKey::Attr(attr_key(ino)), 0, &value[..]));
        let writes = promoted.into_iter().chain(blocks).chain(attr);
        usize::from(self.store.write_subs(writes) > 0)
    }

    /// Drop every block at or beyond `new_size`, and trim the boundary
    /// block. An ordered range delete from the first dropped block: blocks
    /// that stay are never visited, and no block value is ever copied.
    pub(crate) fn truncate(&self, new_size: u64) {
        let keep_blocks = new_size.div_ceil(BIG_BLOCK as u64);
        self.store
            .delete_range(&big_prefix(self.ino), &big_key(self.ino, keep_blocks));
        let tail = (new_size % BIG_BLOCK as u64) as usize;
        if tail != 0 {
            let key = big_key(self.ino, new_size / BIG_BLOCK as u64);
            if self.store.value_len(&key).is_some_and(|len| len > tail) {
                self.store.truncate_value(&key, tail);
            }
        }
    }

    /// Remove every block (unlink).
    pub(crate) fn delete_all(&self) {
        let prefix = big_prefix(self.ino);
        self.store.delete_range(&prefix, &prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FileObject<'_> {
        /// Write `src` at `offset` in place, as one run of
        /// [`write_runs`](FileObject::write_runs).
        fn write_at(&self, offset: u64, src: &[u8]) -> usize {
            self.write_runs(&[], [(offset, src)], None)
        }

        /// Number of allocated blocks.
        fn block_count(&self) -> usize {
            self.store.count_prefix(&big_prefix(self.ino))
        }
    }

    #[test]
    fn block_aligned_round_trip() {
        let kv = KvStore::new();
        let fo = FileObject::new(&kv, 9);
        let data = vec![0x5A; BIG_BLOCK * 2];
        // Two blocks written are one multi-key request, and so are the two
        // read back (two each before writes and reads went one request
        // per block).
        assert_eq!(fo.write_at(0, &data), 1);
        assert_eq!((kv.stats().sub_writes, kv.stats().sub_write_keys), (1, 2));
        let mut back = vec![0u8; BIG_BLOCK * 2];
        assert_eq!(fo.read_at(0, &mut back), 1);
        assert_eq!(back, data);
        assert_eq!(fo.block_count(), 2);
        assert_eq!(fo.write_at(0, &[]), 0, "nothing to write is no request");
    }

    #[test]
    fn runs_write_what_write_at_per_run_writes_in_one_request() {
        let (kv, per_run) = (KvStore::new(), KvStore::new());
        let (fo, each) = (FileObject::new(&kv, 5), FileObject::new(&per_run, 5));
        let pattern = |seed: u8, len: usize| -> Vec<u8> {
            (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
        };
        let (a, b, c, d) = (
            pattern(1, 3 * BIG_BLOCK),
            pattern(2, 4096),
            pattern(3, 100),
            pattern(4, BIG_BLOCK + 5),
        );
        // A run over three blocks, two runs sharing one block, an empty
        // run, one past a hole, and a later run over an earlier one.
        let runs: [(u64, &[u8]); 6] = [
            (0, &a),
            (4 * BIG_BLOCK as u64, &b),
            (4 * BIG_BLOCK as u64 + 4096, &c),
            (7 * BIG_BLOCK as u64, &[]),
            (9 * BIG_BLOCK as u64 - 3, &d),
            (BIG_BLOCK as u64 + 17, &c),
        ];
        assert_eq!(fo.write_runs(&[], runs, None), 1);
        let s = kv.stats();
        assert_eq!((s.sub_writes, s.sub_write_keys), (1, 3 + 1 + 1 + 3 + 1));
        for (offset, src) in runs {
            each.write_at(offset, src);
        }
        let mut got = vec![0u8; 11 * BIG_BLOCK];
        let mut want = got.clone();
        fo.read_at(0, &mut got);
        each.read_at(0, &mut want);
        assert!(got == want, "the batch diverged from one write per run");
        assert_eq!(fo.block_count(), each.block_count());
    }

    #[test]
    fn unaligned_write_spans_blocks() {
        let kv = KvStore::new();
        let fo = FileObject::new(&kv, 1);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        fo.write_at(5000, &data);
        let mut back = vec![0u8; data.len()];
        fo.read_at(5000, &mut back);
        assert_eq!(back, data);
        // Bytes before the write read as zero (hole).
        let mut hole = vec![1u8; 100];
        fo.read_at(0, &mut hole);
        assert!(hole.iter().all(|&b| b == 0));
    }

    #[test]
    fn in_place_8k_update_touches_one_block() {
        let kv = KvStore::new();
        let fo = FileObject::new(&kv, 2);
        fo.write_at(0, &vec![1u8; BIG_BLOCK * 16]); // 128 KiB file
        let puts_before = kv.stats().sub_writes;
        // The paper's point: an 8 KiB-aligned update rewrites one block,
        // not the 128 KiB value.
        assert_eq!(fo.write_at(8 * BIG_BLOCK as u64, &vec![2u8; BIG_BLOCK]), 1);
        assert_eq!(kv.stats().sub_writes - puts_before, 1);
        let mut back = vec![0u8; BIG_BLOCK];
        fo.read_at(8 * BIG_BLOCK as u64, &mut back);
        assert_eq!(back, vec![2u8; BIG_BLOCK]);
    }

    #[test]
    fn truncate_drops_tail_blocks() {
        let kv = KvStore::new();
        let fo = FileObject::new(&kv, 3);
        fo.write_at(0, &vec![7u8; BIG_BLOCK * 4]);
        assert_eq!(fo.block_count(), 4);
        fo.truncate(BIG_BLOCK as u64 + 100);
        assert_eq!(fo.block_count(), 2);
        // The boundary block is trimmed: bytes past 100 in block 1 are gone
        // (read back as zeros after the value shrank).
        let mut back = vec![0u8; 200];
        fo.read_at(BIG_BLOCK as u64, &mut back);
        assert!(back[..100].iter().all(|&b| b == 7));
        assert!(back[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn delete_all_removes_every_block() {
        let kv = KvStore::new();
        let fo = FileObject::new(&kv, 4);
        fo.write_at(0, &vec![1u8; BIG_BLOCK * 3]);
        fo.delete_all();
        assert_eq!(fo.block_count(), 0);
        assert!(kv.is_empty());
    }

    #[test]
    fn files_do_not_interfere() {
        let kv = KvStore::new();
        let a = FileObject::new(&kv, 10);
        let b = FileObject::new(&kv, 11);
        a.write_at(0, &vec![1u8; BIG_BLOCK]);
        b.write_at(0, &vec![2u8; BIG_BLOCK]);
        a.delete_all();
        let mut back = vec![0u8; BIG_BLOCK];
        b.read_at(0, &mut back);
        assert_eq!(back, vec![2u8; BIG_BLOCK]);
    }
}

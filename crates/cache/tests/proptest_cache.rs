//! Model-based property test for the hybrid cache: an arbitrary
//! interleaving of host data-plane ops (writes, reads, invalidations) and
//! DPU control-plane ops (flush passes, evictions, clean inserts) must
//! keep the cache consistent with a reference model:
//!
//! - a read hit must return the most recently written/inserted content;
//! - flushed pages must carry exactly the content the host last wrote;
//! - the free-page counter must match the number of free entries;
//! - no page is ever lost: after a final flush, every dirty write has
//!   reached the backend.

use std::collections::HashMap;
use std::sync::Arc;

use dpc_cache::{CacheConfig, ControlPlane, HybridCache, WriteError, PAGE_SIZE};
use dpc_pcie::DmaEngine;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Write { ino: u64, lpn: u64, fill: u8 },
    Read { ino: u64, lpn: u64 },
    Invalidate { ino: u64, lpn: u64 },
    FlushPass,
    Evict { bucket: u8 },
    InsertClean { ino: u64, lpn: u64, fill: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let ino = 1u64..4;
    let lpn = 0u64..12;
    prop_oneof![
        4 => (ino.clone(), lpn.clone(), any::<u8>())
            .prop_map(|(ino, lpn, fill)| Op::Write { ino, lpn, fill }),
        3 => (ino.clone(), lpn.clone()).prop_map(|(ino, lpn)| Op::Read { ino, lpn }),
        1 => (ino.clone(), lpn.clone()).prop_map(|(ino, lpn)| Op::Invalidate { ino, lpn }),
        1 => Just(Op::FlushPass),
        1 => (0u8..8).prop_map(|bucket| Op::Evict { bucket }),
        1 => (ino, lpn, any::<u8>())
            .prop_map(|(ino, lpn, fill)| Op::InsertClean { ino, lpn, fill }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let cache = Arc::new(HybridCache::new(CacheConfig {
            pages: 64,
            bucket_entries: 8,
            mode: 1,
            meta_lockfree: true,
        }));
        let dma = DmaEngine::new();
        let mut cp = ControlPlane::new(cache.clone(), dma);

        // content: what a hit must return. dirty: what a flush must emit.
        let mut content: HashMap<(u64, u64), u8> = HashMap::new();
        let mut dirty: HashMap<(u64, u64), u8> = HashMap::new();
        let mut backend: HashMap<(u64, u64), u8> = HashMap::new();
        let mut buf = vec![0u8; PAGE_SIZE];

        for op in ops {
            match op {
                Op::Write { ino, lpn, fill } => match cache.begin_write(ino, lpn) {
                    Ok(mut g) => {
                        g.write(0, &[fill; PAGE_SIZE]);
                        g.commit_dirty();
                        content.insert((ino, lpn), fill);
                        dirty.insert((ino, lpn), fill);
                    }
                    Err(WriteError::NeedEviction { .. }) => {
                        // Bucket full: valid outcome; model unchanged.
                    }
                },
                Op::Read { ino, lpn } => {
                    let hit = cache.lookup_read(ino, lpn, &mut buf);
                    match content.get(&(ino, lpn)) {
                        Some(&fill) => {
                            prop_assert!(hit, "cached page must hit ({ino},{lpn})");
                            prop_assert!(buf.iter().all(|&b| b == fill),
                                "hit returned stale content");
                        }
                        None => prop_assert!(!hit, "uncached page must miss"),
                    }
                }
                Op::Invalidate { ino, lpn } => {
                    let present = cache.invalidate(ino, lpn);
                    prop_assert_eq!(present, content.remove(&(ino, lpn)).is_some());
                    dirty.remove(&(ino, lpn));
                }
                Op::FlushPass => {
                    let be = &mut backend;
                    let flushed = cp.flush_extents(
                        &mut |ino: u64, lpn: u64, page: &[u8]| {
                            be.insert((ino, lpn), page[0]);
                        },
                        None,
                        false,
                    );
                    prop_assert_eq!(flushed, dirty.len(), "flush drains exactly the dirty set");
                    for (k, v) in dirty.drain() {
                        prop_assert_eq!(backend.get(&k), Some(&v), "flushed content");
                    }
                }
                Op::Evict { bucket } => {
                    let evicted = cp.evict_one(bucket as usize);
                    if evicted {
                        // Some clean page left the cache; find which by
                        // re-checking all clean entries.
                        content.retain(|&(ino, lpn), _| {
                            dirty.contains_key(&(ino, lpn))
                                || cache.lookup_read(ino, lpn, &mut buf)
                        });
                    }
                }
                Op::InsertClean { ino, lpn, fill } => {
                    // A fill never clobbers an existing entry — the cached
                    // copy is at least as new as anything a backend read
                    // returned (the entry may hold an unflushed write). It
                    // only lands when it claims a free slot.
                    let novel = !content.contains_key(&(ino, lpn));
                    if cp.insert_clean(ino, lpn, &[fill; PAGE_SIZE]) && novel {
                        content.insert((ino, lpn), fill);
                    }
                }
            }
            // Invariant: free counter equals pages minus live entries.
            prop_assert_eq!(
                cache.header().free() as usize,
                64 - content.len(),
                "free-page accounting"
            );
        }

        // Nothing dirty may be lost: final flush emits every pending write.
        let be = &mut backend;
        let flushed = cp.flush_extents(
            &mut |ino: u64, lpn: u64, page: &[u8]| {
                be.insert((ino, lpn), page[0]);
            },
            None,
            false,
        );
        prop_assert_eq!(flushed, dirty.len());
        for (k, v) in dirty {
            prop_assert_eq!(backend.get(&k), Some(&v));
        }

        // The resident index followed every claim, eviction and drop:
        // dropping each inode visits exactly the pages the model holds.
        let mut inos: Vec<u64> = content.keys().map(|&(ino, _)| ino).collect();
        inos.sort_unstable();
        inos.dedup();
        for ino in inos {
            let held = content.keys().filter(|k| k.0 == ino).count();
            prop_assert_eq!(cache.invalidate_ino(ino), held, "ino {}", ino);
        }
        prop_assert_eq!(cache.stats().invalidate_visits as usize, content.len());
        prop_assert_eq!(cache.header().free(), 64);
    }
}

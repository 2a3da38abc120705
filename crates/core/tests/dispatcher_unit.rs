//! Direct unit tests of the DPU IO-dispatch (no runtime threads): every
//! request type, both dispatch targets, and the error mapping.

use std::sync::Arc;

use dpc_cache::{CacheConfig, ControlPlane, HybridCache};
use dpc_core::Dispatcher;
use dpc_dfs::{ClientCore, DfsBackend, DfsConfig};
use dpc_kvfs::Kvfs;
use dpc_kvstore::KvStore;
use dpc_nvmefs::{decode_dirents, DispatchType, FileIncoming, FileRequest, FileResponse};
use dpc_pcie::DmaEngine;

fn incoming(dispatch: DispatchType, request: FileRequest, payload: Vec<u8>) -> FileIncoming {
    FileIncoming {
        slot: 0,
        dispatch,
        request,
        payload,
        read_len: 1 << 20,
        zc: None,
    }
}

fn dispatcher(dfs: bool) -> (Dispatcher, Arc<Kvfs>) {
    let kvfs = Arc::new(Kvfs::new(Arc::new(KvStore::new())));
    let cache = Arc::new(HybridCache::new(CacheConfig {
        pages: 64,
        bucket_entries: 8,
        mode: 1,
        meta_lockfree: true,
    }));
    let control = ControlPlane::new(cache, DmaEngine::new());
    let dfs_core = if dfs {
        Some(ClientCore::new(DfsBackend::new(DfsConfig::default()), 1))
    } else {
        None
    };
    (Dispatcher::new(kvfs.clone(), control, dfs_core), kvfs)
}

#[test]
fn standalone_namespace_requests() {
    let (mut d, kvfs) = dispatcher(false);

    // Mkdir then create inside it.
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Mkdir {
            parent: 0,
            name: "dir".into(),
            mode: 0o755,
        },
        vec![],
    ));
    let FileResponse::Ino(dir) = resp else {
        panic!("{resp:?}")
    };
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Create {
            parent: dir,
            name: "file".into(),
            mode: 0o644,
        },
        vec![],
    ));
    let FileResponse::Ino(ino) = resp else {
        panic!("{resp:?}")
    };

    // Lookup agrees.
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Lookup {
            parent: dir,
            name: "file".into(),
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Ino(ino));

    // Readdir payload decodes.
    let (resp, payload) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Readdir { ino: dir },
        vec![],
    ));
    let FileResponse::Entries(n) = resp else {
        panic!("{resp:?}")
    };
    let entries = decode_dirents(&payload, n as usize).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].name, "file");

    // Rename then unlink then rmdir.
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Rename {
            parent: dir,
            name: "file".into(),
            new_parent: 0,
            new_name: "moved".into(),
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Ok);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Unlink {
            parent: 0,
            name: "moved".into(),
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Ok);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Rmdir {
            parent: 0,
            name: "dir".into(),
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Ok);
    assert_eq!(kvfs.dir_entry_count(0).unwrap(), 0);
}

#[test]
fn standalone_data_requests() {
    let (mut d, _) = dispatcher(false);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Create {
            parent: 0,
            name: "data".into(),
            mode: 0o644,
        },
        vec![],
    ));
    let FileResponse::Ino(ino) = resp else {
        panic!()
    };

    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Write {
            ino,
            offset: 100,
            len: 5,
        },
        b"hello".to_vec(),
    ));
    assert_eq!(resp, FileResponse::Bytes(5));

    let (resp, payload) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Read {
            ino,
            offset: 100,
            len: 5,
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Bytes(5));
    assert_eq!(payload, b"hello");

    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::GetAttr { ino },
        vec![],
    ));
    let FileResponse::Attr(a) = resp else {
        panic!()
    };
    assert_eq!(a.size, 105);

    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Truncate { ino, size: 10 },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Ok);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Fsync { ino },
        vec![],
    ));
    // The fsync reply carries the post-flush attribute (size reconcile).
    let FileResponse::Attr(a) = resp else {
        panic!()
    };
    assert_eq!((a.ino, a.size), (ino, 10));
}

#[test]
fn errno_mapping() {
    let (mut d, _) = dispatcher(false);
    // ENOENT
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Lookup {
            parent: 0,
            name: "nope".into(),
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Err(2));
    // EEXIST
    for _ in 0..2 {
        d.handle(&incoming(
            DispatchType::Standalone,
            FileRequest::Create {
                parent: 0,
                name: "dup".into(),
                mode: 0o644,
            },
            vec![],
        ));
    }
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Create {
            parent: 0,
            name: "dup".into(),
            mode: 0o644,
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Err(17));
    // EINVAL (bad name)
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::Create {
            parent: 0,
            name: "a/b".into(),
            mode: 0o644,
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Err(22));
}

#[test]
fn cache_evict_request_round_trip() {
    let (mut d, _) = dispatcher(false);
    // An eviction request against an empty bucket is still Ok (nothing to
    // do — the host will retry its allocation).
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::CacheEvict { bucket: 0 },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Ok);
}

#[test]
fn cache_evict_busy_bucket_surfaces_ebusy() {
    // A single-bucket cache whose every entry is dirty *and* write-locked
    // by an active host writer: eviction finds nothing clean, the flush
    // pass must skip the locked entries, and the retry still fails — the
    // dispatcher reports EBUSY instead of pretending a frame was freed.
    let kvfs = Arc::new(Kvfs::new(Arc::new(KvStore::new())));
    let cache = Arc::new(HybridCache::new(CacheConfig {
        pages: 8,
        bucket_entries: 8,
        mode: 1,
        meta_lockfree: true,
    }));
    let control = ControlPlane::new(cache.clone(), DmaEngine::new());
    let mut d = Dispatcher::new(kvfs, control, None);

    let page = vec![7u8; dpc_cache::PAGE_SIZE];
    for lpn in 0..8u64 {
        let mut g = cache.begin_write(1, lpn).unwrap();
        g.write(0, &page);
        g.commit_dirty();
    }
    // Re-acquire and hold the write locks (uncommitted guards).
    let guards: Vec<_> = (0..8u64)
        .map(|lpn| cache.begin_write(1, lpn).unwrap())
        .collect();

    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::CacheEvict { bucket: 0 },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Err(16 /* EBUSY */));

    // Once the writers release, flush-then-evict succeeds again.
    drop(guards);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::CacheEvict { bucket: 0 },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Ok);
}

#[test]
fn dfs_unaligned_offset_is_einval() {
    // The DFS data path is 8 KiB-block granular; an unaligned offset from
    // a buggy or hostile host must come back as EINVAL, not crash the
    // service thread (these used to be assert_eq! panics).
    let (mut d, _) = dispatcher(true);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Create {
            parent: 0,
            name: "blk".into(),
            mode: 0o644,
        },
        vec![],
    ));
    let FileResponse::Ino(ino) = resp else {
        panic!("{resp:?}")
    };

    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Write {
            ino,
            offset: 4096, // not a multiple of DFS_BLOCK (8192)
            len: 8192,
        },
        vec![7u8; 8192],
    ));
    assert_eq!(resp, FileResponse::Err(22));

    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Read {
            ino,
            offset: 12_288,
            len: 8192,
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Err(22));
}

#[test]
fn distributed_requests_without_backend_are_rejected() {
    let (mut d, _) = dispatcher(false);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::GetAttr { ino: 1 },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Err(95)); // EOPNOTSUPP
}

#[test]
fn distributed_requests_served_by_client_core() {
    let (mut d, _) = dispatcher(true);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Create {
            parent: 0,
            name: "remote".into(),
            mode: 0o644,
        },
        vec![],
    ));
    let FileResponse::Ino(ino) = resp else {
        panic!("{resp:?}")
    };

    let block = vec![7u8; 8192];
    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Write {
            ino,
            offset: 0,
            len: 8192,
        },
        block.clone(),
    ));
    assert_eq!(resp, FileResponse::Bytes(8192));

    let (resp, payload) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Read {
            ino,
            offset: 0,
            len: 8192,
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Bytes(8192));
    assert_eq!(payload, block);

    // Unsupported distributed op.
    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Rmdir {
            parent: 0,
            name: "x".into(),
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Err(95));
}

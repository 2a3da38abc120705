//! Direct unit tests of the DPU IO-dispatch (no runtime threads): every
//! request type, both dispatch targets, and the error mapping.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dpc_cache::{CacheConfig, ControlPlane, HybridCache};
use dpc_core::Dispatcher;
use dpc_dfs::{ClientCore, DfsBackend, DfsConfig};
use dpc_kvfs::Kvfs;
use dpc_kvstore::KvStore;
use dpc_nvmefs::{
    create_fabric, decode_dirents_into, ChannelPool, DispatchType, FileIncoming, FileIncomingBatch,
    FileRequest, FileResponse, FileTarget, Payload, QueuePairConfig, Sides, Ticket, WireStep,
    CQE_SIZE, SQE_SIZE,
};
use dpc_pcie::{DmaEngine, DMA_PAGE};

fn incoming(dispatch: DispatchType, request: FileRequest, payload: Vec<u8>) -> FileIncoming {
    FileIncoming {
        slot: 0,
        dispatch,
        request,
        payload,
        read_len: 1 << 20,
    }
}

fn dispatcher(dfs: bool) -> (Dispatcher, Arc<Kvfs>) {
    dispatcher_over(dfs.then(|| DfsBackend::new(DfsConfig::default())))
}

/// A dispatcher whose DFS client, if any, talks to `dfs`.
fn dispatcher_over(dfs: Option<Arc<DfsBackend>>) -> (Dispatcher, Arc<Kvfs>) {
    let kvfs = Arc::new(Kvfs::new(Arc::new(KvStore::new())));
    let cache = Arc::new(HybridCache::new(CacheConfig {
        pages: 64,
        bucket_entries: 8,
        mode: 1,
        meta_lockfree: true,
    }));
    let control = ControlPlane::new(cache, DmaEngine::new());
    let dfs_core = dfs.map(|backend| ClientCore::new(backend, 1));
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
    let mut entries = Vec::new();
    decode_dirents_into(&payload, n as usize, &mut entries).unwrap();
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
    // The reply names the victim, and says its last name went.
    assert_eq!(resp, FileResponse::Removed { ino, last: true });
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
    // The fsync reply is `Ok`; the truncated size is the store's.
    assert_eq!(resp, FileResponse::Ok);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::GetAttr { ino },
        vec![],
    ));
    let FileResponse::Attr(a) = resp else {
        panic!()
    };
    assert_eq!(a.size, 10);
}

/// One request through a real queue pair: stage it on the pool, serve
/// it with `handle_batch` (the service loop's call, with its recycled
/// reply buffer), wait for the reply.
fn round_trip(
    pool: &ChannelPool,
    tgt: &mut FileTarget,
    d: &mut Dispatcher,
    dispatch: DispatchType,
    request: FileRequest,
    write: &[u8],
    read_len: u32,
) -> (FileResponse, Vec<u8>) {
    round_trip_by(
        pool,
        tgt,
        dispatch,
        request,
        write,
        read_len,
        |batch, tgt| {
            assert_eq!(d.handle_batch(batch, tgt), 1);
        },
    )
}

/// [`round_trip`], the polled batch served by `serve`.
fn round_trip_by(
    pool: &ChannelPool,
    tgt: &mut FileTarget,
    dispatch: DispatchType,
    request: FileRequest,
    write: &[u8],
    read_len: u32,
    serve: impl FnOnce(&FileIncomingBatch, &mut FileTarget),
) -> (FileResponse, Vec<u8>) {
    let sides = Sides {
        dispatch,
        write: Payload::Flat(write),
        read_len,
    };
    let mut ticket = [Ticket::default()];
    let one = std::slice::from_ref(&request);
    assert_eq!(pool.stage(0, &sides, one, &mut ticket), 1);
    let mut batch = FileIncomingBatch::new();
    assert_eq!(tgt.poll_many(&mut batch), 1);
    serve(&batch, tgt);
    pool.wait(ticket[0], &sides, &request, |resp, reply| {
        (resp, reply.to_vec())
    })
    .expect("reply decodes")
}

#[test]
fn a_reused_reply_buffer_never_leaks_stale_bytes() {
    // The dispatcher's reply scratch and the transport buffer are reused
    // uncleared — sized up, never zeroed again. After a 128 KiB reply has
    // been through both, every smaller reply must still be exactly its own
    // bytes at exactly its own length: none of the 0xAB that came before.
    let (mut d, kvfs) = dispatcher(false);
    let (chans, mut tgts) = create_fabric(
        1,
        QueuePairConfig {
            depth: 2, // one command in flight at a time: one transport buffer
            max_io_bytes: 256 * 1024,
        },
        &DmaEngine::new(),
    );
    let (pool, mut tgt) = (ChannelPool::new(chans), tgts.pop().unwrap());

    const K128: usize = 128 * 1024;
    let big = kvfs.create("/big", 0o644).unwrap();
    kvfs.write(big, 0, &vec![0xAB; K128]).unwrap();
    // … a 1000-byte tail, and past it one byte at 400 000: a hole between.
    let tail: Vec<u8> = (0..1000u32).map(|i| (i % 199) as u8 + 1).collect();
    kvfs.write(big, K128 as u64, &tail).unwrap();
    kvfs.write(big, 400_000, b"!").unwrap();
    let small = kvfs.create("/small", 0o644).unwrap();
    kvfs.write(small, 0, b"tiny file").unwrap();
    let dir = kvfs.mkdir("/dir", 0o755).unwrap();

    let mut read = |ino: u64, offset: u64, len: u32| {
        let req = FileRequest::Read { ino, offset, len };
        let sa = DispatchType::Standalone;
        let served = round_trip(&pool, &mut tgt, &mut d, sa, req, b"", len);
        // `handle_into` on the same dispatcher, handed a dirty buffer of
        // the caller's own, must agree byte for byte.
        let mut scratch = vec![0xCD; K128];
        let inc = incoming(
            DispatchType::Standalone,
            FileRequest::Read { ino, offset, len },
            vec![],
        );
        assert_eq!((d.handle_into(&inc, &mut scratch), scratch), served);
        served
    };
    let soak = |read: &mut dyn FnMut(u64, u64, u32) -> (FileResponse, Vec<u8>)| {
        let (resp, payload) = read(big, 0, K128 as u32);
        assert_eq!(resp, FileResponse::Bytes(K128 as u32));
        assert!(payload.len() == K128 && payload.iter().all(|&b| b == 0xAB));
    };

    soak(&mut read);
    // A short tail: asked for 128 KiB more, there are 1000 bytes and then
    // the hole's zeros up to the reply's end.
    let (resp, payload) = read(big, K128 as u64, 8192);
    assert_eq!(resp, FileResponse::Bytes(8192));
    assert_eq!(&payload[..1000], &tail[..]);
    assert!(
        payload[1000..].iter().all(|&b| b == 0),
        "hole reads as zeros"
    );

    soak(&mut read);
    // A hole proper: blocks nobody wrote.
    let (resp, payload) = read(big, 200_000, 20_000);
    assert_eq!(resp, FileResponse::Bytes(20_000));
    assert!(payload.len() == 20_000 && payload.iter().all(|&b| b == 0));

    soak(&mut read);
    // The file's last byte, and a read that starts past it.
    let (resp, payload) = read(big, 399_990, 4096);
    assert_eq!(resp, FileResponse::Bytes(11));
    assert_eq!(payload, b"\0\0\0\0\0\0\0\0\0\0!");
    soak(&mut read);
    let (resp, payload) = read(big, 400_001, 4096);
    assert_eq!((resp, payload), (FileResponse::Bytes(0), vec![]));

    soak(&mut read);
    // A `Small`-format file: one value, shorter than the read.
    let (resp, payload) = read(small, 0, 4096);
    assert_eq!(
        (resp, payload),
        (FileResponse::Bytes(9), b"tiny file".to_vec())
    );
    soak(&mut read);
    let (resp, payload) = read(small, 5, 2);
    assert_eq!((resp, payload), (FileResponse::Bytes(2), b"fi".to_vec()));

    soak(&mut read);
    // Failing reads: an errno and not one byte of payload.
    let (resp, payload) = read(dir, 0, 4096);
    assert_eq!(
        (resp, payload),
        (FileResponse::Err(21 /* EISDIR */), vec![])
    );
    soak(&mut read);
    let (resp, payload) = read(987_654, 0, 4096);
    assert_eq!((resp, payload), (FileResponse::Err(2 /* ENOENT */), vec![]));

    // A reply of another kind right behind a read starts from an empty
    // buffer, not from the read's leftovers.
    soak(&mut read);
    let (resp, payload) = round_trip(
        &pool,
        &mut tgt,
        &mut d,
        DispatchType::Standalone,
        FileRequest::Readdir { ino: dir },
        b"",
        4096,
    );
    assert_eq!((resp, payload), (FileResponse::Entries(0), vec![]));
    assert_eq!(pool.stats().rejected_sqes, 0);
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
    // A name with a `/` is a path now: ENOENT for its missing directory,
    // ENOTDIR through a file. EINVAL is for names no path can hold,
    // ENAMETOOLONG for a component past 1024 bytes.
    for (name, errno) in [
        ("a/b".to_string(), 2),
        ("dup/b".to_string(), 20),
        ("bad\0name".to_string(), 22),
        ("..".to_string(), 22),
        ("./b".to_string(), 22),
        ("x".repeat(1025), 36),
    ] {
        let (resp, _) = d.handle(&incoming(
            DispatchType::Standalone,
            FileRequest::Create {
                parent: 0,
                name: name.clone(),
                mode: 0o644,
            },
            vec![],
        ));
        assert_eq!(resp, FileResponse::Err(errno), "{name:.8}");
    }
}

/// Send one standalone request with room for a trail; returns the reply,
/// the op's own payload bytes and the decoded trail behind them.
fn ask(d: &mut Dispatcher, request: FileRequest) -> (FileResponse, Vec<u8>, Vec<WireStep>) {
    let (resp, payload) = d.handle(&incoming(DispatchType::Standalone, request, vec![]));
    let own = match resp {
        FileResponse::Bytes(n) => n as usize,
        FileResponse::Entries(n) => {
            decode_dirents_into(&payload, n as usize, &mut Vec::new()).unwrap()
        }
        _ => 0,
    };
    let trail = WireStep::decode_all(&payload[own..]).collect();
    (resp, payload[..own].to_vec(), trail)
}

fn ino_of(resp: FileResponse) -> u64 {
    match resp {
        FileResponse::Ino(ino) | FileResponse::Removed { ino, .. } => ino,
        FileResponse::Attr(a) => a.ino,
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_listing_whose_trail_would_not_fit_beside_it_is_erange() {
    // The walk trail rides behind a listing, and the host reads it off the
    // payload's end. A read side that holds the listing but not its trail
    // too is ERANGE — not the listing with its trail cut, whose last bytes
    // the host would read as walk steps.
    let (mut d, kvfs) = dispatcher(false);
    let dir = kvfs.mkdir("/d", 0o755).unwrap();
    kvfs.create("/d/f", 0o644).unwrap();
    let listing = 8 + 1 + 4 + 1; // ino, kind, name length, "f"
    let mut list = |read_len: usize| {
        let request = FileRequest::ReaddirAt {
            start: 0,
            path: "d".into(),
        };
        let inc = FileIncoming {
            read_len: read_len as u32,
            ..incoming(DispatchType::Standalone, request, vec![])
        };
        d.handle(&inc)
    };
    let (resp, payload) = list(listing + WireStep::SIZE);
    assert_eq!(resp, FileResponse::Entries(1));
    let trail: Vec<WireStep> = WireStep::decode_all(&payload[listing..]).collect();
    assert_eq!(trail, [WireStep::Entry(dir)]);
    let (resp, payload) = list(listing + WireStep::SIZE - 1);
    assert_eq!(resp, FileResponse::Err(34 /* ERANGE */));
    let trail: Vec<WireStep> = WireStep::decode_all(&payload).collect();
    assert_eq!(trail, [WireStep::Entry(dir)], "an error keeps its trail");
}

#[test]
fn path_requests_walk_on_the_dpu_and_report_the_trail() {
    let (mut d, kvfs) = dispatcher(false);
    let mk = |parent, name: &str| FileRequest::Mkdir {
        parent,
        name: name.into(),
        mode: 0o755,
    };
    let stat = |start, path: &str| FileRequest::StatAt {
        start,
        path: path.into(),
    };
    let (resp, _, trail) = ask(&mut d, mk(0, "a"));
    let a = ino_of(resp);
    assert_eq!(trail, [], "the parent is the start: nothing walked");
    // A relative path under a start inode: the walk stops at the parent.
    let (resp, _, trail) = ask(&mut d, mk(0, "a/b"));
    let b = ino_of(resp);
    assert_eq!(trail, [WireStep::Entry(a)]);
    let (resp, _, trail) = ask(
        &mut d,
        FileRequest::Create {
            parent: a,
            name: "b/f".into(),
            mode: 0o644,
        },
    );
    let f = ino_of(resp);
    assert_eq!(trail, [WireStep::Entry(b)]);

    // StatAt resolves the whole path, from the root or from anywhere.
    let (resp, _, trail) = ask(&mut d, stat(0, "/a//b/f/"));
    assert_eq!(ino_of(resp), f);
    assert_eq!(
        trail,
        [WireStep::Entry(a), WireStep::Entry(b), WireStep::Entry(f)]
    );
    let (resp, _, trail) = ask(&mut d, stat(a, "b/f"));
    assert_eq!(ino_of(resp), f);
    assert_eq!(trail, [WireStep::Entry(b), WireStep::Entry(f)]);
    let (resp, _, trail) = ask(&mut d, stat(f, ""));
    assert_eq!((ino_of(resp), trail), (f, vec![]));
    // Errors carry the trail up to the component that failed.
    let (resp, _, trail) = ask(&mut d, stat(0, "a/zz/f"));
    assert_eq!(resp, FileResponse::Err(2));
    assert_eq!(trail, [WireStep::Entry(a), WireStep::Absent]);
    let (resp, _, trail) = ask(&mut d, stat(0, "a/b/f/x"));
    assert_eq!(resp, FileResponse::Err(20), "ENOTDIR under a file");
    assert_eq!(trail.len(), 3);

    // A symlinked directory mid-path is followed here, and flagged so
    // the host never caches it as a dentry.
    let (resp, _, _) = ask(
        &mut d,
        FileRequest::Symlink {
            parent: 0,
            name: "a/ln".into(),
            target: "/a/b".into(),
        },
    );
    let ln = ino_of(resp);
    let (resp, _, trail) = ask(&mut d, stat(0, "a/ln/f"));
    assert_eq!(ino_of(resp), f);
    assert_eq!(
        trail,
        [
            WireStep::Entry(a),
            WireStep::Followed(b),
            WireStep::Entry(f)
        ]
    );
    // Readlink names the link itself: target first, then the trail.
    let (resp, target, trail) = ask(
        &mut d,
        FileRequest::Readlink {
            parent: 0,
            name: "a/ln".into(),
        },
    );
    assert_eq!(resp, FileResponse::Bytes(4));
    assert_eq!(
        (target.as_slice(), trail),
        (&b"/a/b"[..], vec![WireStep::Entry(a)])
    );

    // ReaddirAt: entries, then the trail.
    let (resp, listing, trail) = ask(
        &mut d,
        FileRequest::ReaddirAt {
            start: 0,
            path: "a/ln".into(),
        },
    );
    assert_eq!(resp, FileResponse::Entries(1));
    let mut entries = Vec::new();
    decode_dirents_into(&listing, 1, &mut entries).unwrap();
    assert_eq!(entries[0].name, "f");
    assert_eq!(trail, [WireStep::Entry(a), WireStep::Followed(b)]);
    let (resp, _, _) = ask(
        &mut d,
        FileRequest::ReaddirAt {
            start: 0,
            path: "a/b/f".into(),
        },
    );
    assert_eq!(resp, FileResponse::Err(20));

    // Link replies `Ok`; Unlink and Rename name the inode that lost a
    // name, and whether it was the last.
    let link = FileRequest::Link {
        parent: 0,
        name: "a/ln/f".into(),
        new_parent: a,
        new_name: "hard".into(),
    };
    let (resp, _, trail) = ask(&mut d, link);
    assert_eq!(resp, FileResponse::Ok);
    assert_eq!(kvfs.get_attr(f).unwrap().nlink, 2);
    assert_eq!(
        trail.len(),
        3,
        "the first path's steps; the second has none"
    );
    let unlink = |name: &str| FileRequest::Unlink {
        parent: 0,
        name: name.into(),
    };
    let (resp, _, _) = ask(&mut d, unlink("a/hard"));
    let lives_on = FileResponse::Removed {
        ino: f,
        last: false,
    };
    assert_eq!(resp, lives_on, "the other name lives on");
    let (resp, _, _) = ask(
        &mut d,
        FileRequest::Create {
            parent: 0,
            name: "a/g".into(),
            mode: 0o644,
        },
    );
    let g = ino_of(resp);
    let rename = |from: &str, to: &str| FileRequest::Rename {
        parent: 0,
        name: from.into(),
        new_parent: 0,
        new_name: to.into(),
    };
    let (resp, _, trail) = ask(&mut d, rename("a/g", "a/b/f"));
    let died = FileResponse::Removed { ino: f, last: true };
    assert_eq!(resp, died, "f died under g");
    assert_eq!(
        trail,
        [WireStep::Entry(a), WireStep::Entry(a), WireStep::Entry(b)]
    );
    assert_eq!(ask(&mut d, rename("a/b/f", "a/free")).0, FileResponse::Ok);
    assert_eq!(kvfs.resolve("/a/free").unwrap(), g);
    // Unlinking a symlink removes the link, not what it points at.
    let (resp, _, _) = ask(&mut d, unlink("a/ln"));
    assert_eq!(ino_of(resp), ln);
    assert_eq!(kvfs.resolve("/a/b").unwrap(), b);
    let rmdir = FileRequest::Rmdir {
        parent: a,
        name: "b/".into(),
    };
    assert_eq!(ask(&mut d, rmdir).0, FileResponse::Ok);

    // No read buffer, no trail: a host without a dentry cache pays nothing.
    let (resp, payload) = d.handle(&FileIncoming {
        read_len: 0,
        ..incoming(DispatchType::Standalone, stat(0, "a/free"), vec![])
    });
    assert_eq!((ino_of(resp), payload), (g, vec![]));
    // A short buffer takes whole steps only.
    let (_, payload) = d.handle(&FileIncoming {
        read_len: 2 * WireStep::SIZE as u32 - 1,
        ..incoming(DispatchType::Standalone, stat(0, "a/free"), vec![])
    });
    assert_eq!(payload.len(), WireStep::SIZE);
}

#[test]
fn cache_evict_request_round_trip() {
    let (mut d, _) = dispatcher(false);
    // An eviction request against an empty bucket still succeeds, with
    // nothing freed (nothing to do — the host will retry its allocation).
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::CacheEvictBatch { buckets: vec![0] },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Bytes(0));
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
        FileRequest::CacheEvictBatch { buckets: vec![0] },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Err(16 /* EBUSY */));

    // Once the writers release, flush-then-evict succeeds again.
    drop(guards);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Standalone,
        FileRequest::CacheEvictBatch { buckets: vec![0] },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Bytes(1));
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
fn dfs_oversize_and_overflowing_writes_are_einval() {
    // `ClientCore::write_block` used to `assert!(data.len() <= DFS_BLOCK)`
    // and compute `block * 8192 + len` unchecked: a hostile host could
    // kill the service thread with one SQE. Both are EINVAL now, and the
    // dispatcher keeps serving.
    let (mut d, _) = dispatcher(true);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Create {
            parent: 0,
            name: "big".into(),
            mode: 0o644,
        },
        vec![],
    ));
    let ino = ino_of(resp);
    let mut write = |offset: u64, payload: Vec<u8>| {
        let len = payload.len() as u32;
        let req = FileRequest::Write { ino, offset, len };
        d.handle(&incoming(DispatchType::Distributed, req, payload))
            .0
    };
    // Two blocks' worth of payload at an aligned offset.
    assert_eq!(write(0, vec![1u8; 16384]), FileResponse::Err(22));
    assert_eq!(write(8192, vec![1u8; 8193]), FileResponse::Err(22));
    // The last aligned offset a u64 holds: the block's end does not fit.
    assert_eq!(
        write(u64::MAX - 8191, vec![1u8; 8192]),
        FileResponse::Err(22)
    );
    // Nothing above left a trace, and the next request is served.
    assert_eq!(write(8192, vec![2u8; 8192]), FileResponse::Bytes(8192));
    let (resp, payload) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Read {
            ino,
            offset: 8192,
            len: 100,
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Bytes(100), "a short read is clipped");
    assert_eq!(payload, vec![2u8; 100]);
    let (resp, payload) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Read {
            ino,
            offset: 0,
            len: 8192,
        },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Err(2), "block 0 was never written");
    assert!(payload.is_empty());
}

#[test]
fn dfs_names_from_the_wire_follow_the_kvfs_name_rule() {
    // A Create or Lookup name comes from the host. Whatever its bytes, the
    // DPU answers the errno KVFS answers for it — EINVAL for an empty name,
    // `.`, `..`, or one holding `/` or NUL, ENAMETOOLONG past 1024 bytes —
    // before the DFS client sees it, so no such name is ever created.
    let (mut d, _) = dispatcher(true);
    let cases = [
        (String::new(), 22),
        (".".to_string(), 22),
        ("..".to_string(), 22),
        ("a/b".to_string(), 22),
        ("a\0b".to_string(), 22),
        ("x".repeat(1025), 36),
        ("x".repeat(2000), 36),
    ];
    for (name, errno) in cases {
        let create = FileRequest::Create {
            parent: 0,
            name: name.clone(),
            mode: 0o644,
        };
        let lookup = FileRequest::Lookup { parent: 0, name };
        for req in [create, lookup] {
            let (resp, _) = d.handle(&incoming(DispatchType::Distributed, req.clone(), vec![]));
            assert_eq!(resp, FileResponse::Err(errno), "{req:?}");
        }
    }
    // The longest legal name is created and found.
    let name = "x".repeat(1024);
    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Create {
            parent: 0,
            name: name.clone(),
            mode: 0o644,
        },
        vec![],
    ));
    let FileResponse::Ino(ino) = resp else {
        panic!("{resp:?}")
    };
    let (resp, _) = d.handle(&incoming(
        DispatchType::Distributed,
        FileRequest::Lookup { parent: 0, name },
        vec![],
    ));
    assert_eq!(resp, FileResponse::Ino(ino));
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

/// Every `FileRequest` variant, by an exhaustive match: a new variant
/// fails to compile here until `every_reply_fits_what_its_request_declared`
/// serves it.
fn variant_index(req: &FileRequest) -> usize {
    match req {
        FileRequest::Lookup { .. } => 0,
        FileRequest::StatAt { .. } => 1,
        FileRequest::ReaddirAt { .. } => 2,
        FileRequest::Create { .. } => 3,
        FileRequest::Mkdir { .. } => 4,
        FileRequest::Read { .. } => 5,
        FileRequest::Write { .. } => 6,
        FileRequest::Truncate { .. } => 7,
        FileRequest::Unlink { .. } => 8,
        FileRequest::Rmdir { .. } => 9,
        FileRequest::Readdir { .. } => 10,
        FileRequest::GetAttr { .. } => 11,
        FileRequest::Rename { .. } => 12,
        FileRequest::Fsync { .. } => 13,
        FileRequest::CacheEvictBatch { .. } => 14,
        FileRequest::Link { .. } => 15,
        FileRequest::Symlink { .. } => 16,
        FileRequest::Readlink { .. } => 17,
        FileRequest::ReadaheadHint { .. } => 18,
    }
}
const VARIANTS: usize = 19;

#[test]
fn every_reply_fits_what_its_request_declared() {
    // A request sent with no read payload expected, whose replies all
    // ride the CQE (`FileRequest::reply_rides_cqe`), declares no read
    // side at all. Were the dispatcher ever to answer one with `Attr`, or
    // anything else past the CQE's 9 bytes, the transport would have
    // nowhere to put it and a correct reply would turn into
    // `InvalidCommand`. So: every variant, success
    // and errno, standalone and distributed, through a real queue pair —
    // none refused, and each reply of the class its request promised.
    let (mut d, _) = dispatcher(true);
    let (chans, mut tgts) = create_fabric(
        1,
        QueuePairConfig {
            depth: 4,
            max_io_bytes: 64 * 1024,
        },
        &DmaEngine::new(),
    );
    let (pool, tgt) = (ChannelPool::new(chans), &mut tgts[0]);
    let mut seen = [[false; 2]; VARIANTS]; // [variant][replied an errno?]
    let mut serve = |d: &mut Dispatcher,
                     dispatch: DispatchType,
                     request: FileRequest,
                     write: &[u8],
                     read_len: u32| {
        let sent = request.clone();
        let (response, payload) = round_trip(&pool, tgt, d, dispatch, sent, write, read_len);
        assert_eq!(pool.stats().rejected_sqes, 0, "{request:?} -> {response:?}");
        let mut header = Vec::new();
        response.encode(&mut header);
        if read_len == 0 && request.reply_rides_cqe() {
            assert!(
                header.len() <= dpc_nvmefs::CQE_WIDE_CAP && payload.is_empty(),
                "{request:?} promised a CQE-sized reply, got {response:?}"
            );
        }
        let failed = matches!(response, FileResponse::Err(_));
        seen[variant_index(&request)][failed as usize] = true;
        response
    };
    let sa = DispatchType::Standalone;
    let name = |s: &str| s.to_string();

    // Twice over: with no room for a trail, and with room.
    for (pass, room) in [0u32, 4096].into_iter().enumerate() {
        let dir = format!("dir{pass}");
        let at = |leaf: &str| format!("{dir}/{leaf}");
        let mkdir = |name| FileRequest::Mkdir {
            parent: 0,
            name,
            mode: 0o755,
        };
        let create = |name| FileRequest::Create {
            parent: 0,
            name,
            mode: 0o644,
        };
        assert!(matches!(
            serve(&mut d, sa, mkdir(dir.clone()), b"", room),
            FileResponse::Ino(_)
        ));
        assert_eq!(
            serve(&mut d, sa, mkdir(dir.clone()), b"", room),
            FileResponse::Err(17)
        );
        let f = ino_of(serve(&mut d, sa, create(at("f")), b"", room));
        assert_eq!(
            serve(&mut d, sa, create(at("f")), b"", room),
            FileResponse::Err(17)
        );
        let lookup = |name| FileRequest::Lookup { parent: 0, name };
        serve(&mut d, sa, lookup(dir.clone()), b"", room);
        assert_eq!(
            serve(&mut d, sa, lookup(name("nope")), b"", room),
            FileResponse::Err(2)
        );
        let stat = |path| FileRequest::StatAt { start: 0, path };
        assert_eq!(ino_of(serve(&mut d, sa, stat(at("f")), b"", room)), f);
        assert_eq!(
            serve(&mut d, sa, stat(at("nope")), b"", room),
            FileResponse::Err(2)
        );

        let rw = |ino| (ino, 0u64, 100u32);
        let (ino, offset, len) = rw(f);
        assert_eq!(
            serve(
                &mut d,
                sa,
                FileRequest::Write { ino, offset, len },
                &[7; 100],
                room
            ),
            FileResponse::Bytes(100)
        );
        assert_eq!(
            serve(
                &mut d,
                sa,
                FileRequest::Read { ino, offset, len },
                b"",
                100 + room
            ),
            FileResponse::Bytes(100)
        );
        let (ino, offset, len) = rw(9999);
        assert_eq!(
            serve(
                &mut d,
                sa,
                FileRequest::Write { ino, offset, len },
                &[7; 100],
                room
            ),
            FileResponse::Err(2)
        );
        assert_eq!(
            serve(
                &mut d,
                sa,
                FileRequest::Read { ino, offset, len },
                b"",
                100 + room
            ),
            FileResponse::Err(2)
        );
        assert_eq!(
            serve(
                &mut d,
                sa,
                FileRequest::ReadaheadHint { ino: f, lpn: 0 },
                b"",
                room
            ),
            FileResponse::Ok
        );
        assert_eq!(
            serve(
                &mut d,
                sa,
                FileRequest::Truncate { ino: f, size: 10 },
                b"",
                room
            ),
            FileResponse::Ok
        );
        assert_eq!(
            serve(
                &mut d,
                sa,
                FileRequest::Truncate { ino: 9999, size: 0 },
                b"",
                room
            ),
            FileResponse::Err(2)
        );
        let fsyncs = [
            (f, FileResponse::Ok),
            (u64::MAX, FileResponse::Err(2)),
            (9999, FileResponse::Err(2)),
        ];
        for (ino, want) in fsyncs {
            let resp = serve(&mut d, sa, FileRequest::Fsync { ino }, b"", room);
            assert_eq!(resp, want);
        }
        assert_eq!(
            ino_of(serve(
                &mut d,
                sa,
                FileRequest::GetAttr { ino: f },
                b"",
                room
            )),
            f
        );
        assert_eq!(
            serve(&mut d, sa, FileRequest::GetAttr { ino: 9999 }, b"", room),
            FileResponse::Err(2)
        );

        let sym = |target: &str| FileRequest::Symlink {
            parent: 0,
            name: at("s"),
            target: name(target),
        };
        serve(&mut d, sa, sym("f"), b"", room);
        assert_eq!(
            serve(&mut d, sa, sym("f"), b"", room),
            FileResponse::Err(17)
        );
        let readlink = |leaf| FileRequest::Readlink {
            parent: 0,
            name: at(leaf),
        };
        assert_eq!(
            serve(&mut d, sa, readlink("s"), b"", 64 + room),
            FileResponse::Bytes(1)
        );
        assert!(matches!(
            serve(&mut d, sa, readlink("f"), b"", 64 + room),
            FileResponse::Err(_)
        ));
        let dir_ino = ino_of(serve(&mut d, sa, stat(dir.clone()), b"", room));
        for (req, errno) in [
            (FileRequest::Readdir { ino: dir_ino }, None),
            (FileRequest::Readdir { ino: 9999 }, Some(2)),
            (
                FileRequest::ReaddirAt {
                    start: 0,
                    path: dir.clone(),
                },
                None,
            ),
            (
                FileRequest::ReaddirAt {
                    start: 0,
                    path: at("nope"),
                },
                Some(2),
            ),
        ] {
            let resp = serve(&mut d, sa, req, b"", 4096 + room);
            match errno {
                None => assert_eq!(resp, FileResponse::Entries(2)),
                Some(e) => assert_eq!(resp, FileResponse::Err(e)),
            }
        }
        // A listing the host left no room for is an errno, not a payload.
        assert_eq!(
            serve(&mut d, sa, FileRequest::Readdir { ino: dir_ino }, b"", 0),
            FileResponse::Err(34)
        );

        let link = |from: &str, to: &str| FileRequest::Link {
            parent: 0,
            name: at(from),
            new_parent: 0,
            new_name: at(to),
        };
        assert_eq!(
            serve(&mut d, sa, link("f", "l"), b"", room),
            FileResponse::Ok
        );
        assert_eq!(
            serve(&mut d, sa, link("nope", "l2"), b"", room),
            FileResponse::Err(2)
        );
        let rename = |from: &str, to: &str| FileRequest::Rename {
            parent: 0,
            name: at(from),
            new_parent: 0,
            new_name: at(to),
        };
        assert_eq!(
            serve(&mut d, sa, rename("l", "m"), b"", room),
            FileResponse::Ok
        );
        let g = ino_of(serve(&mut d, sa, create(at("g")), b"", room));
        // Renaming over a name replies what it replaced.
        assert_eq!(ino_of(serve(&mut d, sa, rename("m", "g"), b"", room)), g);
        assert_eq!(
            serve(&mut d, sa, rename("nope", "x"), b"", room),
            FileResponse::Err(2)
        );
        let unlink = |leaf| FileRequest::Unlink {
            parent: 0,
            name: at(leaf),
        };
        assert_eq!(ino_of(serve(&mut d, sa, unlink("g"), b"", room)), f);
        assert_eq!(
            serve(&mut d, sa, unlink("g"), b"", room),
            FileResponse::Err(2)
        );
        let rmdir = |name| FileRequest::Rmdir { parent: 0, name };
        assert_eq!(
            serve(&mut d, sa, rmdir(dir.clone()), b"", room),
            FileResponse::Err(39)
        );
        serve(&mut d, sa, mkdir(at("e")), b"", room);
        assert_eq!(
            serve(&mut d, sa, rmdir(at("e")), b"", room),
            FileResponse::Ok
        );

        // A list short enough for the SQE, and one that takes the buffer.
        for n in [1, 6] {
            let buckets = vec![0; n];
            assert_eq!(
                serve(
                    &mut d,
                    sa,
                    FileRequest::CacheEvictBatch { buckets },
                    b"",
                    room
                ),
                FileResponse::Bytes(0)
            );
        }
    }

    // The distributed dispatcher: what it serves, and an EOPNOTSUPP for
    // everything it does not.
    let dist = DispatchType::Distributed;
    let block = vec![5u8; 8192];
    let dfs_file = ino_of(serve(
        &mut d,
        dist,
        FileRequest::Create {
            parent: 0,
            name: name("blk"),
            mode: 0,
        },
        b"",
        0,
    ));
    for (offset, errno) in [(0u64, None), (100, Some(22))] {
        let want = |ok| match errno {
            Some(e) => FileResponse::Err(e),
            None => ok,
        };
        let (ino, len) = (dfs_file, 8192u32);
        assert_eq!(
            serve(
                &mut d,
                dist,
                FileRequest::Write { ino, offset, len },
                &block,
                0
            ),
            want(FileResponse::Bytes(8192))
        );
        assert_eq!(
            serve(
                &mut d,
                dist,
                FileRequest::Read { ino, offset, len },
                b"",
                8192
            ),
            want(FileResponse::Bytes(8192))
        );
    }
    assert_eq!(
        ino_of(serve(
            &mut d,
            dist,
            FileRequest::GetAttr { ino: dfs_file },
            b"",
            0
        )),
        dfs_file
    );
    assert_eq!(
        serve(&mut d, dist, FileRequest::GetAttr { ino: 9999 }, b"", 0),
        FileResponse::Err(2)
    );
    assert_eq!(
        serve(&mut d, dist, FileRequest::Fsync { ino: 0 }, b"", 0),
        FileResponse::Ok
    );
    for req in [
        // The DFS namespace is not listed through the DPU.
        FileRequest::Readdir { ino: 0 },
        FileRequest::Truncate {
            ino: dfs_file,
            size: 0,
        },
        FileRequest::ReadaheadHint {
            ino: dfs_file,
            lpn: 0,
        },
        FileRequest::CacheEvictBatch { buckets: vec![0] },
        FileRequest::Mkdir {
            parent: 0,
            name: name("d"),
            mode: 0,
        },
    ] {
        assert_eq!(serve(&mut d, dist, req, b"", 0), FileResponse::Err(95));
    }

    for (variant, [ok, err]) in seen.into_iter().enumerate() {
        assert!(ok, "variant {variant} never served successfully");
        // `ReadaheadHint` has no errno of its own on KVFS; the
        // distributed dispatcher's EOPNOTSUPP covers it.
        assert!(err, "variant {variant} never replied an errno");
    }
}

/// A 1-block DFS file whose block 1 is `block`; its ino.
fn dfs_file(d: &mut Dispatcher, name: &str, block: &[u8]) -> u64 {
    let dist = DispatchType::Distributed;
    let create = FileRequest::Create {
        parent: 0,
        name: name.into(),
        mode: 0o644,
    };
    let ino = ino_of(d.handle(&incoming(dist, create, vec![])).0);
    let len = block.len() as u32;
    let write = FileRequest::Write {
        ino,
        offset: 8192,
        len,
    };
    let (resp, _) = d.handle(&incoming(dist, write, block.to_vec()));
    assert_eq!(resp, FileResponse::Bytes(len));
    ino
}

#[test]
fn a_read_served_in_place_equals_the_scratch_serve() {
    // `handle_batch` serves a `Read` straight into the command's transport
    // buffer. Served instead the way every reply was before — into the
    // dispatcher's own buffer by `handle_into`, then copied in by
    // `FileTarget::reply` — each case must give the host the same reply,
    // the same bytes, and cost the link the same DMAs: the SQE, one per
    // 4 KiB page of payload, the CQE.
    let (mut d, kvfs) = dispatcher(true);
    let dma = DmaEngine::new();
    let (chans, mut tgts) = create_fabric(
        1,
        QueuePairConfig {
            depth: 2, // one transport buffer, reused by every command
            max_io_bytes: 256 * 1024,
        },
        &dma,
    );
    let (pool, mut tgt) = (ChannelPool::new(chans), tgts.pop().unwrap());

    const K128: usize = 128 * 1024;
    let pattern = |len: usize| (0..len).map(|i| (i % 251) as u8 + 1).collect::<Vec<u8>>();
    let big = kvfs.create("/big", 0o644).unwrap();
    kvfs.write(big, 0, &pattern(K128)).unwrap();
    kvfs.write(big, 400_000, b"!").unwrap(); // a hole between
    let tail = kvfs.create("/tail", 0o644).unwrap();
    kvfs.write(tail, 0, &pattern(8192 + 1000)).unwrap();
    let small = kvfs.create("/small", 0o644).unwrap();
    kvfs.write(small, 0, b"tiny file").unwrap();
    let dir = kvfs.mkdir("/dir", 0o755).unwrap();
    let block: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 253) as u8).collect();
    let blk = dfs_file(&mut d, "blk", &block);

    let (sa, dist) = (DispatchType::Standalone, DispatchType::Distributed);
    let cases = [
        (
            "a hole",
            sa,
            big,
            200_000,
            20_000,
            FileResponse::Bytes(20_000),
            vec![0; 20_000],
        ),
        (
            "a short tail",
            sa,
            tail,
            8192,
            8192,
            FileResponse::Bytes(1000),
            pattern(9192)[8192..].to_vec(),
        ),
        (
            "a read past EOF",
            sa,
            big,
            400_001,
            4096,
            FileResponse::Bytes(0),
            vec![],
        ),
        (
            "a Small file",
            sa,
            small,
            0,
            4096,
            FileResponse::Bytes(9),
            b"tiny file".to_vec(),
        ),
        (
            "a 128 KiB run",
            sa,
            big,
            0,
            K128,
            FileResponse::Bytes(K128 as u32),
            pattern(K128),
        ),
        (
            "a DFS block",
            dist,
            blk,
            8192,
            8192,
            FileResponse::Bytes(8192),
            block.clone(),
        ),
        (
            "a directory",
            sa,
            dir,
            0,
            4096,
            FileResponse::Err(21 /* EISDIR */),
            vec![],
        ),
    ];
    // The dispatcher's buffer, reused dirty across cases.
    let mut scratch = vec![0xCD; K128];
    for (what, dispatch, ino, offset, len, resp, bytes) in cases {
        let len = len as u32;
        let read = FileRequest::Read { ino, offset, len };
        let before = dma.snapshot();
        let in_place = round_trip(&pool, &mut tgt, &mut d, dispatch, read.clone(), b"", len);
        let in_place_dmas = dma.snapshot().since(&before);
        let before = dma.snapshot();
        let copied_in = round_trip_by(&pool, &mut tgt, dispatch, read, b"", len, |batch, tgt| {
            for inc in batch {
                let resp = d.handle_into(inc, &mut scratch);
                tgt.reply(inc.slot, &resp, &scratch);
            }
        });
        let copied_in_dmas = dma.snapshot().since(&before);
        assert_eq!(in_place, (resp, bytes), "{what}");
        assert_eq!(copied_in, in_place, "{what}");
        assert_eq!(copied_in_dmas, in_place_dmas, "{what}");
        let n = in_place.1.len();
        assert_eq!(
            (in_place_dmas.dma_ops, in_place_dmas.dma_bytes),
            (
                2 + n.div_ceil(DMA_PAGE) as u64,
                (SQE_SIZE + n + CQE_SIZE) as u64
            ),
            "{what}"
        );
    }
    assert_eq!(pool.stats().rejected_sqes, 0);
}

#[test]
fn a_read_longer_than_its_read_side_is_refused_before_the_backend() {
    // A `Read` asking for more than the `read_len` its command declared
    // used to be sized first: its scratch buffer zero-filled to `len`
    // bytes (and kept at that capacity), the backend read, and only then
    // the reply cut to the file — `Bytes(8192)` for an 8 KiB file. Now it
    // is refused first: `InvalidCommand` through the target, EINVAL
    // through `handle_into`, no byte sized, the backend untouched.
    let backend = DfsBackend::new(DfsConfig::default());
    let (mut d, kvfs) = dispatcher_over(Some(backend.clone()));
    let (chans, mut tgts) = create_fabric(
        1,
        QueuePairConfig {
            depth: 2,
            max_io_bytes: 64 * 1024,
        },
        &DmaEngine::new(),
    );
    let (pool, mut tgt) = (ChannelPool::new(chans), tgts.pop().unwrap());
    const SIDE: u32 = 8192;
    let file = kvfs.create("/f", 0o644).unwrap();
    kvfs.write(file, 0, &[3u8; SIDE as usize]).unwrap();
    let blk = dfs_file(&mut d, "blk", &[4u8; SIDE as usize]);
    let ds_rpcs = || -> u64 {
        (0..backend.data_server_count())
            .map(|i| backend.data_server(i).rpcs.load(Ordering::Relaxed))
            .sum()
    };
    let (sa, dist) = (DispatchType::Standalone, DispatchType::Distributed);
    for (dispatch, ino, offset) in [(sa, file, 0), (dist, blk, 8192)] {
        for len in [SIDE + 1, 1 << 26] {
            let read = FileRequest::Read { ino, offset, len };
            let (kv, ds) = (kvfs.store().stats(), ds_rpcs());
            let rejected = pool.stats().rejected_sqes;
            let (resp, payload) =
                round_trip(&pool, &mut tgt, &mut d, dispatch, read.clone(), b"", SIDE);
            assert_eq!((resp, payload.len()), (FileResponse::Err(22), 0), "{len}");
            assert_eq!(pool.stats().rejected_sqes, rejected + 1, "{len}");
            let inc = FileIncoming {
                dispatch,
                request: read,
                read_len: SIDE,
                ..FileIncoming::default()
            };
            let mut out = Vec::new();
            assert_eq!(
                d.handle_into(&inc, &mut out),
                FileResponse::Err(22),
                "{len}"
            );
            assert_eq!(
                (out.len(), out.capacity()),
                (0, 0),
                "{len}: sized before refused"
            );
            let now = kvfs.store().stats();
            assert_eq!(now.sub_reads, kv.sub_reads, "{len}: the store was read");
            assert_eq!(now, kv, "{len}");
            assert_eq!(ds_rpcs(), ds, "{len}: a data server was asked");
        }
        // One that fits its side is served, by both.
        let read = FileRequest::Read {
            ino,
            offset,
            len: SIDE,
        };
        let (resp, payload) =
            round_trip(&pool, &mut tgt, &mut d, dispatch, read.clone(), b"", SIDE);
        assert_eq!(
            (resp, payload.len()),
            (FileResponse::Bytes(SIDE), SIDE as usize)
        );
        let (resp, again) = d.handle(&FileIncoming {
            dispatch,
            request: read,
            read_len: SIDE,
            ..FileIncoming::default()
        });
        assert_eq!((resp, again), (FileResponse::Bytes(SIDE), payload));
    }
}

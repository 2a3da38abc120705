//! The probe phase of a traced run: each layer on its own, through its
//! public functions, after the measured rounds and the oracle are done
//! (so probes may scribble on the store).
//!
//! Two kinds of probe. *Prices* time one call into one layer with fixed,
//! seeded inputs (`kvstore.store.get_us`, `nvmefs.pool.rtt_us`, ...) and
//! are the same on every workload. The *replay* turns the head of the
//! traced round's op stream into the requests the adapter sends for it
//! under today's defaults and runs them three times: through an inline
//! `Dispatcher` (no transport), against `Kvfs` directly, and - for the
//! flushes - through `ControlPlane::flush_extents` into a null backend.
//! The differences are the layers' self times. Every timed call is also a
//! span whose parent is the adapter class it stands in for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dpc_cache::{
    CacheConfig, ControlPlane, HybridCache, IntentLog, MetaAttr, MetaCache, MetaConfig,
    PrefetchJob, RaConfig, RaWindow, ReadaheadTable, WalKind, PAGE_SIZE, WAL_HEADER,
};
use dpc_core::Dispatcher;
use dpc_dfs::{ClientCore, DfsBackend, DfsConfig};
use dpc_ec::ReedSolomon;
use dpc_kvfs::Kvfs;
use dpc_kvstore::{KvStats, KvStore};
use dpc_nvmefs::{
    create_fabric, ChannelPool, DispatchType, FileIncoming, FileIncomingBatch, FileRequest,
    FileResponse, QueuePairConfig,
};
use dpc_pcie::{DmaEngine, HostRegion};

use crate::stats::{self, Rng};
use crate::trace::Spans;
use crate::workload::{Class, Op, Stream, World, BLOCK, DATA_PATH};

/// Ops of the traced round the replay covers.
pub const REPLAY_OPS: usize = 20_000;

/// Samples per price probe.
const SAMPLES: usize = 2_000;
const PAGES_PER_BLOCK: u64 = (BLOCK / PAGE_SIZE) as u64;

struct Probes<'a> {
    spans: &'a mut Spans,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    /// Time `samples` batches of `batch` calls of `f`; one span per batch.
    /// Returns the median µs per call. Sub-microsecond calls take a batch
    /// above 1 so the two clock reads do not dominate.
    fn price(
        &mut self,
        span: &'static str,
        parent: Class,
        samples: usize,
        batch: usize,
        mut f: impl FnMut(usize),
    ) -> f64 {
        let mut ns: Vec<u32> = Vec::with_capacity(samples);
        for s in 0..samples {
            let start = self.spans.now_ns();
            for k in 0..batch {
                f(s * batch + k);
            }
            let end = self.spans.now_ns();
            self.spans.probe(span, parent, s as u32, start, end);
            ns.push((end - start).min(u32::MAX as u64) as u32);
        }
        stats::p50_us(&mut ns) / batch as f64
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }
}

/// A page-sized, seeded, incompressible-looking buffer.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::derive(seed, 90, len as u64);
    let mut v = vec![0u8; len];
    for w in v.chunks_exact_mut(8) {
        w.copy_from_slice(&rng.next().to_le_bytes());
    }
    v
}

fn cache_like(world: &World) -> Arc<HybridCache> {
    let cfg = world.dpc.config();
    Arc::new(HybridCache::new(CacheConfig {
        pages: cfg.cache_pages,
        bucket_entries: cfg.cache_bucket_entries,
        mode: 1,
        meta_lockfree: cfg.cache_lockfree,
    }))
}

pub fn run(world: &World, stream: &Stream, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        spans,
        out: Vec::new(),
    };
    let seed = world.seed;
    kvstore_prices(&mut p, seed);
    kvfs_prices(&mut p, world);
    cache_prices(&mut p, world);
    link_prices(&mut p, world);
    dfs_prices(&mut p, seed);
    replay(&mut p, world, stream);
    p.out
}

// ---- prices -----------------------------------------------------------

fn kvstore_prices(p: &mut Probes, seed: u64) {
    let store = KvStore::new();
    let attr = noise(seed, 96);
    let block = noise(seed, BLOCK);
    let key = |kind: u8, i: usize| {
        let mut k = vec![kind];
        k.extend_from_slice(&(i as u64 % 4096).to_be_bytes());
        k
    };
    for i in 0..4096 {
        store.put(&key(1, i), &attr);
        store.put(&key(4, i), &block);
    }
    // 256 keys under one 9-byte prefix, like one directory's dentries.
    let mut prefix = vec![2u8];
    prefix.extend_from_slice(&7u64.to_be_bytes());
    for i in 0..256u16 {
        let mut k = prefix.clone();
        k.extend_from_slice(format!("f{i:03}").as_bytes());
        store.put(&k, &7u64.to_le_bytes());
    }
    let mut rng = Rng::derive(seed, 91, 0);
    let order: Vec<usize> = (0..SAMPLES * 8).map(|_| rng.below(4096) as usize).collect();
    let mut buf = vec![0u8; BLOCK];

    let v = p.price("kvstore.store.get", Class::Stat, SAMPLES, 8, |i| {
        std::hint::black_box(store.get(&key(1, order[i])));
    });
    p.metric("kvstore.store.get_us", v);
    let v = p.price("kvstore.store.put", Class::CreateClose, SAMPLES, 8, |i| {
        store.put(&key(1, order[i]), &attr);
    });
    p.metric("kvstore.store.put_us", v);
    let v = p.price("kvstore.store.read_sub", Class::Read, SAMPLES, 4, |i| {
        std::hint::black_box(store.read_sub(&key(4, order[i]), 0, &mut buf));
    });
    p.metric("kvstore.store.read_sub_8k_us", v);
    let v = p.price("kvstore.store.write_sub", Class::Fsync, SAMPLES, 4, |i| {
        store.write_sub(&key(4, order[i]), 0, &block);
    });
    p.metric("kvstore.store.write_sub_8k_us", v);
    let v = p.price(
        "kvstore.store.scan_prefix",
        Class::Readdir,
        SAMPLES / 4,
        1,
        |_| {
            std::hint::black_box(store.scan_prefix(&prefix));
        },
    );
    p.metric("kvstore.store.scan_256_us", v);
}

/// `Kvfs` over the world's own store, with a probe directory and a probe
/// file of its own so every workload prices the same calls.
fn kvfs_prices(p: &mut Probes, world: &World) {
    let kvfs = Kvfs::open(world.dpc.kv_store()).expect("the world's store holds a KVFS root");
    let dir = kvfs.mkdir("/__probe", 0o755).expect("probe dir");
    for i in 0..256 {
        kvfs.create_in(dir, &format!("f{i:03}"), 0o644)
            .expect("probe file");
    }
    let file = kvfs.create_in(dir, "data", 0o644).expect("probe data file");
    let blocks = 1024usize; // 8 MiB
    let chunk = noise(world.seed, 16 * BLOCK);
    for c in 0..blocks / 16 {
        kvfs.write(file, (c * 16 * BLOCK) as u64, &chunk)
            .expect("populate probe file");
    }
    let mut rng = Rng::derive(world.seed, 92, 0);
    let order: Vec<usize> = (0..SAMPLES * 4)
        .map(|_| rng.below(blocks as u64 - 16) as usize)
        .collect();
    let paths: Vec<String> = (0..256).map(|i| format!("/__probe/f{i:03}")).collect();
    let mut buf = vec![0u8; 16 * BLOCK];

    let v = p.price("kvfs.fs.read", Class::Read, SAMPLES, 2, |i| {
        std::hint::black_box(
            kvfs.read(file, (order[i] * BLOCK) as u64, &mut buf[..BLOCK])
                .is_ok(),
        );
    });
    p.metric("kvfs.fs.read_8k_us", v);
    let v = p.price("kvfs.fs.read_extent", Class::Read, SAMPLES / 2, 1, |i| {
        let mut segs: Vec<&mut [u8]> = buf.chunks_mut(PAGE_SIZE).collect();
        std::hint::black_box(
            kvfs.read_extent(file, (order[i] * BLOCK) as u64, &mut segs)
                .is_ok(),
        );
    });
    p.metric("kvfs.fs.read_extent_us_per_page", v / 32.0);
    let v = p.price("kvfs.fs.write_extent", Class::Fsync, SAMPLES / 2, 1, |i| {
        let segs: Vec<&[u8]> = chunk.chunks(PAGE_SIZE).collect();
        std::hint::black_box(
            kvfs.write_extent(file, (order[i] * BLOCK) as u64, &segs)
                .is_ok(),
        );
    });
    p.metric("kvfs.fs.write_extent_us_per_page", v / 32.0);
    let v = p.price("kvfs.fs.stat", Class::Stat, SAMPLES, 4, |i| {
        std::hint::black_box(kvfs.stat(&paths[order[i] % 256]).is_ok());
    });
    p.metric("kvfs.fs.stat_us", v);
    let names: Vec<String> = (0..SAMPLES).map(|i| format!("n{i}")).collect();
    let v = p.price("kvfs.fs.create_in", Class::CreateClose, SAMPLES, 1, |i| {
        std::hint::black_box(kvfs.create_in(dir, &names[i], 0o644).is_ok());
    });
    p.metric("kvfs.fs.create_us", v);
    let v = p.price("kvfs.fs.unlink_in", Class::Unlink, SAMPLES, 1, |i| {
        std::hint::black_box(kvfs.unlink_in(dir, &names[i]).is_ok());
    });
    p.metric("kvfs.fs.unlink_us", v);
    // The directory holds its 256 files plus `data`.
    let v = p.price("kvfs.fs.readdir", Class::Readdir, SAMPLES / 4, 1, |_| {
        std::hint::black_box(kvfs.readdir(dir).map(|d| d.len()).unwrap_or(0));
    });
    p.metric("kvfs.fs.readdir_256_us", v);
}

fn cache_prices(p: &mut Probes, world: &World) {
    let seed = world.seed;
    let page = noise(seed, PAGE_SIZE);
    let mut buf = vec![0u8; PAGE_SIZE];
    let cfg = world.dpc.config().clone();
    let resident = (cfg.cache_pages / 2) as u64;
    let mut rng = Rng::derive(seed, 93, 0);
    let order: Vec<u64> = (0..SAMPLES * 16).map(|_| rng.below(resident)).collect();

    // Host data plane: zero-copy hit, then absorb (overwrite in place).
    let cache = cache_like(world);
    let mut control = ControlPlane::new(cache.clone(), DmaEngine::new());
    control.max_extent_pages = cfg.flush_extent_pages.max(1);
    for lpn in 0..resident {
        control.insert_clean(1, lpn, &page);
    }
    let v = p.price(
        "cache.host.lookup_read_ref",
        Class::Read,
        SAMPLES,
        16,
        |i| {
            if let Some(r) = cache.lookup_read_ref(1, order[i]) {
                r.read(0, &mut buf);
                std::hint::black_box(r.finish());
            }
        },
    );
    p.metric("cache.host.hit_us", v);
    let v = p.price("cache.host.begin_write", Class::Write, SAMPLES, 16, |i| {
        if let Ok(mut g) = cache.begin_write(1, order[i]) {
            g.write(0, &page);
            g.commit_dirty();
        }
    });
    p.metric("cache.host.absorb_us", v);
    let absorb = v;

    // Control plane: flush what was just absorbed into a null backend,
    // 128 dirty pages (one fsync of this benchmark) at a time.
    let mut dirty_runs = 0usize;
    let mut flushed = 0usize;
    let v = p.price("cache.control.flush_extents", Class::Fsync, 64, 1, |i| {
        for k in 0..128 {
            let lpn = order[(i * 128 + k) % order.len()];
            if let Ok(mut g) = cache.begin_write(1, lpn) {
                g.write(0, &page);
                g.commit_dirty();
            }
        }
        dirty_runs += 1;
        let mut null = |_: u64, _: u64, _: &[u8]| {};
        flushed += control.flush_extents(&mut null, Some(1), false);
    });
    // The absorbs above are inside the timed span; take their price out.
    let pages = (flushed as f64 / dirty_runs.max(1) as f64).max(1.0);
    p.metric(
        "cache.control.flush_us_per_page",
        ((v - 128.0 * absorb) / pages).max(0.0),
    );

    // Control plane: a sequential 16-page window filled from a backend
    // that hands back a ready page (the fill's own cost, not the store's).
    let fill_cache = cache_like(world);
    let mut fill_control = ControlPlane::new(fill_cache, DmaEngine::new());
    let windows = (cfg.cache_pages / 2 / 16).min(SAMPLES);
    let mut inserted = 0usize;
    let v = p.price("cache.control.fill_window", Class::Read, windows, 1, |i| {
        let job = PrefetchJob {
            ino: 1,
            window: RaWindow {
                start: (i * 16) as u64,
                pages: 16,
                stride: 1,
                marker: None,
            },
        };
        let mut backend = |_: u64, _: u64, out: &mut [u8]| {
            out.copy_from_slice(&page);
            Some(PAGE_SIZE)
        };
        inserted += fill_control.fill_window(&job, &mut backend, 0);
    });
    p.metric(
        "cache.control.fill_us_per_page",
        v * windows as f64 / inserted.max(1) as f64,
    );

    // Readahead planning: one sequential stream, one random stream.
    let table = ReadaheadTable::new(RaConfig {
        initial_window: cfg.ra_initial_window.max(1),
        max_window: cfg.ra_max_window.max(cfg.ra_initial_window.max(1)),
        trigger: 2,
    });
    let v = p.price("cache.readahead.on_read", Class::Read, SAMPLES, 16, |i| {
        let (ino, lpn) = if i % 2 == 0 {
            (1, (i as u64 / 2) * PAGES_PER_BLOCK)
        } else {
            (2, order[i] * PAGES_PER_BLOCK)
        };
        std::hint::black_box(table.on_read(ino, lpn, PAGES_PER_BLOCK as u32));
    });
    p.metric("cache.readahead.on_read_us", v);

    // Intent log: append one page, retire it at once so the ring never fills.
    let dma = DmaEngine::new();
    let log = IntentLog::create(
        HostRegion::new(WAL_HEADER + cfg.wal_bytes.max(4096)),
        dma,
        None,
        1,
    );
    let v = p.price("cache.wal.try_append", Class::Write, SAMPLES, 4, |i| {
        if let Ok(seq) = log.try_append(WalKind::Write, 1, order[i] * PAGE_SIZE as u64, &page, 1) {
            log.retire_all(seq);
        }
    });
    p.metric("cache.wal.append_us", v);

    // Host metadata cache: attr hit.
    let meta = MetaCache::new(MetaConfig {
        shards: cfg.meta_cache_shards,
        attr_ttl: cfg.meta_cache_ttl,
        negative: cfg.meta_neg_cache,
    });
    for ino in 0..resident {
        meta.insert_attr(MetaAttr {
            ino,
            ..MetaAttr::default()
        });
    }
    let v = p.price("cache.meta.get_attr", Class::Stat, SAMPLES, 16, |i| {
        std::hint::black_box(meta.get_attr(order[i]));
    });
    p.metric("cache.meta.get_attr_us", v);
}

/// The link on its own: a `ChannelPool` against a `FileTarget` served by
/// an echo loop here (no dispatcher behind it), then the live instance's
/// wake-up cost after a pause.
fn link_prices(p: &mut Probes, world: &World) {
    let cfg = world.dpc.config();
    let dma = DmaEngine::new();
    let (channels, mut targets) = create_fabric(
        1,
        QueuePairConfig {
            depth: cfg.queue_depth,
            // Room for the 8 KiB echo, not the instance's 1 MiB slots.
            max_io_bytes: 64 * 1024,
        },
        &dma,
    );
    let pool = ChannelPool::new(channels);
    let mut target = targets.pop().expect("one target");
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let stop = stop.clone();
        std::thread::Builder::new()
            .name("e2e-echo".into())
            .spawn(move || {
                let payload = vec![0xA5u8; BLOCK];
                let mut batch = FileIncomingBatch::new();
                while !stop.load(Ordering::Acquire) {
                    if target.poll_many(&mut batch) == 0 {
                        // It shares the generator's core: hand it back.
                        std::thread::yield_now();
                        continue;
                    }
                    for inc in batch.iter() {
                        let n = (inc.read_len as usize).min(BLOCK);
                        let resp = if n > 0 {
                            FileResponse::Bytes(n as u32)
                        } else {
                            FileResponse::Ok
                        };
                        target.reply(inc.slot, &resp, &payload[..n]);
                    }
                }
            })
            .expect("spawn echo thread")
    };
    let empty = FileRequest::GetAttr { ino: 0 };
    let read = FileRequest::Read {
        ino: 0,
        offset: 0,
        len: BLOCK as u32,
    };
    let v = p.price("nvmefs.pool.call", Class::Stat, SAMPLES, 1, |_| {
        std::hint::black_box(pool.call(DispatchType::Standalone, &empty, b"", 0).is_ok());
    });
    p.metric("nvmefs.pool.rtt_us", v);
    let v = p.price("nvmefs.pool.call_8k", Class::Read, SAMPLES, 1, |_| {
        std::hint::black_box(
            pool.call(DispatchType::Standalone, &read, b"", BLOCK as u32)
                .is_ok(),
        );
    });
    p.metric("nvmefs.pool.rtt_8k_us", v);
    stop.store(true, Ordering::Release);
    echo.join().expect("echo thread panicked");

    // One 8 KiB DMA, host memory to device buffer.
    let region = HostRegion::new(BLOCK);
    let mut buf = vec![0u8; BLOCK];
    let v = p.price("pcie.dma_read", Class::Read, SAMPLES, 4, |_| {
        dma.dma_read(&region, 0, &mut buf);
    });
    p.metric("pcie.dma_8k_us", v);

    // The live runtime after 1 ms of silence: its service thread has
    // backed off to naps, and the first call pays the wake-up.
    let live = world.fs.pool().clone();
    let mut ns: Vec<u32> = Vec::new();
    for i in 0..200u32 {
        std::thread::sleep(Duration::from_millis(1));
        let start = p.spans.now_ns();
        let ok = live.call(DispatchType::Standalone, &empty, b"", 0).is_ok();
        let end = p.spans.now_ns();
        std::hint::black_box(ok);
        p.spans
            .probe("nvmefs.pool.call_after_idle", Class::Stat, i, start, end);
        ns.push((end - start).min(u32::MAX as u64) as u32);
    }
    p.metric("nvmefs.pool.rtt_after_idle_us", stats::p50_us(&mut ns));
}

fn dfs_prices(p: &mut Probes, seed: u64) {
    let backend = DfsBackend::new(DfsConfig::default());
    let mut client = ClientCore::new(backend.clone(), u64::MAX);
    let block = noise(seed, BLOCK);
    let Ok((attr, _)) = client.create(0, "__probe") else {
        return;
    };
    let blocks = 1024u64;
    for b in 0..blocks {
        let _ = client.write_block(attr.ino, b, &block);
    }
    let _ = client.sync_meta();
    let mut rng = Rng::derive(seed, 94, 0);
    let order: Vec<u64> = (0..SAMPLES).map(|_| rng.below(blocks)).collect();
    let v = p.price("dfs.client.read_block", Class::DfsRead, SAMPLES, 1, |i| {
        std::hint::black_box(client.read_block(attr.ino, order[i]).is_ok());
    });
    p.metric("dfs.client.read_block_us", v);
    let v = p.price("dfs.client.write_block", Class::DfsWrite, SAMPLES, 1, |i| {
        std::hint::black_box(client.write_block(attr.ino, order[i], &block).is_ok());
    });
    p.metric("dfs.client.write_block_us", v);
    let rs = ReedSolomon::new(DfsConfig::default().ec_k, DfsConfig::default().ec_m);
    let v = p.price("ec.rs.encode_buffer", Class::DfsWrite, SAMPLES, 1, |_| {
        std::hint::black_box(rs.encode_buffer(&block).is_ok());
    });
    p.metric("ec.encode_8k_us", v);
}

// ---- replay -----------------------------------------------------------

/// One request the adapter sends. `created` marks a request whose inode
/// is the one the replay's last `Create` returned (known only at run time).
struct Req {
    dispatch: DispatchType,
    request: FileRequest,
    created: bool,
}

impl Req {
    fn kvfs(request: FileRequest) -> Req {
        Req {
            dispatch: DispatchType::Standalone,
            request,
            created: false,
        }
    }

    fn dfs(request: FileRequest) -> Req {
        Req {
            dispatch: DispatchType::Distributed,
            request,
            created: false,
        }
    }

    /// The request as sent, with the created inode filled in.
    fn resolved(&self, created: u64) -> FileRequest {
        match (&self.request, self.created) {
            (FileRequest::GetAttr { .. }, true) => FileRequest::GetAttr { ino: created },
            (FileRequest::Fsync { .. }, true) => FileRequest::Fsync { ino: created },
            (FileRequest::Truncate { size, .. }, true) => FileRequest::Truncate {
                ino: created,
                size: *size,
            },
            (r, _) => r.clone(),
        }
    }
}

/// Names the replay needs, resolved once through `Kvfs`.
struct Names {
    data_ino: u64,
    data_size: u64,
    dfs_ino: u64,
}

/// The requests `DpcFs` sends for `op` with `DpcConfig::default()`: no
/// host metadata cache, so every path component costs a `Lookup` and a
/// `GetAttr`; `close` is an fsync (`Fsync` + `Truncate`); buffered writes
/// send nothing until the fsync. A read is priced as one request for its
/// whole range (what a full miss costs); the share of reads that cross at
/// all comes from the measured `requests_per_op`, not from here.
fn requests_for(op: &Op, stream: &Stream, kvfs: &Kvfs, names: &Names, out: &mut Vec<Req>) {
    let component = |out: &mut Vec<Req>, parent: u64, name: &str| -> u64 {
        let ino = kvfs.lookup(parent, name).unwrap_or(0);
        out.push(Req::kvfs(FileRequest::Lookup {
            parent,
            name: name.to_string(),
        }));
        out.push(Req::kvfs(FileRequest::GetAttr { ino }));
        ino
    };
    let close = |out: &mut Vec<Req>, ino: u64, size: u64, created: bool| {
        for request in [
            FileRequest::Fsync { ino },
            FileRequest::Truncate { ino, size },
        ] {
            out.push(Req {
                created,
                ..Req::kvfs(request)
            });
        }
    };
    let split = |path: &str| -> (String, String) {
        let mut it = path.trim_start_matches('/').splitn(2, '/');
        let d = it.next().unwrap_or("").to_string();
        (d, it.next().unwrap_or("").to_string())
    };
    let dfs_block = |block: u32| (block as u64 * BLOCK as u64, BLOCK as u32);
    match *op {
        Op::Read { block, blocks } => out.push(Req::kvfs(FileRequest::Read {
            ino: names.data_ino,
            offset: block as u64 * BLOCK as u64,
            len: blocks as u32 * BLOCK as u32,
        })),
        Op::Write { .. } => {}
        Op::Fsync => close(out, names.data_ino, names.data_size, false),
        Op::Stat { dir, file } | Op::OpenClose { dir, file } => {
            let d = component(out, 0, &format!("d{dir:02}"));
            let f = component(out, d, &format!("f{file:03}"));
            out.push(Req::kvfs(FileRequest::GetAttr { ino: f }));
            if matches!(op, Op::OpenClose { .. }) {
                close(out, f, 0, false);
            }
        }
        Op::Readdir { dir } => {
            let d = component(out, 0, &format!("d{dir:02}"));
            out.push(Req::kvfs(FileRequest::Readdir { ino: d }));
        }
        Op::CreateClose { name } => {
            let (dname, fname) = split(&stream.new_paths[name as usize]);
            let parent = component(out, 0, &dname);
            out.push(Req::kvfs(FileRequest::Create {
                parent,
                name: fname,
                mode: 0o644,
            }));
            close(out, 0, 0, true);
        }
        Op::Unlink { name } => {
            let (dname, fname) = split(&stream.new_paths[name as usize]);
            let parent = component(out, 0, &dname);
            out.push(Req::kvfs(FileRequest::Lookup {
                parent,
                name: fname.clone(),
            }));
            out.push(Req::kvfs(FileRequest::Unlink {
                parent,
                name: fname,
            }));
        }
        Op::DfsRead { block } => {
            let (offset, len) = dfs_block(block);
            out.push(Req::dfs(FileRequest::Read {
                ino: names.dfs_ino,
                offset,
                len,
            }));
        }
        Op::DfsWrite { block } => {
            let (offset, len) = dfs_block(block);
            out.push(Req::dfs(FileRequest::Write {
                ino: names.dfs_ino,
                offset,
                len,
            }));
        }
        Op::DfsGetattr => out.push(Req::dfs(FileRequest::GetAttr { ino: names.dfs_ino })),
    }
}

fn kv_ops(s: &KvStats) -> [u64; 6] {
    [
        s.gets,
        s.puts,
        s.deletes,
        s.scans,
        s.sub_reads,
        s.sub_writes,
    ]
}

/// Runs of adjacent pages in `lpns`, as `(first, pages)`.
fn runs(lpns: &[u64]) -> Vec<(u64, usize)> {
    let mut sorted = lpns.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut out: Vec<(u64, usize)> = Vec::new();
    for lpn in sorted {
        match out.last_mut() {
            Some((first, pages)) if *first + *pages as u64 == lpn => *pages += 1,
            _ => out.push((lpn, 1)),
        }
    }
    out
}

/// What the dispatcher asks of the layer below for `request`, asked
/// directly. Returns the span name. Creates and unlinks use a sibling name
/// (`<name>x`) so they do not collide with the dispatcher pass's own.
fn ask_below(
    dispatch: DispatchType,
    request: &FileRequest,
    kvfs: &Kvfs,
    dfs: &mut Option<ClientCore>,
    flush: Option<(&[u64], &[u8])>,
    buf: &mut [u8],
    created: &mut u64,
) -> &'static str {
    use std::hint::black_box;
    if dispatch == DispatchType::Distributed {
        let Some(c) = dfs.as_mut() else {
            return "dfs.client.none";
        };
        return match request {
            FileRequest::Read { ino, offset, .. } => {
                black_box(c.read_block(*ino, offset / BLOCK as u64).is_ok());
                "dfs.client.read_block"
            }
            FileRequest::Write { ino, offset, len } => {
                let block = &buf[..*len as usize];
                black_box(c.write_block(*ino, offset / BLOCK as u64, block).is_ok());
                "dfs.client.write_block"
            }
            FileRequest::GetAttr { ino } => {
                black_box(c.getattr(*ino).is_ok());
                "dfs.client.getattr"
            }
            _ => "dfs.client.none",
        };
    }
    match request {
        FileRequest::Lookup { parent, name } => {
            black_box(kvfs.lookup(*parent, name).is_ok());
            "kvfs.fs.lookup"
        }
        FileRequest::GetAttr { ino } => {
            black_box(kvfs.get_attr(*ino).is_ok());
            "kvfs.fs.get_attr"
        }
        FileRequest::Create { parent, name, mode } => {
            *created = kvfs
                .create_in(*parent, &format!("{name}x"), *mode)
                .unwrap_or(0);
            "kvfs.fs.create_in"
        }
        FileRequest::Unlink { parent, name } => {
            black_box(kvfs.unlink_in(*parent, &format!("{name}x")).is_ok());
            "kvfs.fs.unlink_in"
        }
        FileRequest::Readdir { ino } => {
            black_box(kvfs.readdir(*ino).map(|d| d.len()).unwrap_or(0));
            "kvfs.fs.readdir"
        }
        FileRequest::Read { ino, offset, len } => {
            // As the dispatcher does: a page-aligned spanning read is one
            // vectored extent read. `buf` holds the largest op (128 KiB).
            let n = (*len as usize).min(buf.len());
            if n > PAGE_SIZE {
                let mut segs: Vec<&mut [u8]> = buf[..n].chunks_mut(PAGE_SIZE).collect();
                black_box(kvfs.read_extent(*ino, *offset, &mut segs).is_ok());
            } else {
                black_box(kvfs.read(*ino, *offset, &mut buf[..n]).is_ok());
            }
            "kvfs.fs.read_extent"
        }
        FileRequest::Fsync { ino } => {
            if let Some((lpns, page)) = flush {
                for (first, pages) in runs(lpns) {
                    let segs: Vec<&[u8]> = (0..pages).map(|_| page).collect();
                    let off = first * PAGE_SIZE as u64;
                    black_box(kvfs.write_extent(*ino, off, &segs).is_ok());
                }
            }
            black_box(kvfs.fsync(*ino).is_ok());
            "kvfs.fs.write_extent"
        }
        FileRequest::Truncate { ino, size } => {
            black_box(kvfs.truncate(*ino, *size).is_ok());
            "kvfs.fs.truncate"
        }
        _ => "kvfs.fs.none",
    }
}

fn replay(p: &mut Probes, world: &World, stream: &Stream) {
    let cfg = world.dpc.config();
    let store = world.dpc.kv_store();
    let kvfs = Arc::new(Kvfs::open(store.clone()).expect("the world's store holds a KVFS root"));
    let backend = world.dpc.dfs_backend().cloned();
    let client = |id: u64| backend.as_ref().map(|b| ClientCore::new(b.clone(), id));
    let mut direct_dfs = client(u64::MAX - 1);
    let data_ino = kvfs.resolve(DATA_PATH).unwrap_or(0);
    let names = Names {
        data_ino,
        data_size: kvfs.get_attr(data_ino).map(|a| a.size).unwrap_or(0),
        dfs_ino: direct_dfs
            .as_mut()
            .and_then(|c| c.lookup(0, crate::workload::DFS_NAME).ok())
            .map_or(0, |(ino, _)| ino),
    };

    let cache = cache_like(world);
    let dma = DmaEngine::new();
    let control = |dma: DmaEngine| {
        let mut c = ControlPlane::new(cache.clone(), dma);
        c.max_extent_pages = cfg.flush_extent_pages.max(1);
        c
    };
    let mut dispatcher = Dispatcher::new(kvfs.clone(), control(dma.clone()), client(u64::MAX - 2));
    dispatcher.coalesce = cfg.coalesce_flush;
    // A second control plane over the same cache prices the flush alone.
    let mut null_control = control(dma);

    let block = noise(world.seed, BLOCK);
    let page = &block[..PAGE_SIZE];
    let mut payload = Vec::new();
    let mut buf = block.repeat(16);
    let mut reqs: Vec<Req> = Vec::new();
    let mut pending: Vec<u64> = Vec::new(); // lpns written since the last fsync

    let (mut requests, mut handle_ns, mut below_ns, mut kvfs_ns, mut control_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut reads, mut fsync_pages, mut metas) = (Vec::new(), Vec::new(), Vec::new());
    let mut kv_below = [0u64; 6];

    let absorb = |lpns: &[u64]| {
        for &lpn in lpns {
            if let Ok(mut g) = cache.begin_write(data_ino, lpn) {
                g.write(0, page);
                g.commit_dirty();
            }
        }
    };

    for (i, op) in stream.ops.iter().enumerate() {
        let parent = op.class();
        if let Op::Write { block: b } = *op {
            let lpn = b as u64 * PAGES_PER_BLOCK;
            pending.extend(lpn..lpn + PAGES_PER_BLOCK);
            continue;
        }
        reqs.clear();
        requests_for(op, stream, &kvfs, &names, &mut reqs);
        let mut created = (0u64, 0u64); // (dispatcher pass, direct pass)
        for req in &reqs {
            let flushes = matches!(req.request, FileRequest::Fsync { ino } if ino == data_ino)
                && !req.created
                && !pending.is_empty();

            // -- pass 1: the dispatcher, called inline.
            if flushes {
                absorb(&pending);
            }
            let request = req.resolved(created.0);
            let inc = FileIncoming {
                dispatch: req.dispatch,
                read_len: match &request {
                    FileRequest::Read { len, .. } => *len,
                    FileRequest::Readdir { .. } => 512 * 1024,
                    _ => 0,
                },
                payload: match &request {
                    FileRequest::Write { .. } => block.clone(),
                    _ => Vec::new(),
                },
                request,
                ..FileIncoming::default()
            };
            let start = p.spans.now_ns();
            let resp = dispatcher.handle_into(&inc, &mut payload);
            let end = p.spans.now_ns();
            p.spans
                .probe("core.dispatch.handle_into", parent, i as u32, start, end);
            if let (FileResponse::Ino(ino), FileRequest::Create { .. }) = (resp, &inc.request) {
                created.0 = ino;
            }
            requests += 1;
            handle_ns += end - start;
            let ns = (end - start).min(u32::MAX as u64) as u32;
            match (&inc.request, req.dispatch) {
                (_, DispatchType::Distributed) => {}
                (FileRequest::Read { .. }, _) => reads.push(ns),
                (FileRequest::Fsync { .. }, _) if flushes => {
                    fsync_pages.push(ns / pending.len() as u32)
                }
                (FileRequest::Fsync { .. } | FileRequest::Truncate { .. }, _) => {}
                _ => metas.push(ns),
            }

            // -- pass 2: the flush alone, into a null backend.
            if flushes {
                absorb(&pending);
                let mut null = |_: u64, _: u64, _: &[u8]| {};
                let start = p.spans.now_ns();
                null_control.flush_extents(&mut null, Some(data_ino), false);
                let end = p.spans.now_ns();
                p.spans
                    .probe("cache.control.flush_extents", parent, i as u32, start, end);
                control_ns += end - start;
            }

            // -- pass 3: what the dispatcher asks of the layer below.
            let request = req.resolved(created.1);
            let kv0 = kv_ops(&store.stats());
            let start = p.spans.now_ns();
            let span = ask_below(
                req.dispatch,
                &request,
                &kvfs,
                &mut direct_dfs,
                flushes.then_some((&pending[..], page)),
                &mut buf,
                &mut created.1,
            );
            let end = p.spans.now_ns();
            p.spans.probe(span, parent, i as u32, start, end);
            below_ns += end - start;
            if req.dispatch == DispatchType::Standalone {
                kvfs_ns += end - start;
            }
            for (sum, (a, b)) in kv_below
                .iter_mut()
                .zip(kv_ops(&store.stats()).iter().zip(kv0))
            {
                *sum += a - b;
            }
            if flushes {
                pending.clear();
            }
        }
    }

    // One direct write through the dispatcher (the write-through path);
    // only meaningful where a KVFS data file exists.
    if data_ino != 0 {
        let v = p.price(
            "core.dispatch.handle_into",
            Class::Write,
            SAMPLES / 4,
            1,
            |i| {
                let inc = FileIncoming {
                    request: FileRequest::Write {
                        ino: data_ino,
                        offset: (i as u64 % 512) * BLOCK as u64,
                        len: BLOCK as u32,
                    },
                    payload: block.clone(),
                    ..FileIncoming::default()
                };
                std::hint::black_box(dispatcher.handle_into(&inc, &mut payload));
            },
        );
        p.metric("core.dispatch.handle_write_us", v);
    }
    p.metric("core.dispatch.handle_read_us", stats::p50_us(&mut reads));
    p.metric(
        "core.dispatch.handle_fsync_us_per_page",
        stats::p50_us(&mut fsync_pages),
    );
    p.metric("core.dispatch.handle_meta_us", stats::p50_us(&mut metas));

    // KV time inside the direct pass: op counts x this run's prices
    // (deletes priced as puts, every scan as a 256-entry scan).
    let price = |name: &str| p.out.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let kv_us = kv_below[0] as f64 * price("kvstore.store.get_us")
        + (kv_below[1] + kv_below[2]) as f64 * price("kvstore.store.put_us")
        + kv_below[3] as f64 * price("kvstore.store.scan_256_us")
        + kv_below[4] as f64 * price("kvstore.store.read_sub_8k_us")
        + kv_below[5] as f64 * price("kvstore.store.write_sub_8k_us");
    let per_request = |ns: u64| ns as f64 / 1e3 / requests.max(1) as f64;
    p.metric("replay.handle_us_per_request", per_request(handle_ns));
    p.metric("replay.below_us_per_request", per_request(below_ns));
    p.metric("replay.control_us_per_request", per_request(control_ns));
    p.metric("replay.kvfs_us_per_request", per_request(kvfs_ns));
    p.metric("replay.kv_us_per_request", kv_us / requests.max(1) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_pages_form_runs() {
        assert_eq!(runs(&[]), vec![]);
        assert_eq!(runs(&[5, 4, 9, 4, 6, 10]), vec![(4, 3), (9, 2)]);
    }

    #[test]
    fn created_inode_is_filled_in_at_run_time() {
        let fixed = Req::kvfs(FileRequest::Fsync { ino: 3 });
        assert_eq!(fixed.resolved(9), FileRequest::Fsync { ino: 3 });
        let late = Req {
            created: true,
            ..Req::kvfs(FileRequest::Truncate { ino: 0, size: 7 })
        };
        assert_eq!(late.resolved(9), FileRequest::Truncate { ino: 9, size: 7 });
    }

    #[test]
    fn noise_is_seeded() {
        assert_eq!(noise(3, 64), noise(3, 64));
        assert_ne!(noise(3, 64), noise(4, 64));
    }
}

//! Criterion micro-benchmarks of the hot functional paths: GF(256)
//! Reed–Solomon encoding (the work the client offloads), nvme-fs SQE
//! encode/decode and full queue round trips vs virtio-fs chain walks,
//! hybrid-cache data-plane ops, and KVFS/KV-store operations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::sync::Arc;

use dpc_cache::{CacheConfig, HybridCache, PAGE_SIZE};
use dpc_codec::crc32c;
use dpc_ec::{gf256, ReedSolomon};
use dpc_kvfs::Kvfs;
use dpc_kvstore::KvStore;
use dpc_nvmefs::{
    create_fabric, ChannelPool, DispatchType, FileIncomingBatch, FileRequest, FileResponse,
    Payload, QueuePairConfig, Sides, Sqe, Ticket,
};
use dpc_pcie::DmaEngine;
use dpc_virtiofs::{create_device, VirtioFsConfig};

fn bench_ec(c: &mut Criterion) {
    let mut g = c.benchmark_group("ec");
    let rs = ReedSolomon::new(4, 2);
    let mut shards = vec![vec![0xA5u8; 8192 / 4]; 6];
    g.throughput(Throughput::Bytes(8192));
    g.bench_function("rs_4p2_encode_8k", |b| {
        b.iter(|| rs.encode(&mut shards).unwrap())
    });
    // What `ClientCore::write_block` runs: split an 8 KiB block into
    // recycled stripe buffers, then encode.
    let block: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
    let mut recycled = Vec::new();
    g.bench_function("rs_encode_8k", |b| {
        b.iter(|| rs.encode_buffer_into(&block, &mut recycled).unwrap())
    });
    // One (coefficient, data shard) pass of that encode.
    let mut acc = vec![0u8; 2048];
    g.throughput(Throughput::Bytes(2048));
    g.bench_function("gf_mul_acc_2k", |b| {
        b.iter(|| gf256::mul_acc_slice(0x8E, &block[..2048], &mut acc))
    });
    g.throughput(Throughput::Bytes(8192));
    let encoded: Vec<Vec<u8>> = {
        let mut s = vec![vec![0xA5u8; 8192 / 4]; 6];
        rs.encode(&mut s).unwrap();
        s
    };
    g.bench_function("rs_4p2_reconstruct_two_8k", |b| {
        b.iter_batched(
            || {
                let mut d: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
                d[0] = None;
                d[4] = None;
                d
            },
            |mut d| rs.reconstruct(&mut d).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol");
    g.bench_function("sqe_encode_decode", |b| {
        b.iter(|| {
            let mut s = Sqe::new();
            s.set_cid(7)
                .set_prp_write(0x1000, 0)
                .set_prp_read(0x2000, 0)
                .set_write_len(8192)
                .set_read_len(0)
                .set_wh_len(24)
                .set_rh_len(64);
            Sqe::from_bytes(&s.to_bytes())
        })
    });

    // One 8 KiB `Write` staged on the pool, served by the file target,
    // its reply waited — both ends on this thread.
    let cfg = QueuePairConfig {
        depth: 16,
        max_io_bytes: 16 * 1024,
    };
    let (chans, mut tgts) = create_fabric(1, cfg, &DmaEngine::new());
    let (pool, mut tgt) = (ChannelPool::new(chans), tgts.pop().unwrap());
    let payload = vec![0x42u8; 8192];
    let req = FileRequest::Write {
        ino: 1,
        offset: 0,
        len: 8192,
    };
    let sides = Sides {
        dispatch: DispatchType::Standalone,
        write: Payload::Flat(&payload),
        read_len: 0,
    };
    let mut inb = FileIncomingBatch::new();
    g.throughput(Throughput::Bytes(8192));
    g.bench_function("nvmefs_8k_write_roundtrip", |b| {
        b.iter(|| {
            let mut ticket = [Ticket::default()];
            pool.stage(0, &sides, std::slice::from_ref(&req), &mut ticket);
            tgt.poll_many(&mut inb);
            tgt.reply(inb.as_slice()[0].slot, &FileResponse::Bytes(8192), b"");
            pool.wait(ticket[0], &sides, &req, |resp, _| resp).unwrap()
        })
    });

    let dma2 = DmaEngine::new();
    let (mut front, mut hal) = create_device(VirtioFsConfig::default(), &dma2);
    g.bench_function("virtiofs_8k_write_roundtrip", |b| {
        b.iter(|| {
            front.submit_write(1, 0, &payload).unwrap();
            let inc = hal.poll().unwrap();
            hal.complete(&inc, 0, &[]);
            front.poll().unwrap()
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("hybrid_cache");
    let cache = Arc::new(HybridCache::new(CacheConfig {
        pages: 4096,
        bucket_entries: 8,
        mode: 1,
        meta_lockfree: true,
    }));
    let page = vec![0x5Au8; PAGE_SIZE];
    g.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    g.bench_function("front_end_write_4k", |b| {
        let mut lpn = 0u64;
        b.iter(|| {
            let mut guard = cache.begin_write(1, lpn % 2048).unwrap();
            guard.write(0, &page);
            guard.commit_dirty();
            lpn += 1;
        })
    });
    // Prime for hits.
    for lpn in 0..1024u64 {
        let mut gd = cache.begin_write(2, lpn).unwrap();
        gd.write(0, &page);
        gd.commit_dirty();
    }
    let mut out = vec![0u8; PAGE_SIZE];
    g.bench_function("lookup_read_hit_4k", |b| {
        let mut lpn = 0u64;
        b.iter(|| {
            assert!(cache.lookup_read(2, lpn % 1024, &mut out));
            lpn += 1;
        })
    });
    g.finish();
}

fn bench_kv(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvfs");
    let kv = Arc::new(KvStore::new());
    let value = vec![1u8; 8192];
    g.bench_function("kvstore_put_get_8k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let key = i.to_be_bytes();
            kv.put(&key, &value);
            let got = kv.get(&key).unwrap();
            i = i.wrapping_add(1);
            got
        })
    });

    let fs = Kvfs::new(Arc::new(KvStore::new()));
    let ino = fs.create("/bench.bin", 0o644).unwrap();
    fs.write(ino, 0, &vec![0u8; 1 << 20]).unwrap();
    g.throughput(Throughput::Bytes(8192));
    g.bench_function("kvfs_big_file_8k_overwrite", |b| {
        let mut block = 0u64;
        b.iter(|| {
            fs.write(ino, (block % 128) * 8192, &value).unwrap();
            block += 1;
        })
    });
    let mut buf = vec![0u8; 8192];
    g.bench_function("kvfs_big_file_8k_read", |b| {
        let mut block = 0u64;
        b.iter(|| {
            fs.read(ino, (block % 128) * 8192, &mut buf).unwrap();
            block += 1;
        })
    });
    fs.mkdir("/a", 0o755).unwrap();
    fs.mkdir("/a/b", 0o755).unwrap();
    fs.create("/a/b/leaf", 0o644).unwrap();
    g.bench_function("kvfs_path_resolution_cached", |b| {
        b.iter(|| fs.resolve("/a/b/leaf").unwrap())
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    println!("crc32c tier: {}", dpc_codec::crc32c_tier().name());
    let mut g = c.benchmark_group("codec");
    let page: Vec<u8> = (0..PAGE_SIZE).map(|i| ((i / 16) % 251) as u8).collect();
    g.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    g.bench_function("crc32c_4k", |b| b.iter(|| crc32c(&page)));
    let block = [page.as_slice(), page.as_slice()].concat();
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("crc32c_8k", |b| b.iter(|| crc32c(&block)));
    // The same 8 KiB, but a different cell each call, rotating over 64 MiB
    // (past the private caches): what a data server pays for a cell that
    // arrived from the network rather than one it just checksummed.
    let cells = vec![0xC3u8; 64 << 20];
    let mut cold = cells.chunks_exact(block.len()).cycle();
    g.bench_function("crc32c_8k_cold", |b| {
        b.iter(|| crc32c(cold.next().unwrap()))
    });
    g.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ec, bench_protocol, bench_cache, bench_kv, bench_codec
}
criterion_main!(micro);

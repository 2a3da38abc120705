//! Sustained full-stack stress: four host threads hammer one DPC instance
//! (mixed buffered/direct I/O, metadata churn, fsyncs, truncates, links)
//! with a fifth adapter's scoped `fsync` loop racing them, then everything
//! is verified against a per-thread model: through the adapter, and once
//! every descriptor is closed, in the store itself.

use std::collections::HashMap;

use dpc::core::{Dpc, DpcConfig, DpcError};
use dpc_testkit::racing_fsync;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn sustained_mixed_stress() {
    let dpc = std::sync::Arc::new(Dpc::new(DpcConfig {
        queues: 4,
        cache_pages: 512, // small: force eviction traffic
        cache_bucket_entries: 8,
        ..DpcConfig::default()
    }));

    let dirs = ["/t0", "/t1", "/t2", "/t3"];
    for dir in dirs {
        dpc.fs().mkdir(dir).unwrap();
    }
    racing_fsync(&dpc, &dirs, || {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let dpc = dpc.clone();
                s.spawn(move || {
                    let fs = dpc.fs();
                    let dir = format!("/t{t}");
                    let mut rng = SmallRng::seed_from_u64(t);
                    // Per-file reference model: name -> content.
                    let mut model: HashMap<String, Vec<u8>> = HashMap::new();
                    // Every descriptor opened, held until the end.
                    let mut fds = Vec::new();

                    for round in 0..120u32 {
                        let roll = rng.gen_range(0..100);
                        if roll < 35 || model.is_empty() {
                            // Create + write.
                            let name = format!("{dir}/f{round}");
                            let fd = fs.create(&name).unwrap();
                            fds.push(fd);
                            let len = rng.gen_range(1..20_000);
                            let fill = (round % 251) as u8;
                            fs.write(fd, 0, &vec![fill; len]).unwrap();
                            if rng.gen_bool(0.5) {
                                fs.fsync(fd).unwrap();
                            }
                            model.insert(name, vec![fill; len]);
                        } else if roll < 60 {
                            // Overwrite a random range of a random file.
                            let name = model
                                .keys()
                                .nth(rng.gen_range(0..model.len()))
                                .unwrap()
                                .clone();
                            let content = model.get_mut(&name).unwrap();
                            if content.is_empty() {
                                continue;
                            }
                            let fd = fs.open(&name).unwrap();
                            fds.push(fd);
                            let off = rng.gen_range(0..content.len());
                            let len = rng.gen_range(1..4096.min(content.len() - off + 1).max(2));
                            let fill = rng.gen();
                            fs.write(fd, off as u64, &vec![fill; len]).unwrap();
                            let end = (off + len).min(content.len());
                            for b in &mut content[off..end] {
                                *b = fill;
                            }
                            if off + len > content.len() {
                                content.resize(off + len, fill);
                            }
                        } else if roll < 80 {
                            // Verify a random file in full.
                            let name = model
                                .keys()
                                .nth(rng.gen_range(0..model.len()))
                                .unwrap()
                                .clone();
                            let want = &model[&name];
                            let fd = fs.open(&name).unwrap();
                            fds.push(fd);
                            let mut got = vec![0u8; want.len() + 8];
                            let n = fs.read(fd, 0, &mut got).unwrap();
                            assert!(n >= want.len(), "{name}: short read {n} < {}", want.len());
                            assert_eq!(&got[..want.len()], &want[..], "{name} content");
                        } else if roll < 90 {
                            // Truncate.
                            let name = model
                                .keys()
                                .nth(rng.gen_range(0..model.len()))
                                .unwrap()
                                .clone();
                            let content = model.get_mut(&name).unwrap();
                            let new_len = rng.gen_range(0..=content.len());
                            let fd = fs.open(&name).unwrap();
                            fds.push(fd);
                            fs.truncate(fd, new_len as u64).unwrap();
                            content.truncate(new_len);
                        } else {
                            // Delete.
                            let name = model
                                .keys()
                                .nth(rng.gen_range(0..model.len()))
                                .unwrap()
                                .clone();
                            fs.unlink(&name).unwrap();
                            model.remove(&name);
                        }
                    }

                    // Final verification after a full sync of every file.
                    for (name, want) in &model {
                        let fd = fs.open(name).unwrap();
                        fds.push(fd);
                        fs.fsync(fd).unwrap();
                        let mut got = vec![0u8; want.len() + 8];
                        let n = fs.read(fd, 0, &mut got).unwrap();
                        assert_eq!(n, want.len(), "{name} final size");
                        assert_eq!(&got[..n], &want[..], "{name} final content");
                    }
                    let listed = fs.readdir(&dir).unwrap();
                    assert_eq!(listed.len(), model.len(), "{dir} listing");
                    // With every descriptor closed, the store holds each
                    // file's bytes and its size, no more: nothing past a
                    // truncate's end was flushed back after its cut.
                    for fd in fds {
                        match fs.close(fd) {
                            Ok(()) | Err(DpcError::NOT_FOUND) => {}
                            Err(e) => panic!("close: {e}"),
                        }
                    }
                    let kvfs = dpc.kvfs_inner();
                    for (name, want) in &model {
                        let ino = kvfs.resolve(name).unwrap();
                        let size = kvfs.get_attr(ino).unwrap().size;
                        assert_eq!(size, want.len() as u64, "{name} stored size");
                        let mut got = vec![0u8; want.len()];
                        assert_eq!(kvfs.read(ino, 0, &mut got).unwrap(), want.len());
                        assert!(got == *want, "{name} stored content");
                    }
                });
            }
        })
    });

    let m = dpc.metrics();
    println!("{m}");
    // Per thread: the mkdir, then 120 rounds of at least one crossing each
    // (a create, an open, an unlink; the rare round that skips an empty
    // file is more than made up by the final open + fsync of every file).
    assert!(m.requests_served > 4 * (1 + 120));
    assert!(m.cache.writes > 100, "buffered path exercised");
    assert!(m.cache.flushes > 0, "flush paths exercised");
}

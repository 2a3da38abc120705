//! The namespace path's crossing budget and semantics (DESIGN.md §4.8).
//!
//! - every path-taking `DpcFs` call is **one** nvme-fs crossing cold,
//!   whatever the path's depth, symlinked directories included; a
//!   mutation is always one; a clean `close` is none, and so is the warm
//!   repeat of a read the host meta cache can answer;
//! - the errnos are typed and the same ones `Kvfs` gives: `ENAMETOOLONG`
//!   before anything is encoded, `ENOTDIR` under a file, `ELOOP` past 8
//!   symlink hops;
//! - unlinking one hard link, or renaming over a file, drops exactly the
//!   host state of an inode that *died*;
//! - `DpcFs` (meta cache at its default budget, and at budget 0 where it
//!   holds nothing) and a bare `Kvfs` driven through the same random
//!   schedule agree on every result, errno and the final tree.

use std::sync::Arc;

use dpc::core::{Dpc, DpcConfig, DpcError, DpcFs};
use dpc::kvfs::{FileKind, FsError, Kvfs, ROOT_INO};
use dpc::kvstore::KvStore;
use dpc_testkit::{cold_read, fill, read_fd, splitmix};
use proptest::prelude::*;

/// A default instance; with `cached` off its meta cache holds nothing
/// (budget 0 — same code path, every call crosses).
fn quiet(cached: bool) -> Dpc {
    let dpc = Dpc::new(DpcConfig::default());
    if !cached {
        dpc.meta_cache().set_budget(0);
    }
    dpc
}

/// Pool calls `f` submits.
fn crossings<T>(dpc: &Dpc, f: impl FnOnce() -> T) -> (u64, T) {
    let before = dpc.pool_stats().submitted;
    let out = f();
    (dpc.pool_stats().submitted - before, out)
}

// ---- the budget -----------------------------------------------------

/// Every path-taking call once, under `dir` (a directory path without a
/// trailing slash, `""` for the root): exactly one crossing for a
/// mutation and for a read asked cold, exactly `warm` for the repeat of a
/// read — 0 where the meta cache holds the whole path, 1 where it holds
/// nothing or `dir` passes a symlink.
fn one_of_each(dpc: &Dpc, fs: &DpcFs, dir: &str, warm: u64) {
    let p = |name: &str| format!("{dir}/{name}");
    let check = |what: &str, n: u64| assert_eq!(n, 1, "{what} under {dir:?}");
    let again = |what: &str, n: u64| assert_eq!(n, warm, "warm {what} under {dir:?}");

    check("mkdir", crossings(dpc, || fs.mkdir(&p("sub")).unwrap()).0);
    let (n, fd) = crossings(dpc, || fs.create(&p("file")).unwrap());
    check("create", n);
    // A created-and-untouched descriptor is clean.
    assert_eq!(crossings(dpc, || fs.close(fd).unwrap()).0, 0, "clean close");
    // The create taught the host the name, not the attributes.
    check("stat", crossings(dpc, || fs.stat(&p("file")).unwrap()).0);
    again("stat", crossings(dpc, || fs.stat(&p("file")).unwrap()).0);
    let (n, fd) = crossings(dpc, || fs.open(&p("file")).unwrap());
    again("open", n);
    assert_eq!(crossings(dpc, || fs.close(fd).unwrap()).0, 0, "clean close");
    let list = || assert_eq!(fs.readdir(dir).unwrap().len(), 2);
    check("readdir", crossings(dpc, list).0);
    again("readdir", crossings(dpc, list).0);
    check(
        "link",
        crossings(dpc, || fs.link(&p("file"), &p("hard")).unwrap()).0,
    );
    check(
        "symlink",
        crossings(dpc, || fs.symlink(&p("soft"), "/nowhere").unwrap()).0,
    );
    let (n, target) = crossings(dpc, || fs.readlink(&p("soft")).unwrap());
    check("readlink", n);
    assert_eq!(target, "/nowhere");
    check(
        "rename",
        crossings(dpc, || fs.rename(&p("hard"), &p("sub/moved")).unwrap()).0,
    );
    for name in ["sub/moved", "soft", "file"] {
        check("unlink", crossings(dpc, || fs.unlink(&p(name)).unwrap()).0);
    }
    check("rmdir", crossings(dpc, || fs.rmdir(&p("sub")).unwrap()).0);
    // Failing calls cost the same one crossing, and the absence is cached.
    check("stat ENOENT", crossings(dpc, || fs.stat(&p("ghost"))).0);
    again("stat ENOENT", crossings(dpc, || fs.stat(&p("ghost"))).0);
}

#[test]
fn every_path_call_is_one_crossing_at_any_depth() {
    // The default configuration: this is the product's path, not a knob's.
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    one_of_each(&dpc, &fs, "", 0);
    for d in ["/a", "/a/b", "/a/b/c"] {
        assert_eq!(crossings(&dpc, || fs.mkdir(d).unwrap()).0, 1);
    }
    one_of_each(&dpc, &fs, "/a/b/c", 0);
    // A symlinked directory mid-path is followed on the DPU: still one,
    // and one every time — the host never walks through a symlink.
    fs.symlink("/a/via", "/a/b").unwrap();
    one_of_each(&dpc, &fs, "/a/via/c", 1);
    fs.symlink("/hop", "/a/via").unwrap();
    one_of_each(&dpc, &fs, "/hop/c", 1);

    // A cache that holds nothing: one crossing per call, warm or cold.
    let dpc = quiet(false);
    let fs = dpc.fs();
    one_of_each(&dpc, &fs, "", 1);
    for d in ["/a", "/a/b", "/a/b/c"] {
        assert_eq!(crossings(&dpc, || fs.mkdir(d).unwrap()).0, 1);
    }
    one_of_each(&dpc, &fs, "/a/b/c", 1);
    assert_eq!(dpc.metrics().meta.bytes, 0);
}

#[test]
fn close_crosses_exactly_when_something_was_written() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &[7u8; 10_000]).unwrap();
    assert_eq!(crossings(&dpc, || fs.close(fd).unwrap()).0, 1, "written");

    let fd = fs.open("/f").unwrap();
    let mut buf = [0u8; 64];
    fs.read(fd, 0, &mut buf).unwrap();
    fs.size(fd).unwrap();
    assert_eq!(crossings(&dpc, || fs.close(fd).unwrap()).0, 0, "only read");

    // fsync marks what it covered; a later write makes it dirty again.
    let fd = fs.open("/f").unwrap();
    fs.write(fd, 0, b"x").unwrap();
    assert_eq!(crossings(&dpc, || fs.fsync(fd).unwrap()).0, 1);
    // An explicit fsync always crosses, even with nothing to do.
    assert_eq!(crossings(&dpc, || fs.fsync(fd).unwrap()).0, 1);
    let other = fs.open("/f").unwrap();
    assert_eq!(crossings(&dpc, || fs.close(other).unwrap()).0, 0, "synced");
    fs.truncate(fd, 5).unwrap();
    assert_eq!(crossings(&dpc, || fs.close(fd).unwrap()).0, 1, "truncated");

    // The mark is per inode: a second descriptor's close flushes what the
    // first one wrote (and the first then has nothing left to do).
    let (a, b) = (fs.open("/f").unwrap(), fs.open("/f").unwrap());
    fs.writev(a, 0, &[b"ab", b"cd"]).unwrap();
    assert_eq!(crossings(&dpc, || fs.close(b).unwrap()).0, 1);
    assert_eq!(crossings(&dpc, || fs.close(a).unwrap()).0, 0);
    assert_eq!(cold_read(&dpc, "/f"), b"abcd\x07");
}

#[test]
fn with_the_meta_cache_on_a_repeat_call_does_not_cross() {
    let dpc = quiet(true);
    let fs = dpc.fs();
    for d in ["/a", "/a/b", "/a/b/c"] {
        fs.mkdir(d).unwrap();
    }
    let fd = fs.create("/a/b/c/f").unwrap();
    fs.close(fd).unwrap();
    fs.mkdir("/a/b/e").unwrap();
    one_of_each(&dpc, &fs, "/a/b/e", 0);

    // …and a second identical call is answered from what the first one's
    // reply primed: the trail's dentries, the target's attr, the listing.
    let fresh = Dpc::with_shared_storage(DpcConfig::default(), Some(dpc.kv_store()), None);
    let fs = fresh.fs();
    assert_eq!(crossings(&fresh, || fs.stat("/a/b/c/f").unwrap()).0, 1);
    let hits = fresh.metrics().meta.dentry_hits;
    assert_eq!(crossings(&fresh, || fs.stat("/a/b/c/f").unwrap()).0, 0);
    assert!(fresh.metrics().meta.dentry_hits >= hits + 4);
    let (n, fd) = crossings(&fresh, || fs.open("/a/b/c/f").unwrap());
    assert_eq!(n, 0);
    fs.close(fd).unwrap();
    // The intermediate dentries serve other paths' prefixes: one crossing
    // from `/a/b/c` on, not from the root — and none the second time.
    assert_eq!(crossings(&fresh, || fs.readdir("/a/b/c").unwrap()).0, 1);
    assert_eq!(crossings(&fresh, || fs.readdir("/a/b/c").unwrap()).0, 0);
    // ENOENT primes a negative entry: the repeat is local.
    assert_eq!(crossings(&fresh, || fs.stat("/a/b/ghost")).0, 1);
    let (n, err) = crossings(&fresh, || fs.stat("/a/b/ghost").unwrap_err());
    assert_eq!((n, err.errno()), (0, 2));
    assert!(fresh.metrics().meta.neg_hits >= 1);
    // …until something is created there.
    fs.mkdir("/a/b/ghost").unwrap();
    assert_eq!(fs.stat("/a/b/ghost").unwrap().kind, 1);

    // A symlink never becomes a host dentry: paths through one cross every
    // time (one crossing), and see a retargeted link at once.
    fs.mkdir("/other").unwrap();
    fs.symlink("/ln", "/a/b").unwrap();
    assert_eq!(
        fs.stat("/ln/c").unwrap().ino,
        fs.stat("/a/b/c").unwrap().ino
    );
    assert_eq!(crossings(&fresh, || fs.stat("/ln/c").unwrap()).0, 1);
    fs.unlink("/ln").unwrap();
    fs.symlink("/ln", "/other").unwrap();
    assert_eq!(fs.stat("/ln/c").unwrap_err().errno(), 2);
    assert_eq!(fs.readlink("/ln").unwrap(), "/other");
}

// ---- typed errnos ---------------------------------------------------

#[test]
fn oversized_names_are_enametoolong_not_a_panic() {
    for cache in [false, true] {
        let dpc = quiet(cache);
        let fs = dpc.fs();
        fs.mkdir("/d").unwrap();
        let long_name = format!("/d/{}", "x".repeat(2000));
        let long_path = "/d".repeat(2049); // 4098 bytes of short components
        let at_limit = format!("/d/{}", "y".repeat(1024));
        let calls = dpc.pool_stats().submitted;
        for path in [&long_name, &long_path] {
            let e = |r: Result<(), DpcError>| assert_eq!(r.unwrap_err().errno(), 36, "{path:.12}");
            e(fs.stat(path).map(drop));
            e(fs.open(path).map(drop));
            e(fs.create(path).map(drop));
            e(fs.mkdir(path));
            e(fs.unlink(path));
            e(fs.rmdir(path));
            e(fs.readdir(path).map(drop));
            e(fs.rename(path, "/d/ok"));
            e(fs.rename("/d/ok", path));
            e(fs.link(path, "/d/ok"));
            e(fs.link("/d/ok", path));
            e(fs.symlink(path, "/d"));
            e(fs.readlink(path).map(drop));
        }
        assert_eq!(
            fs.symlink("/d/s", &"t".repeat(4097)).unwrap_err().errno(),
            36
        );
        // Refused before anything was encoded or sent.
        assert_eq!(dpc.pool_stats().submitted, calls);
        // 1024 bytes is a legal name.
        let fd = fs.create(&at_limit).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat(&at_limit).unwrap().kind, 0);
        // A symlink target past what KVFS stores is refused there, typed.
        assert_eq!(
            fs.symlink("/d/s", &"t".repeat(2000)).unwrap_err().errno(),
            36
        );
    }
}

#[test]
fn errnos_match_the_dpu_side_walk() {
    for cache in [false, true] {
        let dpc = quiet(cache);
        let fs = dpc.fs();
        fs.mkdir("/d").unwrap();
        let fd = fs.create("/file").unwrap();
        fs.close(fd).unwrap();
        // Twice: the second round runs against whatever the first primed.
        for _ in 0..2 {
            assert_eq!(fs.stat("/file/x").unwrap_err().errno(), 20, "ENOTDIR");
            assert_eq!(fs.create("/file/x").unwrap_err().errno(), 20);
            assert_eq!(fs.readdir("/file").unwrap_err().errno(), 20);
            assert_eq!(fs.stat("/d/./x").unwrap_err().errno(), 22, "EINVAL");
            assert_eq!(fs.mkdir("/d/..").unwrap_err().errno(), 22);
            assert_eq!(fs.create("/").unwrap_err().errno(), 22);
            assert_eq!(fs.mkdir("/d").unwrap_err().errno(), 17, "EEXIST");
            assert_eq!(fs.unlink("/d").unwrap_err().errno(), 21, "EISDIR");
            assert_eq!(fs.rmdir("/file").unwrap_err().errno(), 20);
            assert_eq!(fs.stat("/").unwrap().kind, 1);
        }
        // Symlink chains: 8 hops resolve, a cycle is ELOOP.
        fs.symlink("/l0", "/file").unwrap();
        for i in 1..8 {
            fs.symlink(&format!("/l{i}"), &format!("/l{}", i - 1))
                .unwrap();
        }
        assert_eq!(fs.stat("/l7").unwrap().ino, fs.stat("/file").unwrap().ino);
        fs.symlink("/l8", "/l7").unwrap();
        assert_eq!(fs.stat("/l8").unwrap_err().errno(), 40, "ELOOP");
        fs.symlink("/x", "/y").unwrap();
        fs.symlink("/y", "/x").unwrap();
        assert_eq!(fs.open("/x").unwrap_err().errno(), 40);
        assert_eq!(fs.stat("/x/below").unwrap_err().errno(), 40);
        // The link itself is still nameable.
        assert_eq!(fs.readlink("/x").unwrap(), "/y");
        fs.unlink("/x").unwrap();
        assert_eq!(fs.stat("/y").unwrap_err().errno(), 2, "dangling now");
    }
}

// ---- hard links and rename-over: who dies -----------------------------

#[test]
fn unlinking_one_hard_link_keeps_the_other_names_unsynced_bytes() {
    for cache in [false, true] {
        let dpc = quiet(cache);
        let fs = dpc.fs();
        let data = fill(0x3C, 8192);
        let fd = fs.create("/a").unwrap();
        fs.link("/a", "/b").unwrap();
        fs.write(fd, 0, &data).unwrap();
        assert_eq!(fs.stat("/b").unwrap().nlink, 2);
        fs.unlink("/b").unwrap();

        // Live: the acknowledged, still-dirty pages are the inode's, and
        // the inode lives on as `/a`.
        assert_eq!(
            read_fd(&fs, fd),
            data,
            "cache={cache}: unlink(/b) zeroed /a"
        );
        assert_eq!(fs.stat("/a").unwrap().nlink, 1);
        // Cold: after close they are what a new client reads.
        fs.close(fd).unwrap();
        assert_eq!(cold_read(&dpc, "/a"), data, "cache={cache}");

        // The last name takes the pages with it.
        let fd = fs.open("/a").unwrap();
        fs.write(fd, 0, &data).unwrap();
        let ino = fs.stat("/a").unwrap().ino;
        fs.unlink("/a").unwrap();
        assert!(!fs.cache().has_dirty_in_range(ino, 0, u64::MAX));
    }
}

#[test]
fn rename_over_a_file_drops_the_replaced_inodes_pages() {
    for cache in [false, true] {
        let dpc = quiet(cache);
        let fs = dpc.fs();
        let (old, new) = (fill(1, 20_000), fill(2, 9_000));
        let victim = fs.create("/dst").unwrap();
        fs.write(victim, 0, &old).unwrap();
        let dead = fs.stat("/dst").unwrap().ino;
        let fd = fs.create("/src").unwrap();
        fs.write(fd, 0, &new).unwrap();
        assert!(fs.cache().has_dirty_in_range(dead, 0, u64::MAX));

        fs.rename("/src", "/dst").unwrap();
        // Live: the dead inode's dirty pages left the cache with it…
        assert!(
            !fs.cache().has_dirty_in_range(dead, 0, u64::MAX),
            "cache={cache}: pages of a dead inode still queued for flush"
        );
        // …and the name is the new file's.
        assert_eq!(fs.stat("/src").unwrap_err().errno(), 2);
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/dst").unwrap().size, new.len() as u64);
        // Cold: the store holds the new bytes and nothing of the old inode.
        assert_eq!(cold_read(&dpc, "/dst"), new, "cache={cache}");
        let kvfs = dpc.kvfs_inner();
        assert_eq!(kvfs.get_attr(dead), Err(FsError::NotFound));
        assert_eq!(kvfs.big_file_blocks(dead), 0);

        // Replacing one name of a hard-linked file kills nothing.
        let keep = fs.create("/keep").unwrap();
        fs.link("/keep", "/alias").unwrap();
        fs.write(keep, 0, &old).unwrap();
        let other = fs.create("/other").unwrap();
        fs.close(other).unwrap();
        fs.rename("/other", "/alias").unwrap();
        assert_eq!(
            read_fd(&fs, keep),
            old,
            "cache={cache}: rename over /alias zeroed /keep"
        );
        fs.close(keep).unwrap();
        assert_eq!(cold_read(&dpc, "/keep"), old);
    }
}

// ---- lockstep: DpcFs (cache off, cache on) vs a bare Kvfs -------------

const NAMES: [&str; 5] = ["a", "b", "c", "l", "m"];

/// A path of 1–3 components over a five-name universe: deep enough for
/// ENOTDIR and symlinked prefixes, small enough to collide constantly.
fn any_path(rng: &mut u64) -> String {
    let depth = 1 + splitmix(rng) % 3;
    let mut path = String::new();
    for _ in 0..depth {
        path.push('/');
        path.push_str(NAMES[(splitmix(rng) % NAMES.len() as u64) as usize]);
    }
    if splitmix(rng).is_multiple_of(16) {
        path.push('/');
    }
    path
}

/// One op's observable outcome through the adapter…
fn via_dpc(fs: &DpcFs, op: u64, p: &str, q: &str) -> String {
    let e = |e: DpcError| format!("errno {}", e.errno());
    let done = |r: Result<(), DpcError>| r.map_or_else(e, |()| "ok".to_string());
    match op {
        0..=2 => match fs.create(p) {
            Ok(fd) => {
                fs.close(fd).unwrap();
                "ok".to_string()
            }
            Err(x) => e(x),
        },
        3..=5 => done(fs.mkdir(p)),
        6..=9 => fs.stat(p).map_or_else(e, |a| {
            format!(
                "ino {} kind {} nlink {} size {}",
                a.ino, a.kind, a.nlink, a.size
            )
        }),
        10 => match fs.open(p) {
            Ok(fd) => {
                let size = fs.size(fd).unwrap();
                fs.close(fd).unwrap();
                format!("open size {size}")
            }
            Err(x) => e(x),
        },
        11..=12 => fs.readdir(p).map_or_else(e, |entries| {
            let names: Vec<String> = entries
                .iter()
                .map(|d| format!("{}:{}:{}", d.name, d.ino, d.kind))
                .collect();
            names.join(",")
        }),
        13..=14 => done(fs.unlink(p)),
        15 => done(fs.rmdir(p)),
        16..=17 => done(fs.rename(p, q)),
        18 => done(fs.link(p, q)),
        19 => done(fs.symlink(p, q)),
        _ => fs.readlink(p).map_or_else(e, |t| format!("-> {t}")),
    }
}

/// …and the same op asked of `Kvfs` directly, by path.
fn via_kvfs(fs: &Kvfs, op: u64, p: &str, q: &str) -> String {
    let e = |e: FsError| format!("errno {}", e.errno());
    let done = |r: Result<(), FsError>| r.map_or_else(e, |()| "ok".to_string());
    let kind = |k: FileKind| k.to_byte();
    match op {
        0..=2 => done(fs.create(p, 0o644).map(drop)),
        3..=5 => done(fs.mkdir(p, 0o755).map(drop)),
        6..=9 => fs.stat(p).map_or_else(e, |a| {
            format!(
                "ino {} kind {} nlink {} size {}",
                a.ino,
                kind(a.kind),
                a.nlink,
                a.size
            )
        }),
        10 => fs
            .stat(p)
            .map_or_else(e, |a| format!("open size {}", a.size)),
        11..=12 => fs
            .resolve(p)
            .and_then(|dir| fs.readdir(dir))
            .map_or_else(e, |entries| {
                let names: Vec<String> = entries
                    .iter()
                    .map(|d| format!("{}:{}:{}", d.name, d.ino, kind(d.kind)))
                    .collect();
                names.join(",")
            }),
        13..=14 => done(fs.unlink(p)),
        15 => done(fs.rmdir(p)),
        16..=17 => done(fs.rename(p, q)),
        18 => done(fs.link(p, q)),
        19 => done(fs.symlink(p, q).map(drop)),
        _ => fs
            .resolve_nofollow(p)
            .and_then(|ino| fs.readlink(ino))
            .map_or_else(e, |t| format!("-> {t}")),
    }
}

/// A directory's entries as `(name, ino, kind)`.
type Listing = Vec<(String, u64, u8)>;

/// Every name reachable from the root without passing a symlink.
fn tree(list: &dyn Fn(&str) -> Listing, dir: &str, out: &mut Vec<String>) {
    for (name, ino, kind) in list(dir) {
        let path = format!("{dir}/{name}");
        out.push(format!("{path} {ino} {kind}"));
        if kind == 1 {
            tree(list, &path, out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dpcfs_and_kvfs_agree_on_every_result(seed in any::<u64>()) {
        let plain = quiet(false);
        let cached = quiet(true);
        let (plain_fs, cached_fs) = (plain.fs(), cached.fs());
        let model = Kvfs::new(Arc::new(KvStore::new()));
        let mut rng = seed;
        let mut errnos = std::collections::BTreeSet::new();
        // A symlink cycle first (random targets rarely close one), then
        // the random schedule.
        let cycle = [(19, "/l", "/m"), (19, "/m", "/l"), (6, "/l", ""), (10, "/m/a", "")]
            .map(|(op, p, q)| (op, p.to_string(), q.to_string()));
        let unlinks = [(13, "/l"), (13, "/m")].map(|(op, p)| (op, p.to_string(), String::new()));
        let random = (0..160).map(|_| {
            let op = splitmix(&mut rng) % 21;
            (op, any_path(&mut rng), any_path(&mut rng))
        });
        for (step, (op, p, q)) in cycle.into_iter().chain(unlinks).chain(random).enumerate() {
            let want = via_kvfs(&model, op, &p, &q);
            prop_assert_eq!(
                &via_dpc(&plain_fs, op, &p, &q), &want,
                "seed {} step {}: op {} {} {} (budget 0)", seed, step, op, p, q
            );
            prop_assert_eq!(
                &via_dpc(&cached_fs, op, &p, &q), &want,
                "seed {} step {}: op {} {} {} (cached)", seed, step, op, p, q
            );
            if let Some(n) = want.strip_prefix("errno ") {
                errnos.insert(n.to_string());
            }
        }
        // The schedule is not all successes: it met the walk's refusals
        // (ENOENT, EEXIST, ENOTDIR, ELOOP here; EISDIR and ENOTEMPTY in
        // most cases).
        for errno in ["2", "17", "20", "40"] {
            prop_assert!(errnos.contains(errno), "no errno {}: {:?}", errno, errnos);
        }

        let mut want = Vec::new();
        tree(
            &|dir| {
                let ino = if dir.is_empty() { ROOT_INO } else { model.resolve(dir).unwrap() };
                let entries = model.readdir(ino).unwrap();
                entries.into_iter().map(|d| (d.name, d.ino, d.kind.to_byte())).collect()
            },
            "",
            &mut want,
        );
        for fs in [&plain_fs, &cached_fs] {
            let mut got = Vec::new();
            tree(
                &|dir| {
                    let entries = fs.readdir(if dir.is_empty() { "/" } else { dir }).unwrap();
                    entries.into_iter().map(|d| (d.name, d.ino, d.kind)).collect()
                },
                "",
                &mut got,
            );
            prop_assert_eq!(&got, &want, "seed {}: final trees differ", seed);
        }
        // The cached instance did answer some of it locally.
        prop_assert!(cached.metrics().meta.dentry_hits > 0);
    }
}

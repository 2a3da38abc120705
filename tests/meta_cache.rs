//! Metadata-plane harness: host meta-cache coherence (DESIGN.md §4.7) +
//! sharded MDS namespace equivalence.
//!
//! 1. **Negative-entry coherence** — a cached ENOENT must die the moment
//!    anything creates or renames into that name, both on a live instance
//!    and across [`Dpc::recover`] (the recovered instance builds a fresh
//!    cache — no stale negatives can survive a crash).
//! 2. **Equivalence** — the default instance and one whose cache holds
//!    nothing (budget 0: same code path, every call crosses) run the same
//!    seeded create/stat/readdir/unlink/rename schedule to identical
//!    outcome traces (success/errno, ino, size, kind, nlink, listings),
//!    with `mds.rpc` chaos armed so transparent MDS retries interleave
//!    with the metadata stream. The cache may never change *what* an op
//!    returns — only how many crossings it costs.
//! 3. **Differential coherence** — after *every* op of a seeded schedule
//!    over the whole mutation surface, what the warm instance answers
//!    (listings in order, every attribute field) is what a cold second
//!    instance over the same store answers; the same under a tree four
//!    times the cache's byte budget, which the cache never exceeds.
//! 4. **The sharded MDS namespace** — under `mds.rpc` chaos every
//!    created name resolves to its ino, and each directory's cursor-paged
//!    listing is exactly its creates in name order; a create storm from
//!    eight threads loses nothing.
//!
//! Seeds: `[1, 7, 42]` by default; set `DPC_CHAOS_SEED=<u64>` to pin one
//! (the CI chaos job fans out over the fixed seeds).

use dpc::core::{Dpc, DpcConfig, DpcFs};
use dpc::dfs::{DfsBackend, DfsConfig, DfsError};
use dpc::fault::{FaultPlan, FaultSpec};
use dpc::nvmefs::RetryPolicy;
use dpc_testkit::{seeds, splitmix};
use proptest::prelude::*;

// ---- negative-entry coherence, live ---------------------------------

#[test]
fn repeated_enoent_is_served_from_the_negative_cache() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    fs.mkdir("/d").unwrap();

    assert_eq!(fs.stat("/d/ghost").unwrap_err().errno(), 2);
    assert_eq!(fs.stat("/d/ghost").unwrap_err().errno(), 2);
    assert_eq!(fs.stat("/d/ghost").unwrap_err().errno(), 2);

    let m = dpc.metrics().meta;
    assert!(
        m.neg_hits >= 2,
        "repeat stats of an absent name must answer locally: {m:?}"
    );
}

#[test]
fn cached_enoent_dies_on_create_into_the_name() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    fs.mkdir("/d").unwrap();

    // Prime the negative entry (second stat proves it's cached).
    assert_eq!(fs.stat("/d/born").unwrap_err().errno(), 2);
    assert_eq!(fs.stat("/d/born").unwrap_err().errno(), 2);
    assert!(dpc.metrics().meta.neg_hits >= 1);

    // Create into the cached-absent name: the very next stat must see it
    // — a surviving negative entry would wrongly answer ENOENT.
    let fd = fs.create("/d/born").unwrap();
    fs.write(fd, 0, b"alive").unwrap();
    fs.close(fd).unwrap();
    let attr = fs.stat("/d/born").expect("negative entry must be dead");
    assert_eq!(attr.size, 5);
}

#[test]
fn cached_enoent_dies_on_rename_into_the_name() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    fs.mkdir("/d").unwrap();
    let fd = fs.create("/d/src").unwrap();
    fs.write(fd, 0, b"payload").unwrap();
    fs.close(fd).unwrap();

    // Prime a negative entry for the destination name.
    assert_eq!(fs.stat("/d/dst").unwrap_err().errno(), 2);
    assert_eq!(fs.stat("/d/dst").unwrap_err().errno(), 2);

    fs.rename("/d/src", "/d/dst").unwrap();
    let attr = fs
        .stat("/d/dst")
        .expect("rename-into must kill the negative");
    assert_eq!(attr.size, 7);
    // And the source name is gone — its (positive) dentry died too.
    assert_eq!(fs.stat("/d/src").unwrap_err().errno(), 2);
}

// ---- negative-entry coherence across recovery -----------------------

#[test]
fn negative_entries_do_not_survive_recovery() {
    // Crash-shaped config: deterministic data path, fast link deadlines —
    // plus the metadata cache under test.
    let cfg = DpcConfig {
        cache_pages: 512,
        retry: RetryPolicy {
            attempts: 2,
            deadline_yields: 10_000,
            backoff_base_us: 20,
            backoff_cap_us: 200,
        },
        ..DpcConfig::default()
    };
    let dpc = Dpc::new(cfg);
    let fs = dpc.fs();
    fs.mkdir("/d").unwrap();
    let fd = fs.create("/d/keep").unwrap();
    fs.write(fd, 0, b"durable").unwrap();
    fs.fsync(fd).unwrap();

    // Prime a negative entry, then kill the DPU with it still cached.
    assert_eq!(fs.stat("/d/ghost").unwrap_err().errno(), 2);
    assert_eq!(fs.stat("/d/ghost").unwrap_err().errno(), 2);
    assert!(dpc.metrics().meta.neg_hits >= 1);
    dpc.trip_crash();
    drop(fs);

    let rdpc = Dpc::recover(dpc).unwrap();
    // The recovered instance starts with a *fresh* metadata cache: every
    // counter zero. Its answers came from the dead DPU's walks, and the
    // adopted data cache holds no names.
    let fresh = rdpc.meta_cache().stats();
    assert_eq!(
        (
            fresh.neg_hits,
            fresh.dentry_hits,
            fresh.attr_hits,
            fresh.bytes
        ),
        (0, 0, 0, 0),
        "recovery must not resurrect pre-crash cache state"
    );

    let rfs = rdpc.fs();
    assert_eq!(rfs.stat("/d/keep").unwrap().size, 7, "data survived");
    // The pre-crash negative is gone; create into the name and see it.
    assert_eq!(rfs.stat("/d/ghost").unwrap_err().errno(), 2);
    let fd = rfs.create("/d/ghost").unwrap();
    rfs.write(fd, 0, b"back").unwrap();
    rfs.close(fd).unwrap();
    assert_eq!(rfs.stat("/d/ghost").unwrap().size, 4);
}

// ---- the baseline: a cache that holds nothing -------------------------

#[test]
fn a_zero_budget_holds_nothing_and_answers_nothing() {
    let dpc = Dpc::new(DpcConfig::default());
    dpc.meta_cache().set_budget(0);
    let fs = dpc.fs();
    fs.mkdir("/q").unwrap();
    let fd = fs.create("/q/a").unwrap();
    fs.write(fd, 0, b"x").unwrap();
    fs.close(fd).unwrap();
    for _ in 0..3 {
        fs.stat("/q/a").unwrap();
        assert_eq!(fs.readdir("/q").unwrap().len(), 1);
        assert_eq!(fs.stat("/q/nope").unwrap_err().errno(), 2);
    }
    fs.rename("/q/a", "/q/b").unwrap();
    fs.unlink("/q/b").unwrap();

    // Every probe was made — the one code path — and every one missed.
    let m = dpc.metrics().meta;
    assert_eq!(
        (m.attr_hits, m.dentry_hits, m.neg_hits, m.readdir_hits),
        (0, 0, 0, 0)
    );
    assert!(m.dentry_misses >= 9, "{m:?}");
    assert_eq!(m.bytes, 0);
}

// ---- cached == uncached equivalence under chaos ----------------------
//
// A seeded schedule of namespace ops runs twice — the default meta cache,
// and one that holds nothing — against instances with the same `mds.rpc`
// fault schedule, and every op's observable outcome is serialised into a
// trace line. The traces must be identical: the cache changes crossing
// counts, never results.

const EQ_DIRS: usize = 2;
const EQ_NAMES: usize = 6;
const EQ_OPS: usize = 48;

#[derive(Clone, Debug)]
enum NsOp {
    Create {
        dir: usize,
        name: usize,
    },
    Stat {
        dir: usize,
        name: usize,
    },
    Readdir {
        dir: usize,
    },
    Unlink {
        dir: usize,
        name: usize,
    },
    Rename {
        dir: usize,
        from: usize,
        to: usize,
    },
    /// An offloaded-DFS metadata touch: create + lookup through the
    /// dispatcher, so the armed `mds.rpc` site actually draws (the
    /// standalone KVFS ops never cross the MDS fabric).
    DfsTouch {
        tag: usize,
    },
}

fn gen_schedule(seed: u64) -> Vec<NsOp> {
    let mut rng = seed ^ 0x5EED_0909;
    (0..EQ_OPS)
        .map(|i| {
            let dir = (splitmix(&mut rng) % EQ_DIRS as u64) as usize;
            let name = (splitmix(&mut rng) % EQ_NAMES as u64) as usize;
            // A guaranteed sprinkle of MDS traffic: without it a seed
            // could roll a DFS-free schedule and the chaos assertion
            // below would have nothing to fire on.
            if i % 12 == 5 {
                return NsOp::DfsTouch { tag: i };
            }
            match splitmix(&mut rng) % 20 {
                0..=5 => NsOp::Create { dir, name },
                6..=10 => NsOp::Stat { dir, name },
                11..=13 => NsOp::Readdir { dir },
                14..=16 => NsOp::Unlink { dir, name },
                17..=18 => NsOp::Rename {
                    dir,
                    from: name,
                    to: (splitmix(&mut rng) % EQ_NAMES as u64) as usize,
                },
                _ => NsOp::DfsTouch { tag: i },
            }
        })
        .collect()
}

fn eq_path(dir: usize, name: usize) -> String {
    format!("/eq/d{dir}/n{name}")
}

/// Run one schedule against a fresh instance and serialise every outcome.
fn run_trace(cached: bool, chaos_seed: u64, schedule: &[NsOp]) -> (Vec<String>, u64) {
    let plan = FaultPlan::new(chaos_seed);
    plan.arm("mds.rpc", FaultSpec::probability(0.2));
    let dpc = Dpc::new(DpcConfig {
        dfs: Some(DfsConfig::default()),
        faults: Some(plan.clone()),
        ..DpcConfig::default()
    });
    if !cached {
        dpc.meta_cache().set_budget(0);
    }
    let fs = dpc.fs();
    fs.mkdir("/eq").unwrap();
    for d in 0..EQ_DIRS {
        fs.mkdir(&format!("/eq/d{d}")).unwrap();
    }

    let mut trace = Vec::with_capacity(schedule.len());
    for op in schedule {
        let line = match op {
            NsOp::Create { dir, name } => {
                let path = eq_path(*dir, *name);
                // Create-over-existing is part of the schedule: both
                // modes must agree on whatever the backend says.
                match fs.create(&path) {
                    Ok(fd) => {
                        let fill = vec![(*name as u8) + 1; 16 + name * 8];
                        fs.write(fd, 0, &fill).unwrap();
                        fs.close(fd).unwrap();
                        format!("create {path} ok len={}", fill.len())
                    }
                    Err(e) => format!("create {path} errno={}", e.errno()),
                }
            }
            NsOp::Stat { dir, name } => {
                let path = eq_path(*dir, *name);
                match fs.stat(&path) {
                    Ok(a) => format!(
                        "stat {path} ino={} size={} kind={} nlink={}",
                        a.ino, a.size, a.kind, a.nlink
                    ),
                    Err(e) => format!("stat {path} errno={}", e.errno()),
                }
            }
            NsOp::Readdir { dir } => {
                let path = format!("/eq/d{dir}");
                let mut names: Vec<String> = fs
                    .readdir(&path)
                    .unwrap()
                    .into_iter()
                    .map(|e| format!("{}:{}", e.name, e.ino))
                    .collect();
                names.sort();
                format!("readdir {path} [{}]", names.join(","))
            }
            NsOp::Unlink { dir, name } => {
                let path = eq_path(*dir, *name);
                match fs.unlink(&path) {
                    Ok(()) => format!("unlink {path} ok"),
                    Err(e) => format!("unlink {path} errno={}", e.errno()),
                }
            }
            NsOp::Rename { dir, from, to } => {
                let f = eq_path(*dir, *from);
                let t = eq_path((*dir + 1) % EQ_DIRS, *to);
                match fs.rename(&f, &t) {
                    Ok(()) => format!("rename {f} -> {t} ok"),
                    Err(e) => format!("rename {f} -> {t} errno={}", e.errno()),
                }
            }
            NsOp::DfsTouch { tag } => {
                // Crosses the MDS fabric through the dispatcher: retries
                // under mds.rpc chaos are invisible, the results exact.
                let name = format!("t{tag}");
                let ino = fs.dfs_create(0, &name).unwrap();
                assert_eq!(fs.dfs_lookup(0, &name).unwrap(), ino);
                format!("dfs-touch {name} ino={ino}")
            }
        };
        trace.push(line);
    }

    // Closing sweep: both modes must agree on the final namespace.
    for d in 0..EQ_DIRS {
        let mut names: Vec<String> = fs
            .readdir(&format!("/eq/d{d}"))
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort();
        trace.push(format!("final d{d} [{}]", names.join(",")));
    }
    (trace, plan.total_injected())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn cache_on_equals_cache_off_under_mds_chaos(schedule_seed in any::<u64>()) {
        let schedule = gen_schedule(schedule_seed);
        let mut injected = 0u64;
        for chaos_seed in seeds() {
            let (off, inj_off) = run_trace(false, chaos_seed, &schedule);
            let (on, inj_on) = run_trace(true, chaos_seed, &schedule);
            injected += inj_off + inj_on;
            for (i, (a, b)) in off.iter().zip(on.iter()).enumerate() {
                prop_assert_eq!(
                    a, b,
                    "chaos seed {} schedule {} diverged at op {}",
                    chaos_seed, schedule_seed, i
                );
            }
            prop_assert_eq!(off.len(), on.len());
        }
        // The chaos was real: some MDS RPC somewhere was refused.
        prop_assert!(injected > 0, "no mds.rpc fault ever fired");
    }
}

// ---- warm == cold, after every op ------------------------------------
//
// The warm instance's cache is patched, degraded and invalidated by its
// own mutations; a cold second instance over the same store has nothing
// cached and asks the backend. Whatever either is asked, they must agree:
// listings entry for entry *in order* (a patched listing stays in KV key
// order), attributes field for field.

/// A fresh, small instance over `dpc`'s store: the cold truth.
fn cold_over(dpc: &Dpc) -> Dpc {
    let cfg = DpcConfig {
        queues: 1,
        cache_pages: 64,
        ..DpcConfig::default()
    };
    Dpc::with_shared_storage(cfg, Some(dpc.kv_store()), None)
}

/// Everything `fs` says about `dirs` and the `names` under each. Names
/// first: a fresh listing would replace a table the op left wrong before
/// any lookup had gone through it.
fn observe(fs: &DpcFs, dirs: &[String], names: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for dir in dirs {
        for path in std::iter::once(dir.clone()).chain(names.iter().map(|n| format!("{dir}/{n}"))) {
            out.push(match fs.stat(&path) {
                Ok(a) => format!("stat {path} {a:?}"),
                Err(e) => format!("stat {path} errno={}", e.errno()),
            });
        }
        out.push(match fs.readdir(dir) {
            Ok(l) => format!("ls {dir} {l:?}"),
            Err(e) => format!("ls {dir} errno={}", e.errno()),
        });
    }
    out
}

/// Ask the warm instance twice (the second round is answered by whatever
/// the first one cached) and a cold one once; all three must agree.
fn assert_warm_is_cold(warm: &Dpc, dirs: &[String], names: &[&str], ctx: &str) {
    let fs = warm.fs();
    let want = observe(&cold_over(warm).fs(), dirs, names);
    for round in ["first", "cached"] {
        let got = observe(&fs, dirs, names);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "{ctx}: warm ({round}) != cold");
        }
        assert_eq!(got.len(), want.len());
    }
}

#[test]
fn warm_answers_equal_a_cold_instance_after_every_op() {
    const NAMES: [&str; 6] = ["a", "b", "c", "d", "sub", "z"];
    let dirs: Vec<String> = ["/t", "/t/sub", "/t/sub/sub", "/u"]
        .map(String::from)
        .to_vec();
    for seed in seeds() {
        let plan = FaultPlan::new(seed);
        plan.arm("mds.rpc", FaultSpec::probability(0.2));
        let dpc = Dpc::new(DpcConfig {
            dfs: Some(DfsConfig::default()),
            faults: Some(plan.clone()),
            ..DpcConfig::default()
        });
        let fs = dpc.fs();
        let mut rng = seed ^ 0xD1FF;
        let mut step = 0usize;
        // One op, then the whole picture, warm against cold.
        let mut run = |what: String, op: &dyn Fn() -> Result<(), i32>| {
            let res = op();
            step += 1;
            assert_warm_is_cold(
                &dpc,
                &dirs,
                &NAMES,
                &format!("seed {seed} step {step}: {what} -> {res:?}"),
            );
            res
        };
        let put = |path: &str, len: usize| -> Result<(), i32> {
            let fd = fs
                .create(path)
                .or_else(|_| fs.open(path))
                .map_err(|e| e.errno())?;
            fs.write(fd, 0, &vec![7u8; len]).map_err(|e| e.errno())?;
            fs.close(fd).map_err(|e| e.errno())
        };
        let e = |r: Result<(), dpc::core::DpcError>| r.map_err(|e| e.errno());

        // The cases the issue names, in a fixed prologue...
        for d in ["/t", "/t/sub", "/u"] {
            run(format!("mkdir {d}"), &|| e(fs.mkdir(d))).unwrap();
        }
        run("create".into(), &|| put("/t/b", 10)).unwrap();
        run("create before".into(), &|| put("/t/a", 5000)).unwrap();
        run("create after".into(), &|| put("/t/z", 0)).unwrap();
        // Rename over an existing file, then into a cached-absent name.
        run("rename over".into(), &|| e(fs.rename("/t/a", "/t/b"))).unwrap();
        assert_eq!(fs.stat("/t/c").unwrap_err().errno(), 2);
        run(
            "rename into absent".into(),
            &|| e(fs.rename("/t/z", "/t/c")),
        )
        .unwrap();
        run("rename across".into(), &|| e(fs.rename("/t/c", "/u/c"))).unwrap();
        // A hard link's nlink, before and after one name goes.
        run("link".into(), &|| e(fs.link("/t/b", "/u/d"))).unwrap();
        assert_eq!(fs.stat("/t/b").unwrap().nlink, 2);
        run("unlink one name".into(), &|| e(fs.unlink("/t/b"))).unwrap();
        assert_eq!(fs.stat("/u/d").unwrap().nlink, 1);
        run("symlink".into(), &|| e(fs.symlink("/t/a", "/u/d"))).unwrap();
        run("write then stat".into(), &|| put("/t/a", 9000)).unwrap();
        run("rmdir".into(), &|| e(fs.rmdir("/t/sub"))).unwrap();
        run("mkdir again".into(), &|| e(fs.mkdir("/t/sub"))).unwrap();
        // A directory moved to another parent takes its `..` link along:
        // both parents' cached link counts are stale at once.
        let nlinks = || ["/t", "/u"].map(|dir| fs.stat(dir).unwrap().nlink);
        assert_eq!(nlinks(), [3, 2]);
        run("rename dir across".into(), &|| {
            e(fs.rename("/t/sub", "/u/sub"))
        })
        .unwrap();
        assert_eq!(nlinks(), [2, 3]);
        run("rename dir back".into(), &|| {
            e(fs.rename("/u/sub", "/t/sub"))
        })
        .unwrap();
        assert_eq!(nlinks(), [3, 2]);

        // ...then at random, errors and all.
        for _ in 0..40 {
            let pick = |rng: &mut u64| {
                let dir = &dirs[(splitmix(rng) % dirs.len() as u64) as usize];
                format!(
                    "{dir}/{}",
                    NAMES[(splitmix(rng) % NAMES.len() as u64) as usize]
                )
            };
            let (p, q) = (pick(&mut rng), pick(&mut rng));
            let (len, tag) = ((splitmix(&mut rng) % 9000) as usize, splitmix(&mut rng));
            let _ = match splitmix(&mut rng) % 16 {
                0..=3 => run(format!("put {p} {len}"), &|| put(&p, len)),
                4..=5 => run(format!("mkdir {p}"), &|| e(fs.mkdir(&p))),
                6..=8 => run(format!("unlink {p}"), &|| e(fs.unlink(&p))),
                9 => run(format!("rmdir {p}"), &|| e(fs.rmdir(&p))),
                10..=12 => run(format!("rename {p} {q}"), &|| e(fs.rename(&p, &q))),
                13 => run(format!("link {p} {q}"), &|| e(fs.link(&p, &q))),
                14 => run(format!("symlink {p} {q}"), &|| e(fs.symlink(&p, &q))),
                _ => run("dfs touch".into(), &|| {
                    // Crosses the MDS fabric, so the armed site draws.
                    let ino = fs
                        .dfs_create(0, &format!("t{tag}"))
                        .map_err(|e| e.errno())?;
                    fs.dfs_getattr(ino).map(drop).map_err(|e| e.errno())
                }),
            };
        }
        let m = dpc.metrics().meta;
        assert!(
            m.readdir_hits > 0 && m.attr_hits > 0 && m.neg_hits > 0,
            "{m:?}"
        );
    }
}

/// A tree four times the cache's budget: the cache never holds more than
/// the budget, says so in `meta.evictions`, and still answers as the
/// backend would.
#[test]
fn a_tree_four_times_the_budget_stays_inside_it_and_stays_right() {
    const DIRS: usize = 12;
    const FILES: usize = 100;
    let dpc = Dpc::new(DpcConfig {
        cache_pages: 64,
        ..DpcConfig::default()
    });
    let budget = dpc.config().meta_cache_bytes() as u64;
    assert_eq!(budget, 32 * 1024);
    let fs = dpc.fs();
    let dirs: Vec<String> = (0..DIRS).map(|d| format!("/d{d:02}")).collect();
    let names: Vec<String> = (0..FILES).map(|f| format!("f{f:03}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let inside = |what: &str| {
        let m = dpc.metrics().meta;
        assert!(
            m.bytes <= budget,
            "{what}: {} B cached, budget {budget}",
            m.bytes
        );
    };
    for dir in &dirs {
        fs.mkdir(dir).unwrap();
        for name in &names {
            let fd = fs.create(&format!("{dir}/{name}")).unwrap();
            fs.close(fd).unwrap();
            inside("create");
        }
    }
    // ≈ 1 200 files at ≈ 100 B each against 32 KiB.
    for dir in &dirs {
        assert_eq!(fs.readdir(dir).unwrap().len(), FILES);
        inside("readdir");
        for name in &names {
            fs.stat(&format!("{dir}/{name}")).unwrap();
            inside("stat");
        }
    }
    let m = dpc.metrics().meta;
    assert!(m.evictions > 0 && m.bytes > budget / 2, "{m:?}");
    // Thin the tree through the (partly evicted) cache, then compare all of it.
    for dir in &dirs {
        for name in names.iter().step_by(7) {
            fs.unlink(&format!("{dir}/{name}")).unwrap();
            inside("unlink");
        }
    }
    assert_warm_is_cold(&dpc, &dirs, &names, "over budget");
    inside("compare");
}

/// What one cached file costs, pinned so a later field cannot quietly
/// spend the benchmark's RSS bound: `meta_mix`'s shape in small — whole
/// listings of 256 names and every attribute — is under 96 B a file
/// (≈ 22 B of name table, 64 B of attribute slot, the slack of both).
#[test]
fn a_cached_file_costs_under_96_bytes() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    for d in 0..16 {
        fs.mkdir(&format!("/d{d:02}")).unwrap();
        for f in 0..256 {
            let fd = fs.create(&format!("/d{d:02}/f{f:03}")).unwrap();
            fs.close(fd).unwrap();
        }
    }
    let cold = Dpc::with_shared_storage(DpcConfig::default(), Some(dpc.kv_store()), None);
    let fs = cold.fs();
    for d in 0..16 {
        assert_eq!(fs.readdir(&format!("/d{d:02}")).unwrap().len(), 256);
        for f in 0..256 {
            fs.stat(&format!("/d{d:02}/f{f:03}")).unwrap();
        }
    }
    let m = cold.metrics().meta;
    let files = 16 * 256;
    assert_eq!((m.evictions, m.attr_misses), (0, files), "{m:?}");
    assert!(
        m.bytes / files < 96,
        "{} B per cached file",
        m.bytes / files
    );
    // All of it is now answered without a crossing.
    let calls = cold.pool_stats().submitted;
    for d in 0..16 {
        assert_eq!(fs.readdir(&format!("/d{d:02}")).unwrap().len(), 256);
        fs.stat(&format!("/d{d:02}/f255")).unwrap();
    }
    assert_eq!(cold.pool_stats().submitted, calls);
}

// ---- the sharded MDS namespace ---------------------------------------

/// Retry a backend call the way the offloaded client does: `Transient`
/// means the fabric refused the RPC, not that the op failed.
fn with_retry<T>(mut f: impl FnMut() -> Result<T, DfsError>) -> T {
    for _ in 0..64 {
        match f() {
            Ok(v) => return v,
            Err(DfsError::Transient) => continue,
            Err(e) => panic!("non-transient MDS error: {e:?}"),
        }
    }
    panic!("MDS op still transient after 64 retries");
}

#[test]
fn sharded_namespace_serves_every_create_under_chaos() {
    const DIRS: u64 = 3;
    const FILES: u64 = 23;
    for seed in seeds() {
        let plan = FaultPlan::new(seed);
        let backend = DfsBackend::new(DfsConfig::default());
        backend.set_fault_plan(&plan);
        plan.arm("mds.rpc", FaultSpec::probability(0.2));

        // Interleave creates across parents, so consecutive creates land
        // in different stripes.
        let mut created: Vec<(u64, String, u64)> = Vec::new();
        for f in 0..FILES {
            for d in 0..DIRS {
                let p_ino = 5000 + d;
                let name = format!("f{f:03}");
                let attr = with_retry(|| backend.mds_create(p_ino, &name));
                created.push((p_ino, name, attr.ino));
            }
        }
        // Every created name must resolve to the ino create returned.
        for (p_ino, name, ino) in &created {
            assert_eq!(
                with_retry(|| backend.mds_lookup(*p_ino, name)),
                *ino,
                "seed {seed}: {p_ino}/{name}"
            );
        }
        // No two creates share an inode.
        let mut inos: Vec<u64> = created.iter().map(|(.., ino)| *ino).collect();
        inos.sort_unstable();
        inos.dedup();
        assert_eq!(inos.len(), created.len(), "seed {seed}: an inode reused");
        assert!(
            plan.total_injected() > 0,
            "seed {seed}: no fault ever fired"
        );
    }
}

/// Eight threads untar disjoint directory shards into one MDS: no create
/// is lost — each name resolves to the inode its create returned, and no
/// two creates share one.
#[test]
fn concurrent_create_storm_loses_nothing() {
    const THREADS: u64 = 8;
    const DIRS: u64 = 16;
    const FILES: usize = 40;
    let backend = DfsBackend::new(DfsConfig {
        mds_count: 1,
        ..DfsConfig::default()
    });
    let created: Vec<(u64, String, u64)> = std::thread::scope(|s| {
        let storms: Vec<_> = (0..THREADS)
            .map(|t| {
                let backend = &backend;
                s.spawn(move || {
                    let mut created = Vec::new();
                    for d in (t..DIRS).step_by(THREADS as usize) {
                        for f in 0..FILES {
                            let name = format!("f{f:05}");
                            let attr = backend.mds_create(1_000 + d, &name).unwrap();
                            created.push((1_000 + d, name, attr.ino));
                        }
                    }
                    created
                })
            })
            .collect();
        storms.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(created.len(), DIRS as usize * FILES);
    for (p_ino, name, ino) in &created {
        assert_eq!(backend.mds_lookup(*p_ino, name), Ok(*ino), "{p_ino}/{name}");
    }
    let mut inos: Vec<u64> = created.iter().map(|(.., ino)| *ino).collect();
    inos.sort_unstable();
    inos.dedup();
    assert_eq!(inos.len(), created.len(), "an inode reused");
}

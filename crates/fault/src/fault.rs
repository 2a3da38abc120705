//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] is a registry of named *fault sites* — places in the
//! stack (nvme-fs transport, DFS data servers, the KV store, the cache
//! flush path) that consult their site on every pass and, when the site
//! *fires*, inject a failure (error status, dropped shard, deferred
//! completion, latency spike). Each site draws from its own splitmix64
//! stream seeded from `plan seed ^ fnv1a(site name)`, so a given seed
//! replays the exact same fault schedule per site regardless of how other
//! sites interleave — the property the chaos tests rely on.
//!
//! Sites are cheap to consult (`Off` is an early return) and are handed
//! out as `Arc<FaultSite>` so hot paths never touch the registry map.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Poison-tolerant lock: a panicking injector thread must not wedge the
/// whole plan (this is the fault-injection layer; it of all places should
/// degrade instead of aborting).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// SplitMix64: advance `state` and return its next output. Each fault
/// site draws from one; the integration suites' generators (the test
/// model's `splitmix`) are this same function.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// When a site fires.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum FaultMode {
    /// Never fires (the default for every site).
    Off,
    /// Fires on every hit (a hard-down component).
    Always,
    /// Fires independently per hit with probability `p` (a flaky
    /// component), drawn from the site's deterministic stream.
    Probability(f64),
    /// Fires exactly on the `n`-th hit after arming (1-based) — a
    /// one-shot trigger for reproducing a specific interleaving.
    Nth(u64),
    /// Fires on the first `n` hits after arming, then self-heals — a
    /// transient outage.
    FirstN(u64),
}

/// A site's full schedule: when it fires, and how long the injected
/// stall should last (in site-local ticks; 0 = plain error, no stall).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultSpec {
    pub mode: FaultMode,
    pub delay: u64,
}

impl FaultSpec {
    pub const fn off() -> FaultSpec {
        FaultSpec {
            mode: FaultMode::Off,
            delay: 0,
        }
    }
    pub const fn always() -> FaultSpec {
        FaultSpec {
            mode: FaultMode::Always,
            delay: 0,
        }
    }
    pub const fn probability(p: f64) -> FaultSpec {
        FaultSpec {
            mode: FaultMode::Probability(p),
            delay: 0,
        }
    }
    pub const fn nth(n: u64) -> FaultSpec {
        FaultSpec {
            mode: FaultMode::Nth(n),
            delay: 0,
        }
    }
    pub const fn first_n(n: u64) -> FaultSpec {
        FaultSpec {
            mode: FaultMode::FirstN(n),
            delay: 0,
        }
    }
    /// Attach a stall length (deferral ticks / latency spike) to the spec.
    pub const fn with_delay(mut self, ticks: u64) -> FaultSpec {
        self.delay = ticks;
        self
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::off()
    }
}

/// One named injection point. Obtained from [`FaultPlan::site`]; hot
/// paths hold the `Arc` and call [`check`](FaultSite::check) per pass.
pub struct FaultSite {
    spec: Mutex<FaultSpec>,
    rng: Mutex<u64>,
    /// Hits while armed (Off hits are not counted, so `Nth`/`FirstN`
    /// count from the moment of arming).
    hits: AtomicU64,
    injected: AtomicU64,
}

impl FaultSite {
    /// (Re)arm the site. Counters keep accumulating; `Nth`/`FirstN`
    /// schedules restart because hits are only counted while armed.
    pub fn arm(&self, spec: FaultSpec) {
        if !matches!(spec.mode, FaultMode::Off) {
            // Fresh schedule: one-shot triggers count from this arming.
            self.hits.store(0, Ordering::Relaxed);
        }
        *lock(&self.spec) = spec;
    }

    pub fn disarm(&self) {
        *lock(&self.spec) = FaultSpec::off();
    }

    /// Faults actually injected.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Consult the schedule: `Some(delay_ticks)` when the fault fires at
    /// this hit, `None` otherwise. Off sites return immediately without
    /// counting the hit.
    pub fn check(&self) -> Option<u64> {
        let spec = *lock(&self.spec);
        if matches!(spec.mode, FaultMode::Off) {
            return None;
        }
        let hit = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = match spec.mode {
            FaultMode::Off => false,
            FaultMode::Always => true,
            FaultMode::Probability(p) => {
                let r = splitmix64(&mut lock(&self.rng));
                ((r >> 11) as f64 / (1u64 << 53) as f64) < p
            }
            FaultMode::Nth(n) => hit == n,
            FaultMode::FirstN(n) => hit <= n,
        };
        if fire {
            self.injected.fetch_add(1, Ordering::Relaxed);
            Some(spec.delay)
        } else {
            None
        }
    }

    /// [`check`](Self::check) for callers that ignore the delay.
    pub fn fires(&self) -> bool {
        self.check().is_some()
    }
}

/// A one-way "the DPU died" latch driven by a seeded [`FaultSite`]
/// (conventionally named `"dpu.crash"`).
///
/// Control-plane code sprinkles [`check_crash`](CrashSwitch::check_crash)
/// at its injection points — mid-flush, mid-log-append, between EC encode
/// and shard fanout, at the top of the runtime loops. Each call draws the
/// site once; the first hit that fires *trips* the switch permanently, and
/// every later call (from any thread) sees it tripped without drawing
/// again. That models a crash faithfully: once the DPU is dead it stays
/// dead, threads wind down where they stand, and nothing — including
/// graceful-shutdown drains — may keep doing work on its behalf.
///
/// A switch with no site never trips (the faults-off fast path is one
/// relaxed atomic load).
#[derive(Default)]
pub struct CrashSwitch {
    site: Option<Arc<FaultSite>>,
    tripped: std::sync::atomic::AtomicBool,
}

impl CrashSwitch {
    /// A switch that can never trip (faults disabled).
    pub fn inert() -> CrashSwitch {
        CrashSwitch::default()
    }

    /// A switch driven by `site` (typically `plan.site("dpu.crash")`).
    pub fn armed_by(site: Arc<FaultSite>) -> CrashSwitch {
        CrashSwitch {
            site: Some(site),
            tripped: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Whether the DPU has already crashed (no site draw).
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// One injection point: returns `true` if the DPU is (now) dead.
    /// Draws the site once per call until the first fire, then latches.
    pub fn check_crash(&self) -> bool {
        if self.is_tripped() {
            return true;
        }
        let Some(site) = &self.site else {
            return false;
        };
        if site.fires() {
            self.trip();
            return true;
        }
        false
    }

    /// Force the crash (used by tests/benches to kill the DPU at will).
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::SeqCst);
    }
}

/// A seeded registry of fault sites. Every site starts `Off`; arm the
/// ones a scenario wants with [`arm`](FaultPlan::arm).
pub struct FaultPlan {
    seed: u64,
    sites: Mutex<HashMap<String, Arc<FaultSite>>>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            seed,
            sites: Mutex::new(HashMap::new()),
        })
    }

    /// Get-or-create the site named `name` (created `Off`).
    pub fn site(&self, name: &str) -> Arc<FaultSite> {
        let mut sites = lock(&self.sites);
        sites
            .entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(FaultSite {
                    spec: Mutex::new(FaultSpec::off()),
                    rng: Mutex::new(self.seed ^ fnv1a(name)),
                    hits: AtomicU64::new(0),
                    injected: AtomicU64::new(0),
                })
            })
            .clone()
    }

    /// Arm (creating if needed) and return the site.
    pub fn arm(&self, name: &str, spec: FaultSpec) -> Arc<FaultSite> {
        let site = self.site(name);
        site.arm(spec);
        site
    }

    /// Total faults injected across every site.
    pub fn total_injected(&self) -> u64 {
        lock(&self.sites).values().map(|s| s.injected()).sum()
    }
}

impl core::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("sites", &lock(&self.sites).len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_sites_never_fire_and_cost_no_hits() {
        let plan = FaultPlan::new(1);
        let site = plan.site("a");
        for _ in 0..100 {
            assert!(site.check().is_none());
        }
        assert_eq!(site.hits.load(Ordering::Relaxed), 0);
        assert_eq!(site.injected(), 0);
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn always_and_first_n_and_nth() {
        let plan = FaultPlan::new(2);
        let a = plan.arm("always", FaultSpec::always());
        assert!((0..10).all(|_| a.fires()));
        assert_eq!(a.injected(), 10);

        let f = plan.arm("first3", FaultSpec::first_n(3));
        let fired: Vec<bool> = (0..6).map(|_| f.fires()).collect();
        assert_eq!(fired, [true, true, true, false, false, false]);

        let n = plan.arm("nth4", FaultSpec::nth(4));
        let fired: Vec<bool> = (0..6).map(|_| n.fires()).collect();
        assert_eq!(fired, [false, false, false, true, false, false]);
    }

    #[test]
    fn rearming_restarts_one_shot_schedules() {
        let plan = FaultPlan::new(3);
        let site = plan.arm("s", FaultSpec::nth(2));
        assert!(!site.fires());
        assert!(site.fires());
        site.arm(FaultSpec::nth(2));
        assert!(!site.fires());
        assert!(site.fires());
        assert_eq!(site.injected(), 2, "injected accumulates across arms");
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed_and_site() {
        let run = |seed: u64, name: &str| -> Vec<bool> {
            let plan = FaultPlan::new(seed);
            let site = plan.arm(name, FaultSpec::probability(0.3));
            (0..64).map(|_| site.fires()).collect()
        };
        assert_eq!(run(7, "x"), run(7, "x"), "same seed+site replays");
        assert_ne!(run(7, "x"), run(8, "x"), "seed changes the schedule");
        assert_ne!(run(7, "x"), run(7, "y"), "sites draw independent streams");
    }

    #[test]
    fn probability_rate_is_plausible() {
        let plan = FaultPlan::new(42);
        let site = plan.arm("p", FaultSpec::probability(0.25));
        let fired = (0..4000).filter(|_| site.fires()).count();
        assert!(
            (800..1200).contains(&fired),
            "p=0.25 over 4000 hits fired {fired}"
        );
    }

    #[test]
    fn delay_rides_along() {
        let plan = FaultPlan::new(5);
        let site = plan.arm("slow", FaultSpec::always().with_delay(7));
        assert_eq!(site.check(), Some(7));
        site.arm(FaultSpec::off());
        assert_eq!(site.check(), None);
    }

    #[test]
    fn crash_switch_latches_on_first_fire() {
        let plan = FaultPlan::new(11);
        let sw = CrashSwitch::armed_by(plan.arm("dpu.crash", FaultSpec::nth(3)));
        assert!(!sw.check_crash());
        assert!(!sw.check_crash());
        assert!(sw.check_crash(), "third draw fires and trips");
        // Latched: no further site draws (nth(3) would say no again).
        assert!(sw.check_crash());
        assert!(sw.is_tripped());

        let inert = CrashSwitch::inert();
        for _ in 0..100 {
            assert!(!inert.check_crash());
        }
        inert.trip();
        assert!(inert.check_crash(), "manual trip latches too");
    }

    #[test]
    fn registry_hands_out_the_same_site() {
        let plan = FaultPlan::new(9);
        let a = plan.site("same");
        let b = plan.site("same");
        assert!(Arc::ptr_eq(&a, &b));
        a.arm(FaultSpec::always());
        assert!(b.fires());
    }
}

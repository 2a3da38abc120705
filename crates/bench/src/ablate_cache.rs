//! Cache-policy ablation (functional, not simulated): the paper argues
//! the offloaded control plane enables "more flexible and intelligent
//! caching algorithms" tailored to workload characteristics. Here the
//! *real* hybrid cache runs under uniform vs Zipf-skewed random reads and
//! under sequential reads with and without the prefetcher, and we measure
//! the hit rates the policies actually achieve.

use std::sync::Arc;

use dpc_cache::{
    CacheConfig, ControlPlane, HybridCache, PrefetchJob, RaConfig, ReadaheadTable, PAGE_SIZE,
};
use dpc_pcie::DmaEngine;
use dpc_testkit::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::table::{fmt_pct, Table};

/// Run `ops` random reads over `working_set` pages with the given skew
/// (None = uniform). On each miss the page is fetched from a synthetic
/// backend and inserted via the control plane (evicting LRU as needed).
/// Returns the steady-state hit rate.
pub fn random_read_hit_rate(
    cache_pages: usize,
    working_set: u64,
    zipf_theta: Option<f64>,
    ops: usize,
) -> f64 {
    let cache = Arc::new(HybridCache::new(CacheConfig {
        pages: cache_pages,
        bucket_entries: 8,
        mode: 0,
        meta_lockfree: true,
    }));
    let cp = ControlPlane::new(cache.clone(), DmaEngine::new());
    let mut rng = SmallRng::seed_from_u64(7);
    let zipf = zipf_theta.map(|t| Zipf::new(working_set, t));
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut hits = 0u64;
    let mut measured = 0u64;
    let warmup = ops / 4;

    for i in 0..ops {
        let lpn = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(0..working_set),
        };
        let hit = cache.lookup_read(1, lpn, &mut buf);
        if i >= warmup {
            measured += 1;
            if hit {
                hits += 1;
            }
        }
        if !hit {
            // Miss: fetch from the backend, insert clean (control plane
            // evicts the least-recently-touched page when full).
            let page = vec![lpn as u8; PAGE_SIZE];
            let mut inserted = cp.insert_clean(1, lpn, &page);
            if !inserted {
                // Bucket-local eviction failed (all dirty/contended):
                // one more attempt after a global sweep.
                for b in 0..cache_pages / 8 {
                    cp.evict_one(b);
                }
                inserted = cp.insert_clean(1, lpn, &page);
            }
            let _ = inserted;
        }
    }
    hits as f64 / measured.max(1) as f64
}

/// Sequential-read hit rate with and without the DPU readahead. Models
/// the full loop single-threaded: misses feed the adaptive-window table,
/// planned windows are filled through the control plane, and a hit on a
/// marker page triggers planning of the next window.
pub fn sequential_hit_rate(prefetch: bool, pages: u64) -> f64 {
    let cache = Arc::new(HybridCache::new(CacheConfig {
        pages: 1024,
        bucket_entries: 8,
        mode: 0,
        meta_lockfree: true,
    }));
    let mut cp = ControlPlane::new(cache.clone(), DmaEngine::new());
    let table = ReadaheadTable::new(RaConfig::default());
    let mut backend = |_ino: u64, lpn: u64, out: &mut [u8]| -> Option<usize> {
        out.fill(lpn as u8);
        (lpn < pages).then_some(out.len())
    };
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut hits = 0u64;
    for lpn in 0..pages {
        let window = match cache.lookup_read_hint(9, lpn, &mut buf) {
            Some(hint) => {
                hits += 1;
                hint.marker.then(|| table.on_marker(9, lpn)).flatten()
            }
            None => table.on_read(9, lpn, 1),
        };
        if prefetch {
            if let Some(window) = window {
                cp.fill_window(&PrefetchJob { ino: 9, window }, &mut backend, 0);
            }
        }
    }
    hits as f64 / pages as f64
}

pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "Ablation: hybrid-cache hit rate by workload skew (1K-page cache, LRU control plane)",
        &["workload", "working set", "hit rate"],
    );
    for (label, ws, theta) in [
        ("uniform random", 2048u64, None),
        ("uniform random", 8192, None),
        ("zipf 0.9", 8192, Some(0.9)),
        ("zipf 0.99", 8192, Some(0.99)),
    ] {
        let hr = random_read_hit_rate(1024, ws, theta, 40_000);
        t.row(vec![label.into(), format!("{ws} pages"), fmt_pct(hr)]);
    }
    t.note("skew is where the offloaded control plane's policy flexibility pays: same cache, 4-5x the hit rate");

    let mut p = Table::new(
        "Ablation: sequential read hit rate, prefetcher off vs on (functional)",
        &["prefetcher", "hit rate"],
    );
    p.row(vec![
        "off".into(),
        fmt_pct(sequential_hit_rate(false, 2000)),
    ]);
    p.row(vec!["on".into(), fmt_pct(sequential_hit_rate(true, 2000))]);
    p.note("the paper's Figure 8 prefetch effect, measured on the real cache (adaptive window 4..64, marker-triggered)");
    vec![t, p]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_bigger_than_working_set_hits_almost_always() {
        let hr = random_read_hit_rate(1024, 512, None, 20_000);
        assert!(hr > 0.95, "{hr}");
    }

    #[test]
    fn uniform_hit_rate_tracks_cache_fraction() {
        // Working set 4x the cache: steady-state hit rate ~ 25%.
        let hr = random_read_hit_rate(1024, 4096, None, 60_000);
        assert!((0.17..0.33).contains(&hr), "{hr}");
    }

    #[test]
    fn zipf_skew_beats_uniform() {
        let uniform = random_read_hit_rate(1024, 8192, None, 40_000);
        let zipf = random_read_hit_rate(1024, 8192, Some(0.99), 40_000);
        assert!(
            zipf > uniform * 2.5,
            "zipf {zipf} should far exceed uniform {uniform}"
        );
    }

    #[test]
    fn prefetcher_turns_sequential_misses_into_hits() {
        let off = sequential_hit_rate(false, 1000);
        let on = sequential_hit_rate(true, 1000);
        assert!(off < 0.05, "no prefetch -> nearly all misses: {off}");
        assert!(on > 0.9, "prefetch -> nearly all hits: {on}");
    }
}

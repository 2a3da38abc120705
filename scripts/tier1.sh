#!/usr/bin/env bash
# Tier-1 gate: the whole workspace must build, pass every test in debug
# and again in release, and be fmt- and clippy-clean (warnings are
# errors); DESIGN.md's section references and pinned tests must resolve;
# the racing tests run ten times in a row, some on one core; every figure
# table and every example runs once. CI's `tier1` job runs exactly this
# script, and nothing else.
set -euo pipefail
cd "$(dirname "$0")/.."

# `cargo test ARGS -- NAME` passes when NAME matches no test, so a rename
# would quietly turn a by-name step into a no-op. `check_names ARGS --
# NAMES` lists the tests ARGS select and fails unless each NAME is one of
# them whole: its full path, or a `::`-suffix of it (`fs::tests::x` names
# `kvfs::fs::tests::x` and never `fs::tests::x_v2`). `check_filters` is
# the same for a loop's filter, which matches any test whose name holds
# it, as `cargo test ARGS FILTER` selects.
check_names() { match_tests whole "$@"; }
check_filters() { match_tests part "$@"; }
match_tests() {
    local how=$1 args=()
    shift
    while [ "$1" != -- ]; do
        args+=("$1")
        shift
    done
    shift
    local listed found
    listed=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
    for name in "$@"; do
        if [ "$how" = whole ]; then
            found=$(awk -v n="$name" '$0 == n || substr($0, length($0) - length(n) - 1) == "::" n' \
                <<<"$listed")
        else
            found=$(grep -F -- "$name" <<<"$listed" || true)
        fi
        if [ -z "$found" ]; then
            echo "tier1: no test matches '$name' in: cargo test ${args[*]}" >&2
            exit 1
        fi
    done
}

cargo fmt --all --check
# Every "DESIGN.md §N" in the live files — the code and tests, the
# scripts and CI, README, ROADMAP and the verify notes — names a heading
# of DESIGN.md, lists like "§7, §17" included. CHANGES.md and
# EXPERIMENTS.md are history and keep the numbers they were written
# with; the benchmark's own tree is not checked here.
git ls-files -z -- '*.rs' '*.sh' '*.yml' '*.toml' README.md ROADMAP.md '*/SKILL.md' \
    ':!dpc-e2e' |
    xargs -0 perl -CSD -Mutf8 -0777 -ne '
        BEGIN {
            open my $d, "<:encoding(UTF-8)", "DESIGN.md" or die;
            my $design = <$d>;
            $have{$1} = 1 while $design =~ /^#{2,3} (\d+(?:\.\d+)*)\.? /mg;
        }
        my $gap = qr{(?:\s|//[/!]?|#)*};
        while (/DESIGN\.md$gap(§[\d.]*\d(?:(?:,|\s+and|\s+or)?$gap§[\d.]*\d)*)/g) {
            my ($refs, $line) = ($1, 1 + (substr($_, 0, $-[0]) =~ tr/\n//));
            for my $n ($refs =~ /§([\d.]*\d)/g) {
                next if $have{$n};
                print STDERR "tier1: DESIGN.md has no §$n ($ARGV:$line)\n";
                $bad = 1;
            }
        }
        END { exit 1 if $bad }'
# `unsafe` lives in the five files DESIGN.md §3 names, and in no other
# tracked Rust file outside the benchmark's tree.
unsafe_files=$(git grep -lE '\bunsafe\s*(\{|fn\b|impl\b)' -- '*.rs' ':!dpc-e2e' || true)
unsafe_allowed="crates/cache/src/control.rs
crates/cache/src/host.rs
crates/codec/src/crc.rs
crates/ec/src/gf256.rs
crates/pcie/src/alloc.rs"
if [ "$unsafe_files" != "$unsafe_allowed" ]; then
    echo "tier1: \`unsafe\` is in: $(echo $unsafe_files); DESIGN.md §3 allows: $(echo $unsafe_allowed)" >&2
    exit 1
fi
# CI's `chaos` job runs exactly the suites that read the pinned seed: the
# files under tests/ that call `dpc_testkit::seeds()`.
chaos=$(sed -n '/^  chaos:/,$p' .github/workflows/ci.yml | grep -o -- '--test [a-z_]*' |
    cut -d' ' -f2 | sort -u)
seeded=$(git grep -l 'seeds()' -- tests | sed 's|^tests/||; s|\.rs$||' | sort)
if [ "$chaos" != "$seeded" ]; then
    echo "tier1: CI's chaos job runs $(echo $chaos); the seeded suites are $(echo $seeded)" >&2
    exit 1
fi
# Every suite runs the shipped values of the three feature booleans the
# benchmark's probes still pin (ROADMAP item 1(a)): no tracked Rust file
# sets one as a field, outside the benchmark, the figures and `DpcConfig`.
knobs=$(git grep -nE '\b(cache_lockfree|coalesce_flush|meta_neg_cache)\s*:' -- '*.rs' \
    ':!dpc-e2e' ':!crates/bench' ':!crates/core/src/dpc.rs' || true)
if [ -n "$knobs" ]; then
    echo "tier1: only DpcConfig sets cache_lockfree, coalesce_flush or meta_neg_cache:" >&2
    echo "$knobs" >&2
    exit 1
fi
# DESIGN.md §3's inventory has one row per directory under crates/, the
# shims sharing one row: a change that adds or deletes a crate updates the
# table with it.
listed=$(perl -ne '
    next unless /^## 3\. / .. /^## 4\. /;
    next unless /^\|([^|]*)\|/;
    my $cell = $1;
    print "$1\n" while $cell =~ /`(crates\/[^`]+)`/g;' DESIGN.md | sort)
present=$(ls -d crates/*/ | sed 's|/$||; s|^crates/shim-.*|crates/shim-*|' | sort -u)
if [ "$listed" != "$present" ]; then
    echo "tier1: DESIGN.md §3 lists $(tr '\n' ' ' <<<"$listed"); crates/ holds" \
        "$(tr '\n' ' ' <<<"$present")" >&2
    exit 1
fi
# The product stands alone (DESIGN.md §3): the modelled testbed and the
# tests' model — the simulator, the virtio-fs baseline, the testkit with
# its workload generators, and the figures with their prices — are leaves
# that neither `dpc-core` nor the `dpc` facade reaches through a normal
# edge, and the base crate `dpc-fault` names no `dpc-*` crate at all.
leaves="dpc-sim dpc-virtiofs dpc-testkit dpc-bench"
for pkg in dpc-core dpc; do
    deps=$(cargo tree -e normal --offline -p "$pkg" --prefix none | cut -d' ' -f1 | sort -u)
    for leaf in $leaves; do
        if grep -qx -- "$leaf" <<<"$deps"; then
            echo "tier1: $pkg depends on $leaf; the product names none of: $leaves" >&2
            exit 1
        fi
    done
done
base=$(cargo tree -e normal --offline -p dpc-fault --prefix none | cut -d' ' -f1 |
    grep -x -- 'dpc-.*' | grep -vx dpc-fault || true)
if [ -n "$base" ]; then
    echo "tier1: dpc-fault depends on $(echo $base); it names no dpc-* crate" >&2
    exit 1
fi
cargo build --workspace --release
# Every invariant DESIGN.md pins names a test that exists: each name in
# backticks after "Pinned by" must match a test of the workspace. This is
# the one by-name list; the loops below name only what they repeat.
mapfile -t pinned < <(perl -0777 -ne '
    while (/Pinned by((?:\s*(?:and\s+)?`[^`]+`,?)+)/g) {
        my $names = $1;
        print "$1\n" while $names =~ /`([^`]+)`/g;
    }' DESIGN.md | sort -u)
check_names --release -q --workspace -- "${pinned[@]}"
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
# Every test again as it ships: the lock-free paths, the racing tests and
# the zero-allocation counts are nanoseconds here, and the CRC32C and
# GF(256) kernels run every tier this machine can execute against their
# bitwise / scalar oracles (DESIGN.md §11.3).
cargo test --workspace --release -q
# The CRC tier this machine detected, printed: the oracle tests above ran
# every tier up to it, so a runner without AVX-512 and VPCLMULQDQ shows
# here that it never ran the fold tier's.
check_names --release -q -p dpc-codec --lib -- crc::tests::update_is_the_detected_tier
cargo test --release -q -p dpc-codec --lib crc::tests::update_is_the_detected_tier -- \
    --nocapture 2>&1 | grep '^crc32c tier: '
# KVFS's fill fence (DESIGN.md §9.2) under two readers racing a
# create/unlink churner, ten times in a row: a verdict that needs the
# scheduler (the unfenced fill stranded the name in 6-8 of 200 runs) must
# fail here, not pass nine times in ten.
check_names --release -q -p dpc-kvfs --lib -- \
    a_lookup_racing_create_and_unlink_never_strands_the_name
for run in $(seq 1 10); do
    cargo test --release -q -p dpc-kvfs --lib \
        a_lookup_racing_create_and_unlink_never_strands_the_name
done
# The logical size (DESIGN.md §4.1), ten times in a row: a `stat` racing
# writes and evictions at the log tier never caches a size from before
# them (it failed 30 runs in 30 before); with no size reconcile after the
# flush, the racing reopen test and the stress suite, whose final check
# reads each file back from the store (a truncate that let a racing flush
# land past its cut failed it in 6 of 50 runs).
check_names --release -q --test size_reconcile -- \
    a_stat_racing_writes_and_evictions_never_caches_a_size_from_before \
    a_reopen_sees_every_closed_write_while_another_adapter_fsyncs
check_names --release -q --test stress -- sustained_mixed_stress
for run in $(seq 1 10); do
    cargo test --release -q --test size_reconcile \
        a_stat_racing_writes_and_evictions_never_caches_a_size_from_before
    cargo test --release -q --test size_reconcile \
        a_reopen_sees_every_closed_write_while_another_adapter_fsyncs
    cargo test --release -q --test stress sustained_mixed_stress
done
# The readahead suite (DESIGN.md §8.3) ten times in a row: its chaos run
# must see a fault on every seed.
for run in $(seq 1 10); do
    cargo test --release -q --test readahead
done
# Who waits on the link and what wakes it (DESIGN.md §5.4), ten runs in a
# row on ONE core: the doorbell handshake, the pool's check-poll-yield
# waiter, the service threads' yield tier and doorbell park, the
# prefetcher's park, shutdown and crash with every thread
# asleep — then the suites with more threads than anything else. Threads
# > cores is where a lost wake-up hangs and an unbounded spin shows (each
# costs a whole timeslice per turn), where `link_wait`'s "a closed-loop
# stream parks nobody" is an exact zero, and where a reader holding the
# transport buffer's lock too long, or a DPU read taking its locks in the
# wrong order under that lock's write side, would deadlock; so would a
# commit taking its shard guards against a scan's order, and an rmdir
# racing a name into its victim would orphan it. Built first, so that no
# build runs on the one core.
cargo test --release -q --no-run -p dpc-pcie -p dpc-nvmefs -p dpc-cache -p dpc-core \
    -p dpc-kvstore -p dpc-kvfs
cargo test --release -q --no-run --test link_wait --test concurrent_adapters --test stress \
    --test fault_recovery
check_filters --release -q -p dpc-pcie --lib -- sleeper
check_filters --release -q -p dpc-cache --lib -- a_writer_waiting
check_filters --release -q -p dpc-core --lib -- runtime
check_names --release -q -p dpc-kvstore --lib -- \
    commit_never_deadlocks_against_scans_and_sub_writes
check_names --release -q -p dpc-kvfs --lib -- rmdir_never_orphans_a_concurrent_create
for run in $(seq 1 10); do
    taskset -c 0 cargo test --release -q -p dpc-pcie --lib sleeper
    taskset -c 0 cargo test --release -q -p dpc-nvmefs --lib
    taskset -c 0 cargo test --release -q -p dpc-cache --lib a_writer_waiting
    taskset -c 0 cargo test --release -q -p dpc-core --lib runtime
    taskset -c 0 cargo test --release -q --test link_wait --test concurrent_adapters \
        --test stress --test fault_recovery
    taskset -c 0 cargo test --release -q -p dpc-kvstore --lib \
        commit_never_deadlocks_against_scans_and_sub_writes
    taskset -c 0 cargo test --release -q -p dpc-kvfs --lib \
        rmdir_never_orphans_a_concurrent_create
done
# Every figure and ablation table of the modelled testbed (DESIGN.md
# §14.3) is built once, so a table that panics fails here.
cargo run --release -q -p dpc-bench --bin dpc-experiments -- all >/dev/null
# Every example runs once, as the README runs it, so an example that
# panics fails here; the test suites only compile them.
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done
# The benchmark is a workspace of its own built against crates/*: a crate
# API change that breaks it must fail here, not at review. Building it
# rewrites its Cargo.lock, which the benchmark's own change commits; the
# gate puts the committed one back, so a run leaves the tree clean.
lock=dpc-e2e/Cargo.lock
saved_lock=$(mktemp)
cp "$lock" "$saved_lock"
trap 'cp "$saved_lock" "$lock"; rm -f "$saved_lock"' EXIT
cargo build --release --manifest-path dpc-e2e/Cargo.toml
cargo test --release --manifest-path dpc-e2e/Cargo.toml
# The count ledger: every workload's three per-op counts at seed 7 and
# `--seconds 1` equal scripts/counts.tsv to the last digit, so a change
# that moves a count says so in that file's diff.
scripts/counts.sh

echo "tier1: OK"

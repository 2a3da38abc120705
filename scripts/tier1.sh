#!/usr/bin/env bash
# Tier-1 gate: the whole workspace must build, pass every test, and be
# fmt- and clippy-clean (warnings are errors); the named tests below run
# in release, some of them ten times; and DESIGN.md's section references
# and pinned tests must resolve. CI's `tier1` job runs exactly this
# script, and nothing else.
set -euo pipefail
cd "$(dirname "$0")/.."

# `cargo test ARGS -- NAME` passes when NAME matches no test, so a rename
# would quietly turn a by-name step into a no-op. `check_names ARGS --
# NAMES` lists the tests ARGS select and fails unless each NAME matches
# at least one of them; `named ARGS -- NAMES` checks, then runs them.
check_names() {
    local args=()
    while [ "$1" != -- ]; do
        args+=("$1")
        shift
    done
    shift
    local listed
    listed=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
    for name in "$@"; do
        if ! grep -qF -- "$name" <<<"$listed"; then
            echo "tier1: no test matches '$name' in: cargo test ${args[*]}" >&2
            exit 1
        fi
    done
}
named() {
    check_names "$@"
    cargo test "$@"
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
# The product stands alone (DESIGN.md §3): the modelled testbed — the
# simulator, the virtio-fs baseline, the workload generators and the
# figures with their prices — is leaves that neither `dpc-core` nor the
# `dpc` facade reaches through a normal edge, and the base crate
# `dpc-fault` names no `dpc-*` crate at all.
leaves="dpc-sim dpc-virtiofs dpc-workload dpc-bench"
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
# backticks after "Pinned by" must match a test of the workspace.
mapfile -t pinned < <(perl -0777 -ne '
    while (/Pinned by((?:\s*(?:and\s+)?`[^`]+`,?)+)/g) {
        my $names = $1;
        print "$1\n" while $names =~ /`([^`]+)`/g;
    }' DESIGN.md | sort -u)
check_names --release -q --workspace -- "${pinned[@]}"
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
# The CRC32C and GF(256) / Reed–Solomon kernels in release, every tier
# this machine can execute against the bitwise / scalar oracle, plus the
# pinned parity bytes (DESIGN.md §11.3; the debug run is the workspace's
# above). Then the transport's own suite as it ships.
cargo test --release -q -p dpc-codec -p dpc-ec
check_names --release -q -p dpc-codec --lib -- crc::tests::
# The CRC tier this machine detected, printed: the oracle tests above ran
# every tier up to it, so a runner without AVX-512 and VPCLMULQDQ shows
# here that it never ran the fold tier's.
check_names --release -q -p dpc-codec --lib -- crc::tests::update_is_the_detected_tier
cargo test --release -q -p dpc-codec --lib crc::tests::update_is_the_detected_tier -- \
    --nocapture 2>&1 | grep '^crc32c tier: '
cargo test --release -q -p dpc-nvmefs
# The host metadata cache's coherence and budget, and the namespace
# path's crossing budget, in release (the warm path is nanoseconds there,
# and the differential makes ~200 instances): warm answers == a cold
# instance after every op, a tree 4x the budget stays inside it, a cached
# file's byte cost, the zero-allocation warm path, and an inode drop that
# visits only what the inode has resident; readers racing the lock-free
# hit, `lookup_read_hint` and the locked lookup on one readahead marker
# page consume it exactly once (DESIGN.md §4.2). With them the seqlock storms
# and the seqlock-vs-lock proptest, the multi-threaded adapter suites on
# every core, and the multi-server suite (data-server crash and restart
# heal through read repair).
cargo test --release -q --test lockfree_meta --test meta_cache --test namespace_crossings \
    --test stress --test concurrent_adapters --test multi_server
check_names --release -q --test meta_cache -- \
    warm_answers_equal_a_cold_instance_after_every_op \
    a_tree_four_times_the_budget_stays_inside_it_and_stays_right \
    a_cached_file_costs_under_96_bytes
cargo test --release -q -p dpc-core --test zero_alloc_meta
named --release -q -p dpc-cache --lib -- dropping_an_inode_visits \
    host::tests::a_readahead_marker_is_consumed_by_exactly_one_racing_reader
# KVFS's caches (DESIGN.md §9.2), in release and by name. The fill fence
# under two readers racing a create/unlink churner runs ten times in a
# row: a verdict that needs the scheduler (the unfenced fill stranded the
# name in 6-8 of 200 runs) must fail here, not pass nine times in ten.
# Then two hard links unlinked at once, and the warm walk that allocates
# nothing.
check_names --release -q -p dpc-kvfs --lib -- \
    a_lookup_racing_create_and_unlink_never_strands_the_name
for run in $(seq 1 10); do
    cargo test --release -q -p dpc-kvfs --lib \
        a_lookup_racing_create_and_unlink_never_strands_the_name
done
named --release -q -p dpc-kvfs --lib -- \
    two_names_of_one_inode_unlinked_at_once_free_it_exactly_once
cargo test --release -q -p dpc-kvfs --test zero_alloc_walk
# One KV request per namespace call (DESIGN.md §9.3), in release and by
# name: each create, link, mkdir, symlink, unlink, rmdir and rename is one
# conditional multi-key commit (the big file's last name the one
# exception); a rename over a name never lets it vanish, and a created
# name always has its attribute (both failed 10 runs in 10 before); no
# create, symlink, link or rename into a directory outlives its rmdir
# (failed 6 runs in 6 before). The store's commit: a refused one writes
# nothing and counts one request, puts vs deletes, one fault pause. The
# deadlock bound and the rmdir race are in the one-core loop below too.
named --release -q -p dpc-kvfs --lib -- \
    fs::tests::every_namespace_mutation_is_one_kv_request \
    fs::tests::a_rename_over_a_name_never_lets_the_destination_vanish \
    fs::tests::a_created_name_always_has_its_attribute \
    fs::tests::rmdir_never_orphans_a_concurrent_create
named --release -q -p dpc-kvstore --lib -- \
    store::tests::a_refused_commit_writes_nothing_and_still_counts_one_request \
    store::tests::a_commit_is_a_delete_only_when_every_write_is_a_delete \
    store::tests::a_firing_fault_pauses_a_commit_once
# Refused flushes and uncached I/O, in release and by name: a scoped
# fsync whose page the backend refuses says EIO; one whose page a writer
# holds through the pass is not answered Ok until the page lands (the DPU
# says EAGAIN, the host asks again); a flush pass hands the store one
# batch per inode, refused whole or landed whole, and a crash after the
# store took one leaves it dirty for recovery to write again; direct
# reads, direct writes and writev keep the cache coherent; oversize direct
# I/O and a writev of more segments than an SGL holds cross in pieces,
# never panic. A clean teardown drains every dirty page, closed or not, at
# either fsync tier.
named --release -q --test writeback -- \
    fsync_reports_a_flush_the_backend_refused \
    a_scoped_fsync_waits_out_a_writer_holding_its_page \
    a_scoped_fsync_of_scattered_overwrites_is_one_write_request \
    teardown_drains_a_write_that_was_never_closed \
    teardown_drains_a_log_tier_write_that_was_fsynced_and_closed
named --release -q -p dpc-core --test runtime_lifecycle -- \
    drop_joins_dpu_threads_and_flushes_nothing_dirty
named --release -q -p dpc-cache --lib -- \
    control::tests::a_page_a_writer_holds_is_skipped_and_reported_busy \
    control::tests::an_inodes_runs_are_one_batch_up_to_the_budget \
    control::tests::a_refused_batch_stays_dirty_whole_and_the_next_pass_retries_it \
    control::tests::a_crash_after_the_backend_took_a_batch_leaves_it_dirty
named --release -q --test wal_crash -- \
    a_crash_after_the_store_took_a_batch_recovers_by_re_flushing_it
named --release -q --test direct_io -- \
    a_buffered_read_after_a_direct_write_sees_the_new_bytes \
    a_direct_write_survives_the_next_buffered_fsync \
    a_direct_read_sees_a_dirty_page \
    an_oversize_direct_write_crosses_in_pieces \
    an_oversize_writev_crosses_in_pieces \
    an_oversize_direct_read_reads_in_pieces \
    a_writev_of_more_segments_than_an_sgl_holds_crosses_in_pieces
# The attribute rule (DESIGN.md §9.4), in release and by name: a flush
# batch of N blocks is one write request of N + 1 keys, the attribute
# last, and no put; growth and promotion reach the store before the sink
# returns; a promotion is one get, one sub-write (the small value's bytes,
# the runs, the attribute) and then the value's delete, and a reader
# racing it never reads zeros; a full-length sub-write of the attribute
# leaves what a put leaves; a switch tripped between two batches leaves
# the second unwritten; a tripped crash switch drains nothing at teardown;
# each flush site moves the mtime with its batch, read through a second
# instance; a crash after a batch lands leaves its blocks and its mtime
# together. And `stat` of an open file reports the host's size, a reopen
# sees every closed write while another adapter fsyncs the file, a
# reopen at the log tier sees the dirty pages its last close left, and a
# `stat` racing writes and evictions at the log tier never caches a size
# from before them — ten runs in a row, as it failed 30 runs in 30 before.
# A write that fails after part of it landed, buffered or direct, is short
# and sized to what landed (DESIGN.md §4.1). With no size reconcile after
# the flush, the racing reopen test and the stress suite, whose final
# check reads each file back from the store, run ten times in a row too:
# a truncate that let a racing flush land past its cut failed the stress
# check in 6 of 50 runs.
named --release -q -p dpc-kvfs --lib -- \
    fs::tests::n_overwrites_and_their_attribute_are_one_sub_write \
    fs::tests::a_batch_with_growth_puts_the_attribute_once_and_writes_every_run \
    fs::tests::growth_and_promotion_put_the_attribute_before_returning \
    fs::tests::a_promotion_is_one_get_one_sub_write_then_one_delete \
    fs::tests::a_reader_racing_a_promotion_never_reads_zeros
named --release -q -p dpc-kvstore --lib -- \
    store::tests::a_full_length_sub_write_leaves_what_a_put_leaves
named --release -q -p dpc-cache --lib -- \
    control::tests::a_switch_tripped_between_two_batches_leaves_the_second_unwritten
named --release -q -p dpc-core --lib -- \
    dispatch::tests::a_pass_writes_each_block_once_and_each_inode_attribute_once \
    dispatch::tests::a_scoped_fsync_past_a_page_a_writer_holds_is_eagain_until_it_lands \
    dispatch::tests::growth_and_promotion_reach_the_store_before_the_sink_returns \
    runtime::tests::the_shutdown_drain_puts_each_inode_attribute_once \
    runtime::tests::a_tripped_crash_switch_suppresses_the_drain
named --release -q --test attr_settle -- \
    a_scoped_fsync_puts_its_inode_attribute_once \
    an_eviction_flush_puts_each_inode_attribute_once \
    the_shutdown_drain_puts_each_inode_attribute_once \
    recovery_puts_each_inode_attribute_once \
    a_crash_after_a_batch_lands_leaves_its_blocks_and_its_mtime_together
named --release -q --test size_reconcile -- \
    stat_of_an_open_file_reports_its_unflushed_growth \
    a_reopen_sees_every_closed_write_while_another_adapter_fsyncs \
    a_log_tier_reopen_sees_what_was_closed \
    a_stat_racing_writes_and_evictions_never_caches_a_size_from_before \
    a_buffered_write_whose_later_window_fails_is_short_and_sized_to_what_landed \
    a_direct_write_whose_later_piece_fails_is_short_and_sized_to_what_landed
check_names --release -q --test stress -- sustained_mixed_stress
for run in $(seq 1 10); do
    cargo test --release -q --test size_reconcile \
        a_stat_racing_writes_and_evictions_never_caches_a_size_from_before
    cargo test --release -q --test size_reconcile \
        a_reopen_sees_every_closed_write_while_another_adapter_fsyncs
    cargo test --release -q --test stress sustained_mixed_stress
done
# Crash consistency (DESIGN.md §13), in release and by name: buffered
# writes and fsyncs log nothing; an uncached write logs its payload and
# retires at its ack; FsyncMode::Log on the default config recovers every
# acknowledged byte; a buffered write dead at its read-modify-write
# crossing leaves none of its bytes; an uncached write and a truncate in
# flight at the crash replay; recovery adopts the dirty pages, and refuses
# while an adapter of the crashed instance is alive; a warm 8 KiB
# overwrite allocates nothing; a region shorter than the log's header
# scans torn; a page being claimed is never claimed twice.
named --release -q --test wal_crash -- \
    buffered_writes_and_fsyncs_log_nothing \
    an_uncached_write_logs_its_payload_and_retires_at_ack \
    log_durable_fsync_is_a_noop_that_still_recovers \
    a_buffered_write_dead_at_its_rmw_crossing_leaves_none_of_its_bytes \
    an_uncached_write_and_a_truncate_in_flight_at_the_crash_replay
named --release -q -p dpc-core --test runtime_lifecycle -- \
    recover_adopts_the_dirty_pages_and_hands_back_a_drained_log \
    recovery_refuses_while_an_adapter_of_the_crashed_instance_is_alive
cargo test --release -q -p dpc-core --test zero_alloc_write
named --release -q -p dpc-cache --lib -- \
    wal::tests::a_region_shorter_than_its_header_scans_torn \
    host::tests::a_page_being_claimed_is_waited_for_not_claimed_twice
# One KV request per big-file read, and per flush batch (DESIGN.md §9.4),
# in release and by name: a read spanning n blocks is 1 sub-read and n
# keys; it returns exactly the block-by-block bytes (holes, short values,
# partial blocks, EOF, a small file); a block rewritten whole during
# ranged reads is never torn; a warm 16-block read allocates nothing. Its
# twin: a write of n blocks, or of many runs, is 1 sub-write and n keys,
# leaving what one write per run leaves, and a warm in-place batch
# allocates nothing. The store's multi-get and multi-put, its counting
# rule, and every counted request waiting out a fault. A 0-byte file has
# no small-file KV. A miss on a full cache tries no fill. Then the
# readahead suite ten times in a row: its chaos run must see a fault on
# every seed.
named --release -q -p dpc-kvfs --lib -- \
    fs::tests::a_big_read_is_one_sub_read_whatever_blocks_it_spans \
    fs::tests::a_multi_key_read_returns_exactly_the_block_by_block_bytes \
    fs::tests::a_ranged_read_never_tears_a_block \
    fs::tests::a_zero_byte_file_has_no_small_file_kv \
    fileobj::tests::block_aligned_round_trip \
    fileobj::tests::runs_write_what_write_at_per_run_writes_in_one_request
cargo test --release -q -p dpc-kvfs --test zero_alloc_read --test zero_alloc_write
named --release -q -p dpc-kvstore --lib -- \
    store::tests::a_multi_get_is_one_request_and_reads_what_read_sub_reads \
    store::tests::a_multi_put_is_one_request_and_writes_what_write_sub_writes \
    store::tests::every_request_counts_what_it_is \
    store::tests::every_counted_request_waits_out_a_fault \
    store::tests::put_if_absent_waits_out_a_fault_like_every_mutation
cargo test --release -q -p dpc-kvstore --test proptest_store
named --release -q --test end_to_end_kvfs -- \
    a_miss_run_fills_free_slots_clean_and_leaves_a_full_cache_alone
cargo test --release -q --test readahead --no-run
for run in $(seq 1 10); do
    cargo test --release -q --test readahead
done
# The pool's one staging and one waiting function (DESIGN.md §5.1), in
# release (the whole `dpc-nvmefs` suite above runs them; these names are
# the rename guard): its unit tests (out-of-order routing, stealing a
# full queue, the reissue, a late CQE's CID carrying the next call its own
# reply, stage-N / wait-N order across two queues with a payload per
# request, a CID staying taken while its reply is read in the transport
# buffer, a CQE claiming more reply than its command declared being a
# transport error), the warm transport and pool allocating nothing (with
# and without a fault plan on the target). By name: warm 8 KiB buffered
# read misses and direct reads allocating nothing on the calling thread,
# and warm reads served into their transport buffers allocating nothing
# on the DPU.
check_names --release -q -p dpc-nvmefs --lib -- \
    pool::tests::concurrent_callers_share_one_queue \
    pool::tests::out_of_order_completions_route_by_cid \
    pool::tests::full_preferred_queue_steals_a_neighbour \
    pool::tests::a_reissued_command_restages_its_inline_header_on_the_fresh_cid \
    pool::tests::a_cid_freed_by_a_late_cqe_carries_the_next_call_its_own_reply \
    pool::tests::stage_n_wait_n_restores_request_order \
    pool::tests::a_cid_stays_taken_while_its_reply_is_read \
    pool::tests::a_cqe_claiming_more_reply_than_its_command_declared_is_a_transport_error \
    pool::tests::a_wide_cqe_claiming_more_header_than_it_holds_is_a_transport_error
check_names --release -q -p dpc-nvmefs --test zero_alloc -- \
    warm_batched_serve_loop_allocates_nothing_per_op \
    warm_serve_loop_with_a_fault_plan_attached_allocates_nothing \
    warm_pool_call_and_eight_staged_reads_allocate_nothing_on_the_host_thread
named --release -q -p dpc-core --test zero_alloc_miss -- \
    a_warm_8k_read_miss_allocates_nothing_on_the_host_thread \
    a_warm_8k_direct_read_allocates_nothing_on_the_host_thread \
    a_warm_read_served_in_place_allocates_nothing_on_the_dpu
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
# racing a name into its victim would orphan it. A read the link keeps
# shedding says EIO buffered or direct (in `fault_recovery`).
cargo test --release -q --no-run -p dpc-pcie -p dpc-nvmefs -p dpc-cache -p dpc-core \
    -p dpc-kvstore -p dpc-kvfs
cargo test --release -q --no-run --test link_wait --test concurrent_adapters --test stress \
    --test fault_recovery
check_names --release -q -p dpc-pcie --lib -- sleeper
check_names --release -q -p dpc-cache --lib -- a_writer_waiting
check_names --release -q -p dpc-core --lib -- runtime
check_names --release -q --test concurrent_adapters -- \
    reads_served_in_place_on_one_queue_stay_byte_exact
check_names --release -q --test fault_recovery -- \
    a_read_the_link_keeps_shedding_is_eio_buffered_or_direct
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
# One way across each end of a queue pair, and the link's DMA budget
# (DESIGN.md §12.3), in release: the exact per-path table by name; the
# raw-header cases in `queue.rs` (the 8 KiB write's 4 DMAs, corrupt SQEs
# refused, a command too large for its buffer refused before it is sent,
# the header-DMA and SGL proptests, batched == one-per-doorbell wire
# bytes, a buffered header's page landing apart, a reply header taking a
# DMA only when neither CQE form holds it, both CQE forms at every header
# length, every response round-tripping), which the whole `dpc-nvmefs`
# suite above runs; and by name the dispatcher's replies, a read served
# in place charged and answered exactly as one copied in, a read longer
# than its read side refused before the backend, an uncached readdir
# sized to the buffer, an oversize command as EINVAL, fig6's 4 vs 11 DMAs
# and the ablation's doorbells per op.
named --release -q --test end_to_end_kvfs -- link_dma_budget_of_each_data_path
check_names --release -q -p dpc-nvmefs --lib -- \
    queue::tests::raw_8k_write_costs_exactly_4_dmas \
    queue::tests::corrupt_sqe_ranges_are_refused_not_followed \
    queue::tests::oversized_payload_rejected \
    queue::tests::a_header_costs_a_dma_iff_it_does_not_fit \
    queue::tests::sgl_reassembles_and_counts_dmas \
    queue::tests::batched_and_single_submission_produce_identical_wire_bytes \
    queue::tests::a_buffered_header_and_the_payload_sharing_its_page_land_apart \
    queue::tests::a_reply_header_costs_a_dma_iff_neither_cqe_form_holds_it \
    sqe::tests::every_header_length_round_trips_in_both_forms \
    filemsg::tests::response_round_trips
named --release -q -p dpc-core --test dispatcher_unit -- \
    every_reply_fits_what_its_request_declared \
    a_reused_reply_buffer_never_leaks_stale_bytes \
    a_listing_whose_trail_would_not_fit_beside_it_is_erange \
    a_read_served_in_place_equals_the_scratch_serve \
    a_read_longer_than_its_read_side_is_refused_before_the_backend
named --release -q -p dpc-pcie --lib -- \
    tests::an_in_place_write_is_charged_per_page_of_what_it_produced
named --release -q --test direct_io -- \
    an_uncached_readdir_asks_for_what_the_transport_buffer_holds \
    a_command_larger_than_its_transport_buffer_is_einval_not_a_panic
# The modelled figures (DESIGN.md §14.3): every nvme-fs command crosses
# the link once, through `dpc_bench::link::Link`; then every figure and
# ablation table is built once, so a table that panics fails here.
named --release -q -p dpc-bench --lib -- \
    fig6::tests::functional_dma_counts_match_figures_2_and_4 \
    ablate::tests::batching_amortizes_doorbells_exactly \
    fig6::tests::a_raw_nvmefs_command_crosses_the_link_once \
    fig7::tests::a_kvfs_op_crosses_the_link_once \
    fig8::tests::a_kvfs_miss_crosses_the_link_once \
    fig9::tests::a_dpc_op_crosses_the_link_once \
    table2::tests::a_kvfs_chunk_crosses_the_link_once \
    ablate::tests::a_queue_sweep_write_crosses_the_link_once
cargo run --release -q -p dpc-bench --bin dpc-experiments -- all >/dev/null
# The DFS stripe path (DESIGN.md §10.1), in release and by name: a block
# is one stripe cell, so a healthy read is 1 data-server RPC, an
# overwrite 1 + m and a degraded read at most k + 1, warm reads and
# overwrites allocate nothing; interleaved and concurrent overwrites from
# two clients keep every stripe's parity exact under every <= m loss
# pattern; a client never reads back a block it owes a restore; a crashed
# server's cells are lost, not zeros; rot is never blessed with a fresh
# CRC; the MDS proxy path refuses what it cannot make recoverable, and
# bad input without a panic; crash and restart heal by read repair.
cargo test --release -q -p dpc-dfs --test stripe_protocol --test block_path --test zero_alloc_block
named --release -q -p dpc-dfs --lib -- \
    backend::tests::a_proxied_write_that_lands_nowhere_is_unrecoverable_and_keeps_the_size \
    backend::tests::an_acknowledged_proxied_write_reads_back_once_the_servers_return \
    backend::tests::bad_proxied_input_is_invalid_argument_not_a_panic \
    backend::tests::partial_tail_block_round_trips \
    client::packing_tests::spanning_small_io_is_invalid_argument
check_names --release -q --test multi_server -- \
    data_server_crash_and_restart_heals_through_read_repair
# A DPU is one DFS client (DESIGN.md §10.2): two host threads on two
# queues share its owed restores, lazy sizes, metadata sync and
# delegations.
named --release -q --test end_to_end_dfs -- \
    a_restore_owed_on_one_queue_is_read_on_the_other \
    a_getattr_on_one_queue_sees_growth_written_on_the_other \
    a_sync_on_one_queue_settles_sizes_written_on_the_other \
    getattrs_from_two_queues_never_recall_the_dpus_own_delegation
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

echo "tier1: OK"

#!/usr/bin/env bash
# Tier-1 gate: the whole workspace must build, pass every test, and be
# fmt- and clippy-clean (warnings are errors). CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --workspace --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
# The host metadata cache's coherence and budget, in release (the warm
# path is nanoseconds there, and the differential makes ~200 instances):
# warm answers == a cold instance after every op, a tree 4x the budget
# stays inside it, a cached file's byte cost, the zero-allocation warm
# path, and an inode drop that visits only what the inode has resident.
cargo test --release -q --test meta_cache -- \
    warm_answers_equal_a_cold_instance_after_every_op \
    a_tree_four_times_the_budget_stays_inside_it_and_stays_right \
    a_cached_file_costs_under_96_bytes
cargo test --release -q -p dpc-core --test zero_alloc_meta
cargo test --release -q -p dpc-cache --lib dropping_an_inode_visits
# KVFS's caches (DESIGN.md §14 "The KVFS side"), in release and by name.
# The fill fence under two readers racing a create/unlink churner runs ten
# times in a row: a verdict that needs the scheduler (the unfenced fill
# stranded the name in 6-8 of 200 runs) must fail here, not pass nine
# times in ten. Then two hard links unlinked at once, and the warm walk
# that allocates nothing.
cargo test --release -q -p dpc-kvfs --lib --no-run
for run in $(seq 1 10); do
    cargo test --release -q -p dpc-kvfs --lib \
        a_lookup_racing_create_and_unlink_never_strands_the_name
done
cargo test --release -q -p dpc-kvfs --lib \
    two_names_of_one_inode_unlinked_at_once_free_it_exactly_once
cargo test --release -q -p dpc-kvfs --test zero_alloc_walk
# Refused flushes and uncached I/O, in release and by name: a scoped
# fsync whose page the backend refuses says EIO; direct reads, direct
# writes and writev keep the cache coherent; oversize direct I/O and a
# writev of more segments than an SGL holds cross in pieces, never panic.
cargo test --release -q --test writeback fsync_reports_a_flush_the_backend_refused
cargo test --release -q --test direct_io -- \
    a_buffered_read_after_a_direct_write_sees_the_new_bytes \
    a_direct_write_survives_the_next_buffered_fsync \
    a_direct_read_sees_a_dirty_page \
    an_oversize_direct_write_crosses_in_pieces \
    an_oversize_writev_crosses_in_pieces \
    an_oversize_direct_read_reads_in_pieces \
    a_writev_of_more_segments_than_an_sgl_holds_crosses_in_pieces
# The pool's one staging and one waiting function (DESIGN.md §7), in
# release and by name: its unit tests (out-of-order routing, stealing a
# full queue, the reissue, a late CQE's CID carrying the next call its own
# reply, stage-N / wait-N order across two queues), the warm transport and
# pool allocating nothing, a warm 8 KiB read miss allocating nothing on
# the calling thread, and a read the link keeps shedding saying EIO
# buffered or direct. Then the suites with more threads than cores, ten
# times in a row on one core.
cargo test --release -q -p dpc-nvmefs --lib -- \
    pool::tests::concurrent_callers_share_one_queue \
    pool::tests::out_of_order_completions_route_by_cid \
    pool::tests::full_preferred_queue_steals_a_neighbour \
    pool::tests::a_reissued_command_restages_its_inline_header_on_the_fresh_cid \
    pool::tests::a_cid_freed_by_a_late_cqe_carries_the_next_call_its_own_reply \
    pool::tests::stage_n_wait_n_restores_request_order
cargo test --release -q -p dpc-nvmefs --test zero_alloc
cargo test --release -q -p dpc-core --test zero_alloc_miss
cargo test --release -q --test fault_recovery \
    a_read_the_link_keeps_shedding_is_eio_buffered_or_direct
cargo test --release -q --no-run --test concurrent_adapters --test link_wait
for run in $(seq 1 10); do
    taskset -c 0 cargo test --release -q --test concurrent_adapters --test link_wait
done
# The benchmark is a workspace of its own built against crates/*: a crate
# API change that breaks it must fail here, not at review.
cargo build --release --manifest-path dpc-e2e/Cargo.toml
cargo test --release --manifest-path dpc-e2e/Cargo.toml

echo "tier1: OK"

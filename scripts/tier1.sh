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
# One KV request per namespace call (DESIGN.md §14.2), in release and by
# name: each create, link, mkdir, symlink, unlink, rmdir and rename is one
# conditional multi-key commit (the big file's last name the one
# exception); a rename over a name never lets it vanish, and a created
# name always has its attribute (both failed 10 runs in 10 before). The
# store's commit: a refused one writes nothing and counts one request,
# puts vs deletes, one fault pause. The deadlock bound is in the one-core
# loop below.
cargo test --release -q -p dpc-kvfs --lib -- \
    fs::tests::every_namespace_mutation_is_one_kv_request \
    fs::tests::a_rename_over_a_name_never_lets_the_destination_vanish \
    fs::tests::a_created_name_always_has_its_attribute
cargo test --release -q -p dpc-kvstore --lib -- \
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
# never panic.
cargo test --release -q --test writeback -- \
    fsync_reports_a_flush_the_backend_refused \
    a_scoped_fsync_waits_out_a_writer_holding_its_page \
    a_scoped_fsync_of_scattered_overwrites_is_one_write_request
cargo test --release -q -p dpc-cache --lib -- \
    control::tests::a_page_a_writer_holds_is_skipped_and_reported_busy \
    control::tests::an_inodes_runs_are_one_batch_up_to_the_budget \
    control::tests::a_refused_batch_stays_dirty_whole_and_the_next_pass_retries_it \
    control::tests::a_crash_after_the_backend_took_a_batch_leaves_it_dirty
cargo test --release -q --test wal_crash \
    a_crash_after_the_store_took_a_batch_recovers_by_re_flushing_it
cargo test --release -q --test direct_io -- \
    a_buffered_read_after_a_direct_write_sees_the_new_bytes \
    a_direct_write_survives_the_next_buffered_fsync \
    a_direct_read_sees_a_dirty_page \
    an_oversize_direct_write_crosses_in_pieces \
    an_oversize_writev_crosses_in_pieces \
    an_oversize_direct_read_reads_in_pieces \
    a_writev_of_more_segments_than_an_sgl_holds_crosses_in_pieces
# The attribute rule (DESIGN.md §9.2), in release and by name: N
# overwrites of one inode cost one block-write request (N keys) and one
# attribute put; growth and promotion put it before the sink returns, once
# per batch; a tripped crash switch stops the sink, owed mtime included;
# each of the five flush sites moves the mtime once per inode per pass,
# read through a second instance; a crash between the blocks and the
# settle keeps the pre-flush mtime. And `stat` of an open file reports the
# host's size.
cargo test --release -q -p dpc-kvfs --lib -- \
    fs::tests::n_overwrites_settled_once_cost_one_sub_write_and_one_put \
    fs::tests::a_batch_with_growth_puts_the_attribute_once_and_writes_every_run \
    fs::tests::growth_and_promotion_put_the_attribute_before_returning
cargo test --release -q -p dpc-core --lib -- \
    dispatch::tests::a_pass_writes_each_block_once_and_each_inode_attribute_once \
    dispatch::tests::a_scoped_fsync_past_a_page_a_writer_holds_is_eagain_until_it_lands \
    dispatch::tests::growth_and_promotion_reach_the_store_before_the_sink_returns \
    dispatch::tests::a_tripped_switch_stops_the_sink_the_owed_mtime_included \
    runtime::tests::the_background_pass_puts_each_inode_attribute_once \
    runtime::tests::the_shutdown_drain_puts_each_inode_attribute_once
cargo test --release -q --test attr_settle -- \
    a_scoped_fsync_puts_its_inode_attribute_once \
    an_eviction_flush_puts_each_inode_attribute_once \
    the_shutdown_drain_puts_each_inode_attribute_once \
    recovery_puts_each_inode_attribute_once \
    a_crash_between_the_blocks_and_the_settle_keeps_the_pre_flush_mtime
cargo test --release -q --test size_reconcile stat_of_an_open_file_reports_its_unflushed_growth
# Crash consistency (DESIGN.md §13), in release and by name: buffered
# writes and fsyncs log nothing; an uncached write logs its payload and
# retires at its ack; FsyncMode::Log on the default config recovers every
# acknowledged byte; a buffered write dead at its read-modify-write
# crossing leaves none of its bytes; an uncached write and a truncate in
# flight at the crash replay; recovery adopts the dirty pages, and refuses
# while an adapter of the crashed instance is alive; a warm 8 KiB
# overwrite allocates nothing; a region shorter than the log's header
# scans torn; a page being claimed is never claimed twice.
cargo test --release -q --test wal_crash -- \
    buffered_writes_and_fsyncs_log_nothing \
    an_uncached_write_logs_its_payload_and_retires_at_ack \
    log_durable_fsync_is_a_noop_that_still_recovers \
    a_buffered_write_dead_at_its_rmw_crossing_leaves_none_of_its_bytes \
    an_uncached_write_and_a_truncate_in_flight_at_the_crash_replay
cargo test --release -q -p dpc-core --test runtime_lifecycle -- \
    recover_adopts_the_dirty_pages_and_hands_back_a_drained_log \
    recovery_refuses_while_an_adapter_of_the_crashed_instance_is_alive
cargo test --release -q -p dpc-core --test zero_alloc_write
cargo test --release -q -p dpc-cache --lib -- \
    wal::tests::a_region_shorter_than_its_header_scans_torn \
    host::tests::a_page_being_claimed_is_waited_for_not_claimed_twice
# One KV request per big-file read, and per flush batch (DESIGN.md §17),
# in release and by name: a read spanning n blocks is 1 sub-read and n
# keys; it returns exactly the block-by-block bytes (holes, short values,
# partial blocks, EOF, a small file); a block rewritten whole during
# ranged reads is never torn; a warm 16-block read allocates nothing. Its
# twin: a write of n blocks, or of many runs, is 1 sub-write and n keys,
# leaving what one write per run leaves, and a warm in-place batch
# allocates nothing. The store's multi-get and multi-put, its counting
# rule, and every counted request waiting out a fault. A 0-byte file has
# no small-file KV (DESIGN.md §14). A miss on a full cache tries no fill.
# Then the readahead suite ten times in a row: its chaos run must see a
# fault on every seed.
cargo test --release -q -p dpc-kvfs --lib -- \
    fs::tests::a_big_read_is_one_sub_read_whatever_blocks_it_spans \
    fs::tests::a_multi_key_read_returns_exactly_the_block_by_block_bytes \
    fs::tests::a_ranged_read_never_tears_a_block \
    fs::tests::a_zero_byte_file_has_no_small_file_kv \
    fileobj::tests::block_aligned_round_trip \
    fileobj::tests::runs_write_what_write_at_per_run_writes_in_one_request
cargo test --release -q -p dpc-kvfs --test zero_alloc_read --test zero_alloc_write
cargo test --release -q -p dpc-kvstore --lib -- \
    store::tests::a_multi_get_is_one_request_and_reads_what_read_sub_reads \
    store::tests::a_multi_put_is_one_request_and_writes_what_write_sub_writes \
    store::tests::every_request_counts_what_it_is \
    store::tests::every_counted_request_waits_out_a_fault \
    store::tests::put_if_absent_waits_out_a_fault_like_every_mutation
cargo test --release -q -p dpc-kvstore --test proptest_store
cargo test --release -q --test end_to_end_kvfs \
    a_miss_run_fills_free_slots_clean_and_leaves_a_full_cache_alone
cargo test --release -q --test readahead --no-run
for run in $(seq 1 10); do
    cargo test --release -q --test readahead
done
# The pool's one staging and one waiting function (DESIGN.md §7), in
# release and by name: its unit tests (out-of-order routing, stealing a
# full queue, the reissue, a late CQE's CID carrying the next call its own
# reply, stage-N / wait-N order across two queues with a payload per
# request, a CID staying taken while its reply is read in the transport
# buffer, a CQE claiming more reply than its command declared being a
# transport error), the warm transport and pool allocating nothing (with
# and without a fault plan on the target), warm
# 8 KiB buffered read misses and direct reads allocating nothing on the
# calling thread, warm reads served into their transport buffers
# allocating nothing on the DPU, and a read the link keeps shedding saying
# EIO buffered or direct. Then the suites with more threads than cores —
# where a reader holding the transport buffer's lock too long, or a DPU
# read taking its locks in the wrong order under that lock's write side,
# would deadlock — ten times in a row on one core.
cargo test --release -q -p dpc-nvmefs --lib -- \
    pool::tests::concurrent_callers_share_one_queue \
    pool::tests::out_of_order_completions_route_by_cid \
    pool::tests::full_preferred_queue_steals_a_neighbour \
    pool::tests::a_reissued_command_restages_its_inline_header_on_the_fresh_cid \
    pool::tests::a_cid_freed_by_a_late_cqe_carries_the_next_call_its_own_reply \
    pool::tests::stage_n_wait_n_restores_request_order \
    pool::tests::a_cid_stays_taken_while_its_reply_is_read \
    pool::tests::a_cqe_claiming_more_reply_than_its_command_declared_is_a_transport_error
cargo test --release -q -p dpc-nvmefs --test zero_alloc -- \
    warm_batched_serve_loop_allocates_nothing_per_op \
    warm_serve_loop_with_a_fault_plan_attached_allocates_nothing \
    warm_pool_call_and_eight_staged_reads_allocate_nothing_on_the_host_thread
cargo test --release -q -p dpc-core --test zero_alloc_miss -- \
    a_warm_8k_read_miss_allocates_nothing_on_the_host_thread \
    a_warm_8k_direct_read_allocates_nothing_on_the_host_thread \
    a_warm_read_served_in_place_allocates_nothing_on_the_dpu
cargo test --release -q --test fault_recovery \
    a_read_the_link_keeps_shedding_is_eio_buffered_or_direct
cargo test --release -q --no-run --test concurrent_adapters --test link_wait
cargo test --release -q -p dpc-kvstore --lib --no-run
for run in $(seq 1 10); do
    taskset -c 0 cargo test --release -q --test concurrent_adapters --test link_wait
    taskset -c 0 cargo test --release -q --test concurrent_adapters \
        reads_served_in_place_on_one_queue_stay_byte_exact
    taskset -c 0 cargo test --release -q -p dpc-kvstore --lib \
        commit_never_deadlocks_against_scans_and_sub_writes
done
# One way across each end of a queue pair (DESIGN.md §17), in release and
# by name: the raw-header cases in `queue.rs` (the 8 KiB write's 4 DMAs,
# corrupt SQEs refused, a command too large for its buffer refused before
# it is sent, the header-DMA and SGL proptests, batched == one-per-doorbell
# wire bytes, a buffered header's page landing apart), the suites ported
# onto the pool and the file target, the dispatcher's replies, a read
# served in place charged and answered exactly as one copied in, a read
# longer than its read side refused before the backend, an uncached
# readdir sized to the buffer, an oversize command as EINVAL, fig6's 4 vs
# 11 DMAs and the ablation's doorbells per op.
cargo test --release -q -p dpc-nvmefs --lib -- \
    queue::tests::raw_8k_write_costs_exactly_4_dmas \
    queue::tests::corrupt_sqe_ranges_are_refused_not_followed \
    queue::tests::oversized_payload_rejected \
    queue::tests::a_header_costs_a_dma_iff_it_does_not_fit \
    queue::tests::sgl_reassembles_and_counts_dmas \
    queue::tests::batched_and_single_submission_produce_identical_wire_bytes \
    queue::tests::a_buffered_header_and_the_payload_sharing_its_page_land_apart
cargo test --release -q -p dpc-nvmefs --test batched --test proptest_protocol --test proptest_sgl
cargo test --release -q -p dpc-core --test dispatcher_unit -- \
    every_reply_fits_what_its_request_declared \
    a_reused_reply_buffer_never_leaks_stale_bytes \
    a_listing_whose_trail_would_not_fit_beside_it_is_erange \
    a_read_served_in_place_equals_the_scratch_serve \
    a_read_longer_than_its_read_side_is_refused_before_the_backend
cargo test --release -q -p dpc-pcie --lib -- \
    tests::an_in_place_write_is_charged_per_page_of_what_it_produced
cargo test --release -q --test direct_io -- \
    an_uncached_readdir_asks_for_what_the_transport_buffer_holds \
    a_command_larger_than_its_transport_buffer_is_einval_not_a_panic
cargo test --release -q -p dpc-bench --lib -- \
    fig6::tests::functional_dma_counts_match_figures_2_and_4 \
    ablate::tests::batching_amortizes_doorbells_exactly
# The DFS stripe path (DESIGN.md §18), in release and by name: a block is
# one stripe cell, so a healthy read is 1 data-server RPC, an overwrite
# 1 + m and a degraded read at most k + 1, warm reads and overwrites
# allocate nothing; interleaved and concurrent overwrites from two clients
# keep every stripe's parity exact under every <= m loss pattern; a client
# never reads back a block it owes a restore; a crashed server's cells are
# lost, not zeros; rot is never blessed with a fresh CRC; the MDS proxy
# path refuses what it cannot make recoverable, and bad input without a
# panic; the three-lane CRC kernel; crash and restart heal by read repair.
cargo test --release -q -p dpc-dfs --test stripe_protocol --test block_path --test zero_alloc_block
cargo test --release -q -p dpc-dfs --lib -- \
    backend::tests::a_proxied_write_that_lands_nowhere_is_unrecoverable_and_keeps_the_size \
    backend::tests::an_acknowledged_proxied_write_reads_back_once_the_servers_return \
    backend::tests::bad_proxied_input_is_invalid_argument_not_a_panic \
    backend::tests::partial_tail_block_round_trips \
    client::packing_tests::spanning_small_io_is_invalid_argument
cargo test --release -q -p dpc-codec --lib -- crc::tests::
cargo test --release -q --test multi_server data_server_crash_and_restart_heals_through_read_repair
# A DPU is one DFS client (DESIGN.md §18.1): two host threads on two
# queues share its owed restores, lazy sizes, metadata sync and
# delegations.
cargo test --release -q --test end_to_end_dfs -- \
    a_restore_owed_on_one_queue_is_read_on_the_other \
    a_getattr_on_one_queue_sees_growth_written_on_the_other \
    a_sync_on_one_queue_settles_sizes_written_on_the_other \
    getattrs_from_two_queues_never_recall_the_dpus_own_delegation
# The benchmark is a workspace of its own built against crates/*: a crate
# API change that breaks it must fail here, not at review.
cargo build --release --manifest-path dpc-e2e/Cargo.toml
cargo test --release --manifest-path dpc-e2e/Cargo.toml

echo "tier1: OK"

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
# The benchmark is a workspace of its own built against crates/*: a crate
# API change that breaks it must fail here, not at review.
cargo build --release --manifest-path dpc-e2e/Cargo.toml
cargo test --release --manifest-path dpc-e2e/Cargo.toml

echo "tier1: OK"

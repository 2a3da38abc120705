#!/usr/bin/env bash
# Tier-1 gate: the whole workspace must build, pass every test, and be
# fmt- and clippy-clean (warnings are errors). CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --workspace --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
# The benchmark is a workspace of its own built against crates/*: a crate
# API change that breaks it must fail here, not at review.
cargo build --release --manifest-path dpc-e2e/Cargo.toml
cargo test --release --manifest-path dpc-e2e/Cargo.toml

echo "tier1: OK"

#!/usr/bin/env bash
# The count ledger. scripts/counts.tsv holds, per benchmark workload, the
# three count metrics `dpc-e2e` reports (`link_dma_ops_per_op`,
# `link_bytes_per_op`, `backend_ops_per_op`) at seed 7 and `--seconds 1`,
# as printed. A count depends on the seed and the round count, never on
# timing, so the same key gives the same digits on any machine and under
# any load.
#
#   scripts/counts.sh          run every workload of the ledger at its key,
#                              and fail on any cell that differs, printing
#                              the ledger's value and the run's
#   scripts/counts.sh --write  rewrite the ledger from a run: a change that
#                              moves a count commits the new row, and the
#                              move shows in its diff
set -euo pipefail
cd "$(dirname "$0")/.."

ledger=scripts/counts.tsv
cells=(link_dma_ops_per_op link_bytes_per_op backend_ops_per_op)
workloads=(read_hit_8k read_miss_8k read_seq_128k write_fsync_8k meta_mix dfs_rw_8k)

# Building the benchmark rewrites its stale Cargo.lock; put the committed
# one back, so a run leaves the tree clean.
lock=dpc-e2e/Cargo.lock
saved_lock=$(mktemp)
cp "$lock" "$saved_lock"
trap 'cp "$saved_lock" "$lock"; rm -f "$saved_lock"' EXIT

# The result line of one run at the ledger's key: the last line of stdout.
run() {
    cargo run --release -q --manifest-path dpc-e2e/Cargo.toml -- \
        --workload "$1" --seed 7 --seconds 1 | tail -n 1
}
# One metric's value, as the result line prints it.
value() { sed -n "s/.*\"$1\": {\"value\": \([^,}]*\)[,}].*/\1/p" <<<"$2"; }
# A run whose oracle failed has no counts worth comparing.
sound() {
    if ! grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,' <<<"$2"; then
        echo "counts: $1 did not run clean: $2" >&2
        exit 1
    fi
}

if [ "${1:-}" = --write ]; then
    {
        printf 'workload'
        printf '\t%s' "${cells[@]}"
        printf '\n'
        for w in "${workloads[@]}"; do
            line=$(run "$w")
            sound "$w" "$line"
            printf '%s' "$w"
            for c in "${cells[@]}"; do printf '\t%s' "$(value "$c" "$line")"; done
            printf '\n'
        done
    } >"$ledger.new"
    mv "$ledger.new" "$ledger"
    exit 0
fi

bad=0
while IFS=$'\t' read -r w want_cells; do
    [ "$w" = workload ] && continue
    read -ra want <<<"$want_cells"
    line=$(run "$w")
    sound "$w" "$line"
    for i in "${!cells[@]}"; do
        got=$(value "${cells[$i]}" "$line")
        if [ "$got" != "${want[$i]}" ]; then
            echo "counts: $w ${cells[$i]}: ledger ${want[$i]}, run $got" >&2
            bad=1
        fi
    done
done <"$ledger"
if [ "$bad" != 0 ]; then
    echo "counts: a count moved; if the change meant it, scripts/counts.sh --write" >&2
    exit 1
fi
echo "counts: $ledger holds"

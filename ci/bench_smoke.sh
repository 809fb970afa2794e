#!/usr/bin/env bash
# CI smoke gate shared by the benchmark binaries (search-bench,
# plan-delta, plan-degraded, replay-bench): run `BIN --smoke` twice and
# byte-check the deterministic section of its BENCH_*.json report. Each
# binary prints exactly that section on stdout, so the gate is a
# straight byte comparison; timings (the `measured` section) are
# machine-dependent and deliberately excluded. Each binary's own exit
# status gates its identity walls internally.
#
# Usage: ci/bench_smoke.sh path-to-bench-binary
set -euo pipefail

BIN="${1:?usage: ci/bench_smoke.sh path-to-bench-binary}"
NAME="$(basename "$BIN") smoke"
if [ ! -x "$BIN" ]; then
    echo "$NAME: $BIN not found or not executable" >&2
    exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$BIN" --smoke --out "$WORK/first.json" >"$WORK/first.det"
"$BIN" --smoke --out "$WORK/second.json" >"$WORK/second.det"

if ! cmp -s "$WORK/first.det" "$WORK/second.det"; then
    echo "$NAME: deterministic sections differ between runs" >&2
    diff "$WORK/first.det" "$WORK/second.det" >&2 || true
    exit 1
fi

for run in first second; do
    if [ ! -s "$WORK/$run.json" ]; then
        echo "$NAME: $run run wrote no report" >&2
        exit 1
    fi
done

echo "$NAME: deterministic section reproduced byte-identically"

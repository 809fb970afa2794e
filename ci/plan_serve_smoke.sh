#!/usr/bin/env bash
# CI smoke gate for the plan-serve NDJSON daemon: pipe twelve lines —
# including one request with an unknown scheduler (in-band `failed`
# event), one non-JSON line, two requests with unusable power values and
# a last line of 200000 `[` (daemon-level `error` events) and one
# cancellation — through the binary
# on one worker thread, then byte-check the deterministic fields of the
# event stream (per-job terminal kinds in job order, the stable
# unknown-scheduler and power messages, the closing `done` line).
#
# Usage: ci/plan_serve_smoke.sh [path-to-plan-serve]
set -euo pipefail

BIN="${1:-target/release/plan-serve}"
if [ ! -x "$BIN" ]; then
    echo "plan_serve_smoke: $BIN not found or not executable" >&2
    exit 2
fi

core() {
    printf '{"name": "c%d", "bits_in": 1600, "bits_out": 1600, "patterns": 40, "power": 50.0}' "$1"
}
CORES="$(core 0)"
for i in 1 2 3 4 5 6 7; do CORES="$CORES, $(core $i)"; done

# Job 1 keeps the single worker busy for about 0.2 s on a 2-vCPU x86-64
# box (10-cut `optimal` search under the default node budget), orders of
# magnitude longer than the reader takes to queue job 2 and read the
# cancel line after it, so job 2 is deterministically still queued when
# it is cancelled.
BASE='"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}, "processors": {"family": "plasma", "total": 2, "reused": 2}'
D695="$BASE, \"budget\": {\"fraction\": 0.6}"
# Nested past the JSON depth limit; parsed recursively, it once overflowed
# the daemon's stack.
DEEP="$(printf '%*s' 200000 '' | tr ' ' '[')"
OUT="$("$BIN" --threads 1 <<EOF
{"name": "slow", "soc": {"name": "hard", "cores": [$CORES]}, "mesh": {"width": 4, "height": 4}, "processors": {"family": "plasma", "total": 2, "reused": 2}, "scheduler": "optimal"}
{"name": "doomed", $D695, "scheduler": "greedy"}
{"cancel": "doomed"}
{"name": "invalid", $D695, "scheduler": "annealing"}
this is not json
{"name": "negfrac", $BASE, "budget": {"fraction": -0.5}, "scheduler": "greedy"}
{"name": "negpower", "soc": {"name": "neg", "cores": [{"name": "c0", "bits_in": 16, "bits_out": 16, "patterns": 4, "power": -1e308}]}, "mesh": {"width": 4, "height": 4}, "scheduler": "greedy"}
{"name": "g", $D695, "scheduler": "greedy"}
{"name": "s", $D695, "scheduler": "smart"}
{"name": "base", $D695, "scheduler": "serial"}
{"name": "g2", $D695, "scheduler": "greedy"}
$DEEP
EOF
)"

DIGEST="$(printf '%s\n' "$OUT" \
    | sed -nE 's/^\{"event":"(completed|failed|cancelled)","job":([0-9]+),"request":"([^"]*)".*/job=\2 \3 \1/p' \
    | sort -t= -k2 -n; \
    printf '%s\n' "$OUT" | sed -nE 's/^\{"event":"done","jobs":([0-9]+)\}$/done jobs=\1/p')"

EXPECTED="job=1 slow completed
job=2 doomed cancelled
job=3 invalid failed
job=4 g completed
job=5 s completed
job=6 base completed
job=7 g2 completed
done jobs=7"

if [ "$DIGEST" != "$EXPECTED" ]; then
    echo "plan_serve_smoke: terminal-event digest mismatch" >&2
    echo "--- expected ---" >&2
    printf '%s\n' "$EXPECTED" >&2
    echo "--- got ---" >&2
    printf '%s\n' "$DIGEST" >&2
    echo "--- raw stream ---" >&2
    printf '%s\n' "$OUT" >&2
    exit 1
fi

# The unknown-scheduler failure carries the registry's stable message.
printf '%s\n' "$OUT" | grep -qF \
    'unknown scheduler `annealing` (registered: greedy, optimal, optimal-par, portfolio, serial, smart)' \
    || { echo "plan_serve_smoke: missing stable unknown-scheduler message" >&2; exit 1; }

# The non-JSON line produced a daemon-level error event naming line 5.
printf '%s\n' "$OUT" | grep -q '"event":"error","line":5' \
    || { echo "plan_serve_smoke: missing daemon error for line 5" >&2; exit 1; }

# Each unusable power value, and the over-deep line, is refused at decode
# with exactly one daemon-level error naming its line, never a job, a
# panic or an abort.
for expect in \
    '"event":"error","line":6,"error":"json error at byte 0: `budget.fraction` must be positive and finite"' \
    '"event":"error","line":7,"error":"json error at byte 0: core `c0` power must be finite and non-negative"' \
    '"event":"error","line":12,"error":"json error at byte 256: nesting deeper than 256 levels"'; do
    line="$(printf '%s' "$expect" | sed -nE 's/.*"line":([0-9]+),.*/\1/p')"
    if [ "$(printf '%s\n' "$OUT" | grep -c "\"event\":\"error\",\"line\":$line,")" != 1 ] \
        || ! printf '%s\n' "$OUT" | grep -qF "{$expect}"; then
        echo "plan_serve_smoke: expected exactly one error for line $line: {$expect}" >&2
        exit 1
    fi
done
if printf '%s\n' "$OUT" | grep -q 'panicked'; then
    echo "plan_serve_smoke: a request panicked" >&2
    exit 1
fi

# The cancelled job never started.
if printf '%s\n' "$OUT" | grep -q '"event":"started","job":2,'; then
    echo "plan_serve_smoke: cancelled job 2 must never start" >&2
    exit 1
fi

echo "plan_serve_smoke: OK ($(printf '%s\n' "$OUT" | wc -l | tr -d ' ') events)"

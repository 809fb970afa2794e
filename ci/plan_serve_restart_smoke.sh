#!/usr/bin/env bash
# CI smoke gate for plan-serve's durable journal: start a journaled
# daemon, let one fast job complete, kill the process -9 while a slow job
# is mid-plan, then restart on the same journal and byte-check that
#
#   1. the interrupted job is replayed under its ORIGINAL id and
#      completes,
#   2. a resubmission of the completed request is served from the journal
#      with a fresh id, no `started` event, and a byte-identical
#      `"outcome"` payload,
#   3. the merged terminal digest of both lifetimes equals an
#      uninterrupted no-journal reference run, and
#   4. the restarted daemon's closing line counts exactly the replayed +
#      deduplicated jobs.
#
# Usage: ci/plan_serve_restart_smoke.sh [path-to-plan-serve]
set -euo pipefail

BIN="${1:-target/release/plan-serve}"
if [ ! -x "$BIN" ]; then
    echo "plan_serve_restart_smoke: $BIN not found or not executable" >&2
    exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
JOURNAL="$WORK/journal.ndjson"
FIFO="$WORK/stdin.fifo"
EVENTS="$WORK/stdout.fifo"
mkfifo "$FIFO" "$EVENTS"

SEED='{"name": "seed", "soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}, "scheduler": "greedy"}'
# The same 8-core `optimal` search the classic smoke uses to pin a worker
# for seconds — plenty of time to kill -9 mid-plan.
core() {
    printf '{"name": "c%d", "bits_in": 1600, "bits_out": 1600, "patterns": 40, "power": 50.0}' "$1"
}
CORES="$(core 0)"
for i in 1 2 3 4 5 6 7; do CORES="$CORES, $(core $i)"; done
SLOW="{\"name\": \"slow\", \"soc\": {\"name\": \"hard\", \"cores\": [$CORES]}, \"mesh\": {\"width\": 4, \"height\": 4}, \"processors\": {\"family\": \"plasma\", \"total\": 2, \"reused\": 2}, \"scheduler\": \"optimal\"}"

# --- First lifetime: journaled daemon, killed mid-plan -------------------
# The daemon's stdout is a FIFO read line by line, so the kill lands the
# moment job 2's `started` line arrives, not after a polling interval the
# slow job may already have finished in. Each FIFO open blocks until its
# other end opens, and the daemon opens stdin before stdout: fd 3 (the
# stdin writer) must be opened before fd 4 (the stdout reader).
"$BIN" --threads 1 --journal "$JOURNAL" <"$FIFO" >"$EVENTS" &
DAEMON=$!
exec 3>"$FIFO" # hold the write end open so stdin does not EOF
exec 4<"$EVENTS"
printf '%s\n' "$SEED" >&3
printf '%s\n' "$SLOW" >&3

: >"$WORK/out1"
while IFS= read -r -t 60 line <&4; do
    printf '%s\n' "$line" >>"$WORK/out1"
    case "$line" in *'"event":"started","job":2,'*) break ;; esac
done

kill -9 "$DAEMON" 2>/dev/null || true
wait "$DAEMON" 2>/dev/null || true
exec 3>&-
cat <&4 >>"$WORK/out1" # drain what the daemon wrote before it died
exec 4<&-

grep -q '"event":"started","job":2,' "$WORK/out1" \
    || { echo "plan_serve_restart_smoke: slow job never started" >&2; exit 1; }
grep -q '"event":"completed","job":1,' "$WORK/out1" \
    || { echo "plan_serve_restart_smoke: seed job did not complete before the kill" >&2; exit 1; }

# --- Second lifetime: same journal, replay + dedupe ----------------------
printf '%s\n' "$SEED" | "$BIN" --threads 1 --journal "$JOURNAL" >"$WORK/out2"

# (1) The interrupted job was replayed under its original id.
grep -q '"event":"completed","job":2,"request":"slow"' "$WORK/out2" \
    || { echo "plan_serve_restart_smoke: job 2 was not replayed to completion" >&2; exit 1; }

# (2) The resubmitted request was served from the journal: fresh id 3,
# never started, outcome bytes identical to the first lifetime's.
grep -q '"event":"completed","job":3,"request":"seed"' "$WORK/out2" \
    || { echo "plan_serve_restart_smoke: resubmission was not served" >&2; exit 1; }
if grep -q '"event":"started","job":3,' "$WORK/out2"; then
    echo "plan_serve_restart_smoke: journal-served job 3 must not replan" >&2
    exit 1
fi
payload() { # completed line for job $2 in file $1, with the job id field stripped
    sed -nE 's/^\{"event":"completed","job":'"$2"',(.*)$/\1/p' "$1"
}
FIRST="$(payload "$WORK/out1" 1)"
SERVED="$(payload "$WORK/out2" 3)"
if [ -z "$FIRST" ] || [ "$FIRST" != "$SERVED" ]; then
    echo "plan_serve_restart_smoke: journal-served outcome is not byte-identical" >&2
    echo "--- first lifetime ---" >&2
    printf '%s\n' "$FIRST" >&2
    echo "--- served ---" >&2
    printf '%s\n' "$SERVED" >&2
    exit 1
fi

# (3) Merged terminal digest equals an uninterrupted no-journal reference.
digest() {
    sed -nE 's/^\{"event":"(completed|failed|cancelled)","job":[0-9]+,"request":"([^"]*)".*/\2 \1/p' "$@" \
        | sort -u
}
printf '%s\n' "$SEED" "$SLOW" | "$BIN" --threads 1 >"$WORK/ref"
MERGED="$(digest "$WORK/out1" "$WORK/out2")"
REFERENCE="$(digest "$WORK/ref")"
if [ "$MERGED" != "$REFERENCE" ]; then
    echo "plan_serve_restart_smoke: merged digest diverges from the uninterrupted run" >&2
    echo "--- merged ---" >&2
    printf '%s\n' "$MERGED" >&2
    echo "--- reference ---" >&2
    printf '%s\n' "$REFERENCE" >&2
    exit 1
fi

# (4) The restart accounted exactly the replayed job + the served one.
grep -qF '{"event":"done","jobs":2}' "$WORK/out2" \
    || { echo "plan_serve_restart_smoke: restarted daemon's done line is wrong" >&2; exit 1; }

echo "plan_serve_restart_smoke: OK (job 2 replayed, job 3 served byte-identically)"

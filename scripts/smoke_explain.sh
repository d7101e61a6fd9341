#!/usr/bin/env bash
# Explain/provenance smoke: boot a durable murisched, run a short
# preemption-bearing workload to completion, capture each job's live
# `murictl explain` output, SIGKILL the daemon, and reconstruct the
# same explanations offline with muritrace from the abandoned
# -state-dir. The reconstruction must be byte-identical to the live
# RPC output (diff, rc-checked) — the explain subsystem's core
# guarantee that the WAL alone carries full decision provenance.
#
# Run from the repo root (CI) or anywhere (it cds itself):
#   ./scripts/smoke_explain.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
STATE="$WORK/state"
ADDR=127.0.0.1:7809
SCHED_PID=""
EXEC_PID=""
cleanup() {
  [ -n "$EXEC_PID" ] && kill "$EXEC_PID" 2>/dev/null || true
  [ -n "$SCHED_PID" ] && kill -9 "$SCHED_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/murisched" ./cmd/murisched
go build -o "$WORK/muriexec" ./cmd/muriexec
go build -o "$WORK/murictl" ./cmd/murictl
go build -o "$WORK/muritrace" ./cmd/muritrace

ctl() { "$WORK/murictl" -scheduler "$ADDR" "$@"; }

# poll <description> <seconds> <extended-regex on murictl status output>
poll() {
  local desc=$1 secs=$2 pat=$3 out="" i
  for i in $(seq 1 $((secs * 10))); do
    out=$(ctl status 2>/dev/null || true)
    if grep -qE "$pat" <<<"$out"; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: timed out waiting for: $desc" >&2
  echo "$out" >&2
  exit 1
}

echo "== boot durable daemon (state dir $STATE)"
"$WORK/murisched" -addr "$ADDR" -policy srtf -interval 20ms \
  -timescale 0.0005 -report 10ms \
  -state-dir "$STATE" -fsync-every 1 -snapshot-interval 100ms &
SCHED_PID=$!
"$WORK/muriexec" -scheduler "$ADDR" -machine m0 -gpus 8 &
EXEC_PID=$!
poll "executor registration" 10 'executors=1'

echo "== load: a long job, then a shorter one that preempts it (SRTF)"
# Job 1 runs ~1.4 s of wall, so it is still running when job 2 arrives.
ctl submit -model gpt2 -gpus 8 -iters 24000
poll "job 1 running" 20 'running=1'
ctl submit -model gpt2 -gpus 8 -iters 1200
ctl wait -timeout 2m
# Capture, then match: under pipefail, grep -q exiting at the first match
# would SIGPIPE murictl and fail the pipeline on a passing run.
status=$(ctl status)
grep -qE 'done=2' <<<"$status" || { echo "FAIL: expected done=2" >&2; exit 1; }

echo "== capture live explanations"
ctl explain -job 1 | tee "$WORK/live-1.txt"
ctl explain -job 2 | tee "$WORK/live-2.txt"
for j in 1 2; do
  grep -q 'completed' "$WORK/live-$j.txt" \
    || { echo "FAIL: job $j explanation shows no completion" >&2; exit 1; }
  grep -q 'service' "$WORK/live-$j.txt" \
    || { echo "FAIL: job $j explanation lacks service attribution" >&2; exit 1; }
done
grep -q 'preemptions 1' "$WORK/live-1.txt" \
  || { echo "FAIL: job 1 explanation does not show its preemption" >&2; exit 1; }

echo "== SIGKILL the daemon; reconstruct offline from the WAL alone"
kill -9 "$SCHED_PID"
wait "$SCHED_PID" 2>/dev/null || true
SCHED_PID=""
for j in 1 2; do
  "$WORK/muritrace" -state-dir "$STATE" explain -job "$j" > "$WORK/offline-$j.txt"
  diff -u "$WORK/live-$j.txt" "$WORK/offline-$j.txt" || {
    echo "FAIL: job $j offline reconstruction diverges from the live explain RPC" >&2
    exit 1
  }
done

echo "== lifecycle spans export as Chrome trace JSON"
"$WORK/muritrace" -state-dir "$STATE" spans -o "$WORK/spans.json"
grep -q '"ph":"X"' "$WORK/spans.json" \
  || { echo "FAIL: spans.json has no duration events" >&2; exit 1; }

echo "OK: explain smoke passed (live RPC == WAL reconstruction, byte-identical)"

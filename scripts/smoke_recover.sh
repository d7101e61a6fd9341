#!/usr/bin/env bash
# Kill-and-recover smoke: boot a durable murisched, load it with running
# jobs, SIGKILL the daemon mid-run, restart it from the same -state-dir,
# and assert it recovers — the executor re-registers, its surviving
# groups are adopted (no restarts), and every job finishes. Each step is
# rc-checked; the script fails loudly on any timeout.
#
# Run from the repo root (CI) or anywhere (it cds itself):
#   ./scripts/smoke_recover.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
STATE="$WORK/state"
ADDR=127.0.0.1:7807
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

ctl() { "$WORK/murictl" -scheduler "$ADDR" "$@"; }

start_sched() {
  "$WORK/murisched" -addr "$ADDR" -policy srtf -interval 20ms \
    -timescale 0.0005 -report 10ms \
    -state-dir "$STATE" -fsync-every 1 -snapshot-interval 100ms &
  SCHED_PID=$!
}

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
start_sched
"$WORK/muriexec" -scheduler "$ADDR" -machine m0 -gpus 8 &
EXEC_PID=$!
poll "executor registration" 10 'executors=1'

echo "== load: two jobs sharing the machine"
ctl submit -model gpt2 -gpus 4 -iters 3000
ctl submit -model gpt2 -gpus 4 -iters 3000
poll "both jobs running" 20 'running=2'

echo "== SIGKILL the daemon mid-run"
kill -9 "$SCHED_PID"
wait "$SCHED_PID" 2>/dev/null || true

echo "== restart from the same state dir"
start_sched
poll "durable state recovered" 10 'durability: role=solo'
poll "executor re-registered" 15 'executors=1'
poll "running groups adopted or finished" 20 'running=2|done=2'

echo "== drain"
ctl wait -timeout 2m
# Capture, then match: under pipefail, grep -q exiting at the first match
# would SIGPIPE murictl and fail the pipeline on a passing run.
status=$(ctl status)
echo "$status"
grep -qE 'done=2' <<<"$status" || { echo "FAIL: expected done=2" >&2; exit 1; }
# Adoption means no machine-lost requeues: the crash recovery kept the
# running groups alive end to end.
if grep -qE 'requeues=[1-9]' <<<"$status"; then
  echo "FAIL: recovery requeued jobs instead of adopting the surviving groups" >&2
  exit 1
fi
echo "OK: kill-and-recover smoke passed"

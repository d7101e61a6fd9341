# Development entry points. `make check` is the gate every change must
# pass: gofmt, lint-sort, build, vet, and the full test suite under the race
# detector (the scheduling path runs worker pools and a shared cache, so
# -race is not optional).

GO ?= go

.PHONY: check fmt lint-sort build vet test test-race race smoke-recover smoke-explain bench bench-e2e bench-compare bench-sched-scale bench-ingest clean

check: fmt lint-sort build vet test-race smoke-recover

# Fail if any file needs reformatting (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Four things that may not come (back) outside tests. The scheduling
# path — the daemon's round included — sorts with the generic slices
# package, not the reflection sorts (sort.Slice, sort.SliceStable), and
# the engine keeps a round's per-job sets as stamps on the jobs
# (job.Sched), not as ID-keyed maps: both were the hottest frames of a
# non-grouping round. And nothing under internal/ tunes the collector
# (debug.SetGCPercent, debug.SetMemoryLimit, a heap ballast): a round's
# garbage is kept small by not making it. And the daemon changes the
# engine's recoverable state (Track, SetPhase, MarkDone, ApplyDecision,
# ReplayFault) only from internal/server/apply.go, where each WAL record
# kind has the one function live handlers and replay share: a call from
# anywhere else is the start of a second interpreter. The same goes for
# the fault ledger — the simulator and the daemon count crashes,
# transient faults, requeues and dead letters only by folding fault
# records (wal.FaultRecord.Count) — and for the simulator's record stream,
# which it writes to Config.Record without importing internal/explain.
# And the scheduling path has one merge gate, one Plan entry point and no
# sticky seeds: options no caller set stay deleted.
lint-sort:
	@out=$$(grep -rn 'sort\.Slice\(Stable\)\?(' --include='*.go' internal/sched internal/engine internal/sim internal/core internal/server | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then echo "reflection sort on the scheduling path:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'map\[job\.ID\]bool' --include='*.go' internal/engine | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then echo "ID-keyed round set in the engine (mark job.Sched instead):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rniE 'debug\.Set(GCPercent|MemoryLimit)|ballast' --include='*.go' internal | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then echo "GC tuning under internal/ (make less garbage instead):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE 'eng\.(Track|SetPhase|MarkDone|ApplyDecision|ReplayFault)\(' internal/server/*.go | grep -v '_test\.go:' | grep -v '^internal/server/apply\.go:'); \
	if [ -n "$$out" ]; then echo "engine state changed outside internal/server/apply.go (commit a record instead):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE '\.(Crashes|Transient|Requeues|DeadLettered)[[:space:]]*(\+\+|\+=)' --include='*.go' internal/sim internal/server | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then echo "fault ledger counted by hand (fold a record with wal.FaultRecord.Count instead):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn '"muri/internal/explain"' --include='*.go' internal/sim | grep -v '_test\.go:'); \
	if [ -n "$$out" ]; then echo "internal/sim imports internal/explain (write records to Config.Record instead):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'GateThroughput|GateNone|PlanWithSeeds|CandidateFactor|TraceStageCycles|IngestMaxBatch|\.Sticky\b' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ -n "$$out" ]; then echo "a deleted knob is back (one merge gate, one Plan entry point, no sticky seeds):"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector. The fault-injection and drain
# tests lean on this: lease eviction, backoff requeues, and agent
# shutdown all exercise cross-goroutine state.
test-race:
	$(GO) test -race ./...

# Back-compat alias.
race: test-race

# Kill-and-recover smoke: SIGKILL a durable daemon mid-run, restart it
# from its -state-dir, and assert the executor's running groups are
# adopted (not requeued) and every job drains. Real binaries, real
# kill -9 — the one failure mode unit tests can only approximate.
smoke-recover:
	./scripts/smoke_recover.sh

# Explain/provenance smoke: run a preemption-bearing workload on a
# durable daemon, capture live `murictl explain` output, kill -9 the
# daemon, and require muritrace's offline WAL reconstruction to be
# byte-identical to the live RPC text.
smoke-explain:
	./scripts/smoke_explain.sh

# The repository's benchmark (BENCHMARK.json, bench/README.md): five
# workloads end to end and layer by layer, one result file under
# bench/out/. bench-compare checks two result files against the declared
# bounds: make bench-compare A=parent.json B=change.json
bench-e2e:
	$(GO) run ./bench

bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Fleet tiers the driver's benchmark is too short for: the 2,000- and
# 5,755-job Philly traces under Muri-L, the muri-l-scale shard sweep on the
# 5,755-job trace, and the philly-10000 tier, one table with wall time and
# the planner counters (bench/README.md).
bench-sched-scale:
	$(GO) run ./cmd/murisim -experiment scale

# Ingest throughput: a self-hosted daemon loaded at 120k submissions/min
# over both transports for 30s. Reports p50/p99 submit latency,
# accept/reject/throttle counts, and engine rounds/sec as one JSON line.
bench-ingest:
	$(GO) run ./cmd/loadgen -selfhost -transport both -rate 120000 -duration 30s -json

# Full evaluation benchmark sweep (regenerates every table/figure once).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

clean:
	rm -f cpu.pprof mem.pprof

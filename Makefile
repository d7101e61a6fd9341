# Development entry points. `make check` is the gate every change must
# pass: gofmt, build, vet, and the full test suite under the race detector
# (the scheduling path runs worker pools and a shared cache, so -race is
# not optional). The suite includes the architecture rules
# (TestArchitectureRules in arch_test.go).

GO ?= go

.PHONY: check fmt build vet test test-race race smoke-recover smoke-explain repro bench bench-e2e bench-compare bench-sched-scale bench-ingest clean

check: fmt build vet test-race smoke-recover

# Fail if any file needs reformatting (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

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

# The paper ledger: every experiments.Paper table at full scale into
# REPRO.json (about 85 s on two vCPUs), and the Markdown murisim prints
# for it spliced between EXPERIMENTS.md's ledger markers.
# TestExperimentsDocRendersLedger checks that the two agree.
repro:
	$(GO) run ./cmd/murisim -experiment all -o REPRO.json > .ledger.md
	awk 'FNR == NR { block = block $$0 "\n"; next } \
		/<!-- ledger:end -->/ { printf "%s", block; skip = 0 } \
		!skip { print } /<!-- ledger:begin -->/ { skip = 1 }' .ledger.md EXPERIMENTS.md > .ledger.doc
	mv .ledger.doc EXPERIMENTS.md && rm .ledger.md

# The repository's benchmark (BENCHMARK.json, bench/README.md): five
# workloads end to end and layer by layer, one result file under
# bench/out/. bench-compare checks two result files against the declared
# bounds: make bench-compare A=parent.json B=change.json
bench-e2e:
	$(GO) run ./bench

bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Fleet tiers the driver's benchmark is too short for (BenchmarkFleet):
# the 2,000- and 5,755-job Philly traces under Muri-L, the muri-l-scale
# shard sweep on the 5,755-job trace, and the philly-10000 and philly-50k
# tiers, each with its outcome, planner counters and allocations
# (bench/README.md). The set takes about 8 minutes on two vCPUs (6 of
# them philly-50k), too close to go test's 10-minute default timeout.
bench-sched-scale:
	$(GO) test -run '^$$' -bench Fleet -benchtime 1x -benchmem -timeout 30m .

# Ingest throughput: a self-hosted daemon loaded at 120k submissions/min
# over both transports for 30s. Reports p50/p99 submit latency,
# accept/reject/throttle counts, and engine rounds/sec as one JSON line.
bench-ingest:
	$(GO) run ./cmd/loadgen -selfhost -transport both -rate 120000 -duration 30s -json

# Full evaluation benchmark sweep: BenchmarkPaper regenerates every
# ledger table (experiments.Paper) once at Quick scale, reporting each
# claim's measured range, alongside the design-ablation benchmarks and
# the fleet tiers (-short skips philly-50k; bench-sched-scale runs it).
bench:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x .

clean:
	rm -f cpu.pprof mem.pprof

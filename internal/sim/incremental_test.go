package sim

import (
	"testing"

	"muri/internal/sched"
	"muri/internal/trace"
)

// scaleMuriL is muri-l-scale under the plain name ("muri-l", which the
// fingerprint includes), with or without its planner memo: without it is
// the reference the memoized runs must reproduce exactly.
func scaleMuriL(shards int, memo bool) *sched.Muri {
	p := sched.NewMuriLScale(shards)
	p.Label = ""
	if !memo {
		p.Grouping.Planner = nil
	}
	return p
}

// incrementalTrace is a seeded busy trace: arrivals, completions, and
// (with the chaos plan) faults and preemptions all change the queue.
func incrementalTrace(seed int64) trace.Trace {
	cfg := trace.PhillyConfigs(64)[0]
	cfg.Jobs = 100
	cfg.Seed = seed
	return trace.Generate(cfg)
}

// TestIncrementalBitIdenticalEndToEnd is the planner memo's end-to-end
// correctness property: over multi-seed arrival/completion/fault
// scripts, Muri-L with the memo must produce results bit-identical to
// full re-matching under the identical (quantized) configuration —
// per-job finish times, restarts, and fault counters included. A memo hit
// returns exactly the matching its nodes' contents would get afresh, so
// nothing the memo does may show up in the schedule.
func TestIncrementalBitIdenticalEndToEnd(t *testing.T) {
	for _, seed := range []int64{1, 2, 5} {
		tr := incrementalTrace(seed)
		cfg := DefaultConfig()
		cfg.EventDriven = true
		cfg.Faults = chaosPlan(seed, cfg.Machines)

		full := faultFingerprint(Run(cfg, tr, scaleMuriL(1, false)))
		inc := scaleMuriL(1, true)
		if got := faultFingerprint(Run(cfg, tr, inc)); got != full {
			t.Fatalf("seed %d: incremental run diverged from full re-matching\nfull:\n%.2000s\ngot:\n%.2000s",
				seed, full, got)
		}
		if st := inc.PlanStats(); st.ReplaySweeps == 0 {
			t.Errorf("seed %d: the memo never served a previous plan's match (fresh=%d)", seed, st.FreshSweeps)
		}
	}
}

// TestShardedIncrementalBitIdenticalEndToEnd is the same property with
// sharding on: muri-l-scale (sharded, with the memo) against the same
// sharded configuration without a planner.
func TestShardedIncrementalBitIdenticalEndToEnd(t *testing.T) {
	for _, seed := range []int64{2, 7} {
		tr := incrementalTrace(seed)
		cfg := DefaultConfig()
		cfg.EventDriven = true
		cfg.Faults = chaosPlan(seed, cfg.Machines)

		full := faultFingerprint(Run(cfg, tr, scaleMuriL(4, false)))
		inc := scaleMuriL(4, true)
		if got := faultFingerprint(Run(cfg, tr, inc)); got != full {
			t.Fatalf("seed %d: sharded incremental run diverged from sharded full re-matching\nfull:\n%.2000s\ngot:\n%.2000s",
				seed, full, got)
		}
		if st := inc.PlanStats(); st.ReplaySweeps == 0 {
			t.Errorf("seed %d: the memo never served a previous plan's match (fresh=%d)", seed, st.FreshSweeps)
		}
	}
}

package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"muri/internal/sched"
	"muri/internal/trace"
)

// replayAllocCeilingMB bounds what one event-driven SRTF replay of the
// first 1,500 trace4 jobs may allocate: 3,774 rounds over a queue of up to
// 794 jobs on 64 GPUs. A warm round allocates what it newly places: the
// simulator recycles its units, the engine rebuilds the queue into a
// buffer the simulator lends and keeps a continuing unit's key, so what is
// left is the jobs themselves, each round's member array and the keys and
// decisions of launches. Measured 2.9 MB and 0–1 GC cycles; 46 MB and 21
// when every round re-created the running set, the queue and the keys, and
// 207 MB and 89 when a round also materialized a unit, an order slice and
// a one-entry allocation map per candidate.
const (
	replayAllocCeilingMB = 4
	replayGCCeiling      = 3
)

// bypassReplay is the benchmark ledger's sim-bypass input at seed 1.
func bypassReplay() (Config, trace.Trace) { return ledgerReplay(1500) }

// ledgerReplay is the input the ledger's trace4 workloads share at seed 1:
// the preset truncated to the given job count, every duration jittered by
// ±5%.
func ledgerReplay(jobs int) (Config, trace.Trace) {
	gc := trace.PhillyConfigs(64)[3]
	gc.Jobs = jobs
	tr := trace.Generate(gc)
	rng := rand.New(rand.NewSource(1))
	for i := range tr.Specs {
		f := 1 + 0.05*(2*rng.Float64()-1)
		tr.Specs[i].Duration = time.Duration(float64(tr.Specs[i].Duration) * f)
	}
	cfg := DefaultConfig()
	cfg.EventDriven = true
	return cfg, tr
}

func TestReplayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg, tr := bypassReplay()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := Run(cfg, tr, sched.SRTF())
	runtime.ReadMemStats(&after)

	// The schedule is the one every earlier round implementation produced.
	if got, want := res.Summary.AvgJCT, 24*time.Hour+52*time.Minute+54612750272*time.Nanosecond; got != want {
		t.Errorf("avg JCT = %v, want %v", got, want)
	}
	if res.Summary.Jobs != 1500 || res.Engine.Rounds != 3774 || res.Engine.Decisions != 27968 {
		t.Errorf("jobs %d, rounds %d, decisions %d; want 1500, 3774, 27968",
			res.Summary.Jobs, res.Engine.Rounds, res.Engine.Decisions)
	}

	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	cycles := after.NumGC - before.NumGC
	t.Logf("replay allocated %.1f MB through %d GC cycles", mb, cycles)
	if mb > replayAllocCeilingMB {
		t.Errorf("replay allocated %.1f MB, ceiling %d MB", mb, replayAllocCeilingMB)
	}
	if cycles > replayGCCeiling {
		t.Errorf("replay ran %d GC cycles, ceiling %d", cycles, replayGCCeiling)
	}
}

// scaleAllocCeilingMB bounds one sim-scale replay of the ledger (600
// trace4 jobs under muri-l-scale(4), 1,447 rounds): the grouping half of a
// round works in the plan arena, so what a replay allocates is the groups
// it returns and the proposal streams PlanState keeps. Measured 15 MB and
// 5–6 GC cycles; 44 MB and 19 while the non-grouping half re-created its
// units, queue and keys every round, and 124 MB and 57 when every sweep
// also made its nodes, tables and scratch afresh.
const (
	scaleAllocCeilingMB = 19
	scaleGCCeiling      = 8
)

func TestScaleReplayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg, tr := ledgerReplay(600)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := Run(cfg, tr, sched.NewMuriLScale(4))
	runtime.ReadMemStats(&after)

	if got, want := res.Summary.AvgJCT, 8*time.Hour+59*time.Minute+26674938960*time.Nanosecond; got != want {
		t.Errorf("avg JCT = %v, want %v", got, want)
	}
	if res.Summary.Jobs != 600 || res.Engine.Rounds != 1447 {
		t.Errorf("jobs %d, rounds %d; want 600, 1447", res.Summary.Jobs, res.Engine.Rounds)
	}

	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	cycles := after.NumGC - before.NumGC
	t.Logf("replay allocated %.1f MB through %d GC cycles", mb, cycles)
	if mb > scaleAllocCeilingMB {
		t.Errorf("replay allocated %.1f MB, ceiling %d MB", mb, scaleAllocCeilingMB)
	}
	if cycles > scaleGCCeiling {
		t.Errorf("replay ran %d GC cycles, ceiling %d", cycles, scaleGCCeiling)
	}
}

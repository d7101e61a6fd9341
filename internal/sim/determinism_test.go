package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"muri/internal/sched"
	"muri/internal/trace"
)

// determinismTrace is a seeded trace small enough to simulate repeatedly
// but large enough to force grouping, queueing, preemption, and sharded
// matching.
func determinismTrace() trace.Trace {
	cfg := trace.PhillyConfigs(64)[0]
	cfg.Jobs = 120
	return trace.Generate(cfg)
}

// fingerprint renders everything the paper's metrics depend on: the full
// summary plus every job's identity, finish time, and restart count.
func fingerprint(r Result) string {
	s := fmt.Sprintf("policy=%s summary=%+v preemptions=%d\n", r.Policy, r.Summary, r.Preemptions)
	for _, j := range r.Jobs {
		s += fmt.Sprintf("job=%d finished=%d submit=%d restarts=%d done=%d\n",
			j.ID, j.FinishedAt, j.Submit, j.Restarts, j.DoneIterations)
	}
	return s
}

// TestRunDeterministic guards the concurrency introduced on the
// scheduling path: repeated runs over the same seeded trace must be
// byte-identical in summary and per-job completion times, for both Muri
// variants, with and without event-driven wake-ups. The pair-efficiency
// cache must be invisible in the results.
func TestRunDeterministic(t *testing.T) {
	tr := determinismTrace()
	cases := []struct {
		name   string
		cfg    func() Config
		policy func() sched.Policy
	}{
		{"muri-s", DefaultConfig, func() sched.Policy { return sched.NewMuriS() }},
		{"muri-l", DefaultConfig, func() sched.Policy { return sched.NewMuriL() }},
		{"muri-l-event-driven", func() Config {
			cfg := DefaultConfig()
			cfg.EventDriven = true
			return cfg
		}, func() sched.Policy { return sched.NewMuriL() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first := fingerprint(Run(tc.cfg(), tr, tc.policy()))
			for rep := 0; rep < 2; rep++ {
				if got := fingerprint(Run(tc.cfg(), tr, tc.policy())); got != first {
					t.Fatalf("run %d diverged from first run\nfirst:\n%.2000s\ngot:\n%.2000s",
						rep+2, first, got)
				}
			}
		})
	}
}

// TestRunDeterministicAcrossWorkerCounts pins the schedule against the
// serial shard-task path: a muri-l-scale run whose shards are matched on
// one P must match one whose shards are matched by four workers.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tr := determinismTrace()
	run := func(procs int) string {
		runtime.GOMAXPROCS(procs)
		p := sched.NewMuriLScale(4)
		out := fingerprint(Run(DefaultConfig(), tr, p))
		if p.PlanStats().ShardTasks == 0 {
			t.Fatal("sharding never engaged; the test would prove nothing")
		}
		return out
	}
	serial := run(1)
	if got := run(4); got != serial {
		t.Fatalf("GOMAXPROCS=4 schedule differs from serial\nserial:\n%.2000s\ngot:\n%.2000s",
			serial, got)
	}
}

// TestEventDrivenCompletionEstimates cross-checks the memoized
// earliestCompletion against job completions: with event-driven wake-ups
// and a long interval, completions must still be observed promptly (the
// memo must not let the simulator sleep through a finish).
func TestEventDrivenCompletionEstimates(t *testing.T) {
	tr := determinismTrace()
	ev := DefaultConfig()
	ev.EventDriven = true
	ev.Interval = 2 * time.Hour // wake-ups come almost entirely from events
	got := Run(ev, tr, sched.NewMuriL())
	if got.Summary.Jobs != len(tr.Specs) {
		t.Fatalf("event-driven run incomplete: %d/%d jobs", got.Summary.Jobs, len(tr.Specs))
	}
	for _, j := range got.Jobs {
		if j.FinishedAt < j.Submit {
			t.Fatalf("job %d finished before submit", j.ID)
		}
	}
}

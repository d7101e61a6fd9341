package experiments

import (
	"testing"

	"muri/internal/sched"
	"muri/internal/sim"
	"muri/internal/trace"
)

// TestFaultsDecisionsBounded replays trace 1 (300 jobs, 8×8) under the
// high regime's plan, built as the Faults experiment builds it, and
// bounds each policy's decisions at 3× its healthy run. A transient fault
// must die with the execution attempt it was drawn for: a wake-up for a
// superseded attempt's fault starts an extra round, Muri-L's re-plan in
// that round relaunches units into fresh attempts with fresh draws, and
// the run churns at dozens of times its healthy decision count.
func TestFaultsDecisionsBounded(t *testing.T) {
	o := Quick()
	tr := trace.Generate(trace.PhillyConfigs(o.capacity())[0])
	high := faultRegimes[len(faultRegimes)-1]
	for _, policy := range []func() sched.Policy{sched.SRTF, func() sched.Policy { return sched.NewMuriL() }} {
		cfg := o.simConfig()
		healthy := sim.Run(cfg, tr, policy())
		cfg.Faults = o.faultPlan(high, tr)
		faulty := sim.Run(cfg, tr, policy())
		if faulty.Faults.Transient == 0 {
			t.Fatalf("%s: the %s plan applied no transient fault", faulty.Policy, high.name)
		}
		if got, limit := faulty.Engine.Decisions, 3*healthy.Engine.Decisions; got > limit {
			t.Errorf("%s: %d decisions under the %s plan, want ≤ %d (3× the healthy run's %d)",
				faulty.Policy, got, high.name, limit, healthy.Engine.Decisions)
		}
	}
}

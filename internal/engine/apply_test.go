package engine_test

import (
	"reflect"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/sched"
)

// TestMarkDoneForgetsUntrackedPlacement: the simulator tracks no jobs, so
// a completion must clear the placement memory of an untracked job too,
// or finished jobs would stay remembered as running.
func TestMarkDoneForgetsUntrackedPlacement(t *testing.T) {
	j := newJob(t, 1, 1)
	e := engine.New(engine.Config{Style: engine.ReplaceAll, Policy: scriptedPolicy{preempt: true,
		plan: func(_ time.Duration, jobs []*job.Job, _ int) []sched.Unit {
			units := make([]sched.Unit, len(jobs))
			for i, j := range jobs {
				units[i] = sched.Unit{Jobs: []*job.Job{j}, GPUs: j.GPUs}
			}
			return units
		}}})
	out := e.Reconcile(engine.Input{Candidates: []*job.Job{j}, Pending: []*job.Job{j}, Capacity: 1, Placer: newFakePlacer(1)})
	if got := decisionStrings(out.Decisions); !equalStrings(got, []string{"launch exclusive:1"}) {
		t.Fatalf("decisions = %v, want one launch", got)
	}
	if keys := e.RunningKeys(); keys[1] != "exclusive:1" {
		t.Fatalf("running keys after launch = %v", keys)
	}
	if e.MarkDone(1) {
		t.Error("MarkDone applied a transition to an untracked job")
	}
	if keys := e.RunningKeys(); len(keys) != 0 {
		t.Errorf("running keys after completion = %v, want none", keys)
	}
}

// TestLifecycleCallsEqualReplay: each lifecycle call changes the engine
// exactly as replaying the decision it emits does (plus the fault
// record's budget spend), so a twin restored from the snapshot before the
// call and fed the decision ends in the same state.
func TestLifecycleCallsEqualReplay(t *testing.T) {
	cases := []struct {
		name string
		call func(e *engine.Engine)
	}{
		{"preempt running", func(e *engine.Engine) { e.Preempt("exclusive:1", []job.ID{1}, "injected") }},
		{"requeue running", func(e *engine.Engine) { e.RequeueWithCause(3, engine.ReasonMachineLost, "m0 lost") }},
		{"requeue pending", func(e *engine.Engine) { e.RequeueWithCause(2, engine.ReasonMachineLost, "m0 lost") }},
		{"fault running", func(e *engine.Engine) { e.RecordFault(1) }},
		{"fault pending", func(e *engine.Engine) { e.RecordFault(2) }},
		{"fault deadletter", func(e *engine.Engine) { e.RecordFault(3); e.RecordFault(3) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var emitted []engine.Decision
			newEngine := func() *engine.Engine {
				return engine.New(engine.Config{
					Style:      engine.Differential,
					Retry:      engine.RetryPolicy{BackoffBase: time.Millisecond, BackoffMax: time.Second, Budget: 1},
					Provenance: func(engine.CauseEvent) {},
					Observer:   func(d engine.Decision) { emitted = append(emitted, d) },
					Policy: scriptedPolicy{preempt: true, plan: func(_ time.Duration, jobs []*job.Job, _ int) []sched.Unit {
						// Job 2's two-GPU unit is skipped while job 3's is
						// admitted behind it: a bypass count and a wait cause.
						units := make([]sched.Unit, len(jobs))
						for i, j := range jobs {
							units[i] = sched.Unit{Jobs: []*job.Job{j}, GPUs: j.GPUs}
						}
						return units
					}},
				})
			}
			jobs := []*job.Job{newJob(t, 1, 2), newJob(t, 2, 2), newJob(t, 3, 1)}
			live := newEngine()
			for _, j := range jobs {
				live.Track(j.ID, engine.PhasePending)
			}
			live.Reconcile(engine.Input{Candidates: jobs, Capacity: 3, Placer: newFakePlacer(3)})
			if live.PhaseOf(1) != engine.PhaseRunning || live.PhaseOf(2) != engine.PhasePending || live.PhaseOf(3) != engine.PhaseRunning {
				t.Fatalf("setup phases = %v %v %v", live.PhaseOf(1), live.PhaseOf(2), live.PhaseOf(3))
			}
			before := live.Snapshot()
			if len(before.Bypassed) == 0 || len(before.WaitCauses) == 0 {
				t.Fatalf("setup left no bypass credit or wait cause: %+v", before)
			}
			emitted = emitted[:0]
			c.call(live)

			twin := newEngine()
			twin.Restore(before)
			for _, d := range emitted {
				twin.ApplyDecision(d)
				if d.Reason == engine.ReasonFault || d.Action == engine.ActDeadletter {
					twin.ReplayFault(d.Jobs[0], live.FaultsOf(d.Jobs[0]))
				}
			}
			if got, want := twin.Snapshot(), live.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("replayed state differs\n  live   %+v\n  replay %+v", want, got)
			}
		})
	}
}

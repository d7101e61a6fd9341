package engine_test

import (
	"reflect"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/sched"
)

// TestMarkDoneForgetsPlacement: a completion finishes the job and clears
// its placement memory, or finished jobs would stay remembered as
// running; a second completion report is rejected.
func TestMarkDoneForgetsPlacement(t *testing.T) {
	j := newJob(t, 1, 1)
	var log decisionLog
	e := engine.New(engine.Config{Observer: log.observe, Style: engine.ReplaceAll, Policy: scriptedPolicy{preempt: true,
		plan: func(_ time.Duration, jobs []*job.Job, _ int) []sched.Unit {
			units := make([]sched.Unit, len(jobs))
			for i, j := range jobs {
				units[i] = sched.Unit{Jobs: []*job.Job{j}, GPUs: j.GPUs}
			}
			return units
		}}})
	e.Track(j, job.Pending)
	e.Reconcile(engine.Input{Candidates: []*job.Job{j}, Capacity: 1, Placer: newFakePlacer(1)})
	if got := log.take(); !equalStrings(got, []string{"launch exclusive:1"}) {
		t.Fatalf("decisions = %v, want one launch", got)
	}
	if keys := e.RunningKeys(); keys[1] != "exclusive:1" || j.State != job.Running {
		t.Fatalf("after launch: running keys = %v, state %v", keys, j.State)
	}
	if !e.MarkDone(1) || j.State != job.Done {
		t.Errorf("MarkDone: state %v, want done", j.State)
	}
	if keys := e.RunningKeys(); len(keys) != 0 {
		t.Errorf("running keys after completion = %v, want none", keys)
	}
	if e.MarkDone(1) {
		t.Error("a second completion applied a transition to a done job")
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
			newJobs := func() []*job.Job { return []*job.Job{newJob(t, 1, 2), newJob(t, 2, 2), newJob(t, 3, 1)} }
			jobs := newJobs()
			live := newEngine()
			for _, j := range jobs {
				live.Track(j, job.Pending)
			}
			live.Reconcile(engine.Input{Candidates: jobs, Capacity: 3, Placer: newFakePlacer(3)})
			if jobs[0].State != job.Running || jobs[1].State != job.Pending || jobs[2].State != job.Running {
				t.Fatalf("setup states = %v %v %v", jobs[0].State, jobs[1].State, jobs[2].State)
			}
			before := live.Snapshot()
			if len(before.Bypassed) == 0 || len(before.WaitCauses) == 0 {
				t.Fatalf("setup left no bypass credit or wait cause: %+v", before)
			}
			// The driver's half of the snapshot: each job's state and faults.
			states, faults := make([]job.State, len(jobs)), make([]int, len(jobs))
			for i, j := range jobs {
				states[i], faults[i] = j.State, j.Faults
			}
			emitted = emitted[:0]
			c.call(live)

			twin := newEngine()
			twin.Restore(before)
			twinJobs := newJobs()
			for i, j := range twinJobs {
				twin.Track(j, states[i])
				twin.ReplayFault(j.ID, faults[i])
			}
			for _, d := range emitted {
				twin.ApplyDecision(d)
				if d.Reason == engine.ReasonFault || d.Action == engine.ActDeadletter {
					twin.ReplayFault(d.Jobs[0], jobs[d.Jobs[0]-1].Faults)
				}
			}
			if got, want := twin.Snapshot(), live.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("replayed state differs\n  live   %+v\n  replay %+v", want, got)
			}
			for i, j := range twinJobs {
				if j.State != jobs[i].State || j.Faults != jobs[i].Faults {
					t.Errorf("job %d: replayed %v with %d faults, live %v with %d",
						j.ID, j.State, j.Faults, jobs[i].State, jobs[i].Faults)
				}
			}
		})
	}
}

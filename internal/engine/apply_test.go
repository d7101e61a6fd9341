package engine_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/workload"
)

// TestCompleteForgetsPlacement: a completion finishes the job and clears
// its placement memory, or finished jobs would stay remembered as
// running; a second completion report is rejected.
func TestCompleteForgetsPlacement(t *testing.T) {
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
	e.Reconcile(engine.Input{Candidates: []*job.Job{j}, Capacity: 1, Free: 1, Place: newFakePlacer(1).place})
	if got := log.take(); !equalStrings(got, []string{"launch exclusive:1"}) {
		t.Fatalf("decisions = %v, want one launch", got)
	}
	if keys := e.RunningKeys(); keys[1] != "exclusive:1" || j.State != job.Running {
		t.Fatalf("after launch: running keys = %v, state %v", keys, j.State)
	}
	if !e.Complete(1, time.Hour) || j.State != job.Done {
		t.Errorf("Complete: state %v, want done", j.State)
	}
	if keys := e.RunningKeys(); len(keys) != 0 {
		t.Errorf("running keys after completion = %v, want none", keys)
	}
	if e.Complete(1, time.Hour) {
		t.Error("a second completion applied a transition to a done job")
	}
}

// completionLog records, in order, what a completion fed: the policy's
// hook ("hook <service>") and the estimator ("estimator <model>").
type completionLog []string

// hookPolicy is a policy with a completion hook.
type hookPolicy struct {
	scriptedPolicy
	log *completionLog
}

func (p hookPolicy) Observe(service time.Duration) { *p.log = append(*p.log, "hook "+service.String()) }

// loggingEstimator is the online estimator with its completion feed logged.
type loggingEstimator struct {
	*profile.Online
	log *completionLog
}

func (e loggingEstimator) ObserveCompletion(model string, measured workload.StageTimes, service time.Duration) {
	*e.log = append(*e.log, "estimator "+model)
	e.Online.ObserveCompletion(model, measured, service)
}

// TestCompleteFeedsHookThenEstimator: an applied completion feeds the
// policy's completion hook, then the estimator, once each; a second
// completion of the same job, or one of a profiling job, is rejected by
// the state machine and feeds neither.
func TestCompleteFeedsHookThenEstimator(t *testing.T) {
	var log completionLog
	est := loggingEstimator{Online: profile.NewOnline(), log: &log}
	e := engine.New(engine.Config{Estimator: est, Policy: hookPolicy{log: &log,
		scriptedPolicy: scriptedPolicy{plan: func(time.Duration, []*job.Job, int) []sched.Unit { return nil }}}})
	running, profiling := newJob(t, 1, 2), newJob(t, 2, 1)
	e.Track(running, job.Running)
	e.Track(profiling, job.Profiling)

	if !e.Complete(running.ID, 3*time.Hour) || running.State != job.Done {
		t.Fatalf("Complete of a running job: state %v, want done", running.State)
	}
	if want := []string{"hook 3h0m0s", "estimator gpt2"}; !slices.Equal(log, want) {
		t.Fatalf("completion fed %v, want %v", log, want)
	}
	if b, ok := est.EstimateFor(running); !ok || b.Samples != 1 {
		t.Errorf("estimator belief %+v (ok %v), want one sample", b, ok)
	}
	log = log[:0]
	if e.Complete(running.ID, 3*time.Hour) {
		t.Error("a second completion applied a transition to a done job")
	}
	if e.Complete(profiling.ID, time.Hour) || profiling.State != job.Profiling {
		t.Errorf("profiling -> done applied (state %v); the state machine should reject it", profiling.State)
	}
	if len(log) != 0 {
		t.Errorf("rejected completions fed %v, want nothing", log)
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
			live.Reconcile(engine.Input{Candidates: jobs, Capacity: 3, Free: 3, Place: newFakePlacer(3).place})
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

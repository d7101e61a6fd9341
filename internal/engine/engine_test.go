package engine_test

import (
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/sched"
	"muri/internal/telemetry"
	"muri/internal/workload"
)

// scriptedPolicy lets a test dictate each round's plan exactly.
type scriptedPolicy struct {
	preempt bool
	plan    func(now time.Duration, jobs []*job.Job, capacity int) []sched.Unit
}

func (p scriptedPolicy) Name() string     { return "scripted" }
func (p scriptedPolicy) Preemptive() bool { return p.preempt }
func (p scriptedPolicy) Plan(now time.Duration, jobs []*job.Job, capacity int) []sched.Unit {
	return p.plan(now, jobs, capacity)
}

// fakePlacer is a test driver's counting placement over a fixed GPU
// budget: free is its Input.Free and place its Input.Place.
type fakePlacer struct {
	capacity int
	free     int
}

func newFakePlacer(capacity int) *fakePlacer {
	return &fakePlacer{capacity: capacity, free: capacity}
}

// reset releases every allocation, as a driver does before a preemptive
// ReplaceAll round.
func (p *fakePlacer) reset() { p.free = p.capacity }

func (p *fakePlacer) place(key string, u sched.Unit) (any, bool) {
	if u.GPUs > p.free {
		return nil, false
	}
	p.free -= u.GPUs
	return key, true
}

func newJob(t *testing.T, id int64, gpus int) *job.Job {
	t.Helper()
	m, err := workload.ByName("gpt2")
	if err != nil {
		t.Fatal(err)
	}
	return job.New(job.ID(id), m, gpus, 1000, 0)
}

// track registers jobs with e at pending, as a driver's admission does.
func track(e *engine.Engine, jobs ...*job.Job) {
	for _, j := range jobs {
		e.Track(j, job.Pending)
	}
}

// decisionLog collects the decision stream as a Config.Observer sees it.
type decisionLog []string

func (l *decisionLog) observe(d engine.Decision) { *l = append(*l, d.String()) }

// take returns the decisions logged since the last take.
func (l *decisionLog) take() []string {
	got := *l
	*l = nil
	return got
}

// candidatesOf returns the jobs a round may plan over, read from job.State
// as the engine reads them: pending ones, plus running ones when preempt.
func candidatesOf(jobs []*job.Job, preempt bool) []*job.Job {
	var out []*job.Job
	for _, j := range jobs {
		if j.State == job.Pending || (preempt && j.State == job.Running) {
			out = append(out, j)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReconcileAdmitsIntoCapacity(t *testing.T) {
	j1, j2 := newJob(t, 1, 1), newJob(t, 2, 1)
	u1 := sched.Unit{Jobs: []*job.Job{j1}, GPUs: 1, Mode: sched.Exclusive}
	u2 := sched.Unit{Jobs: []*job.Job{j2}, GPUs: 1, Mode: sched.Exclusive}
	var log decisionLog
	e := engine.New(engine.Config{
		Observer: log.observe,
		Policy: scriptedPolicy{plan: func(time.Duration, []*job.Job, int) []sched.Unit {
			return []sched.Unit{u1, u2}
		}},
	})
	track(e, j1, j2)
	e.Reconcile(engine.Input{
		Candidates: []*job.Job{j1, j2},
		Capacity:   1,
		Free:       1,
		Place:      newFakePlacer(1).place,
	})
	want := []string{"launch exclusive:1"}
	if got := log.take(); !equalStrings(got, want) {
		t.Errorf("decisions = %v, want %v", got, want)
	}
	if j1.State != job.Running || j2.State != job.Pending {
		t.Errorf("states = %v, %v; want job 1 running, job 2 still pending", j1.State, j2.State)
	}
	if st := e.Stats(); st.Rounds != 1 || st.Launches != 1 || st.QueueDepth != 1 {
		t.Errorf("stats = %+v, want 1 round, 1 launch, queue depth 1", st)
	}
}

func TestStarvationBoostPromotesBypassedUnit(t *testing.T) {
	jA, jB, jC := newJob(t, 1, 1), newJob(t, 2, 1), newJob(t, 3, 2)
	uA := sched.Unit{Jobs: []*job.Job{jA}, GPUs: 1, Mode: sched.Exclusive}
	uB := sched.Unit{Jobs: []*job.Job{jB}, GPUs: 1, Mode: sched.Exclusive}
	uC := sched.Unit{Jobs: []*job.Job{jC}, GPUs: 2, Mode: sched.Exclusive}
	var log decisionLog
	e := engine.New(engine.Config{
		Observer:           log.observe,
		Style:              engine.ReplaceAll,
		StarvationPatience: 1,
		// C is planned ahead of B, so admitting B past it charges C one
		// bypass per round.
		Policy: scriptedPolicy{preempt: true, plan: func(time.Duration, []*job.Job, int) []sched.Unit {
			return []sched.Unit{uA, uC, uB}
		}},
	})
	track(e, jA, jB, jC)
	placer := newFakePlacer(2)
	round := func(current []engine.Current) []string {
		placer.reset() // a preemptive ReplaceAll round re-places everything
		e.Reconcile(engine.Input{
			Candidates: []*job.Job{jA, jB, jC},
			Capacity:   2,
			Current:    current,
			Free:       placer.free,
			Place:      placer.place,
		})
		return log.take()
	}
	want := []string{"launch exclusive:1", "launch exclusive:2"}
	if got := round(nil); !equalStrings(got, want) {
		t.Fatalf("round 1 decisions = %v, want %v", got, want)
	}
	// Round 2: C has been bypassed past its patience, so it is boosted to
	// the front, takes the whole capacity, and A/B are preempted.
	current := []engine.Current{
		{Spec: uA, Handle: "a"},
		{Spec: uB, Handle: "b"},
	}
	want = []string{"kill exclusive:1", "kill exclusive:2", "launch exclusive:3"}
	if got := round(current); !equalStrings(got, want) {
		t.Errorf("round 2 decisions = %v, want %v", got, want)
	}
	if st := e.Stats(); st.Preemptions != 2 || st.Launches != 3 {
		t.Errorf("stats = %+v, want 2 preemptions, 3 launches", st)
	}
}

func TestDifferentialKeepsSameKeyKillsRest(t *testing.T) {
	j1, j2, j3 := newJob(t, 1, 1), newJob(t, 2, 1), newJob(t, 3, 1)
	uX := sched.Unit{Jobs: []*job.Job{j1}, GPUs: 1, Mode: sched.Exclusive}
	uY := sched.Unit{Jobs: []*job.Job{j2}, GPUs: 1, Mode: sched.Exclusive}
	uZ := sched.Unit{Jobs: []*job.Job{j3}, GPUs: 1, Mode: sched.Exclusive}
	var log decisionLog
	e := engine.New(engine.Config{
		Observer: log.observe,
		Style:    engine.Differential,
		// The plan keeps X, drops Y, introduces Z.
		Policy: scriptedPolicy{preempt: true, plan: func(time.Duration, []*job.Job, int) []sched.Unit {
			return []sched.Unit{uX, uZ}
		}},
	})
	track(e, j3)
	e.Track(j1, job.Running)
	e.Track(j2, job.Running)
	placer := newFakePlacer(2)
	placer.free = 0 // X and Y hold both GPUs as the round begins
	var killed []string
	placements := e.Reconcile(engine.Input{
		Candidates: []*job.Job{j1, j2, j3},
		Capacity:   2,
		Current: []engine.Current{
			{Spec: uX, Handle: "x"},
			{Spec: uY, Handle: "y"},
		},
		Free:  placer.free,
		Place: placer.place,
		Kill: func(c engine.Current) {
			killed = append(killed, c.Handle.(string))
			placer.free += c.Spec.GPUs
		},
	})
	if len(killed) != 1 || killed[0] != "y" {
		t.Errorf("killed handles = %v, want [y]", killed)
	}
	if len(placements) != 1 || placements[0].Key != "exclusive:3" || j1.State != job.Running {
		t.Errorf("placements = %v, job 1 %v: want only Z placed and X kept running", placements, j1.State)
	}
	want := []string{"kill exclusive:2", "launch exclusive:3"}
	if got := log.take(); !equalStrings(got, want) {
		t.Errorf("decisions = %v, want %v", got, want)
	}
	if got := candidatesOf([]*job.Job{j1, j2, j3}, false); len(got) != 1 || got[0] != j2 {
		t.Errorf("pending = %v, want just the preempted job 2", got)
	}
}

// TestPlacementContinuesRunningKey: a placement whose key was running as
// the round began continues the unit that ran it (Prev is that unit's
// handle) and emits no decision, whatever the placement memory says about
// its members; any other placement is a launch with a nil Prev. The third
// round re-places a pair that shrank to one member when the other
// completed: the survivor's placement memory still names the pair's key,
// and the shrunk unit continues all the same.
func TestPlacementContinuesRunningKey(t *testing.T) {
	j1, j2 := newJob(t, 1, 1), newJob(t, 2, 1)
	pair := sched.Unit{Jobs: []*job.Job{j1, j2}, GPUs: 1, Mode: sched.Interleaved}
	shrunk := sched.Unit{Jobs: []*job.Job{j1}, GPUs: 1, Mode: sched.Interleaved}
	solo := sched.Unit{Jobs: []*job.Job{j1}, GPUs: 1, Mode: sched.Exclusive}
	plans := [][]sched.Unit{{pair}, {pair}, {shrunk}, {solo}}
	roundIdx := 0
	var log decisionLog
	e := engine.New(engine.Config{
		Style:    engine.ReplaceAll,
		Observer: log.observe,
		Policy: scriptedPolicy{preempt: true, plan: func(time.Duration, []*job.Job, int) []sched.Unit {
			return plans[roundIdx]
		}},
	})
	track(e, j1, j2)
	handles := 0
	var current []engine.Current
	run := func(candidates ...*job.Job) engine.Placement {
		t.Helper()
		placements := e.Reconcile(engine.Input{
			Candidates: candidates,
			Capacity:   1,
			Current:    current,
			Free:       1, // a preemptive ReplaceAll round re-places everything
			Place: func(string, sched.Unit) (any, bool) {
				handles++
				return handles, true
			},
		})
		if len(placements) != 1 {
			t.Fatalf("round %d placed %d units, want 1", roundIdx+1, len(placements))
		}
		p := placements[0]
		current = []engine.Current{{Spec: p.Spec, Handle: p.Handle}}
		roundIdx++
		return p
	}
	want := func(p engine.Placement, prev any, decisions ...string) {
		t.Helper()
		if p.Prev != prev {
			t.Errorf("round %d: %s Prev = %v, want %v", roundIdx, p.Key, p.Prev, prev)
		}
		if got := log.take(); !equalStrings(got, decisions) {
			t.Errorf("round %d: decisions %q, want %q", roundIdx, got, decisions)
		}
	}

	p := run(j1, j2)
	want(p, nil, "launch interleaved:1,2")
	first := p.Handle
	p = run(j1, j2)
	want(p, first)
	e.Complete(j2.ID, 0)
	current[0].Spec.Jobs = current[0].Spec.Jobs[:1:1] // the simulator drops the finished member
	second := current[0].Handle
	p = run(j1)
	want(p, second)
	if k := e.RunningKeys()[j1.ID]; k != "interleaved:1,2" {
		t.Errorf("survivor's placement memory = %q, want its launch key", k)
	}
	p = run(j1)
	want(p, nil, "kill interleaved:1", "launch exclusive:1")
}

func TestRecordFaultBudgetAndDeadletter(t *testing.T) {
	var seen []string
	retry := engine.RetryPolicy{
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
		Budget:      2,
	}
	e := engine.New(engine.Config{
		Policy:   scriptedPolicy{plan: func(time.Duration, []*job.Job, int) []sched.Unit { return nil }},
		Retry:    retry,
		Observer: func(d engine.Decision) { seen = append(seen, d.String()) },
	})
	j := newJob(t, 5, 1)
	e.Track(j, job.Pending)
	for attempt := 1; attempt <= 2; attempt++ {
		backoff, dead := e.RecordFault(5)
		if dead {
			t.Fatalf("fault %d dead-lettered inside budget", attempt)
		}
		if want := retry.Backoff(5, attempt); backoff != want {
			t.Errorf("fault %d backoff = %v, want %v", attempt, backoff, want)
		}
		if j.State != job.Pending {
			t.Errorf("fault %d state = %v, want pending", attempt, j.State)
		}
	}
	if _, dead := e.RecordFault(5); !dead {
		t.Fatal("third fault should exhaust a budget of 2")
	}
	if j.State != job.Deadletter {
		t.Errorf("state = %v, want deadletter", j.State)
	}
	if j.Faults != 3 {
		t.Errorf("faults = %d, want 3", j.Faults)
	}
	want := []string{"requeue 5 (fault)", "requeue 5 (fault)", "deadletter 5"}
	if !equalStrings(seen, want) {
		t.Errorf("decision stream = %v, want %v", seen, want)
	}
	if st := e.Stats(); st.Requeues != 2 || st.DeadLettered != 1 || st.Decisions != 3 {
		t.Errorf("stats = %+v, want 2 requeues, 1 dead-lettered, 3 decisions", st)
	}
}

func TestRetryBackoffDoublesToCapDeterministically(t *testing.T) {
	r := engine.RetryPolicy{BackoffBase: 100 * time.Millisecond, BackoffMax: 800 * time.Millisecond}
	for attempt := 1; attempt <= 6; attempt++ {
		base := r.BackoffBase << (attempt - 1)
		if base > r.BackoffMax {
			base = r.BackoffMax
		}
		got := r.Backoff(42, attempt)
		if got < base || got > base+base/4 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, got, base, base+base/4)
		}
		if again := r.Backoff(42, attempt); again != got {
			t.Errorf("attempt %d: backoff not deterministic (%v vs %v)", attempt, got, again)
		}
	}
	if r.Backoff(1, 2) == r.Backoff(2, 2) {
		t.Error("jitter does not decorrelate different jobs")
	}
}

func TestPhaseTransitions(t *testing.T) {
	cases := []struct {
		from, to job.State
		ok       bool
	}{
		{job.Profiling, job.Pending, true},
		{job.Profiling, job.Running, false},
		{job.Pending, job.Running, true},
		{job.Pending, job.Pending, true},
		{job.Pending, job.Done, true},
		{job.Pending, job.Deadletter, true},
		{job.Running, job.Pending, true},
		{job.Running, job.Done, true},
		{job.Running, job.Profiling, false},
		{job.Deadletter, job.Done, true},
		{job.Deadletter, job.Pending, false},
		{job.Done, job.Pending, false},
		{job.Done, job.Done, false},
	}
	for _, c := range cases {
		if got := c.from.CanTransition(c.to); got != c.ok {
			t.Errorf("CanTransition(%s -> %s) = %v, want %v", c.from, c.to, got, c.ok)
		}
	}
}

// TestNewRejectsTracerWithoutClock: trace events carry the driver's
// clock, so a tracer without one is a configuration error, not a trace
// of zero timestamps.
func TestNewRejectsTracerWithoutClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted a Tracer without a Now")
		}
	}()
	engine.New(engine.Config{Policy: sched.FIFO(), Tracer: telemetry.NewTracer(0)})
}

func TestRequeueDecisionString(t *testing.T) {
	var seen []string
	e := engine.New(engine.Config{
		Policy:   scriptedPolicy{plan: func(time.Duration, []*job.Job, int) []sched.Unit { return nil }},
		Observer: func(d engine.Decision) { seen = append(seen, d.String()) },
	})
	j := newJob(t, 4, 1)
	e.Track(j, job.Running)
	d := e.RequeueWithCause(4, engine.ReasonMachineLost, "")
	if d.String() != "requeue 4 (machine-lost)" {
		t.Errorf("decision = %q, want %q", d.String(), "requeue 4 (machine-lost)")
	}
	if j.State != job.Pending {
		t.Errorf("state = %v, want pending after machine-lost requeue", j.State)
	}
	if j.Faults != 0 {
		t.Errorf("machine-lost requeue charged %d faults; it must not spend budget", j.Faults)
	}
	if !equalStrings(seen, []string{"requeue 4 (machine-lost)"}) {
		t.Errorf("observer saw %v", seen)
	}
}

package engine_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/sched"
)

// queueDriver is a seeded driver over its own job set: arrivals, units
// that finish, and one Reconcile per round. Two drivers built from one
// seed make the same choices as long as the engine hands them the same
// outcomes; lend makes one of them lend the queue buffer.
type queueDriver struct {
	rng     *rand.Rand
	policy  sched.Policy
	e       *engine.Engine
	placer  *fakePlacer
	pending []*job.Job
	spare   []*job.Job
	running []engine.Placement
	nextID  int64
	lend    bool
	// lentUsed counts rounds whose queue landed in the lent buffer.
	lentUsed int
}

func newQueueDriver(seed int64, policy sched.Policy, lend bool) *queueDriver {
	return &queueDriver{
		rng:    rand.New(rand.NewSource(seed)),
		policy: policy,
		e:      engine.New(engine.Config{Policy: policy, Style: engine.ReplaceAll}),
		placer: newFakePlacer(16),
		lend:   lend,
	}
}

// round plays round r and returns the rebuilt queue's IDs and the
// decision stream.
func (d *queueDriver) round(t *testing.T, r int) ([]job.ID, []string) {
	now := time.Duration(r) * 6 * time.Minute
	for k := d.rng.Intn(4); k > 0 && len(d.pending) < 80; k-- {
		d.nextID++
		j := newJob(t, d.nextID, 1<<d.rng.Intn(3))
		j.Submit, j.Iterations = now, int64(500+d.rng.Intn(3000))
		d.e.Track(j, job.Pending)
		d.pending = append(d.pending, j)
	}
	d.running = slices.DeleteFunc(d.running, func(p engine.Placement) bool {
		if d.rng.Intn(5) != 0 {
			return false
		}
		for _, j := range p.Spec.Jobs {
			j.State = job.Done
		}
		d.placer.free += p.Spec.GPUs
		return true
	})
	candidates := slices.Clone(d.pending)
	current := make([]engine.Current, len(d.running))
	for i, p := range d.running {
		current[i] = engine.Current{Spec: p.Spec, Handle: p.Key}
		if d.policy.Preemptive() {
			candidates = append(candidates, p.Spec.Jobs...)
		}
	}
	in := engine.Input{Now: now, Candidates: candidates, Pending: d.pending, Capacity: 16, Current: current, Placer: d.placer}
	if d.lend {
		in.PendingInto = d.spare
	}
	out := d.e.Reconcile(in)
	if d.lend {
		if cap(d.spare) > 0 && len(out.Pending) > 0 && unsafe.SliceData(out.Pending) == unsafe.SliceData(d.spare) {
			d.lentUsed++
		}
		d.spare = d.pending
	}
	d.pending = out.Pending
	if d.policy.Preemptive() {
		d.running = d.running[:0]
	}
	for _, p := range out.Placements {
		for _, j := range p.Spec.Jobs {
			j.StartedAt = now
			j.DoneIterations = min(j.Iterations-1, j.DoneIterations+int64(d.rng.Intn(300)))
		}
		d.running = append(d.running, engine.Placement{Key: p.Key, Spec: p.Spec})
	}
	ids := make([]job.ID, len(out.Pending))
	for i, j := range out.Pending {
		ids[i] = j.ID
	}
	return ids, decisionStrings(out.Decisions)
}

// TestPendingIntoMatchesFreshQueue: a driver that alternates two lent
// queue buffers gets, round for round, the queue and decisions a driver
// passing nil gets from fresh allocations — under a preemptive policy,
// whose queue is rebuilt from every candidate, and non-preemptive ones.
func TestPendingIntoMatchesFreshQueue(t *testing.T) {
	policies := map[string]func() sched.Policy{
		"srtf":   sched.SRTF,
		"fifo":   sched.FIFO,
		"muri-l": func() sched.Policy { return sched.NewMuriL() },
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			fresh, lent := newQueueDriver(17, policy(), false), newQueueDriver(17, policy(), true)
			sawQueue := false
			for r := 0; r < 200; r++ {
				wantQ, wantD := fresh.round(t, r)
				gotQ, gotD := lent.round(t, r)
				if !slices.Equal(gotQ, wantQ) || !slices.Equal(gotD, wantD) {
					t.Fatalf("round %d: lent buffers give queue %v, decisions %v; fresh allocation %v, %v", r, gotQ, gotD, wantQ, wantD)
				}
				sawQueue = sawQueue || len(wantQ) > 0
			}
			if !sawQueue || lent.lentUsed < 100 {
				t.Fatalf("queue never formed (%v) or the lent buffer was used in only %d of 200 rounds", sawQueue, lent.lentUsed)
			}
		})
	}
}

// TestPendingIntoAliasingPanics: a lent buffer that shares memory with
// the queue or the candidates it is rebuilt from would be overwritten
// while it is read, so Reconcile refuses it. Disjoint windows of one
// array are fine.
func TestPendingIntoAliasingPanics(t *testing.T) {
	jobs := make([]*job.Job, 8)
	for i := range jobs {
		jobs[i] = newJob(t, int64(i+1), 1)
	}
	policy := scriptedPolicy{plan: func(time.Duration, []*job.Job, int) []sched.Unit { return nil }}
	arr := make([]*job.Job, 16)
	cases := []struct {
		name        string
		in          engine.Input
		shouldPanic bool
	}{
		{"into-pending", engine.Input{Candidates: slices.Clone(jobs), Pending: jobs[:4], PendingInto: jobs[:0]}, true},
		{"into-candidates", engine.Input{Candidates: jobs, Pending: jobs[:4:4], PendingInto: jobs[6:6]}, true},
		{"disjoint-windows", engine.Input{Candidates: jobs, Pending: append(arr[:0:8], jobs[:4]...), PendingInto: arr[8:8]}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := engine.New(engine.Config{Policy: policy, Style: engine.ReplaceAll})
			track(e, jobs...)
			c.in.Capacity, c.in.Placer = 4, newFakePlacer(4)
			var msg any
			func() {
				defer func() { msg = recover() }()
				e.Reconcile(c.in)
			}()
			if panicked := msg != nil; panicked != c.shouldPanic {
				t.Fatalf("panicked %v (%v), want %v", panicked, msg, c.shouldPanic)
			}
			if msg != nil && !strings.Contains(msg.(string), "PendingInto") {
				t.Fatalf("panic %q does not name PendingInto", msg)
			}
		})
	}
}

// TestKeyReuse: a unit that continues keeps last round's key string, and
// every key is still UnitKey of its spec — for a recomposed unit that
// keeps its first member, and across a mode change.
func TestKeyReuse(t *testing.T) {
	jobs := make([]*job.Job, 4)
	for i := range jobs {
		jobs[i] = newJob(t, int64(i+1), 1)
	}
	rounds := []sched.Unit{
		{Jobs: jobs[:2], GPUs: 1, Mode: sched.Interleaved},
		{Jobs: jobs[:2], GPUs: 1, Mode: sched.Interleaved},                              // continues
		{Jobs: jobs[:3], GPUs: 1, Mode: sched.Interleaved},                              // keeps job 1, gains job 3
		{Jobs: jobs[:3], GPUs: 1, Mode: sched.SpaceShared},                              // mode change
		{Jobs: []*job.Job{jobs[2], jobs[0], jobs[1]}, GPUs: 1, Mode: sched.SpaceShared}, // reordered: continues
		{Jobs: []*job.Job{jobs[1], jobs[0]}, GPUs: 1, Mode: sched.SpaceShared},          // job 1 no longer first
	}
	r := 0
	e := engine.New(engine.Config{Style: engine.ReplaceAll, Policy: scriptedPolicy{preempt: true,
		plan: func(time.Duration, []*job.Job, int) []sched.Unit { return []sched.Unit{rounds[r]} }}})
	track(e, jobs...)
	var current []engine.Current
	var prevKey string
	for ; r < len(rounds); r++ {
		out := e.Reconcile(engine.Input{Candidates: jobs, Capacity: 4, Current: current, Placer: newFakePlacer(4)})
		if len(out.Placements) != 1 {
			t.Fatalf("round %d placed %d units", r, len(out.Placements))
		}
		p := out.Placements[0]
		if want := engine.UnitKey(p.Spec); p.Key != want {
			t.Fatalf("round %d: key %q, UnitKey says %q", r, p.Key, want)
		}
		continues := p.Key == prevKey
		if reused := unsafe.StringData(p.Key) == unsafe.StringData(prevKey); continues != reused {
			t.Fatalf("round %d: key %q after %q: continues %v, string reused %v", r, p.Key, prevKey, continues, reused)
		}
		for _, d := range out.Decisions {
			if d.Action == engine.ActKill && d.Key != prevKey {
				t.Fatalf("round %d: kill names %q, the running unit was %q", r, d.Key, prevKey)
			}
		}
		if wantContinues := r == 1 || r == 4; continues != wantContinues {
			t.Fatalf("round %d: continues %v, want %v", r, continues, wantContinues)
		}
		prevKey = p.Key
		for _, j := range p.Spec.Jobs {
			j.StartedAt = 0
		}
		current = []engine.Current{{Spec: p.Spec}}
	}
}

// TestKeyReuseWarmRoundAllocsNoKey: in a warm ReplaceAll round in which
// all 64 units continue, neither the current units' keys nor the admitted
// ones allocate: the round's one allocation is the array the placed units'
// members are copied into.
func TestKeyReuseWarmRoundAllocsNoKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const gpus = 64
	jobs := make([]*job.Job, gpus)
	units := make([]sched.Unit, gpus)
	for i := range jobs {
		jobs[i] = newJob(t, int64(1000+i), 1)
		units[i] = sched.Unit{Jobs: jobs[i : i+1], GPUs: 1}
	}
	e := engine.New(engine.Config{Style: engine.ReplaceAll, Policy: scriptedPolicy{preempt: true,
		plan: func(time.Duration, []*job.Job, int) []sched.Unit { return units }}})
	track(e, jobs...)
	placer := &budgetPlacer{capacity: gpus, free: gpus}
	var current []engine.Current
	var queue, spare []*job.Job
	round := func() {
		out := e.Reconcile(engine.Input{Candidates: jobs, Pending: queue, PendingInto: spare,
			Capacity: gpus, Current: current, Placer: placer})
		queue, spare = out.Pending, queue
		current = current[:0]
		for _, p := range out.Placements {
			current = append(current, engine.Current{Spec: p.Spec})
			p.Spec.Jobs[0].StartedAt = 0
		}
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 1 {
		t.Fatalf("warm round over %d continuing units allocates %.0f times, want 1 (the member array)", gpus, allocs)
	}
}

package engine_test

import (
	"testing"
	"time"
	"unsafe"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/sched"
	"muri/internal/workload"
)

func unitOf(t *testing.T, mode sched.Mode, gpus int, ids ...int64) sched.Unit {
	t.Helper()
	m, err := workload.ByName("gpt2")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*job.Job, len(ids))
	for i, id := range ids {
		jobs[i] = job.New(job.ID(id), m, 1, 100, 0)
	}
	return sched.Unit{Jobs: jobs, GPUs: gpus, Mode: mode}
}

func TestUnitKeyFormat(t *testing.T) {
	got := engine.UnitKey(unitOf(t, sched.Interleaved, 2, 1, 2))
	if got != "interleaved:1,2" {
		t.Errorf("key = %q, want interleaved:1,2", got)
	}
	got = engine.UnitKey(unitOf(t, sched.Exclusive, 4, 7))
	if got != "exclusive:7" {
		t.Errorf("key = %q, want exclusive:7", got)
	}
}

func TestUnitKeyMemberOrderInvariant(t *testing.T) {
	a := engine.UnitKey(unitOf(t, sched.Interleaved, 1, 3, 1, 2))
	b := engine.UnitKey(unitOf(t, sched.Interleaved, 1, 1, 2, 3))
	c := engine.UnitKey(unitOf(t, sched.Interleaved, 1, 2, 3, 1))
	if a != b || b != c {
		t.Errorf("keys differ across member orders: %q %q %q", a, b, c)
	}
	if a != "interleaved:1,2,3" {
		t.Errorf("key = %q, want interleaved:1,2,3", a)
	}
}

func TestUnitKeyDisambiguates(t *testing.T) {
	interleaved := engine.UnitKey(unitOf(t, sched.Interleaved, 1, 1, 2))
	spaceShared := engine.UnitKey(unitOf(t, sched.SpaceShared, 1, 1, 2))
	if interleaved == spaceShared {
		t.Errorf("mode change did not change the key: %q", interleaved)
	}
	pair := engine.UnitKey(unitOf(t, sched.Interleaved, 1, 1, 2))
	trio := engine.UnitKey(unitOf(t, sched.Interleaved, 1, 1, 2, 3))
	if pair == trio {
		t.Errorf("member change did not change the key: %q", pair)
	}
	// Multi-digit IDs must not collide with concatenations of smaller
	// ones ("1,2" vs "12") — the comma separator guarantees it.
	onetwo := engine.UnitKey(unitOf(t, sched.Exclusive, 1, 12))
	if onetwo == pair || onetwo != "exclusive:12" {
		t.Errorf("key = %q, want exclusive:12 distinct from %q", onetwo, pair)
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
	var log []engine.Decision
	e := engine.New(engine.Config{Style: engine.ReplaceAll, Policy: scriptedPolicy{preempt: true,
		plan: func(time.Duration, []*job.Job, int) []sched.Unit { return []sched.Unit{rounds[r]} }},
		Observer: func(d engine.Decision) { log = append(log, d) }})
	track(e, jobs...)
	var current []engine.Current
	var prevKey string
	for ; r < len(rounds); r++ {
		placements := e.Reconcile(engine.Input{Candidates: jobs, Capacity: 4, Current: current, Free: 4, Place: newFakePlacer(4).place})
		if len(placements) != 1 {
			t.Fatalf("round %d placed %d units", r, len(placements))
		}
		p := placements[0]
		if want := engine.UnitKey(p.Spec); p.Key != want {
			t.Fatalf("round %d: key %q, UnitKey says %q", r, p.Key, want)
		}
		continues := p.Key == prevKey
		if reused := unsafe.StringData(p.Key) == unsafe.StringData(prevKey); continues != reused {
			t.Fatalf("round %d: key %q after %q: continues %v, string reused %v", r, p.Key, prevKey, continues, reused)
		}
		for _, d := range log {
			if d.Action == engine.ActKill && d.Key != prevKey {
				t.Fatalf("round %d: kill names %q, the running unit was %q", r, d.Key, prevKey)
			}
		}
		log = log[:0]
		if wantContinues := r == 1 || r == 4; continues != wantContinues {
			t.Fatalf("round %d: continues %v, want %v", r, continues, wantContinues)
		}
		prevKey = p.Key
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
	placer := newBudgetPlacer(gpus)
	var current []engine.Current
	round := func() {
		placements := e.Reconcile(placer.replaceAll(engine.Input{Candidates: jobs, Capacity: gpus, Current: current}))
		current = current[:0]
		for _, p := range placements {
			current = append(current, engine.Current{Spec: p.Spec})
		}
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 1 {
		t.Fatalf("warm round over %d continuing units allocates %.0f times, want 1 (the member array)", gpus, allocs)
	}
}

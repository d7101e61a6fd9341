package engine_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/sched"
)

// refRound is the admission model TestAdmissionEarlyExitExact checks the
// engine against. Its walk is the engine's admission loop as it stood
// before the zero-free early exit: every planned unit is visited, however
// little capacity is left. It tracks exactly the state an early exit
// could corrupt — who was admitted, the bypass ledger, and each waiting
// job's cause classification.
type refRound struct {
	patience  int
	bypassed  map[job.ID]int
	lastCause map[job.ID]string
}

type causeMark struct {
	Job   job.ID
	Cause string
	Note  bool
}

// walk returns the admitted units (admission order) and the cause marks
// the round must emit. running holds the members of untouchable current
// units (non-preemptive rounds).
func (r *refRound) walk(units []sched.Unit, free, capacity int, running map[job.ID]bool) (admitted []sched.Unit, marks []causeMark) {
	starving := func(u sched.Unit) bool {
		for _, j := range u.Jobs {
			if r.bypassed[j.ID] >= r.patience {
				return true
			}
		}
		return false
	}
	var ordered []sched.Unit
	for _, u := range units {
		if starving(u) {
			ordered = append(ordered, u)
			for _, j := range u.Jobs {
				if r.bypassed[j.ID] >= r.patience {
					marks = append(marks, causeMark{j.ID, engine.CauseStarvationBoost, true})
				}
			}
		}
	}
	for _, u := range units {
		if !starving(u) {
			ordered = append(ordered, u)
		}
	}

	claimed := map[job.ID]bool{}
	for id := range running {
		claimed[id] = true
	}
	var skipped []sched.Unit
	bumped := map[job.ID]bool{}
	for _, u := range ordered { // no early exit: the reference visits everything
		if slices.ContainsFunc(u.Jobs, func(j *job.Job) bool { return claimed[j.ID] }) {
			continue
		}
		if u.GPUs > free {
			skipped = append(skipped, u)
			continue
		}
		free -= u.GPUs
		admitted = append(admitted, u)
		for _, j := range u.Jobs {
			claimed[j.ID] = true
		}
		for _, sk := range skipped {
			for _, j := range sk.Jobs {
				if !bumped[j.ID] {
					bumped[j.ID] = true
					r.bypassed[j.ID]++
				}
			}
		}
		skipped = skipped[:0]
	}

	// The fake placer never fragments, so placed = running + admitted.
	placed := map[job.ID]bool{}
	for id := range running {
		placed[id] = true
	}
	for _, u := range admitted {
		for _, j := range u.Jobs {
			placed[j.ID] = true
			delete(r.bypassed, j.ID)
			delete(r.lastCause, j.ID)
		}
	}
	for id := range running {
		delete(r.bypassed, id)
		delete(r.lastCause, id)
	}
	seen := map[job.ID]bool{}
	for _, u := range ordered {
		for _, j := range u.Jobs {
			if placed[j.ID] || seen[j.ID] {
				continue
			}
			seen[j.ID] = true
			cause := engine.CauseRankedBehind
			if u.GPUs > capacity {
				cause = engine.CauseCapacity
			}
			if r.lastCause[j.ID] != cause {
				r.lastCause[j.ID] = cause
				marks = append(marks, causeMark{j.ID, cause, false})
			}
		}
	}
	return admitted, marks
}

// exitScript is one scripted scenario: a fixed priority order of units,
// and per round which jobs have arrived and which finish afterwards.
type exitScript struct {
	name     string
	preempt  bool
	capacity int
	order    []sched.Unit
	arrive   map[job.ID]int   // first round the job is a candidate (default 0)
	finish   map[int][]job.ID // jobs that complete after the given round
	rounds   int
}

func exitScripts(t *testing.T) []exitScript {
	one := func(id int64, gpus int) sched.Unit {
		return sched.Unit{Jobs: []*job.Job{newJob(t, id, gpus)}, GPUs: gpus, Mode: sched.Exclusive}
	}
	// Full cluster, non-preemptive: a and b fill the four GPUs, so rounds
	// 1-2 start with nothing free and the walk exits at once. When a
	// finishes, d (3 GPUs) is skipped while c slips in behind it, and the
	// oversize unit x can never fit.
	full := exitScript{
		name: "full-cluster", capacity: 4, rounds: 6,
		order:  []sched.Unit{one(1, 2), one(2, 2), one(4, 3), one(3, 1), one(5, 1), one(9, 8)},
		arrive: map[job.ID]int{5: 3},
		finish: map[int][]job.ID{2: {1}, 4: {2, 3}},
	}
	// Starving 8-GPU unit behind a 1-GPU stream, preemptive: big is
	// planned fifth, so four small units go first, big is skipped, four
	// more are admitted behind it (bumping it) and capacity hits zero with
	// the rest of the stream — and a 2-GPU unit — still unvisited. After
	// three bypassed rounds big is boosted, takes the whole cluster, and
	// the walk exits after one unit.
	stream := exitScript{name: "starving-8gpu", preempt: true, capacity: 8, rounds: 9,
		arrive: map[job.ID]int{}, finish: map[int][]job.ID{}}
	for id := int64(1); id <= 4; id++ {
		stream.order = append(stream.order, one(id, 1))
	}
	stream.order = append(stream.order, one(100, 8))
	for id := int64(5); id <= 14; id++ {
		stream.order = append(stream.order, one(id, 1))
	}
	stream.order = append(stream.order, one(101, 2))
	stream.arrive[13], stream.arrive[14] = 2, 5
	stream.finish[1] = []job.ID{1, 2}
	stream.finish[4] = []job.ID{100}
	stream.finish[6] = []job.ID{3, 4, 5, 6, 7}
	return []exitScript{full, stream}
}

func TestAdmissionEarlyExitExact(t *testing.T) {
	for _, sc := range exitScripts(t) {
		for _, provenance := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/provenance=%v", sc.name, provenance), func(t *testing.T) {
				runExitScript(t, sc, provenance)
			})
		}
	}
}

func runExitScript(t *testing.T, sc exitScript, provenance bool) {
	const patience = 3
	for _, u := range sc.order { // scripts are reused across subtests
		u.Jobs[0].State = job.Pending
	}
	var marks []causeMark
	var log decisionLog
	var planned []sched.Unit // the policy's units of the round in progress
	cfg := engine.Config{
		Style:              engine.ReplaceAll,
		StarvationPatience: patience,
		Observer:           log.observe,
		Policy: scriptedPolicy{preempt: sc.preempt, plan: func(_ time.Duration, jobs []*job.Job, _ int) []sched.Unit {
			planned = planned[:0]
			for _, u := range sc.order {
				if slices.Contains(jobs, u.Jobs[0]) {
					planned = append(planned, u)
				}
			}
			return planned
		}},
	}
	if provenance {
		cfg.Provenance = func(ev engine.CauseEvent) {
			marks = append(marks, causeMark{ev.Job, ev.Cause, ev.Note})
		}
	}
	e := engine.New(cfg)
	for _, u := range sc.order {
		track(e, u.Jobs...)
	}
	ref := &refRound{patience: patience, bypassed: map[job.ID]int{}, lastCause: map[job.ID]string{}}
	placer := newFakePlacer(sc.capacity)
	var current []engine.Current
	done := map[job.ID]bool{}
	var sawExit, sawLedger, sawBoost bool

	for round := 0; round < sc.rounds; round++ {
		running := map[job.ID]bool{}
		for _, c := range current {
			running[c.Spec.Jobs[0].ID] = true
		}
		var candidates []*job.Job
		for _, u := range sc.order {
			j := u.Jobs[0]
			if sc.arrive[j.ID] <= round && !done[j.ID] && (sc.preempt || !running[j.ID]) {
				candidates = append(candidates, j)
			}
		}
		if sc.preempt {
			placer.reset() // a preemptive ReplaceAll round re-places everything
			running = nil
		}
		free := placer.free
		marks = marks[:0]
		placements := e.Reconcile(engine.Input{
			Candidates: candidates, Capacity: sc.capacity, Current: current, Free: free, Place: placer.place,
		})
		admitted, wantMarks := ref.walk(planned, free, sc.capacity, running)
		used := 0
		for _, u := range admitted {
			used += u.GPUs
		}
		sawExit = sawExit || (used == free && len(planned) > len(admitted))
		sawLedger = sawLedger || len(ref.bypassed) > 0
		sawBoost = sawBoost || slices.ContainsFunc(wantMarks, func(m causeMark) bool { return m.Note })

		// Decisions: kills in current order, launches in placement order
		// (admitted, stably sorted by descending GPUs).
		slices.SortStableFunc(admitted, func(a, b sched.Unit) int { return b.GPUs - a.GPUs })
		placedKeys := map[string]bool{}
		for _, u := range admitted {
			placedKeys[engine.UnitKey(u)] = true
		}
		var want []string
		currentKeys := map[string]bool{}
		for _, c := range current {
			key := engine.UnitKey(c.Spec)
			currentKeys[key] = true
			if sc.preempt && !placedKeys[key] {
				want = append(want, "kill "+key)
			}
		}
		for _, u := range admitted {
			if key := engine.UnitKey(u); !currentKeys[key] {
				want = append(want, "launch "+key)
			}
		}
		if got := log.take(); !equalStrings(got, want) {
			t.Fatalf("round %d decisions = %v, reference %v", round, got, want)
		}
		gotBypassed := map[job.ID]int{}
		for id, n := range e.Snapshot().Bypassed {
			gotBypassed[job.ID(id)] = n
		}
		if !reflect.DeepEqual(gotBypassed, ref.bypassed) {
			t.Fatalf("round %d bypassed = %v, reference %v", round, gotBypassed, ref.bypassed)
		}
		if provenance && !slices.Equal(marks, wantMarks) {
			t.Fatalf("round %d cause events = %v, reference %v", round, marks, wantMarks)
		}

		// Drive: placements become current; scripted completions free
		// their GPUs.
		if sc.preempt {
			current = current[:0]
		}
		for _, p := range placements {
			current = append(current, engine.Current{Spec: p.Spec, Handle: p.Key})
		}
		for _, id := range sc.finish[round] {
			done[id] = true
			current = slices.DeleteFunc(current, func(c engine.Current) bool {
				if c.Spec.Jobs[0].ID != id {
					return false
				}
				c.Spec.Jobs[0].State = job.Done
				placer.free += c.Spec.GPUs
				return true
			})
		}
	}
	// Guard the script itself: it must reach the states it was written for.
	if !sawExit || !sawLedger || (sc.preempt && !sawBoost) {
		t.Fatalf("script never reached its states: early exit %v, bypass ledger %v, boost %v",
			sawExit, sawLedger, sawBoost)
	}
}

// markSetup is one engine configuration of TestRoundMarksIsolatedAcrossEngines.
type markSetup struct {
	policy   func() sched.Policy
	capacity int
}

// markDriver is the driver's side of one engine over one job set: its
// placer, its running units and the jobs it left waiting.
type markDriver struct {
	placer  *fakePlacer
	current []engine.Current
	pending []*job.Job
}

// markRound is what one round leaves behind that the round marks decide.
type markRound struct {
	Decisions []string
	Causes    []causeMark
	Pending   []job.ID
	Bypassed  map[int64]int
}

// markSet builds the scripted job set with IDs base+1..base+24: mixed GPU
// sizes and distinct lengths, so SRTF and FIFO disagree about it.
func markSet(t *testing.T, base int64) []*job.Job {
	sizes := []int{1, 1, 2, 1, 4, 1, 8, 2}
	jobs := make([]*job.Job, 24)
	for i := range jobs {
		jobs[i] = newJob(t, base+int64(i)+1, sizes[i%len(sizes)])
		jobs[i].Iterations = int64(1000 + 37*((i*11)%len(jobs)))
		jobs[i].Submit = time.Duration(i) * time.Minute
	}
	return jobs
}

// markLog is what one engine's hooks collect during a round.
type markLog struct {
	causes    []causeMark
	decisions decisionLog
}

// play runs round r of the script for one engine over one job set: six
// jobs at the start and two more every round, one departure a round from
// the fourth on. The script is a function of r alone, so every engine
// given the set sees the same queue events. The engines share the jobs'
// State, so the driver keeps its own waiting list: what it offered and
// the round did not place.
func (d *markDriver) play(e *engine.Engine, log *markLog, setup markSetup, jobs []*job.Job, r int) markRound {
	arrived := func(n int) int { return min(len(jobs), 6+2*n) }
	gone := map[*job.Job]bool{}
	for q := 3; q <= r; q++ {
		if i := (q * 7) % len(jobs); i < arrived(q) {
			gone[jobs[i]] = true
		}
	}
	first := 0
	if r > 0 {
		first = arrived(r - 1)
	}
	track(e, jobs[first:arrived(r)]...)
	d.pending = append(d.pending, jobs[first:arrived(r)]...)
	d.pending = slices.DeleteFunc(d.pending, func(j *job.Job) bool { return gone[j] })
	d.current = slices.DeleteFunc(d.current, func(c engine.Current) bool {
		if gone[c.Spec.Jobs[0]] {
			d.placer.free += c.Spec.GPUs
		}
		return gone[c.Spec.Jobs[0]]
	})
	preempt := setup.policy().Preemptive()
	candidates := d.pending
	if preempt {
		candidates = nil
		for _, j := range jobs[:arrived(r)] {
			if !gone[j] {
				candidates = append(candidates, j)
			}
		}
	}
	log.causes = log.causes[:0]
	if preempt { // ReplaceAll re-places everything: release it all first
		d.placer.reset()
	}
	placements := e.Reconcile(engine.Input{
		Now: time.Duration(r) * time.Minute, Candidates: candidates,
		Capacity: setup.capacity, Current: d.current, Free: d.placer.free, Place: d.placer.place,
	})
	placed := map[*job.Job]bool{}
	if preempt {
		d.current = nil
	}
	for _, p := range placements {
		d.current = append(d.current, engine.Current{Spec: p.Spec, Handle: p.Key})
		for _, j := range p.Spec.Jobs {
			placed[j] = true
		}
	}
	d.pending = slices.DeleteFunc(slices.Clone(candidates), func(j *job.Job) bool { return placed[j] })
	rec := markRound{Decisions: log.decisions.take(), Causes: slices.Clone(log.causes), Bypassed: map[int64]int{}}
	for _, j := range d.pending {
		rec.Pending = append(rec.Pending, j.ID)
	}
	for id, n := range e.Snapshot().Bypassed {
		if id > int64(jobs[0].ID)-1 && id <= int64(jobs[len(jobs)-1].ID) {
			rec.Bypassed[id] = n
		}
	}
	return rec
}

// TestRoundMarksIsolatedAcrossEngines: the round's per-job sets are marks
// on the jobs, so two engines that take turns over one job set — each
// with its own policy instance, capacity and driver state — must decide
// exactly what each decides alone, and so must one engine serving two job
// sets in turn. A stamp that two rounds could share (a per-engine round
// counter) fails the first half.
func TestRoundMarksIsolatedAcrossEngines(t *testing.T) {
	const rounds = 12
	setups := []markSetup{
		{policy: sched.SRTF, capacity: 8},
		{policy: sched.FIFO, capacity: 12},
	}
	type actor struct {
		setup markSetup
		e     *engine.Engine
		d     *markDriver
		log   *markLog
	}
	newActor := func(setup markSetup, d *markDriver) *actor {
		log := &markLog{}
		return &actor{setup: setup, d: d, log: log, e: engine.New(engine.Config{
			Policy: setup.policy(), Style: engine.ReplaceAll, StarvationPatience: 2,
			Observer: log.decisions.observe,
			Provenance: func(ev engine.CauseEvent) {
				log.causes = append(log.causes, causeMark{ev.Job, ev.Cause, ev.Note})
			},
		})}
	}
	newDriver := func(setup markSetup) *markDriver { return &markDriver{placer: newFakePlacer(setup.capacity)} }
	alone := func(setup markSetup, base int64) []markRound {
		a, jobs := newActor(setup, newDriver(setup)), markSet(t, base)
		recs := make([]markRound, rounds)
		for r := range recs {
			recs[r] = a.d.play(a.e, a.log, setup, jobs, r)
		}
		return recs
	}
	want := [][]markRound{alone(setups[0], 0), alone(setups[1], 0)}
	var sawLedger, sawBoost, sawQueue bool
	for _, rec := range want[0] {
		sawLedger = sawLedger || len(rec.Bypassed) > 0
		sawQueue = sawQueue || len(rec.Pending) > 0
		sawBoost = sawBoost || slices.ContainsFunc(rec.Causes, func(m causeMark) bool { return m.Note })
	}
	if !sawLedger || !sawBoost || !sawQueue {
		t.Fatalf("script never reached its states: bypass ledger %v, boost %v, pending queue %v", sawLedger, sawBoost, sawQueue)
	}

	// Two engines, one job set, alternating.
	shared := markSet(t, 0)
	actors := []*actor{newActor(setups[0], newDriver(setups[0])), newActor(setups[1], newDriver(setups[1]))}
	for r := 0; r < rounds; r++ {
		for i, a := range actors {
			if got := a.d.play(a.e, a.log, a.setup, shared, r); !reflect.DeepEqual(got, want[i][r]) {
				t.Fatalf("engine %d of two over one job set, round %d:\n got %+v\nalone %+v", i, r, got, want[i][r])
			}
		}
	}

	// One engine, two job sets, alternating: each set has its own driver.
	one := newActor(setups[0], nil)
	sets := [][]*job.Job{markSet(t, 0), markSet(t, 1000)}
	wantSets := [][]markRound{want[0], alone(setups[0], 1000)}
	drivers := []*markDriver{newDriver(setups[0]), newDriver(setups[0])}
	for r := 0; r < rounds; r++ {
		for i, jobs := range sets {
			if got := drivers[i].play(one.e, one.log, one.setup, jobs, r); !reflect.DeepEqual(got, wantSets[i][r]) {
				t.Fatalf("one engine over two job sets, set %d, round %d:\n got %+v\nalone %+v", i, r, got, wantSets[i][r])
			}
		}
	}
}

// reconcileAllocCeiling bounds a warm preemptive ReplaceAll round over
// 1,000 single-job candidates on 64 GPUs. A unit that continues keeps
// last round's key string, so what remains is one allocation per round —
// the array the placed units' members are copied into — plus a key and a
// decision's member IDs per unit that launches. The policy's order and
// units and the round's placements and members live in reused buffers.
// Measured 1 in a round where every unit continues and 18 in the rounds
// around a starvation boost; 130 when every unit's key was rebuilt and
// the queue allocated, and 1,884 with the per-candidate unit slices,
// reflection sorts and per-round maps of the first engine.
const reconcileAllocCeiling = 25

// budgetPlacer counts capacity and nothing else, so the measured
// allocations are the engine's and the policy's. Its round input binds
// place once, as the simulator does, so passing it allocates nothing.
type budgetPlacer struct {
	capacity, free int
	place          func(string, sched.Unit) (any, bool)
}

func newBudgetPlacer(gpus int) *budgetPlacer {
	p := &budgetPlacer{capacity: gpus, free: gpus}
	p.place = func(_ string, u sched.Unit) (any, bool) {
		if u.GPUs > p.free {
			return nil, false
		}
		p.free -= u.GPUs
		return nil, true
	}
	return p
}

// replaceAll is the input of a preemptive ReplaceAll round: every
// allocation released first.
func (p *budgetPlacer) replaceAll(in engine.Input) engine.Input {
	p.free = p.capacity
	in.Free, in.Place = p.free, p.place
	return in
}

func TestReconcileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const gpus = 64
	newJobs := func(n int) []*job.Job {
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = newJob(t, int64(i+1), 1)
			jobs[i].Iterations = int64(1000 + 7*((i*37)%n)) // distinct SRTF keys, shuffled
		}
		return jobs
	}
	// starved re-ranks jobs so that an 8-GPU unit sits 60th behind 1-GPU
	// units: it finds five GPUs free and is bypassed while the stream behind
	// it fills them, so every sixth round it is boosted to the front (and
	// then preempted again).
	starved := func(jobs []*job.Job) (all []*job.Job, big *job.Job) {
		slices.SortFunc(jobs, func(a, b *job.Job) int { return int(a.Iterations - b.Iterations) })
		jobs[59].GPUs = 8
		return jobs, jobs[59]
	}
	// drive returns a function that runs one round and reports the units it
	// placed.
	drive := func(jobs []*job.Job) func() []engine.Current {
		e := engine.New(engine.Config{Policy: sched.SRTF(), Style: engine.ReplaceAll})
		track(e, jobs...)
		placer := newBudgetPlacer(gpus)
		var current []engine.Current
		return func() []engine.Current {
			placements := e.Reconcile(placer.replaceAll(engine.Input{
				Candidates: jobs, Capacity: gpus, Current: current,
			}))
			current = current[:0]
			for _, p := range placements {
				current = append(current, engine.Current{Spec: p.Spec})
			}
			return current
		}
	}
	// measure runs 24 warm rounds and returns the most mallocs any made and
	// the most bytes a round that placed big made and any other round made.
	measure := func(t *testing.T, round func() []engine.Current, big *job.Job) (mallocs, plainBytes, boostedBytes uint64) {
		var mem runtime.MemStats
		for i := 0; i < 12; i++ { // warm up through two boosts
			round()
		}
		for i := 0; i < 24; i++ {
			runtime.ReadMemStats(&mem)
			m0, b0 := mem.Mallocs, mem.TotalAlloc
			placed := round()
			runtime.ReadMemStats(&mem)
			bytes := mem.TotalAlloc - b0
			mallocs = max(mallocs, mem.Mallocs-m0)
			if slices.ContainsFunc(placed, func(c engine.Current) bool { return c.Spec.Jobs[0] == big }) {
				boostedBytes = max(boostedBytes, bytes)
			} else {
				plainBytes = max(plainBytes, bytes)
			}
		}
		return mallocs, plainBytes, boostedBytes
	}

	t.Run("plain", func(t *testing.T) {
		const n = 1000
		round := drive(newJobs(n))
		round()
		if placed := round(); len(placed) != gpus {
			t.Fatalf("warm-up placed %d units, want %d", len(placed), gpus)
		}
		allocs := testing.AllocsPerRun(20, func() { round() })
		t.Logf("warm ReplaceAll round over %d candidates on %d GPUs: %.0f allocs", n, gpus, allocs)
		if allocs > reconcileAllocCeiling {
			t.Fatalf("warm round allocates %.0f times, ceiling %d", allocs, reconcileAllocCeiling)
		}
	})

	// A boosted round reorders all n units; that must cost what any other
	// round costs, not a copy of them (80 B each).
	t.Run("boosted", func(t *testing.T) {
		const n = 1000
		jobs, big := starved(newJobs(n))
		mallocs, plainBytes, boostedBytes := measure(t, drive(jobs), big)
		t.Logf("boosted rounds over %d candidates: %d B at most, other rounds %d B, %d mallocs at most", n, boostedBytes, plainBytes, mallocs)
		if mallocs > reconcileAllocCeiling {
			t.Fatalf("a round allocates %d times, ceiling %d", mallocs, reconcileAllocCeiling)
		}
		if boostedBytes == 0 {
			t.Fatal("the 8-GPU unit was never boosted")
		}
		if boostedBytes > plainBytes+4<<10 {
			t.Fatalf("a boosted round allocates %d B, any other round %d B: the boost scales with the %d candidates",
				boostedBytes, plainBytes, n)
		}
	})

	// A round's garbage follows what it places, not what it ranks: the same
	// 64 GPUs under four times the candidates cost the same bytes, whether
	// or not the round is boosted.
	t.Run("flat-in-candidates", func(t *testing.T) {
		type cost struct{ plain, boosted uint64 }
		var costs []cost
		for _, n := range []int{1000, 4000} {
			_, plain, _ := measure(t, drive(newJobs(n)), nil)
			jobs, big := starved(newJobs(n))
			_, other, boosted := measure(t, drive(jobs), big)
			if boosted == 0 {
				t.Fatalf("%d candidates: the 8-GPU unit was never boosted", n)
			}
			t.Logf("%d candidates: plain round %d B; starved queue %d B, boosted %d B", n, plain, other, boosted)
			costs = append(costs, cost{max(plain, other), boosted})
		}
		const slack = 4 << 10
		if costs[1].plain > costs[0].plain+slack || costs[1].boosted > costs[0].boosted+slack {
			t.Fatalf("bytes per round grow with the candidates: 1,000 → %+v, 4,000 → %+v", costs[0], costs[1])
		}
	})
}

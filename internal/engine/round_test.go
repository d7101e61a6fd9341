package engine_test

import (
	"fmt"
	"reflect"
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
		u.Jobs[0].State, u.Jobs[0].StartedAt = job.Pending, -1
	}
	var marks []causeMark
	cfg := engine.Config{
		Style:              engine.ReplaceAll,
		StarvationPatience: patience,
		Policy: scriptedPolicy{preempt: sc.preempt, plan: func(_ time.Duration, jobs []*job.Job, _ int) []sched.Unit {
			var plan []sched.Unit
			for _, u := range sc.order {
				if slices.Contains(jobs, u.Jobs[0]) {
					plan = append(plan, u)
				}
			}
			return plan
		}},
	}
	if provenance {
		cfg.Provenance = func(ev engine.CauseEvent) {
			marks = append(marks, causeMark{ev.Job, ev.Cause, ev.Note})
		}
	}
	e := engine.New(cfg)
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
		free := placer.Free()
		if sc.preempt {
			free, running = sc.capacity, nil
		}
		marks = marks[:0]
		out := e.Reconcile(engine.Input{
			Candidates: candidates, Capacity: sc.capacity, Current: current, Placer: placer,
		})
		admitted, wantMarks := ref.walk(out.Planned, free, sc.capacity, running)
		used := 0
		for _, u := range admitted {
			used += u.GPUs
		}
		sawExit = sawExit || (used == free && len(out.Planned) > len(admitted))
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
		if got := decisionStrings(out.Decisions); !equalStrings(got, want) {
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
		for _, p := range out.Placements {
			current = append(current, engine.Current{Spec: p.Spec, Handle: p.Key})
			p.Spec.Jobs[0].StartedAt = 0
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

// reconcileAllocCeiling bounds a warm preemptive ReplaceAll round over
// 1,000 single-job candidates on 64 GPUs. What remains is per placed
// unit (two key strings: as a current unit and as an admitted one), plus
// a fixed handful per round: the policy's entries, order and unit
// slices, the placements and their members, and the rebuilt queue.
// Measured 134 when the round scratch landed; the per-candidate unit
// slices, reflection sorts and per-round maps it replaced cost 1,884.
const reconcileAllocCeiling = 180

// budgetPlacer counts capacity and nothing else, so the measured
// allocations are the engine's and the policy's.
type budgetPlacer struct{ capacity, free int }

func (p *budgetPlacer) Free() int { return p.free }
func (p *budgetPlacer) Reset()    { p.free = p.capacity }
func (p *budgetPlacer) Place(_ string, u sched.Unit) (any, bool) {
	if u.GPUs > p.free {
		return nil, false
	}
	p.free -= u.GPUs
	return nil, true
}

func TestReconcileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, gpus = 1000, 64
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = newJob(t, int64(i+1), 1)
		jobs[i].Iterations = int64(1000 + 7*((i*37)%n)) // distinct SRTF keys, shuffled
	}
	e := engine.New(engine.Config{Policy: sched.SRTF(), Style: engine.ReplaceAll})
	placer := &budgetPlacer{capacity: gpus, free: gpus}
	var current []engine.Current
	round := func() {
		out := e.Reconcile(engine.Input{
			Candidates: jobs, Pending: nil, Capacity: gpus, Current: current, Placer: placer,
		})
		current = current[:0]
		for _, p := range out.Placements {
			current = append(current, engine.Current{Spec: p.Spec})
			p.Spec.Jobs[0].StartedAt = 0
		}
	}
	round()
	round()
	if len(current) != gpus {
		t.Fatalf("warm-up placed %d units, want %d", len(current), gpus)
	}
	allocs := testing.AllocsPerRun(20, round)
	t.Logf("warm ReplaceAll round over %d candidates on %d GPUs: %.0f allocs", n, gpus, allocs)
	if allocs > reconcileAllocCeiling {
		t.Fatalf("warm round allocates %.0f times, ceiling %d", allocs, reconcileAllocCeiling)
	}
}

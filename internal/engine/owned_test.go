package engine_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/sched"
)

// TestPlacedUnitsOwnTheirJobs: the policy reuses the buffers its units'
// Jobs point into, so a unit that is placed — the one thing that outlives
// a round — must own its members from that moment. A driver keeps every
// Placement.Spec it is handed for as long as the unit runs (many rounds
// under non-preemptive FIFO, one under a preemptive policy that re-places
// the running set) and each must still name the members it was placed
// with after any number of later Plan and Reconcile calls. The kept specs
// also come back as Input.Current, so a wrong member would surface as a
// wrong key too.
func TestPlacedUnitsOwnTheirJobs(t *testing.T) {
	const capacity, rounds = 16, 120
	policies := map[string]func() sched.Policy{
		"fifo":   sched.FIFO,
		"srtf":   sched.SRTF,
		"muri-l": func() sched.Policy { return sched.NewMuriL() },
	}
	type running struct {
		spec    sched.Unit
		key     string
		members []job.ID
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			p := policy()
			e := engine.New(engine.Config{Policy: p, Style: engine.ReplaceAll})
			placer := newFakePlacer(capacity)
			var arrived []*job.Job
			var units []running
			nextID := int64(0)
			longest := 0
			age := map[string]int{}
			for round := 0; round < rounds; round++ {
				now := time.Duration(round) * 6 * time.Minute
				for k := 1 + rng.Intn(4); k > 0 && len(candidatesOf(arrived, false)) < 60; k-- {
					nextID++
					j := newJob(t, nextID, 1<<rng.Intn(3))
					j.Submit, j.Iterations = now, int64(500+rng.Intn(3000))
					e.Track(j, job.Pending)
					arrived = append(arrived, j)
				}
				// A few running units finish: their jobs leave for good.
				units = slices.DeleteFunc(units, func(u running) bool {
					if rng.Intn(6) != 0 {
						return false
					}
					for _, j := range u.spec.Jobs {
						j.State = job.Done
					}
					placer.free += u.spec.GPUs
					return true
				})
				current := make([]engine.Current, len(units))
				for i, u := range units {
					current[i] = engine.Current{Spec: u.spec, Handle: u.key}
				}
				if p.Preemptive() {
					placer.reset() // ReplaceAll re-places the whole running set
				}
				placements := e.Reconcile(engine.Input{
					Now: now, Candidates: arrived,
					Capacity: capacity, Current: current, Free: placer.free, Place: placer.place,
				})
				if p.Preemptive() {
					units = units[:0]
				}
				for _, pl := range placements {
					ids := make([]job.ID, len(pl.Spec.Jobs))
					for i, j := range pl.Spec.Jobs {
						ids[i] = j.ID
						j.StartedAt = now
						j.DoneIterations = min(j.Iterations-1, j.DoneIterations+int64(rng.Intn(200)))
						j.Attained += time.Duration(rng.Intn(6)) * time.Minute
					}
					units = append(units, running{spec: pl.Spec, key: pl.Key, members: ids})
				}
				for _, u := range units {
					age[u.key]++
					longest = max(longest, age[u.key])
					got := make([]job.ID, len(u.spec.Jobs))
					for i, j := range u.spec.Jobs {
						got[i] = j.ID
					}
					if !slices.Equal(got, u.members) || engine.UnitKey(u.spec) != u.key {
						t.Fatalf("round %d: unit %s placed with members %v now names %v", round, u.key, u.members, got)
					}
				}
			}
			if longest < 3 {
				t.Fatalf("no unit was kept for more than %d rounds: the script never outlives the policy's buffers", longest)
			}
		})
	}
}

package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"muri/internal/job"
)

// ownedCopy is what the engine does at placement: the unit by value, its
// members copied out of the policy's buffers.
func ownedCopy(units []Unit) []Unit {
	out := slices.Clone(units)
	for i := range out {
		out[i].Jobs = slices.Clone(out[i].Jobs)
	}
	return out
}

func equalUnits(a, b []Unit) bool {
	return sameUnits(a, b) && slices.EqualFunc(a, b, func(x, y Unit) bool { return reflect.DeepEqual(x.Plan, y.Plan) })
}

// stillNames reports whether units' Jobs windows still hold the members
// they held when want was taken (a reused buffer may hold other jobs there
// by now, or none).
func stillNames(units []Unit, want [][]job.ID) bool {
	for i, u := range units {
		for k, j := range u.Jobs {
			if j == nil || j.ID != want[i][k] {
				return false
			}
		}
	}
	return true
}

// TestPlanBuffersOwned: a stateful policy builds its order and its units
// in buffers it reuses, and none of that shows. Every round of a long-lived
// instance equals a fresh instance's; a round's result read before the
// next Plan is whole; a copy that owns its members stays right however
// many rounds follow, while the windows it was copied from are rewritten —
// which is why ownership starts at placement; and two instances planning
// the same jobs in turn never write into each other's results.
func TestPlanBuffersOwned(t *testing.T) {
	const rounds, capacity = 200, 16
	policies := map[string]func() Policy{
		"srtf":         SRTF,
		"tiresias":     Tiresias,
		"muri-l":       func() Policy { return NewMuriL() },
		"muri-l-scale": func() Policy { return NewMuriLScale(4) },
	}
	models := []string{"gpt2", "resnet18", "bert", "vgg16"}
	for name, fresh := range policies {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			p, twin := fresh(), fresh()
			nextID := 0
			var jobs []*job.Job
			arrive := func(now time.Duration) {
				nextID++
				jobs = append(jobs, mk(nextID, models[rng.Intn(len(models))], 1<<rng.Intn(3),
					int64(200*(1+rng.Intn(5))), now))
			}
			for len(jobs) < 40 {
				arrive(0)
			}
			type kept struct {
				round  int
				shared []Unit // by value: Jobs still windows of the policy's buffers
				owned  []Unit
				want   [][]job.ID
			}
			var history []kept
			rewritten := false
			for round := 0; round < rounds; round++ {
				now := time.Duration(round) * 6 * time.Minute
				for k := rng.Intn(4); k > 0 && len(jobs) > 8; k-- {
					i := rng.Intn(len(jobs))
					jobs = append(jobs[:i], jobs[i+1:]...)
				}
				for k := rng.Intn(5); k > 0 && len(jobs) < 90; k-- {
					arrive(now)
				}
				got := p.Plan(now, jobs, capacity)
				if want := fresh().Plan(now, jobs, capacity); !equalUnits(got, want) {
					t.Fatalf("round %d: long-lived instance diverges from a fresh one\n got %v\nwant %v", round, ids(got), ids(want))
				}
				// The twin plans the same jobs in between, in its own buffers.
				mine := ids(got)
				if theirs := twin.Plan(now, jobs, capacity); !equalUnits(got, theirs) || !reflect.DeepEqual(ids(got), mine) {
					t.Fatalf("round %d: a second instance's Plan disturbed the first's result", round)
				}
				for _, h := range history {
					if !reflect.DeepEqual(ids(h.owned), h.want) {
						t.Fatalf("round %d: the owned copy of round %d changed", round, h.round)
					}
					rewritten = rewritten || !stillNames(h.shared, h.want)
				}
				history = append(history, kept{round, slices.Clone(got), ownedCopy(got), mine})
				if len(history) > 3 {
					history = history[1:]
				}
				// Service for the head of the order: both keys move.
				for i, u := range got {
					if i < 6 || rng.Intn(15) == 0 {
						for _, j := range u.Jobs {
							j.DoneIterations = min(j.Iterations-1, j.DoneIterations+int64(rng.Intn(60)))
							j.Attained += time.Duration(rng.Intn(4)) * (j.Attained/2 + time.Minute)
						}
					}
				}
			}
			if !rewritten {
				t.Fatal("no by-value copy was ever rewritten: the policy does not reuse its buffers, or the script never reorders")
			}
		})
	}
}

// TestPlanBuffersOwnedWarmAllocs: a warm exclusive policy ranks and wraps
// 2,000 jobs without allocating per job.
func TestPlanBuffersOwnedWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(3))
	jobs := make([]*job.Job, 2000)
	for i := range jobs {
		jobs[i] = mk(i+1, "gpt2", 1, int64(100+rng.Intn(5000)), time.Duration(i)*time.Second)
	}
	p := SRTF()
	for i := 0; i < 3; i++ { // both order buffers and the unit buffer reach size
		p.Plan(0, jobs, 64)
	}
	allocs := testing.AllocsPerRun(20, func() {
		jobs[rng.Intn(len(jobs))].DoneIterations++
		p.Plan(0, jobs, 64)
	})
	if allocs > 2 {
		t.Fatalf("warm SRTF Plan over %d jobs allocates %.0f times, want at most 2", len(jobs), allocs)
	}
}

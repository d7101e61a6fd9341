package engine_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/workload"
)

// orderSide is one engine of TestReconcileIgnoresCandidateOrder with its
// own clones of the jobs, its own policy instance and estimator, and the
// decision and cause streams its hooks collected.
type orderSide struct {
	e       *engine.Engine
	policy  sched.Policy
	style   engine.Style
	est     *profile.Online
	placer  *fakePlacer
	live    []*job.Job
	current []engine.Current
	// shuffle, when non-nil, permutes the candidates before each round.
	shuffle   *rand.Rand
	decisions decisionLog
	causes    []engine.CauseEvent
}

func newOrderSide(t *testing.T, name string, style engine.Style, capacity int, shuffle *rand.Rand) *orderSide {
	t.Helper()
	s := &orderSide{est: profile.NewOnline(), style: style, placer: newFakePlacer(capacity), shuffle: shuffle}
	switch name {
	case "drf":
		s.policy = sched.DRF{}
	case "tetris":
		s.policy = sched.Tetris{}
	case "gittins":
		s.policy = sched.NewGittins()
	default:
		p, err := sched.ByName(name, s.est)
		if err != nil {
			t.Fatal(err)
		}
		s.policy = p
	}
	s.e = engine.New(engine.Config{
		Policy: s.policy, Style: style, StarvationPatience: 3, Estimator: s.est,
		Observer:   s.decisions.observe,
		Provenance: func(ev engine.CauseEvent) { s.causes = append(s.causes, ev) },
	})
	return s
}

// mix is a hash of a job and a round: the progress and completion draws
// depend on which jobs run, never on the order the driver visits them in.
func mix(id job.ID, r int) uint64 {
	h := uint64(id)*0x9E3779B97F4A7C15 ^ uint64(r)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9 >> 32
}

// round admits the arrivals, runs one Reconcile offered every unfinished
// job, then advances what runs and completes some of it.
func (s *orderSide) round(arrivals []*job.Job, r int) {
	now := time.Duration(r) * 6 * time.Minute
	for _, j := range arrivals {
		s.e.Track(j, job.Pending)
	}
	s.live = append(s.live, arrivals...)
	s.live = slices.DeleteFunc(s.live, func(j *job.Job) bool { return j.State == job.Done })
	candidates := slices.Clone(s.live) // the engine keeps the ones job.State makes candidates
	if s.shuffle != nil {
		s.shuffle.Shuffle(len(candidates), func(a, b int) { candidates[a], candidates[b] = candidates[b], candidates[a] })
	}
	// A preemptive ReplaceAll round re-places everything: the driver
	// releases it all first. Otherwise the units not killed keep running.
	replaceAll := s.policy.Preemptive() && s.style == engine.ReplaceAll
	if replaceAll {
		s.placer.reset()
	}
	killed := map[any]bool{}
	placements := s.e.Reconcile(engine.Input{
		Now: now, Candidates: candidates, Capacity: s.placer.capacity, Current: s.current,
		Free: s.placer.free, Place: s.placer.place,
		Kill: func(c engine.Current) { s.placer.free += c.Spec.GPUs; killed[c.Handle] = true },
	})
	if replaceAll {
		s.current = s.current[:0]
	}
	s.current = slices.DeleteFunc(s.current, func(c engine.Current) bool { return killed[c.Handle] })
	for _, p := range placements {
		s.current = append(s.current, engine.Current{Spec: p.Spec, Handle: p.Key})
	}
	// Every running job progresses; a unit completes whole when its first
	// member's draw says so, or when that member runs out of iterations.
	s.current = slices.DeleteFunc(s.current, func(c engine.Current) bool {
		for _, j := range c.Spec.Jobs {
			j.DoneIterations = min(j.Iterations-1, j.DoneIterations+int64(mix(j.ID, r)%400))
			j.Attained += 6 * time.Minute
		}
		if first := c.Spec.Jobs[0]; mix(first.ID, -r)%5 != 0 && first.DoneIterations < first.Iterations-1 {
			return false
		}
		for _, j := range c.Spec.Jobs {
			s.e.Complete(j.ID, time.Duration(float64(j.Attained)*float64(j.GPUs)))
		}
		s.placer.free += c.Spec.GPUs
		return true
	})
}

// TestReconcileIgnoresCandidateOrder: the order of Input.Candidates
// reaches no decision and no cause annotation, because every policy
// ranks by a total order and the wait-cause walk follows admission order.
// The simulator offers its candidates in arrival order and the daemon in
// job-ID order, so this is what lets the engine pick them from job.State. Two
// engines play the same seeded rounds on clones of one job set, one of
// them offered its candidates shuffled; their decision streams and cause
// events must be identical under both reconciliation styles.
func TestReconcileIgnoresCandidateOrder(t *testing.T) {
	const rounds, capacity = 50, 16
	zoo := workload.Zoo()
	styles := []struct {
		name  string
		style engine.Style
	}{{"replace-all", engine.ReplaceAll}, {"differential", engine.Differential}}
	for _, name := range append(sched.Names(), "drf", "tetris", "gittins") {
		for _, st := range styles {
			t.Run(name+"/"+st.name, func(t *testing.T) {
				ordered := newOrderSide(t, name, st.style, capacity, nil)
				shuffled := newOrderSide(t, name, st.style, capacity, rand.New(rand.NewSource(3)))
				rng := rand.New(rand.NewSource(19))
				nextID := int64(0)
				for r := 0; r < rounds; r++ {
					// Arrivals: mixed models and sizes, submit times that
					// tie within a round, iteration counts that tie too.
					var a, b []*job.Job
					for k := rng.Intn(5); k > 0; k-- {
						nextID++
						m := zoo[rng.Intn(len(zoo))]
						gpus, iters := 1<<rng.Intn(3), int64(200*(1+rng.Intn(10)))
						submit := time.Duration(r)*6*time.Minute - time.Duration(rng.Intn(2))*time.Minute
						a = append(a, job.New(job.ID(nextID), m, gpus, iters, submit))
						b = append(b, job.New(job.ID(nextID), m, gpus, iters, submit))
					}
					ordered.round(a, r)
					shuffled.round(b, r)
					if !slices.Equal(ordered.decisions, shuffled.decisions) {
						t.Fatalf("round %d: decisions diverge under shuffled candidates:\n ordered  %v\n shuffled %v",
							r, ordered.decisions, shuffled.decisions)
					}
					if !slices.Equal(ordered.causes, shuffled.causes) {
						t.Fatalf("round %d: cause events diverge under shuffled candidates:\n ordered  %v\n shuffled %v",
							r, ordered.causes, shuffled.causes)
					}
				}
				if len(ordered.decisions) == 0 || len(ordered.causes) == 0 {
					t.Fatalf("the script issued %d decisions and %d cause events: nothing was compared",
						len(ordered.decisions), len(ordered.causes))
				}
			})
		}
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/sched"
	"muri/internal/workload"
)

// TestUnitLifetime drives seeded replays step by step — the loop of Run,
// with a check after every fault, schedule and advance step — under a
// preemptive policy (SRTF re-places the whole running set every round), a
// non-preemptive one (FIFO keeps units for many rounds) and the sharded
// grouping policy, each with and without crashes and transient faults.
// A unit is recycled only once nothing can read it: no free unit is
// running; a free unit pins no job; and no two running units share
// member, iteration-time or carry storage. The stepped run must also be
// the run Run makes.
func TestUnitLifetime(t *testing.T) {
	policies := []struct {
		name string
		new  func() sched.Policy
	}{
		{"srtf", sched.SRTF},
		{"fifo", sched.FIFO},
		{"muri-l-scale", func() sched.Policy { return sched.NewMuriLScale(4) }},
	}
	for _, p := range policies {
		for _, faulty := range []bool{false, true} {
			cfg, tr := ledgerReplay(300)
			name := p.name
			if faulty {
				cfg, tr = chaosConfig(chaosPlan(7, 4)), chaosTrace()
				cfg.EventDriven = true
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) {
				s := newSim(cfg, tr, p.new())
				recycled := 0
				check := func(step string) {
					t.Helper()
					if err := checkUnitLifetimes(s); err != nil {
						t.Fatalf("after %s at %v: %v", step, s.now, err)
					}
					recycled = max(recycled, len(s.free))
				}
				s.now = s.all[0].Submit
				for len(s.done) < len(s.all) {
					s.admitArrivals()
					if s.plan != nil {
						s.applyFaults()
						check("faults")
					}
					s.schedule()
					check("schedule")
					next := s.nextWake()
					s.advance(next)
					check("advance")
					s.now = next
				}
				if recycled == 0 {
					t.Fatal("no unit was ever recycled")
				}
				if faulty && (s.fstats.Crashes == 0 || s.fstats.Transient == 0) {
					t.Fatalf("the plan never bit: %+v", s.fstats)
				}
				ref := Run(cfg, tr, p.new())
				got := fmt.Sprintf("%+v %+v %+v %+v", metrics.Summarize(s.done), s.eng.Stats(), s.scans, s.fstats)
				if want := fmt.Sprintf("%+v %+v %+v %+v", ref.Summary, ref.Engine, ref.Heap, ref.Faults); got != want {
					t.Fatalf("stepped run diverges from Run:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// checkUnitLifetimes reports the first broken unit-lifetime invariant.
func checkUnitLifetimes(s *sim) error {
	free := make(map[*unit]bool, len(s.free))
	for _, u := range s.free {
		if free[u] {
			return fmt.Errorf("unit %p is on the free list twice", u)
		}
		free[u] = true
		if u.spec.Jobs != nil || u.spec.Plan.Order != nil {
			return fmt.Errorf("free unit %p still pins its jobs", u)
		}
	}
	members := map[**job.Job]bool{}
	times := map[*time.Duration]bool{}
	carries := map[*float64]bool{}
	for _, u := range s.running {
		if free[u] {
			return fmt.Errorf("running unit %p is on the free list", u)
		}
		if n := len(u.spec.Jobs); n == 0 || len(u.iterTime) != n || len(u.carry) != n {
			return fmt.Errorf("unit %p has %d members, %d iteration times, %d carries", u, n, len(u.iterTime), len(u.carry))
		}
		for i := range cap(u.spec.Jobs) {
			if p := &u.spec.Jobs[:cap(u.spec.Jobs)][i]; !members[p] {
				members[p] = true
			} else {
				return fmt.Errorf("unit %p shares member storage", u)
			}
		}
		for i := range cap(u.iterTime) {
			if p := &u.iterTime[:cap(u.iterTime)][i]; !times[p] {
				times[p] = true
			} else {
				return fmt.Errorf("unit %p shares iteration-time storage", u)
			}
		}
		for i := range cap(u.carry) {
			if p := &u.carry[:cap(u.carry)][i]; !carries[p] {
				carries[p] = true
			} else {
				return fmt.Errorf("unit %p shares carry storage", u)
			}
		}
	}
	return nil
}

// TestGroupTimesMatchInterleave: the simulator's stack-array group
// times are interleave's Inflate and IterationTime, bit for bit.
func TestGroupTimesMatchInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	zoo := workload.Zoo()
	for trial := 0; trial < 500; trial++ {
		cfg := interleave.Config{Overhead: []float64{0, 0.08, 0.3}[trial%3]}
		jobs := make([]*job.Job, 1+rng.Intn(interleave.MaxGroupSize))
		profiles := make([]workload.StageTimes, len(jobs))
		for i := range jobs {
			jobs[i] = job.New(job.ID(i), zoo[rng.Intn(len(zoo))], 1, 100, 0)
			jobs[i].TrueProfile = jobs[i].TrueProfile.Scale(0.5 + rng.Float64())
			profiles[i] = jobs[i].TrueProfile
		}
		wantTimes := cfg.Inflate(profiles)
		var buf [interleave.MaxGroupSize]workload.StageTimes
		times, T := groupTimes(&buf, jobs, cfg)
		if want := interleave.IterationTime(wantTimes); T != want || !slices.Equal(times, wantTimes) {
			t.Fatalf("trial %d: %v, %v; interleave says %v, %v", trial, times, T, wantTimes, want)
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/workload"
)

// mixedJobs builds a priority-ordered candidate set spanning the whole
// zoo and several GPU buckets, with a little progress spread so GateJCT
// sees varied remaining-iteration counts.
func mixedJobs(n int) []*job.Job {
	zoo := workload.Zoo()
	gpuMix := []int{1, 1, 1, 1, 2, 2, 4, 8}
	jobs := make([]*job.Job, n)
	for i := 0; i < n; i++ {
		j := job.New(job.ID(i), zoo[i%len(zoo)], gpuMix[i%len(gpuMix)], 50_000, 0)
		j.DoneIterations = int64(i * 37 % 40_000)
		jobs[i] = j
	}
	return jobs
}

// groupsFingerprint renders a plan into a comparable string: member IDs
// in plan order, plan timing, and GPU bucket per group.
func groupsFingerprint(groups []Group) string {
	s := ""
	for _, g := range groups {
		s += fmt.Sprintf("gpus=%d iter=%d eff=%.17g jobs=", g.GPUs, g.Plan.IterTime, g.Plan.Efficiency)
		for _, j := range g.Jobs {
			s += fmt.Sprintf("%d,", j.ID)
		}
		s += "\n"
	}
	return s
}

// TestPlanParallelAndCachedUnchanged is the determinism guard for the
// shared cache: a cold cache, the same cache warm and an evicting (tiny)
// one must produce identical plans under both production shapes of the
// merge gate — true remaining iterations (Muri-S) and an LAS-style
// estimate (Muri-L).
func TestPlanParallelAndCachedUnchanged(t *testing.T) {
	las := func(j *job.Job) int64 {
		if j.DoneIterations > 100 {
			return j.DoneIterations
		}
		return 100
	}
	for gate, remaining := range map[string]func(*job.Job) int64{"true-remaining": nil, "las": las} {
		for _, capacity := range []int{0, 64} {
			variant := func(cache *interleave.EffCache) string {
				cfg := DefaultConfig()
				cfg.Cache = cache
				cfg.RemainingIters = remaining
				return groupsFingerprint(cfg.Plan(mixedJobs(160), capacity))
			}
			shared := interleave.NewEffCache(0)
			base := variant(shared)
			if base == "" {
				t.Fatalf("gate %v cap %d: empty plan", gate, capacity)
			}
			for name, got := range map[string]string{
				"warm":      variant(shared),
				"tinycache": variant(interleave.NewEffCache(16)),
			} {
				if got != base {
					t.Errorf("gate %s cap %d: %s plan differs from a cold cache's\nbase:\n%s\ngot:\n%s",
						gate, capacity, name, base, got)
				}
			}
		}
	}
}

// TestPlanCacheReuseAcrossCalls checks that a warm cache actually short-
// circuits work across scheduling intervals: the second Plan over the
// same candidate profiles must be answered almost entirely from cache.
func TestPlanCacheReuseAcrossCalls(t *testing.T) {
	cfg := DefaultConfig()
	jobs := mixedJobs(120)
	cfg.Plan(jobs, 64)
	st1 := cfg.Cache.Stats()
	if st1.Lookups() == 0 {
		t.Fatal("plan performed no cache lookups")
	}
	cfg.Plan(jobs, 64)
	st2 := cfg.Cache.Stats()
	if st2.Misses != st1.Misses {
		t.Errorf("second plan missed the cache %d times; want 0 new misses", st2.Misses-st1.Misses)
	}
	if st2.Hits <= st1.Hits {
		t.Errorf("second plan recorded no cache hits: %+v -> %+v", st1, st2)
	}
}

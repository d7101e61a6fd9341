package core

import (
	"math/rand"
	"testing"
	"time"

	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/workload"
)

const unit = time.Second

func mkJob(id int, gpus int, stages workload.StageTimes) *job.Job {
	m := workload.Model{Name: "toy", Stages: stages}
	return job.New(job.ID(id), m, gpus, 1000, 0)
}

// cpuHeavy and gpuHeavy are the Figure 4 job shapes lifted to k=4 with
// small storage/network stages so that efficiency still favors pairing a
// CPU-heavy job with a GPU-heavy one.
func cpuHeavy(id int) *job.Job {
	return mkJob(id, 1, workload.StageTimes{1 * unit, 8 * unit, 2 * unit, 1 * unit})
}

func gpuHeavy(id int) *job.Job {
	return mkJob(id, 1, workload.StageTimes{1 * unit, 2 * unit, 8 * unit, 1 * unit})
}

func ideal() Config {
	c := DefaultConfig()
	c.Interleave = interleave.Config{} // no contention, easier to reason about
	return c
}

func TestGroupBucketPairsComplements(t *testing.T) {
	// Two CPU-heavy and two GPU-heavy jobs: the optimal pairing puts one
	// of each in every group (Figure 4 plan 1), never two alike.
	cfg := ideal()
	cfg.MaxGroupSize = 2
	jobs := []*job.Job{cpuHeavy(0), cpuHeavy(1), gpuHeavy(2), gpuHeavy(3)}
	groups := cfg.Plan(jobs, 0)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	for _, g := range groups {
		if len(g.Jobs) != 2 {
			t.Fatalf("group size %d, want 2", len(g.Jobs))
		}
		a, b := g.Jobs[0], g.Jobs[1]
		aCPU := a.Profile[workload.CPU] > a.Profile[workload.GPU]
		bCPU := b.Profile[workload.CPU] > b.Profile[workload.GPU]
		if aCPU == bCPU {
			t.Errorf("group pairs two alike jobs: %v and %v", a.Profile, b.Profile)
		}
	}
}

func TestGroupBucketRespectsMaxGroupSize(t *testing.T) {
	for _, max := range []int{2, 3, 4} {
		cfg := ideal()
		cfg.MaxGroupSize = max
		var jobs []*job.Job
		for i := 0; i < 11; i++ {
			if i%2 == 0 {
				jobs = append(jobs, cpuHeavy(i))
			} else {
				jobs = append(jobs, gpuHeavy(i))
			}
		}
		groups := cfg.Plan(jobs, 0)
		total := 0
		for _, g := range groups {
			if len(g.Jobs) > max {
				t.Errorf("max=%d: group of %d jobs", max, len(g.Jobs))
			}
			total += len(g.Jobs)
		}
		if total != len(jobs) {
			t.Errorf("max=%d: groups cover %d jobs, want %d", max, total, len(jobs))
		}
	}
}

func TestGroupBucketSingleJob(t *testing.T) {
	cfg := ideal()
	groups := cfg.Plan([]*job.Job{cpuHeavy(0)}, 0)
	if len(groups) != 1 || len(groups[0].Jobs) != 1 {
		t.Fatalf("groups = %v, want one singleton", groups)
	}
	if groups[0].Plan.IterTime != 12*unit {
		t.Errorf("singleton iter time = %v, want serial 12s", groups[0].Plan.IterTime)
	}
}

func TestGroupBucketEmpty(t *testing.T) {
	if got := ideal().Plan(nil, 0); got != nil {
		t.Errorf("Plan(nil, 0) = %v, want nil", got)
	}
}

func TestBlossomBeatsGreedyOnAdversarialOrder(t *testing.T) {
	// Priority order alternates poorly: greedy pairs adjacent jobs (two
	// alike), Blossom finds the cross pairing. Compare total efficiency.
	jobs := []*job.Job{cpuHeavy(0), cpuHeavy(1), gpuHeavy(2), gpuHeavy(3)}
	withBlossom := ideal()
	withBlossom.MaxGroupSize = 2
	noBlossom := withBlossom
	noBlossom.UseBlossom = false

	sumEff := func(groups []Group) float64 {
		s := 0.0
		for _, g := range groups {
			s += g.Plan.Efficiency
		}
		return s
	}
	gb := sumEff(withBlossom.Plan(jobs, 0))
	gg := sumEff(noBlossom.Plan(jobs, 0))
	if gb <= gg {
		t.Errorf("Blossom total efficiency %v should beat greedy %v", gb, gg)
	}
}

func TestWorstOrderingSlower(t *testing.T) {
	a := mkJob(0, 1, workload.StageTimes{1 * unit, 2 * unit, 1 * unit, 1 * unit})
	b := mkJob(1, 1, workload.StageTimes{1 * unit, 1 * unit, 2 * unit, 1 * unit})
	best := ideal()
	worst := ideal()
	worst.WorstOrdering = true
	gBest := best.Plan([]*job.Job{a, b}, 0)
	gWorst := worst.Plan([]*job.Job{a, b}, 0)
	if gBest[0].Plan.IterTime >= gWorst[0].Plan.IterTime {
		t.Errorf("best ordering %v should be faster than worst %v",
			gBest[0].Plan.IterTime, gWorst[0].Plan.IterTime)
	}
}

func TestGroupPlanOrderIsIdentityAfterFinalize(t *testing.T) {
	cfg := ideal()
	groups := cfg.Plan([]*job.Job{cpuHeavy(0), gpuHeavy(1), cpuHeavy(2), gpuHeavy(3)}, 0)
	for _, g := range groups {
		for i, o := range g.Plan.Order {
			if o != i {
				t.Errorf("plan order %v not identity after finalize", g.Plan.Order)
			}
		}
	}
}

func TestRoundsCount(t *testing.T) {
	for max, want := range map[int]int{2: 1, 3: 2, 4: 2} {
		c := Config{MaxGroupSize: max}
		if got := c.rounds(); got != want {
			t.Errorf("rounds(max=%d) = %d, want %d", max, got, want)
		}
	}
}

func TestMaxGroupClamping(t *testing.T) {
	if got := (Config{MaxGroupSize: 0}).maxGroup(); got != interleave.MaxGroupSize {
		t.Errorf("maxGroup(0) = %d, want default %d", got, interleave.MaxGroupSize)
	}
	if got := (Config{MaxGroupSize: 9}).maxGroup(); got != interleave.MaxGroupSize {
		t.Errorf("maxGroup(9) = %d, want clamp %d", got, interleave.MaxGroupSize)
	}
}

func TestGroupAllNeverMixesGPURequirements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var jobs []*job.Job
	for i := 0; i < 40; i++ {
		gpus := 1 << rng.Intn(4)
		var st workload.StageTimes
		for r := 0; r < workload.NumResources; r++ {
			st[r] = time.Duration(rng.Intn(50)+1) * time.Millisecond
		}
		jobs = append(jobs, mkJob(i, gpus, st))
	}
	groups := DefaultConfig().Plan(jobs, 0)
	seen := make(map[job.ID]bool)
	for _, g := range groups {
		for _, j := range g.Jobs {
			if j.GPUs != g.GPUs {
				t.Errorf("group with GPUs=%d contains job needing %d", g.GPUs, j.GPUs)
			}
			if seen[j.ID] {
				t.Errorf("job %d appears in two groups", j.ID)
			}
			seen[j.ID] = true
		}
	}
	if len(seen) != len(jobs) {
		t.Errorf("groups cover %d jobs, want %d", len(seen), len(jobs))
	}
}

func TestGroupingImprovesAggregateThroughput(t *testing.T) {
	// Property: for complementary workloads, grouped execution should
	// deliver more aggregate normalized throughput than serial execution.
	var jobs []*job.Job
	models := workload.Zoo()
	for i, m := range models {
		jobs = append(jobs, job.New(job.ID(i), m, 1, 1000, 0))
	}
	cfg := DefaultConfig()
	groups := cfg.Plan(jobs, 0)
	totalNorm := 0.0
	for _, g := range groups {
		times := make([]workload.StageTimes, len(g.Jobs))
		for i, j := range g.Jobs {
			times[i] = j.Profile
		}
		totalNorm += cfg.Interleave.SpeedupOverSerial(times)
	}
	// 8 jobs run serially deliver 8 jobs in 8 slots = aggregate 8·(1/8)=1
	// per slot... more simply: summed normalized throughput must exceed
	// the group count (every group beats running its members serially).
	if totalNorm <= float64(len(groups)) {
		t.Errorf("aggregate normalized throughput %v should exceed #groups %d", totalNorm, len(groups))
	}
}

func TestDeterministicGrouping(t *testing.T) {
	mk := func() []*job.Job {
		var jobs []*job.Job
		for i, m := range workload.Zoo() {
			jobs = append(jobs, job.New(job.ID(i), m, 1, 100, 0))
		}
		return jobs
	}
	g1 := DefaultConfig().Plan(mk(), 0)
	g2 := DefaultConfig().Plan(mk(), 0)
	if len(g1) != len(g2) {
		t.Fatalf("nondeterministic group count: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if len(g1[i].Jobs) != len(g2[i].Jobs) {
			t.Fatalf("group %d size differs", i)
		}
		for k := range g1[i].Jobs {
			if g1[i].Jobs[k].ID != g2[i].Jobs[k].ID {
				t.Errorf("group %d member %d differs: %d vs %d", i, k, g1[i].Jobs[k].ID, g2[i].Jobs[k].ID)
			}
		}
	}
}

func TestPlanCapacityStopsMerging(t *testing.T) {
	// Demand 4 GPUs, capacity 3: exactly one merge is needed; with
	// capacity 4 none are.
	cfg := ideal()
	jobs := []*job.Job{cpuHeavy(0), gpuHeavy(1), cpuHeavy(2), gpuHeavy(3)}
	count := func(groups []Group) (pairs, singles int) {
		for _, g := range groups {
			if len(g.Jobs) > 1 {
				pairs++
			} else {
				singles++
			}
		}
		return
	}
	pairs, singles := count(cfg.Plan(jobs, 3))
	if pairs != 1 || singles != 2 {
		t.Errorf("capacity 3: %d pairs, %d singles; want 1 and 2", pairs, singles)
	}
	pairs, singles = count(cfg.Plan(jobs, 4))
	if pairs != 0 || singles != 4 {
		t.Errorf("capacity 4: %d pairs, %d singles; want 0 and 4", pairs, singles)
	}
	pairs, singles = count(cfg.Plan(jobs, 2))
	if pairs != 2 || singles != 0 {
		t.Errorf("capacity 2: %d pairs, %d singles; want 2 and 0", pairs, singles)
	}
}

func TestPlanCoversAllJobsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		var jobs []*job.Job
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			gpus := 1 << rng.Intn(3)
			var st workload.StageTimes
			for r := 0; r < workload.NumResources; r++ {
				st[r] = time.Duration(rng.Intn(80)+1) * time.Millisecond
			}
			jobs = append(jobs, mkJob(i, gpus, st))
		}
		capacity := 1 + rng.Intn(2*n)
		groups := DefaultConfig().Plan(jobs, capacity)
		seen := make(map[job.ID]int)
		for _, g := range groups {
			for _, j := range g.Jobs {
				seen[j.ID]++
				if j.GPUs != g.GPUs {
					t.Fatalf("trial %d: job %d (%d GPUs) in %d-GPU group", trial, j.ID, j.GPUs, g.GPUs)
				}
			}
			if len(g.Jobs) > 4 {
				t.Fatalf("trial %d: group of %d members", trial, len(g.Jobs))
			}
		}
		if len(seen) != n {
			t.Fatalf("trial %d: plan covers %d of %d jobs", trial, len(seen), n)
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("trial %d: job %d appears %d times", trial, id, c)
			}
		}
	}
}

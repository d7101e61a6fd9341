package sched

import (
	"sync"
	"testing"
	"time"

	"muri/internal/job"
	"muri/internal/workload"
)

func mk(id int, model string, gpus int, iters int64, submit time.Duration) *job.Job {
	m, err := workload.ByName(model)
	if err != nil {
		panic(err)
	}
	return job.New(job.ID(id), m, gpus, iters, submit)
}

func ids(units []Unit) [][]job.ID {
	var out [][]job.ID
	for _, u := range units {
		var g []job.ID
		for _, j := range u.Jobs {
			g = append(g, j.ID)
		}
		out = append(out, g)
	}
	return out
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		Exclusive: "exclusive", Interleaved: "interleaved",
		SpaceShared: "space-shared", Mode(9): "mode(?)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d) = %q, want %q", int(m), got, want)
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	p := FIFO()
	if p.Preemptive() {
		t.Error("FIFO should be non-preemptive")
	}
	jobs := []*job.Job{
		mk(0, "gpt2", 1, 100, 20*time.Second),
		mk(1, "gpt2", 1, 100, 10*time.Second),
	}
	units := p.Plan(0, jobs, 64)
	if units[0].Jobs[0].ID != 1 || units[1].Jobs[0].ID != 0 {
		t.Errorf("FIFO order = %v, want earliest first", ids(units))
	}
	for _, u := range units {
		if u.Mode != Exclusive || len(u.Jobs) != 1 {
			t.Errorf("FIFO unit %v not exclusive singleton", ids([]Unit{u}))
		}
	}
}

func TestSRTFIgnoresGPUs(t *testing.T) {
	// Same remaining time, different GPU counts: SRTF ties, SRSF prefers
	// the smaller job.
	a := mk(0, "gpt2", 8, 100, 0)
	b := mk(1, "gpt2", 1, 100, time.Second)
	srtf := SRTF().Plan(0, []*job.Job{a, b}, 64)
	if srtf[0].Jobs[0].ID != 0 {
		t.Errorf("SRTF tie should fall back to submit order, got %v", ids(srtf))
	}
	srsf := SRSF().Plan(0, []*job.Job{a, b}, 64)
	if srsf[0].Jobs[0].ID != 1 {
		t.Errorf("SRSF should prefer the 1-GPU job, got %v", ids(srsf))
	}
}

func TestTiresiasPrefersLeastAttained(t *testing.T) {
	a := mk(0, "gpt2", 1, 100, 0)
	a.Attained = time.Hour
	b := mk(1, "gpt2", 1, 100, time.Second)
	units := Tiresias().Plan(0, []*job.Job{a, b}, 64)
	if units[0].Jobs[0].ID != 1 {
		t.Errorf("Tiresias should prefer the new job, got %v", ids(units))
	}
}

func TestThemisPrefersMostDelayed(t *testing.T) {
	// Two identical jobs; one has waited 10× longer → higher ρ → first.
	a := mk(0, "gpt2", 1, 100, 0)
	b := mk(1, "gpt2", 1, 100, 90*time.Second)
	units := Themis().Plan(100*time.Second, []*job.Job{a, b}, 64)
	if units[0].Jobs[0].ID != 0 {
		t.Errorf("Themis should prefer the most-delayed job, got %v", ids(units))
	}
}

func TestAntManPairsSameGPUJobs(t *testing.T) {
	p := AntMan{}
	jobs := []*job.Job{
		mk(0, "gpt2", 1, 100, 0),
		mk(1, "a2c", 1, 100, time.Second),
		mk(2, "gpt2", 8, 100, 2*time.Second),
		mk(3, "vgg16", 8, 100, 3*time.Second),
		mk(4, "shufflenet", 1, 100, 4*time.Second),
	}
	units := p.Plan(0, jobs, 64)
	if len(units) != 3 {
		t.Fatalf("units = %v, want 3 (two pairs + leftover)", ids(units))
	}
	for _, u := range units {
		for _, j := range u.Jobs {
			if j.GPUs != u.GPUs {
				t.Errorf("unit gpus %d mixes job with %d", u.GPUs, j.GPUs)
			}
		}
		switch len(u.Jobs) {
		case 1:
			if u.Mode != Exclusive {
				t.Errorf("singleton unit mode = %v, want exclusive", u.Mode)
			}
		case 2:
			if u.Mode != SpaceShared {
				t.Errorf("pair unit mode = %v, want space-shared", u.Mode)
			}
		default:
			t.Errorf("unit with %d members exceeds degree", len(u.Jobs))
		}
	}
}

func TestAntManDefaultDegree(t *testing.T) {
	p := AntMan{}
	jobs := []*job.Job{mk(0, "gpt2", 1, 10, 0), mk(1, "gpt2", 1, 10, 0), mk(2, "gpt2", 1, 10, 0)}
	units := p.Plan(0, jobs, 64)
	if len(units) != 2 {
		t.Errorf("default degree should pair: got %v", ids(units))
	}
}

func TestSpaceSharedSlowdown(t *testing.T) {
	a := workload.StageTimes{0, 0, 10 * time.Millisecond, 0} // pure GPU
	b := workload.StageTimes{10 * time.Millisecond, 0, 0, 0} // pure storage
	// Identical jobs fully overlap → 2× slowdown.
	if got := SpaceSharedSlowdown(a, []workload.StageTimes{a}); got != 2.0 {
		t.Errorf("identical-pair slowdown = %v, want 2", got)
	}
	// Complementary jobs don't overlap → no slowdown.
	if got := SpaceSharedSlowdown(a, []workload.StageTimes{b}); got != 1.0 {
		t.Errorf("complementary-pair slowdown = %v, want 1", got)
	}
	// No co-located jobs → no slowdown.
	if got := SpaceSharedSlowdown(a, nil); got != 1.0 {
		t.Errorf("solo slowdown = %v, want 1", got)
	}
}

func TestMuriGroupsComplementaryJobs(t *testing.T) {
	p := NewMuriS()
	jobs := []*job.Job{
		mk(0, "shufflenet", 1, 1000, 0), // storage
		mk(1, "a2c", 1, 1000, 0),        // cpu
		mk(2, "gpt2", 1, 1000, 0),       // gpu
		mk(3, "vgg16", 1, 1000, 0),      // network
	}
	// Capacity 1 forces sharing: the four complementary single-GPU jobs
	// should form one 4-job interleaved group. (With capacity ≥ 4 the
	// demand fits and Muri degrades to exclusive SRSF.)
	units := p.Plan(0, jobs, 1)
	if len(units) != 1 {
		t.Fatalf("units = %v, want one 4-job group", ids(units))
	}
	if excl := p.Plan(0, jobs, 64); len(excl) != 4 {
		t.Errorf("lightly loaded plan = %v, want 4 exclusive units", ids(excl))
	}
	if units[0].Mode != Interleaved || len(units[0].Jobs) != 4 {
		t.Errorf("unit = %d jobs mode %v, want 4 interleaved", len(units[0].Jobs), units[0].Mode)
	}
	if units[0].Plan.IterTime <= 0 {
		t.Error("group plan has no iteration time")
	}
}

func TestMuriNames(t *testing.T) {
	if got := NewMuriS().Name(); got != "muri-s" {
		t.Errorf("Muri-S name = %q", got)
	}
	if got := NewMuriL().Name(); got != "muri-l" {
		t.Errorf("Muri-L name = %q", got)
	}
	m := NewMuriL()
	m.Label = "muri-l-worst"
	if got := m.Name(); got != "muri-l-worst" {
		t.Errorf("labeled name = %q", got)
	}
	if !m.Preemptive() {
		t.Error("Muri should be preemptive")
	}
}

func TestMuriCandidateBudget(t *testing.T) {
	// With capacity 1 the grouping budget is MaxGroupSize × 1 = 4 GPUs:
	// only the four most urgent jobs are candidates, and the other six come
	// back behind them as exclusive backfill, in priority order.
	p := NewMuriS()
	var jobs []*job.Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, mk(i, "gpt2", 1, int64(100+i), 0))
	}
	units := p.Plan(0, jobs, 1)
	seen := 0
	for _, u := range units {
		seen += len(u.Jobs)
	}
	if seen != len(jobs) {
		t.Fatalf("units %v cover %d jobs, want %d", ids(units), seen, len(jobs))
	}
	backfill := units[len(units)-6:]
	for i, u := range backfill {
		if len(u.Jobs) != 1 || u.Jobs[0].ID != job.ID(4+i) || u.Mode != Exclusive {
			t.Fatalf("units %v: want jobs 4..9 as exclusive backfill after the 4-GPU candidate budget", ids(units))
		}
	}
	if units[0].Jobs[0].ID != 0 {
		t.Errorf("most urgent job should head the plan, got %v", ids(units))
	}
}

// TestCandidateCutBoundsBuckets pins the traffic bound exact matching
// rests on (Algorithm 1 line 3): however long the queue, the grouping layer
// sees at most MaxGroupSize × capacity GPUs' worth of jobs, so a bucket
// never exceeds 4 × capacity ÷ GPUs-per-job nodes. The jobs are counted
// where the grouping layer reads them, through Grouping.RemainingIters.
func TestCandidateCutBoundsBuckets(t *testing.T) {
	const capacity = 64
	zoo := workload.Zoo()
	var jobs []*job.Job
	for i := 0; i < 2000; i++ {
		jobs = append(jobs, job.New(job.ID(i), zoo[i%len(zoo)], 1, int64(1000+37*i), 0))
	}
	for _, p := range []*Muri{NewMuriS(), NewMuriL(), NewMuriLScale(4)} {
		var mu sync.Mutex // shard tasks call RemainingIters concurrently
		seen := make(map[job.ID]bool)
		inner := p.Grouping.RemainingIters
		p.Grouping.RemainingIters = func(j *job.Job) int64 {
			mu.Lock()
			seen[j.ID] = true
			mu.Unlock()
			if inner == nil {
				return j.RemainingIterations()
			}
			return inner(j)
		}
		p.Plan(0, jobs, capacity)
		if len(seen) == 0 || len(seen) > 4*capacity {
			t.Errorf("%s: grouping saw %d distinct jobs, want 1..%d", p.Name(), len(seen), 4*capacity)
		}
	}
}

func TestMuriNeverMixesGPUBuckets(t *testing.T) {
	p := NewMuriL()
	jobs := []*job.Job{
		mk(0, "shufflenet", 1, 100, 0),
		mk(1, "gpt2", 2, 100, 0),
		mk(2, "a2c", 1, 100, 0),
		mk(3, "vgg16", 2, 100, 0),
	}
	units := p.Plan(0, jobs, 64)
	for _, u := range units {
		for _, j := range u.Jobs {
			if j.GPUs != u.GPUs {
				t.Errorf("unit (%d GPUs) contains job %d needing %d", u.GPUs, j.ID, j.GPUs)
			}
		}
	}
}

func TestMuriPriorityOrdersGroups(t *testing.T) {
	// A nearly-finished job should head the placement order.
	urgent := mk(0, "gpt2", 1, 10, 0)
	var jobs []*job.Job
	jobs = append(jobs, urgent)
	for i := 1; i < 8; i++ {
		jobs = append(jobs, mk(i, "vgg16", 1, 100000, 0))
	}
	units := NewMuriS().Plan(0, jobs, 64)
	found := false
	for _, j := range units[0].Jobs {
		if j.ID == urgent.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("most urgent job not in first unit: %v", ids(units))
	}
}

package sched

import (
	"sync"
	"testing"
	"time"

	"muri/internal/job"
	"muri/internal/profile"
	"muri/internal/workload"
)

func TestGittinsColdStartIsStable(t *testing.T) {
	g := NewGittins()
	if g.Name() != "gittins" || !g.Preemptive() {
		t.Fatalf("metadata wrong: %q preemptive=%v", g.Name(), g.Preemptive())
	}
	jobs := []*job.Job{
		mk(0, "gpt2", 1, 100, 0),
		mk(1, "gpt2", 1, 100, time.Second),
	}
	units := g.Plan(0, jobs, 64)
	// With no history every index is equal; tie-break is submit order.
	if units[0].Jobs[0].ID != 0 || units[1].Jobs[0].ID != 1 {
		t.Errorf("cold-start order = %v, want submit order", ids(units))
	}
}

func TestGittinsIndexMonotonicity(t *testing.T) {
	g := NewGittins()
	// History: many short jobs (600s) and a few long ones (100000s).
	for i := 0; i < 90; i++ {
		g.Observe(600 * time.Second)
	}
	for i := 0; i < 10; i++ {
		g.Observe(100000 * time.Second)
	}
	history, quanta := g.snapshotHistory(), gittinsQuanta
	// A fresh job (attained 0) is very likely short → high index.
	fresh := gittinsIndex(history, quanta, 0)
	// A job that survived 1000s is certainly long → low index.
	old := gittinsIndex(history, quanta, 1000)
	if fresh <= old {
		t.Errorf("index(fresh)=%v should exceed index(survived 1000s)=%v", fresh, old)
	}
	// Beyond all observed demands: lowest priority.
	if beyond := gittinsIndex(history, quanta, 1e9); beyond != 0 {
		t.Errorf("index beyond history = %v, want 0", beyond)
	}
}

func TestGittinsPrefersLikelyShortJobs(t *testing.T) {
	g := NewGittins()
	for i := 0; i < 50; i++ {
		g.Observe(10 * time.Minute)
	}
	for i := 0; i < 5; i++ {
		g.Observe(48 * time.Hour)
	}
	fresh := mk(0, "gpt2", 1, 1000, time.Second)
	survivor := mk(1, "gpt2", 1, 1000, 0)
	survivor.Attained = 2 * time.Hour // outlived the short mass → long
	units := g.Plan(0, []*job.Job{survivor, fresh}, 64)
	if units[0].Jobs[0].ID != 0 {
		t.Errorf("order = %v, want the fresh (probably short) job first", ids(units))
	}
}

func TestGittins2DUsesGPUWeightedService(t *testing.T) {
	g := NewGittins()
	for i := 0; i < 50; i++ {
		g.Observe(10 * time.Minute)
	}
	for i := 0; i < 5; i++ {
		g.Observe(48 * time.Hour)
	}
	// Same attained wall time, but 8 GPUs → 8× service → deeper into the
	// distribution → lower index than the 1-GPU job.
	wide := mk(0, "gpt2", 8, 1000, 0)
	wide.Attained = 5 * time.Minute // 40 GPU-minutes
	narrow := mk(1, "gpt2", 1, 1000, time.Second)
	narrow.Attained = 5 * time.Minute // 5 GPU-minutes
	units := g.Plan(0, []*job.Job{wide, narrow}, 64)
	if units[0].Jobs[0].ID != 1 {
		t.Errorf("order = %v, want the 1-GPU job first (less 2D service)", ids(units))
	}
}

// Gittins with a Source must rank against the predictor's completed
// service history and ignore its private log.
func TestGittinsConsumesPredictorHistory(t *testing.T) {
	est := profile.NewOnline()
	m, err := workload.ByName("gpt2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		est.ObserveCompletion(m.Name, m.Stages, 10*time.Minute)
	}
	for i := 0; i < 5; i++ {
		est.ObserveCompletion(m.Name, m.Stages, 48*time.Hour)
	}
	g := NewGittinsFromEstimator(est)
	if g.Name() != "gittins-pred" {
		t.Fatalf("name = %q, want gittins-pred", g.Name())
	}
	g.Observe(time.Second) // must be a no-op with a Source attached
	fresh := mk(0, "gpt2", 1, 1000, time.Second)
	survivor := mk(1, "gpt2", 1, 1000, 0)
	survivor.Attained = 2 * time.Hour // outlived the short mass → long
	units := g.Plan(0, []*job.Job{survivor, fresh}, 64)
	if units[0].Jobs[0].ID != 0 {
		t.Errorf("order = %v, want the fresh (probably short) job first", ids(units))
	}
}

// Concurrent Observe and Plan must be race-free (run under -race): the
// sharded scheduling path and the daemon's schedule loop can hit the
// policy from different goroutines.
func TestGittinsConcurrentObservePlan(t *testing.T) {
	g := NewGittins()
	jobs := []*job.Job{
		mk(0, "gpt2", 1, 100, 0),
		mk(1, "resnet18", 2, 200, time.Second),
		mk(2, "vgg19", 4, 300, 2*time.Second),
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.Observe(time.Duration(w*1000+i) * time.Second)
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.Plan(0, jobs, 64)
			}
		}()
	}
	wg.Wait()
	if got := len(g.snapshotHistory()); got != 800 {
		t.Fatalf("history lost observations under concurrency: %d, want 800", got)
	}
}

package profile

import (
	"sync"
	"testing"
	"time"

	"muri/internal/workload"
)

func model(name string) workload.Model {
	return workload.Model{
		Name:   name,
		Stages: workload.StageTimes{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond},
	}
}

func TestZeroNoiseIsExact(t *testing.T) {
	p := New(0, 1)
	m := model("m")
	if got := p.Profile(m); got != m.Stages {
		t.Errorf("Profile = %v, want exact %v", got, m.Stages)
	}
}

func TestCacheReuse(t *testing.T) {
	p := New(0.5, 1)
	m := model("m")
	first := p.Profile(m)
	second := p.Profile(m)
	if first != second {
		t.Errorf("cached profile differs: %v vs %v", first, second)
	}
	if len(p.cache) != 1 {
		t.Errorf("%d cached profiles, want 1 after two Profile calls", len(p.cache))
	}
	p.Profile(model("other"))
	if len(p.cache) != 2 {
		t.Errorf("%d cached profiles, want 2 after second model", len(p.cache))
	}
	if again := p.Profile(m); again != first {
		t.Errorf("profile re-measured after another model: %v vs %v", again, first)
	}
}

func TestNoiseBounds(t *testing.T) {
	m := model("m")
	for _, noise := range []float64{0.2, 0.5, 1.0} {
		for seed := int64(0); seed < 50; seed++ {
			p := New(noise, seed)
			got := p.Profile(m)
			for r := workload.Resource(0); r < workload.NumResources; r++ {
				lo := time.Duration(float64(m.Stages[r]) * (1 - noise))
				hi := time.Duration(float64(m.Stages[r]) * (1 + noise))
				if got[r] < lo || got[r] > hi {
					t.Fatalf("noise=%v seed=%d: stage %v = %v outside [%v, %v]",
						noise, seed, r, got[r], lo, hi)
				}
			}
		}
	}
}

func TestNoiseVaries(t *testing.T) {
	m := model("m")
	a := New(0.5, 1).Profile(m)
	b := New(0.5, 2).Profile(m)
	if a == b {
		t.Error("different seeds produced identical noisy profiles")
	}
}

func TestInvalidNoisePanics(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", bad)
				}
			}()
			New(bad, 1)
		}()
	}
}

func TestConcurrentProfile(t *testing.T) {
	p := New(0.3, 1)
	var wg sync.WaitGroup
	models := []workload.Model{model("a"), model("b"), model("c")}
	results := make([][]workload.StageTimes, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				results[g] = append(results[g], p.Profile(models[i%3]))
			}
		}(g)
	}
	wg.Wait()
	if len(p.cache) != 3 {
		t.Errorf("%d cached profiles, want 3 under concurrency", len(p.cache))
	}
	// Every goroutine must have observed the same cached profile per model.
	for g := 1; g < 8; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i%len(results[0])] && results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d observed inconsistent profile", g)
			}
		}
	}
}

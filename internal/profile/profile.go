// Package profile implements Muri's resource profiler (paper §3, §5): it
// measures the per-stage durations of a job by dry-running a few
// iterations, caches profiles per model so resubmitted models skip
// profiling, and can inject multiplicative measurement noise to reproduce
// the Figure 14 sensitivity experiment.
package profile

import (
	"math/rand"
	"sync"
	"time"

	"muri/internal/workload"
)

// Profiler measures and caches model resource profiles.
type Profiler struct {
	// Noise is the profiling-noise amplitude n_p ∈ [0, 1]: each measured
	// stage duration is multiplied by an independent uniform factor in
	// [1−n_p, 1+n_p] (Figure 14). Zero means exact profiles.
	Noise float64

	mu    sync.Mutex
	rng   *rand.Rand
	cache map[string]workload.StageTimes
}

// New creates a profiler with the given noise amplitude and RNG seed.
func New(noise float64, seed int64) *Profiler {
	if noise < 0 || noise > 1 {
		panic("profile: noise must be in [0, 1]")
	}
	return &Profiler{
		Noise: noise,
		rng:   rand.New(rand.NewSource(seed)),
		cache: make(map[string]workload.StageTimes),
	}
}

// Profile returns the stage-duration profile the scheduler should use for
// a job training model m. The first call per model performs a dry run
// (measuring the true stages, perturbed by noise) and caches the result;
// later calls reuse the cached profile, mirroring the paper: "for the jobs
// training the same models that have been submitted previously, the
// resource profile collected in the past can be reused".
func (p *Profiler) Profile(m workload.Model) workload.StageTimes {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.cache[m.Name]; ok {
		return st
	}
	st := p.measure(m)
	p.cache[m.Name] = st
	return st
}

// measure simulates the dry run: the true stage times perturbed by the
// configured noise. Callers must hold p.mu.
func (p *Profiler) measure(m workload.Model) workload.StageTimes {
	var out workload.StageTimes
	for r, d := range m.Stages {
		factor := 1.0
		if p.Noise > 0 {
			factor = 1 - p.Noise + 2*p.Noise*p.rng.Float64()
		}
		out[r] = time.Duration(float64(d) * factor)
	}
	return out
}

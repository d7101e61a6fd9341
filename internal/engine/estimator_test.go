package engine

import (
	"testing"
	"time"

	"muri/internal/job"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/workload"
)

// Complete must fold in-band completions into the estimator and re-seed
// the belief when the measurement (the job's true profile) deviates past
// the threshold, counting the re-profile in the engine stats.
func TestCompleteReprofilesOnDeviation(t *testing.T) {
	m, err := workload.ByName("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	est := profile.NewOnline()
	e := New(Config{Policy: sched.FIFO(), Estimator: est})
	complete := func(id job.ID, measured workload.StageTimes, service time.Duration) *job.Job {
		j := job.New(id, m, 1, 100, 0)
		j.TrueProfile = measured
		e.Track(j, job.Running)
		if !e.Complete(id, service) {
			t.Fatalf("completion of running job %d rejected", id)
		}
		return j
	}

	// In-band completions accumulate samples without re-profiling.
	for i := 0; i < 5; i++ {
		complete(job.ID(i+1), m.Stages, time.Hour)
		if e.Stats().Reprofiles != 0 {
			t.Fatalf("in-band completion %d triggered a re-profile", i)
		}
	}
	j := job.New(99, m, 1, 100, 0)
	if b, ok := est.EstimateFor(j); !ok || b.Samples != 5 {
		t.Fatalf("estimator has %d samples, want 5", b.Samples)
	}

	// A 2× deviation (threshold defaults to 0.25) re-seeds the belief.
	complete(6, m.Stages.Scale(2), 2*time.Hour)
	if e.Stats().Reprofiles != 1 {
		t.Fatalf("Reprofiles = %d, want 1", e.Stats().Reprofiles)
	}
	b, ok := est.EstimateFor(j)
	if !ok || b.Samples != 1 {
		t.Fatalf("belief not re-seeded: samples = %d, want 1", b.Samples)
	}
	if b.Stages.Total() != m.Stages.Scale(2).Total() {
		t.Fatalf("re-seeded belief = %v, want the deviating measurement %v",
			b.Stages.Total(), m.Stages.Scale(2).Total())
	}
}

// Without an estimator the completion still applies, and the estimator
// path stays inert.
func TestCompleteNilEstimator(t *testing.T) {
	m, err := workload.ByName("gpt2")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Policy: sched.FIFO()})
	j := job.New(1, m, 1, 10, 0)
	e.Track(j, job.Running)
	if !e.Complete(j.ID, time.Hour) || j.State != job.Done {
		t.Fatalf("completion without an estimator: state %v, want done", j.State)
	}
	if e.Stats().Reprofiles != 0 {
		t.Fatal("nil estimator accumulated re-profile stats")
	}
}

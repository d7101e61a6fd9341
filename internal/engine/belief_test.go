package engine_test

import (
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/workload"
)

// zooJob builds a pending job of the named zoo model.
func zooJob(t *testing.T, id int64, model string, iters int64) *job.Job {
	t.Helper()
	m, err := workload.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	return job.New(job.ID(id), m, 1, iters, 0)
}

// beliefRound runs one SRTF round on a one-GPU cluster and returns the
// decisions it issued.
func beliefRound(est profile.Estimator, tracked, offered []*job.Job) []string {
	var log decisionLog
	e := engine.New(engine.Config{Policy: sched.SRTF(), Estimator: est, Observer: log.observe})
	track(e, tracked...)
	e.Reconcile(engine.Input{Candidates: offered, Capacity: 1, Free: 1, Place: newFakePlacer(1).place})
	return log.take()
}

// Under the oracle, a round leaves every candidate planning on its true
// profile, whatever stale profile it was submitted with.
func TestReconcileBeliefsOracle(t *testing.T) {
	a, b := zooJob(t, 1, "resnet18", 1000), zooJob(t, 2, "gpt2", 2000)
	for _, j := range []*job.Job{a, b} {
		j.Profile = j.TrueProfile.Scale(3)
	}
	beliefRound(profile.NewOracle(), []*job.Job{a, b}, []*job.Job{a, b})
	for _, j := range []*job.Job{a, b} {
		if j.Profile != j.TrueProfile {
			t.Errorf("job %d plans on %v, want its true profile %v", j.ID, j.Profile, j.TrueProfile)
		}
	}
}

// Once the online estimator has learned that resnet18 runs 10× its zoo
// time, SRTF ranks the believed-long resnet18 job behind the gpt2 job it
// was ahead of; gpt2, with no belief yet, keeps its submitted profile.
func TestReconcileBeliefsOnlineReorders(t *testing.T) {
	slow, err := workload.ByName("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	est := profile.NewOnline()
	for i := 0; i < 10; i++ {
		est.ObserveCompletion(slow.Name, slow.Stages.Scale(10), time.Hour)
	}
	round := func(est profile.Estimator) (decisions []string, short, long *job.Job) {
		short, long = zooJob(t, 1, "resnet18", 1000), zooJob(t, 2, "gpt2", 2000)
		jobs := []*job.Job{short, long}
		return beliefRound(est, jobs, jobs), short, long
	}
	if got, _, _ := round(nil); !equalStrings(got, []string{"launch exclusive:1"}) {
		t.Fatalf("without an estimator: %v, want the zoo-short resnet18 job first", got)
	}
	got, short, long := round(est)
	if !equalStrings(got, []string{"launch exclusive:2"}) {
		t.Errorf("with the learned belief: %v, want the gpt2 job first", got)
	}
	b, _ := est.EstimateFor(short)
	if short.Profile != b.Stages {
		t.Errorf("resnet18 plans on %v, want its belief %v", short.Profile, b.Stages)
	}
	if long.Profile != long.TrueProfile {
		t.Errorf("cold-start gpt2 profile rewritten to %v, want its submitted %v", long.Profile, long.TrueProfile)
	}
}

// Only the round's candidates are rewritten: a job the driver holds back
// (left out of the offer) and a finished job (offered, but skipped by the
// State rule) keep their profiles.
func TestReconcileBeliefsSkipHeldAndDone(t *testing.T) {
	live, held, done := zooJob(t, 1, "gpt2", 100), zooJob(t, 2, "gpt2", 100), zooJob(t, 3, "gpt2", 100)
	stale := live.TrueProfile.Scale(3)
	for _, j := range []*job.Job{live, held, done} {
		j.Profile = stale
	}
	var log decisionLog
	e := engine.New(engine.Config{Policy: sched.SRTF(), Estimator: profile.NewOracle(), Observer: log.observe})
	track(e, live, held)
	e.Track(done, job.Running)
	e.Complete(done.ID, time.Hour)
	e.Reconcile(engine.Input{Candidates: []*job.Job{live, done}, Capacity: 1, Free: 1, Place: newFakePlacer(1).place})
	if got := log.take(); !equalStrings(got, []string{"launch exclusive:1"}) {
		t.Errorf("decisions = %v, want only the live job launched", got)
	}
	if live.Profile != live.TrueProfile {
		t.Errorf("candidate profile = %v, want its belief %v", live.Profile, live.TrueProfile)
	}
	if held.Profile != stale || done.Profile != stale {
		t.Errorf("held %v, done %v: want both left at %v", held.Profile, done.Profile, stale)
	}
}

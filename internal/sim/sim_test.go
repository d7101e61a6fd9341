package sim

import (
	"slices"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/trace"
	"muri/internal/wal"
	"muri/internal/workload"
)

// quickCfg is a small, fast configuration used throughout the tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Machines = 2
	cfg.GPUsPerMachine = 8
	cfg.Interval = time.Minute
	cfg.RestartOverhead = 5 * time.Second
	return cfg
}

// spec builds a trace spec.
func spec(id int, submit, dur time.Duration, gpus int, model string) trace.Spec {
	return trace.Spec{ID: int64(id), Submit: submit, Duration: dur, GPUs: gpus, Model: model}
}

func TestSingleJobCompletes(t *testing.T) {
	tr := trace.Trace{Name: "t", Specs: []trace.Spec{
		spec(0, 0, 10*time.Minute, 1, "gpt2"),
	}}
	res := Run(quickCfg(), tr, sched.FIFO())
	if len(res.Jobs) != 1 {
		t.Fatalf("completed %d jobs, want 1", len(res.Jobs))
	}
	j := res.Jobs[0]
	if j.State != job.Done {
		t.Fatalf("job state = %v, want done", j.State)
	}
	// JCT should be close to the trace duration (within one interval).
	if j.JCT() < 9*time.Minute || j.JCT() > 12*time.Minute {
		t.Errorf("JCT = %v, want ≈10m", j.JCT())
	}
}

func TestAllJobsComplete(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Name: "t", Jobs: 60, Seed: 5, MaxGPUs: 8,
		MeanInterarrival: 20 * time.Second,
		MedianDuration:   8 * time.Minute,
		MaxDuration:      30 * time.Minute,
	})
	for _, p := range []sched.Policy{
		sched.FIFO(), sched.SRTF(), sched.SRSF(), sched.Tiresias(),
		sched.Themis(), sched.AntMan{}, sched.NewMuriS(), sched.NewMuriL(),
	} {
		res := Run(quickCfg(), tr, p)
		if len(res.Jobs) != 60 {
			t.Errorf("%s: completed %d jobs, want 60", p.Name(), len(res.Jobs))
		}
		if res.Summary.Makespan <= 0 || res.Summary.AvgJCT <= 0 {
			t.Errorf("%s: degenerate summary %+v", p.Name(), res.Summary)
		}
		for _, j := range res.Jobs {
			if j.FinishedAt < j.Submit {
				t.Errorf("%s: job %d finished before submission", p.Name(), j.ID)
			}
			if j.DoneIterations != j.Iterations {
				t.Errorf("%s: job %d incomplete: %d/%d", p.Name(), j.ID, j.DoneIterations, j.Iterations)
			}
		}
	}
}

func TestMuriBeatsExclusiveBaselineOnMixedLoad(t *testing.T) {
	// Heavily loaded queue of complementary jobs: Muri should deliver a
	// clearly better average JCT and makespan than exclusive SRTF —
	// the core claim of the paper.
	var specs []trace.Spec
	models := []string{"shufflenet", "a2c", "gpt2", "vgg16"}
	for i := 0; i < 64; i++ {
		specs = append(specs, spec(i, 0, 20*time.Minute, 1, models[i%4]))
	}
	tr := trace.Trace{Name: "mixed", Specs: specs}
	cfg := quickCfg()
	srtf := Run(cfg, tr, sched.SRTF())
	muri := Run(cfg, tr, sched.NewMuriS())
	jctSpeedup := metrics.Speedup(srtf.Summary.AvgJCT, muri.Summary.AvgJCT)
	msSpeedup := metrics.Speedup(srtf.Summary.Makespan, muri.Summary.Makespan)
	// With uniform 20-minute jobs the theoretical JCT gain is bounded
	// (~1.25× for 2× aggregate throughput); makespan shows the full win.
	if jctSpeedup < 1.15 {
		t.Errorf("Muri JCT speedup = %.2f×, want > 1.15×", jctSpeedup)
	}
	if msSpeedup < 1.5 {
		t.Errorf("Muri makespan speedup = %.2f×, want > 1.5×", msSpeedup)
	}
}

func TestSRSFOrderingAffectsJCT(t *testing.T) {
	// One long job then many short jobs: FIFO suffers HOL blocking, SRSF
	// does not.
	var specs []trace.Spec
	specs = append(specs, spec(0, 0, 4*time.Hour, 16, "gpt2"))
	for i := 1; i <= 20; i++ {
		specs = append(specs, spec(i, time.Second, 5*time.Minute, 16, "gpt2"))
	}
	tr := trace.Trace{Name: "hol", Specs: specs}
	cfg := quickCfg()
	fifo := Run(cfg, tr, sched.FIFO())
	srsf := Run(cfg, tr, sched.SRSF())
	if srsf.Summary.AvgJCT >= fifo.Summary.AvgJCT {
		t.Errorf("SRSF avg JCT %v should beat FIFO %v under HOL blocking",
			srsf.Summary.AvgJCT, fifo.Summary.AvgJCT)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Name: "t", Jobs: 80, Seed: 8, MaxGPUs: 16,
		MeanInterarrival: 5 * time.Second,
		MedianDuration:   10 * time.Minute,
		MaxDuration:      time.Hour,
	})
	cfg := quickCfg()
	cfg.SampleEvery = time.Minute
	res := Run(cfg, tr, sched.NewMuriL())
	for _, s := range res.Series {
		for r := 0; r < workload.NumResources; r++ {
			if s.Util[r] < 0 || s.Util[r] > 1.0001 {
				t.Fatalf("utilization out of range at %v: %v", s.Time, s.Util)
			}
		}
		if s.QueueLen < 0 {
			t.Fatalf("negative queue length at %v", s.Time)
		}
	}
}

func TestSeriesSampled(t *testing.T) {
	tr := trace.Trace{Name: "t", Specs: []trace.Spec{
		spec(0, 0, 30*time.Minute, 1, "bert"),
	}}
	cfg := quickCfg()
	cfg.SampleEvery = time.Minute
	res := Run(cfg, tr, sched.FIFO())
	if len(res.Series) < 10 {
		t.Errorf("series has %d samples, want ≥ 10 over a 30m run", len(res.Series))
	}
	// Utilization is cluster-wide: one GPU-bound job on a 16-GPU cluster
	// contributes ≈ (1/16)·0.71. GPU must still dominate the other types.
	s := res.Series[3]
	for r := workload.Resource(0); r < workload.NumResources; r++ {
		if r != workload.GPU && s.Util[r] >= s.Util[workload.GPU] {
			t.Errorf("util[%v] = %v ≥ util[gpu] = %v while bert runs", r, s.Util[r], s.Util[workload.GPU])
		}
	}
	if s.Util[workload.GPU] < 0.03 {
		t.Errorf("GPU util = %v, want ≈ 0.044 (1/16 of cluster × 0.71)", s.Util[workload.GPU])
	}
}

func TestRestartOverheadCountsPreemptions(t *testing.T) {
	// A short job arriving later preempts the long job under SRSF (its
	// remaining time is shorter), forcing at least one restart.
	var specs []trace.Spec
	for i := 0; i < 16; i++ {
		specs = append(specs, spec(i, 0, 3*time.Hour, 2, "bert"))
	}
	for i := 16; i < 32; i++ {
		specs = append(specs, spec(i, 30*time.Minute, 5*time.Minute, 2, "shufflenet"))
	}
	tr := trace.Trace{Name: "t", Specs: specs}
	res := Run(quickCfg(), tr, sched.SRSF())
	if res.Preemptions == 0 {
		t.Error("expected preemptions under SRSF with late short jobs")
	}
	restarts := 0
	for _, j := range res.Jobs {
		restarts += j.Restarts
	}
	if restarts == 0 {
		t.Error("expected at least one job restart")
	}
}

// TestContinuingUnitKeepsPendingOverhead re-plans a unit inside its
// restart overhead: job 0 is preempted at 1m by a 10-minute job, resumes
// at 11m (ready at 11m30s), and the event-driven round at job 2's arrival
// (11m10s) keeps it in the same unit. The continuing unit must still wait
// out the overhead it was charged, so job 0 finishes ~30 s + 1 h + 10m of
// preemption after its submission, not 20 s earlier.
func TestContinuingUnitKeepsPendingOverhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines, cfg.GPUsPerMachine = 1, 1
	cfg.EventDriven = true
	tr := trace.Trace{Name: "overhead", Specs: []trace.Spec{
		spec(0, 0, time.Hour, 1, "gpt2"),
		spec(1, time.Minute, 10*time.Minute, 1, "gpt2"),
		spec(2, 11*time.Minute+10*time.Second, 2*time.Hour, 1, "gpt2"),
	}}
	res := Run(cfg, tr, sched.SRTF())
	for _, j := range res.Jobs {
		if j.ID != 0 {
			continue
		}
		if j.Restarts != 1 {
			t.Fatalf("job 0 restarted %d times, want 1", j.Restarts)
		}
		if want := time.Hour + 10*time.Minute + 29*time.Second; j.FinishedAt < want {
			t.Fatalf("job 0 finished at %v, want ≥ %v (restart overhead forgiven)", j.FinishedAt, want)
		}
		return
	}
	t.Fatal("job 0 did not finish")
}

func TestProfilingNoiseDegradesButCompletes(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Name: "t", Jobs: 50, Seed: 4, MaxGPUs: 8,
		MeanInterarrival: 10 * time.Second,
		MedianDuration:   10 * time.Minute,
		MaxDuration:      time.Hour,
	})
	cfg := quickCfg()
	cfg.Profiler = profile.New(1.0, 99)
	res := Run(cfg, tr, sched.NewMuriL())
	if len(res.Jobs) != 50 {
		t.Errorf("noisy run completed %d jobs, want 50", len(res.Jobs))
	}
}

func TestGPURequestClampedToCluster(t *testing.T) {
	tr := trace.Trace{Name: "t", Specs: []trace.Spec{
		spec(0, 0, 10*time.Minute, 64, "gpt2"), // larger than the 16-GPU cluster
	}}
	res := Run(quickCfg(), tr, sched.FIFO())
	if len(res.Jobs) != 1 {
		t.Fatalf("oversized job did not complete")
	}
	if res.Jobs[0].GPUs != 16 {
		t.Errorf("job GPUs = %d, want clamped to 16", res.Jobs[0].GPUs)
	}
}

func TestEmptyTrace(t *testing.T) {
	res := Run(quickCfg(), trace.Trace{Name: "empty"}, sched.FIFO())
	if len(res.Jobs) != 0 || res.Summary.Jobs != 0 {
		t.Errorf("empty trace produced %+v", res.Summary)
	}
}

func TestMaxJobsTruncation(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{Name: "t", Jobs: 100, Seed: 6,
		MedianDuration: 5 * time.Minute, MaxDuration: 10 * time.Minute, MaxGPUs: 8})
	cfg := quickCfg()
	cfg.MaxJobs = 10
	res := Run(cfg, tr, sched.FIFO())
	if len(res.Jobs) != 10 {
		t.Errorf("completed %d jobs, want 10 with MaxJobs", len(res.Jobs))
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{Name: "t", Jobs: 40, Seed: 11, MaxGPUs: 8,
		MeanInterarrival: 15 * time.Second, MedianDuration: 8 * time.Minute, MaxDuration: 40 * time.Minute})
	a := Run(quickCfg(), tr, sched.NewMuriS())
	b := Run(quickCfg(), tr, sched.NewMuriS())
	if a.Summary != b.Summary {
		t.Errorf("nondeterministic summaries:\n%+v\n%+v", a.Summary, b.Summary)
	}
}

func TestInterleavedGroupSpeedsUpWhenMemberFinishes(t *testing.T) {
	// Two complementary jobs, one much shorter: after the short one
	// completes, the survivor should finish roughly as fast as solo
	// execution would from that point.
	short := spec(0, 0, 5*time.Minute, 1, "a2c")
	long := spec(1, 0, 30*time.Minute, 1, "gpt2")
	tr := trace.Trace{Name: "t", Specs: []trace.Spec{short, long}}
	cfg := quickCfg()
	cfg.Interleave = interleave.Config{} // ideal: no contention
	res := Run(cfg, tr, sched.NewMuriS())
	var longJCT time.Duration
	for _, j := range res.Jobs {
		if j.ID == 1 {
			longJCT = j.JCT()
		}
	}
	// gpt2 interleaved with a2c overlaps nearly perfectly (CPU vs GPU), so
	// the long job should finish within ~25% of its solo duration.
	if longJCT > 40*time.Minute {
		t.Errorf("long job JCT = %v, want < 40m (interleaving ≈ no slowdown)", longJCT)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	tr := trace.Trace{Name: "t"}
	for name, cfg := range map[string]Config{
		"zero machines": {GPUsPerMachine: 8, Interval: time.Minute},
		"zero interval": {Machines: 1, GPUsPerMachine: 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Run should panic", name)
				}
			}()
			Run(cfg, tr, sched.FIFO())
		}()
	}
}

func TestAntManSharingRunsMoreConcurrently(t *testing.T) {
	// All jobs identical and GPU-bound: AntMan shares GPUs but pays ~2×
	// slowdown, so its makespan should be no better than FIFO's; with
	// complementary jobs, sharing should help makespan.
	mixed := func() trace.Trace {
		var specs []trace.Spec
		models := []string{"shufflenet", "gpt2"}
		for i := 0; i < 32; i++ {
			specs = append(specs, spec(i, 0, 20*time.Minute, 1, models[i%2]))
		}
		return trace.Trace{Name: "m", Specs: specs}
	}
	cfg := quickCfg()
	fifo := Run(cfg, mixed(), sched.FIFO())
	antman := Run(cfg, mixed(), sched.AntMan{})
	if antman.Summary.Makespan >= fifo.Summary.Makespan {
		t.Errorf("AntMan makespan %v should beat FIFO %v on complementary jobs",
			antman.Summary.Makespan, fifo.Summary.Makespan)
	}
}

func TestEventDrivenScheduling(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Name: "t", Jobs: 40, Seed: 17, MaxGPUs: 8,
		MeanInterarrival: 30 * time.Second,
		MedianDuration:   10 * time.Minute,
		MaxDuration:      time.Hour,
	})
	interval := Run(quickCfg(), tr, sched.SRSF())
	edCfg := quickCfg()
	edCfg.EventDriven = true
	event := Run(edCfg, tr, sched.SRSF())
	if len(event.Jobs) != 40 {
		t.Fatalf("event-driven completed %d jobs, want 40", len(event.Jobs))
	}
	// Reacting to arrivals and completions immediately should not be
	// meaningfully worse than fixed intervals.
	if float64(event.Summary.AvgJCT) > 1.1*float64(interval.Summary.AvgJCT) {
		t.Errorf("event-driven avg JCT %v much worse than interval-driven %v",
			event.Summary.AvgJCT, interval.Summary.AvgJCT)
	}
}

// TestHeapStatsExposure checks the clock counters bench/ reads: an
// event-driven run without a fault plan scans the running set once per
// round and never fixes, under a preemptive and a non-preemptive policy;
// a fixed-interval run never scans.
func TestHeapStatsExposure(t *testing.T) {
	cfg := trace.PhillyConfigs(64)[0]
	cfg.Jobs = 60
	tr := trace.Generate(cfg)

	ev := DefaultConfig()
	ev.EventDriven = true
	for _, p := range []sched.Policy{sched.NewMuriL(), sched.FIFO()} {
		r := Run(ev, tr, p)
		if h := r.Heap; h.Rebuilds != uint64(r.Engine.Rounds) || h.Peak == 0 || h.Fixes != 0 {
			t.Fatalf("%s: event-driven run scanned %+v over %d rounds", p.Name(), h, r.Engine.Rounds)
		}
	}

	fixed := Run(DefaultConfig(), tr, sched.NewMuriL())
	if h := fixed.Heap; h != (metrics.HeapStats{}) {
		t.Fatalf("fixed-interval run scanned: %+v", h)
	}
}

// TestLaunchesCountEveryStart: a placed unit either continues or launches,
// and only a launch starts its members, so on every golden configuration
// each job's first start and each restart is one membership of a launch
// decision. A continuing unit (one that shrank when a member finished or
// faulted included) restarts nobody, and a launch restarts every member
// that had started, including one whose unit key it had held before. The
// extra case is trace 1's first 400 jobs under Muri-L, where six survivors
// of shrunk units used to restart with no decision saying so.
func TestLaunchesCountEveryStart(t *testing.T) {
	memberships := 0
	observe := func(d engine.Decision) {
		if d.Action == engine.ActLaunch {
			memberships += len(d.Jobs)
		}
	}
	cases := goldenCases(observe)
	cases["muri-l-trace1-400"] = func() Result {
		gc := trace.PhillyConfigs(64)[0]
		gc.Jobs = 400
		cfg := DefaultConfig()
		cfg.Observer = observe
		return Run(cfg, trace.Generate(gc), sched.NewMuriL())
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			memberships = 0
			starts := 0
			for _, j := range run().Jobs {
				starts += 1 + j.Restarts
			}
			if starts != memberships {
				t.Fatalf("%d starts and restarts against %d launch memberships", starts, memberships)
			}
		})
	}
}

// TestSimultaneousCompletionsFinishTogether: when two members of a unit
// finish at the same wake instant, the advance that reaches it completes
// both, so the instant's round never decides over a job with nothing left
// to run (kills it, relaunches it and charges it a restart). Event-driven
// Muri-S on trace1's first 400 jobs wakes on such an instant. The loop is
// Run's, with the jobs that have finished in all but name collected before
// each round.
func TestSimultaneousCompletionsFinishTogether(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EventDriven = true
	cfg.MaxJobs = 400
	spent := map[job.ID]bool{}
	rounds := 0
	cfg.Observer = func(d engine.Decision) {
		for _, id := range d.Jobs {
			if spent[id] {
				t.Errorf("round %d: %s names job %d, which had no iterations left", rounds, d, id)
			}
		}
	}
	s := newSim(cfg, trace.Generate(trace.PhillyConfigs(0)[0]), sched.NewMuriS())
	for s.now = s.all[0].Submit; len(s.done) < len(s.all); rounds++ {
		s.admitArrivals()
		clear(spent)
		for _, u := range s.running {
			for i, j := range u.spec.Jobs {
				remaining := max(float64(j.RemainingIterations())-u.carry[i], 0)
				if max(s.now, u.readyAt)+time.Duration(remaining*float64(u.iterTime[i])) <= s.now {
					spent[j.ID] = true
				}
			}
		}
		s.schedule()
		next := s.nextWake()
		s.advance(next)
		s.now = next
	}
}

// TestTimelineRecording reads a run's lifecycle from its record stream:
// every job has one admit item, at least one launch membership and one
// done record, in that order on the virtual clock. Done records carry
// their mid-advance completion instant, so V is ordered per job, not
// across the stream.
func TestTimelineRecording(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Name: "t", Jobs: 20, Seed: 19, MaxGPUs: 8,
		MeanInterarrival: 30 * time.Second,
		MedianDuration:   8 * time.Minute,
		MaxDuration:      30 * time.Minute,
	})
	type lifecycle struct {
		admits, launches, dones int
		admitV, launchV, doneV  int64
	}
	jobs := map[int64]*lifecycle{}
	of := func(id int64) *lifecycle {
		if jobs[id] == nil {
			jobs[id] = &lifecycle{}
		}
		return jobs[id]
	}
	cfg := quickCfg()
	cfg.Record = func(r *wal.Record) {
		switch r.Kind {
		case wal.KindAdmit:
			for _, it := range r.Admit.Items {
				l := of(it.Spec.ID)
				l.admits++
				l.admitV = r.V
			}
		case wal.KindDecision:
			if r.Decision.Action != string(engine.ActLaunch) {
				return
			}
			for _, id := range r.Decision.Jobs {
				l := of(id)
				if l.launches == 0 {
					l.launchV = r.V
				}
				l.launches++
			}
		case wal.KindDone:
			l := of(r.Done.Job)
			l.dones++
			l.doneV = r.V
		}
	}
	res := Run(cfg, tr, sched.SRSF())
	if res.Summary.Jobs != 20 || len(jobs) != 20 {
		t.Fatalf("%d jobs completed, %d in the record stream; want 20", res.Summary.Jobs, len(jobs))
	}
	for id, l := range jobs {
		if l.admits != 1 || l.launches == 0 || l.dones != 1 {
			t.Errorf("job %d: %d admit items, %d launch memberships, %d done records; want 1, ≥ 1, 1",
				id, l.admits, l.launches, l.dones)
			continue
		}
		if l.admitV > l.launchV || l.launchV > l.doneV {
			t.Errorf("job %d: admit at %v, first launch at %v, done at %v: out of order",
				id, time.Duration(l.admitV), time.Duration(l.launchV), time.Duration(l.doneV))
		}
	}
}

func TestWorkConservationProperty(t *testing.T) {
	// Invariant: every completed job's attained service is at least its
	// exclusive serial run time (sharing slows jobs down, never speeds a
	// single job beyond solo execution), and its JCT is at least the
	// attained service minus queueing... more precisely JCT ≥ serial time.
	tr := trace.Generate(trace.GenConfig{
		Name: "t", Jobs: 60, Seed: 23, MaxGPUs: 8,
		MeanInterarrival: 15 * time.Second,
		MedianDuration:   8 * time.Minute,
		MaxDuration:      30 * time.Minute,
	})
	for _, p := range []sched.Policy{sched.SRSF(), sched.NewMuriS(), sched.AntMan{}} {
		res := Run(quickCfg(), tr, p)
		for _, j := range res.Jobs {
			serial := time.Duration(j.Iterations) * j.SerialIterTime()
			if j.JCT() < serial-time.Second {
				t.Errorf("%s: job %d JCT %v below serial run time %v",
					p.Name(), j.ID, j.JCT(), serial)
			}
			if j.Attained < serial-time.Second {
				t.Errorf("%s: job %d attained %v below serial %v — lost progress",
					p.Name(), j.ID, j.Attained, serial)
			}
		}
	}
}

// withoutObserve forwards a policy's Plan and nothing else: the engine
// finds no completion hook on it.
type withoutObserve struct{ sched.Policy }

// TestGittinsHearsCompletions pins the standalone Gittins policy's
// completion feed in the simulator: its private service log fills only
// through engine.Complete's hook. Two short jobs finish, then a long job
// runs; a fresh arrival's Gittins index against that history beats the
// long job's (it has outlived every observed demand), so it preempts.
// Behind a wrapper without Observe the log stays empty, every index ties
// at zero and the long job keeps its machine: the streams must differ.
func TestGittinsHearsCompletions(t *testing.T) {
	tr := trace.Trace{Name: "gittins", Specs: []trace.Spec{
		spec(1, 0, 10*time.Minute, 8, "gpt2"),
		spec(2, 0, 10*time.Minute, 8, "gpt2"),
		spec(3, 0, 5*time.Hour, 8, "gpt2"),
		spec(4, 2*time.Hour, 30*time.Minute, 8, "gpt2"),
	}}
	stream := func(p sched.Policy) []string {
		var out []string
		cfg := quickCfg()
		cfg.Machines = 1
		cfg.Observer = func(d engine.Decision) { out = append(out, d.String()) }
		if res := Run(cfg, tr, p); len(res.Jobs) != len(tr.Specs) {
			t.Fatalf("%s finished %d of %d jobs", p.Name(), len(res.Jobs), len(tr.Specs))
		}
		return out
	}
	heard := stream(sched.NewGittins())
	deaf := stream(withoutObserve{sched.NewGittins()})
	t.Logf("with the hook: %v", heard)
	t.Logf("without it:    %v", deaf)
	if slices.Equal(heard, deaf) {
		t.Errorf("Gittins planned the same run with and without its completion feed: %v", heard)
	}
}

package experiments

import (
	"context"
	"net"
	"sync"
	"time"

	"muri/internal/executor"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/server"
	"muri/internal/sim"
	"muri/internal/trace"
	"muri/internal/workload"
)

// FidelityResult compares the trace-driven simulator against the live
// scheduler⇄executor prototype on an identical workload. The paper
// validates its simulator against the 64-GPU testbed and reports <3%
// metric error (§6.1); this reproduction validates against the prototype
// (whose "hardware" is time-scaled sleeps, so the tolerance is wider —
// timer granularity inflates short stages).
type FidelityResult struct {
	// SimAvgJCT and LiveAvgJCT are the mean job completion times, in
	// virtual time, from the simulator and the prototype.
	SimAvgJCT, LiveAvgJCT time.Duration
	// SimMakespan and LiveMakespan compare the run lengths.
	SimMakespan, LiveMakespan time.Duration
	// JCTError and MakespanError are |live−sim|/sim.
	JCTError, MakespanError float64
	// Jobs is the workload size.
	Jobs int
}

// FidelityConfig parameterizes the comparison.
type FidelityConfig struct {
	// Jobs is the number of single-GPU jobs (round-robin over the zoo).
	Jobs int
	// IterationsPerJob fixes every job's training length.
	IterationsPerJob int64
	// TimeScale compresses virtual time in the live run; coarser scales
	// are more faithful (timer floor) but slower in wall time.
	TimeScale float64
	// VirtualInterval is the scheduling interval in virtual time, used by
	// both sides.
	VirtualInterval time.Duration
	// GPUs is the single executor machine's inventory.
	GPUs int
}

// DefaultFidelityConfig returns a configuration that finishes in a few
// seconds of wall time.
func DefaultFidelityConfig() FidelityConfig {
	return FidelityConfig{
		Jobs:             16,
		IterationsPerJob: 30,
		TimeScale:        0.3,
		VirtualInterval:  2 * time.Second,
		GPUs:             8,
	}
}

// workloadSpecs builds the common job list.
func (fc FidelityConfig) workloadSpecs() []proto.JobSpec {
	zoo := workload.Zoo()
	specs := make([]proto.JobSpec, fc.Jobs)
	for i := range specs {
		m := zoo[i%len(zoo)]
		var st [4]time.Duration
		copy(st[:], m.Stages[:])
		specs[i] = proto.JobSpec{
			Model:      m.Name,
			GPUs:       1,
			Iterations: fc.IterationsPerJob,
			Stages:     st,
		}
	}
	return specs
}

// RunFidelity executes the workload through both the simulator and the
// live prototype and reports the metric error between them.
func RunFidelity(fc FidelityConfig) (FidelityResult, error) {
	specs := fc.workloadSpecs()

	// Simulator side: identical jobs, all submitted at time zero, ideal
	// execution model (the prototype has no contention inflation and no
	// restart cost beyond lost partial iterations).
	var tspecs []trace.Spec
	for i, sp := range specs {
		m, err := workload.ByName(sp.Model)
		if err != nil {
			return FidelityResult{}, err
		}
		tspecs = append(tspecs, trace.Spec{
			ID:       int64(i),
			Submit:   0,
			Duration: time.Duration(sp.Iterations) * m.Stages.Total(),
			GPUs:     sp.GPUs,
			Model:    sp.Model,
		})
	}
	simCfg := sim.Config{
		Machines:        1,
		GPUsPerMachine:  fc.GPUs,
		Interval:        fc.VirtualInterval,
		RestartOverhead: 0,
	}
	simRes := sim.Run(simCfg, trace.Trace{Name: "fidelity", Specs: tspecs}, sched.NewMuriL())

	// Live side: one scheduler, one executor, same policy and interval.
	srv := server.New(server.Config{
		Policy:      sched.NewMuriL(),
		Interval:    time.Duration(float64(fc.VirtualInterval) * fc.TimeScale),
		TimeScale:   fc.TimeScale,
		ReportEvery: 20 * time.Millisecond,
		Logf:        func(string, ...any) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return FidelityResult{}, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	agent := &executor.Agent{MachineID: "fidelity-0", GPUs: fc.GPUs, Logf: func(string, ...any) {}}
	wg.Add(1)
	go func() { defer wg.Done(); _ = agent.Run(ctx, ln.Addr().String()) }()
	defer func() { cancel(); srv.Close(); wg.Wait() }()

	client, err := server.Dial(ln.Addr().String())
	if err != nil {
		return FidelityResult{}, err
	}
	defer client.Close()
	start := time.Now()
	for _, sp := range specs {
		if _, err := client.SubmitSpec(sp); err != nil {
			return FidelityResult{}, err
		}
	}
	st, err := client.WaitAllDone(5*time.Minute, 25*time.Millisecond)
	if err != nil {
		return FidelityResult{}, err
	}
	liveMakespan := time.Duration(float64(time.Since(start)) / fc.TimeScale)
	var liveSum time.Duration
	for _, j := range st.Jobs {
		liveSum += j.JCT
	}
	liveAvg := liveSum / time.Duration(len(st.Jobs))

	res := FidelityResult{
		SimAvgJCT:    simRes.Summary.AvgJCT,
		LiveAvgJCT:   liveAvg,
		SimMakespan:  simRes.Summary.Makespan,
		LiveMakespan: liveMakespan,
		Jobs:         len(specs),
	}
	res.JCTError = relError(res.LiveAvgJCT, res.SimAvgJCT)
	res.MakespanError = relError(res.LiveMakespan, res.SimMakespan)
	return res, nil
}

func relError(live, sim time.Duration) float64 {
	if sim == 0 {
		return 0
	}
	d := float64(live - sim)
	if d < 0 {
		d = -d
	}
	return d / float64(sim)
}

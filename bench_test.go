// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§6). Each benchmark runs the corresponding experiment at
// reduced scale (truncated traces, same 64-GPU cluster) and reports the
// headline numbers as custom metrics, so `go test -bench=.` both times
// the harness and reproduces the paper's shape:
//
//	go test -bench=Table4 -benchtime=1x
//	go test -bench=. -benchmem          # everything
//
// Paper-scale runs go through cmd/murisim instead.
package muri_test

import (
	"testing"
	"time"

	"muri/internal/blossom"
	"muri/internal/core"
	"muri/internal/experiments"
	"muri/internal/explain"
	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/sim"
	"muri/internal/trace"
	"muri/internal/workload"
)

// benchOpts returns reduced-scale experiment options: four truncated
// traces on the full 8×8 cluster. Small enough that a full figure sweep
// stays in seconds, large enough to preserve the contention the paper's
// results depend on.
func benchOpts() experiments.Options {
	cfgs := trace.PhillyConfigs(64)
	var traces []trace.Trace
	for i := range cfgs {
		cfgs[i].Jobs = 250
		traces = append(traces, trace.Generate(cfgs[i]))
	}
	return experiments.Options{Machines: 8, GPUsPerMachine: 8, Traces: traces}
}

// speedup reports baseline/muri as a bench metric.
func speedup(results []experiments.PolicyResult, baseline, ref string) float64 {
	var b, r metrics.Summary
	for _, x := range results {
		switch x.Policy {
		case baseline:
			b = x.Summary
		case ref:
			r = x.Summary
		}
	}
	return metrics.Speedup(b.AvgJCT, r.AvgJCT)
}

// BenchmarkTable1StageBreakdown regenerates Table 1 (stage-duration
// percentages per model).
func BenchmarkTable1StageBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.Table1()
		if len(tbl.Rows) != 4 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkTable2InterleaveThroughput regenerates Table 2 (4-job
// interleaving) and reports the total normalized throughput (paper: 2.00).
func BenchmarkTable2InterleaveThroughput(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		total = experiments.Table2().Total
	}
	b.ReportMetric(total, "total-norm-tput")
}

// BenchmarkTable4TestbedKnown regenerates Table 4 (testbed, known
// durations) and reports Muri-S's JCT speedups (paper: 2.12× over SRTF,
// 2.03× over SRSF).
func BenchmarkTable4TestbedKnown(b *testing.B) {
	opt := benchOpts()
	var results []experiments.PolicyResult
	for i := 0; i < b.N; i++ {
		results, _ = opt.Table4()
	}
	b.ReportMetric(speedup(results, "srtf", "muri-s"), "jct-speedup-vs-srtf")
	b.ReportMetric(speedup(results, "srsf", "muri-s"), "jct-speedup-vs-srsf")
}

// BenchmarkTable5TestbedUnknown regenerates Table 5 (testbed, unknown
// durations) and reports Muri-L's JCT speedups (paper: 2.59× over
// Tiresias, 3.56× over Themis).
func BenchmarkTable5TestbedUnknown(b *testing.B) {
	opt := benchOpts()
	var results []experiments.PolicyResult
	for i := 0; i < b.N; i++ {
		results, _ = opt.Table5()
	}
	b.ReportMetric(speedup(results, "tiresias", "muri-l"), "jct-speedup-vs-tiresias")
	b.ReportMetric(speedup(results, "themis", "muri-l"), "jct-speedup-vs-themis")
}

// BenchmarkFigure8DetailedMetrics regenerates the Figure 8 time series
// and reports Muri-S's mean queue length against SRSF's (the paper shows
// Muri draining the queue much faster).
func BenchmarkFigure8DetailedMetrics(b *testing.B) {
	opt := benchOpts()
	var results []experiments.PolicyResult
	for i := 0; i < b.N; i++ {
		results, _ = opt.Figure8()
	}
	for _, r := range results {
		switch r.Policy {
		case "srsf":
			b.ReportMetric(r.Series.MeanQueueLen(), "srsf-mean-queue")
		case "muri-s":
			b.ReportMetric(r.Series.MeanQueueLen(), "muri-s-mean-queue")
			b.ReportMetric(r.Series.MeanUtil(workload.GPU), "muri-s-gpu-util")
		}
	}
}

// BenchmarkFigure9SimKnown regenerates Figure 9 (traces 1–4 and 1'–4',
// known durations) and reports the mean JCT speedup of Muri-S over SRTF
// across all eight traces (paper range: 1.13–2.26×).
func BenchmarkFigure9SimKnown(b *testing.B) {
	opt := benchOpts()
	var results []experiments.PolicyResult
	for i := 0; i < b.N; i++ {
		results, _ = opt.Figure9()
	}
	b.ReportMetric(meanSpeedupByTrace(results, "srtf", "muri-s"), "mean-jct-speedup-vs-srtf")
	b.ReportMetric(meanSpeedupByTrace(results, "srsf", "muri-s"), "mean-jct-speedup-vs-srsf")
}

// BenchmarkFigure10SimUnknown regenerates Figure 10 (unknown durations,
// AntMan included; paper JCT range 1.53–6.15×).
func BenchmarkFigure10SimUnknown(b *testing.B) {
	opt := benchOpts()
	var results []experiments.PolicyResult
	for i := 0; i < b.N; i++ {
		results, _ = opt.Figure10()
	}
	b.ReportMetric(meanSpeedupByTrace(results, "tiresias", "muri-l"), "mean-jct-speedup-vs-tiresias")
	b.ReportMetric(meanSpeedupByTrace(results, "antman", "muri-l"), "mean-jct-speedup-vs-antman")
}

// meanSpeedupByTrace averages baseline/ref JCT ratios per trace.
func meanSpeedupByTrace(results []experiments.PolicyResult, baseline, ref string) float64 {
	type pair struct{ b, r metrics.Summary }
	byTrace := make(map[string]*pair)
	for _, x := range results {
		p := byTrace[x.Trace]
		if p == nil {
			p = &pair{}
			byTrace[x.Trace] = p
		}
		switch x.Policy {
		case baseline:
			p.b = x.Summary
		case ref:
			p.r = x.Summary
		}
	}
	sum, n := 0.0, 0
	for _, p := range byTrace {
		if p.b.Jobs > 0 && p.r.Jobs > 0 {
			sum += metrics.Speedup(p.b.AvgJCT, p.r.AvgJCT)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkFigure11AblationOrderingBlossom regenerates Figure 11 (worst
// ordering and no-Blossom ablations; the paper reports ≤14% JCT and ≤6%
// makespan inflation for no-Blossom).
func BenchmarkFigure11AblationOrderingBlossom(b *testing.B) {
	opt := benchOpts()
	var results []experiments.PolicyResult
	for i := 0; i < b.N; i++ {
		results, _ = opt.Figure11()
	}
	b.ReportMetric(meanSpeedupByTrace(results, "muri-l-worst-order", "muri-l"), "jct-vs-worst-order")
	b.ReportMetric(meanSpeedupByTrace(results, "muri-l-no-blossom", "muri-l"), "jct-vs-no-blossom")
}

// BenchmarkFigure12GroupSize regenerates Figure 12 (group-size cap 2–4
// against AntMan on zero-submit traces).
func BenchmarkFigure12GroupSize(b *testing.B) {
	opt := benchOpts()
	var results []experiments.PolicyResult
	for i := 0; i < b.N; i++ {
		results, _ = opt.Figure12()
	}
	for _, cap := range []string{"muri-l-2", "muri-l-3", "muri-l-4"} {
		b.ReportMetric(meanSpeedupByTrace(results, "antman", cap), "jct-speedup-"+cap)
	}
}

// BenchmarkFigure13WorkloadMix regenerates Figure 13 (speedup versus the
// number of bottleneck job types; paper: 1→2.26× over SRTF, 1→3.92× over
// Tiresias as types go 1→4).
func BenchmarkFigure13WorkloadMix(b *testing.B) {
	opt := benchOpts()
	opt.MaxJobs = 250
	var results []experiments.Figure13Result
	for i := 0; i < b.N; i++ {
		results, _ = opt.Figure13()
	}
	b.ReportMetric(results[0].SpeedupKnown, "speedup-1type")
	b.ReportMetric(results[3].SpeedupKnown, "speedup-4types")
}

// BenchmarkFigure14ProfilingNoise regenerates Figure 14 (profiling noise
// 0→1; paper: normalized JCT grows to ~1.3×, makespan stays ~1×).
func BenchmarkFigure14ProfilingNoise(b *testing.B) {
	opt := benchOpts()
	opt.MaxJobs = 250
	var results []experiments.Figure14Result
	for i := 0; i < b.N; i++ {
		results, _ = opt.Figure14()
	}
	b.ReportMetric(results[len(results)-1].NormJCT, "norm-jct-at-noise-1")
	b.ReportMetric(results[len(results)-1].NormMakespan, "norm-makespan-at-noise-1")
}

// BenchmarkBlossomScalability validates the paper's §5 scalability claim:
// "the centralized scheduler can generate a grouping plan for 1,000 jobs
// in a few seconds".
func BenchmarkBlossomScalability(b *testing.B) {
	zoo := workload.Zoo()
	var jobs []*job.Job
	for i := 0; i < 1000; i++ {
		m := zoo[i%len(zoo)]
		jobs = append(jobs, job.New(job.ID(i), m, 1, 100000, 0))
	}
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := cfg.Plan(jobs, 64)
		if len(groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkMaxWeightMatching500 times the Blossom algorithm itself on a
// 500-vertex complete graph.
func BenchmarkMaxWeightMatching500(b *testing.B) {
	n := 500
	var edges []blossom.Edge
	w := 0.1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w = w*1.000003 + 0.0001
			if w > 1 {
				w = 0.1
			}
			edges = append(edges, blossom.Edge{I: i, J: j, Weight: w})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blossom.MaxWeightMatching(n, edges, false)
	}
}

// benchTrace is a single truncated trace reused by the ablation benches.
func benchTrace() trace.Trace {
	cfg := trace.PhillyConfigs(64)[0]
	cfg.Jobs = 250
	return trace.Generate(cfg)
}

// BenchmarkAblationContention sweeps the contention factor α of the
// interleaving execution model.
func BenchmarkAblationContention(b *testing.B) {
	tr := benchTrace()
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0, 0.08, 0.2} {
			cfg := sim.DefaultConfig()
			cfg.Interleave = interleave.Config{Overhead: alpha}
			p := sched.NewMuriS()
			p.Grouping.Interleave = cfg.Interleave
			res := sim.Run(cfg, tr, p)
			if i == b.N-1 {
				b.ReportMetric(res.Summary.AvgJCT.Minutes(),
					"avg-jct-min-alpha-"+trimFloat(alpha))
			}
		}
	}
}

// BenchmarkAblationSchedulingInterval sweeps the scheduling interval
// (the paper uses six minutes to bound preemption overhead).
func BenchmarkAblationSchedulingInterval(b *testing.B) {
	tr := benchTrace()
	for i := 0; i < b.N; i++ {
		for _, interval := range []time.Duration{time.Minute, 6 * time.Minute, 30 * time.Minute} {
			cfg := sim.DefaultConfig()
			cfg.Interval = interval
			res := sim.Run(cfg, tr, sched.NewMuriL())
			if i == b.N-1 {
				b.ReportMetric(res.Summary.AvgJCT.Minutes(), "avg-jct-min-interval-"+interval.String())
			}
		}
	}
}

func trimFloat(f float64) string {
	s := time.Duration(f * float64(time.Second)).String()
	return s
}

// BenchmarkExplainOverhead prices the decision-provenance tax: the same
// 250-job simulator run with provenance off (the nil-gated default —
// every cause annotation short-circuits before allocating) and with a
// live explain.Builder folding the simulator's record stream. The budget
// between the two sub-benchmarks' ns/op is <3% on the scheduling hot path.
func BenchmarkExplainOverhead(b *testing.B) {
	tr := benchTrace()
	b.Run("nil-gated", func(b *testing.B) {
		cfg := sim.DefaultConfig()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := sim.Run(cfg, tr, sched.NewMuriS())
			if res.Summary.Jobs != len(tr.Specs) {
				b.Fatal("incomplete run")
			}
		}
	})
	b.Run("provenance-on", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := sim.DefaultConfig()
			expl := explain.NewBuilder()
			cfg.Record = expl.Apply
			res := sim.Run(cfg, tr, sched.NewMuriS())
			if res.Summary.Jobs != len(tr.Specs) {
				b.Fatal("incomplete run")
			}
			at, ok := expl.AttributionOf(tr.Specs[0].ID)
			if !ok || !at.Done {
				b.Fatal("provenance run produced no attribution")
			}
		}
	})
}

// BenchmarkPredictionOnline times a full prediction-mode run (DESIGN.md
// §13): the 250-job trace under ±50% profile drift with the online
// estimator learning from completions and SRTF ranking by its
// predictions. Reported metrics: the estimator's mean absolute relative
// error, how many completions were scored, and how many beliefs were
// re-seeded.
func BenchmarkPredictionOnline(b *testing.B) {
	tr := benchTrace()
	var meanErr float64
	var scored, reseeds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := profile.NewOnline()
		cfg := sim.DefaultConfig()
		cfg.Estimator = est
		cfg.Drift = &profile.Drift{Amplitude: 0.5, Seed: 11}
		res := sim.Run(cfg, tr, sched.SRTFPredicted(est))
		if res.Summary.Jobs != len(tr.Specs) {
			b.Fatal("incomplete run")
		}
		meanErr, scored = est.Error()
		_, _, reseeds = est.Stats()
	}
	b.ReportMetric(meanErr, "pred-err")
	b.ReportMetric(float64(scored), "pred-scored")
	b.ReportMetric(float64(reseeds), "pred-reseeds")
}

// BenchmarkGittinsPolicy runs the Gittins-index Tiresias variant (an
// extension beyond the paper's evaluated 2D-LAS configuration) against
// Muri-L on the same trace.
func BenchmarkGittinsPolicy(b *testing.B) {
	tr := benchTrace()
	cfg := sim.DefaultConfig()
	var git, muriL sim.Result
	for i := 0; i < b.N; i++ {
		git = sim.Run(cfg, tr, sched.NewGittins())
		muriL = sim.Run(cfg, tr, sched.NewMuriL())
	}
	b.ReportMetric(metrics.Speedup(git.Summary.AvgJCT, muriL.Summary.AvgJCT), "muri-l-jct-speedup-vs-gittins")
}

// BenchmarkFidelity compares the simulator against the live prototype —
// the reproduction of the paper's "<3% simulator error" validation
// (wider tolerance here: the prototype's hardware is time-scaled sleeps).
func BenchmarkFidelity(b *testing.B) {
	var res experiments.FidelityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunFidelity(experiments.DefaultFidelityConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.JCTError, "jct-error-pct")
	b.ReportMetric(100*res.MakespanError, "makespan-error-pct")
}

// BenchmarkAblationEventDriven compares fixed-interval scheduling (the
// paper's §5 prototype) with event-driven rescheduling (§3's design
// statement).
func BenchmarkAblationEventDriven(b *testing.B) {
	tr := benchTrace()
	var interval, event sim.Result
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		interval = sim.Run(cfg, tr, sched.NewMuriL())
		cfg.EventDriven = true
		event = sim.Run(cfg, tr, sched.NewMuriL())
	}
	b.ReportMetric(metrics.Speedup(interval.Summary.AvgJCT, event.Summary.AvgJCT), "jct-speedup-from-events")
}

// BenchmarkMultiResourceBaselines validates the paper's §6.1 claim that
// classic space-dimension multi-resource schedulers (DRF, Tetris)
// degenerate to SRTF-like behavior on DL workloads — whole-GPU demands
// leave nothing to pack in space — while Muri's time-dimension
// interleaving still wins.
func BenchmarkMultiResourceBaselines(b *testing.B) {
	tr := benchTrace()
	cfg := sim.DefaultConfig()
	var srtf, tetris, drf, muriS sim.Result
	for i := 0; i < b.N; i++ {
		srtf = sim.Run(cfg, tr, sched.SRTF())
		tetris = sim.Run(cfg, tr, sched.Tetris{})
		drf = sim.Run(cfg, tr, sched.DRF{})
		muriS = sim.Run(cfg, tr, sched.NewMuriS())
	}
	// Tetris ≈ SRTF (degeneration), Muri beats both.
	b.ReportMetric(metrics.Speedup(tetris.Summary.AvgJCT, srtf.Summary.AvgJCT), "srtf-jct-speedup-vs-tetris")
	b.ReportMetric(metrics.Speedup(tetris.Summary.AvgJCT, muriS.Summary.AvgJCT), "muri-s-jct-speedup-vs-tetris")
	b.ReportMetric(metrics.Speedup(drf.Summary.AvgJCT, muriS.Summary.AvgJCT), "muri-s-jct-speedup-vs-drf")
}

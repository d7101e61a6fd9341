// Benchmarks for the paper's evaluation (§6) and this reproduction's
// design choices. BenchmarkPaper runs every ledger experiment at reduced
// scale (truncated traces, same 64-GPU cluster) and reports each claim's
// measured range as custom metrics, so `go test -bench=.` both times the
// harness and reproduces the paper's shape:
//
//	go test -bench=Paper/table4 -benchtime=1x
//	go test -short -bench=. -benchmem   # everything but the philly-50k tier
//
// Paper-scale ledger runs go through cmd/murisim instead; the fleet tiers
// and the simulator-vs-prototype comparison, which measure wall-clock
// time rather than paper claims, are BenchmarkFleet and BenchmarkFidelity.
package muri_test

import (
	"strconv"
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

// BenchmarkPaper regenerates every table and figure of the reproduction
// ledger (experiments.Paper), one sub-benchmark each, at Quick scale, and
// reports each paper claim's measured range as two custom metrics,
// <claim>-min and <claim>-max. The paper's own ranges and the verdicts
// at full scale live in REPRO.json.
func BenchmarkPaper(b *testing.B) {
	opt := experiments.Quick()
	for _, e := range experiments.Paper {
		b.Run(e.Name, func(b *testing.B) {
			var tbl experiments.Table
			for i := 0; i < b.N; i++ {
				tbl = e.Run(opt)
			}
			for _, c := range tbl.Claims {
				b.ReportMetric(c.Measured[0], c.ID+"-min")
				b.ReportMetric(c.Measured[1], c.ID+"-max")
			}
		})
	}
}

// BenchmarkFleet replays the scheduling-path stress tiers end to end on
// the 8×8 testbed, event-driven (DESIGN.md §6, §10): the 2,000- and
// 5,755-job Philly traces under the exact paper policy, the 5,755-job
// trace under the sharded incremental muri-l-scale policy across a shard
// sweep, and the philly-10000 and philly-50k tiers at eight shards
// (philly-50k takes minutes and is skipped under -short). Each tier
// reports its outcome (avg JCT, makespan, engine rounds) and the sharded
// planner's memo reuse and shard tasks; -benchmem adds the garbage a
// replay makes:
//
//	go test -run '^$' -bench Fleet -benchtime 1x -benchmem -timeout 30m .
func BenchmarkFleet(b *testing.B) {
	philly, scale := trace.PhillyConfigs(64), trace.ScaleConfigs(64)
	type tier struct {
		cfg    trace.GenConfig
		shards int // 0 = plain Muri-L
	}
	tiers := []tier{
		{philly[1], 0}, {philly[3], 0},
		{philly[3], 1}, {philly[3], 2}, {philly[3], 4}, {philly[3], 8},
		{scale[0], 8}, {scale[1], 8},
	}
	for _, t := range tiers {
		name := t.cfg.Name + "/muri-l"
		if t.shards > 0 {
			name += "-scale-" + strconv.Itoa(t.shards)
		}
		b.Run(name, func(b *testing.B) {
			if t.cfg.Jobs > 10000 && testing.Short() {
				b.Skip("the 50,000-job tier takes minutes")
			}
			tr := trace.Generate(t.cfg)
			cfg := sim.DefaultConfig()
			cfg.EventDriven = true
			var p *sched.Muri
			var res sim.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p = sched.NewMuriL()
				if t.shards > 0 {
					p = sched.NewMuriLScale(t.shards)
				}
				res = sim.Run(cfg, tr, p)
			}
			plan := p.PlanStats()
			b.ReportMetric(res.Summary.AvgJCT.Hours(), "avg-jct-h")
			b.ReportMetric(res.Summary.Makespan.Hours(), "makespan-h")
			b.ReportMetric(float64(res.Engine.Rounds), "rounds")
			b.ReportMetric(100*plan.ReuseRatio(), "reuse-%")
			b.ReportMetric(float64(plan.ShardTasks), "shard-tasks")
		})
	}
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
		res := sim.Run(cfg, tr, sched.SRTF())
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
// the reproduction of the paper's "<3% simulator error" validation (the
// prototype's hardware is time-scaled sleeps to stage-slot deadlines).
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

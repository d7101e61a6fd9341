package main

import (
	"math/rand"
	"runtime"
	"time"

	"muri/internal/blossom"
	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/sched"
	"muri/internal/sim"
	"muri/internal/telemetry"
	"muri/internal/trace"
)

// simWorkload replays a truncated Philly preset through the
// event-driven simulator under one policy. The preset fixes the trace's
// shape (arrivals, GPU counts, models); the run seed jitters every
// duration by ±5%, which gives each seed its own input while the
// amount of work — and so the wall time — stays comparable.
type simWorkload struct {
	name string
	// preset indexes trace.PhillyConfigs.
	preset          int
	jobs, smokeJobs int
	policy          func() sched.Policy
}

// Sizes are trimmed from ISSUE 11 (2,000 / 5,755 / 4,000 jobs) so one
// replay takes about a second on the 2-core box and a run fits ten of
// them; the medians over those repeats are what hold the spread down.
var simWorkloads = []simWorkload{
	{name: "sim-exact", preset: 1, jobs: 320, smokeJobs: 40,
		policy: func() sched.Policy { return sched.NewMuriL() }},
	{name: "sim-scale", preset: 3, jobs: 600, smokeJobs: 60,
		policy: func() sched.Policy { return sched.NewMuriLScale(4) }},
	{name: "sim-bypass", preset: 3, jobs: 1500, smokeJobs: 80,
		policy: sched.SRTF},
}

const durationJitter = 0.05

func (w simWorkload) inputs(seed int64, smoke bool) (trace.Trace, sim.Config) {
	gc := trace.PhillyConfigs(64)[w.preset]
	gc.Jobs = w.jobs
	if smoke {
		gc.Jobs = w.smokeJobs
	}
	tr := trace.Generate(gc)
	rng := rand.New(rand.NewSource(seed))
	for i := range tr.Specs {
		f := 1 + durationJitter*(2*rng.Float64()-1)
		tr.Specs[i].Duration = time.Duration(float64(tr.Specs[i].Duration) * f)
	}
	cfg := sim.DefaultConfig()
	cfg.EventDriven = true
	return tr, cfg
}

// simReplay is what one sim.Run leaves behind, from outside.
type simReplay struct {
	wall    time.Duration
	res     sim.Result
	timer   *planTimer
	plan    metrics.ShardStats
	cache   metrics.CacheStats
	pool    metrics.MatcherPoolStats
	grouper bool
}

// replay runs one simulation with the policy wrapped in a planTimer.
func (w simWorkload) replay(tr trace.Trace, cfg sim.Config) simReplay {
	inner := w.policy()
	pt := &planTimer{inner: inner}
	pool0 := blossom.PoolStats()
	runtime.GC()
	start := time.Now()
	res := sim.Run(cfg, tr, pt)
	out := simReplay{wall: time.Since(start), res: res, timer: pt, plan: pt.PlanStats()}
	pool1 := blossom.PoolStats()
	out.pool = metrics.MatcherPoolStats{Gets: pool1.Gets - pool0.Gets, News: pool1.News - pool0.News}
	if m, ok := inner.(*sched.Muri); ok {
		out.grouper = true
		out.cache = m.Grouping.Cache.Stats()
	}
	return out
}

// sameOutcome compares the simulated results of two replays of the same
// input: identical summaries and engine counters, or the run is wrong.
func sameOutcome(a, b sim.Result) bool {
	return a.Summary == b.Summary && a.Engine == b.Engine && a.Heap == b.Heap
}

// e2e is the untraced pass: whole replays until the time budget is
// spent, then set-up repeated and timed.
func (w simWorkload) e2e(r *run, seed int64, seconds float64, smoke bool) (first simReplay, medianWall float64, planMS []float64) {
	minReps := 3
	if smoke {
		minReps = 2
	}
	tr, cfg := w.inputs(seed, smoke)

	var walls []float64
	var plans []time.Duration
	begin := time.Now()
	for rep := 0; rep < minReps || (!smoke && time.Since(begin).Seconds() < seconds); rep++ {
		rp := w.replay(tr, cfg)
		r.Attempted += len(tr.Specs)
		if unfinished := len(tr.Specs) - rp.res.Summary.Jobs; unfinished > 0 {
			r.Failed += unfinished
			r.problem("replay %d left %d of %d jobs unfinished", rep, unfinished, len(tr.Specs))
		}
		if rep == 0 {
			first = rp
		} else if !sameOutcome(first.res, rp.res) {
			r.problem("replay %d of the same input gave different simulated results", rep)
		}
		walls = append(walls, rp.wall.Seconds())
		plans = append(plans, rp.timer.durs...)
	}
	r.Reps = walls
	medianWall = median(walls)
	r.set("wall_s", medianWall)
	r.Samples["wall_s"] = len(walls)
	planMS = durationsMS(plans)
	r.setPct("decision_p50_ms", planMS, 0.50)

	// Set-up, timed after the replays so that it runs in the same warmed
	// process state every time: a sub-millisecond step measured first
	// thing in a fresh process varied by 30% between runs.
	setupReps := 1001
	if smoke {
		setupReps = 3
	}
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		w.inputs(seed, smoke)
		_ = w.policy()
		setups[i] = time.Since(t0).Seconds()
	}
	r.set("setup_s", median(setups))
	r.Samples["setup_s"] = setupReps
	return first, medianWall, planMS
}

// layers runs the traced pass and fills the per-layer metrics: counts
// from the e2e pass's first replay, times from the traced replay. The
// Plan percentiles are the exception: planMS pools every Plan call of
// the e2e pass, because one replay has too few calls beyond its p99.
func (w simWorkload) layers(r *run, seed int64, smoke bool, e2e simReplay, e2eWall float64, planMS []float64) *telemetry.Tracer {
	tr, cfg := w.inputs(seed, smoke)

	// Reference: the bare policy, decisions hashed.
	refHash := newDecisionHash()
	refCfg := cfg
	refCfg.Observer = refHash.observe
	ref := sim.Run(refCfg, tr, w.policy())
	if !sameOutcome(ref, e2e.res) {
		r.problem("unwrapped reference replay disagrees with the e2e pass")
	}

	tracer := telemetry.NewTracer(0)
	pid := tracer.Process("bench " + w.name)
	tidPlan := tracer.Thread(pid, "sched.Policy.Plan")
	tidProbe := tracer.Thread(pid, "layer probes")
	origin := time.Now()

	// Probe core.Config.Plan at 8 evenly spaced rounds, on that round's
	// live queue, with a fresh config (cold) and the same one again (warm).
	calls := len(e2e.timer.durs)
	probeAt := make(map[int]bool)
	for k := 1; k <= 8; k++ {
		probeAt[k*calls/9] = true
	}
	var cold, warm []float64
	var probeTime time.Duration
	var peakHeap uint64
	var mem runtime.MemStats
	inner := w.policy()
	after := func(call int, start time.Time, d time.Duration, jobs []*job.Job, capacity int) {
		tracer.Span(pid, tidPlan, "Plan", "sched", start.Sub(origin), d,
			map[string]any{"call": call, "jobs": len(jobs), "parent": w.name})
		if !probeAt[call] {
			return
		}
		t0 := time.Now()
		runtime.ReadMemStats(&mem)
		if mem.HeapInuse > peakHeap {
			peakHeap = mem.HeapInuse
		}
		if m, ok := inner.(*sched.Muri); ok && len(jobs) > 0 {
			pc := m.Grouping
			pc.Cache = interleave.NewEffCache(0)
			pc.Planner = nil
			c0 := time.Now()
			pc.Plan(jobs, capacity)
			c1 := time.Now()
			pc.Plan(jobs, capacity)
			c2 := time.Now()
			cold = append(cold, ms(c1.Sub(c0)))
			warm = append(warm, ms(c2.Sub(c1)))
			tracer.Span(pid, tidProbe, "core.Plan cold", "probe", c0.Sub(origin), c1.Sub(c0),
				map[string]any{"call": call, "jobs": len(jobs), "parent": "Plan"})
			tracer.Span(pid, tidProbe, "core.Plan warm", "probe", c1.Sub(origin), c2.Sub(c1),
				map[string]any{"call": call, "jobs": len(jobs), "parent": "Plan"})
		}
		probeTime += time.Since(t0)
	}

	hash := newDecisionHash()
	tcfg := cfg
	tcfg.Observer = hash.observe
	pt := &planTimer{inner: inner, after: after}
	runtime.GC()
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	start := time.Now()
	res := sim.Run(tcfg, tr, pt)
	wall := time.Since(start)
	runtime.ReadMemStats(&mem)
	tidRoot := tracer.Thread(pid, "workload")
	tracer.Span(pid, tidRoot, "sim.Run", "sim", start.Sub(origin), wall, map[string]any{"workload": w.name})

	if !sameOutcome(res, ref) || !hash.equal(refHash) {
		r.problem("wrapped traced replay disagrees with the unwrapped reference (hash %08x/%d vs %08x/%d)",
			hash.h.Sum32(), hash.n, refHash.h.Sum32(), refHash.n)
	}

	busy := 0.0
	for _, d := range pt.durs {
		busy += d.Seconds()
	}
	net := wall.Seconds() - probeTime.Seconds()
	r.set("sched.plan_calls", float64(calls))
	r.set("sched.plan_busy_s", busy)
	r.setPct("sched.plan_p50_ms", planMS, 0.50)
	r.setPct("sched.plan_p99_ms", planMS, 0.99)
	r.set("sched.plan_jobs_max", float64(e2e.timer.jobsMax))
	r.set("sim.self_s", net-busy)
	r.set("sim.heap_peak", float64(e2e.res.Heap.Peak))
	r.set("sim.heap_rebuilds", float64(e2e.res.Heap.Rebuilds))
	r.set("sim.heap_fixes", float64(e2e.res.Heap.Fixes))
	r.set("sim.alloc_mb", float64(mem.TotalAlloc-alloc0)/(1<<20))
	r.set("sim.peak_heap_mb", float64(peakHeap)/(1<<20))
	es := e2e.res.Engine
	r.set("engine.rounds", float64(es.Rounds))
	r.set("engine.decisions", float64(es.Decisions))
	r.set("engine.launches", float64(es.Launches))
	r.set("engine.preemptions", float64(es.Preemptions))
	r.set("engine.decision_hash", float64(hash.h.Sum32()))

	ps := e2e.plan
	r.set("core.plan_rounds", float64(ps.PlanRounds))
	r.set("core.fresh_sweeps", float64(ps.FreshSweeps))
	r.set("core.replay_sweeps", float64(ps.ReplaySweeps))
	r.set("core.fixpoint_sweeps", float64(ps.FixpointSweeps))
	r.set("core.sweep_reuse_ratio", ps.ReuseRatio())
	r.set("core.shard_tasks", float64(ps.ShardTasks))
	r.set("core.pair_hits", float64(ps.PairHits))
	r.set("core.pair_misses", float64(ps.PairMisses))
	r.set("core.pair_hit_ratio", metrics.CacheStats{Hits: ps.PairHits, Misses: ps.PairMisses}.HitRate())
	r.set("core.plan_cold_ms", median(cold))
	r.set("core.plan_warm_ms", median(warm))
	r.Samples["core.plan_cold_ms"] = len(cold)
	r.set("interleave.cache_hits", float64(e2e.cache.Hits))
	r.set("interleave.cache_misses", float64(e2e.cache.Misses))
	r.set("interleave.cache_hit_ratio", e2e.cache.HitRate())
	r.set("blossom.pool_gets", float64(e2e.pool.Gets))
	r.set("blossom.pool_news", float64(e2e.pool.News))
	if e2e.grouper {
		probeGrouping(r, tracer, pid, tidProbe, origin, tr, smoke)
	} else {
		r.zero("interleave.pair_eval_ns", "interleave.cached_eval_ns", "blossom.match_ms")
	}

	sum := e2e.res.Summary
	r.set("replay_wall_s", e2eWall)
	r.set("avg_jct_h", sum.AvgJCT.Hours())
	r.set("p99_jct_h", sum.P99JCT.Hours())
	r.set("makespan_h", sum.Makespan.Hours())
	r.set("failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.set("bench.trace_overhead_pct", 100*(net/e2eWall-1))
	r.zero("ack_p50_ms", "dispatch_p", "drain_wall_s", "recover_s", "proto.", "ingest.",
		"server.", "executor.", "wal.", "explain.", "bench.late_p99_ms")
	if d := tracer.Dropped(); d > 0 {
		r.invalid("bench tracer dropped %d events", d)
	}
	return tracer
}

// runSim runs one sim workload: the e2e pass, and the traced pass when
// per-layer metrics are wanted.
func runSim(cat *catalogue, w simWorkload, seed int64, seconds float64, traced, smoke bool) (*run, error) {
	r := newRun(cat, w.name)
	first, wall, planMS := w.e2e(r, seed, seconds, smoke)
	if traced {
		tracer := w.layers(r, seed, smoke, first, wall, planMS)
		if err := writeTrace(cat, w.name, tracer); err != nil {
			return nil, err
		}
	}
	r.finish(traced)
	return r, nil
}

func findSim(name string) (simWorkload, bool) {
	for _, w := range simWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return simWorkload{}, false
}

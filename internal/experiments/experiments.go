// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 Table 1–2, §6 Tables 4–5, Figures 8–14). Each function
// runs the corresponding workload through the simulator and returns both
// structured results and a formatted table whose rows mirror what the
// paper reports. cmd/murisim and the top-level benchmarks are thin
// wrappers around this package.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"muri/internal/blossom"
	"muri/internal/core"
	"muri/internal/interleave"
	"muri/internal/metrics"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/sim"
	"muri/internal/trace"
	"muri/internal/workload"
)

// Options scales the experiments. The zero value runs at full paper scale
// (64 GPUs, full traces); Quick() shrinks everything for smoke runs and
// benchmarks.
type Options struct {
	// Machines and GPUsPerMachine define the simulated cluster.
	Machines, GPUsPerMachine int
	// MaxJobs truncates each trace (0 = full trace).
	MaxJobs int
	// Traces overrides the default four Philly-like traces.
	Traces []trace.Trace
	// Shards overrides the shard counts the Scale experiment sweeps
	// (default 1, 2, 4, 8).
	Shards []int
	// Scale50k includes the 50,000-job tier in the Scale experiment. Off
	// by default: the run takes minutes even sharded.
	Scale50k bool
}

// Full returns the paper-scale options: the 8×8 testbed and the four
// synthetic Philly traces (992–5755 jobs).
func Full() Options {
	return Options{Machines: 8, GPUsPerMachine: 8}
}

// Quick returns reduced-scale options for fast iteration: the same
// cluster but truncated traces.
func Quick() Options {
	return Options{Machines: 8, GPUsPerMachine: 8, MaxJobs: 300}
}

func (o Options) machines() int {
	if o.Machines <= 0 {
		return 8
	}
	return o.Machines
}

func (o Options) gpusPerMachine() int {
	if o.GPUsPerMachine <= 0 {
		return 8
	}
	return o.GPUsPerMachine
}

func (o Options) capacity() int { return o.machines() * o.gpusPerMachine() }

func (o Options) simConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Machines = o.machines()
	cfg.GPUsPerMachine = o.gpusPerMachine()
	cfg.MaxJobs = o.MaxJobs
	return cfg
}

// traces returns the four evaluation traces (generated on first use).
func (o Options) traces() []trace.Trace {
	if len(o.Traces) > 0 {
		return o.Traces
	}
	var out []trace.Trace
	for _, cfg := range trace.PhillyConfigs(o.capacity()) {
		out = append(out, trace.Generate(cfg))
	}
	return out
}

// Table is a generic formatted result: a header plus rows of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Table1 reproduces the stage-duration percentages of Table 1 for the
// four exemplar models (computed from the model zoo profiles rather than
// a PyTorch profiler — see DESIGN.md).
func Table1() Table {
	t := Table{
		Title:  "Table 1: stage duration percentage per iteration",
		Header: []string{"model", "load data", "preprocess", "propagate", "synchronize", "bottleneck"},
	}
	for _, name := range []string{"shufflenet", "vgg19", "gpt2", "a2c"} {
		m, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		fr := m.Stages.Fractions()
		t.Rows = append(t.Rows, []string{
			m.Name,
			fmt.Sprintf("%.1f%%", 100*fr[workload.Storage]),
			fmt.Sprintf("%.1f%%", 100*fr[workload.CPU]),
			fmt.Sprintf("%.1f%%", 100*fr[workload.GPU]),
			fmt.Sprintf("%.1f%%", 100*fr[workload.Network]),
			m.Bottleneck().String(),
		})
	}
	return t
}

// Table2Result carries the 4-job interleaving demonstration of Table 2.
type Table2Result struct {
	Models     []string
	Normalized []float64
	Total      float64
	Table      Table
}

// Table2 interleaves ShuffleNet, A2C, GPT-2 and VGG16 on one resource set
// and reports each job's normalized throughput plus the total (the paper
// measures ≈2.0× on its testbed).
func Table2() Table2Result {
	names := []string{"shufflenet", "a2c", "gpt2", "vgg16"}
	var times []workload.StageTimes
	for _, n := range names {
		m, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		times = append(times, m.Stages)
	}
	cfg := interleave.DefaultConfig
	norm := cfg.NormalizedThroughput(times)
	total := 0.0
	t := Table{
		Title:  "Table 2: multi-resource interleaving of four complementary jobs",
		Header: []string{"model", "bottleneck", "norm. tput"},
	}
	for i, n := range names {
		m, _ := workload.ByName(n)
		total += norm[i]
		t.Rows = append(t.Rows, []string{n, m.Bottleneck().String(), f2(norm[i])})
	}
	t.Rows = append(t.Rows, []string{"total", "", f2(total)})
	return Table2Result{Models: names, Normalized: norm, Total: total, Table: t}
}

// PolicyResult is one policy's summary on one trace.
type PolicyResult struct {
	Trace   string
	Policy  string
	Summary metrics.Summary
	Series  metrics.Series
}

// forEach runs fn(i) for every i in [0, n) over a worker pool bounded by
// GOMAXPROCS. Each index runs exactly once; fn must write its result to
// an index-distinct slot so output order stays deterministic regardless
// of completion order.
func forEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runPolicies executes each policy against the trace. Runs are
// independent (each materializes its own jobs from the shared read-only
// trace), so they execute concurrently.
func (o Options) runPolicies(tr trace.Trace, sample time.Duration, policies ...sched.Policy) []PolicyResult {
	out := make([]PolicyResult, len(policies))
	var wg sync.WaitGroup
	for i, p := range policies {
		wg.Add(1)
		go func(i int, p sched.Policy) {
			defer wg.Done()
			cfg := o.simConfig()
			cfg.SampleEvery = sample
			res := sim.Run(cfg, tr, p)
			out[i] = PolicyResult{Trace: tr.Name, Policy: p.Name(), Summary: res.Summary, Series: res.Series}
		}(i, p)
	}
	wg.Wait()
	return out
}

// testbedTrace is the busiest-400-jobs window of trace 1 — the paper's
// method for its testbed workload (§6.1). Durations are drawn deeper than
// the simulation traces: the paper notes one testbed trace "would take
// tens of days" without fast-forwarding, i.e. the busiest interval is
// severely backlogged.
func (o Options) testbedTrace() trace.Trace {
	cfg := trace.PhillyConfigs(o.capacity())[0]
	cfg.MedianDuration = 8 * time.Hour
	cfg.MaxDuration = 48 * time.Hour
	tr := trace.Generate(cfg)
	n := 400
	if o.MaxJobs > 0 && o.MaxJobs < n {
		n = o.MaxJobs
	}
	return tr.BusiestWindow(n)
}

// normalizedTable renders baselines normalized to the reference policy
// (the paper's presentation: "Normalized JCT" of each baseline with Muri
// = 1).
func normalizedTable(title string, results []PolicyResult, ref string) Table {
	var refSum metrics.Summary
	for _, r := range results {
		if r.Policy == ref {
			refSum = r.Summary
		}
	}
	t := Table{
		Title:  title,
		Header: []string{"policy", "norm. JCT", "norm. makespan", "norm. p99 JCT", "avg JCT", "makespan"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Policy,
			f2(metrics.Speedup(r.Summary.AvgJCT, refSum.AvgJCT)),
			f2(metrics.Speedup(r.Summary.Makespan, refSum.Makespan)),
			f2(metrics.Speedup(r.Summary.P99JCT, refSum.P99JCT)),
			r.Summary.AvgJCT.Round(time.Second).String(),
			r.Summary.Makespan.Round(time.Minute).String(),
		})
	}
	return t
}

// Table4 runs the testbed experiment with known durations: SRTF and SRSF
// versus Muri-S on the busiest 400-job window.
func (o Options) Table4() ([]PolicyResult, Table) {
	tr := o.testbedTrace()
	results := o.runPolicies(tr, 0, sched.SRTF(), sched.SRSF(), sched.NewMuriS())
	return results, normalizedTable("Table 4: testbed, known durations (normalized to Muri-S)", results, "muri-s")
}

// Table5 runs the testbed experiment with unknown durations: Tiresias and
// Themis versus Muri-L.
func (o Options) Table5() ([]PolicyResult, Table) {
	tr := o.testbedTrace()
	results := o.runPolicies(tr, 0, sched.Tiresias(), sched.Themis(), sched.NewMuriL())
	return results, normalizedTable("Table 5: testbed, unknown durations (normalized to Muri-L)", results, "muri-l")
}

// Figure8 collects the detailed time series (queue length, blocking
// index, resource utilization) for the testbed workload under both the
// known- and unknown-duration policy sets.
func (o Options) Figure8() ([]PolicyResult, Table) {
	tr := o.testbedTrace()
	sample := 30 * time.Minute
	results := o.runPolicies(tr, sample,
		sched.SRTF(), sched.SRSF(), sched.NewMuriS(),
		sched.Tiresias(), sched.Themis(), sched.NewMuriL())
	t := Table{
		Title: "Figure 8: time-series means over the run",
		Header: []string{"policy", "mean queue", "mean blocking idx",
			"io util", "cpu util", "gpu util", "net util"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Policy,
			f2(r.Series.MeanQueueLen()),
			f2(r.Series.MeanBlockingIndex()),
			f2(r.Series.MeanUtil(workload.Storage)),
			f2(r.Series.MeanUtil(workload.CPU)),
			f2(r.Series.MeanUtil(workload.GPU)),
			f2(r.Series.MeanUtil(workload.Network)),
		})
	}
	return results, t
}

// WriteSeriesCSV dumps a policy's detailed time series (Figure 8) as
// CSV: time_s, queue_len, blocking_index, io/cpu/gpu/net utilization,
// running_jobs, used_gpus.
func WriteSeriesCSV(w io.Writer, r PolicyResult) error {
	cw := csv.NewWriter(w)
	header := []string{"time_s", "queue_len", "blocking_index",
		"io_util", "cpu_util", "gpu_util", "net_util", "running_jobs", "used_gpus"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for _, s := range r.Series {
		rec := []string{
			strconv.FormatFloat(s.Time.Seconds(), 'f', 1, 64),
			strconv.Itoa(s.QueueLen),
			f(s.BlockingIndex),
			f(s.Util[workload.Storage]), f(s.Util[workload.CPU]),
			f(s.Util[workload.GPU]), f(s.Util[workload.Network]),
			strconv.Itoa(s.RunningJobs),
			strconv.Itoa(s.UsedGPUs),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// sweepTraces runs the given policies over traces 1–4 and their
// zero-submit variants, normalizing to ref. This is the engine behind
// Figures 9 and 10. The per-trace sweeps are independent, so they run
// over the bounded forEach pool (each one fanning out further per
// policy); results land in index-distinct slots and the table is
// assembled serially afterwards, keeping row order deterministic.
func (o Options) sweepTraces(title, ref string, policies func() []sched.Policy) ([]PolicyResult, Table) {
	var variants []trace.Trace
	for _, base := range o.traces() {
		variants = append(variants, base, base.ZeroSubmit())
	}
	perTrace := make([][]PolicyResult, len(variants))
	forEach(len(variants), func(i int) {
		perTrace[i] = o.runPolicies(variants[i], 0, policies()...)
	})
	var all []PolicyResult
	t := Table{
		Title:  title,
		Header: []string{"trace", "policy", "norm. JCT", "norm. makespan", "norm. p99 JCT"},
	}
	for i, tr := range variants {
		results := perTrace[i]
		all = append(all, results...)
		var refSum metrics.Summary
		for _, r := range results {
			if r.Policy == ref {
				refSum = r.Summary
			}
		}
		for _, r := range results {
			if r.Policy == ref {
				continue
			}
			t.Rows = append(t.Rows, []string{
				tr.Name, r.Policy,
				f2(metrics.Speedup(r.Summary.AvgJCT, refSum.AvgJCT)),
				f2(metrics.Speedup(r.Summary.Makespan, refSum.Makespan)),
				f2(metrics.Speedup(r.Summary.P99JCT, refSum.P99JCT)),
			})
		}
	}
	return all, t
}

// Figure9 sweeps traces 1–4 and 1'–4' with known durations (SRTF, SRSF
// vs Muri-S).
func (o Options) Figure9() ([]PolicyResult, Table) {
	return o.sweepTraces(
		"Figure 9: simulation, known durations (speedups of Muri-S over each baseline)",
		"muri-s",
		func() []sched.Policy { return []sched.Policy{sched.SRTF(), sched.SRSF(), sched.NewMuriS()} })
}

// Figure10 sweeps traces 1–4 and 1'–4' with unknown durations (Tiresias,
// AntMan, Themis vs Muri-L).
func (o Options) Figure10() ([]PolicyResult, Table) {
	return o.sweepTraces(
		"Figure 10: simulation, unknown durations (speedups of Muri-L over each baseline)",
		"muri-l",
		func() []sched.Policy {
			return []sched.Policy{sched.Tiresias(), sched.AntMan{}, sched.Themis(), sched.NewMuriL()}
		})
}

// muriLVariant builds the Figure 11 ablation policies.
func muriLVariant(label string, mutate func(*core.Config)) *sched.Muri {
	p := sched.NewMuriL()
	p.Label = label
	mutate(&p.Grouping)
	return p
}

// Figure11 compares Muri-L against its two ablations: worst stage
// ordering and greedy packing instead of Blossom matching.
func (o Options) Figure11() ([]PolicyResult, Table) {
	var all []PolicyResult
	t := Table{
		Title:  "Figure 11: scheduling-algorithm ablations (normalized to Muri-L)",
		Header: []string{"trace", "variant", "norm. JCT", "norm. makespan"},
	}
	traces := o.traces()
	perTrace := make([][]PolicyResult, len(traces))
	forEach(len(traces), func(i int) {
		perTrace[i] = o.runPolicies(traces[i], 0,
			sched.NewMuriL(),
			muriLVariant("muri-l-worst-order", func(c *core.Config) { c.WorstOrdering = true }),
			muriLVariant("muri-l-no-blossom", func(c *core.Config) { c.UseBlossom = false }),
		)
	})
	for i, tr := range traces {
		results := perTrace[i]
		all = append(all, results...)
		ref := results[0].Summary
		for _, r := range results[1:] {
			t.Rows = append(t.Rows, []string{
				tr.Name, r.Policy,
				f2(metrics.Speedup(r.Summary.AvgJCT, ref.AvgJCT)),
				f2(metrics.Speedup(r.Summary.Makespan, ref.Makespan)),
			})
		}
	}
	return all, t
}

// Figure12 varies the maximum group size (2–4) against AntMan on the
// zero-submit variants of traces 1–4.
func (o Options) Figure12() ([]PolicyResult, Table) {
	var all []PolicyResult
	t := Table{
		Title:  "Figure 12: jobs per group, zero-submit traces (normalized to AntMan)",
		Header: []string{"trace", "policy", "norm. JCT", "norm. makespan"},
	}
	var traces []trace.Trace
	for _, base := range o.traces() {
		traces = append(traces, base.ZeroSubmit())
	}
	perTrace := make([][]PolicyResult, len(traces))
	forEach(len(traces), func(i int) {
		perTrace[i] = o.runPolicies(traces[i], 0,
			sched.AntMan{},
			muriLVariant("muri-l-2", func(c *core.Config) { c.MaxGroupSize = 2 }),
			muriLVariant("muri-l-3", func(c *core.Config) { c.MaxGroupSize = 3 }),
			muriLVariant("muri-l-4", func(c *core.Config) { c.MaxGroupSize = 4 }),
		)
	})
	for i, tr := range traces {
		results := perTrace[i]
		all = append(all, results...)
		ref := results[0].Summary
		for _, r := range results[1:] {
			t.Rows = append(t.Rows, []string{
				tr.Name, r.Policy,
				f2(metrics.Speedup(ref.AvgJCT, r.Summary.AvgJCT)),
				f2(metrics.Speedup(ref.Makespan, r.Summary.Makespan)),
			})
		}
	}
	return all, t
}

// Figure13Result carries the workload-mix sensitivity sweep.
type Figure13Result struct {
	JobTypes        int
	SpeedupKnown    float64 // Muri-S over SRTF
	SpeedupUnknown  float64 // Muri-L over Tiresias
	MuriS, SRTF     metrics.Summary
	MuriL, Tiresias metrics.Summary
}

// Figure13 varies the number of bottleneck job types (1–4) and reports
// Muri's average-JCT speedup over SRTF (known durations) and Tiresias
// (unknown durations).
func (o Options) Figure13() ([]Figure13Result, Table) {
	t := Table{
		Title:  "Figure 13: impact of workload mix (average-JCT speedups)",
		Header: []string{"job types", "muri-s / srtf", "muri-l / tiresias"},
	}
	base := trace.PhillyConfigs(o.capacity())[0]
	out := make([]Figure13Result, 4)
	forEach(4, func(i int) {
		types := i + 1
		cfg := base
		cfg.Name = fmt.Sprintf("mix%d", types)
		cfg.JobTypes = types
		tr := trace.Generate(cfg).ZeroSubmit()
		results := o.runPolicies(tr, 0,
			sched.SRTF(), sched.NewMuriS(), sched.Tiresias(), sched.NewMuriL())
		byName := make(map[string]metrics.Summary)
		for _, r := range results {
			byName[r.Policy] = r.Summary
		}
		out[i] = Figure13Result{
			JobTypes:       types,
			SpeedupKnown:   metrics.Speedup(byName["srtf"].AvgJCT, byName["muri-s"].AvgJCT),
			SpeedupUnknown: metrics.Speedup(byName["tiresias"].AvgJCT, byName["muri-l"].AvgJCT),
			MuriS:          byName["muri-s"], SRTF: byName["srtf"],
			MuriL: byName["muri-l"], Tiresias: byName["tiresias"],
		}
	})
	for _, r := range out {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.JobTypes), f2(r.SpeedupKnown), f2(r.SpeedupUnknown)})
	}
	return out, t
}

// Figure14Result carries the profiling-noise sensitivity sweep.
type Figure14Result struct {
	Noise        float64
	NormJCT      float64 // average JCT normalized to the noise-free run
	NormMakespan float64
}

// Figure14 sweeps profiling noise n_p from 0 to 1 and reports Muri-L's
// average JCT and makespan normalized to the noise-free run.
func (o Options) Figure14() ([]Figure14Result, Table) {
	tr := trace.Generate(trace.PhillyConfigs(o.capacity())[0])
	run := func(noise float64) metrics.Summary {
		cfg := o.simConfig()
		cfg.Profiler = profile.New(noise, 1234)
		return sim.Run(cfg, tr, sched.NewMuriL()).Summary
	}
	noises := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	baseline := run(0)
	summaries := make([]metrics.Summary, len(noises))
	summaries[0] = baseline
	// The noise-free baseline is shared; the noisy runs are independent.
	forEach(len(noises)-1, func(i int) {
		summaries[i+1] = run(noises[i+1])
	})
	var out []Figure14Result
	t := Table{
		Title:  "Figure 14: impact of profiling noise on Muri-L (normalized to noise-free)",
		Header: []string{"noise", "norm. JCT", "norm. makespan"},
	}
	for i, noise := range noises {
		s := summaries[i]
		r := Figure14Result{
			Noise:        noise,
			NormJCT:      metrics.Speedup(s.AvgJCT, baseline.AvgJCT),
			NormMakespan: metrics.Speedup(s.Makespan, baseline.Makespan),
		}
		out = append(out, r)
		t.Rows = append(t.Rows, []string{f2(noise), f2(r.NormJCT), f2(r.NormMakespan)})
	}
	return out, t
}

// ScaleResult is one end-to-end scale run's outcome: the usual summary
// plus wall-clock runtime, the garbage the run made (bytes allocated and
// collector cycles, process-wide around the run) and the scheduling-path
// performance counters (engine decision activity, Blossom matcher-pool
// reuse, and the sharded/incremental planner counters for this run
// alone).
type ScaleResult struct {
	Trace   string
	Sched   string
	Shards  int
	Jobs    int
	Wall    time.Duration
	AllocMB float64
	GCs     uint32
	Summary metrics.Summary
	Engine  metrics.EngineStats
	Pool    metrics.MatcherPoolStats
	Plan    metrics.ShardStats
}

// scaleShards resolves the shard counts the scale experiment sweeps.
func (o Options) scaleShards() []int {
	if len(o.Shards) > 0 {
		return o.Shards
	}
	return []int{1, 2, 4, 8}
}

// Scale runs Muri-L end-to-end, event-driven, on the scheduling-path
// stress tiers (DESIGN.md §6, §10): the 2000- and 5755-job Philly traces
// under the exact paper policy, then the 5755-job trace under the
// sharded incremental muri-l-scale policy across the shard sweep, and
// the philly-10000 tier at the largest shard count. With Scale50k set it
// also runs the 50,000-job tier (muri-l-scale plus a backfill-window
// cap — an explicit approximation, see sched.Muri.BackfillLimit).
// `make bench-sched-scale` runs it.
func (o Options) Scale() ([]ScaleResult, Table) {
	var out []ScaleResult
	t := Table{
		Title:  "Scheduling-path scale runs (Muri-L, event-driven)",
		Header: []string{"trace", "jobs", "sched", "shards", "wall", "avg JCT", "makespan", "rounds", "reuse%", "tasks", "pool hit%", "alloc MB", "GCs"},
	}
	all := o.traces()
	scale := trace.ScaleConfigs(o.capacity())
	shards := o.scaleShards()
	maxShards := shards[len(shards)-1]

	type run struct {
		tr     trace.Trace
		policy *sched.Muri
	}
	runs := []run{
		{all[1], sched.NewMuriL()}, // trace2: 2,000 jobs, exact paper policy
		{all[3], sched.NewMuriL()}, // trace4: 5,755 jobs, exact paper policy
	}
	for _, s := range shards {
		runs = append(runs, run{all[3], sched.NewMuriLScale(s)})
	}
	runs = append(runs, run{trace.Generate(scale[0]), sched.NewMuriLScale(maxShards)})
	if o.Scale50k {
		p := sched.NewMuriLScale(maxShards)
		p.BackfillLimit = 2048
		runs = append(runs, run{trace.Generate(scale[1]), p})
	}

	for _, ru := range runs {
		cfg := o.simConfig()
		cfg.EventDriven = true
		before := blossom.PoolStats()
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		start := time.Now()
		res := sim.Run(cfg, ru.tr, ru.policy)
		wall := time.Since(start)
		runtime.ReadMemStats(&mem1)
		after := blossom.PoolStats()
		plan := ru.policy.PlanStats()
		r := ScaleResult{
			Trace:   ru.tr.Name,
			Sched:   ru.policy.Name(),
			Shards:  ru.policy.Grouping.Shards,
			Jobs:    res.Summary.Jobs,
			Wall:    wall,
			AllocMB: float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20),
			GCs:     mem1.NumGC - mem0.NumGC,
			Summary: res.Summary,
			Engine:  res.Engine,
			Pool:    metrics.MatcherPoolStats{Gets: after.Gets - before.Gets, News: after.News - before.News},
			Plan:    plan,
		}
		if r.Shards == 0 {
			r.Shards = 1
		}
		out = append(out, r)
		t.Rows = append(t.Rows, []string{
			r.Trace,
			strconv.Itoa(r.Jobs),
			r.Sched,
			strconv.Itoa(r.Shards),
			wall.Round(time.Millisecond).String(),
			r.Summary.AvgJCT.Round(time.Second).String(),
			r.Summary.Makespan.Round(time.Second).String(),
			strconv.Itoa(r.Engine.Rounds),
			f2(100 * plan.ReuseRatio()),
			strconv.FormatUint(plan.ShardTasks, 10),
			f2(100 * r.Pool.HitRate()),
			strconv.FormatFloat(r.AllocMB, 'f', 0, 64),
			strconv.FormatUint(uint64(r.GCs), 10),
		})
	}
	return out, t
}

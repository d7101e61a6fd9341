// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 Table 1–2, §6 Tables 4–5, Figures 8–14). Each function
// runs the corresponding workload through the simulator and returns one
// Table: rows that mirror what the paper reports, plus the Claims that
// set the paper's numbers beside the measured ones. Paper lists the
// experiments of the reproduction ledger (REPRO.json); cmd/murisim and
// the top-level benchmarks are thin wrappers around this package.
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
	"text/tabwriter"
	"time"

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

// Table is a generic formatted result: a header plus rows of cells, and
// the paper claims the run measured.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Claims []Claim    `json:"claims,omitempty"`
}

// String renders the table with aligned columns, then its claims.
func (t Table) String() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, t.Title)
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if len(t.Claims) > 0 {
		fmt.Fprintln(tw, "claims (paper vs measured):")
	}
	for _, c := range t.Claims {
		fmt.Fprintf(tw, "  %s\tpaper %v\tmeasured %v\t%s\n", c.ID, c.Paper, c.Measured, c.Verdict)
	}
	tw.Flush()
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Table1 reproduces the stage-duration percentages of Table 1 for the
// four exemplar models (computed from the model zoo profiles rather than
// a PyTorch profiler — see DESIGN.md). The paper's profiler rows need not
// sum to 100% (overlap, idle), so each claim renormalizes the paper's
// bottleneck share onto the four serial stages.
func Table1() Table {
	t := Table{
		Title:  "Table 1: stage duration percentage per iteration",
		Header: []string{"model", "load data", "preprocess", "propagate", "synchronize", "bottleneck"},
	}
	paper := map[string][4]float64{"shufflenet": {60, 18, 6, 2}, "vgg19": {24, 4, 26, 41}, "gpt2": {0.06, 0.03, 85, 28}, "a2c": {0, 91, 3, 0.2}}
	for _, name := range []string{"shufflenet", "vgg19", "gpt2", "a2c"} {
		m, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		row, fr, b, p := []string{m.Name}, m.Stages.Fractions(), m.Bottleneck(), paper[name]
		for _, f := range fr {
			row = append(row, fmt.Sprintf("%.1f%%", 100*f))
		}
		t.Rows = append(t.Rows, append(row, b.String()))
		t.Claims = append(t.Claims, claim("table1."+name, about(100*p[b]/(p[0]+p[1]+p[2]+p[3])), 100*fr[b]))
	}
	return t
}

// Table2 interleaves ShuffleNet, A2C, GPT-2 and VGG16 on one resource set
// and reports each job's normalized throughput plus the total, against
// the paper's per-job values and its total of 2.00.
func Table2() Table {
	names, paper := []string{"shufflenet", "a2c", "gpt2", "vgg16"}, []float64{0.86, 0.48, 0.41, 0.25}
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
		total += norm[i]
		t.Rows = append(t.Rows, []string{n, times[i].Bottleneck().String(), f2(norm[i])})
		t.Claims = append(t.Claims, claim("table2."+n, about(paper[i]), norm[i]))
	}
	t.Rows = append(t.Rows, []string{"total", "", f2(total)})
	t.Claims = append(t.Claims, claim("table2.total", about(2.00), total))
	return t
}

// PolicyResult is one policy's summary on one trace.
type PolicyResult struct {
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
			out[i] = PolicyResult{Policy: p.Name(), Summary: res.Summary, Series: res.Series}
		}(i, p)
	}
	wg.Wait()
	return out
}

// sweep runs the policies on every trace, the traces over the bounded
// forEach pool (each fanning out further per policy). Results land in
// index-distinct slots, keeping table order deterministic.
func (o Options) sweep(traces []trace.Trace, policies func() []sched.Policy) [][]PolicyResult {
	out := make([][]PolicyResult, len(traces))
	forEach(len(traces), func(i int) { out[i] = o.runPolicies(traces[i], 0, policies()...) })
	return out
}

// speedups are num's avg JCT, makespan and p99 JCT over den's.
func speedups(num, den metrics.Summary) [3]float64 {
	return [3]float64{metrics.Speedup(num.AvgJCT, den.AvgJCT),
		metrics.Speedup(num.Makespan, den.Makespan), metrics.Speedup(num.P99JCT, den.P99JCT)}
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

// testbedTable runs the policies on the testbed trace and renders the
// baselines normalized to the last policy, Muri (the paper's
// presentation: "Normalized JCT" of each baseline with Muri = 1), with
// a claim per paper ratio: avg JCT, makespan and p99 JCT per baseline.
func (o Options) testbedTable(id, title string, paper map[string][3]float64, policies ...sched.Policy) Table {
	results := o.runPolicies(o.testbedTrace(), 0, policies...)
	ref := results[len(results)-1].Summary
	t := Table{
		Title:  title,
		Header: []string{"policy", "norm. JCT", "norm. makespan", "norm. p99 JCT", "avg JCT", "makespan"},
	}
	for _, r := range results {
		v := speedups(r.Summary, ref)
		t.Rows = append(t.Rows, []string{r.Policy, f2(v[0]), f2(v[1]), f2(v[2]),
			r.Summary.AvgJCT.Round(time.Second).String(), r.Summary.Makespan.Round(time.Minute).String()})
		for i, m := range []string{"jct", "makespan", "p99"} {
			if p, ok := paper[r.Policy]; ok {
				t.Claims = append(t.Claims, claim(id+"."+m+"."+r.Policy, about(p[i]), v[i]))
			}
		}
	}
	return t
}

// Table4 runs the testbed experiment with known durations: SRTF and SRSF
// versus Muri-S on the busiest 400-job window.
func (o Options) Table4() Table {
	return o.testbedTable("table4", "Table 4: testbed, known durations (normalized to Muri-S)",
		map[string][3]float64{"srtf": {2.12, 1.56, 3.31}, "srsf": {2.03, 1.59, 3.82}},
		sched.SRTF(), sched.SRSF(), sched.NewMuriS())
}

// Table5 runs the testbed experiment with unknown durations: Tiresias and
// Themis versus Muri-L.
func (o Options) Table5() Table {
	return o.testbedTable("table5", "Table 5: testbed, unknown durations (normalized to Muri-L)",
		map[string][3]float64{"tiresias": {2.59, 1.48, 2.54}, "themis": {3.56, 1.47, 2.60}},
		sched.Tiresias(), sched.Themis(), sched.NewMuriL())
}

// Figure8 collects the detailed time series (queue length, blocking
// index, resource utilization) for the testbed workload under both the
// known- and unknown-duration policy sets. Its claims are the paper's
// shape: each Muri keeps a shorter queue and a lower blocking index than
// the baselines of its class, and uses every resource more.
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
	var queue, blocking, util []float64
	for i, r := range results {
		s := r.Series
		row := []string{r.Policy, f2(s.MeanQueueLen()), f2(s.MeanBlockingIndex())}
		for res := workload.Resource(0); res < workload.NumResources; res++ {
			row = append(row, f2(s.MeanUtil(res)))
		}
		t.Rows = append(t.Rows, row)
		if muri := results[i/3*3+2].Series; i%3 != 2 { // each class of three ends with its Muri
			queue = append(queue, ratio(s.MeanQueueLen(), muri.MeanQueueLen()))
			blocking = append(blocking, ratio(s.MeanBlockingIndex(), muri.MeanBlockingIndex()))
			for res := workload.Resource(0); res < workload.NumResources; res++ {
				util = append(util, ratio(muri.MeanUtil(res), s.MeanUtil(res)))
			}
		}
	}
	t.Claims = []Claim{shape("figure8.queue", queue...), shape("figure8.blocking", blocking...), shape("figure8.util", util...)}
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
// zero-submit variants and renders each baseline's speedups, normalized
// to the last policy (Muri). This is the engine behind Figures 9 and 10.
// The claims set the paper's avg JCT, makespan and p99 JCT ranges against
// every (trace, baseline) speedup, and hold trace 3's makespan speedups
// to ≈ 1 (the paper: "for trace 3, Muri has no speedup in makespan
// because the trace is lightly loaded").
func (o Options) sweepTraces(id, title string, paper [3]Range, policies func() []sched.Policy) Table {
	var variants []trace.Trace
	for _, base := range o.traces() {
		variants = append(variants, base, base.ZeroSubmit())
	}
	t := Table{
		Title:  title,
		Header: []string{"trace", "policy", "norm. JCT", "norm. makespan", "norm. p99 JCT"},
	}
	var measured [3][]float64
	var trace3 []float64
	for i, results := range o.sweep(variants, policies) {
		ref := results[len(results)-1].Summary
		for _, r := range results[:len(results)-1] {
			v := speedups(r.Summary, ref)
			t.Rows = append(t.Rows, []string{variants[i].Name, r.Policy, f2(v[0]), f2(v[1]), f2(v[2])})
			for m := range v {
				measured[m] = append(measured[m], v[m])
			}
			if i == 4 { // trace 3 as submitted
				trace3 = append(trace3, v[1])
			}
		}
	}
	for m, name := range []string{"jct", "makespan", "p99"} {
		t.Claims = append(t.Claims, claim(id+"."+name, paper[m], measured[m]...))
	}
	if len(trace3) > 0 {
		t.Claims = append(t.Claims, claim(id+".makespan.trace3", about(1), trace3...))
	}
	return t
}

// Figure9 sweeps traces 1–4 and 1'–4' with known durations (SRTF, SRSF
// vs Muri-S).
func (o Options) Figure9() Table {
	return o.sweepTraces("figure9",
		"Figure 9: simulation, known durations (speedups of Muri-S over each baseline)",
		[3]Range{{1.13, 2.26}, {1, 1.65}, {1.36, 4.57}},
		func() []sched.Policy { return []sched.Policy{sched.SRTF(), sched.SRSF(), sched.NewMuriS()} })
}

// Figure10 sweeps traces 1–4 and 1'–4' with unknown durations (Tiresias,
// AntMan, Themis vs Muri-L).
func (o Options) Figure10() Table {
	return o.sweepTraces("figure10",
		"Figure 10: simulation, unknown durations (speedups of Muri-L over each baseline)",
		[3]Range{{1.53, 6.15}, {1, 1.55}, {1.21, 5.37}},
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
// ordering and greedy packing instead of Blossom matching. The paper
// finds worst ordering clearly worse and no-Blossom up to 14% worse in
// avg JCT and 6% in makespan.
func (o Options) Figure11() Table {
	t := Table{
		Title:  "Figure 11: scheduling-algorithm ablations (normalized to Muri-L)",
		Header: []string{"trace", "variant", "norm. JCT", "norm. makespan"},
	}
	traces := o.traces()
	var vals [2][2][]float64 // per variant: avg JCT, makespan
	for i, results := range o.sweep(traces, func() []sched.Policy {
		return []sched.Policy{sched.NewMuriL(),
			muriLVariant("muri-l-worst-order", func(c *core.Config) { c.WorstOrdering = true }),
			muriLVariant("muri-l-no-blossom", func(c *core.Config) { c.UseBlossom = false })}
	}) {
		for k, r := range results[1:] {
			v := speedups(r.Summary, results[0].Summary)
			t.Rows = append(t.Rows, []string{traces[i].Name, r.Policy, f2(v[0]), f2(v[1])})
			vals[k][0], vals[k][1] = append(vals[k][0], v[0]), append(vals[k][1], v[1])
		}
	}
	t.Claims = []Claim{
		shape("figure11.worstorder.jct", vals[0][0]...),
		claim("figure11.noblossom.jct", Range{1, 1.14}, vals[1][0]...),
		claim("figure11.noblossom.makespan", Range{1, 1.06}, vals[1][1]...),
	}
	return t
}

// Figure12 varies the maximum group size (2–4) against AntMan on the
// zero-submit variants of traces 1–4. The paper finds avg JCT and
// makespan improving with the cap, with 2-job and 3-job groups close.
func (o Options) Figure12() Table {
	t := Table{
		Title:  "Figure 12: jobs per group, zero-submit traces (normalized to AntMan)",
		Header: []string{"trace", "policy", "norm. JCT", "norm. makespan"},
	}
	var traces []trace.Trace
	for _, base := range o.traces() {
		traces = append(traces, base.ZeroSubmit())
	}
	var step [2][]float64 // speedup growth per cap step, avg JCT and makespan
	var threeVsTwo []float64
	for i, results := range o.sweep(traces, func() []sched.Policy {
		return []sched.Policy{sched.AntMan{},
			muriLVariant("muri-l-2", func(c *core.Config) { c.MaxGroupSize = 2 }),
			muriLVariant("muri-l-3", func(c *core.Config) { c.MaxGroupSize = 3 }),
			muriLVariant("muri-l-4", func(c *core.Config) { c.MaxGroupSize = 4 })}
	}) {
		var prev [3]float64
		for k, r := range results[1:] {
			v := speedups(results[0].Summary, r.Summary)
			t.Rows = append(t.Rows, []string{traces[i].Name, r.Policy, f2(v[0]), f2(v[1])})
			for m := range step {
				if k > 0 {
					step[m] = append(step[m], ratio(v[m], prev[m]))
				}
				if k == 1 {
					threeVsTwo = append(threeVsTwo, ratio(v[m], prev[m]))
				}
			}
			prev = v
		}
	}
	t.Claims = []Claim{
		shape("figure12.jct.cap", step[0]...),
		shape("figure12.makespan.cap", step[1]...),
		claim("figure12.3vs2", about(1), threeVsTwo...),
	}
	return t
}

// Figure13 varies the number of bottleneck job types (1–4) and reports
// Muri's average-JCT speedup over SRTF (known durations) and Tiresias
// (unknown durations). The paper's speedups grow from ≈ 1 with one type
// to 2.26× (SRTF) and 3.92× (Tiresias) with four.
func (o Options) Figure13() Table {
	t := Table{
		Title:  "Figure 13: impact of workload mix (average-JCT speedups)",
		Header: []string{"job types", "muri-s / srtf", "muri-l / tiresias"},
	}
	base := trace.PhillyConfigs(o.capacity())[0]
	known, unknown := make([]float64, 4), make([]float64, 4)
	forEach(4, func(i int) {
		cfg := base
		cfg.Name = fmt.Sprintf("mix%d", i+1)
		cfg.JobTypes = i + 1
		r := o.runPolicies(trace.Generate(cfg).ZeroSubmit(), 0,
			sched.SRTF(), sched.NewMuriS(), sched.Tiresias(), sched.NewMuriL())
		known[i] = metrics.Speedup(r[0].Summary.AvgJCT, r[1].Summary.AvgJCT)
		unknown[i] = metrics.Speedup(r[2].Summary.AvgJCT, r[3].Summary.AvgJCT)
	})
	for i := range known {
		t.Rows = append(t.Rows, []string{fmt.Sprint(i + 1), f2(known[i]), f2(unknown[i])})
	}
	t.Claims = []Claim{
		claim("figure13.srtf.types1", about(1), known[0]),
		claim("figure13.srtf.types2", about(1.42), known[1]),
		claim("figure13.srtf.types4", about(2.26), known[3]),
		claim("figure13.tiresias.types1", about(1), unknown[0]),
		claim("figure13.tiresias.types2", about(1.49), unknown[1]),
		claim("figure13.tiresias.types4", about(3.92), unknown[3]),
	}
	return t
}

// Figure14 sweeps profiling noise n_p from 0 to 1 and reports Muri-L's
// average JCT and makespan normalized to the noise-free run. The paper's
// normalized JCT rises to ~1.3× at noise 1 (under 1% at noise 0.2) while
// makespan stays ~1×.
func (o Options) Figure14() Table {
	tr := trace.Generate(trace.PhillyConfigs(o.capacity())[0])
	run := func(noise float64) metrics.Summary {
		cfg := o.simConfig()
		cfg.Profiler = profile.New(noise, 1234)
		return sim.Run(cfg, tr, sched.NewMuriL()).Summary
	}
	noises := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	summaries := make([]metrics.Summary, len(noises))
	// The noise-free baseline is shared; the noisy runs are independent.
	summaries[0] = run(0)
	forEach(len(noises)-1, func(i int) {
		summaries[i+1] = run(noises[i+1])
	})
	t := Table{
		Title:  "Figure 14: impact of profiling noise on Muri-L (normalized to noise-free)",
		Header: []string{"noise", "norm. JCT", "norm. makespan"},
	}
	var jct, makespan []float64
	for i, noise := range noises {
		v := speedups(summaries[i], summaries[0])
		jct, makespan = append(jct, v[0]), append(makespan, v[1])
		t.Rows = append(t.Rows, []string{f2(noise), f2(v[0]), f2(v[1])})
	}
	t.Claims = []Claim{
		claim("figure14.noise0", about(1), jct[0], makespan[0]),
		claim("figure14.jct", Range{1, about(1.3)[1]}, jct...),
		claim("figure14.jct.noise0.2", Range{0.99, 1.01}, jct[1]),
		claim("figure14.jct.noise1", about(1.3), jct[len(jct)-1]),
		claim("figure14.makespan", about(1), makespan...),
	}
	return t
}

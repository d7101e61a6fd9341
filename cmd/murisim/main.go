// Command murisim regenerates the paper's evaluation tables and figures
// through the trace-driven simulator.
//
// Usage:
//
//	murisim -experiment all -o REPRO.json   # the paper ledger, paper scale
//	murisim -experiment table4 -quick       # one experiment, reduced scale
//	murisim -experiment figure9 -maxjobs 500
//	murisim -experiment figure10 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments: the ledger list experiments.Paper — table1, table2,
// table4, table5, figure8 … figure14, faults, prediction — which `all`
// (the default) runs in that order. Each table prints with its claims:
// the paper's range beside the measured one, and the verdict derived
// from the two.
//
// -o writes the JSON of the tables run (cells and claims, no wall-clock
// field). The simulator is deterministic, so `-experiment all -o F`
// reproduces the committed REPRO.json byte for byte; CI diffs the two.
//
// The faults experiment replays trace 1 under the deterministic failure
// model at increasing failure rates (machine crashes, transient job
// faults, stragglers) and compares how Muri-L and the SRTF/SRSF
// baselines degrade.
//
// The prediction experiment drifts the execution truth away from the
// submitted profiles at increasing amplitudes and compares oracle,
// stale-profile, and online-estimator belief sources for SRTF and
// Muri-L, reporting the JCT cost of imperfect prediction plus the
// estimator's error score.
//
// Wall-clock measurements are Go benchmarks in the root package, not
// experiments: BenchmarkFleet replays the fleet tiers (trace2/trace4
// under Muri-L, the muri-l-scale shard sweep, philly-10000 and
// philly-50k) and BenchmarkFidelity compares the simulator with the live
// prototype:
//
//	go test -run '^$' -bench 'Fleet|Fidelity' -benchtime 1x -benchmem -timeout 30m .
//
// -cpuprofile and -memprofile write pprof profiles of the run (inspect
// with `go tool pprof`), of the experiments or of a single run, so
// scheduling-path regressions can be diagnosed against real workloads.
//
// -trace-out, -timeline-out, and -explain switch murisim into
// single-run mode: one simulation of the trace1 workload under -policy
// (default muri-l), writing a Chrome trace-event JSON file (open in
// Perfetto or chrome://tracing to see the per-resource stage
// interleaving) and/or a JSONL job-lifecycle timeline; -shards sets a
// Muri policy's shard count (muri-l-scale defaults to 4). -explain folds
// the run's record stream (sim.Config.Record) through the
// decision-provenance builder (DESIGN.md §14) and prints
// the attribution sweep — where the workload's aggregate JCT went,
// cause by cause — plus one job's full explanation with -explain-job;
// combined with -trace-out, the per-job lifecycle spans land in the
// trace as real duration events:
//
//	murisim -trace-out trace.json -maxjobs 100
//	murisim -timeline-out timeline.jsonl -policy muri-s -maxjobs 200
//	murisim -explain -policy srtf -maxjobs 200
//	murisim -explain -explain-job 7 -trace-out trace.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"muri/internal/experiments"
	"muri/internal/explain"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/sim"
	"muri/internal/telemetry"
	"muri/internal/trace"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which table/figure to regenerate (all = the paper ledger)")
		out        = flag.String("o", "", "write the JSON of the tables run to this file (the ledger format of REPRO.json)")
		quick      = flag.Bool("quick", false, "reduced scale for a fast smoke run")
		machines   = flag.Int("machines", 8, "number of machines in the simulated cluster")
		gpus       = flag.Int("gpus", 8, "GPUs per machine")
		maxJobs    = flag.Int("maxjobs", 0, "truncate each trace to this many jobs (0 = full)")
		seriesDir  = flag.String("series-out", "", "directory for per-policy Figure 8 time-series CSVs")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")

		// Single-run observability mode.
		traceOut    = flag.String("trace-out", "", "single run: write a Chrome trace-event JSON file (Perfetto)")
		timelineOut = flag.String("timeline-out", "", "single run: write the job-lifecycle timeline as JSONL")
		policy      = flag.String("policy", "muri-l", "single run: scheduling policy ("+strings.Join(sched.Names(), "|")+")")
		explainRun  = flag.Bool("explain", false, "single run: fold decision provenance and print the wait-time attribution sweep")
		explainJob  = flag.Int64("explain-job", 0, "single run: also print this job's full explanation (implies -explain)")
		shards      = flag.Int("shards", 0, "single run: a Muri policy's shard count (0 = the policy's own; muri-l-scale uses 4)")
	)
	flag.Parse()
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "murisim: bad -shards value %d\n", *shards)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(fmt.Errorf("memprofile: %w", err))
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(fmt.Errorf("memprofile: %w", err))
			}
		}()
	}

	if *traceOut != "" || *timelineOut != "" || *explainRun || *explainJob > 0 {
		if err := runSingle(*machines, *gpus, *maxJobs, *policy, *traceOut, *timelineOut, *shards, *explainRun || *explainJob > 0, *explainJob); err != nil {
			fatal(err)
		}
		return
	}

	opt := experiments.Full()
	if *quick {
		opt = experiments.Quick()
	}
	opt.Machines = *machines
	opt.GPUsPerMachine = *gpus
	if *maxJobs > 0 {
		opt.MaxJobs = *maxJobs
	}

	var ledger []experiments.Entry
	for _, e := range experiments.Paper {
		if e.Name != *experiment && *experiment != "all" {
			continue
		}
		start := time.Now()
		var tbl experiments.Table
		if e.Name == "figure8" && *seriesDir != "" {
			var results []experiments.PolicyResult
			results, tbl = opt.Figure8()
			writeSeries(*seriesDir, results)
		} else {
			tbl = e.Run(opt)
		}
		fmt.Println(tbl.String())
		fmt.Printf("(%s completed in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		ledger = append(ledger, experiments.Entry{Experiment: e.Name, Table: tbl})
	}
	if len(ledger) == 0 {
		fmt.Fprintf(os.Stderr, "murisim: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
	if *out != "" {
		b, err := json.MarshalIndent(ledger, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
}

// fatal reports err and exits with status 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "murisim: %v\n", err)
	os.Exit(1)
}

// writeSeries dumps each Figure 8 policy's time series as CSV into dir.
func writeSeries(dir string, results []experiments.PolicyResult) {
	for _, r := range results {
		path := filepath.Join(dir, "figure8-"+r.Policy+".csv")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := experiments.WriteSeriesCSV(f, r); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "murisim: wrote %s\n", path)
	}
}

// runSingle simulates the trace1 workload once with instrumentation
// attached and writes the requested artifacts.
func runSingle(machines, gpus, maxJobs int, policyName, traceOut, timelineOut string, shards int, explainRun bool, explainJob int64) error {
	est := profile.NewOnline()
	p, err := sched.ByName(policyName, est)
	if err != nil {
		return err
	}
	if m, ok := p.(*sched.Muri); ok && shards > 0 {
		m.Grouping.Shards = shards
	}
	cfg := sim.DefaultConfig()
	cfg.Machines = machines
	cfg.GPUsPerMachine = gpus
	if strings.HasSuffix(policyName, "-pred") {
		// The online predictor learns from the run's completions, as in
		// the prediction experiment's online rows.
		cfg.Estimator = est
	}
	var tracer *telemetry.Tracer
	if traceOut != "" {
		tracer = telemetry.NewTracer(0)
		cfg.Trace = tracer
	}
	cfg.RecordTimeline = timelineOut != ""
	var expl *explain.Builder
	if explainRun {
		expl = explain.NewBuilder()
		cfg.Record = expl.Apply
	}
	tc := trace.PhillyConfigs(machines * gpus)[0]
	if maxJobs > 0 && maxJobs < tc.Jobs {
		tc.Jobs = maxJobs
	}
	start := time.Now()
	res := sim.Run(cfg, trace.Generate(tc), p)
	if expl != nil && tracer != nil {
		// The folded lifecycle spans land on the run's Chrome trace as
		// duration events (one thread per job under an "explain" process).
		expl.EmitSpans(tracer)
	}
	fmt.Printf("single run: policy=%s jobs=%d avgJCT=%v makespan=%v preemptions=%d (wall %v)\n",
		res.Policy, res.Summary.Jobs, res.Summary.AvgJCT.Round(time.Second),
		res.Summary.Makespan.Round(time.Second), res.Preemptions,
		time.Since(start).Round(time.Millisecond))
	if traceOut != "" {
		if err := tracer.WriteFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events, %d dropped)\n", traceOut, tracer.Len(), tracer.Dropped())
	}
	if timelineOut != "" {
		if err := writeTimeline(timelineOut, res.Timeline); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", timelineOut, len(res.Timeline))
	}
	if expl != nil {
		printAttributionSweep(expl)
		if explainJob > 0 {
			fmt.Print(expl.RenderJob(explainJob))
		}
	}
	return nil
}

// printAttributionSweep aggregates every job's exact wait-time
// attribution into one table: where the workload's total JCT went,
// cause by cause (DESIGN.md §14). Per-job attributions each sum
// exactly to that job's JCT, so the table's total is the aggregate JCT
// to the nanosecond.
func printAttributionSweep(b *explain.Builder) {
	perCause := map[string]int64{}
	var total int64
	var jobs, done int
	for _, id := range b.Jobs() {
		at, ok := b.AttributionOf(id)
		if !ok {
			continue
		}
		jobs++
		if at.Done {
			done++
		}
		total += at.Total
		for c, d := range at.PerCause {
			perCause[c] += d
		}
	}
	fmt.Printf("attribution sweep: %d jobs (%d completed), aggregate JCT %v\n",
		jobs, done, time.Duration(total).Round(time.Second))
	for _, c := range explain.Causes {
		d := perCause[c]
		if d == 0 && c != explain.CauseService {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(d) / float64(total)
		}
		fmt.Printf("  %-16s %14v  %5.1f%%\n", c, time.Duration(d).Round(time.Second), share)
	}
}

// writeTimeline dumps timeline events as JSONL, one event per line.
func writeTimeline(path string, events []sim.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer
// list. BENCHMARK.json is the only catalogue: the harness reads names,
// units, directions and bounds from it, so the file the driver checks
// and the names the harness emits cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type catalogue struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`

	// root is the directory BENCHMARK.json was found in; output files
	// go under root/bench/out whatever the working directory is.
	root string
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadCatalogue finds BENCHMARK.json in the working directory or its
// parent (`go run ./bench` runs from the repo root, `go test` from
// bench/).
func loadCatalogue() (*catalogue, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var c catalogue
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		c.root = dir
		seen := make(map[string]bool)
		for _, m := range append(append([]metricDef{}, c.EndToEnd...), c.PerLayer...) {
			if !metricName.MatchString(m.Name) {
				return nil, fmt.Errorf("BENCHMARK.json: bad metric name %q", m.Name)
			}
			if seen[m.Name] {
				return nil, fmt.Errorf("BENCHMARK.json: metric %q declared twice", m.Name)
			}
			seen[m.Name] = true
		}
		return &c, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func (c *catalogue) outDir() string { return filepath.Join(c.root, "bench", "out") }

func (c *catalogue) hasWorkload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// exactMetrics must repeat to the last digit between two runs of the
// same code on a sim-* workload: simulated results, decision counts,
// and planner counters that a single-threaded acceptance loop drives.
// The cache and pool counters are left out on purpose: the parallel
// edge workers can both miss one key at once, and sync.Pool empties on
// GC, so those move by a handful between identical runs.
var exactMetrics = map[string]bool{
	"avg_jct_h": true, "p99_jct_h": true, "makespan_h": true, "failed_share": true,
	"sched.plan_calls": true, "sched.plan_jobs_max": true,
	"sim.heap_peak": true, "sim.heap_rebuilds": true, "sim.heap_fixes": true,
	"engine.rounds": true, "engine.decisions": true, "engine.launches": true,
	"engine.preemptions": true, "engine.decision_hash": true,
	"core.plan_rounds": true, "core.fresh_sweeps": true, "core.replay_sweeps": true,
	"core.fixpoint_sweeps": true, "core.sweep_reuse_ratio": true, "core.shard_tasks": true,
}

// demotedBounds are the bounds ISSUE 11 gave the workload-specific
// end-to-end metrics. The driver's contract wants every end_to_end
// metric on every workload, so these live under per_layer in
// BENCHMARK.json; -compare still holds them to their bounds.
var demotedBounds = map[string]float64{
	"replay_wall_s": 0.10, "ack_p50_ms": 0.15, "dispatch_p50_ms": 0.10,
	"dispatch_p90_ms": 0.15, "drain_wall_s": 0.10, "recover_s": 0.15,
}

// run collects what one workload run emits. Every name must come from
// the catalogue and be set exactly once; finish reports what is missing.
type run struct {
	Workload  string             `json:"-"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Invalid   []string           `json:"invalid,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Samples holds the sample count behind each reported percentile.
	Samples map[string]int `json:"samples,omitempty"`
	// Reps holds the wall seconds of each whole replay of a sim-* e2e pass.
	Reps []float64 `json:"reps,omitempty"`

	cat *catalogue
}

func newRun(cat *catalogue, workload string) *run {
	return &run{Workload: workload, Correct: true, cat: cat,
		EndToEnd: make(map[string]float64), PerLayer: make(map[string]float64),
		Samples: make(map[string]int)}
}

// problem records a correctness failure: the run's outputs are wrong.
func (r *run) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// invalid records why the run's timings should not be compared (the
// load generator ran late, too few samples behind a percentile, a
// status poll failed). The outputs may still be correct.
func (r *run) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64) {
	dst := r.PerLayer
	if !declared(r.cat.PerLayer, name) {
		if !declared(r.cat.EndToEnd, name) {
			r.problem("metric %q is not declared in BENCHMARK.json", name)
			return
		}
		dst = r.EndToEnd
	}
	if _, dup := dst[name]; dup {
		r.problem("metric %q emitted twice", name)
		return
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// Over half the samples missed every limit; JSON cannot carry +Inf.
		r.problem("metric %q is %v", name, v)
		v = math.MaxFloat64
	}
	dst[name] = v
}

// setPct sets a percentile metric with its sample count, and marks the
// run invalid when fewer than ten samples lie beyond the percentile.
func (r *run) setPct(name string, sorted []float64, p float64) {
	r.set(name, quantile(sorted, p))
	r.Samples[name] = len(sorted)
	if beyond := len(sorted) - rank(len(sorted), p) - 1; beyond < 10 {
		r.invalid("%s: %d samples beyond p%g of %d", name, beyond, p*100, len(sorted))
	}
}

// zero sets every per-layer metric with one of the prefixes to 0: the
// layers a workload bypasses report no work.
func (r *run) zero(prefixes ...string) {
	for _, m := range r.cat.PerLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				if _, set := r.PerLayer[m.Name]; !set {
					r.PerLayer[m.Name] = 0
				}
				break
			}
		}
	}
}

// finish checks that the run emitted exactly the catalogue.
func (r *run) finish(wantLayers bool) {
	for _, m := range r.cat.EndToEnd {
		if _, ok := r.EndToEnd[m.Name]; !ok {
			r.problem("end-to-end metric %q not emitted", m.Name)
		}
	}
	if !wantLayers {
		return
	}
	for _, m := range r.cat.PerLayer {
		if _, ok := r.PerLayer[m.Name]; !ok {
			r.problem("per-layer metric %q not emitted", m.Name)
		}
	}
}

func declared(defs []metricDef, name string) bool {
	for _, m := range defs {
		if m.Name == name {
			return true
		}
	}
	return false
}

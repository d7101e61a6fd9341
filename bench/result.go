package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"muri/internal/telemetry"
)

// fingerprint says where and how a result file was measured; two files
// are comparable only when these agree.
type fingerprint struct {
	CPU         string  `json:"cpu"`
	NumCPU      int     `json:"nproc"`
	SimProcs    int     `json:"gomaxprocs_sim"`
	DaemonProcs int     `json:"gomaxprocs_daemon"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"git_commit"`
	Seed        int64   `json:"seed"`
	RunSeconds  float64 `json:"run_seconds"`
	Smoke       bool    `json:"smoke,omitempty"`
}

func newFingerprint(root string, seed int64, seconds float64, smoke bool) fingerprint {
	fp := fingerprint{CPU: "unknown", NumCPU: runtime.NumCPU(), SimProcs: simProcs, DaemonProcs: daemonProcs,
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, RunSeconds: seconds, Smoke: smoke}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	fp.Commit = gitCommit(root)
	return fp
}

// gitCommit reads the checked-out commit from root/.git without
// running git: `go build` stamps it into the binary, `go run` does not,
// and the driver's checkout is no repository at all ("unknown").
func gitCommit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(line, " "+ref); ok {
			return sha
		}
	}
	return "unknown"
}

// resultFile is one set: every workload run once, both passes.
type resultFile struct {
	Fingerprint fingerprint     `json:"fingerprint"`
	Workloads   map[string]*run `json:"workloads"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeTrace(cat *catalogue, workload string, tracer *telemetry.Tracer) error {
	if err := os.MkdirAll(cat.outDir(), 0o755); err != nil {
		return err
	}
	return tracer.WriteFile(filepath.Join(cat.outDir(), "trace-"+workload+".json"))
}

// printRun prints every metric of a run by name with its unit, the
// sample count beside each percentile, and the verdicts.
func printRun(w io.Writer, cat *catalogue, r *run) {
	fmt.Fprintf(w, "== %s  correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   WRONG: %s\n", p)
	}
	for _, p := range r.Invalid {
		fmt.Fprintf(w, "   INVALID: %s\n", p)
	}
	if len(r.Reps) > 0 {
		fmt.Fprintf(w, "   replay walls (s): %.3f\n", r.Reps)
	}
	row := func(defs []metricDef, vals map[string]float64) {
		for _, m := range defs {
			v, ok := vals[m.Name]
			if !ok {
				continue
			}
			n := ""
			if c, ok := r.Samples[m.Name]; ok {
				n = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Fprintf(w, "   %-36s %14s %s%s\n", m.Name, number(v), m.Unit, n)
		}
	}
	row(cat.EndToEnd, r.EndToEnd)
	row(cat.PerLayer, r.PerLayer)
}

// number prints whole values (counts, hashes, bytes) in full and the
// rest to six significant digits.
func number(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// driverLine is the last line the driver reads: one JSON object.
func driverLine(cat *catalogue, r *run, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := cat.EndToEnd, r.EndToEnd
	if traced {
		defs, vals = cat.PerLayer, r.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
}

// compare prints one row per workload and metric of two result files
// and returns how many rows got worse. A bounded metric is worse when b
// is worse than a by more than its bound; an exact metric when the two
// differ at all; a row is unresolved when either side is missing or
// its run was marked invalid or incorrect.
func compare(w io.Writer, cat *catalogue, a, b *resultFile) int {
	worse := 0
	fmt.Fprintf(w, "%-15s %-34s %14s %14s %7s  %s\n", "workload", "metric", "a", "b", "bound", "verdict")
	for _, wl := range cat.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-15s %-34s %14s %14s %7s  unresolved\n", wl.Name, "(all)", "-", "-", "-")
			continue
		}
		usable := ra.Correct && rb.Correct && len(ra.Invalid) == 0 && len(rb.Invalid) == 0
		row := func(m metricDef, va, vb float64, ok bool, bound float64, bounded bool) {
			exact := exactMetrics[m.Name] && strings.HasPrefix(wl.Name, "sim-")
			verdict, boundText := "-", "-"
			switch {
			case !ok || (!usable && !exact):
				verdict = "unresolved"
			case exact:
				boundText = "exact"
				verdict = "ok"
				if va != vb {
					verdict = "worse"
				}
			case bounded:
				boundText = fmt.Sprintf("%.0f%%", 100*bound)
				verdict = "ok"
				delta := vb - va
				if m.Better == "higher" {
					delta = -delta
				}
				if delta > bound*math.Abs(va) {
					verdict = "worse"
				}
			}
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-15s %-34s %14s %14s %7s  %s\n", wl.Name, m.Name, number(va), number(vb), boundText, verdict)
		}
		for _, m := range cat.EndToEnd {
			va, oka := ra.EndToEnd[m.Name]
			vb, okb := rb.EndToEnd[m.Name]
			row(m, va, vb, oka && okb, m.Bound, true)
		}
		for _, m := range cat.PerLayer {
			va, oka := ra.PerLayer[m.Name]
			vb, okb := rb.PerLayer[m.Name]
			bound, bounded := demotedBounds[m.Name]
			row(m, va, vb, oka && okb, bound, bounded)
		}
	}
	return worse
}

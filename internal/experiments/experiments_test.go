package experiments

import (
	"strings"
	"testing"
	"time"

	"muri/internal/trace"
)

// tiny returns very small options so every experiment runs in a few
// hundred milliseconds.
func tiny() Options {
	cfgs := trace.PhillyConfigs(16)
	var traces []trace.Trace
	for i := range cfgs {
		cfgs[i].Jobs = 120
		traces = append(traces, trace.Generate(cfgs[i]))
	}
	return Options{Machines: 2, GPUsPerMachine: 8, MaxJobs: 100, Traces: traces}
}

func TestTable1MatchesPaperBottlenecks(t *testing.T) {
	tbl := Table1()
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(tbl.Rows))
	}
	want := map[string]string{
		"shufflenet": "storage", "vgg19": "network", "gpt2": "gpu", "a2c": "cpu",
	}
	for _, row := range tbl.Rows {
		if row[5] != want[row[0]] {
			t.Errorf("%s bottleneck = %s, want %s", row[0], row[5], want[row[0]])
		}
	}
}

// claimOf returns the table's claim with the given ID.
func claimOf(t *testing.T, tbl Table, id string) Claim {
	t.Helper()
	for _, c := range tbl.Claims {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("%s has no claim %q", tbl.Title, id)
	return Claim{}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	tbl := Table2()
	// The paper measures a total normalized throughput of 2.00; the
	// simulated substrate should land in the same region.
	if total := claimOf(t, tbl, "table2.total").Measured[0]; total < 1.5 || total > 3.0 {
		t.Errorf("total normalized throughput = %.2f, want ≈2 (Table 2)", total)
	}
	for _, m := range []string{"shufflenet", "a2c", "gpt2", "vgg16"} {
		if v := claimOf(t, tbl, "table2."+m).Measured[0]; v <= 0 || v > 1.01 {
			t.Errorf("normalized[%s] = %v, want in (0, 1]", m, v)
		}
	}
	if !strings.Contains(tbl.String(), "total") {
		t.Error("Table 2 output missing total row")
	}
}

func TestTable4Shape(t *testing.T) {
	tbl := tiny().Table4()
	if len(tbl.Rows) != 3 {
		t.Fatalf("Table 4 ran %d policies, want 3", len(tbl.Rows))
	}
	// Muri-S should not lose to SRTF on the saturated testbed window.
	if v := claimOf(t, tbl, "table4.jct.srtf").Measured[0]; v < 1 {
		t.Errorf("SRTF / Muri-S avg JCT = %v, want ≥ 1 on testbed window", v)
	}
}

func TestTable5Shape(t *testing.T) {
	tbl := tiny().Table5()
	if v := claimOf(t, tbl, "table5.jct.themis").Measured[0]; v < 1 {
		t.Errorf("Themis / Muri-L avg JCT = %v, want ≥ 1 on testbed window", v)
	}
}

func TestFigure8SeriesPresent(t *testing.T) {
	results, tbl := tiny().Figure8()
	for _, r := range results {
		if len(r.Series) == 0 {
			t.Errorf("%s has empty series", r.Policy)
		}
	}
	if len(tbl.Rows) != 6 {
		t.Errorf("Figure 8 rows = %d, want 6 policies", len(tbl.Rows))
	}
}

func TestFigure13SpeedupGrowsWithJobTypes(t *testing.T) {
	opt := tiny()
	opt.MaxJobs = 120
	tbl := opt.Figure13()
	if len(tbl.Rows) != 4 {
		t.Fatalf("Figure 13 has %d points, want 4", len(tbl.Rows))
	}
	one := claimOf(t, tbl, "figure13.srtf.types1").Measured[0]
	four := claimOf(t, tbl, "figure13.srtf.types4").Measured[0]
	// The four-type mix should beat the one-type mix for Muri-S (the
	// paper's headline sensitivity result).
	if four <= one {
		t.Errorf("speedup(4 types)=%.2f not greater than speedup(1 type)=%.2f", four, one)
	}
	// With one job type Muri must roughly match the baseline, never be
	// dramatically worse.
	if one < 0.8 {
		t.Errorf("speedup with 1 job type = %.2f, want ≥ 0.8 (Muri ≈ SRTF)", one)
	}
}

func TestFigure14NoiseFreeIsUnity(t *testing.T) {
	opt := tiny()
	opt.MaxJobs = 120
	tbl := opt.Figure14()
	if c := claimOf(t, tbl, "figure14.noise0"); c.Measured != (Range{1, 1}) {
		t.Errorf("noise-free JCT and makespan = %v, want exactly 1.0", c.Measured)
	}
	// High noise must not break the run (values stay finite and positive).
	if c := claimOf(t, tbl, "figure14.jct"); c.Measured[0] <= 0 || c.Measured[1] > 5 {
		t.Errorf("norm JCT over the noise sweep = %v, out of plausible range", c.Measured)
	}
}

func TestTableStringAligned(t *testing.T) {
	tbl := Table{
		Title:  "t",
		Header: []string{"a", "longheader"},
		Rows:   [][]string{{"xxxxxx", "y"}},
	}
	s := tbl.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[1], "a     ") {
		t.Errorf("header not padded: %q", lines[1])
	}
}

func TestQuickAndFullOptions(t *testing.T) {
	if Full().capacity() != 64 {
		t.Errorf("Full capacity = %d, want 64", Full().capacity())
	}
	if Quick().MaxJobs != 300 {
		t.Errorf("Quick MaxJobs = %d, want 300", Quick().MaxJobs)
	}
	cfg := Quick().simConfig()
	if cfg.Interval != 6*time.Minute {
		t.Errorf("interval = %v, want 6m", cfg.Interval)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	results, _ := tiny().Figure8()
	var buf strings.Builder
	if err := WriteSeriesCSV(&buf, results[0]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has %d lines, want header + samples", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,queue_len,blocking_index") {
		t.Errorf("header = %q", lines[0])
	}
	if got := strings.Count(lines[1], ","); got != 8 {
		t.Errorf("data row has %d commas, want 8", got)
	}
}

// TestSweepDeterministic guards the parallel per-trace harness: two runs
// of the same sweep must render byte-identical tables regardless of how
// the worker pool interleaves traces. Figure 9 exercises the generic
// sweepTraces path, Figure 13 the indexed fan-out over job-type mixes.
func TestSweepDeterministic(t *testing.T) {
	opt := tiny()
	opt.MaxJobs = 60
	first := opt.Figure9()
	second := opt.Figure9()
	if first.String() != second.String() {
		t.Errorf("Figure 9 sweep not deterministic:\n%s\nvs\n%s", first.String(), second.String())
	}
	f13a := opt.Figure13()
	f13b := opt.Figure13()
	if f13a.String() != f13b.String() {
		t.Errorf("Figure 13 sweep not deterministic:\n%s\nvs\n%s", f13a.String(), f13b.String())
	}
}

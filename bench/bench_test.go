package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"muri/internal/sched"
	"muri/internal/sim"
	"muri/internal/trace"
)

func mustCatalogue(t *testing.T) *catalogue {
	t.Helper()
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestCatalogueContract holds BENCHMARK.json to the driver's schema
// limits, so a catalogue edit that the driver would refuse fails here.
func TestCatalogueContract(t *testing.T) {
	cat := mustCatalogue(t)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(cat.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range cat.Workloads {
		if !metricName.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
		_, isSim := findSim(w.Name)
		_, isDaemon := findDaemon(w.Name)
		if !isSim && !isDaemon {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if n := len(cat.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(cat.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range cat.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef{}, cat.EndToEnd...), cat.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for name := range exactMetrics {
		if !declared(cat.PerLayer, name) {
			t.Errorf("exact metric %q is not in the catalogue", name)
		}
	}
	for name := range demotedBounds {
		if !declared(cat.PerLayer, name) {
			t.Errorf("bounded metric %q is not in the catalogue", name)
		}
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", cat.RunSeconds)
	}
}

// TestWrappedPolicyEquivalent proves the Plan-timing wrapper changes no
// decision: the engine and the simulator type-assert their policy for
// DecisionSink (muri-l-scale), PriorityKeyer (srtf) and Observe
// (gittins), and a wrapper that dropped one would steer the run apart.
func TestWrappedPolicyEquivalent(t *testing.T) {
	gc := trace.PhillyConfigs(64)[0]
	gc.Jobs = 120
	tr := trace.Generate(gc)
	policies := map[string]func() sched.Policy{
		"muri-l-scale": func() sched.Policy { return sched.NewMuriLScale(4) },
		"srtf":         sched.SRTF,
		"gittins":      func() sched.Policy { return sched.NewGittins() },
	}
	for name, mk := range policies {
		bare, wrapped := newDecisionHash(), newDecisionHash()
		cfg := sim.DefaultConfig()
		cfg.EventDriven = true
		cfg.Observer = bare.observe
		want := sim.Run(cfg, tr, mk())
		cfg.Observer = wrapped.observe
		pt := &planTimer{inner: mk()}
		got := sim.Run(cfg, tr, pt)
		if !sameOutcome(want, got) {
			t.Errorf("%s: wrapped summary %+v, bare %+v", name, got.Summary, want.Summary)
		}
		if !bare.equal(wrapped) || bare.n == 0 {
			t.Errorf("%s: decision hash %08x over %d, bare %08x over %d", name,
				wrapped.h.Sum32(), wrapped.n, bare.h.Sum32(), bare.n)
		}
		if len(pt.durs) != want.Engine.Rounds || pt.Name() != name {
			t.Errorf("%s: wrapper %q timed %d Plan calls in %d rounds", name, pt.Name(), len(pt.durs), want.Engine.Rounds)
		}
	}
}

// TestSmokeSet runs every workload through both passes at smoke size
// and checks the catalogue from the emitting side: every declared name
// exactly once per workload, nothing undeclared (run.set and run.finish
// turn either into a problem), and the bypass workloads really bypass.
func TestSmokeSet(t *testing.T) {
	cat := mustCatalogue(t)
	rf, err := runSet(cat, 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cat.Workloads {
		r := rf.Workloads[w.Name]
		if r == nil {
			t.Fatalf("%s: no run", w.Name)
		}
		if !r.Correct {
			t.Errorf("%s: wrong outputs: %v", w.Name, r.Problems)
		}
		if r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d", w.Name, r.Attempted, r.Failed)
		}
		if len(r.EndToEnd) != len(cat.EndToEnd) || len(r.PerLayer) != len(cat.PerLayer) {
			t.Errorf("%s: emitted %d+%d metrics, catalogue has %d+%d", w.Name,
				len(r.EndToEnd), len(r.PerLayer), len(cat.EndToEnd), len(cat.PerLayer))
		}
		for name, v := range r.EndToEnd {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", w.Name, name, v)
			}
		}
		for _, traced := range []bool{false, true} {
			line, err := driverLine(cat, r, traced)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line, &got); err != nil || len(got) != 4 {
				t.Errorf("%s: driver line %s: %v", w.Name, line, err)
			}
		}
	}
	for name, v := range rf.Workloads["sim-bypass"].PerLayer {
		grouping := strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "interleave.") || strings.HasPrefix(name, "blossom.")
		if grouping && v != 0 {
			t.Errorf("sim-bypass: %s = %v, want 0", name, v)
		}
	}
	for name, v := range rf.Workloads["daemon-churn"].PerLayer {
		if strings.HasPrefix(name, "wal.") && v != 0 {
			t.Errorf("daemon-churn: %s = %v, want 0", name, v)
		}
	}
	if rf.Workloads["daemon-durable"].PerLayer["wal.appends"] == 0 {
		t.Error("daemon-durable appended nothing to its WAL")
	}
	if rf.Workloads["sim-scale"].PerLayer["core.plan_rounds"] == 0 {
		t.Error("sim-scale never reached the incremental planner")
	}
}

func TestCompare(t *testing.T) {
	cat := mustCatalogue(t)
	mk := func() *resultFile {
		rf := &resultFile{Workloads: make(map[string]*run)}
		for _, w := range cat.Workloads {
			r := newRun(cat, w.Name)
			for _, m := range cat.EndToEnd {
				r.EndToEnd[m.Name] = 10
			}
			for _, m := range cat.PerLayer {
				r.PerLayer[m.Name] = 10
			}
			rf.Workloads[w.Name] = r
		}
		return rf
	}
	a := mk()
	var out bytes.Buffer
	if worse := compare(&out, cat, a, mk()); worse != 0 {
		t.Errorf("identical sets: %d worse\n%s", worse, out.String())
	}
	rows := len(cat.Workloads) * (len(cat.EndToEnd) + len(cat.PerLayer))
	if got := strings.Count(out.String(), "\n") - 1; got != rows {
		t.Errorf("%d rows, want %d", got, rows)
	}

	b := mk()
	b.Workloads["sim-exact"].EndToEnd["wall_s"] = 12.4                 // within 25%
	b.Workloads["sim-scale"].EndToEnd["wall_s"] = 12.6                 // beyond it
	b.Workloads["sim-bypass"].EndToEnd["wall_s"] = 7                   // better
	b.Workloads["sim-exact"].PerLayer["avg_jct_h"] = 10.000001         // exact metric moved
	b.Workloads["daemon-churn"].PerLayer["avg_jct_h"] = 11             // exact only on sim-*
	b.Workloads["daemon-churn"].PerLayer["dispatch_p50_ms"] = 11.5     // demoted bound 10%
	b.Workloads["daemon-durable"].PerLayer["server.round_p99_ms"] = 99 // unbounded
	out.Reset()
	if worse := compare(&out, cat, a, b); worse != 3 {
		t.Errorf("%d worse, want 3 (sim-scale wall_s, sim-exact avg_jct_h, daemon-churn dispatch_p50_ms)\n%s", worse, out.String())
	}

	c := mk()
	c.Workloads["daemon-durable"].invalid("load generator ran late")
	c.Workloads["daemon-durable"].EndToEnd["wall_s"] = 100
	out.Reset()
	if worse := compare(&out, cat, a, c); worse != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("invalid run: %d worse, want its rows unresolved\n%s", worse, out.String())
	}
}

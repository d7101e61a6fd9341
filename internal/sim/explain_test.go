package sim

import (
	"testing"

	"muri/internal/engine"
	"muri/internal/explain"
	"muri/internal/job"
	"muri/internal/sched"
)

// TestAttributionSumsToJCT is the provenance property test: with the
// explain builder attached, every completed job's per-cause wait
// attribution must sum exactly — to the nanosecond — to its JCT
// (FinishedAt − Submit), under chaos (crashes, transient faults,
// stragglers) and in both clock modes. No double counting, no gaps.
func TestAttributionSumsToJCT(t *testing.T) {
	tr := chaosTrace()
	for _, eventDriven := range []bool{false, true} {
		name := "interval"
		if eventDriven {
			name = "event-driven"
		}
		t.Run(name, func(t *testing.T) {
			cfg := chaosConfig(chaosPlan(7, 4))
			cfg.EventDriven = eventDriven
			b := explain.NewBuilder()
			cfg.Record = b.Apply
			r := Run(cfg, tr, sched.NewMuriL())
			if r.Faults.Requeues == 0 {
				t.Fatal("chaos plan exercised no faults; the property run is too tame")
			}
			known := make(map[string]bool, len(explain.Causes))
			for _, c := range explain.Causes {
				known[c] = true
			}
			var waited int64
			for _, j := range r.Jobs {
				if j.State != job.Done {
					t.Fatalf("job %d did not finish", j.ID)
				}
				at, ok := b.AttributionOf(int64(j.ID))
				if !ok {
					t.Fatalf("job %d unknown to the explain builder", j.ID)
				}
				if !at.Done {
					t.Errorf("job %d finished but attribution says live", j.ID)
				}
				jct := int64(j.FinishedAt - j.Submit)
				if at.Total != jct {
					t.Errorf("job %d: attributed %d ns ≠ jct %d ns (Δ=%d)",
						j.ID, at.Total, jct, at.Total-jct)
				}
				var sum int64
				for c, v := range at.PerCause {
					if !known[c] {
						t.Errorf("job %d: unknown cause %q", j.ID, c)
					}
					if v < 0 {
						t.Errorf("job %d: negative attribution %d for %q", j.ID, v, c)
					}
					sum += v
				}
				if sum != at.Total {
					t.Errorf("job %d: per-cause sum %d ≠ total %d", j.ID, sum, at.Total)
				}
				if at.PerCause[explain.CauseService] <= 0 {
					t.Errorf("job %d completed with zero service time", j.ID)
				}
				waited += at.Total - at.PerCause[explain.CauseService]
			}
			if waited == 0 {
				t.Error("no job waited at all on an oversubscribed cluster")
			}
		})
	}
}

// TestAttributionSumsToJCTWithoutFaults covers the fault-free path: the
// same exactness property on the default interval clock with no plan.
func TestAttributionSumsToJCTWithoutFaults(t *testing.T) {
	tr := chaosTrace()
	cfg := chaosConfig(nil)
	b := explain.NewBuilder()
	cfg.Record = b.Apply
	r := Run(cfg, tr, sched.NewMuriL())
	for _, j := range r.Jobs {
		at, ok := b.AttributionOf(int64(j.ID))
		if !ok {
			t.Fatalf("job %d unknown to the explain builder", j.ID)
		}
		if jct := int64(j.FinishedAt - j.Submit); at.Total != jct {
			t.Errorf("job %d: attributed %d ns ≠ jct %d ns", j.ID, at.Total, jct)
		}
	}
}

// TestExplainBitIdentity pins the standing guarantee: attaching the
// explain builder (which also enables the engine's cause annotations)
// must not perturb the run — metrics, per-job completions, fault
// counters, and the rendered decision stream all stay byte-identical.
func TestExplainBitIdentity(t *testing.T) {
	tr := chaosTrace()
	run := func(withExplain bool) (string, []string) {
		cfg := chaosConfig(chaosPlan(7, 4))
		var stream []string
		cfg.Observer = func(d engine.Decision) { stream = append(stream, d.String()) }
		if withExplain {
			cfg.Record = explain.NewBuilder().Apply
		}
		return faultFingerprint(Run(cfg, tr, sched.NewMuriL())), stream
	}
	refFP, refStream := run(false)
	gotFP, gotStream := run(true)
	if gotFP != refFP {
		t.Fatalf("explain builder perturbed the run\nwithout:\n%.2000s\nwith:\n%.2000s", refFP, gotFP)
	}
	if len(gotStream) != len(refStream) {
		t.Fatalf("decision stream length changed: %d without, %d with", len(refStream), len(gotStream))
	}
	for i := range refStream {
		if refStream[i] != gotStream[i] {
			t.Fatalf("decision %d diverged\nwithout: %s\nwith:    %s", i, refStream[i], gotStream[i])
		}
	}
}

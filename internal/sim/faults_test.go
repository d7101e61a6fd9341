package sim

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/faults"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/sched"
	"muri/internal/telemetry"
	"muri/internal/trace"
	"muri/internal/wal"
)

// faultFingerprint extends the metric fingerprint with the failure-model
// counters, so two runs agreeing here agree on every fault applied.
func faultFingerprint(r Result) string {
	return fingerprint(r) + fmt.Sprintf("faults=%+v\n", r.Faults)
}

// chaosPlan is a deliberately hostile plan for a small cluster: frequent
// crashes, slow repairs, transient job faults, and stragglers.
func chaosPlan(seed int64, machines int) *faults.Plan {
	return faults.NewPlan(faults.Config{
		Seed:               seed,
		Machines:           machines,
		MTBF:               6 * time.Hour,
		MTTR:               45 * time.Minute,
		Horizon:            10 * 24 * time.Hour,
		TransientFaultProb: 0.08,
		StragglerFraction:  0.25,
		StragglerSlowdown:  1.3,
	})
}

// chaosConfig is a 4×4 cluster small enough that crashes bite.
func chaosConfig(plan *faults.Plan) Config {
	cfg := DefaultConfig()
	cfg.Machines = 4
	cfg.GPUsPerMachine = 4
	cfg.Faults = plan
	return cfg
}

func chaosTrace() trace.Trace {
	cfg := trace.PhillyConfigs(16)[0]
	cfg.Jobs = 40
	return trace.Generate(cfg)
}

// TestZeroPlanBitIdentity is the ISSUE's compatibility guard: running
// with a nil plan, and with an explicitly empty plan, must produce
// results bit-identical to each other (and hence to a build without the
// failure model, whose code paths are all gated on the plan).
func TestZeroPlanBitIdentity(t *testing.T) {
	tr := determinismTrace()
	for _, eventDriven := range []bool{false, true} {
		name := "interval"
		if eventDriven {
			name = "event-driven"
		}
		t.Run(name, func(t *testing.T) {
			base := DefaultConfig()
			base.EventDriven = eventDriven
			withNil := base
			withNil.Faults = nil
			withEmpty := base
			withEmpty.Faults = faults.NewPlan(faults.Config{Seed: 99, Machines: base.Machines})

			ref := faultFingerprint(Run(withNil, tr, sched.NewMuriL()))
			if got := faultFingerprint(Run(withEmpty, tr, sched.NewMuriL())); got != ref {
				t.Fatalf("empty plan perturbed the run\nnil:\n%.2000s\nempty:\n%.2000s", ref, got)
			}
			var zero Result
			if Run(withNil, tr, sched.NewMuriL()).Faults != zero.Faults {
				t.Fatal("nil-plan run reported nonzero fault stats")
			}
		})
	}
}

// TestFaultRecordsFoldToResult holds the one fault-ledger fold: the fault
// records a chaos run writes, folded through wal.FaultRecord.Count into a
// fresh ledger, equal Result.Faults in every counter a record carries
// (Repairs and WorkLost have none) and agree with the decision stream —
// one requeue decision per requeue, a fault requeue or dead letter per
// transient fault. As in the daemon's log, every machine-lost requeue comes
// after a loss record that lists its job. Plan 4 strikes job 0, whose
// faults a job ID alone would mistake for losses.
func TestFaultRecordsFoldToResult(t *testing.T) {
	tr := chaosTrace()
	for _, seed := range []int64{7, 4} {
		for _, eventDriven := range []bool{false, true} {
			t.Run(fmt.Sprintf("plan%d/event-driven=%t", seed, eventDriven), func(t *testing.T) {
				cfg := chaosConfig(chaosPlan(seed, 4))
				cfg.EventDriven = eventDriven
				var folded, decided metrics.FaultStats
				lost := map[int64]bool{} // listed by a loss record, not yet requeued
				lostRequeues := 0
				cfg.Record = func(r *wal.Record) {
					if r.Kind == wal.KindFault {
						r.Fault.Count(&folded)
						for _, id := range r.Fault.Jobs {
							lost[id] = true
						}
					}
					if r.Kind != wal.KindDecision {
						return
					}
					switch d := r.Decision; {
					case d.Action == string(engine.ActDeadletter):
						decided.Transient++
					case d.Action == string(engine.ActRequeue) && d.Reason == string(engine.ReasonFault):
						decided.Transient++
						decided.Requeues++
					case d.Action == string(engine.ActRequeue):
						for _, id := range d.Jobs {
							if !lost[id] {
								t.Errorf("v=%d: machine-lost requeue of job %d with no loss record listing it", r.V, id)
							}
							delete(lost, id)
						}
						decided.Requeues++
						lostRequeues++
					}
				}
				res := Run(cfg, tr, sched.NewMuriL())
				want := res.Faults
				want.Repairs, want.WorkLost = 0, 0
				if folded != want {
					t.Errorf("folded fault records = %+v, Result.Faults = %+v", folded, res.Faults)
				}
				if folded.Transient != decided.Transient || folded.Requeues != decided.Requeues {
					t.Errorf("folded fault records = %+v, decisions = %+v", folded, decided)
				}
				if len(lost) != 0 {
					t.Errorf("loss records listed %d jobs that were never requeued", len(lost))
				}
				if res.Faults.Crashes == 0 || res.Faults.Transient == 0 || lostRequeues == 0 {
					t.Fatalf("chaos plan too tame to hold the fold: %+v, %d machine-lost requeues", res.Faults, lostRequeues)
				}
			})
		}
	}
}

// TestFaultPlanDeterministic: a fixed nonzero seed must give two runs
// with identical schedules, metrics, and fault counters.
func TestFaultPlanDeterministic(t *testing.T) {
	tr := chaosTrace()
	run := func() string {
		return faultFingerprint(Run(chaosConfig(chaosPlan(7, 4)), tr, sched.NewMuriL()))
	}
	first := run()
	for rep := 0; rep < 2; rep++ {
		if got := run(); got != first {
			t.Fatalf("faulted run %d diverged\nfirst:\n%.2000s\ngot:\n%.2000s", rep+2, first, got)
		}
	}
}

// TestCrashRecoveryProperty: across many seeds and policies, every run
// under chaos must terminate with all work conserved — each job Done
// with DoneIterations == Iterations — and must actually exercise the
// fault machinery.
func TestCrashRecoveryProperty(t *testing.T) {
	tr := chaosTrace()
	policies := []struct {
		name string
		mk   func() sched.Policy
	}{
		{"muri-l", func() sched.Policy { return sched.NewMuriL() }},
		{"srtf", sched.SRTF},
	}
	sawCrash, sawTransient := false, false
	for seed := int64(1); seed <= 8; seed++ {
		for _, p := range policies {
			cfg := chaosConfig(chaosPlan(seed, 4))
			cfg.EventDriven = seed%2 == 0
			r := Run(cfg, tr, p.mk())
			if r.Summary.Jobs != len(tr.Specs) {
				t.Fatalf("seed=%d %s: %d/%d jobs finished", seed, p.name, r.Summary.Jobs, len(tr.Specs))
			}
			for _, j := range r.Jobs {
				if j.State != job.Done || j.DoneIterations != j.Iterations {
					t.Fatalf("seed=%d %s: job %d lost work: %d/%d iterations, state %v",
						seed, p.name, j.ID, j.DoneIterations, j.Iterations, j.State)
				}
				if j.FinishedAt < j.Submit {
					t.Fatalf("seed=%d %s: job %d finished before submit", seed, p.name, j.ID)
				}
			}
			if r.Faults.Crashes > 0 {
				sawCrash = true
			}
			if r.Faults.Transient > 0 {
				sawTransient = true
			}
			if r.Faults.Repairs > r.Faults.Crashes {
				t.Fatalf("seed=%d %s: %d repairs for %d crashes", seed, p.name, r.Faults.Repairs, r.Faults.Crashes)
			}
		}
	}
	if !sawCrash || !sawTransient {
		t.Fatalf("chaos plans never exercised the model: crashes=%v transient=%v", sawCrash, sawTransient)
	}
}

// tracedChaosRun replays the chaos trace under Muri-L on plan (3, 4)
// with a tracer and the record sink attached, and returns the result with
// the parsed trace export.
func tracedChaosRun(t *testing.T, record func(*wal.Record)) (Result, telemetry.File) {
	t.Helper()
	tr := telemetry.NewTracer(0)
	cfg := chaosConfig(chaosPlan(3, 4))
	cfg.Trace = tr
	cfg.Record = record
	r := Run(cfg, chaosTrace(), sched.NewMuriL())
	data, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	f, err := telemetry.ParseTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r, f
}

// TestFaultTimelineEvents: the trace's fault row carries one instant per
// machine crash, repair and transient job fault, and the counts line up
// with the run's fault stats.
func TestFaultTimelineEvents(t *testing.T) {
	r, f := tracedChaosRun(t, nil)
	crashes, repairs, transient := 0, 0, 0
	for _, e := range f.Instants() {
		switch {
		case e.Cat != "fault":
		case strings.HasPrefix(e.Name, "crash "):
			crashes++
		case strings.HasPrefix(e.Name, "repair "):
			repairs++
		case strings.HasPrefix(e.Name, "transient fault"):
			transient++
		}
	}
	if crashes != r.Faults.Crashes {
		t.Errorf("trace has %d crash instants, stats say %d crashes", crashes, r.Faults.Crashes)
	}
	if repairs != r.Faults.Repairs {
		t.Errorf("trace has %d repair instants, stats say %d", repairs, r.Faults.Repairs)
	}
	if transient != r.Faults.Transient {
		t.Errorf("trace has %d transient-fault instants, stats say %d", transient, r.Faults.Transient)
	}
	if r.Faults.Crashes == 0 || r.Faults.Transient == 0 {
		t.Errorf("chaos run recorded %d crashes and %d transient faults; want both", r.Faults.Crashes, r.Faults.Transient)
	}
}

// TestFaultTimelineMachineAttribution: every placement names the machines
// it happened on. Each launch instant in the trace carries the unit's full
// allocation, and each fault record names its origin: the crashed machine
// on a loss, the machines hosting the unit on a transient fault.
func TestFaultTimelineMachineAttribution(t *testing.T) {
	machines := regexp.MustCompile(`^machine-\d+(,machine-\d+)*$`)
	faultRecords := 0
	_, f := tracedChaosRun(t, func(r *wal.Record) {
		if r.Kind != wal.KindFault {
			return
		}
		faultRecords++
		if !machines.MatchString(r.Fault.Origin) {
			t.Errorf("fault record %+v names origin %q", *r.Fault, r.Fault.Origin)
		}
	})
	launches := 0
	for _, e := range f.Instants() {
		if e.Name != "launch" {
			continue
		}
		launches++
		if m, _ := e.Args["machines"].(string); !machines.MatchString(m) {
			t.Errorf("launch instant at %vµs names machines %q", e.TS, m)
		}
	}
	if launches == 0 || faultRecords == 0 {
		t.Errorf("%d launch instants and %d fault records; want both", launches, faultRecords)
	}
}

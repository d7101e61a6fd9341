package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/faults"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/sched"
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

// TestFaultTimelineEvents: with recording enabled, the timeline carries
// machine-level "fault"/"repair" markers and per-job fault entries, and
// fault counters line up with the recorded events.
func TestFaultTimelineEvents(t *testing.T) {
	tr := chaosTrace()
	cfg := chaosConfig(chaosPlan(3, 4))
	cfg.RecordTimeline = true
	r := Run(cfg, tr, sched.NewMuriL())
	machineFaults, machineRepairs, jobFaults := 0, 0, 0
	for _, e := range r.Timeline {
		machineEvent := strings.HasPrefix(e.Unit, "machine-")
		switch e.Kind {
		case "fault":
			if machineEvent {
				machineFaults++
			} else {
				jobFaults++
			}
		case "repair":
			if !machineEvent {
				t.Errorf("repair event on non-machine unit %q", e.Unit)
			}
			machineRepairs++
		}
	}
	if machineFaults != r.Faults.Crashes {
		t.Errorf("timeline has %d machine faults, stats say %d crashes", machineFaults, r.Faults.Crashes)
	}
	if machineRepairs != r.Faults.Repairs {
		t.Errorf("timeline has %d repairs, stats say %d", machineRepairs, r.Faults.Repairs)
	}
	if jobFaults != r.Faults.Requeues {
		t.Errorf("timeline has %d job fault events, stats say %d requeues", jobFaults, r.Faults.Requeues)
	}
	if r.Faults.Crashes == 0 {
		t.Error("chaos run recorded no crashes")
	}
}

// TestFaultTimelineMachineAttribution: every placement-bearing timeline
// event names the machine(s) it happened on. Machine-level fault/repair
// events carry the crashed machine, crash-induced job faults carry the
// machine whose loss requeued them, and start/restart events carry the
// unit's full allocation; submit and finish events have no placement and
// stay blank.
func TestFaultTimelineMachineAttribution(t *testing.T) {
	tr := chaosTrace()
	cfg := chaosConfig(chaosPlan(3, 4))
	cfg.RecordTimeline = true
	r := Run(cfg, tr, sched.NewMuriL())
	attributed := 0
	for _, e := range r.Timeline {
		switch e.Kind {
		case "submit", "finish":
			if e.Machine != "" {
				t.Errorf("%s event carries machine %q", e.Kind, e.Machine)
			}
			continue
		case "start", "restart", "fault", "repair":
			if e.Machine == "" {
				t.Errorf("%s event at %v (job %d, unit %q) has no machine attribution",
					e.Kind, e.Time, e.Job, e.Unit)
				continue
			}
		}
		attributed++
		for _, m := range strings.Split(e.Machine, ",") {
			if !strings.HasPrefix(m, "machine-") {
				t.Errorf("%s event names malformed machine %q", e.Kind, m)
			}
		}
		// Machine-level events attribute to exactly the machine in Unit.
		if strings.HasPrefix(e.Unit, "machine-") && e.Machine != e.Unit {
			t.Errorf("machine-level %s on %q attributed to %q", e.Kind, e.Unit, e.Machine)
		}
	}
	if attributed == 0 {
		t.Error("no timeline event carries machine attribution")
	}
}

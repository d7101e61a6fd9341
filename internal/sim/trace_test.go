package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"muri/internal/faults"
	"muri/internal/sched"
	"muri/internal/telemetry"
	"muri/internal/trace"
	"muri/internal/wal"
)

// traceRun simulates a 100-job Philly trace under Muri-L with the given
// tracer and record sink attached (either may be nil).
func traceRun(tr *telemetry.Tracer, record func(*wal.Record)) Result {
	cfg := DefaultConfig()
	cfg.Trace = tr
	cfg.Record = record
	tc := trace.PhillyConfigs(64)[0]
	tc.Jobs = 100
	return Run(cfg, trace.Generate(tc), sched.NewMuriL())
}

// TestTraceShowsInterleaving is the acceptance criterion for the stage
// tracer: a 100-job run must produce trace JSON in which at least one
// group process holds two spans on distinct resource rows that overlap
// in time — the visual proof that interleaving actually interleaves.
func TestTraceShowsInterleaving(t *testing.T) {
	tr := telemetry.NewTracer(0)
	res := traceRun(tr, nil)
	if res.Summary.Jobs != 100 {
		t.Fatalf("run incomplete: %d/100 jobs", res.Summary.Jobs)
	}
	data, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	f, err := telemetry.ParseTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("export is not valid trace JSON: %v", err)
	}
	procs := f.ProcessNames()
	threads := f.ThreadNames()
	// Scan group processes for a pair of time-overlapping spans on
	// distinct resource rows.
	overlaps := 0
	spans := f.Spans()
	for i, a := range spans {
		if !strings.HasPrefix(procs[a.PID], "group ") {
			continue
		}
		for _, b := range spans[i+1:] {
			if b.PID != a.PID || b.TID == a.TID {
				continue
			}
			if a.TS < b.TS+b.Dur && b.TS < a.TS+a.Dur {
				overlaps++
				if overlaps == 1 {
					ra, rb := threads[[2]int{a.PID, a.TID}], threads[[2]int{b.PID, b.TID}]
					if ra == rb {
						t.Errorf("overlapping rows share resource name %q", ra)
					}
				}
			}
		}
	}
	if overlaps == 0 {
		t.Error("no group process shows overlapping spans on distinct resource rows")
	}
	// Scheduler rounds and decisions must be present too.
	rounds, decisions := 0, 0
	for _, e := range f.Instants() {
		switch e.Cat {
		case "round":
			rounds++
		case "decision":
			decisions++
		}
	}
	if rounds == 0 {
		t.Error("trace holds no scheduler-round instants")
	}
	if decisions == 0 {
		t.Error("trace holds no decision instants")
	}
}

// TestTraceDoesNotPerturbRun pins the determinism guarantee: a run with
// a tracer attached must be bit-identical, in everything the metrics
// depend on and in its record stream, to the same run without one.
func TestTraceDoesNotPerturbRun(t *testing.T) {
	var logs [2]bytes.Buffer
	var res [2]Result
	for i, tr := range []*telemetry.Tracer{nil, telemetry.NewTracer(0)} {
		enc := json.NewEncoder(&logs[i])
		res[i] = traceRun(tr, func(r *wal.Record) {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if fingerprint(res[0]) != fingerprint(res[1]) {
		t.Error("attaching a tracer changed the simulation outcome")
	}
	if logs[0].Len() == 0 || !bytes.Equal(logs[0].Bytes(), logs[1].Bytes()) {
		t.Errorf("attaching a tracer changed the record stream (%d bytes without, %d with)",
			logs[0].Len(), logs[1].Len())
	}
}

// TestTraceDeterministicAcrossRuns pins the export itself: two identical
// runs must produce byte-identical trace JSON.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	a, b := telemetry.NewTracer(0), telemetry.NewTracer(0)
	traceRun(a, nil)
	traceRun(b, nil)
	ja, err := a.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("identical runs exported different trace JSON")
	}
}

// TestTraceFaultInstants checks that machine crashes and repairs from a
// failure plan appear as instant events on the fault row.
func TestTraceFaultInstants(t *testing.T) {
	tr := telemetry.NewTracer(0)
	cfg := DefaultConfig()
	cfg.Trace = tr
	plan := faults.NewPlan(faults.Config{
		Seed:               7,
		Machines:           8,
		MTBF:               6 * time.Hour,
		MTTR:               30 * time.Minute,
		Horizon:            24 * time.Hour,
		TransientFaultProb: 0.1,
	})
	cfg.Faults = plan
	tc := trace.PhillyConfigs(64)[0]
	tc.Jobs = 60
	res := Run(cfg, trace.Generate(tc), sched.NewMuriL())
	if res.Faults.Crashes == 0 {
		t.Skip("plan produced no crashes in horizon; nothing to assert")
	}
	data, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	f, err := telemetry.ParseTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	crashes, repairs := 0, 0
	for _, e := range f.Instants() {
		if e.Cat != "fault" {
			continue
		}
		switch {
		case strings.HasPrefix(e.Name, "crash "):
			crashes++
		case strings.HasPrefix(e.Name, "repair "):
			repairs++
		}
	}
	if crashes != res.Faults.Crashes {
		t.Errorf("trace shows %d crash instants, run counted %d", crashes, res.Faults.Crashes)
	}
	if repairs != res.Faults.Repairs {
		t.Errorf("trace shows %d repair instants, run counted %d", repairs, res.Faults.Repairs)
	}
}

package engine_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/executor"
	"muri/internal/faults"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/server"
	"muri/internal/sim"
	"muri/internal/trace"
	"muri/internal/wal"
)

// The parity script: one 8-GPU machine under SRTF, replayed through both
// drivers. A long job starts; a shorter job arrives and preempts it; the
// short job finishes and the long job resumes; the machine crashes (the
// injected fault) and the long job is requeued without spending retry
// budget; the machine returns and the job relaunches. Both drivers must
// emit exactly this decision stream, byte for byte.
var parityWant = []string{
	"launch exclusive:1",
	"kill exclusive:1",
	"launch exclusive:2",
	"launch exclusive:1",
	"requeue 1 (machine-lost)",
	"launch exclusive:1",
}

// recordProjection renders the driver-neutral part of one record: one
// line per admitted job, decision, fault-ledger mutation or completion.
// The rest differs between the drivers by construction and is left out:
// cause records and a decision's Cause (provenance text names the lost
// machine in each driver's words, and wait-cause transitions follow each
// driver's round count); progress and group records (the daemon's
// checkpoints and executor bindings — the simulator has no executors);
// term and profile records (elections and profiling dry runs exist only
// live); and V/W and every other clock field (the daemon's virtual clock
// is scaled wall time). Admissions keep ID, model and GPUs only: the
// simulator derives iterations and stages from the trace.
func recordProjection(r *wal.Record) []string {
	switch {
	case r.Kind == wal.KindAdmit && r.Admit != nil:
		var out []string
		for _, it := range r.Admit.Items {
			out = append(out, fmt.Sprintf("admit %d %s %d", it.Spec.ID, it.Spec.Model, it.Spec.GPUs))
		}
		return out
	case r.Kind == wal.KindDecision && r.Decision != nil:
		d := r.Decision
		return []string{fmt.Sprintf("decision %d %s %s %v %s", d.Seq, d.Action, d.Key, d.Jobs, d.Reason)}
	case r.Kind == wal.KindFault && r.Fault != nil:
		f := r.Fault
		return []string{fmt.Sprintf("fault job=%d origin=%s jobs=%v faults=%d dead=%t",
			f.Job, f.Origin, f.Jobs, f.Faults, f.DeadLettered)}
	case r.Kind == wal.KindDone && r.Done != nil:
		return []string{fmt.Sprintf("done %d", r.Done.Job)}
	}
	return nil
}

// streamTap collects decision strings across goroutines (the daemon's
// observer fires from its schedule loop and connection handlers).
type streamTap struct {
	mu      sync.Mutex
	entries []string
}

func (s *streamTap) observe(d engine.Decision) {
	s.mu.Lock()
	s.entries = append(s.entries, d.String())
	s.mu.Unlock()
}

func (s *streamTap) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.entries...)
}

// simParityStream replays the script through the trace-driven simulator:
// arrivals come from the trace, the crash and repair from a hand-built
// fault plan. It returns the decision stream and the projected records.
func simParityStream(t *testing.T) (decisions, records []string) {
	t.Helper()
	tap := &streamTap{}
	cfg := sim.Config{
		Machines:       1,
		GPUsPerMachine: 8,
		Interval:       time.Minute,
		// Patience large enough that round-count-dependent starvation
		// boosts can never fire: the two drivers run different numbers of
		// (empty) rounds, so any bypass boost would diverge the streams.
		StarvationPatience: 1 << 30,
		Faults: &faults.Plan{Events: []faults.MachineEvent{
			{Time: 40 * time.Minute, Kind: faults.MachineCrash, Machine: 0},
			{Time: 45 * time.Minute, Kind: faults.MachineRepair, Machine: 0},
		}},
		Observer: tap.observe,
		Record:   func(r *wal.Record) { records = append(records, recordProjection(r)...) },
	}
	tr := trace.Trace{Name: "parity", Specs: []trace.Spec{
		{ID: 1, Submit: 0, Duration: 10 * time.Hour, GPUs: 8, Model: "gpt2"},
		{ID: 2, Submit: 2 * time.Minute, Duration: 30 * time.Minute, GPUs: 8, Model: "gpt2"},
	}}
	res := sim.Run(cfg, tr, sched.SRTF())
	if len(res.Jobs) != 2 {
		t.Fatalf("simulator finished %d jobs, want 2", len(res.Jobs))
	}
	if res.Faults.Crashes != 1 || res.Faults.Repairs != 1 || res.Faults.Requeues != 1 {
		t.Fatalf("simulator fault stats = %+v, want 1 crash / 1 repair / 1 requeue", res.Faults)
	}
	return tap.snapshot(), records
}

// serverParityStream replays the same script through the live daemon
// over loopback TCP, using status polls as barriers between steps and
// the chaos-injection API for the crash. It returns the decision stream
// and the projected records of the WAL recovered after Close.
func serverParityStream(t *testing.T) (decisions, records []string) {
	t.Helper()
	tap := &streamTap{}
	dir := t.TempDir()
	srv := server.New(server.Config{
		Policy:             sched.SRTF(),
		Interval:           20 * time.Millisecond,
		TimeScale:          0.0005,
		ReportEvery:        10 * time.Millisecond,
		StarvationPatience: 1 << 30,
		Observer:           tap.observe,
		Logf:               t.Logf,
		StateDir:           dir,
		SnapshotEvery:      time.Hour, // the whole log stays in Recovery.Records
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		srv.Close()
		wg.Wait()
	}()
	startExecutor := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			agent := &executor.Agent{MachineID: "machine-0", GPUs: 8, Logf: t.Logf}
			_ = agent.Run(ctx, addr)
		}()
	}
	startExecutor()

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor := func(desc string, cond func(proto.StatusAck) bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			st, err := c.Status()
			if err != nil {
				t.Fatal(err)
			}
			if cond(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; status %+v", desc, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	jobState := func(st proto.StatusAck, id int64) string {
		for _, j := range st.Jobs {
			if j.ID == id {
				return j.State
			}
		}
		return ""
	}
	waitFor("executor registration", func(st proto.StatusAck) bool { return st.Executors == 1 })

	// Explicit stage times skip the profiling dry run: the parity script
	// exercises scheduling, not the profiler. One virtual second per
	// iteration = 0.5ms wall at this time scale.
	stages := [4]time.Duration{250 * time.Millisecond, 250 * time.Millisecond,
		250 * time.Millisecond, 250 * time.Millisecond}
	submit := func(iters int64) {
		t.Helper()
		if _, err := c.SubmitSpec(proto.JobSpec{
			Model: "gpt2", GPUs: 8, Iterations: iters, Stages: stages,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Long job starts and runs.
	submit(1200)
	waitFor("job 1 running", func(st proto.StatusAck) bool { return jobState(st, 1) == "running" })
	// Shorter job arrives: SRTF preempts job 1.
	submit(100)
	waitFor("job 2 done", func(st proto.StatusAck) bool { return jobState(st, 2) == "done" })
	// Job 1 resumes on the freed machine.
	waitFor("job 1 resumed", func(st proto.StatusAck) bool { return jobState(st, 1) == "running" })
	// Injected fault: the machine crashes; job 1 is requeued without
	// spending retry budget.
	if err := c.InjectFault(0, "machine-0"); err != nil {
		t.Fatal(err)
	}
	waitFor("executor evicted", func(st proto.StatusAck) bool { return st.Executors == 0 })
	// The machine returns to service; job 1 relaunches and finishes.
	startExecutor()
	st, err := c.WaitAllDone(30*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 2 {
		t.Fatalf("done = %d, want 2", st.Done)
	}
	if st.Faults == nil || st.Faults.Crashes != 1 || st.Faults.Repairs != 1 || st.Faults.Requeues != 1 {
		t.Fatalf("daemon fault summary = %+v, want 1 crash / 1 repair / 1 requeue", st.Faults)
	}
	if st.Engine == nil || st.Engine.Launches != 4 || st.Engine.Preemptions != 1 || st.Engine.Requeues != 1 {
		t.Fatalf("daemon engine summary = %+v, want 4 launches / 1 preemption / 1 requeue", st.Engine)
	}
	srv.Close() // syncs the WAL tail
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || rec.Corruption != nil {
		t.Fatalf("recovery: snapshot %v, corruption %+v; want the whole log as records", rec.Snapshot != nil, rec.Corruption)
	}
	for i := range rec.Records {
		records = append(records, recordProjection(&rec.Records[i])...)
	}
	return tap.snapshot(), records
}

// TestDriverParity replays one scripted event sequence — arrivals, an
// SRTF preemption, and an injected machine fault — through both the
// simulator and the live daemon, and asserts the shared engine emitted
// byte-identical decision streams, and that both drivers wrote the same
// driver-neutral records: the simulator to its Config.Record sink, the
// daemon to its WAL. The machine loss is one record, ahead of the requeue.
func TestDriverParity(t *testing.T) {
	simStream, simRecords := simParityStream(t)
	srvStream, srvRecords := serverParityStream(t)
	if !equalStrings(simStream, parityWant) {
		t.Errorf("simulator stream = %v, want %v", simStream, parityWant)
	}
	if !equalStrings(srvStream, parityWant) {
		t.Errorf("daemon stream = %v, want %v", srvStream, parityWant)
	}
	if !equalStrings(simStream, srvStream) {
		t.Errorf("streams diverge:\n  sim    = %v\n  daemon = %v", simStream, srvStream)
	}
	if !equalStrings(simRecords, srvRecords) {
		t.Errorf("records diverge:\n  sim    = %q\n  daemon = %q", simRecords, srvRecords)
	}
}

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
	"muri/internal/profile"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/server"
	"muri/internal/sim"
	"muri/internal/trace"
	"muri/internal/wal"
	"muri/internal/workload"
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

// simRun runs a trace through the simulator with the decision and record
// taps attached. It returns the decision stream, the projected records
// and the result.
func simRun(cfg sim.Config, tr trace.Trace, p sched.Policy) (decisions, records []string, res sim.Result) {
	tap := &streamTap{}
	cfg.Observer = tap.observe
	cfg.Record = func(r *wal.Record) { records = append(records, recordProjection(r)...) }
	res = sim.Run(cfg, tr, p)
	return tap.snapshot(), records, res
}

// simParityStream replays the script through the trace-driven simulator:
// arrivals come from the trace, the crash and repair from a hand-built
// fault plan. It returns the decision stream and the projected records.
func simParityStream(t *testing.T) (decisions, records []string) {
	t.Helper()
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
	}
	tr := trace.Trace{Name: "parity", Specs: []trace.Spec{
		{ID: 1, Submit: 0, Duration: 10 * time.Hour, GPUs: 8, Model: "gpt2"},
		{ID: 2, Submit: 2 * time.Minute, Duration: 30 * time.Minute, GPUs: 8, Model: "gpt2"},
	}}
	decisions, records, res := simRun(cfg, tr, sched.SRTF())
	if len(res.Jobs) != 2 {
		t.Fatalf("simulator finished %d jobs, want 2", len(res.Jobs))
	}
	if res.Faults.Crashes != 1 || res.Faults.Repairs != 1 || res.Faults.Requeues != 1 {
		t.Fatalf("simulator fault stats = %+v, want 1 crash / 1 repair / 1 requeue", res.Faults)
	}
	return decisions, records
}

// parityDaemon is a live daemon with a WAL, served over loopback TCP to
// one client, with the means to drive a parity script: executors,
// submissions and status polls as barriers between steps.
type parityDaemon struct {
	t      *testing.T
	tap    *streamTap
	dir    string
	srv    *server.Server
	addr   string
	c      *server.Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startParityDaemon serves a daemon on cfg, which it completes with the
// decision tap, a state directory and the parity timing (a 20ms round
// interval unless cfg sets one), and dials it. Stopping it is registered
// as a test cleanup.
func startParityDaemon(t *testing.T, cfg server.Config) *parityDaemon {
	t.Helper()
	d := &parityDaemon{t: t, tap: &streamTap{}, dir: t.TempDir()}
	if cfg.Interval == 0 {
		cfg.Interval = 20 * time.Millisecond
	}
	cfg.TimeScale = 0.0005
	cfg.ReportEvery = 10 * time.Millisecond
	cfg.StarvationPatience = 1 << 30
	cfg.Observer = d.tap.observe
	cfg.Logf = t.Logf
	cfg.StateDir = d.dir
	cfg.SnapshotEvery = time.Hour // the whole log stays in Recovery.Records
	d.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.addr = ln.Addr().String()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.srv.Serve(ln)
	}()
	d.ctx, d.cancel = context.WithCancel(context.Background())
	t.Cleanup(func() {
		d.cancel()
		d.srv.Close()
		d.wg.Wait()
	})
	if d.c, err = server.Dial(d.addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.c.Close() })
	return d
}

// startExecutor brings up the one 8-GPU machine, machine-0.
func (d *parityDaemon) startExecutor() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		agent := &executor.Agent{MachineID: "machine-0", GPUs: 8, Logf: d.t.Logf}
		_ = agent.Run(d.ctx, d.addr)
	}()
}

// waitFor polls the daemon's status until cond holds.
func (d *parityDaemon) waitFor(desc string, cond func(proto.StatusAck) bool) {
	d.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := d.c.Status()
		if err != nil {
			d.t.Fatal(err)
		}
		if cond(st) {
			return
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("timed out waiting for %s; status %+v", desc, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// jobIs reports whether job id is in state in st.
func jobIs(st proto.StatusAck, id int64, state string) bool {
	for _, j := range st.Jobs {
		if j.ID == id {
			return j.State == state
		}
	}
	return false
}

// submit submits one job on 8 GPUs. Explicit stage times skip the
// profiling dry run: the parity scripts exercise scheduling, not the
// profiler.
func (d *parityDaemon) submit(model string, iters int64, stages workload.StageTimes) {
	d.t.Helper()
	if _, err := d.c.SubmitSpec(proto.JobSpec{
		Model: model, GPUs: 8, Iterations: iters, Stages: stages,
	}); err != nil {
		d.t.Fatal(err)
	}
}

// finish waits for every job, closes the daemon (syncing the WAL tail)
// and returns its decision stream and the projected records of the WAL
// it recovers.
func (d *parityDaemon) finish(jobs int) (st proto.StatusAck, decisions, records []string) {
	d.t.Helper()
	st, err := d.c.WaitAllDone(30*time.Second, 20*time.Millisecond)
	if err != nil {
		d.t.Fatal(err)
	}
	if st.Done != jobs {
		d.t.Fatalf("done = %d, want %d", st.Done, jobs)
	}
	d.srv.Close()
	rec, err := wal.Recover(d.dir)
	if err != nil {
		d.t.Fatal(err)
	}
	if rec.Snapshot != nil || rec.Corruption != nil {
		d.t.Fatalf("recovery: snapshot %v, corruption %+v; want the whole log as records", rec.Snapshot != nil, rec.Corruption)
	}
	for i := range rec.Records {
		records = append(records, recordProjection(&rec.Records[i])...)
	}
	return st, d.tap.snapshot(), records
}

// serverParityStream replays the same script through the live daemon,
// using the chaos-injection API for the crash. It returns the decision
// stream and the projected records of the WAL recovered after Close.
func serverParityStream(t *testing.T) (decisions, records []string) {
	t.Helper()
	d := startParityDaemon(t, server.Config{Policy: sched.SRTF()})
	d.startExecutor()
	d.waitFor("executor registration", func(st proto.StatusAck) bool { return st.Executors == 1 })

	// One virtual second per iteration = 0.5ms wall at this time scale.
	stages := workload.StageTimes{250 * time.Millisecond, 250 * time.Millisecond,
		250 * time.Millisecond, 250 * time.Millisecond}
	// Long job starts and runs.
	d.submit("gpt2", 1200, stages)
	d.waitFor("job 1 running", func(st proto.StatusAck) bool { return jobIs(st, 1, "running") })
	// Shorter job arrives: SRTF preempts job 1.
	d.submit("gpt2", 100, stages)
	d.waitFor("job 2 done", func(st proto.StatusAck) bool { return jobIs(st, 2, "done") })
	// Job 1 resumes on the freed machine.
	d.waitFor("job 1 resumed", func(st proto.StatusAck) bool { return jobIs(st, 1, "running") })
	// Injected fault: the machine crashes; job 1 is requeued without
	// spending retry budget.
	if err := d.c.InjectFault(0, "machine-0"); err != nil {
		t.Fatal(err)
	}
	d.waitFor("executor evicted", func(st proto.StatusAck) bool { return st.Executors == 0 })
	// The machine returns to service; job 1 relaunches and finishes.
	d.startExecutor()
	st, decisions, records := d.finish(2)
	if st.Faults == nil || st.Faults.Crashes != 1 || st.Faults.Repairs != 1 || st.Faults.Requeues != 1 {
		t.Fatalf("daemon fault summary = %+v, want 1 crash / 1 repair / 1 requeue", st.Faults)
	}
	if st.Engine == nil || st.Engine.Launches != 4 || st.Engine.Preemptions != 1 || st.Engine.Requeues != 1 {
		t.Fatalf("daemon engine summary = %+v, want 4 launches / 1 preemption / 1 requeue", st.Engine)
	}
	return decisions, records
}

// The prediction script: one 8-GPU machine under SRTF, both drivers with
// an online estimator. Job 1 (resnet18) completes and seeds the model's
// belief: its true stages run 1.64× the zoo profile (predictionDrift).
// Job 2 (vgg19) starts and job 3 (resnet18) arrives while it runs. On its
// submitted zoo profile job 3 is the shorter job and would preempt job 2;
// on the belief it is the longer one and waits.
var predictionWant = []string{
	"launch exclusive:1",
	"launch exclusive:2",
	"launch exclusive:3",
}

// predictionDrift is the simulator's drift model for the prediction
// script. The daemon has none, so it submits job 1 with the drifted
// stages: both estimators learn the same measurement.
var predictionDrift = &profile.Drift{Amplitude: 0.8, Seed: 1}

var predictionTrace = trace.Trace{Name: "prediction", Specs: []trace.Spec{
	{ID: 1, Submit: 0, Duration: 2 * time.Minute, GPUs: 8, Model: "resnet18"},
	{ID: 2, Submit: 5 * time.Minute, Duration: 10 * time.Minute, GPUs: 8, Model: "vgg19"},
	{ID: 3, Submit: 5*time.Minute + 30*time.Second, Duration: 7 * time.Minute, GPUs: 8, Model: "resnet18"},
}}

// simPredictionStream replays the prediction script through the
// simulator, planning on est's beliefs (none when est is nil).
func simPredictionStream(t *testing.T, est profile.Estimator) (decisions, records []string) {
	t.Helper()
	cfg := sim.Config{
		Machines:           1,
		GPUsPerMachine:     8,
		Interval:           time.Minute,
		StarvationPatience: 1 << 30,
		Drift:              predictionDrift,
		Estimator:          est,
	}
	decisions, records, res := simRun(cfg, predictionTrace, sched.SRTF())
	if len(res.Jobs) != 3 {
		t.Fatalf("simulator finished %d jobs, want 3", len(res.Jobs))
	}
	return decisions, records
}

// serverPredictionStream replays the prediction script through the live
// daemon, whose online predictor is the engine's estimator.
func serverPredictionStream(t *testing.T) (decisions, records []string) {
	t.Helper()
	d := startParityDaemon(t, server.Config{Policy: sched.SRTF(), Predictor: profile.NewOnline()})
	d.startExecutor()
	d.waitFor("executor registration", func(st proto.StatusAck) bool { return st.Executors == 1 })
	// The simulator's iteration counts and submitted (zoo) profiles, but
	// job 1 runs the simulator's drifted stages: its completion is the
	// measurement both estimators learn.
	submit := func(spec trace.Spec) {
		t.Helper()
		m, err := workload.ByName(spec.Model)
		if err != nil {
			t.Fatal(err)
		}
		stages := m.Stages
		if spec.ID == 1 {
			stages = predictionDrift.Apply(spec.ID, stages)
		}
		d.submit(spec.Model, int64(spec.Duration/m.Stages.Total()), stages)
	}
	jobs := predictionTrace.Specs
	submit(jobs[0])
	d.waitFor("job 1 done", func(st proto.StatusAck) bool { return jobIs(st, 1, "done") })
	submit(jobs[1])
	d.waitFor("job 2 running", func(st proto.StatusAck) bool { return jobIs(st, 2, "running") })
	submit(jobs[2])
	_, decisions, records = d.finish(3)
	return decisions, records
}

// The shrink script: one 8-GPU machine under Muri-S, four jobs queued
// before it comes up. Job 1 runs alone; jobs 2 and 3 then run as one
// interleaved group until job 2 finishes, and the survivor, re-planned
// exclusive, is killed under the shrunk group's key and relaunched.
// Every round follows an event (an arrival, the machine registering, a
// completion): Muri-S regroups as progress moves, so the drivers'
// different periodic round counts would otherwise steer them apart. The
// members' lengths differ so that no two completions share an instant:
// the simulator completes such members in one advance, while the daemon
// hears each from its own JobDone report, and a round between two reports
// would have no counterpart in the simulator.
var shrinkWant = []string{
	"launch exclusive:1",
	"launch interleaved:2,3",
	"kill interleaved:3",
	"launch exclusive:3",
	"launch exclusive:4",
}

var shrinkJobs = []struct {
	model string
	iters int64
}{{"resnet18", 900}, {"gpt2", 2700}, {"a2c", 3900}, {"vgg16", 5100}}

// simShrinkStream replays the shrink script through the simulator, with
// event-driven rounds and no periodic one within the run.
func simShrinkStream(t *testing.T) (decisions, records []string) {
	t.Helper()
	tr := trace.Trace{Name: "shrink"}
	for i, j := range shrinkJobs {
		m, err := workload.ByName(j.model)
		if err != nil {
			t.Fatal(err)
		}
		tr.Specs = append(tr.Specs, trace.Spec{ID: int64(i + 1), GPUs: 8, Model: j.model,
			Duration: time.Duration(j.iters) * m.Stages.Total()})
	}
	cfg := sim.Config{
		Machines:           1,
		GPUsPerMachine:     8,
		Interval:           24 * time.Hour,
		EventDriven:        true,
		StarvationPatience: 1 << 30,
	}
	decisions, records, res := simRun(cfg, tr, sched.NewMuriS())
	if len(res.Jobs) != len(shrinkJobs) {
		t.Fatalf("simulator finished %d jobs, want %d", len(res.Jobs), len(shrinkJobs))
	}
	return decisions, records
}

// serverShrinkStream replays the shrink script through the live daemon,
// with a round interval (30 virtual hours) no run reaches: its rounds
// follow events too.
func serverShrinkStream(t *testing.T) (decisions, records []string) {
	t.Helper()
	d := startParityDaemon(t, server.Config{Policy: sched.NewMuriS(), Interval: time.Minute})
	for _, j := range shrinkJobs {
		m, err := workload.ByName(j.model)
		if err != nil {
			t.Fatal(err)
		}
		d.submit(j.model, j.iters, m.Stages)
	}
	d.waitFor("every job admitted", func(st proto.StatusAck) bool { return len(st.Jobs) == len(shrinkJobs) })
	d.startExecutor()
	_, decisions, records = d.finish(len(shrinkJobs))
	return decisions, records
}

// TestDriverParity replays scripted event sequences through both the
// simulator and the live daemon, and asserts the shared engine emitted
// byte-identical decision streams, and that both drivers wrote the same
// driver-neutral records: the simulator to its Config.Record sink, the
// daemon to its WAL. The fault script covers arrivals, an SRTF preemption
// and an injected machine fault (the machine loss is one record, ahead of
// the requeue); the prediction script, a round planning on a belief that a
// completion seeded; the shrink script, a group that loses a member and
// runs on until a round re-plans its survivor.
func TestDriverParity(t *testing.T) {
	check := func(t *testing.T, want, simStream, simRecords, srvStream, srvRecords []string) {
		t.Helper()
		if !equalStrings(simStream, want) {
			t.Errorf("simulator stream = %v, want %v", simStream, want)
		}
		if !equalStrings(srvStream, want) {
			t.Errorf("daemon stream = %v, want %v", srvStream, want)
		}
		if !equalStrings(simStream, srvStream) {
			t.Errorf("streams diverge:\n  sim    = %v\n  daemon = %v", simStream, srvStream)
		}
		if !equalStrings(simRecords, srvRecords) {
			t.Errorf("records diverge:\n  sim    = %q\n  daemon = %q", simRecords, srvRecords)
		}
	}
	t.Run("faults", func(t *testing.T) {
		simStream, simRecords := simParityStream(t)
		srvStream, srvRecords := serverParityStream(t)
		check(t, parityWant, simStream, simRecords, srvStream, srvRecords)
	})
	t.Run("prediction", func(t *testing.T) {
		// Without an estimator job 3 preempts job 2: the script shows a
		// belief at work only if that differs from the wanted stream.
		if plain, _ := simPredictionStream(t, nil); equalStrings(plain, predictionWant) {
			t.Fatalf("without an estimator the script already yields %v", plain)
		}
		simStream, simRecords := simPredictionStream(t, profile.NewOnline())
		srvStream, srvRecords := serverPredictionStream(t)
		check(t, predictionWant, simStream, simRecords, srvStream, srvRecords)
	})
	t.Run("shrink", func(t *testing.T) {
		simStream, simRecords := simShrinkStream(t)
		srvStream, srvRecords := serverShrinkStream(t)
		check(t, shrinkWant, simStream, simRecords, srvStream, srvRecords)
	})
}

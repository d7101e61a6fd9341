package server

import (
	"context"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"muri/internal/crashpoint"
	"muri/internal/engine"
	"muri/internal/executor"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/telemetry"
	"muri/internal/wal"
)

// decisionTap collects decision strings across goroutines, like the
// parity harness in internal/engine.
type decisionTap struct {
	mu      sync.Mutex
	entries []string
}

func (s *decisionTap) observe(d engine.Decision) {
	s.mu.Lock()
	s.entries = append(s.entries, d.String())
	s.mu.Unlock()
}

func (s *decisionTap) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.entries...)
}

// dialRetry dials the daemon, retrying while it restarts.
func dialRetry(t *testing.T, addr string) *Client {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := Dial(addr)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitStatus polls the status RPC until cond holds.
func waitStatus(t *testing.T, c *Client, desc string, cond func(proto.StatusAck) bool) proto.StatusAck {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := c.Status()
		if err != nil {
			t.Fatalf("status while waiting for %s: %v", desc, err)
		}
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; status %+v", desc, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func stateOf(st proto.StatusAck, id int64) string {
	for _, j := range st.Jobs {
		if j.ID == id {
			return j.State
		}
	}
	return ""
}

// parityStages make one iteration take one virtual second (0.5ms wall at
// the test time scale) and skip the profiling dry run.
var parityStages = [4]time.Duration{250 * time.Millisecond, 250 * time.Millisecond,
	250 * time.Millisecond, 250 * time.Millisecond}

// killRestartStream runs the kill-restart parity script and returns the
// observed decision stream. With crash=false it is the uninterrupted
// reference run; with crash=true the daemon is crashed (WAL abandoned
// without flushing, as in SIGKILL) between the preemption and the short
// job's completion, then restarted from the state dir. The executor
// keeps its running group alive across the outage and offers it back
// for adoption, so the recovered stream must be byte-identical.
func killRestartStream(t *testing.T, crash bool) []string {
	t.Helper()
	tap := &decisionTap{}
	cfg := Config{
		Policy:             sched.SRTF(),
		Interval:           20 * time.Millisecond,
		TimeScale:          0.0005,
		ReportEvery:        10 * time.Millisecond,
		StarvationPatience: 1 << 30,
		Observer:           tap.observe,
		Logf:               t.Logf,
	}
	if crash {
		cfg.StateDir = t.TempDir()
		cfg.FsyncEvery = 1 // every observed decision is durable
		cfg.SnapshotEvery = 50 * time.Millisecond
	}
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	serve := func(s *Server, l net.Listener) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Serve(l)
		}()
	}
	serve(srv, ln)
	cur := srv // the server cleanup must close (swapped on restart)
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		cur.Close()
		wg.Wait()
	}()
	// RunHA keeps the group running through the daemon outage and
	// re-registers against the restarted daemon, offering it back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		agent := &executor.Agent{MachineID: "machine-0", GPUs: 8, Logf: t.Logf}
		_ = agent.RunHA(ctx, []string{addr}, time.Second)
	}()

	c := dialRetry(t, addr)
	defer func() { c.Close() }()
	waitStatus(t, c, "executor registration",
		func(st proto.StatusAck) bool { return st.Executors == 1 })
	submit := func(iters int64) {
		t.Helper()
		if _, err := c.SubmitSpec(proto.JobSpec{
			Model: "gpt2", GPUs: 8, Iterations: iters, Stages: parityStages,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Long job starts; a shorter job preempts it under SRTF.
	submit(1200)
	waitStatus(t, c, "job 1 running",
		func(st proto.StatusAck) bool { return stateOf(st, 1) == "running" })
	submit(600)
	waitStatus(t, c, "job 2 preempted job 1", func(st proto.StatusAck) bool {
		return stateOf(st, 2) == "running" && stateOf(st, 1) == "pending"
	})
	if crash {
		prefix := len(tap.snapshot())
		srv.Crash()
		c.Close()
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("relisten on %s: %v", addr, err)
		}
		srv2 := New(cfg) // same state dir, same tap
		serve(srv2, ln2)
		cur = srv2
		c = dialRetry(t, addr)
		waitStatus(t, c, "executor re-registration",
			func(st proto.StatusAck) bool { return st.Executors == 1 })
		waitStatus(t, c, "running group adopted", func(st proto.StatusAck) bool {
			return stateOf(st, 2) != "pending"
		})
		// Recovery replays silently and adoption emits no decisions: the
		// tap must not have moved.
		if got := len(tap.snapshot()); got != prefix {
			t.Fatalf("recovery emitted %d decisions, want 0: %v",
				got-prefix, tap.snapshot()[prefix:])
		}
	}
	st, err := c.WaitAllDone(60*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 2 {
		t.Fatalf("done = %d, want 2", st.Done)
	}
	if crash {
		// Zero running groups lost: the preserved group was adopted, never
		// requeued as machine-lost.
		if st.Faults != nil && st.Faults.Requeues != 0 {
			t.Fatalf("fault summary after recovery = %+v, want no requeues", st.Faults)
		}
		if st.Durability == nil || st.Durability.Role != "solo" {
			t.Fatalf("durability summary after recovery = %+v, want solo role", st.Durability)
		}
	}
	return tap.snapshot()
}

// TestKillRestartParity is the tentpole acceptance test: crash the
// daemon mid-run (unsynced WAL tail abandoned), restart it from the
// state dir, and require the decision stream — replayed prefix plus
// live tail — byte-identical to an uninterrupted run of the same
// script.
func TestKillRestartParity(t *testing.T) {
	want := []string{
		"launch exclusive:1",
		"kill exclusive:1",
		"launch exclusive:2",
		"launch exclusive:1",
	}
	ref := killRestartStream(t, false)
	got := killRestartStream(t, true)
	if strings.Join(ref, "\n") != strings.Join(want, "\n") {
		t.Errorf("reference stream = %v, want %v", ref, want)
	}
	if strings.Join(got, "\n") != strings.Join(ref, "\n") {
		t.Errorf("recovered stream diverges:\n  recovered = %v\n  reference = %v", got, ref)
	}
}

// TestRecoveryRequeuesUnadoptedOrphans covers the adoption grace
// expiring: the executor never comes back, so the recovered daemon
// treats its machine as lost and requeues the orphaned jobs, which a
// fresh executor then runs to completion.
func TestRecoveryRequeuesUnadoptedOrphans(t *testing.T) {
	cfg := Config{
		Policy:             sched.SRTF(),
		Interval:           20 * time.Millisecond,
		TimeScale:          0.0005,
		ReportEvery:        10 * time.Millisecond,
		StarvationPatience: 1 << 30,
		LivenessTimeout:    500 * time.Millisecond,
		Logf:               t.Logf,
		StateDir:           t.TempDir(),
		FsyncEvery:         1,
	}
	srv := New(cfg)
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
	actx, acancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		agent := &executor.Agent{MachineID: "machine-0", GPUs: 8, Logf: t.Logf}
		_ = agent.Run(actx, addr)
	}()
	c := dialRetry(t, addr)
	waitStatus(t, c, "executor registration",
		func(st proto.StatusAck) bool { return st.Executors == 1 })
	if _, err := c.SubmitSpec(proto.JobSpec{
		Model: "gpt2", GPUs: 8, Iterations: 800, Stages: parityStages,
	}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, "job running",
		func(st proto.StatusAck) bool { return stateOf(st, 1) == "running" })
	srv.Crash()
	c.Close()
	acancel() // the original executor is gone for good
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(cfg)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv2.Serve(ln2)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		srv2.Close()
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		agent := &executor.Agent{MachineID: "machine-1", GPUs: 8, Logf: t.Logf}
		_ = agent.Run(ctx, addr)
	}()
	c = dialRetry(t, addr)
	defer c.Close()
	st, err := c.WaitAllDone(60*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("done = %d, want 1", st.Done)
	}
	if st.Faults == nil || st.Faults.Requeues != 1 {
		t.Fatalf("fault summary = %+v, want exactly 1 requeue (orphan grace expired)", st.Faults)
	}
	// The requeue spent no retry budget (machine loss, not a job fault):
	// the job's budget-backed fault count stays zero.
	if st.Jobs[0].Faults != 0 {
		t.Errorf("job spent %d retry-budget faults, want 0 for an adoption expiry", st.Jobs[0].Faults)
	}
}

// TestFailoverPromotesStandbyAndFencesOldLeader wires a leader/standby
// pair, crashes the leader mid-run, and requires the standby to promote
// within the lease window, adopt the surviving group (zero running
// groups lost), and finish the workload — while the restarted old
// leader fences itself on first contact with the new term and rejects
// writes.
func TestFailoverPromotesStandbyAndFencesOldLeader(t *testing.T) {
	const ttl = 300 * time.Millisecond
	base := Config{
		Policy:             sched.SRTF(),
		Interval:           20 * time.Millisecond,
		TimeScale:          0.0005,
		ReportEvery:        10 * time.Millisecond,
		StarvationPatience: 1 << 30,
		Logf:               t.Logf,
		FsyncEvery:         1,
		SnapshotEvery:      time.Hour,
		ElectionTTL:        ttl,
	}
	dirL, dirS := t.TempDir(), t.TempDir()

	lnL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrL := lnL.Addr().String()
	lnS, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrS := lnS.Addr().String()

	cfgL := base
	cfgL.StateDir = dirL
	srvL := New(cfgL)
	cfgS := base
	cfgS.StateDir = dirS
	cfgS.StandbyOf = addrL
	cfgS.StandbyID = "sb0"
	srvS := New(cfgS)

	var wg sync.WaitGroup
	serve := func(s *Server, l net.Listener) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Serve(l)
		}()
	}
	serve(srvL, lnL)
	serve(srvS, lnS)
	ctx, cancel := context.WithCancel(context.Background())
	var srvL2 *Server
	defer func() {
		cancel()
		srvL.Close()
		srvS.Close()
		if srvL2 != nil {
			srvL2.Close()
		}
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		agent := &executor.Agent{MachineID: "machine-0", GPUs: 8, Logf: t.Logf}
		_ = agent.RunHA(ctx, []string{addrL, addrS}, time.Second)
	}()

	cL := dialRetry(t, addrL)
	defer cL.Close()
	waitStatus(t, cL, "executor registration",
		func(st proto.StatusAck) bool { return st.Executors == 1 })
	waitStatus(t, cL, "standby attached", func(st proto.StatusAck) bool {
		return st.Durability != nil && st.Durability.Standbys == 1
	})
	// The job must outlast the failover to be adopted: 6000 iterations
	// of 1s virtual run ~3s wall, and adoption lands after ~0.8s.
	if _, err := cL.SubmitSpec(proto.JobSpec{
		Model: "gpt2", GPUs: 8, Iterations: 6000, Stages: parityStages,
	}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, cL, "job running",
		func(st proto.StatusAck) bool { return stateOf(st, 1) == "running" })
	waitStatus(t, cL, "replication caught up", func(st proto.StatusAck) bool {
		return st.Durability != nil && st.Durability.Role == "leader" && st.Durability.ReplLag == 0
	})

	crashed := time.Now()
	srvL.Crash()
	cS := dialRetry(t, addrS)
	defer cS.Close()
	waitStatus(t, cS, "standby promotion", func(st proto.StatusAck) bool {
		return st.Durability != nil && st.Durability.Role == "leader"
	})
	if elapsed := time.Since(crashed); elapsed > 2*time.Second {
		t.Errorf("promotion took %v, want within the lease window (ttl %v)", elapsed, ttl)
	}
	waitStatus(t, cS, "executor re-attached to new leader",
		func(st proto.StatusAck) bool { return st.Executors == 1 })
	waitStatus(t, cS, "running group adopted",
		func(st proto.StatusAck) bool { return st.Running == 1 })
	// The new leader accepts writes: a second job runs after the first.
	if _, err := cS.SubmitSpec(proto.JobSpec{
		Model: "gpt2", GPUs: 8, Iterations: 200, Stages: parityStages,
	}); err != nil {
		t.Fatalf("submit to promoted leader: %v", err)
	}
	st, err := cS.WaitAllDone(60*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 2 {
		t.Fatalf("done = %d, want 2", st.Done)
	}
	// Zero running groups lost across the failover: the adopted group was
	// never requeued, so the fault ledger records nothing.
	if st.Faults != nil && (st.Faults.Requeues != 0 || st.Faults.Crashes != 0) {
		t.Fatalf("fault summary after failover = %+v, want clean ledger", st.Faults)
	}
	if st.Durability == nil || st.Durability.Term == 0 {
		t.Fatalf("promoted leader durability = %+v, want a positive term", st.Durability)
	}
	newTerm := st.Durability.Term

	// Restart the deposed leader from its own state dir (fresh port; the
	// executors stay with the new leader). It comes back believing it can
	// lead — until the first contact carrying the new term fences it.
	lnL2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvL2 = New(cfgL)
	serve(srvL2, lnL2)
	addrL2 := lnL2.Addr().String()
	conn, err := net.Dial("tcp", addrL2)
	if err != nil {
		t.Fatal(err)
	}
	codec := proto.NewCodec(conn)
	if err := codec.Write(&proto.Message{Type: proto.TypeRegister, Register: &proto.Register{
		MachineID: "fencer", GPUs: 1, SeenTerm: newTerm,
	}}); err != nil {
		t.Fatal(err)
	}
	m, err := codec.Read()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if m.Type != proto.TypeRegisterAck || m.RegisterAck == nil {
		t.Fatalf("unexpected reply %s", m.Type)
	}
	if m.RegisterAck.OK || !strings.Contains(m.RegisterAck.Reason, "not_leader") {
		t.Fatalf("stale leader accepted a registration carrying term %d: %+v", newTerm, m.RegisterAck)
	}
	cL2 := dialRetry(t, addrL2)
	defer cL2.Close()
	if _, err := cL2.Submit("gpt2", 1, 10); err == nil ||
		!strings.Contains(err.Error(), "leader") {
		t.Fatalf("fenced leader accepted a write, err = %v", err)
	}
	fst, err := cL2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if fst.Durability == nil || fst.Durability.Role != "fenced" {
		t.Fatalf("stale leader durability = %+v, want fenced role", fst.Durability)
	}
}

// TestDebugCrashArmsCrashpoint covers the murictl-facing crash
// injection path: the RPC arms a named point and the daemon's next
// scheduling round trips it.
func TestDebugCrashArmsCrashpoint(t *testing.T) {
	defer crashpoint.Reset()
	var mu sync.Mutex
	var hits []string
	crashpoint.SetHandler(func(p string) {
		mu.Lock()
		hits = append(hits, p)
		mu.Unlock()
	})
	h := startHarness(t, Config{UnsafeDebug: true}, 1, nil)
	c := h.client(t)
	if err := c.DebugCrash(crashpoint.MidRound); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(hits)
		mu.Unlock()
		if n > 0 {
			mu.Lock()
			got := hits[0]
			mu.Unlock()
			if got != crashpoint.MidRound {
				t.Fatalf("crash point hit = %q, want %q", got, crashpoint.MidRound)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("armed crash point never hit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Points are one-shot: with the handler observing instead of dying,
	// the daemon keeps scheduling.
	if _, err := c.Submit("gpt2", 1, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestDebugCrashRefusedWithoutFlag: the crash RPC is a no-op unless the
// daemon opted in with -unsafe-debug.
func TestDebugCrashRefusedWithoutFlag(t *testing.T) {
	defer crashpoint.Reset()
	h := startHarness(t, Config{}, 0, nil)
	c := h.client(t)
	err := c.DebugCrash(crashpoint.MidRound)
	if err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("debug crash without -unsafe-debug: err = %v, want disabled", err)
	}
}

// TestFsyncBatchLossWindow names documented loss window (0): a crash
// loses at most FsyncEvery−1 of the records appended before it. The
// daemon is crashed mid-run with the committer's background fsyncs in
// play, and the log on disk is held against the append count the status
// RPC reported just before.
func TestFsyncBatchLossWindow(t *testing.T) {
	const every = 8
	dir := t.TempDir()
	h := startHarness(t, Config{
		StateDir:      dir,
		FsyncEvery:    every,
		SnapshotEvery: time.Hour, // the whole log stays in Recovery.Records
	}, 1, nil)
	c := h.client(t)
	const jobs = 36
	for i := 0; i < jobs; i++ {
		if _, err := c.Submit("gpt2", 1, 20); err != nil {
			t.Fatal(err)
		}
	}
	st := waitStatus(t, c, "half the jobs done",
		func(st proto.StatusAck) bool { return st.Done >= jobs/2 })
	d := st.Durability
	if d == nil || d.Unsynced >= every || d.WALLSN-d.DurableLSN != d.Unsynced {
		t.Fatalf("live loss window out of bounds: %+v", d)
	}
	h.srv.Crash()
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Appends after the status read only shrink the left side.
	if lost := int(d.Appends) - len(rec.Records); lost >= every {
		t.Fatalf("crash lost %d of %d appended records, bound is %d", lost, d.Appends, every-1)
	}
	if uint64(len(rec.Records)) < d.DurableLSN {
		t.Fatalf("recovered %d records, fewer than the durable frontier %d", len(rec.Records), d.DurableLSN)
	}
	if d.Fsyncs == 0 {
		t.Fatalf("no fsync batch completed before the crash: %+v", d)
	}
}

// TestDurabilityMetricsMatchStatus extends the metrics≡status
// acceptance to the durability surface: the muri_wal_* and muri_repl_*
// samples must equal the DurabilitySummary the status RPC reports.
func TestDurabilityMetricsMatchStatus(t *testing.T) {
	h := startHarness(t, Config{
		StateDir:      t.TempDir(),
		FsyncEvery:    1,
		SnapshotEvery: 25 * time.Millisecond,
	}, 1, nil)
	c := h.client(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Submit("gpt2", 1, 30); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Let the post-drain snapshot land so SnapshotLSN is stable between
	// the scrape and the status snapshot.
	time.Sleep(150 * time.Millisecond)
	rec := httptest.NewRecorder()
	h.srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples, err := telemetry.ParsePrometheus(rec.Body.String())
	if err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	d := st.Durability
	if d == nil {
		t.Fatal("status carries no durability summary")
	}
	if d.Role != "solo" {
		t.Fatalf("role = %q, want solo", d.Role)
	}
	for name, want := range map[string]float64{
		"muri_wal_appends_total":     float64(d.Appends),
		"muri_wal_fsyncs_total":      float64(d.Fsyncs),
		"muri_wal_sync_stalls_total": float64(d.SyncStalls),
		"muri_wal_replayed_total":    0,
		"muri_wal_lsn":               float64(d.WALLSN),
		"muri_wal_durable_lsn":       float64(d.DurableLSN),
		"muri_wal_unsynced_records":  float64(d.Unsynced),
		"muri_wal_segment":           float64(d.WALSegment),
		"muri_wal_offset":            float64(d.WALOffset),
		"muri_wal_snapshot_lsn":      float64(d.SnapshotLSN),
		"muri_role":                  0, // solo
		"muri_term":                  float64(d.Term),
		"muri_repl_standbys":         float64(d.Standbys),
		"muri_repl_lag_records":      float64(d.ReplLag),
	} {
		got, ok := samples[name]
		if !ok {
			t.Errorf("scrape missing %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, status says %v", name, got, want)
		}
	}
	if d.Appends == 0 || d.Fsyncs == 0 || d.WALLSN == 0 {
		t.Errorf("durability summary never counted WAL work: %+v", d)
	}
	// FsyncEvery 1 is durable on return: nothing unsynced between appends,
	// and every append waited for the disk.
	if d.DurableLSN != d.WALLSN || d.Unsynced != 0 || d.SyncStalls != d.Appends {
		t.Errorf("fsync-every 1 left a loss window: %+v", d)
	}
	if d.SnapshotLSN == 0 {
		t.Errorf("snapshot cadence never published a snapshot: %+v", d)
	}
	if got := samples["muri_wal_fsync_seconds_count"]; int(got) == 0 {
		t.Error("fsync-latency histogram never observed a flush")
	}
	if age, ok := samples["muri_wal_snapshot_age_seconds"]; !ok || age < 0 {
		t.Errorf("muri_wal_snapshot_age_seconds = %v (present %v), want non-negative", age, ok)
	}
}

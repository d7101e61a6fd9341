package server

import (
	"context"
	"errors"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"muri/internal/executor"
	"muri/internal/job"
	"muri/internal/proto"
	"muri/internal/sched"
)

// fastFaultConfig keeps retry backoffs tiny so fault tests run quickly.
func fastFaultConfig() Config {
	return Config{
		FaultBackoffBase: time.Millisecond,
		FaultBackoffMax:  5 * time.Millisecond,
	}
}

// TestFaultBackoffThenSuccess: a job that faults twice must be backed
// off, retried, and completed — with both faults attributed to the
// executor they happened on.
func TestFaultBackoffThenSuccess(t *testing.T) {
	var mu sync.Mutex
	failures := 0
	fault := func(jobID, iter int64) error {
		mu.Lock()
		defer mu.Unlock()
		if jobID == 1 && failures < 2 && iter >= 5 {
			failures++
			return errors.New("flaky kernel")
		}
		return nil
	}
	h := startHarness(t, fastFaultConfig(), 1, fault)
	c := h.client(t)
	if _, err := c.Submit("dqn", 1, 40); err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("done = %d, want 1", st.Done)
	}
	if st.Jobs[0].Faults != 2 {
		t.Errorf("job recorded %d faults, want 2", st.Jobs[0].Faults)
	}
	if st.Jobs[0].FaultExecutor != "machine-0" {
		t.Errorf("fault attributed to %q, want machine-0", st.Jobs[0].FaultExecutor)
	}
	if st.Faults == nil || st.Faults.Transient != 2 || st.Faults.Requeues != 2 {
		t.Errorf("fault summary = %+v, want 2 transient / 2 requeues", st.Faults)
	}
	h.srv.mu.Lock()
	js := h.srv.jobs[1]
	logLen := len(js.faultLog)
	origin := ""
	if logLen > 0 {
		origin = js.faultLog[0].Executor
	}
	h.srv.mu.Unlock()
	if logLen != 2 || origin != "machine-0" {
		t.Errorf("fault log has %d entries from %q, want 2 from machine-0", logLen, origin)
	}
}

// TestRetryBudgetDeadLetter: a job that faults past its retry budget is
// parked in the dead-letter state; healthy jobs are unaffected and the
// run still terminates.
func TestRetryBudgetDeadLetter(t *testing.T) {
	fault := func(jobID, iter int64) error {
		if jobID == 1 {
			return errors.New("always broken")
		}
		return nil
	}
	cfg := fastFaultConfig()
	cfg.FaultRetryBudget = 2
	h := startHarness(t, cfg, 1, fault)
	c := h.client(t)
	if _, err := c.Submit("dqn", 1, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("gpt2", 1, 40); err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.DeadLetter != 1 {
		t.Fatalf("done = %d, deadletter = %d, want 1 and 1 (status %+v)", st.Done, st.DeadLetter, st)
	}
	var dead string
	for _, j := range st.Jobs {
		if j.ID == 1 {
			dead = j.State
		}
	}
	if dead != "deadletter" {
		t.Errorf("job 1 state = %q, want deadletter", dead)
	}
	if st.Faults == nil || st.Faults.DeadLettered != 1 {
		t.Errorf("fault summary = %+v, want 1 dead-lettered", st.Faults)
	}
	if st.Faults != nil && st.Faults.Transient != 3 {
		t.Errorf("transient = %d, want 3 (budget 2 + final strike)", st.Faults.Transient)
	}
}

// TestStopDrains: Stop lets the in-flight group finish, rejects new
// submissions while draining, and returns nil once idle.
func TestStopDrains(t *testing.T) {
	cfg, launched := launchTap(fastFaultConfig(), 1)
	h := startHarness(t, cfg, 1, nil)
	c := h.client(t)
	// ~110 ms of wall time: still in flight when Stop begins.
	if _, err := c.Submit("gpt2", 1, 2000); err != nil {
		t.Fatal(err)
	}
	nextLaunch(t, launched)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	stopErr := make(chan error, 1)
	go func() { stopErr <- h.srv.Stop(ctx) }()
	// Submissions during the drain are rejected.
	for {
		h.srv.mu.Lock()
		draining := h.srv.draining
		h.srv.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Submit("gpt2", 1, 10); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("submit during drain: got %v, want draining rejection", err)
	}
	if err := <-stopErr; err != nil {
		t.Fatalf("Stop = %v, want nil (clean drain)", err)
	}
	h.srv.mu.Lock()
	groups, done := len(h.srv.groups), 0
	for _, js := range h.srv.jobs {
		if js.job.State == job.Done {
			done++
		}
	}
	h.srv.mu.Unlock()
	if groups != 0 || done != 1 {
		t.Errorf("after drain: %d groups, %d done jobs; want 0 and 1", groups, done)
	}
}

// TestInjectFaultJob: a client-injected job fault goes through the
// normal fault path (recorded, backed off) and the job still completes.
func TestInjectFaultJob(t *testing.T) {
	cfg, launched := launchTap(fastFaultConfig(), 1)
	h := startHarness(t, cfg, 1, nil)
	c := h.client(t)
	// ~165 ms of wall time: still running when the fault lands.
	id, err := c.Submit("gpt2", 1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	nextLaunch(t, launched)
	if err := c.InjectFault(id, ""); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if err := c.InjectFault(0, "no-such-machine"); err == nil {
		t.Error("injecting on an unknown machine should fail")
	}
	st, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("done = %d, want 1", st.Done)
	}
	if st.Jobs[0].Faults != 1 || st.Jobs[0].FaultExecutor != "machine-0" {
		t.Errorf("job shows %d faults from %q, want 1 from machine-0",
			st.Jobs[0].Faults, st.Jobs[0].FaultExecutor)
	}
	t.Run("interleaved pair", injectFaultIntoPair)
}

// pairUp is a non-preemptive policy that interleaves its candidates two
// by two, in the order given.
type pairUp struct{}

func (pairUp) Name() string     { return "pair-up" }
func (pairUp) Preemptive() bool { return false }
func (pairUp) Plan(_ time.Duration, jobs []*job.Job, _ int) []sched.Unit {
	var units []sched.Unit
	for ; len(jobs) >= 2; jobs = jobs[2:] {
		units = append(units, sched.Unit{Jobs: jobs[:2:2], GPUs: jobs[0].GPUs, Mode: sched.Interleaved})
	}
	return units
}

// injectFaultIntoPair: a fault injected into one member of an interleaved
// unit takes the unit down, and the innocent member must see that as a
// kill decision — in the decision stream, and so in its explain timeline —
// not as a silent flip to pending. Only the target is charged a fault.
func injectFaultIntoPair(t *testing.T) {
	tap := &decisionTap{}
	cfg := fastFaultConfig()
	cfg.Policy, cfg.Observer, cfg.LivenessTimeout = pairUp{}, tap.observe, time.Hour
	rig := newRoundRig(t, cfg)
	rig.register("m0", 4, nil)
	s := rig.srv
	for i := 0; i < 2; i++ {
		if _, err := s.submit(pendSpec("")); err != nil {
			t.Fatal(err)
		}
	}
	rig.round()
	if err := s.injectFault(&proto.InjectFault{JobID: 1}); err != nil {
		t.Fatal(err)
	}
	want := []string{"launch interleaved:1,2", "kill interleaved:1,2", "requeue 1 (fault)"}
	if got := tap.snapshot(); !slices.Equal(got, want) {
		t.Errorf("decision stream %v, want %v", got, want)
	}
	st := s.status()
	if st.Pending != 2 || st.Jobs[0].Faults != 1 || st.Jobs[1].Faults != 0 {
		t.Errorf("after the injection: %d pending, faults %d and %d; want 2 pending, the target alone charged",
			st.Pending, st.Jobs[0].Faults, st.Jobs[1].Faults)
	}
	text := s.explainJob(2)
	if !strings.Contains(text, "injected fault on job 1") || !strings.Contains(text, "preemptions 1") {
		t.Errorf("the innocent member's explanation does not show the kill:\n%s", text)
	}
}

// TestInjectFaultMachine: crashing an executor migrates its jobs to the
// survivor, counts a crash, and the work still finishes.
func TestInjectFaultMachine(t *testing.T) {
	h := startHarness(t, fastFaultConfig(), 2, nil)
	c := h.client(t)
	for i := 0; i < 4; i++ {
		if _, err := c.Submit("gpt2", 1, 200); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.srv.mu.Lock()
		running := len(h.srv.groups) > 0
		h.srv.mu.Unlock()
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no group ever launched")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.InjectFault(0, "machine-0"); err != nil {
		t.Fatalf("inject machine crash: %v", err)
	}
	st, err := c.WaitAllDone(30*time.Second, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 4 {
		t.Fatalf("done = %d, want 4", st.Done)
	}
	if st.Executors != 1 {
		t.Errorf("executors = %d, want 1 after the crash", st.Executors)
	}
	if st.Faults == nil || st.Faults.Crashes != 1 {
		t.Errorf("fault summary = %+v, want exactly 1 crash", st.Faults)
	}
}

// TestHeartbeatTimeoutEvicts: a hung executor — registered, connection
// open, but never sending — is evicted when its lease expires, and any
// jobs launched onto it migrate to the healthy survivor.
func TestHeartbeatTimeoutEvicts(t *testing.T) {
	cfg := fastFaultConfig()
	cfg.LivenessTimeout = 400 * time.Millisecond
	h := startHarness(t, cfg, 1, nil)
	// A hung machine: it completes registration, then goes silent while
	// keeping TCP open, so only the lease can detect it.
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := proto.NewCodec(conn)
	if err := codec.Write(&proto.Message{Type: proto.TypeRegister,
		Register: &proto.Register{MachineID: "hung", GPUs: 8}}); err != nil {
		t.Fatal(err)
	}
	ack, err := codec.Read()
	if err != nil || ack.RegisterAck == nil || !ack.RegisterAck.OK {
		t.Fatalf("hung executor registration failed: %v %+v", err, ack)
	}
	if ack.RegisterAck.LeaseTTL != cfg.LivenessTimeout {
		t.Errorf("advertised lease %v, want %v", ack.RegisterAck.LeaseTTL, cfg.LivenessTimeout)
	}
	c := h.client(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Submit("gpt2", 1, 200); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.WaitAllDone(30*time.Second, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 3 {
		t.Fatalf("done = %d, want 3", st.Done)
	}
	if st.Executors != 1 {
		t.Errorf("executors = %d, want only the healthy one after eviction", st.Executors)
	}
	if st.Faults == nil || st.Faults.Crashes < 1 {
		t.Errorf("fault summary = %+v, want the eviction counted as a crash", st.Faults)
	}
}

// pipeListener hands the daemon net.Pipe connections. A pipe has no
// buffer, so the first frame written to a peer that stopped reading
// blocks — the state a TCP connection reaches once its socket buffers
// fill.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { close(l.done); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial returns the peer's end of a fresh connection to the daemon.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	peer, srv := net.Pipe()
	select {
	case l.conns <- srv:
	case <-time.After(2 * time.Second):
		t.Fatal("daemon is not accepting connections")
	}
	return peer
}

// TestHungExecutorDoesNotHoldServerLock: an executor that stops reading
// — while its heartbeats keep the lease fresh, so only the send path can
// notice — must cost whoever sends to it under Server.mu at most one
// liveness timeout, and must cost the healthy executors nothing. Launch
// and Kill frames are written under Server.mu; without a write deadline
// the round, Status and every other executor's handlers block behind the
// hung peer for good, and without crediting the blocked time back to the
// leases the healthy executors, whose renewals waited behind the lock,
// are evicted with it.
func TestHungExecutorDoesNotHoldServerLock(t *testing.T) {
	t.Run("launch", func(t *testing.T) {
		h := startHung(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		healthy := &executor.Agent{MachineID: "b-healthy", GPUs: 8, Logf: t.Logf,
			HeartbeatEvery: 40 * time.Millisecond}
		conn := h.ln.dial(t)
		h.wg.Add(1)
		go func() { defer h.wg.Done(); _ = healthy.Serve(ctx, conn) }()
		h.waitExecutors(t, 2)

		// Job 2 best-fits onto the hung machine's four free GPUs: its Launch
		// is the frame nobody reads.
		h.submit(t)
		h.statusAnswers(t)
		// The failed send closed the connection, the reader dropped the
		// machine and requeued job 1; both jobs now run on the healthy one.
		waitFor(t, 3*time.Second, func() bool {
			st := h.srv.status()
			return st.Executors == 1 && st.Running == 2 &&
				st.Faults != nil && st.Faults.Crashes == 1 && st.Faults.Requeues == 1
		}, "hung executor was not dropped with its job requeued onto the healthy one")
		h.srv.mu.Lock()
		defer h.srv.mu.Unlock()
		for _, g := range h.srv.groups {
			if g.exec.id != "b-healthy" {
				t.Errorf("group %d still bound to %s", g.id, g.exec.id)
			}
		}
	})

	// An injected fault kills job 1's group: the Kill is the frame nobody
	// reads, sent under Server.mu outside any round. The healthy machine
	// here never heartbeats, so its lease moves only when the daemon
	// credits it: by the time the send gives up the lease as registered
	// has lapsed, and one hung executor plus one injected fault would evict
	// the healthy one too.
	t.Run("inject-fault", func(t *testing.T) {
		h := startHung(t)
		conn := h.ln.dial(t)
		defer conn.Close()
		healthy := newTestCodec(conn)
		if err := healthy.register("b-healthy", 8); err != nil {
			t.Fatal(err)
		}
		h.wg.Add(1)
		go func() { // reads whatever the daemon sends, answers nothing
			defer h.wg.Done()
			for {
				if _, err := healthy.c.Read(); err != nil {
					return
				}
			}
		}()
		h.waitExecutors(t, 2)
		lease := func() time.Time {
			h.srv.mu.Lock()
			defer h.srv.mu.Unlock()
			return find(h.srv.executors, "b-healthy", machineOf).leaseExpiry
		}
		registered := lease()

		injected := make(chan error, 1)
		start := time.Now()
		go func() { injected <- h.srv.injectFault(&proto.InjectFault{JobID: 1}) }()
		h.statusAnswers(t)
		if err := <-injected; err != nil {
			t.Fatal(err)
		}
		held := time.Since(start)
		if held < h.srv.cfg.LivenessTimeout/2 {
			t.Fatalf("injectFault returned after %v: the Kill never blocked on the hung executor", held)
		}
		// Rounds run in between and credit what they held; none of that can
		// reach half a liveness timeout.
		if credited := lease().Sub(registered); credited < held-h.srv.cfg.LivenessTimeout/2 {
			t.Fatalf("injectFault held the lock %v and credited the healthy executor's lease %v", held, credited)
		}
		h.srv.mu.Lock()
		defer h.srv.mu.Unlock()
		if h.srv.leaseEvictions != 0 || find(h.srv.executors, "b-healthy", machineOf) == nil {
			t.Fatalf("%d lease evictions, healthy executor registered: %v", h.srv.leaseEvictions, find(h.srv.executors, "b-healthy", machineOf) != nil)
		}
	})
}

// hungHarness is a daemon on an in-memory listener with one executor,
// "a-hung", that registered, took job 1's Launch and reads nothing more,
// while its heartbeats keep its lease fresh.
type hungHarness struct {
	srv *Server
	ln  *pipeListener
	wg  *sync.WaitGroup
}

func startHung(t *testing.T) *hungHarness {
	t.Helper()
	cfg := fastFaultConfig()
	cfg.Interval = 20 * time.Millisecond
	cfg.LivenessTimeout = 200 * time.Millisecond
	cfg.TimeScale = 0.0005
	cfg.ReportEvery = 20 * time.Millisecond
	cfg.Policy = sched.FIFO()
	cfg.Logf = t.Logf
	h := &hungHarness{srv: New(cfg), ln: newPipeListener(), wg: &sync.WaitGroup{}}
	h.wg.Add(1)
	go func() { defer h.wg.Done(); _ = h.srv.Serve(h.ln) }()
	t.Cleanup(func() { h.srv.Close(); h.wg.Wait() })

	// Closing the hung machine's end (a Cleanup registered after the
	// daemon's, so run before it) releases a daemon still blocked on it.
	hung := h.ln.dial(t)
	t.Cleanup(func() { hung.Close() })
	codec := newTestCodec(hung)
	if err := codec.register("a-hung", 8); err != nil {
		t.Fatal(err)
	}
	h.submit(t)
	if m, err := codec.c.Read(); err != nil || m.Type != proto.TypeLaunch {
		t.Fatalf("hung executor's first frame = %+v, %v; want job 1's launch", m, err)
	}
	stopBeat := make(chan struct{})
	t.Cleanup(func() { close(stopBeat) })
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			select {
			case <-stopBeat:
				return
			case <-time.After(40 * time.Millisecond):
				if codec.c.Write(&proto.Message{Type: proto.TypeHeartbeat}) != nil {
					return
				}
			}
		}
	}()
	return h
}

func (h *hungHarness) submit(t *testing.T) {
	t.Helper()
	if _, err := h.srv.submit(proto.JobSpec{Model: "gpt2", GPUs: 4, Iterations: 1_000_000,
		Stages: parityStages}); err != nil {
		t.Fatal(err)
	}
}

func (h *hungHarness) waitExecutors(t *testing.T, n int) {
	t.Helper()
	waitFor(t, 2*time.Second, func() bool {
		h.srv.mu.Lock()
		defer h.srv.mu.Unlock()
		return len(h.srv.executors) == n
	}, "healthy executor never registered")
}

// statusAnswers requires a Status reply within a second of a send to the
// hung executor having started.
func (h *hungHarness) statusAnswers(t *testing.T) {
	t.Helper()
	answered := make(chan proto.StatusAck, 1)
	go func() {
		time.Sleep(50 * time.Millisecond) // let the send reach the hung peer
		answered <- h.srv.status()
	}()
	select {
	case <-answered:
	case <-time.After(time.Second):
		t.Fatal("Status did not answer within 1s: the daemon is blocked on the hung executor")
	}
}

// TestNoGoroutineLeaks: a full harness lifecycle — faults, an injected
// crash, drain, close — must not leave goroutines behind.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Run("lifecycle", func(t *testing.T) {
		fault := func(jobID, iter int64) error {
			if jobID == 1 && iter == 3 {
				return errors.New("one-shot fault")
			}
			return nil
		}
		h := startHarness(t, fastFaultConfig(), 2, fault)
		c := h.client(t)
		for i := 0; i < 3; i++ {
			if _, err := c.Submit("dqn", 1, 60); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	// The subtest's Cleanup tore everything down; give straggling exits
	// a moment, then compare with tolerance for runtime housekeeping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines grew %d -> %d after full teardown\n%s", before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

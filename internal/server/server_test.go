package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"muri/internal/executor"
	"muri/internal/job"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/trace"
)

// harness spins up a scheduler plus n executors on loopback TCP.
type harness struct {
	srv  *Server
	wg   sync.WaitGroup
	addr string
}

func startHarness(t *testing.T, cfg Config, executors int, fault executor.FaultFunc) *harness {
	t.Helper()
	if cfg.Interval == 0 {
		cfg.Interval = 30 * time.Millisecond
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 0.0005 // 1 virtual second = 0.5ms wall
	}
	if cfg.ReportEvery == 0 {
		cfg.ReportEvery = 20 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{srv: srv, addr: ln.Addr().String()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = srv.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < executors; i++ {
		agent := &executor.Agent{
			MachineID: fmt.Sprintf("machine-%d", i),
			GPUs:      8,
			Fault:     fault,
			Logf:      t.Logf,
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			_ = agent.Run(ctx, h.addr)
		}()
	}
	t.Cleanup(func() {
		cancel()
		srv.Close()
		h.wg.Wait()
	})
	// Wait for all executors to register.
	deadline := time.Now().Add(3 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.executors)
		srv.mu.Unlock()
		if n == executors {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d executors registered", n, executors)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *harness) client(t *testing.T) *Client {
	t.Helper()
	c, err := Dial(h.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEndToEndSingleJob(t *testing.T) {
	h := startHarness(t, Config{}, 1, nil)
	c := h.client(t)
	id, err := c.Submit("gpt2", 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first job ID = %d, want 1", id)
	}
	st, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("done = %d, want 1", st.Done)
	}
	if st.Jobs[0].JCT <= 0 {
		t.Errorf("JCT = %v, want positive virtual duration", st.Jobs[0].JCT)
	}
}

func TestEndToEndInterleavedGroup(t *testing.T) {
	h := startHarness(t, Config{Policy: sched.NewMuriL()}, 1, nil)
	c := h.client(t)
	// Four complementary jobs on a single 8-GPU machine, demand 4×... to
	// force grouping we need demand > capacity: submit 12 single-GPU jobs
	// across the four bottleneck classes on one 8-GPU machine. Each job
	// runs ~3000 × 0.1s virtual = ~150ms wall, long enough to outlast
	// several 30ms rounds and be grouped with later arrivals.
	models := []string{"shufflenet", "a2c", "gpt2", "vgg16"}
	for i := 0; i < 12; i++ {
		if _, err := c.Submit(models[i%4], 1, 3000); err != nil {
			t.Fatal(err)
		}
	}
	// Observe that at some point a group with more than one job runs.
	sawGroup := make(chan struct{}, 1)
	go func() {
		for {
			h.srv.mu.Lock()
			for _, g := range h.srv.groups {
				if len(g.spec.Jobs) > 1 {
					select {
					case sawGroup <- struct{}{}:
					default:
					}
				}
			}
			h.srv.mu.Unlock()
			time.Sleep(10 * time.Millisecond)
		}
	}()
	st, err := c.WaitAllDone(30*time.Second, 30*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v (status %+v)", err, st)
	}
	if st.Done != 12 {
		t.Fatalf("done = %d, want 12", st.Done)
	}
	select {
	case <-sawGroup:
	default:
		t.Error("no multi-job interleaving group was ever launched")
	}
}

func TestEndToEndMultipleExecutors(t *testing.T) {
	h := startHarness(t, Config{Policy: sched.NewMuriS()}, 3, nil)
	c := h.client(t)
	for i := 0; i < 10; i++ {
		gpus := 1
		if i%3 == 0 {
			gpus = 4
		}
		if _, err := c.Submit("bert", gpus, 40); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.WaitAllDone(30*time.Second, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 10 {
		t.Fatalf("done = %d, want 10", st.Done)
	}
}

func TestFaultRequeuesAndCompletes(t *testing.T) {
	var mu sync.Mutex
	failed := make(map[int64]bool)
	fault := func(jobID, iter int64) error {
		mu.Lock()
		defer mu.Unlock()
		// Fail job 1 exactly once, partway through.
		if jobID == 1 && !failed[jobID] && iter >= 10 {
			failed[jobID] = true
			return errors.New("injected fault")
		}
		return nil
	}
	h := startHarness(t, Config{}, 1, fault)
	c := h.client(t)
	if _, err := c.Submit("dqn", 1, 40); err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("done = %d, want 1 (job should recover from fault)", st.Done)
	}
	mu.Lock()
	defer mu.Unlock()
	if !failed[1] {
		t.Error("fault was never injected")
	}
	h.srv.mu.Lock()
	faults := h.srv.jobs[1].job.Faults
	h.srv.mu.Unlock()
	if faults != 1 {
		t.Errorf("recorded faults = %d, want 1", faults)
	}
}

func TestProfilingOnFirstSubmission(t *testing.T) {
	h := startHarness(t, Config{ProfileIterations: 2}, 1, nil)
	c := h.client(t)
	if _, err := c.Submit("resnet18", 1, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	h.srv.mu.Lock()
	prof, ok := h.srv.profiles["resnet18"]
	h.srv.mu.Unlock()
	if !ok {
		t.Fatal("no cached profile after first submission")
	}
	// Storage dominates ResNet18 in the zoo.
	if prof[0] < prof[1] || prof[0] < prof[3] {
		t.Errorf("profile %v: storage should dominate resnet18", prof)
	}
	// A second submission of the same model must reuse the cache (no
	// profiling state).
	if _, err := c.Submit("resnet18", 1, 10); err != nil {
		t.Fatal(err)
	}
	h.srv.mu.Lock()
	state := h.srv.jobs[2].job.State
	h.srv.mu.Unlock()
	if state == job.Profiling {
		t.Error("second submission re-profiled instead of reusing the cache")
	}
	if _, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	h := startHarness(t, Config{}, 1, nil)
	c := h.client(t)
	if _, err := c.Submit("nosuchmodel", 1, 10); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := c.Submit("gpt2", 1, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestStatusCounts(t *testing.T) {
	h := startHarness(t, Config{}, 1, nil)
	c := h.client(t)
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Executors != 1 || len(st.Jobs) != 0 {
		t.Errorf("fresh status = %+v", st)
	}
	if _, err := c.Submit("a2c", 1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	st, err = c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending+st.Running != 1 {
		t.Errorf("status after submit = %+v, want one live job", st)
	}
}

func TestExecutorDropRequeuesJobs(t *testing.T) {
	h := startHarness(t, Config{}, 2, nil)
	c := h.client(t)
	if _, err := c.Submit("bert", 1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	// Wait until it runs, then kill its executor's connection.
	deadline := time.Now().Add(5 * time.Second)
	var victim *executorConn
	for victim == nil {
		h.srv.mu.Lock()
		for _, g := range h.srv.groups {
			victim = g.exec
		}
		h.srv.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim.conn.Close()
	// The job must be requeued and resume on the surviving executor.
	deadline = time.Now().Add(5 * time.Second)
	for {
		h.srv.mu.Lock()
		running := false
		for _, g := range h.srv.groups {
			if g.exec != victim {
				running = true
			}
		}
		execs := len(h.srv.executors)
		h.srv.mu.Unlock()
		if running && execs == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not migrate after executor drop")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// silentConn registers as an executor and then goes quiet without
// closing the TCP connection — a hung machine.
func TestLivenessEvictsSilentExecutor(t *testing.T) {
	cfg := Config{
		Interval:        20 * time.Millisecond,
		LivenessTimeout: 150 * time.Millisecond,
		TimeScale:       0.001,
	}
	cfg.Logf = t.Logf
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close(); wg.Wait() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := newTestCodec(conn)
	if err := codec.register("silent-machine", 8); err != nil {
		t.Fatal(err)
	}
	// Registered?
	waitFor(t, 2*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.executors) == 1
	}, "executor never registered")
	// Now stay silent: no heartbeats. The reaper must evict it.
	waitFor(t, 3*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.executors) == 0
	}, "silent executor never evicted")
}

// TestHeartbeatKeepsExecutorAlive runs a real agent (which heartbeats)
// against a short liveness timeout: it must stay registered.
func TestHeartbeatKeepsExecutorAlive(t *testing.T) {
	cfg := Config{
		Interval:        20 * time.Millisecond,
		LivenessTimeout: 250 * time.Millisecond,
		TimeScale:       0.001,
	}
	cfg.Logf = t.Logf
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	agent := &executor.Agent{MachineID: "alive", GPUs: 8, Logf: t.Logf,
		HeartbeatEvery: 50 * time.Millisecond}
	wg.Add(1)
	go func() { defer wg.Done(); _ = agent.Run(ctx, ln.Addr().String()) }()
	t.Cleanup(func() { cancel(); srv.Close(); wg.Wait() })

	waitFor(t, 2*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.executors) == 1
	}, "agent never registered")
	// Hold well past the liveness timeout; the heartbeats must keep it.
	time.Sleep(4 * cfg.LivenessTimeout)
	srv.mu.Lock()
	n := len(srv.executors)
	srv.mu.Unlock()
	if n != 1 {
		t.Fatalf("heartbeating executor evicted (registered=%d)", n)
	}
}

// TestRunWithRetryReconnects restarts the scheduler and checks the agent,
// retrying its one address under RunHA, re-registers.
func TestRunWithRetryReconnects(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	cfg := Config{Interval: 20 * time.Millisecond, TimeScale: 0.001}
	cfg.Logf = t.Logf
	srv1 := New(cfg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv1.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	agent := &executor.Agent{MachineID: "retry", GPUs: 8, Logf: t.Logf,
		HeartbeatEvery: 30 * time.Millisecond}
	wg.Add(1)
	go func() { defer wg.Done(); _ = agent.RunHA(ctx, []string{addr}, time.Second) }()
	t.Cleanup(func() { cancel(); wg.Wait() })

	waitFor(t, 2*time.Second, func() bool {
		srv1.mu.Lock()
		defer srv1.mu.Unlock()
		return len(srv1.executors) == 1
	}, "agent never registered with first server")
	srv1.Close()

	// Start a replacement scheduler on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := New(cfg)
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { srv2.Close() })
	waitFor(t, 5*time.Second, func() bool {
		srv2.mu.Lock()
		defer srv2.mu.Unlock()
		return len(srv2.executors) == 1
	}, "agent never re-registered after scheduler restart")
}

// waitFor polls cond until true or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testCodec is a minimal hand-rolled executor for protocol tests.
type testCodec struct{ c *proto.Codec }

func newTestCodec(conn net.Conn) *testCodec { return &testCodec{proto.NewCodec(conn)} }

func (tc *testCodec) register(machine string, gpus int) error {
	if err := tc.c.Write(&proto.Message{Type: proto.TypeRegister,
		Register: &proto.Register{MachineID: machine, GPUs: gpus}}); err != nil {
		return err
	}
	m, err := tc.c.Read()
	if err != nil {
		return err
	}
	if m.Type != proto.TypeRegisterAck || !m.RegisterAck.OK {
		return errors.New("registration rejected")
	}
	return nil
}

func TestClientReplayTrace(t *testing.T) {
	h := startHarness(t, Config{}, 2, nil)
	c := h.client(t)
	tr := trace.Generate(trace.GenConfig{
		Name: "replay", Jobs: 10, Seed: 31, MaxGPUs: 8,
		MeanInterarrival: 2 * time.Second, // virtual; compressed below
		MedianDuration:   time.Minute,
		MaxDuration:      2 * time.Minute,
	})
	ids, err := c.Replay(context.Background(), tr, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("replayed %d jobs, want 10", len(ids))
	}
	st, err := c.WaitAllDone(30*time.Second, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 10 {
		t.Errorf("done = %d, want 10", st.Done)
	}
}

func TestClientReplayValidation(t *testing.T) {
	h := startHarness(t, Config{}, 1, nil)
	c := h.client(t)
	if _, err := c.Replay(context.Background(), trace.Trace{}, 0); err == nil {
		t.Error("zero time scale accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := trace.Generate(trace.GenConfig{Name: "t", Jobs: 3, Seed: 1,
		MeanInterarrival: time.Hour, MedianDuration: time.Minute, MaxDuration: time.Minute, MaxGPUs: 1})
	if _, err := c.Replay(ctx, tr, 1.0); err == nil {
		t.Error("cancelled replay returned nil error")
	}
}

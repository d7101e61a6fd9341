package server

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muri/internal/executor"
	"muri/internal/proto"
	"muri/internal/sched"
)

// TestPredictorStateSurvivesRestart crashes the daemon after completions
// have trained the online predictor and requires the restarted daemon —
// whether it recovered from a snapshot, Done-record replay, or both — to
// report the identical predictor state: the estimator's beliefs are
// recoverable state, not a cache that resets with the process.
func TestPredictorStateSurvivesRestart(t *testing.T) {
	cfg := Config{
		Policy:        sched.SRTF(),
		Interval:      20 * time.Millisecond,
		TimeScale:     0.0005,
		ReportEvery:   10 * time.Millisecond,
		Logf:          t.Logf,
		StateDir:      t.TempDir(),
		FsyncEvery:    1,
		SnapshotEvery: 50 * time.Millisecond,
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
	cur := srv
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		cur.Close()
		wg.Wait()
	}()
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
	for i := 0; i < 3; i++ {
		if _, err := c.SubmitSpec(proto.JobSpec{
			Model: "gpt2", GPUs: 8, Iterations: 400, Stages: parityStages,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pre := waitStatus(t, c, "all jobs done and predictor trained",
		func(st proto.StatusAck) bool {
			return st.Done == 3 && st.Predictor != nil && st.Predictor.Completions == 3
		})
	if pre.Predictor.Models != 1 {
		t.Fatalf("pre-crash predictor tracks %d models, want 1 (gpt2)", pre.Predictor.Models)
	}

	srv.Crash()
	c.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := New(cfg) // same state dir, fresh predictor instance
	serve(srv2, ln2)
	cur = srv2
	c = dialRetry(t, addr)
	post := waitStatus(t, c, "recovered status with predictor",
		func(st proto.StatusAck) bool { return st.Done == 3 && st.Predictor != nil })
	if *post.Predictor != *pre.Predictor {
		t.Errorf("predictor state diverged across restart:\n  pre  = %+v\n  post = %+v",
			*pre.Predictor, *post.Predictor)
	}
}

// observingPolicy is a policy with a completion hook that counts its
// calls.
type observingPolicy struct {
	sched.Policy
	observed atomic.Int64
}

func (p *observingPolicy) Observe(time.Duration) { p.observed.Add(1) }

// TestCompletionHookHearsLiveAndReplayedDone: a policy with a completion
// hook hears every live completion once, and a daemon restarted from the
// same state dir hears each again as it replays the Done records logged
// after the newest snapshot (none here: the whole log replays).
func TestCompletionHookHearsLiveAndReplayedDone(t *testing.T) {
	const jobs = 3
	live := &observingPolicy{Policy: sched.SRTF()}
	cfg := Config{Policy: live, StateDir: t.TempDir(), FsyncEvery: 1, SnapshotEvery: time.Hour}
	h := startHarness(t, cfg, 1, nil)
	c := h.client(t)
	for i := 0; i < jobs; i++ {
		if _, err := c.Submit("gpt2", 1, 20); err != nil {
			t.Fatal(err)
		}
	}
	waitStatus(t, c, "all jobs done", func(st proto.StatusAck) bool { return st.Done == jobs })
	if n := live.observed.Load(); n != jobs {
		t.Fatalf("live daemon: completion hook heard %d completions, want %d", n, jobs)
	}
	h.srv.Crash()

	replayed := &observingPolicy{Policy: sched.SRTF()}
	next := cfg
	next.Policy, next.Logf = replayed, t.Logf
	srv := New(next)
	if err := srv.startDurability(); err != nil {
		t.Fatal(err)
	}
	defer srv.Crash()
	if n := replayed.observed.Load(); n != jobs {
		t.Fatalf("restarted daemon: completion hook heard %d replayed completions, want %d", n, jobs)
	}
}

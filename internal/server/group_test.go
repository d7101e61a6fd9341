// Tests for group membership: a launched group's spec is the unit it
// placed, and it shrinks as members finish or fault. The survivors keep
// running — no kill, no relaunch, the same group ID — while the policy
// re-plans them as that shrunk unit, across a daemon crash too.
package server

import (
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/executor"
	"muri/internal/job"
	"muri/internal/proto"
	"muri/internal/sched"
)

// oneUnit is a preemptive policy that interleaves every candidate, in ID
// order, as one unit on the first one's GPUs.
type oneUnit struct{}

func (oneUnit) Name() string     { return "one-unit" }
func (oneUnit) Preemptive() bool { return true }
func (oneUnit) Plan(_ time.Duration, jobs []*job.Job, _ int) []sched.Unit {
	if len(jobs) == 0 {
		return nil
	}
	jobs = slices.Clone(jobs)
	slices.SortFunc(jobs, func(a, b *job.Job) int { return int(a.ID - b.ID) })
	return []sched.Unit{{Jobs: jobs, GPUs: jobs[0].GPUs, Mode: sched.Interleaved}}
}

// groupOf returns the ID and members of the group job id is bound to.
func groupOf(s *Server, id int64) (int64, []job.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := find(s.groups, s.jobs[id].groupID, groupIDOf)
	if g == nil {
		return 0, nil
	}
	var members []job.ID
	for _, j := range g.spec.Jobs {
		members = append(members, j.ID)
	}
	return g.id, members
}

// TestShrunkGroupContinues: a three-member group loses members to
// completion and keeps running as the shrunk unit under its group ID,
// with no decision; re-planned differently, or killed by an injected
// fault, it is named by its shrunk composition. No decision ever names a
// job that was done when it was issued.
func TestShrunkGroupContinues(t *testing.T) {
	var srv *Server
	tap := &decisionTap{}
	cfg := Config{
		Policy:           oneUnit{},
		LivenessTimeout:  time.Hour,
		FaultBackoffBase: time.Hour, // a faulted job stays out of the script
		FaultBackoffMax:  time.Hour,
		Observer: func(d engine.Decision) { // runs under srv.mu
			for _, id := range d.Jobs {
				if srv.jobs[int64(id)].job.State == job.Done {
					t.Errorf("%s names job %d, which is done", d, id)
				}
			}
			tap.observe(d)
		},
	}
	rig := newRoundRig(t, cfg)
	srv = rig.srv
	rig.register("m0", 8, nil)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := srv.submit(pendSpec("")); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(desc string, want ...string) {
		t.Helper()
		rig.round()
		if got := tap.snapshot(); !slices.Equal(got, want) {
			t.Fatalf("%s: decision stream %v, want %v", desc, got, want)
		}
	}
	done := func(id int64) {
		gid, _ := groupOf(srv, id)
		srv.onJobDone(&proto.JobDone{GroupID: gid, JobID: id})
	}

	submit(3)
	launch := []string{"launch interleaved:1,2,3"}
	step("three jobs", launch...)
	gid, _ := groupOf(srv, 1)

	done(1)
	step("job 1 done", launch...)
	if g, members := groupOf(srv, 2); g != gid || !slices.Equal(members, []job.ID{2, 3}) {
		t.Fatalf("after job 1 finished: group %d with %v, want group %d with [2 3]", g, members, gid)
	}

	submit(1)
	regroup := append(launch, "kill interleaved:2,3", "launch interleaved:2,3,4")
	step("job 4 joins", regroup...)
	gid, _ = groupOf(srv, 4)

	done(2)
	step("job 2 done", regroup...)
	if g, members := groupOf(srv, 3); g != gid || !slices.Equal(members, []job.ID{3, 4}) {
		t.Fatalf("after job 2 finished: group %d with %v, want group %d with [3 4]", g, members, gid)
	}

	if err := srv.injectFault(&proto.InjectFault{JobID: 4}); err != nil {
		t.Fatal(err)
	}
	want := append(regroup, "kill interleaved:3,4", "requeue 4 (fault)", "launch interleaved:3")
	step("job 4 faults", want...)
}

// TestCrashAdoptsShrunkGroup: a daemon crashes while a group that lost a
// member runs on. Its executor offers the group back under the launch
// key, the finished member included; the restarted daemon adopts the
// survivors, requeues nothing and decides nothing, and they finish under
// the same group ID.
func TestCrashAdoptsShrunkGroup(t *testing.T) {
	tap := &decisionTap{}
	cfg := Config{
		Policy:             oneUnit{},
		Interval:           20 * time.Millisecond,
		TimeScale:          0.0005,
		ReportEvery:        10 * time.Millisecond,
		StarvationPatience: 1 << 30,
		Observer:           tap.observe,
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
	waitStatus(t, c, "executor registration", func(st proto.StatusAck) bool { return st.Executors == 1 })
	// One admission batch, so the first round groups all three. An
	// iteration of the group takes 0.5ms wall: job 1 finishes in ~50ms,
	// the others run for seconds more.
	var specs []proto.JobSpec
	for _, iters := range []int64{100, 4000, 4400} {
		specs = append(specs, proto.JobSpec{Model: "gpt2", GPUs: 1, Iterations: iters, Stages: parityStages})
	}
	if _, err := c.SubmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, "job 1 done", func(st proto.StatusAck) bool { return stateOf(st, 1) == "done" })
	gid, members := groupOf(srv, 2)
	if !slices.Equal(members, []job.ID{2, 3}) {
		t.Fatalf("after job 1 finished: group %d with %v, want [2 3]", gid, members)
	}
	prefix := tap.snapshot()
	if want := []string{"launch interleaved:1,2,3"}; !slices.Equal(prefix, want) {
		t.Fatalf("before the crash: decision stream %v, want %v", prefix, want)
	}

	srv.Crash()
	c.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := New(cfg)
	serve(srv2, ln2)
	cur = srv2
	c = dialRetry(t, addr)
	waitStatus(t, c, "executor re-registration", func(st proto.StatusAck) bool { return st.Executors == 1 })
	if g, members := groupOf(srv2, 2); g != gid || !slices.Equal(members, []job.ID{2, 3}) {
		t.Fatalf("after the restart: group %d with %v, want group %d with [2 3] adopted", g, members, gid)
	}
	st, err := c.WaitAllDone(30*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 3 {
		t.Fatalf("done = %d, want 3", st.Done)
	}
	if st.Faults != nil && st.Faults.Requeues != 0 {
		t.Errorf("fault summary after recovery = %+v, want no requeues", st.Faults)
	}
	if got := tap.snapshot(); !slices.Equal(got, prefix) {
		t.Errorf("decision stream %v, want %v: the adopted survivors continue", got, prefix)
	}
}

package executor

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muri/internal/proto"
)

// twoJobs builds a complementary pair: job 0 heavy on CPU, job 1 heavy on
// GPU, 1ms units so tests run fast at scale 1.
func twoJobs(iters int64) []proto.JobSpec {
	ms := time.Millisecond
	return []proto.JobSpec{
		{ID: 1, Model: "a2c", Stages: [4]time.Duration{0, 2 * ms, 1 * ms, 0}, Iterations: iters},
		{ID: 2, Model: "gpt2", Stages: [4]time.Duration{0, 1 * ms, 2 * ms, 0}, Iterations: iters},
	}
}

func TestGroupRunCompletesAllJobs(t *testing.T) {
	var doneIDs sync.Map
	g := NewGroupRun(twoJobs(20), 1.0, GroupEvents{
		JobDone: func(id int64) { doneIDs.Store(id, true) },
	}, nil)
	if err := g.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, id := range []int64{1, 2} {
		if _, ok := doneIDs.Load(id); !ok {
			t.Errorf("job %d did not complete", id)
		}
	}
	for _, p := range g.Progress() {
		if p.DoneIterations != 20 {
			t.Errorf("job %d done = %d, want 20", p.ID, p.DoneIterations)
		}
		if p.AvgIterTime <= 0 {
			t.Errorf("job %d avg iter time = %v, want > 0", p.ID, p.AvgIterTime)
		}
	}
}

func TestGroupRunInterleavingTiming(t *testing.T) {
	// Perfect complements should run faster together (Eq. 3 cycle of 4ms)
	// than one after another (3ms + 3ms per iteration). Compare against a
	// measured sequential execution so timer overhead and machine load
	// cancel out instead of flaking the test.
	iters := int64(30)
	g := NewGroupRun(twoJobs(iters), 1.0, GroupEvents{}, nil)
	start := time.Now()
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	interleaved := time.Since(start)

	start = time.Now()
	for _, spec := range twoJobs(iters) {
		solo := NewGroupRun([]proto.JobSpec{spec}, 1.0, GroupEvents{}, nil)
		if err := solo.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	sequential := time.Since(start)
	if interleaved >= sequential {
		t.Errorf("interleaved wall %v not faster than sequential %v", interleaved, sequential)
	}
}

func TestGroupRunCancellation(t *testing.T) {
	g := NewGroupRun(twoJobs(1_000_000), 1.0, GroupEvents{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancellation did not stop the group")
	}
	// Progress is preserved for the restart path.
	for _, p := range g.Progress() {
		if p.DoneIterations <= 0 {
			t.Errorf("job %d lost progress on cancel", p.ID)
		}
	}
}

func TestGroupRunResumeFromCheckpoint(t *testing.T) {
	jobs := twoJobs(10)
	jobs[0].DoneIterations = 7
	jobs[1].DoneIterations = 9
	g := NewGroupRun(jobs, 1.0, GroupEvents{}, nil)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Progress() {
		if p.DoneIterations != 10 {
			t.Errorf("job %d done = %d, want 10", p.ID, p.DoneIterations)
		}
	}
}

func TestGroupRunFaultInjection(t *testing.T) {
	faults := make(chan int64, 1)
	var doneJobs sync.Map
	fault := func(jobID, iter int64) error {
		if jobID == 1 && iter >= 5 {
			return errors.New("injected cuda error")
		}
		return nil
	}
	g := NewGroupRun(twoJobs(20), 1.0, GroupEvents{
		JobDone: func(id int64) { doneJobs.Store(id, true) },
		Fault:   func(id int64, err error) { faults <- id },
	}, fault)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-faults:
		if id != 1 {
			t.Errorf("faulted job = %d, want 1", id)
		}
	default:
		t.Fatal("no fault reported")
	}
	// The surviving member must still complete.
	if _, ok := doneJobs.Load(int64(2)); !ok {
		t.Error("healthy job 2 did not finish after peer fault")
	}
	if _, ok := doneJobs.Load(int64(1)); ok {
		t.Error("faulted job 1 reported done")
	}
	// The faulted member stops at the iteration its check failed; its
	// partner runs on to the end.
	for _, p := range g.Progress() {
		want := map[int64]int64{1: 5, 2: 20}[p.ID]
		if p.DoneIterations != want {
			t.Errorf("job %d done = %d, want %d", p.ID, p.DoneIterations, want)
		}
	}
}

func TestGroupRunAlreadyCompleteMemberReportsDone(t *testing.T) {
	// A relaunch can land on a job that finished before its group was
	// killed: it must still report JobDone, or the scheduler waits on it
	// forever.
	jobs := twoJobs(10)
	jobs[0].DoneIterations = 10
	var done sync.Map
	g := NewGroupRun(jobs, 1.0, GroupEvents{
		JobDone: func(id int64) { done.Store(id, true) },
	}, nil)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{1, 2} {
		if _, ok := done.Load(id); !ok {
			t.Errorf("job %d did not report done", id)
		}
	}
}

func TestGroupRunLateWakeupsDoNotAccumulate(t *testing.T) {
	// 800 stage slots of 25µs each sit far below the OS timer floor. Slot
	// ends are deadlines from the launch instant, so a late wakeup
	// shortens the following waits and the run ends near its nominal
	// 20ms; a relative sleep per slot pays every overshoot (about 6×).
	const iters, stage = 200, 25 * time.Microsecond
	jobs := []proto.JobSpec{{ID: 1, Stages: [4]time.Duration{stage, stage, stage, stage}, Iterations: iters}}
	g := NewGroupRun(jobs, 1.0, GroupEvents{}, nil)
	start := time.Now()
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	nominal := iters * 4 * stage
	if wall < nominal || wall > nominal*3/2 {
		t.Errorf("wall %v, want within [1, 1.5]× nominal %v", wall, nominal)
	}
}

func TestGroupRunSlotLastsLongestStage(t *testing.T) {
	// Job 1 (offset 0) runs its 2ms stage 1 in slot 1, where job 2
	// (offset 1) runs its 2ms stage 2: the slot lasts the longer of the
	// two, so an iteration takes 2ms, not the 4ms sum of both members'
	// stages.
	const iters = 50
	ms := time.Millisecond
	jobs := []proto.JobSpec{
		{ID: 1, Stages: [4]time.Duration{0, 2 * ms, 0, 0}, Iterations: iters},
		{ID: 2, Stages: [4]time.Duration{0, 0, 2 * ms, 0}, Iterations: iters},
	}
	g := NewGroupRun(jobs, 1.0, GroupEvents{}, nil)
	start := time.Now()
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	nominal := iters * 2 * ms // Σ over slots of the slot's longest stage
	if wall < nominal || wall > nominal*3/2 {
		t.Errorf("wall %v, want within [1, 1.5]× Σ max-stage %v (members' sum %v)",
			wall, nominal, 2*nominal)
	}
}

func TestGroupRunFourMembers(t *testing.T) {
	ms := time.Millisecond
	jobs := []proto.JobSpec{
		{ID: 1, Stages: [4]time.Duration{2 * ms, 0, 0, 0}, Iterations: 10},
		{ID: 2, Stages: [4]time.Duration{0, 2 * ms, 0, 0}, Iterations: 10},
		{ID: 3, Stages: [4]time.Duration{0, 0, 2 * ms, 0}, Iterations: 10},
		{ID: 4, Stages: [4]time.Duration{0, 0, 0, 2 * ms}, Iterations: 10},
	}
	var done atomic.Int32
	g := NewGroupRun(jobs, 1.0, GroupEvents{JobDone: func(int64) { done.Add(1) }}, nil)
	start := time.Now()
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if done.Load() != 4 {
		t.Fatalf("done = %d, want 4", done.Load())
	}
	// Four perfectly complementary jobs: each slot has exactly one busy
	// member (2ms), so 10 iterations ≈ 10×(4 slots ×2ms) = 80ms total,
	// versus 4×10×2ms = 80ms serial... but concurrent: all four run in
	// the same 80ms instead of sequentially (320ms).
	if wall := time.Since(start); wall > 300*time.Millisecond {
		t.Errorf("four-member group took %v, want well under serial 320ms", wall)
	}
}

func TestNewGroupRunValidation(t *testing.T) {
	cases := map[string]func(){
		"empty":     func() { NewGroupRun(nil, 1, GroupEvents{}, nil) },
		"oversized": func() { NewGroupRun(make([]proto.JobSpec, 5), 1, GroupEvents{}, nil) },
		"zeroScale": func() { NewGroupRun(twoJobs(1), 0, GroupEvents{}, nil) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestProfileModel(t *testing.T) {
	// Profile at a coarse time scale: sleeps below the OS timer floor
	// (~1ms) measure as pure overhead and destroy stage ratios, which is
	// exactly why the server profiles coarser than it executes.
	res, err := ProfileModel(context.Background(), "gpt2", 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// GPU stage (85ms virtual) must dominate the measured profile.
	if res.Stages[2] < res.Stages[0] || res.Stages[2] < res.Stages[3] {
		t.Errorf("measured stages %v: GPU should dominate for gpt2", res.Stages)
	}
}

func TestProfileModelUnknown(t *testing.T) {
	if _, err := ProfileModel(context.Background(), "nosuch", 1, 1); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestProfileModelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfileModel(ctx, "gpt2", 100, 1.0); err == nil {
		t.Error("cancelled profile returned nil error")
	}
}

// fakeScheduler drives an Agent over net.Pipe for integration testing.
type fakeScheduler struct {
	codec *proto.Codec
	recv  chan *proto.Message
}

func startAgentPair(t *testing.T, fault FaultFunc) (*fakeScheduler, context.CancelFunc) {
	t.Helper()
	schedConn, execConn := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	agent := &Agent{MachineID: "m0", GPUs: 8, Fault: fault, Logf: t.Logf}
	go func() { _ = agent.Serve(ctx, execConn) }()
	fs := &fakeScheduler{codec: proto.NewCodec(schedConn), recv: make(chan *proto.Message, 100)}
	go func() {
		for {
			m, err := fs.codec.Read()
			if err != nil {
				close(fs.recv)
				return
			}
			fs.recv <- m
		}
	}()
	return fs, func() { cancel(); schedConn.Close() }
}

func (fs *fakeScheduler) expect(t *testing.T, typ proto.Type, timeout time.Duration) *proto.Message {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case m, ok := <-fs.recv:
			if !ok {
				t.Fatalf("connection closed while waiting for %s", typ)
			}
			if m.Type == typ {
				return m
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", typ)
		}
	}
}

func TestAgentRegistersAndRunsGroup(t *testing.T) {
	fs, stop := startAgentPair(t, nil)
	defer stop()
	reg := fs.expect(t, proto.TypeRegister, 2*time.Second)
	if reg.Register.MachineID != "m0" || reg.Register.GPUs != 8 {
		t.Fatalf("register = %+v", reg.Register)
	}
	if err := fs.codec.Write(&proto.Message{Type: proto.TypeRegisterAck, RegisterAck: &proto.RegisterAck{OK: true}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.codec.Write(&proto.Message{Type: proto.TypeLaunch, Launch: &proto.Launch{
		GroupID: 1, GPUs: 1, Jobs: twoJobs(10), TimeScale: 1, ReportEvery: 10 * time.Millisecond,
	}}); err != nil {
		t.Fatal(err)
	}
	// Expect both completions and at least one progress report.
	doneSeen := map[int64]bool{}
	progressSeen := false
	deadline := time.After(5 * time.Second)
	for len(doneSeen) < 2 {
		select {
		case m, ok := <-fs.recv:
			if !ok {
				t.Fatal("connection closed early")
			}
			switch m.Type {
			case proto.TypeJobDone:
				doneSeen[m.JobDone.JobID] = true
			case proto.TypeProgress:
				progressSeen = true
			}
		case <-deadline:
			t.Fatalf("jobs did not finish: %v", doneSeen)
		}
	}
	if !progressSeen {
		t.Error("no progress report received")
	}
}

func TestAgentKillStopsGroup(t *testing.T) {
	fs, stop := startAgentPair(t, nil)
	defer stop()
	fs.expect(t, proto.TypeRegister, 2*time.Second)
	_ = fs.codec.Write(&proto.Message{Type: proto.TypeRegisterAck, RegisterAck: &proto.RegisterAck{OK: true}})
	_ = fs.codec.Write(&proto.Message{Type: proto.TypeLaunch, Launch: &proto.Launch{
		GroupID: 2, GPUs: 1, Jobs: twoJobs(1_000_000), TimeScale: 1, ReportEvery: 20 * time.Millisecond,
	}})
	fs.expect(t, proto.TypeProgress, 2*time.Second)
	_ = fs.codec.Write(&proto.Message{Type: proto.TypeKill, Kill: &proto.Kill{GroupID: 2}})
	// After the kill, a final progress snapshot arrives and then reports
	// stop. Drain until quiet.
	final := fs.expect(t, proto.TypeProgress, 2*time.Second)
	if final.Progress.GroupID != 2 {
		t.Errorf("final progress group = %d, want 2", final.Progress.GroupID)
	}
}

func TestAgentProfileRequest(t *testing.T) {
	fs, stop := startAgentPair(t, nil)
	defer stop()
	fs.expect(t, proto.TypeRegister, 2*time.Second)
	_ = fs.codec.Write(&proto.Message{Type: proto.TypeRegisterAck, RegisterAck: &proto.RegisterAck{OK: true}})
	_ = fs.codec.Write(&proto.Message{Type: proto.TypeProfileReq, ProfileReq: &proto.ProfileReq{
		Model: "a2c", Iterations: 2, TimeScale: 0.05,
	}})
	m := fs.expect(t, proto.TypeProfiled, 3*time.Second)
	if m.Profiled.Model != "a2c" || m.Profiled.Err != "" {
		t.Fatalf("profiled = %+v", m.Profiled)
	}
	// CPU stage dominates A2C.
	if m.Profiled.Stages[1] < m.Profiled.Stages[2] {
		t.Errorf("profiled stages %v: CPU should dominate for a2c", m.Profiled.Stages)
	}
}

func TestAgentFaultPropagates(t *testing.T) {
	fault := func(jobID, iter int64) error {
		if jobID == 1 && iter >= 3 {
			return errors.New("boom")
		}
		return nil
	}
	fs, stop := startAgentPair(t, fault)
	defer stop()
	fs.expect(t, proto.TypeRegister, 2*time.Second)
	_ = fs.codec.Write(&proto.Message{Type: proto.TypeRegisterAck, RegisterAck: &proto.RegisterAck{OK: true}})
	_ = fs.codec.Write(&proto.Message{Type: proto.TypeLaunch, Launch: &proto.Launch{
		GroupID: 3, GPUs: 1, Jobs: twoJobs(50), TimeScale: 1, ReportEvery: 10 * time.Millisecond,
	}})
	m := fs.expect(t, proto.TypeFault, 5*time.Second)
	if m.Fault.JobID != 1 || m.Fault.Error != "boom" {
		t.Errorf("fault = %+v", m.Fault)
	}
}

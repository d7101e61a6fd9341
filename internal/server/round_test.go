// Tests for round assembly: the live index scheduleLocked walks must
// always equal a scan-and-sort of the job map it shadows, the group and
// executor tables must stay in ascending ID order, a group's spec must
// list exactly the jobs bound to it, and a round's cost must not grow
// with the jobs that have finished.
package server

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"muri/internal/job"
	"muri/internal/proto"
	"muri/internal/wal"
)

// roundRig drives a Server with no listener and no schedule loop: the
// test calls the message handlers and scheduleLocked itself, and fake
// executors are handleExecutor goroutines on pipes whose far end is
// discarded, so every step is synchronous.
type roundRig struct {
	t     *testing.T
	srv   *Server
	execs sync.WaitGroup
	pipes []net.Conn
	// runs is each machine's latest registration, keeping the groups it
	// was sent.
	runs map[string]*execRuns
}

// execRuns is the daemon's end of a fake executor's pipe. It decodes each
// frame as the daemon sends it (one Write per frame), so it holds the
// groups a real executor would be running: the offered groups the
// RegisterAck adopted, then every launched member under the launch key
// until a Kill. Launch and Kill frames are written under Server.mu, the
// RegisterAck before register returns.
type execRuns struct {
	net.Conn
	groups map[int64]proto.RunningGroup
}

func (c *execRuns) Write(p []byte) (int, error) {
	if m, err := proto.NewCodec(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(p), io.Discard}).Read(); err == nil {
		switch m.Type {
		case proto.TypeRegisterAck:
			maps.DeleteFunc(c.groups, func(gid int64, _ proto.RunningGroup) bool {
				return !slices.Contains(m.RegisterAck.AdoptedGroups, gid)
			})
		case proto.TypeLaunch:
			rg := proto.RunningGroup{GroupID: m.Launch.GroupID, Key: m.Launch.Key, GPUs: m.Launch.GPUs}
			for _, j := range m.Launch.Jobs {
				rg.Jobs = append(rg.Jobs, proto.RunningJob{ID: j.ID})
			}
			c.groups[rg.GroupID] = rg
		case proto.TypeKill:
			delete(c.groups, m.Kill.GroupID)
		}
	}
	return c.Conn.Write(p)
}

func newRoundRig(t *testing.T, cfg Config) *roundRig {
	t.Helper()
	cfg.Logf = func(string, ...any) {}
	r := &roundRig{t: t, srv: New(cfg), runs: make(map[string]*execRuns)}
	if err := r.srv.startDurability(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.stop)
	return r
}

// register brings up one fake executor offering groups for adoption and
// returns once the daemon has accepted or refused it.
func (r *roundRig) register(id string, gpus int, groups []proto.RunningGroup) {
	r.t.Helper()
	pipe, far := net.Pipe()
	near := &execRuns{Conn: pipe, groups: make(map[int64]proto.RunningGroup)}
	for _, rg := range groups {
		near.groups[rg.GroupID] = rg
	}
	r.runs[id] = near
	r.pipes = append(r.pipes, far)
	acked := make(chan struct{})
	go func() {
		if _, err := proto.NewCodec(far).Read(); err == nil { // the RegisterAck
			close(acked)
		}
		_, _ = io.Copy(io.Discard, far) // launches, kills, profile requests
	}()
	r.execs.Add(1)
	go func() {
		defer r.execs.Done()
		r.srv.handleExecutor(near, proto.NewCodec(near),
			&proto.Register{MachineID: id, GPUs: gpus, Groups: groups})
	}()
	select {
	case <-acked:
	case <-time.After(10 * time.Second):
		r.t.Fatalf("executor %s never got a register ack", id)
	}
}

// stop closes the daemon and every fake executor.
func (r *roundRig) stop() {
	r.srv.Close()
	for _, p := range r.pipes {
		p.Close()
	}
	r.execs.Wait()
}

// referenceCandidatesLocked is the candidate assembly the live index
// replaced, kept as the oracle: collect every job ID, sort, filter. The
// offered jobs are the unfinished ones outside their fault backoff; the
// engine applies the State rule itself.
func referenceCandidatesLocked(s *Server, wallNow time.Time) []*job.Job {
	ids := make([]int64, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var candidates []*job.Job
	for _, id := range ids {
		js := s.jobs[id]
		if st := js.job.State; st == job.Done || st == job.Deadletter || wallNow.Before(js.notBefore) {
			continue
		}
		candidates = append(candidates, js.job)
	}
	return candidates
}

// indexMismatchLocked compares the indexed candidates with the
// reference, checks the group and executor tables' order and every
// group's membership, and returns the first difference, or "" (returned,
// not failed: the caller holds s.mu, which the rig's cleanup needs).
func indexMismatchLocked(s *Server) string {
	now := time.Now()
	want := referenceCandidatesLocked(s, now)
	if got := s.roundCandidatesLocked(now); !slices.Equal(got, want) {
		return fmt.Sprintf("indexed candidates %v, full scan %v", jobIDs(got), jobIDs(want))
	}
	var live []int64
	for id, js := range s.jobs {
		if st := js.job.State; st != job.Done && st != job.Deadletter {
			live = append(live, id)
		}
	}
	slices.Sort(live)
	var gotLive []int64
	for _, js := range s.live {
		gotLive = append(gotLive, js.spec.ID)
	}
	if !slices.Equal(gotLive, live) {
		return fmt.Sprintf("live index %v, non-terminal jobs %v", gotLive, live)
	}
	for i := 1; i < len(s.executors); i++ {
		if a, b := s.executors[i-1].id, s.executors[i].id; a >= b {
			return fmt.Sprintf("executor table lists %s before %s", a, b)
		}
	}
	for i := 1; i < len(s.groups); i++ {
		if a, b := s.groups[i-1].id, s.groups[i].id; a >= b {
			return fmt.Sprintf("group table lists %d before %d", a, b)
		}
	}
	// A group's spec lists exactly the running jobs bound to it.
	bound := make(map[int64][]job.ID)
	for _, js := range s.live {
		if js.groupID != 0 {
			bound[js.groupID] = append(bound[js.groupID], js.job.ID)
		}
	}
	for _, g := range s.groups {
		var members []job.ID
		for _, j := range g.spec.Jobs {
			if j.State != job.Running {
				return fmt.Sprintf("group %d lists job %d, which is %s", g.id, j.ID, j.State)
			}
			members = append(members, j.ID)
		}
		slices.Sort(members)
		if !slices.Equal(members, bound[g.id]) {
			return fmt.Sprintf("group %d lists jobs %v, jobs bound to it %v", g.id, members, bound[g.id])
		}
		delete(bound, g.id)
	}
	if len(bound) > 0 {
		return fmt.Sprintf("jobs bound to groups that do not exist: %v", bound)
	}
	return ""
}

// check fails the test if an index has drifted from its map.
func (r *roundRig) check(when string) {
	r.t.Helper()
	r.srv.mu.Lock()
	diff := indexMismatchLocked(r.srv)
	r.srv.mu.Unlock()
	if diff != "" {
		r.t.Fatalf("%s: %s", when, diff)
	}
}

func jobIDs(jobs []*job.Job) []job.ID {
	ids := make([]job.ID, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// round runs one scheduling round, checking the indexes on what the
// round is about to see and on what it leaves behind.
func (r *roundRig) round() {
	r.t.Helper()
	s := r.srv
	s.mu.Lock()
	s.drainIngestLocked()
	before := indexMismatchLocked(s)
	s.scheduleLocked()
	after := indexMismatchLocked(s)
	s.mu.Unlock()
	if before != "" {
		r.t.Fatalf("before round: %s", before)
	}
	if after != "" {
		r.t.Fatalf("after round: %s", after)
	}
}

// offers snapshots the groups each executor would re-offer after the
// daemon dies under it: every group it was sent and the daemon still
// runs (a group whose members all left has ended on its machine too),
// each member with its progress.
func (r *roundRig) offers() map[string][]proto.RunningGroup {
	s := r.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]proto.RunningGroup)
	for id, runs := range r.runs {
		for gid, rg := range runs.groups {
			if find(s.groups, gid, groupIDOf) == nil {
				continue
			}
			rg.Jobs = slices.Clone(rg.Jobs)
			for i := range rg.Jobs {
				rg.Jobs[i].DoneIterations = s.jobs[rg.Jobs[i].ID].job.DoneIterations
			}
			out[id] = append(out[id], rg)
		}
	}
	return out
}

// maskUnlogged zeroes what no record carries, so the rest of two snapshots
// can be compared whole: the stamps of the checkpoint itself, then the
// documented loss windows of DESIGN.md §12 in the order listed there.
func maskUnlogged(sn *wal.Snapshot) {
	sn.TakenWall, sn.V = 0, 0 // when the checkpoint was cut, not state
	// (1) Acked but not admitted: IDs handed to submissions still in the
	// ingest queue die with the process.
	sn.NextJobID = 0
	// (2) Progress between checkpoints: iteration counts and attained
	// service move with every executor report, and are logged at detach.
	for i := range sn.Jobs {
		sn.Jobs[i].DoneIterations, sn.Jobs[i].AttainedV = 0, 0
	}
	// (3) Registrations and lease evictions are not logged.
	sn.Faults.Repairs, sn.LeaseEvictions = 0, 0
	// (4) Round state only snapshots carry: the round count and queue
	// gauge, the starvation ledger and the wait-cause gate.
	e := &sn.Engine
	e.Stats.Rounds, e.Stats.QueueDepth, e.Bypassed, e.WaitCauses = 0, 0, nil, nil
}

// checkReplay is the live ≡ replay oracle: recover a copy of the state dir
// into a fresh Server and require every record-derived field of its
// snapshot to equal the live daemon's.
func (r *roundRig) checkReplay(cfg Config, when string) {
	r.t.Helper()
	s := r.srv
	s.mu.Lock()
	err := s.w.Sync() // the copy must hold every record the live state reflects
	live := s.buildSnapshotLocked()
	s.mu.Unlock()
	if err != nil {
		r.t.Fatalf("%s: wal sync: %v", when, err)
	}
	dir := r.t.TempDir()
	copyDir(r.t, cfg.StateDir, dir)
	cfg.StateDir, cfg.StandbyOf = dir, ""
	cfg.Logf = func(string, ...any) {}
	twin := New(cfg)
	if err := twin.startDurability(); err != nil {
		r.t.Fatalf("%s: recover the copy: %v", when, err)
	}
	twin.mu.Lock()
	replayed := twin.buildSnapshotLocked()
	twin.mu.Unlock()
	twin.Crash() // nothing of the twin is worth an fsync
	maskUnlogged(live)
	maskUnlogged(replayed)
	for i := range live.Jobs {
		if i < len(replayed.Jobs) && !reflect.DeepEqual(live.Jobs[i], replayed.Jobs[i]) {
			r.t.Fatalf("%s: job %d\n  live   %+v\n  replay %+v", when, live.Jobs[i].Spec.ID, live.Jobs[i], replayed.Jobs[i])
		}
	}
	if string(live.Explain) != string(replayed.Explain) {
		r.t.Fatalf("%s: explain state\n  live   %s\n  replay %s", when, live.Explain, replayed.Explain)
	}
	if !reflect.DeepEqual(live, replayed) {
		r.t.Fatalf("%s: live and replayed state differ\n  live   %+v\n  replay %+v", when, live, replayed)
	}
}

// TestRoundAssemblyMatchesFullScan walks a seeded random lifecycle —
// submit, profile, progress, done (on time and straggling), fault and
// backoff, dead-letter, kill, executor drop and rejoin, crash + recover,
// standby promotion — and checks around every round that the indexed
// candidate and Current lists equal the scan-and-sort they replaced, and
// every few steps that replaying the log rebuilds the state the live
// handlers left (checkReplay).
func TestRoundAssemblyMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { roundLifecycle(t, seed) })
	}
}

// oracleEvery spaces the live ≡ replay checks: each recovers a copy of the
// state dir, and one per step would take the three seeds from seconds to
// half a minute. Under the race detector, where decoding a snapshot's JSON
// costs ten times as much, they are four times as far apart.
func oracleEvery() int {
	if raceEnabled {
		return 20
	}
	return 5
}

func roundLifecycle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		FaultBackoffBase: time.Millisecond,
		FaultBackoffMax:  3 * time.Millisecond,
		FaultRetryBudget: 2,
		LivenessTimeout:  time.Hour, // the fake executors never heartbeat
		StateDir:         t.TempDir(),
		FsyncEvery:       4, // a crash loses a short tail
		SnapshotEvery:    20 * time.Millisecond,
		ElectionTTL:      time.Hour, // promotion is the test's call
	}
	const machines, gpus = 3, 4
	machine := func(i int) string { return fmt.Sprintf("m%d", i) }
	rig := newRoundRig(t, cfg)
	for i := 0; i < machines; i++ {
		rig.register(machine(i), gpus, nil)
	}

	// restart kills the daemon and brings up its successor — the same
	// state dir restarted, or a copy of it promoted from standby — with
	// a random subset of executors returning to offer their groups.
	restart := func(promote bool) {
		offers := rig.offers()
		rig.srv.Crash()
		rig.stop()
		next := cfg
		if promote {
			next.StateDir = t.TempDir()
			copyDir(t, cfg.StateDir, next.StateDir)
			next.StandbyOf = "127.0.0.1:1" // nothing listens: the leader is dead
		}
		rig = newRoundRig(t, next)
		if promote {
			rig.srv.promote()
			next.StandbyOf = ""
		}
		cfg = next
		for i := 0; i < machines; i++ {
			if rng.Intn(4) > 0 {
				rig.register(machine(i), gpus, offers[machine(i)])
			}
		}
		rig.check("after recovery")
		if rng.Intn(2) == 0 {
			rig.srv.mu.Lock()
			rig.srv.adoptUntil = time.Now() // the missing executors never return
			rig.srv.mu.Unlock()
		}
	}

	// pick returns a random job in one of the given states, or nil.
	pick := func(states ...job.State) *jobState {
		s := rig.srv
		s.mu.Lock()
		defer s.mu.Unlock()
		var in []*jobState
		for _, js := range s.jobs {
			if slices.Contains(states, js.job.State) {
				in = append(in, js)
			}
		}
		if len(in) == 0 {
			return nil
		}
		slices.SortFunc(in, func(a, b *jobState) int { return cmp.Compare(a.spec.ID, b.spec.ID) }) // map order must not leak into the seeded walk
		return in[rng.Intn(len(in))]
	}

	for step := 0; step < 500; step++ {
		s := rig.srv
		switch op := rng.Intn(100); {
		case op < 30: // submit; one spec in six needs a profiling dry run first
			spec := pendSpec("")
			spec.GPUs = 1 + rng.Intn(2)
			spec.Iterations = 1000
			if rng.Intn(6) == 0 {
				spec.Model, spec.Stages = "dqn", [4]time.Duration{}
			}
			if _, err := s.submit(spec); err != nil {
				t.Fatal(err)
			}
		case op < 35:
			s.onProfiled(&proto.Profiled{Model: "dqn", Stages: pendSpec("").Stages})
		case op < 50:
			if js := pick(job.Running); js != nil {
				s.onProgress(&proto.Progress{GroupID: js.groupID, Jobs: []proto.JobProgress{
					{ID: js.spec.ID, DoneIterations: js.job.DoneIterations + int64(rng.Intn(200))}}})
			}
		case op < 65:
			if js := pick(job.Running); js != nil {
				s.onJobDone(&proto.JobDone{GroupID: js.groupID, JobID: js.spec.ID})
			}
		case op < 68: // a completion straggling in for a requeued or parked job
			if js := pick(job.Pending, job.Deadletter); js != nil {
				s.onJobDone(&proto.JobDone{GroupID: js.groupID, JobID: js.spec.ID})
			}
		case op < 80: // fault: backs off, and past the budget dead-letters
			if js := pick(job.Running); js != nil {
				s.onFault(&proto.Fault{GroupID: js.groupID, JobID: js.spec.ID, Error: "boom"}, "")
			}
		case op < 85: // kill the whole group under a running job
			if js := pick(job.Running); js != nil {
				if err := s.injectFault(&proto.InjectFault{JobID: js.spec.ID}); err != nil {
					t.Fatal(err)
				}
			}
		case op < 90: // executor drop, or rejoin if it is already gone
			id := machine(rng.Intn(machines))
			if s.injectFault(&proto.InjectFault{Machine: id}) != nil {
				rig.register(id, gpus, nil)
			}
		case op < 93:
			restart(false)
		case op < 95:
			restart(true)
		default:
			time.Sleep(time.Millisecond) // let a backoff window lapse
		}
		rig.check(fmt.Sprintf("step %d", step))
		if step%oracleEvery() == 0 {
			rig.checkReplay(cfg, fmt.Sprintf("step %d", step))
		}
		if rng.Intn(2) == 0 {
			rig.round()
		}
	}
	st := rig.srv.status()
	t.Logf("seed %d: %d jobs (%d done, %d dead-lettered, %d running), %d rounds since the last recovery",
		seed, len(st.Jobs), st.Done, st.DeadLetter, st.Running, st.Engine.Rounds)
}

// copyDir copies the regular files of one state directory into another.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoundCostIndependentOfDoneJobs pins the round to O(live): with the
// same 16 running jobs, a round allocates the same with no finished jobs
// behind it and with 20,000 (the scan it replaced sized and sorted a
// slice of every job ever admitted).
func TestRoundCostIndependentOfDoneJobs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rig := newRoundRig(t, Config{TraceEvents: 64, LivenessTimeout: time.Hour}) // a trace ring that is full either way
	rig.register("m0", 16, nil)
	s := rig.srv
	submit := func() int64 {
		id, err := s.submit(pendSpec(""))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	for i := 0; i < 16; i++ {
		submit()
	}
	round := func() {
		s.mu.Lock()
		s.scheduleLocked()
		s.mu.Unlock()
	}
	measure := func() (allocs float64, bytes uint64) {
		for i := 0; i < 100; i++ {
			round() // launch everything, fill the trace ring, settle the scratch
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, round)
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	allocs0, bytes0 := measure()
	if st := s.status(); st.Running != 16 {
		t.Fatalf("%d jobs running, want 16", st.Running)
	}
	for i := 0; i < 20000; i++ {
		id := submit()
		s.mu.Lock()
		s.drainIngestLocked()
		s.mu.Unlock()
		s.onJobDone(&proto.JobDone{JobID: id})
	}
	allocsN, bytesN := measure()
	if st := s.status(); st.Running != 16 || st.Done != 20000 {
		t.Fatalf("%d running, %d done, want 16 and 20000", st.Running, st.Done)
	}
	t.Logf("round with 16 live jobs: %.0f allocs / %d B behind 0 finished jobs, %.0f allocs / %d B behind 20000",
		allocs0, bytes0, allocsN, bytesN)
	if allocsN != allocs0 {
		t.Errorf("a round allocates %.0f times behind 20000 finished jobs, %.0f behind none", allocsN, allocs0)
	}
	if bytesN > bytes0+1024 {
		t.Errorf("a round allocates %d B behind 20000 finished jobs, %d B behind none", bytesN, bytes0)
	}
}

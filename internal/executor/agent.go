package executor

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"muri/internal/proto"
)

// Agent is the per-machine executor daemon: it registers with the
// scheduler, launches and kills interleaving groups on command, reports
// progress, and answers profiling requests.
type Agent struct {
	// MachineID identifies this machine to the worker monitor.
	MachineID string
	// GPUs is the machine's GPU inventory.
	GPUs int
	// Fault optionally injects job failures (tests, chaos experiments).
	Fault FaultFunc
	// Logf receives diagnostic output; nil uses log.Printf.
	Logf func(format string, args ...any)
	// HeartbeatEvery is the liveness-signal period; zero means one
	// second. The scheduler evicts executors silent for several periods.
	HeartbeatEvery time.Duration

	mu     sync.Mutex
	groups map[int64]*runningGroup
	conn   net.Conn
	codec  *proto.Codec
	wmu    sync.Mutex // serializes codec writes (and codec swaps)
	// wg tracks every connection-lifetime goroutine Serve spawns
	// (heartbeat, context watcher, profiling), so Serve returns only
	// after they exit. Group runners live on gwg instead: groups keep
	// running across disconnects and re-register with the next leader.
	wg sync.WaitGroup
	// gwg tracks group-lifetime goroutines (runners and progress
	// tickers), which outlive individual connections.
	gwg sync.WaitGroup
	// registered reports a connection with an accepted registration;
	// while false, job events buffer in pending instead of being lost.
	registered bool
	pending    []*proto.Message
	// seenTerm is the highest election term any scheduler acked to us;
	// presented on the next Register so a deposed leader fences itself.
	seenTerm uint64
}

type runningGroup struct {
	run    *GroupRun
	cancel context.CancelFunc
	done   chan struct{}
	// key and gpus echo the Launch, so re-registration can offer the
	// group back to a recovered scheduler for adoption.
	key  string
	gpus int
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Run connects to the scheduler at addr and serves until the connection
// closes or ctx is cancelled.
func (a *Agent) Run(ctx context.Context, addr string) error {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("executor: dial scheduler: %w", err)
	}
	defer conn.Close()
	err = a.Serve(ctx, conn)
	if ctx.Err() != nil {
		// Process shutdown: group contexts descend from ctx, so the
		// runners are unwinding — wait for them before returning.
		a.gwg.Wait()
	}
	return err
}

// RunHA keeps the executor connected across scheduler restarts and
// failovers: it dials, serves, and on disconnect retries with
// exponential backoff (capped at maxBackoff) until ctx is cancelled.
// addrs is an ordered scheduler address list (leader plus standbys): on
// disconnect the agent tries each address in turn — a standby rejects
// registration until promoted — and backs off only after a full sweep
// fails. Running groups keep running through the disconnect; the next
// registration offers them back for adoption, and only groups the
// scheduler declines are killed. This is how executors re-register
// against a restarted or newly promoted leader without losing running
// groups.
func (a *Agent) RunHA(ctx context.Context, addrs []string, maxBackoff time.Duration) error {
	if len(addrs) == 0 {
		return fmt.Errorf("executor: no scheduler addresses")
	}
	if maxBackoff <= 0 {
		maxBackoff = 30 * time.Second
	}
	backoff := 250 * time.Millisecond
	for {
		for _, addr := range addrs {
			start := time.Now()
			err := a.Run(ctx, addr)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil {
				a.logf("executor %s: scheduler %s: %v", a.MachineID, addr, err)
			} else {
				a.logf("executor %s: scheduler %s closed the connection", a.MachineID, addr)
			}
			if time.Since(start) > 2*maxBackoff {
				// A long successful session means the outage is fresh, not a
				// flapping loop; restart the backoff ladder.
				backoff = 250 * time.Millisecond
			}
		}
		a.logf("executor %s: no scheduler reachable; retrying in %v", a.MachineID, backoff)
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// Serve runs the executor protocol over an established connection
// (exposed separately so tests can use net.Pipe). Groups launched on a
// previous connection keep running: they are offered back in the
// Register for adoption, and only the ones the scheduler declines (the
// daemon requeued or reassigned their jobs meanwhile) are killed.
func (a *Agent) Serve(ctx context.Context, conn net.Conn) error {
	a.mu.Lock()
	a.conn = conn
	if a.groups == nil {
		a.groups = make(map[int64]*runningGroup)
	}
	reg := &proto.Register{MachineID: a.MachineID, GPUs: a.GPUs,
		Groups: a.snapshotGroupsLocked(), SeenTerm: a.seenTerm}
	a.mu.Unlock()
	a.wmu.Lock()
	a.codec = proto.NewCodec(conn)
	a.wmu.Unlock()
	// LIFO: mark unregistered (events buffer again), unblock the
	// watcher, then wait for connection-lifetime goroutines — group
	// runners live on gwg and deliberately survive Serve.
	defer a.wg.Wait()
	defer a.setRegistered(false)

	if err := a.send(&proto.Message{Type: proto.TypeRegister, Register: reg}); err != nil {
		return err
	}
	// Groups offered in this registration; those absent from the ack's
	// adopted set must be killed (their jobs belong elsewhere now).
	offered := make([]int64, len(reg.Groups))
	for i := range reg.Groups {
		offered[i] = reg.Groups[i].GroupID
	}
	// Close the connection when ctx ends so the read loop unblocks.
	watchDone := make(chan struct{})
	defer close(watchDone)
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	// Liveness: heartbeat even when no group is running, so the worker
	// monitor can tell an idle machine from a dead one. If the scheduler
	// advertises a lease TTL and no explicit period is configured, pace
	// heartbeats to a third of the lease.
	hbEvery := a.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	leaseCh := make(chan time.Duration, 1)
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-watchDone:
				return
			case <-ctx.Done():
				return
			case ttl := <-leaseCh:
				if a.HeartbeatEvery <= 0 && ttl/3 > 0 && ttl/3 < hbEvery {
					hbEvery = ttl / 3
					t.Reset(hbEvery)
				}
			case <-t.C:
				a.mu.Lock()
				n := len(a.groups)
				a.mu.Unlock()
				if err := a.send(&proto.Message{Type: proto.TypeHeartbeat,
					Heartbeat: &proto.Heartbeat{MachineID: a.MachineID, RunningGroups: n}}); err != nil {
					return
				}
			}
		}
	}()
	for {
		m, err := a.codec.Read()
		if err != nil {
			if ctx.Err() != nil || err == io.EOF {
				return nil
			}
			return fmt.Errorf("executor: read: %w", err)
		}
		switch m.Type {
		case proto.TypeRegisterAck:
			ack := m.RegisterAck
			a.mu.Lock()
			if ack.Term > a.seenTerm {
				a.seenTerm = ack.Term
			}
			a.mu.Unlock()
			if !ack.OK {
				return fmt.Errorf("executor: registration rejected: %s", ack.Reason)
			}
			a.reconcileAdoption(offered, ack.AdoptedGroups)
			a.flushPending()
			if ttl := ack.LeaseTTL; ttl > 0 {
				select {
				case leaseCh <- ttl:
				default:
				}
			}
		case proto.TypeLaunch:
			a.handleLaunch(ctx, m.Launch)
		case proto.TypeKill:
			a.handleKill(m.Kill.GroupID)
		case proto.TypeProfileReq:
			a.wg.Add(1)
			go func() {
				defer a.wg.Done()
				a.handleProfile(ctx, m.ProfileReq)
			}()
		default:
			a.logf("executor %s: unexpected message %s", a.MachineID, m.Type)
		}
	}
}

func (a *Agent) send(m *proto.Message) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if a.codec == nil {
		return fmt.Errorf("executor: not connected")
	}
	return a.codec.Write(m)
}

// sendEvent delivers a job event (JobDone/Fault) or buffers it while
// disconnected, so completions that land between a scheduler crash and
// the re-registration are replayed instead of lost. The scheduler
// validates events against the job's current group, so a buffered event
// for work it reassigned meanwhile is ignored there.
func (a *Agent) sendEvent(m *proto.Message) {
	a.mu.Lock()
	if !a.registered {
		a.pending = append(a.pending, m)
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	if err := a.send(m); err != nil {
		a.mu.Lock()
		a.pending = append(a.pending, m)
		a.mu.Unlock()
	}
}

func (a *Agent) setRegistered(v bool) {
	a.mu.Lock()
	a.registered = v
	a.mu.Unlock()
}

// flushPending replays events buffered across the disconnect, in order.
func (a *Agent) flushPending() {
	a.mu.Lock()
	pending := a.pending
	a.pending = nil
	a.registered = true
	a.mu.Unlock()
	for i, m := range pending {
		if err := a.send(m); err != nil {
			a.mu.Lock()
			a.pending = append(pending[i:], a.pending...)
			a.registered = false
			a.mu.Unlock()
			return
		}
	}
}

// snapshotGroupsLocked renders the running groups for a Register offer.
// Callers hold a.mu.
func (a *Agent) snapshotGroupsLocked() []proto.RunningGroup {
	if len(a.groups) == 0 {
		return nil
	}
	out := make([]proto.RunningGroup, 0, len(a.groups))
	for gid, rg := range a.groups {
		g := proto.RunningGroup{GroupID: gid, Key: rg.key, GPUs: rg.gpus}
		for _, jp := range rg.run.Progress() {
			g.Jobs = append(g.Jobs, proto.RunningJob{ID: jp.ID, DoneIterations: jp.DoneIterations})
		}
		out = append(out, g)
	}
	return out
}

// reconcileAdoption kills every group offered at registration that the
// scheduler declined to adopt: its jobs were requeued, reassigned, or
// finished from the scheduler's point of view, so keeping the local run
// alive would double-execute them.
func (a *Agent) reconcileAdoption(offered, adopted []int64) {
	keep := make(map[int64]bool, len(adopted))
	for _, gid := range adopted {
		keep[gid] = true
	}
	for _, gid := range offered {
		if !keep[gid] {
			a.logf("executor %s: group %d not adopted; killing it", a.MachineID, gid)
			a.handleKill(gid)
		}
	}
}

func (a *Agent) handleLaunch(ctx context.Context, l *proto.Launch) {
	a.mu.Lock()
	if _, exists := a.groups[l.GroupID]; exists {
		a.mu.Unlock()
		a.logf("executor %s: duplicate launch of group %d ignored", a.MachineID, l.GroupID)
		return
	}
	gctx, cancel := context.WithCancel(ctx)
	events := GroupEvents{
		JobDone: func(jobID int64) {
			a.sendEvent(&proto.Message{Type: proto.TypeJobDone,
				JobDone: &proto.JobDone{GroupID: l.GroupID, JobID: jobID}})
		},
		Fault: func(jobID int64, err error) {
			a.sendEvent(&proto.Message{Type: proto.TypeFault,
				Fault: &proto.Fault{GroupID: l.GroupID, JobID: jobID, Error: err.Error(),
					Machine: a.MachineID}})
		},
	}
	run := NewGroupRun(l.Jobs, l.TimeScale, events, a.Fault)
	rg := &runningGroup{run: run, cancel: cancel, done: make(chan struct{}),
		key: l.Key, gpus: l.GPUs}
	a.groups[l.GroupID] = rg
	a.mu.Unlock()

	reportEvery := l.ReportEvery
	if reportEvery <= 0 {
		reportEvery = time.Second
	}
	// Group-lifetime goroutines ride gwg, not wg: the group survives the
	// connection that launched it and re-registers with the next leader.
	a.gwg.Add(1)
	go func() {
		defer a.gwg.Done()
		t := time.NewTicker(reportEvery)
		defer t.Stop()
		for {
			select {
			case <-rg.done:
				return
			case <-t.C:
				a.mu.Lock()
				connected := a.registered
				a.mu.Unlock()
				if !connected {
					continue // progress is best-effort; don't spam a dead pipe
				}
				_ = a.send(&proto.Message{Type: proto.TypeProgress,
					Progress: &proto.Progress{GroupID: l.GroupID, Jobs: run.Progress()}})
			}
		}
	}()
	a.gwg.Add(1)
	go func() {
		defer a.gwg.Done()
		defer close(rg.done)
		_ = run.Run(gctx)
		// Final progress snapshot so the scheduler sees exact counts.
		a.mu.Lock()
		connected := a.registered
		a.mu.Unlock()
		if connected {
			_ = a.send(&proto.Message{Type: proto.TypeProgress,
				Progress: &proto.Progress{GroupID: l.GroupID, Jobs: run.Progress()}})
		}
		a.mu.Lock()
		delete(a.groups, l.GroupID)
		a.mu.Unlock()
	}()
}

func (a *Agent) handleKill(groupID int64) {
	a.mu.Lock()
	rg, ok := a.groups[groupID]
	a.mu.Unlock()
	if !ok {
		return
	}
	rg.cancel()
	<-rg.done
}

func (a *Agent) handleProfile(ctx context.Context, req *proto.ProfileReq) {
	res, err := ProfileModel(ctx, req.Model, req.Iterations, req.TimeScale)
	if err != nil && res.Err == "" {
		res.Err = err.Error()
	}
	_ = a.send(&proto.Message{Type: proto.TypeProfiled, Profiled: &res})
}

func (a *Agent) killAll() {
	a.mu.Lock()
	groups := make([]*runningGroup, 0, len(a.groups))
	for _, rg := range a.groups {
		groups = append(groups, rg)
	}
	a.mu.Unlock()
	for _, rg := range groups {
		rg.cancel()
		<-rg.done
	}
}

// Durability and failover: the daemon's decision-stream WAL, snapshot/
// restore recovery, warm-standby replication, and lease-based election.
// See DESIGN.md §12.
//
// Every mutation of recoverable state — admission batches, engine
// decisions, fault-ledger spends, completions, profiles, progress
// checkpoints, group launches, term changes — is one record, appended to
// a checksummed WAL (internal/wal) under s.mu and then applied by the
// same function that replays it (apply.go). Recovery loads the newest
// snapshot and applies the tail, reconstructing an engine whose future
// decision stream is byte-identical to the uninterrupted run. A standby
// follows the leader's WAL as raw frames (its replica is byte-identical
// on disk) and promotes itself by replaying that replica when the
// leader's lease lapses; terms fence the deposed leader.
package server

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"muri/internal/engine"
	"muri/internal/ingest"
	"muri/internal/job"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/wal"
)

// Daemon roles in the HA pair. A daemon with no standby attached runs
// solo; the first ReplSubscribe makes it a leader. A daemon started
// with -standby-of follows the leader until election promotes it.
// Fenced is a deposed leader that observed a higher term: it rejects
// every write until restarted.
const (
	roleSolo    = "solo"
	roleLeader  = "leader"
	roleStandby = "standby"
	roleFenced  = "fenced"
)

// errNotLeader rejects submissions on a standby or fenced daemon. It is
// retryable: HA-aware clients resubmit against the other address.
var errNotLeader = &ingest.Error{Code: proto.CodeNotLeader, Retryable: true,
	Msg: "server: not the leader; submit to the active scheduler"}

// replSub is one attached standby on the leader side: the tap feeds
// copied WAL frames into ch, a per-connection goroutine streams them
// out, and acks flow back for lag accounting.
type replSub struct {
	id string
	ch chan proto.WALFrame
	// acked is the standby's last acknowledged LSN (lag = leader LSN −
	// acked). Written by the ack reader, read by status/metrics.
	acked atomic.Uint64
	// gone marks a detached or hopelessly slow subscriber (channel
	// overflow): the tap skips it and the streamer closes the
	// connection, forcing the standby to re-sync from a fresh snapshot.
	// Guarded by Server.replMu.
	gone bool
}

// startDurability opens the WAL and either recovers local state (solo/
// leader) or starts the follow/election loops (standby). Called once
// from Serve, before the schedule loop can run a round.
func (s *Server) startDurability() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.durStarted {
		return nil
	}
	s.durStarted = true
	if s.cfg.StateDir == "" {
		if s.cfg.StandbyOf != "" {
			return errors.New("server: standby mode requires a state dir")
		}
		return nil
	}
	// Recover before Open: Open truncates the torn tail in place, so the
	// read-only scan must happen first to report corruption against the
	// original bytes. Recovery stops at the first corrupt record and
	// treats everything before it as the durable prefix — it never
	// crashes on torn writes, truncated tails, or bit flips.
	var rec *wal.Recovery
	if s.cfg.StandbyOf == "" {
		var err error
		rec, err = wal.Recover(s.cfg.StateDir)
		if err != nil {
			return fmt.Errorf("server: wal recover: %w", err)
		}
		if c := rec.Corruption; c != nil {
			s.log.Warn("wal: replay stopped at corrupt record",
				"segment", c.Segment, "offset", c.Offset, "reason", c.Reason)
		}
	}
	w, err := wal.Open(s.cfg.StateDir, wal.Options{
		SegmentBytes: s.cfg.SegmentBytes,
		SyncEvery:    s.cfg.FsyncEvery,
		OnSync: func(d time.Duration, records int) {
			if s.fsyncHist != nil {
				s.fsyncHist.Observe(d.Seconds())
			}
		},
		OnAppend: s.replTap,
	})
	if err != nil {
		return fmt.Errorf("server: wal open: %w", err)
	}
	s.w = w
	s.lastSnap = time.Now()
	if s.cfg.StandbyOf != "" {
		s.setRoleLocked(roleStandby)
		s.lastLeaderMsg.Store(time.Now().UnixNano())
		s.wg.Add(2)
		go s.standbyLoop()
		go s.electionLoop()
		s.log.Info("standby: replicating", "leader", s.cfg.StandbyOf, "dir", s.cfg.StateDir)
		return nil
	}
	s.restoreLocked(rec)
	return nil
}

// restoreLocked rebuilds daemon state from a recovery scan: snapshot
// first, then every record after it in LSN order. Callers hold s.mu.
func (s *Server) restoreLocked(rec *wal.Recovery) {
	if rec == nil {
		return
	}
	var clockV int64
	if sn := rec.Snapshot; sn != nil {
		s.applySnapshotLocked(sn)
		clockV = sn.V
	}
	s.replaying = true
	for i := range rec.Records {
		clockV = max(clockV, rec.Records[i].V)
		s.applyLocked(&rec.Records[i])
	}
	s.replaying = false
	s.walReplayed = len(rec.Records)
	// Virtual-clock continuity: restart the wall anchor so virtualNow
	// resumes from the last durable virtual instant instead of zero.
	now := time.Now()
	s.started = now.Add(-time.Duration(float64(clockV) * s.cfg.TimeScale))
	// Orphans are jobs running at crash time whose executors have not yet
	// re-registered. They get one liveness window to be adopted back.
	orphans := 0
	for _, js := range s.jobs {
		if js.job.State == job.Running && js.groupID == 0 {
			orphans++
		}
	}
	if orphans > 0 {
		s.adoptUntil = now.Add(s.cfg.LivenessTimeout)
	}
	if s.walReplayed > 0 || rec.Snapshot != nil {
		s.log.Info("recovered from wal", "records", s.walReplayed,
			"jobs", len(s.jobs), "orphans", orphans, "term", s.term.Load())
	}
}

// observeDecision is the engine observer: the caller-provided tap (the
// parity harness) runs first, then the decision is made durable. Runs
// under s.mu (the engine is driven under it).
func (s *Server) observeDecision(d engine.Decision) {
	if s.cfg.Observer != nil {
		s.cfg.Observer(d)
	}
	s.commitLocked(&wal.Record{Kind: wal.KindDecision, Decision: wal.FromDecision(d)})
}

// snapshotLocked checkpoints full state, letting the WAL prune segments
// below it. Callers hold s.mu.
func (s *Server) snapshotLocked() {
	if s.w == nil || s.closed {
		return
	}
	if err := s.w.WriteSnapshot(s.buildSnapshotLocked()); err != nil {
		s.log.Error("wal snapshot failed", "err", err)
		return
	}
	s.lastSnap = time.Now()
}

// buildSnapshotLocked assembles the full-state checkpoint. Callers hold
// s.mu.
func (s *Server) buildSnapshotLocked() *wal.Snapshot {
	sn := &wal.Snapshot{
		LSN:            s.w.Stats().LSN,
		Term:           s.term.Load(),
		TakenWall:      time.Now().UnixNano(),
		V:              int64(s.virtualNowLocked()),
		Engine:         s.eng.Snapshot(),
		NextGroup:      s.nextGroup,
		NextJobID:      s.adm.NextID(),
		Faults:         s.faults,
		LeaseEvictions: s.leaseEvictions,
	}
	if ps := s.est.Snapshot(); len(ps.Models) > 0 || len(ps.History) > 0 {
		sn.Predictor = &ps
	}
	if raw, err := s.expl.Snapshot(); err == nil {
		sn.Explain = raw
	} else {
		s.log.Error("snapshot: explain state unserializable", "err", err)
	}
	if len(s.profiles) > 0 {
		sn.Profiles = make(map[string][4]time.Duration, len(s.profiles))
		for m, st := range s.profiles {
			sn.Profiles[m] = st
		}
	}
	ids := make([]int64, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		js := s.jobs[id]
		j := wal.JobSnapshot{
			Spec:           js.spec,
			Phase:          js.job.State,
			DoneIterations: js.job.DoneIterations,
			SubmittedWall:  js.submittedAt.UnixNano(),
			SubmitV:        int64(js.job.Submit),
			StartedV:       int64(js.job.StartedAt),
			AttainedV:      int64(js.job.Attained),
			Restarts:       js.job.Restarts,
			Faults:         js.job.Faults,
			FaultLog:       js.faultLog,
		}
		if !js.finishedAt.IsZero() {
			j.FinishedWall = js.finishedAt.UnixNano()
			j.FinishedV = int64(js.job.FinishedAt)
		}
		if !js.notBefore.IsZero() {
			j.NotBeforeWall = js.notBefore.UnixNano()
		}
		sn.Jobs = append(sn.Jobs, j)
	}
	return sn
}

// setRoleLocked flips the election role and the lock-free not-leader
// gate consulted by the submit fast path. Callers hold s.mu.
func (s *Server) setRoleLocked(role string) {
	s.role = role
	s.notLeader.Store(role == roleStandby || role == roleFenced)
}

// fence marks this daemon deposed after observing a strictly higher
// term: no more WAL writes, submissions and registrations rejected.
func (s *Server) fence(term uint64) {
	s.mu.Lock()
	s.fenceLocked(term)
	s.mu.Unlock()
}

func (s *Server) fenceLocked(term uint64) {
	if term <= s.term.Load() {
		return
	}
	if s.role == roleLeader || s.role == roleSolo {
		s.commitLocked(&wal.Record{Kind: wal.KindTerm, Term: &wal.TermRecord{Term: term}})
		s.setRoleLocked(roleFenced)
		s.log.Warn("fenced: observed higher election term", "term", term)
	}
	s.term.Store(term) // a standby, or a daemon already fenced, only tracks the term
}

// freezeForAdoptionLocked gates scheduling while recovered running jobs
// await their executors. A round with orphans missing from Current would
// see them as running candidates with no unit behind them, and a
// preemptive policy re-places them as new units: a second launch of a
// group its executor may still run. So the scheduler holds rounds until
// every orphan is adopted or the grace expires — then the machines are
// treated as lost and the orphans requeue.
// Returns true when the round must be skipped. Callers hold s.mu.
func (s *Server) freezeForAdoptionLocked(wallNow time.Time) bool {
	if s.w == nil || s.adoptUntil.IsZero() {
		return false
	}
	var orphans []int64 // ascending job ID, as live is: a deterministic requeue stream
	for _, js := range s.live {
		if js.groupID == 0 && js.job.State == job.Running {
			orphans = append(orphans, js.spec.ID)
		}
	}
	if len(orphans) == 0 {
		s.adoptUntil = time.Time{}
		return false
	}
	if wallNow.Before(s.adoptUntil) {
		return true
	}
	// Its own loss record, naming no machine: no crash is counted.
	const gaveUp = "executor did not re-register after recovery"
	s.requeueLostLocked(orphans, "", gaveUp, gaveUp)
	s.log.Warn("adoption grace expired; orphans requeued", "jobs", len(orphans))
	s.adoptUntil = time.Time{}
	return false
}

// adoptGroupLocked validates and re-binds one surviving group offered
// by a re-registering executor. The executor offers every member it
// launched under the launch key, finished ones included, so a group that
// shrank before the crash comes back whole: each offered member must be
// done, or running under that key with no other group binding; the key
// must be the canonical key of all offered members; and the executor
// must have the capacity. The running members become the group's spec,
// the shrunk unit the lost daemon ran. Adopted groups emit no decisions —
// the engine's placement memory still holds the survivors under the
// launch key, so the next Differential round keeps the unit when the
// policy re-plans it. Callers hold s.mu.
func (s *Server) adoptGroupLocked(e *executorConn, rg *proto.RunningGroup) bool {
	if rg.GroupID <= 0 || rg.GPUs <= 0 || len(rg.Jobs) == 0 ||
		find(s.groups, rg.GroupID, groupIDOf) != nil || e.free < rg.GPUs {
		return false
	}
	mode, ok := modeFromKey(rg.Key)
	if !ok {
		return false
	}
	keys := s.eng.RunningKeys()
	offered := sched.Unit{Jobs: make([]*job.Job, 0, len(rg.Jobs)), GPUs: rg.GPUs, Mode: mode}
	var running []*job.Job
	for i := range rg.Jobs {
		js := s.jobs[rg.Jobs[i].ID]
		switch {
		case js == nil:
			return false
		case js.job.State == job.Running && js.groupID == 0 && keys[js.job.ID] == rg.Key:
			running = append(running, js.job)
		case js.job.State != job.Done:
			return false
		}
		offered.Jobs = append(offered.Jobs, js.job)
	}
	if len(running) == 0 || engine.UnitKey(offered) != rg.Key {
		return false
	}
	now := time.Now()
	for i := range rg.Jobs {
		rj := &rg.Jobs[i]
		js := s.jobs[rj.ID]
		if js.job.State != job.Running {
			continue
		}
		js.job.DoneIterations = max(js.job.DoneIterations, rj.DoneIterations)
		js.groupID = rg.GroupID
		js.lastSeen = now
	}
	e.free -= rg.GPUs
	s.groups = insertSorted(s.groups, &groupState{id: rg.GroupID, exec: e,
		spec: sched.Unit{Jobs: running, GPUs: rg.GPUs, Mode: mode}}, groupIDOf)
	if rg.GroupID > s.nextGroup {
		// The launch that made this group fell in the lost tail (its members
		// ran under the same key before it): log the ID as taken.
		s.commitLocked(&wal.Record{Kind: wal.KindGroup, Group: &wal.GroupRecord{ID: rg.GroupID}})
	}
	s.log.Info("adopted running group", "group", rg.GroupID, "machine", e.id,
		"key", rg.Key, "jobs", len(running), "finished", len(rg.Jobs)-len(running))
	return true
}

// modeFromKey parses the sharing mode off a canonical unit key
// ("mode:id,id,...").
func modeFromKey(key string) (sched.Mode, bool) {
	prefix, _, ok := strings.Cut(key, ":")
	if !ok {
		return 0, false
	}
	for _, m := range []sched.Mode{sched.Exclusive, sched.Interleaved, sched.SpaceShared} {
		if m.String() == prefix {
			return m, true
		}
	}
	return 0, false
}

// --- Leader-side replication ---------------------------------------

// replTap is the WAL OnAppend hook: it fans each appended frame out to
// every attached standby. Called under the WAL writer lock in LSN
// order; the frame slice is only valid during the call, so it is
// copied once and shared by all subscribers.
func (s *Server) replTap(lsn uint64, frame []byte) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if len(s.subs) == 0 {
		return
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	f := proto.WALFrame{LSN: lsn, Data: cp}
	for _, sub := range s.subs {
		if sub.gone {
			continue
		}
		select {
		case sub.ch <- f:
		default:
			// The standby cannot keep up; cut it loose and let it re-sync
			// from a fresh snapshot on reconnect rather than block appends.
			sub.gone = true
		}
	}
}

func (s *Server) subGone(rs *replSub) bool {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return rs.gone
}

func (s *Server) detachSub(rs *replSub) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	rs.gone = true
	for i, sub := range s.subs {
		if sub == rs {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
}

// handleReplSubscribe serves one standby connection: seed it with a
// fresh snapshot, then stream every subsequent WAL frame. The snapshot
// write and the tap attach happen in one s.mu critical section — and
// every WAL append happens under s.mu — so no record can fall between
// the snapshot edge and the stream.
func (s *Server) handleReplSubscribe(conn net.Conn, codec *proto.Codec, req *proto.ReplSubscribe) {
	s.mu.Lock()
	if s.w == nil || s.notLeader.Load() || s.closed {
		term := s.term.Load()
		s.mu.Unlock()
		_ = codec.Write(&proto.Message{Type: proto.TypeWALAppendAck,
			WALAppendAck: &proto.WALAppendAck{OK: false, Term: term}})
		return
	}
	if req.Term > s.term.Load() {
		s.fenceLocked(req.Term)
		term := s.term.Load()
		s.mu.Unlock()
		_ = codec.Write(&proto.Message{Type: proto.TypeWALAppendAck,
			WALAppendAck: &proto.WALAppendAck{OK: false, Term: term}})
		return
	}
	if s.role == roleSolo {
		s.setRoleLocked(roleLeader)
	}
	s.snapshotLocked()
	fr, lsn, ok, err := s.w.SnapshotRaw()
	rs := &replSub{id: req.StandbyID, ch: make(chan proto.WALFrame, 8192)}
	// The seed snapshot covers everything up to lsn; start lag accounting
	// there rather than at zero.
	rs.acked.Store(lsn)
	s.replMu.Lock()
	s.subs = append(s.subs, rs)
	s.replMu.Unlock()
	term := s.term.Load()
	ttl := s.cfg.ElectionTTL
	s.mu.Unlock()
	defer s.detachSub(rs)
	if err != nil || !ok {
		s.log.Error("replication: no snapshot to seed standby", "standby", req.StandbyID, "err", err)
		return
	}
	if err := codec.Write(&proto.Message{Type: proto.TypeReplSnapshot,
		ReplSnapshot: &proto.ReplSnapshot{Snapshot: fr, LSN: lsn, Term: term}}); err != nil {
		return
	}
	s.log.Info("standby attached", "standby", req.StandbyID, "from_lsn", lsn, "term", term)
	// Ack reader: tracks the standby's applied LSN and watches for the
	// fencing signal (a rejection carrying a higher term).
	done := make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(done)
		for {
			m, err := codec.Read()
			if err != nil {
				return
			}
			if m.Type != proto.TypeWALAppendAck || m.WALAppendAck == nil {
				continue
			}
			a := m.WALAppendAck
			if !a.OK && a.Term > s.term.Load() {
				s.fence(a.Term)
				return
			}
			rs.acked.Store(a.LastLSN)
		}
	}()
	// Streamer: batch frames opportunistically; an empty WALAppend every
	// TTL/3 doubles as the leader's lease heartbeat.
	hb := time.NewTicker(ttl / 3)
	defer hb.Stop()
	for {
		var msg proto.Message
		select {
		case <-done:
			return
		case f := <-rs.ch:
			batch := []proto.WALFrame{f}
		drain:
			for len(batch) < 64 {
				select {
				case f2 := <-rs.ch:
					batch = append(batch, f2)
				default:
					break drain
				}
			}
			msg = proto.Message{Type: proto.TypeWALAppend,
				WALAppend: &proto.WALAppend{Term: s.term.Load(), Records: batch}}
		case <-hb.C:
			if s.subGone(rs) {
				return // overflowed: close so the standby re-syncs
			}
			msg = proto.Message{Type: proto.TypeWALAppend,
				WALAppend: &proto.WALAppend{Term: s.term.Load()}}
		}
		if err := codec.Write(&msg); err != nil {
			return
		}
	}
}

// --- Standby side ---------------------------------------------------

func (s *Server) standbyGone() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.role != roleStandby
}

// standbyLoop keeps the standby attached to the leader, re-dialing with
// a short delay until promoted or closed.
func (s *Server) standbyLoop() {
	defer s.wg.Done()
	for {
		if s.standbyGone() {
			return
		}
		conn, err := net.DialTimeout("tcp", s.cfg.StandbyOf, s.cfg.ElectionTTL)
		if err == nil {
			s.followLeader(conn)
			conn.Close()
		}
		select {
		case <-s.stopCh:
			return
		case <-time.After(s.cfg.ElectionTTL / 8):
		}
	}
}

// followLeader runs one replication session: subscribe, install the
// seed snapshot, then append every streamed frame to the local replica
// WAL (byte-identical to the leader's log). The standby applies nothing
// live — promotion replays the replica from disk.
func (s *Server) followLeader(conn net.Conn) {
	s.mu.Lock()
	if s.closed || s.role != roleStandby {
		s.mu.Unlock()
		return
	}
	s.standbyConn = conn
	myTerm := s.term.Load()
	id := s.cfg.StandbyID
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.standbyConn == conn {
			s.standbyConn = nil
		}
		s.mu.Unlock()
	}()
	codec := proto.NewCodec(conn)
	if err := codec.Write(&proto.Message{Type: proto.TypeReplSubscribe,
		ReplSubscribe: &proto.ReplSubscribe{StandbyID: id, Term: myTerm}}); err != nil {
		return
	}
	m, err := codec.Read()
	if err != nil || m.Type != proto.TypeReplSnapshot || m.ReplSnapshot == nil {
		return
	}
	seed := m.ReplSnapshot
	s.observeLeaderTerm(seed.Term)
	s.lastLeaderMsg.Store(time.Now().UnixNano())
	if len(seed.Snapshot) > 0 {
		s.mu.Lock()
		_, err := s.w.InstallSnapshot(seed.Snapshot)
		s.mu.Unlock()
		if err != nil {
			s.log.Error("standby: install snapshot failed", "err", err)
			return
		}
		s.appliedLSN.Store(seed.LSN)
		s.leaderLSN.Store(seed.LSN)
	}
	s.log.Info("standby: following leader", "leader", s.cfg.StandbyOf,
		"from_lsn", seed.LSN, "term", seed.Term)
	for {
		m, err := codec.Read()
		if err != nil {
			return
		}
		if s.standbyGone() {
			return
		}
		wa := m.WALAppend
		if m.Type != proto.TypeWALAppend || wa == nil {
			continue
		}
		if wa.Term < s.term.Load() {
			// A deposed leader is still streaming: reject with our term so
			// it fences itself.
			_ = codec.Write(&proto.Message{Type: proto.TypeWALAppendAck,
				WALAppendAck: &proto.WALAppendAck{OK: false, Term: s.term.Load()}})
			return
		}
		s.observeLeaderTerm(wa.Term)
		s.lastLeaderMsg.Store(time.Now().UnixNano())
		for i := range wa.Records {
			if err := s.appendReplica(&wa.Records[i]); err != nil {
				s.log.Error("standby: replica append failed", "lsn", wa.Records[i].LSN, "err", err)
				return // reconnect re-seeds from a fresh snapshot
			}
		}
		if n := len(wa.Records); n > 0 {
			last := wa.Records[n-1].LSN
			s.appliedLSN.Store(last)
			if last > s.leaderLSN.Load() {
				s.leaderLSN.Store(last)
			}
			if err := codec.Write(&proto.Message{Type: proto.TypeWALAppendAck,
				WALAppendAck: &proto.WALAppendAck{OK: true, LastLSN: last, Term: s.term.Load()}}); err != nil {
				return
			}
		}
	}
}

// appendReplica writes one leader frame into the replica WAL, under
// s.mu so replication serializes with promotion's replay-from-disk.
func (s *Server) appendReplica(fr *proto.WALFrame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.role != roleStandby {
		return errors.New("server: no longer a standby")
	}
	if err := s.w.AppendRaw(fr.LSN, fr.Data); err != nil {
		return err
	}
	if rec, err := wal.DecodeRawRecord(fr.Data); err == nil && rec.W != 0 && s.applyLagHist != nil {
		s.applyLagHist.Observe(time.Since(time.Unix(0, rec.W)).Seconds())
	}
	return nil
}

func (s *Server) observeLeaderTerm(term uint64) {
	s.mu.Lock()
	if term > s.term.Load() {
		s.term.Store(term)
	}
	s.mu.Unlock()
}

// electionLoop promotes the standby once the leader has been silent —
// no frames, no heartbeats — for a full election TTL.
func (s *Server) electionLoop() {
	defer s.wg.Done()
	ttl := s.cfg.ElectionTTL
	t := time.NewTicker(ttl / 4)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		if s.standbyGone() {
			return
		}
		if time.Since(time.Unix(0, s.lastLeaderMsg.Load())) > ttl {
			s.promote()
			return
		}
	}
}

// promote turns the standby into the leader: bump the term past
// everything observed, replay the local replica WAL into live state,
// persist the new term, and open for business. Executors re-register
// (RunHA cycles addresses) and their surviving groups are adopted.
func (s *Server) promote() {
	s.mu.Lock()
	if s.closed || s.role != roleStandby {
		s.mu.Unlock()
		return
	}
	if c := s.standbyConn; c != nil {
		c.Close()
	}
	newTerm := s.term.Load() + 1 // term already tracks max(own, observed leader)
	if err := s.w.Sync(); err != nil {
		s.log.Error("promotion: wal sync failed", "err", err)
	}
	rec, err := wal.Recover(s.cfg.StateDir)
	if err != nil {
		s.log.Error("promotion: replica recover failed; staying standby", "err", err)
		s.mu.Unlock()
		return
	}
	if c := rec.Corruption; c != nil {
		s.log.Warn("promotion: replica replay stopped at corrupt record",
			"segment", c.Segment, "offset", c.Offset, "reason", c.Reason)
	}
	s.restoreLocked(rec)
	s.setRoleLocked(roleLeader)
	s.commitLocked(&wal.Record{Kind: wal.KindTerm, Term: &wal.TermRecord{Term: newTerm}})
	s.lastSnap = time.Now()
	s.mu.Unlock()
	s.log.Warn("standby promoted to leader", "term", newTerm, "replayed", s.walReplayed)
	s.kickSchedule()
}

// --- Status, crash injection ----------------------------------------

// durabilitySummaryLocked renders the durability line for the status
// RPC; the same numbers back the muri_wal_* and muri_repl_* metrics.
// Callers hold s.mu.
func (s *Server) durabilitySummaryLocked() *proto.DurabilitySummary {
	if s.w == nil {
		return nil
	}
	d := &proto.DurabilitySummary{
		Role:       s.role,
		Term:       s.term.Load(),
		FsyncEvery: s.cfg.FsyncEvery,
	}
	// One reading: the committer moves Fsyncs and DurableLSN without
	// s.mu, so two reads could straddle a commit.
	st := s.w.Stats()
	d.WALSegment, d.WALOffset, d.WALLSN = st.Segment, st.Offset, st.LSN
	d.DurableLSN, d.Unsynced = st.DurableLSN, st.LSN-st.DurableLSN
	d.Appends, d.Fsyncs, d.SyncStalls, d.SnapshotLSN = st.Appends, st.Fsyncs, st.SyncStalls, st.SnapshotLSN
	if st.SnapshotWall != 0 {
		d.SnapshotAge = time.Since(time.Unix(0, st.SnapshotWall))
	}
	d.ReplLag = s.replLagLocked()
	s.replMu.Lock()
	for _, sub := range s.subs { // a standby has none
		if !sub.gone {
			d.Standbys++
		}
	}
	s.replMu.Unlock()
	return d
}

// replLagLocked is the replication lag in records, for the status line
// and the func-backed gauge: a standby's distance behind its leader, a
// leader's furthest-behind standby. The LSN only moves under s.mu, so it
// agrees with any other reading the caller takes. Callers hold s.mu.
func (s *Server) replLagLocked() uint64 {
	if s.w == nil {
		return 0
	}
	if s.role == roleStandby {
		if l, a := s.leaderLSN.Load(), s.appliedLSN.Load(); l > a {
			return l - a
		}
		return 0
	}
	lsn := s.w.Stats().LSN
	var lag uint64
	s.replMu.Lock()
	for _, sub := range s.subs {
		if a := sub.acked.Load(); !sub.gone && lsn > a && lsn-a > lag {
			lag = lsn - a
		}
	}
	s.replMu.Unlock()
	return lag
}

// Crash simulates a process crash for tests: the WAL descriptor is
// abandoned without flushing (records buffered in user space are lost,
// exactly as in a SIGKILL), every connection and the listener close,
// and background loops stop. Disk state afterwards is at least what
// fsync had made durable, plus whatever was written through before an
// fsync that never finished.
func (s *Server) Crash() { s.shutdown(true) }

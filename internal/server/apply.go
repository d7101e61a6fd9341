// The apply path: the record is the mutation. Every change to recoverable
// state is one WAL record, and each record kind has exactly one function
// here that performs it. A live handler validates its event, builds the
// record and hands it to commitLocked; restart recovery and standby
// promotion load the last snapshot (applySnapshotLocked) and run the same
// applyLocked over the log after it (restoreLocked). What a handler does
// besides — RPC sends, histograms, logs, kicks, executor and group
// bookkeeping — is soft state replay must not repeat.
// TestArchitectureRules keeps the engine's state-changing entry points out
// of every other file of this package, so a second interpreter cannot
// grow back.
package server

import (
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/proto"
	"muri/internal/wal"
	"muri/internal/workload"
)

// commitLocked performs one live mutation: stamp the record with the
// virtual and wall clocks, append it to the WAL, apply it. All appends
// happen under s.mu — that single-writer discipline is what lets the
// replication handshake (snapshot + tap attach) promise a gap-free
// stream. A closed daemon commits nothing: the log no longer accepts the
// record, so the state it would describe must not change either. Callers
// hold s.mu.
func (s *Server) commitLocked(rec *wal.Record) {
	if s.closed {
		return
	}
	rec.V = int64(s.virtualNowLocked())
	rec.W = time.Now().UnixNano()
	if s.w != nil {
		if _, err := s.w.Append(rec); err != nil {
			// A failed disk makes the writer's error sticky: every append from
			// then on returns it. Log when it appears or changes; count the rest.
			s.walFailed++
			if msg := err.Error(); msg != s.walErr {
				s.walErr = msg
				s.log.Error("wal append failed", "kind", string(rec.Kind), "err", err, "failed_appends", s.walFailed)
			}
		}
	}
	s.applyLocked(rec)
}

// applyLocked changes recoverable state by one record, silently: no
// observer callbacks, no WAL writes, no histograms. The explain builder is
// such state too — it folds every record in log order, which pins live,
// recovered and offline (muritrace) explanations byte-identical — and is
// all a cause record touches. Callers hold s.mu.
func (s *Server) applyLocked(r *wal.Record) {
	s.expl.Apply(r)
	switch k := r.Kind; {
	case k == wal.KindAdmit && r.Admit != nil:
		s.applyAdmitLocked(r.Admit)
	case k == wal.KindDecision && r.Decision != nil:
		s.applyDecisionLocked(r.Decision)
	case k == wal.KindFault && r.Fault != nil:
		s.applyFaultLocked(r.Fault, r.W)
	case k == wal.KindDone && r.Done != nil:
		s.applyDoneLocked(r.Done)
	case k == wal.KindProfile && r.Profile != nil:
		s.applyProfileLocked(r.Profile)
	case k == wal.KindProgress && r.Progress != nil:
		if js := s.jobs[r.Progress.Job]; js != nil {
			js.job.DoneIterations = max(js.job.DoneIterations, r.Progress.Done)
		}
	case k == wal.KindGroup && r.Group != nil:
		s.nextGroup = max(s.nextGroup, r.Group.ID)
		for _, m := range r.Group.Members {
			if js := s.jobs[m.Job]; js != nil {
				js.job.StartedAt = time.Duration(m.StartedV)
			}
		}
	case k == wal.KindTerm && r.Term != nil:
		if r.Term.Term > s.term.Load() {
			s.term.Store(r.Term.Term)
		}
	}
}

// newJobLocked materializes one job from its logged spec (stages resolved
// when the admit record was built) and virtual submit instant — for an
// admission and for a snapshot load alike. Callers hold s.mu.
func (s *Server) newJobLocked(spec proto.JobSpec, submitV, atWall int64) *jobState {
	m, err := workload.ByName(spec.Model)
	if err != nil {
		// Validated at submit; unreachable unless the zoo changed since.
		s.log.Error("job has unknown model", "job", spec.ID, "model", spec.Model)
		return nil
	}
	m.Stages = workload.StageTimes(spec.Stages)
	at := time.Unix(0, atWall)
	js := &jobState{spec: spec, submittedAt: at, lastSeen: at,
		job: job.New(job.ID(spec.ID), m, spec.GPUs, spec.Iterations, time.Duration(submitV))}
	js.job.DoneIterations = spec.DoneIterations
	s.jobs[spec.ID] = js
	return js
}

// applyAdmitLocked admits one batch, in ack order.
func (s *Server) applyAdmitLocked(a *wal.AdmitRecord) {
	var last int64
	for i := range a.Items {
		it := &a.Items[i]
		js := s.newJobLocked(it.Spec, it.SubmitV, it.AtWall)
		if js == nil {
			continue
		}
		st := job.Pending
		if it.Profiling {
			st = job.Profiling
		}
		s.eng.Track(js.job, st)
		s.live = insertSorted(s.live, js, jobIDOf)
		last = max(last, it.Spec.ID)
	}
	// Submissions after a recovery never reuse an admitted ID.
	s.adm.BumpNextID(last)
}

// applyDecisionLocked applies one engine decision. Its daemon half: a
// requeued or dead-lettered job loses its group binding, and a
// dead-lettered one leaves the live index. The engine half runs only on
// replay, and is the same change either way: live, the engine applied
// the decision itself when it emitted it (ApplyDecision and emit share
// one apply), before the observer handed it over; and a kill's members
// were preempted at the Kill callback, before placement could re-bind
// them.
func (s *Server) applyDecisionLocked(d *wal.DecisionRecord) {
	if s.replaying {
		if d.Action == string(engine.ActKill) {
			s.applyKillLocked(d.Jobs)
		}
		s.eng.ApplyDecision(d.ToDecision())
	}
	dead := d.Action == string(engine.ActDeadletter)
	if !dead && d.Action != string(engine.ActRequeue) {
		return
	}
	for _, id := range d.Jobs {
		if js := s.jobs[id]; js != nil {
			js.groupID = 0
			if dead {
				s.live = removeSorted(s.live, js, jobIDOf)
			}
		}
	}
}

// applyKillLocked preempts a killed unit's running members: unbound, one
// restart charged; the kill decision's apply returns them to pending with
// their progress. Callers hold s.mu.
func (s *Server) applyKillLocked(ids []int64) {
	for _, id := range ids {
		if js := s.jobs[id]; js != nil && js.job.State == job.Running {
			js.groupID = 0
			js.job.Restarts++
		}
	}
}

// applyFaultLocked applies one fault-ledger record, counted by the fold
// the simulator shares (wal.FaultRecord.Count). Every fault-log entry is
// made here, from the record alone: its origin, its text, its wall stamp.
// A job record spends retry budget and sets the backoff (the requeue or
// dead-letter decision beside it is its own record); a record without a
// job requeues Jobs for lost executors.
func (s *Server) applyFaultLocked(f *wal.FaultRecord, wall int64) {
	f.Count(&s.faults)
	entry := wal.FaultLogEntry{AtWall: wall, Executor: f.Origin, Err: f.Err}
	if f.Loss() {
		if f.Origin != "" {
			// A re-registration of this machine counts as a repair.
			s.seenMachines[f.Origin] = true
		}
		for _, id := range f.Jobs {
			if js := s.jobs[id]; js != nil {
				js.faultLog = append(js.faultLog, entry)
			}
		}
		return
	}
	if js := s.jobs[f.Job]; js != nil {
		s.eng.ReplayFault(js.job.ID, f.Faults)
		js.faultLog = append(js.faultLog, entry)
		if !f.DeadLettered {
			js.notBefore = time.Unix(0, f.NotBeforeWall)
		}
	}
}

// applyDoneLocked finishes one job through the engine's Complete, live
// and on replay alike. The logged ServiceV pins the predictor's input
// (attained time itself is soft state), so the estimator's beliefs after
// a replay match the ones before the crash. A policy's completion hook
// hears it too, but its own log does not ride snapshots (DESIGN.md §13).
func (s *Server) applyDoneLocked(d *wal.DoneRecord) {
	js := s.jobs[d.Job]
	if js == nil || !s.eng.Complete(job.ID(d.Job), time.Duration(d.ServiceV)) {
		return // the state machine rejected it: the job already completed
	}
	s.live = removeSorted(s.live, js, jobIDOf) // a no-op if it was dead-lettered first
	js.groupID = 0
	js.finishedAt = time.Unix(0, d.FinishedWall)
	js.job.DoneIterations = js.job.Iterations
	js.job.FinishedAt = time.Duration(d.FinishedV)
}

// applyProfileLocked caches one measured profile and releases every job
// that waited for it.
func (s *Server) applyProfileLocked(p *wal.ProfileRecord) {
	s.profiles[p.Model] = p.Stages
	st := workload.StageTimes(p.Stages)
	for _, js := range s.live {
		if js.spec.Model == p.Model && js.job.State == job.Profiling {
			js.spec.Stages = p.Stages
			js.job.Profile, js.job.TrueProfile = st, st
			s.eng.Track(js.job, job.Pending)
		}
	}
}

// applySnapshotLocked loads one full checkpoint: the engine's state, then
// every job, tracked again at the state and fault count its snapshot
// logged. Callers hold s.mu.
func (s *Server) applySnapshotLocked(sn *wal.Snapshot) {
	s.eng.Restore(sn.Engine)
	s.jobs = make(map[int64]*jobState, len(sn.Jobs))
	s.live = s.live[:0]
	for i := range sn.Jobs {
		j := &sn.Jobs[i]
		js := s.newJobLocked(j.Spec, j.SubmitV, j.SubmittedWall)
		if js == nil {
			continue
		}
		s.eng.Track(js.job, j.Phase)
		s.eng.ReplayFault(js.job.ID, j.Faults)
		if j.Phase != job.Done && j.Phase != job.Deadletter {
			s.live = insertSorted(s.live, js, jobIDOf)
		}
		js.job.DoneIterations = j.DoneIterations
		js.job.StartedAt = time.Duration(j.StartedV)
		js.job.Attained = time.Duration(j.AttainedV)
		js.job.Restarts = j.Restarts
		if j.FinishedWall != 0 {
			js.finishedAt = time.Unix(0, j.FinishedWall)
			js.job.FinishedAt = time.Duration(j.FinishedV)
		}
		if j.NotBeforeWall != 0 {
			js.notBefore = time.Unix(0, j.NotBeforeWall)
		}
		js.faultLog = j.FaultLog
	}
	if len(sn.Profiles) > 0 {
		s.profiles = make(map[string][4]time.Duration, len(sn.Profiles))
		for m, st := range sn.Profiles {
			s.profiles[m] = st
		}
	}
	s.nextGroup = sn.NextGroup
	s.adm.BumpNextID(sn.NextJobID)
	s.faults = sn.Faults
	s.leaseEvictions = sn.LeaseEvictions
	if sn.Predictor != nil {
		s.est.Restore(*sn.Predictor)
	}
	if err := s.expl.Restore(sn.Explain); err != nil {
		s.log.Error("recovery: explain state unreadable; provenance resets", "err", err)
	}
	if sn.Term > s.term.Load() {
		s.term.Store(sn.Term)
	}
}

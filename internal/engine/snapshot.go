package engine

import (
	"strconv"
	"time"

	"muri/internal/job"
	"muri/internal/metrics"
)

// Snapshot is the engine's replayable state: everything Reconcile and
// the lifecycle methods consult that cannot be rebuilt from the drivers'
// own state. Each job's State and Faults are the driver's to store (the
// daemon's wal.JobSnapshot), and it re-tracks its jobs after Restore.
// Restoring a snapshot and re-applying the decision records logged after
// it reproduces the engine bit-for-bit, which is what makes the recovered
// daemon's decision stream byte-identical to an uninterrupted run.
type Snapshot struct {
	// Seq is the last assigned decision sequence number.
	Seq uint64 `json:"seq"`
	// PrevKeys is the placement memory: running job → unit key.
	PrevKeys map[int64]string `json:"prev_keys,omitempty"`
	// Bypassed is the anti-starvation ledger: job → consecutive rounds
	// skipped for capacity.
	Bypassed map[int64]int `json:"bypassed,omitempty"`
	// Stats are the engine counters.
	Stats metrics.EngineStats `json:"stats"`
	// WaitCauses is the provenance transition gate: job → last emitted
	// wait cause. Restored so a recovered daemon does not re-emit a cause
	// record an uninterrupted run would have suppressed.
	WaitCauses map[int64]string `json:"wait_causes,omitempty"`
}

// Snapshot captures the engine's replayable state.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Seq:   e.seq,
		Stats: e.stats,
	}
	if len(e.prevKeys) > 0 {
		s.PrevKeys = make(map[int64]string, len(e.prevKeys))
		for id, k := range e.prevKeys {
			s.PrevKeys[int64(id)] = k
		}
	}
	if len(e.bypassed) > 0 {
		s.Bypassed = make(map[int64]int, len(e.bypassed))
		for id, n := range e.bypassed {
			s.Bypassed[int64(id)] = n
		}
	}
	if len(e.lastWaitCause) > 0 {
		s.WaitCauses = make(map[int64]string, len(e.lastWaitCause))
		for id, c := range e.lastWaitCause {
			s.WaitCauses[int64(id)] = c
		}
	}
	return s
}

// Restore overwrites the engine's replayable state from a snapshot and
// forgets every tracked job. The engine keeps its Config (policy,
// observer, tracer): those are wiring, not state, and the restoring
// driver reconstructs them, as it re-tracks its jobs.
func (e *Engine) Restore(s Snapshot) {
	e.seq = s.Seq
	e.stats = s.Stats
	e.prevKeys = make(map[job.ID]string, len(s.PrevKeys))
	for id, k := range s.PrevKeys {
		e.prevKeys[job.ID(id)] = k
	}
	e.bypassed = make(map[job.ID]int, len(s.Bypassed))
	for id, n := range s.Bypassed {
		e.bypassed[job.ID(id)] = n
	}
	clear(e.jobs)
	e.lastWaitCause = make(map[job.ID]string, len(s.WaitCauses))
	for id, c := range s.WaitCauses {
		e.lastWaitCause[job.ID(id)] = c
	}
}

// ApplyDecision replays one logged decision into the engine's state
// silently: no observer, no trace, no new sequence number —
// the decision already happened; replay only reproduces its effects,
// through the same apply the live engine ran when it emitted it.
//
// Fault-budget spend is NOT derived from the decision kind alone —
// requeue is ambiguous between the free (machine-lost) and
// budget-spending (fault) paths — so replay drives it from the richer
// WAL fault records via ReplayFault.
func (e *Engine) ApplyDecision(d Decision) {
	if d.Seq > e.seq {
		e.seq = d.Seq
	}
	e.apply(d)
}

// apply changes the engine's state by one decision, live (emit) and
// replayed (ApplyDecision) alike:
//
//   - launch: members enter the placement memory under the unit key and
//     move to running, starvation credit and the wait-cause gate reset.
//   - kill: members leave the placement memory, running ones return to
//     pending.
//   - requeue: placement memory and wait cause forgotten; a running job
//     returns to pending, and a fault requeue moves it to pending from
//     any state (its group may have been killed moments before).
//   - deadletter: placement memory and wait cause forgotten, job parked.
//
// Each kind also advances its counter and the decision count. Every
// write to a job's State and Faults is in this file: apply, Track,
// Complete, RecordFault and ReplayFault. The only other writes to the
// placement memory are Restore and Complete.
func (e *Engine) apply(d Decision) {
	e.stats.Decisions++
	switch d.Action {
	case ActLaunch:
		e.stats.Launches++
		for _, id := range d.Jobs {
			e.prevKeys[id] = d.Key
			delete(e.bypassed, id)
			delete(e.lastWaitCause, id)
			if j := e.jobs[id]; j.State.CanTransition(job.Running) {
				j.State = job.Running
			}
		}
	case ActKill:
		e.stats.Preemptions++
		for _, id := range d.Jobs {
			delete(e.prevKeys, id)
			if j := e.jobs[id]; j.State == job.Running {
				j.State = job.Pending
			}
		}
	case ActRequeue:
		e.stats.Requeues++
		for _, id := range d.Jobs {
			delete(e.prevKeys, id)
			delete(e.lastWaitCause, id)
			if j := e.jobs[id]; j.State == job.Running || d.Reason == ReasonFault {
				j.State = job.Pending
			}
		}
	case ActDeadletter:
		e.stats.DeadLettered++
		for _, id := range d.Jobs {
			delete(e.prevKeys, id)
			delete(e.lastWaitCause, id)
			e.jobs[id].State = job.Deadletter
		}
	}
}

// Track registers a job in the lifecycle at state s: the daemon's
// admission (profiling or pending), release from profiling (pending) and
// recovery (any state), the simulator's arrival (pending).
func (e *Engine) Track(j *job.Job, s job.State) {
	j.State = s
	e.jobs[j.ID] = j
}

// RecordFault records a job-level fault: retry budget is spent and the
// job is either requeued (with the returned backoff) or dead-lettered.
// The job's progress is untouched — the next launch resumes from its
// checkpoint.
func (e *Engine) RecordFault(id job.ID) (backoff time.Duration, deadlettered bool) {
	j := e.jobs[id]
	j.Faults++
	if e.cfg.Retry.Exhausted(j.Faults) {
		d := Decision{Action: ActDeadletter, Jobs: []job.ID{id}}
		if e.cfg.Provenance != nil {
			d.Cause = "retry budget exhausted after " + strconv.Itoa(j.Faults) + " faults"
		}
		e.emit(d)
		return 0, true
	}
	d := Decision{Action: ActRequeue, Jobs: []job.ID{id}, Reason: ReasonFault}
	if e.cfg.Provenance != nil {
		budget := "unlimited"
		if e.cfg.Retry.Budget >= 0 {
			budget = strconv.Itoa(e.cfg.Retry.Budget)
		}
		d.Cause = "fault " + strconv.Itoa(j.Faults) + " of budget " + budget
	}
	e.emit(d)
	return e.cfg.Retry.Backoff(int64(id), j.Faults), false
}

// ReplayFault replays one WAL fault record's budget spend: the fault
// count is set absolutely (idempotent under re-replay of the same
// record, and a no-op live, where RecordFault already spent it) without
// emitting the requeue/deadletter decision — that decision, state
// included, is its own WAL record and flows through ApplyDecision.
func (e *Engine) ReplayFault(id job.ID, faults int) {
	if j := e.jobs[id]; faults > j.Faults {
		j.Faults = faults
	}
}

// Complete ends a job's lifecycle (running/pending/deadletter → done),
// reporting whether the transition applied, and forgets its placement
// memory, bypass count and wait cause either way. The transition table
// is the guard: a second completion, or one for a profiling job, changes
// no state and feeds nothing. An applied one feeds the job's 2D service
// demand to the policy's CompletionObserver, then the job to the
// estimator (feedEstimator). Both drivers' completion paths — the
// daemon's live and replayed alike — end here.
func (e *Engine) Complete(id job.ID, service time.Duration) bool {
	delete(e.prevKeys, id)
	delete(e.bypassed, id)
	delete(e.lastWaitCause, id)
	j := e.jobs[id]
	if !j.State.CanTransition(job.Done) {
		return false
	}
	j.State = job.Done
	if e.completions != nil {
		e.completions.Observe(service)
	}
	e.feedEstimator(j, service)
	return true
}

// RunningKeys returns a copy of the placement memory (job → the key its
// last launch gave it), for recovery code that must rebuild driver-side
// group state.
func (e *Engine) RunningKeys() map[job.ID]string {
	out := make(map[job.ID]string, len(e.prevKeys))
	for id, k := range e.prevKeys {
		out[id] = k
	}
	return out
}

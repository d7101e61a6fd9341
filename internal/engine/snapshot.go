package engine

import (
	"time"

	"muri/internal/job"
	"muri/internal/metrics"
)

// Snapshot is the engine's replayable state: everything Reconcile and
// the lifecycle methods consult that cannot be rebuilt from the drivers'
// own state. Restoring a snapshot and re-applying the decision records
// logged after it reproduces the engine bit-for-bit, which is what makes
// the recovered daemon's decision stream byte-identical to an
// uninterrupted run.
type Snapshot struct {
	// Seq is the last assigned decision sequence number.
	Seq uint64 `json:"seq"`
	// LastNow is the clock of the most recent round, in nanoseconds.
	LastNow int64 `json:"last_now,omitempty"`
	// PrevKeys is the placement memory: running job → unit key.
	PrevKeys map[int64]string `json:"prev_keys,omitempty"`
	// Bypassed is the anti-starvation ledger: job → consecutive rounds
	// skipped for capacity.
	Bypassed map[int64]int `json:"bypassed,omitempty"`
	// Records is the lifecycle state machine: job → phase + fault count.
	Records map[int64]RecordSnapshot `json:"records,omitempty"`
	// Stats are the engine counters.
	Stats metrics.EngineStats `json:"stats"`
	// WaitCauses is the provenance transition gate: job → last emitted
	// wait cause. Restored so a recovered daemon does not re-emit a cause
	// record an uninterrupted run would have suppressed.
	WaitCauses map[int64]string `json:"wait_causes,omitempty"`
}

// RecordSnapshot is one job's lifecycle record on disk.
type RecordSnapshot struct {
	Phase  string `json:"phase"`
	Faults int    `json:"faults,omitempty"`
}

// Snapshot captures the engine's replayable state.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Seq:     e.seq,
		LastNow: int64(e.lastNow),
		Stats:   e.stats,
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
	if len(e.records) > 0 {
		s.Records = make(map[int64]RecordSnapshot, len(e.records))
		for id, r := range e.records {
			s.Records[int64(id)] = RecordSnapshot{Phase: string(r.Phase), Faults: r.Faults}
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

// Restore overwrites the engine's replayable state from a snapshot. The
// engine keeps its Config (policy, observer, tracer): those are wiring,
// not state, and the restoring driver reconstructs them.
func (e *Engine) Restore(s Snapshot) {
	e.seq = s.Seq
	e.lastNow = time.Duration(s.LastNow)
	e.stats = s.Stats
	e.prevKeys = make(map[job.ID]string, len(s.PrevKeys))
	for id, k := range s.PrevKeys {
		e.prevKeys[job.ID(id)] = k
	}
	e.bypassed = make(map[job.ID]int, len(s.Bypassed))
	for id, n := range s.Bypassed {
		e.bypassed[job.ID(id)] = n
	}
	e.records = make(map[job.ID]*Record, len(s.Records))
	for id, r := range s.Records {
		e.records[job.ID(id)] = &Record{Phase: Phase(r.Phase), Faults: r.Faults}
	}
	e.lastWaitCause = make(map[job.ID]string, len(s.WaitCauses))
	for id, c := range s.WaitCauses {
		e.lastWaitCause[job.ID(id)] = c
	}
}

// ApplyDecision replays one logged decision into the engine's state
// silently: no observer, no sink, no trace, no new sequence number —
// the decision already happened; replay only reproduces its effects.
// The rules mirror what emit-time code did around each decision:
//
//   - launch: members enter the placement memory under the unit key,
//     phases move to running, starvation credit resets.
//   - kill: members leave the placement memory, running phases return to
//     pending. (The live path rebuilds prevKeys wholesale each round;
//     deleting the killed keys is the equivalent incremental form,
//     because every kept or placed unit re-inserts its own members.)
//   - requeue: placement memory forgotten, running → pending.
//   - deadletter: placement memory forgotten, phase parked.
//
// Fault-budget spend and counter increments are NOT derived from the
// decision kind alone — requeue is ambiguous between the free
// (machine-lost) and budget-spending (fault) paths — so replay drives
// them from the richer WAL fault records via ReplayFault. Stats
// counters (requeues, preemptions, launches, deadletters, decisions)
// are restored from the snapshot and advanced here to match the
// emit-time increments exactly.
func (e *Engine) ApplyDecision(d Decision) {
	if d.Seq > e.seq {
		e.seq = d.Seq
	}
	e.stats.Decisions++
	switch d.Action {
	case ActLaunch:
		e.stats.Launches++
		for _, id := range d.Jobs {
			e.prevKeys[id] = d.Key
			delete(e.bypassed, id)
			delete(e.lastWaitCause, id)
			e.markRunning(id)
		}
	case ActKill:
		e.preempt(d.Jobs)
	case ActRequeue:
		e.stats.Requeues++
		for _, id := range d.Jobs {
			delete(e.prevKeys, id)
			delete(e.lastWaitCause, id)
			if r := e.records[id]; r != nil && r.Phase == PhaseRunning {
				r.Phase = PhasePending
			}
		}
	case ActDeadletter:
		e.stats.DeadLettered++
		for _, id := range d.Jobs {
			delete(e.prevKeys, id)
			delete(e.lastWaitCause, id)
			if r := e.records[id]; r == nil {
				e.records[id] = &Record{Phase: PhaseDeadletter}
			} else {
				r.Phase = PhaseDeadletter
			}
		}
	}
}

// ReplayFault replays one WAL fault record's budget spend: the fault
// count is set absolutely (idempotent under re-replay of the same
// record, and a no-op live, where RecordFault already spent it) without
// emitting the requeue/deadletter decision — that decision, phase
// included, is its own WAL record and flows through ApplyDecision.
func (e *Engine) ReplayFault(id job.ID, faults int) {
	r := e.records[id]
	if r == nil {
		r = &Record{}
		e.records[id] = r
	}
	if faults > r.Faults {
		r.Faults = faults
	}
}

// MarkDone completes a job's lifecycle (running/pending/deadletter →
// done) and clears its placement memory, reporting whether the
// transition applied. The daemon's one completion path — live and
// replayed alike — ends here.
func (e *Engine) MarkDone(id job.ID) bool {
	if !e.SetPhase(id, PhaseDone) {
		return false
	}
	delete(e.prevKeys, id)
	delete(e.bypassed, id)
	delete(e.lastWaitCause, id)
	return true
}

// RunningKeys returns the placement memory as a sorted job → key list,
// for recovery code that must rebuild driver-side group state.
func (e *Engine) RunningKeys() map[job.ID]string {
	out := make(map[job.ID]string, len(e.prevKeys))
	for id, k := range e.prevKeys {
		out[id] = k
	}
	return out
}

package wal

import (
	"encoding/json"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/profile"
	"muri/internal/proto"
)

// Kind enumerates the durable event types the daemon logs. One record
// kind per mutation of recoverable state: everything else (executor
// connections, group→machine placement, in-flight progress reports) is
// soft state that re-registration rebuilds.
type Kind string

const (
	// KindAdmit is one batched-admission boundary: every submission the
	// schedule loop drained into the engine in one round, in ack order.
	KindAdmit Kind = "admit"
	// KindDecision is one engine decision (launch, kill, requeue,
	// deadletter), logged in emission order.
	KindDecision Kind = "decision"
	// KindFault is one fault-ledger mutation: retry budget spent, backoff
	// assigned or the job dead-lettered.
	KindFault Kind = "fault"
	// KindDone is one job completion.
	KindDone Kind = "done"
	// KindProfile is one measured model profile entering the cache.
	KindProfile Kind = "profile"
	// KindProgress is one checkpointed iteration count, logged when a
	// group detaches (kill, fault, lost machine) so the requeued job
	// resumes from its last reported iteration after recovery.
	KindProgress Kind = "progress"
	// KindGroup is one group launch: the daemon-side group ID and each
	// member's start time (the engine's launch decision carries the rest).
	KindGroup Kind = "group"
	// KindTerm is one election-term change (promotion, fencing).
	KindTerm Kind = "term"
	// KindCause is one decision-provenance annotation: a wait-cause
	// transition for a job, a note (starvation boost), or a global
	// adoption-freeze boundary. Pure observability — replay feeds these
	// only to the explain builder, never to the engine.
	KindCause Kind = "cause"
)

// Record is one WAL entry. Exactly one payload field matching Kind is
// set. V and W stamp the daemon's virtual and wall clocks at append
// time; replay uses V to keep virtual-time fields (StartedAt) exact and
// W for replication-lag accounting.
type Record struct {
	LSN  uint64 `json:"lsn"`
	Kind Kind   `json:"kind"`
	V    int64  `json:"v,omitempty"`
	W    int64  `json:"w,omitempty"`

	Admit    *AdmitRecord    `json:"admit,omitempty"`
	Decision *DecisionRecord `json:"decision,omitempty"`
	Fault    *FaultRecord    `json:"fault,omitempty"`
	Done     *DoneRecord     `json:"done,omitempty"`
	Profile  *ProfileRecord  `json:"profile,omitempty"`
	Progress *ProgressRecord `json:"progress,omitempty"`
	Group    *GroupRecord    `json:"group,omitempty"`
	Term     *TermRecord     `json:"term,omitempty"`
	Cause    *CauseRecord    `json:"cause,omitempty"`
}

// CauseRecord is one provenance annotation. Job 0 with the
// adoption-freeze cause marks a global freeze boundary (Detail "start"
// or "end"); Note records annotate a job's timeline without changing
// its open span (starvation boosts).
type CauseRecord struct {
	Job    int64  `json:"job,omitempty"`
	Cause  string `json:"cause"`
	Detail string `json:"detail,omitempty"`
	Note   bool   `json:"note,omitempty"`
}

// AdmitItem is one accepted submission inside an admission batch.
type AdmitItem struct {
	Spec proto.JobSpec `json:"spec"`
	// AtWall is the arrival wall time (unix nanos) for JCT attribution.
	AtWall int64 `json:"at_wall"`
	// SubmitV is the virtual submit time the job was constructed with.
	SubmitV int64 `json:"submit_v"`
	// WaitV is the virtual time the submission spent in the ingest queue
	// before this admission round drained it; SubmitV − WaitV is the
	// job's timeline origin for wait attribution.
	WaitV int64 `json:"wait_v,omitempty"`
	// Depth is the ingest queue depth observed when the submission was
	// accepted (provenance detail for the ingest-queue span).
	Depth int `json:"depth,omitempty"`
	// Profiling marks jobs admitted without a profile (they wait in the
	// profiling phase until a dry run reports stages).
	Profiling bool `json:"profiling,omitempty"`
}

// AdmitRecord is one admission-batch boundary.
type AdmitRecord struct {
	Items []AdmitItem `json:"items"`
}

// DecisionRecord mirrors engine.Decision on disk.
type DecisionRecord struct {
	Seq    uint64  `json:"seq"`
	Action string  `json:"action"`
	Key    string  `json:"key,omitempty"`
	Jobs   []int64 `json:"jobs,omitempty"`
	Reason string  `json:"reason,omitempty"`
	// Cause is the provenance annotation (preemptor identity, grouping
	// efficiency, retry-budget state). Empty when provenance is off.
	Cause string `json:"cause,omitempty"`
}

// ToDecision rebuilds the engine decision.
func (d *DecisionRecord) ToDecision() engine.Decision {
	dec := engine.Decision{
		Seq:    d.Seq,
		Action: engine.Action(d.Action),
		Key:    d.Key,
		Reason: engine.Reason(d.Reason),
		Cause:  d.Cause,
	}
	for _, id := range d.Jobs {
		dec.Jobs = append(dec.Jobs, job.ID(id))
	}
	return dec
}

// FromDecision captures an engine decision for the log.
func FromDecision(d engine.Decision) *DecisionRecord {
	rec := &DecisionRecord{
		Seq:    d.Seq,
		Action: string(d.Action),
		Key:    d.Key,
		Reason: string(d.Reason),
		Cause:  d.Cause,
	}
	for _, id := range d.Jobs {
		rec.Jobs = append(rec.Jobs, int64(id))
	}
	return rec
}

// FaultRecord is one fault ledger mutation. With a fault count it is Job's
// fault, on the machine Origin. Without one (Job zero) it is a loss of
// executors: Origin names the machine that went away — empty when a
// recovered daemon gave up on executors that never re-registered — and
// Jobs lists the running jobs requeued for it, which take Origin and Err
// as their fault-log entry.
type FaultRecord struct {
	Job          int64   `json:"job"`
	Origin       string  `json:"origin,omitempty"`
	Err          string  `json:"err,omitempty"`
	Jobs         []int64 `json:"jobs,omitempty"`
	Faults       int     `json:"faults"`
	DeadLettered bool    `json:"dead_lettered,omitempty"`
	// NotBeforeWall is the post-backoff release time (unix nanos).
	NotBeforeWall int64 `json:"not_before_wall,omitempty"`
	// NotBeforeV is the post-backoff release time on the virtual clock,
	// so wait attribution can split fault-backoff from capacity exactly.
	NotBeforeV int64 `json:"not_before_v,omitempty"`
}

// Loss reports whether the record is a loss of executors rather than a
// job's fault. A job fault carries the job's fault count, this fault
// included; a loss carries none. The job ID cannot tell them apart: the
// simulator's traces number jobs from zero.
func (f *FaultRecord) Loss() bool { return f.Faults == 0 }

// Count folds the record into a fault ledger: the one interpreter of its
// crash, transient, requeue and dead-letter counters, for the daemon's log
// and the simulator's records alike.
func (f *FaultRecord) Count(st *metrics.FaultStats) {
	if f.Loss() {
		if f.Origin != "" {
			st.Crashes++
		}
		st.Requeues += len(f.Jobs)
		return
	}
	st.Transient++
	if f.DeadLettered {
		st.DeadLettered++
	} else {
		st.Requeues++
	}
}

// DoneRecord is one job completion.
type DoneRecord struct {
	Job int64 `json:"job"`
	// FinishedWall is the completion wall time (unix nanos); FinishedV
	// the virtual completion time.
	FinishedWall int64 `json:"finished_wall"`
	FinishedV    int64 `json:"finished_v"`
	// ServiceV is the job's 2D service (virtual attained time × GPUs) at
	// completion, logged so replay feeds the online predictor the exact
	// value the live path observed (attained time itself is soft state).
	ServiceV int64 `json:"service_v,omitempty"`
}

// ProfileRecord is one measured model profile.
type ProfileRecord struct {
	Model  string           `json:"model"`
	Stages [4]time.Duration `json:"stages"`
}

// ProgressRecord checkpoints one job's iteration count.
type ProgressRecord struct {
	Job  int64 `json:"job"`
	Done int64 `json:"done"`
}

// GroupMember is one job of a launched group.
type GroupMember struct {
	Job int64 `json:"job"`
	// StartedV is the job's StartedAt virtual time as set at this launch
	// (only meaningful for the launch that first started the job).
	StartedV int64 `json:"started_v"`
}

// GroupRecord is one daemon-side group launch.
type GroupRecord struct {
	ID      int64         `json:"id"`
	Members []GroupMember `json:"members,omitempty"`
}

// TermRecord is one election-term change.
type TermRecord struct {
	Term uint64 `json:"term"`
}

// JobSnapshot is one job's recoverable state inside a snapshot.
type JobSnapshot struct {
	Spec           proto.JobSpec   `json:"spec"`
	Phase          job.State       `json:"phase"`
	DoneIterations int64           `json:"done_iterations"`
	SubmittedWall  int64           `json:"submitted_wall"`
	FinishedWall   int64           `json:"finished_wall,omitempty"`
	SubmitV        int64           `json:"submit_v"`
	StartedV       int64           `json:"started_v"`
	FinishedV      int64           `json:"finished_v,omitempty"`
	AttainedV      int64           `json:"attained_v,omitempty"`
	Restarts       int             `json:"restarts,omitempty"`
	Faults         int             `json:"faults,omitempty"`
	NotBeforeWall  int64           `json:"not_before_wall,omitempty"`
	FaultLog       []FaultLogEntry `json:"fault_log,omitempty"`
}

// FaultLogEntry is one attribution entry of a job's fault history.
type FaultLogEntry struct {
	AtWall   int64  `json:"at_wall"`
	Executor string `json:"executor,omitempty"`
	Err      string `json:"err,omitempty"`
}

// Snapshot is a full recoverable-state checkpoint: loading it and
// replaying records with LSN greater than Snapshot.LSN reconstructs the
// daemon exactly.
type Snapshot struct {
	// LSN is the last record reflected in this snapshot.
	LSN uint64 `json:"lsn"`
	// Term is the election term at snapshot time.
	Term uint64 `json:"term"`
	// TakenWall is the snapshot wall time (unix nanos); V the virtual
	// clock, restored so virtual time is continuous across restarts.
	TakenWall int64 `json:"taken_wall"`
	V         int64 `json:"v"`

	Engine         engine.Snapshot             `json:"engine"`
	Jobs           []JobSnapshot               `json:"jobs,omitempty"`
	Profiles       map[string][4]time.Duration `json:"profiles,omitempty"`
	NextGroup      int64                       `json:"next_group"`
	NextJobID      int64                       `json:"next_job_id"`
	Faults         metrics.FaultStats          `json:"faults"`
	LeaseEvictions uint64                      `json:"lease_evictions,omitempty"`
	// Predictor is the online estimator's learned state. Done records
	// below Snapshot.LSN are never replayed, so the predictor — which
	// learns exclusively from completions — must checkpoint here; replay
	// of the tail re-feeds post-snapshot completions. Absent in
	// snapshots taken before prediction mode existed.
	Predictor *profile.OnlineState `json:"predictor,omitempty"`
	// Explain is the decision-provenance builder's state (opaque to the
	// WAL layer), checkpointed so a recovered daemon — or an offline
	// muritrace reconstruction — renders explanations byte-identical to
	// the uninterrupted live daemon. Absent in older snapshots.
	Explain json.RawMessage `json:"explain,omitempty"`
}

// Package job defines the DL training job model shared by the scheduler,
// the simulator, and the distributed prototype: identity, resource profile,
// progress accounting, and the priority functions (SRSF, 2D-LAS) Muri uses
// to order its queue (paper §4.2, "Optimizing for average JCT").
package job

import (
	"fmt"
	"slices"
	"time"

	"muri/internal/workload"
)

// ID uniquely identifies a job within one scheduler instance.
type ID int64

// State is a job's place in its lifecycle, the one state machine the
// scheduler drives (paper §3, Figure 3):
//
//	profiling ──► pending ──► running ──► done
//	                 ▲  │         │
//	                 │  │         ├──► pending   (preemption / requeue)
//	                 │  └──► deadletter ◄┘       (retry budget exhausted)
//	                 │
//	              (requeue after fault, with backoff)
//
// The scheduling engine is its only writer (internal/engine/snapshot.go).
// The zero value is Pending, and String returns the daemon's wire states.
type State int

const (
	// Profiling jobs wait for a dry-run profile of their model.
	Profiling State = iota - 1
	// Pending jobs sit in the scheduler queue.
	Pending
	// Running jobs hold resources on the cluster.
	Running
	// Done jobs have completed all iterations. Terminal.
	Done
	// Deadletter jobs exhausted their fault-retry budget and are parked.
	// A straggling completion report may still finish them.
	Deadletter
)

var stateNames = [...]string{"profiling", "pending", "running", "done", "deadletter"}

// String returns the lowercase state name.
func (s State) String() string {
	if s < Profiling || s > Deadletter {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s-Profiling]
}

// MarshalText encodes the state as its name.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a state name.
func (s *State) UnmarshalText(b []byte) error {
	i := slices.Index(stateNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("job: unknown state %q", b)
	}
	*s = Profiling + State(i)
	return nil
}

// CanTransition reports whether the lifecycle permits moving from s to
// to. The table encodes the daemon's historical guards: a completion may
// arrive for a job that was already requeued (pending → done) or parked
// (deadletter → done), a fault may strike a job whose group was killed
// moments before (pending → pending requeue, pending → deadletter), and
// done is terminal.
func (s State) CanTransition(to State) bool {
	switch s {
	case Profiling:
		return to == Pending
	case Pending:
		return to == Pending || to == Running || to == Done || to == Deadletter
	case Running:
		return to == Pending || to == Done || to == Deadletter
	case Deadletter:
		return to == Done
	default: // Done
		return false
	}
}

// Job is one DL training job. The scheduler mutates progress fields; all
// times are virtual durations since the start of the experiment.
type Job struct {
	// ID is the scheduler-assigned identity.
	ID ID
	// Name is a human-readable label (defaults to the model name).
	Name string
	// Model is the DL model this job trains.
	Model workload.Model
	// Profile is the stage-duration vector the scheduler believes
	// (possibly noisy — Figure 14); the simulator executes TrueProfile.
	Profile workload.StageTimes
	// TrueProfile is the actual per-iteration stage durations.
	TrueProfile workload.StageTimes
	// GPUs is the number of GPUs the job needs (a power of two, §5).
	GPUs int
	// Iterations is the total number of training iterations.
	Iterations int64
	// Submit is the submission time.
	Submit time.Duration

	// State is the current lifecycle state.
	State State
	// Faults counts recorded faults (retry-budget spend).
	Faults int
	// DoneIterations counts completed iterations.
	DoneIterations int64
	// Attained is the total virtual time the job has spent running,
	// weighted only by wall time (2D-LAS multiplies by GPUs separately).
	Attained time.Duration
	// StartedAt is when the job first obtained resources (-1 if never).
	StartedAt time.Duration
	// FinishedAt is the completion time (valid when State == Done).
	FinishedAt time.Duration
	// Restarts counts how many times the job was preempted and restarted.
	Restarts int

	// Sched is the scheduling path's per-job scratch.
	Sched Sched
}

// Sched is scratch the scheduling path keeps on the job itself, so a
// round starts from what the last one knew instead of re-deriving it
// through ID-keyed maps. It belongs to the one engine and the one policy
// instance that schedule the job (the same owner that writes State) and
// is never serialized, hashed or compared. Every field is a hint its
// reader validates, so a stale or foreign value costs time, never
// correctness.
type Sched struct {
	// Rank is the job's index in its policy's previous ordering. The policy
	// trusts it only when that ordering still holds this job there.
	Rank uint32
	// Placed, Claimed, Bumped and Seen are the engine's round marks: each
	// is set when it holds the stamp of the round in progress. Stamps are
	// process-unique, so a mark left by another round — or another engine
	// — reads as unset. Seen's one user is the wait-cause walk, which
	// dedups jobs that several planned units name under a stamp of its own.
	Placed, Claimed, Bumped, Seen uint64
}

// New constructs a pending job with the given identity and requirements.
// The profile defaults to the model's measured stages; call ApplyNoise to
// perturb the scheduler-visible profile.
func New(id ID, m workload.Model, gpus int, iterations int64, submit time.Duration) *Job {
	return &Job{
		ID:          id,
		Name:        m.Name,
		Model:       m,
		Profile:     m.Stages,
		TrueProfile: m.Stages,
		GPUs:        gpus,
		Iterations:  iterations,
		Submit:      submit,
		StartedAt:   -1,
	}
}

// SerialIterTime is the per-iteration duration when the job runs alone,
// according to the true profile.
func (j *Job) SerialIterTime() time.Duration { return j.TrueProfile.Total() }

// RemainingIterations returns how many iterations are left.
func (j *Job) RemainingIterations() int64 {
	r := j.Iterations - j.DoneIterations
	if r < 0 {
		return 0
	}
	return r
}

// RemainingTime estimates the remaining run time at exclusive (serial)
// speed using the scheduler-visible profile. SRSF uses it as the "remaining
// service" estimate.
func (j *Job) RemainingTime() time.Duration {
	return time.Duration(j.RemainingIterations()) * j.Profile.Total()
}

// TotalTime is the job's full duration at exclusive speed (the trace
// duration), from the scheduler-visible profile.
func (j *Job) TotalTime() time.Duration {
	return time.Duration(j.Iterations) * j.Profile.Total()
}

// SRSF returns the Shortest-Remaining-Service-First priority
// p = remaining_time × gpus. Lower is more urgent (paper §4.2).
func (j *Job) SRSF() float64 {
	return j.RemainingTime().Seconds() * float64(j.GPUs)
}

// LAS2D returns the 2D-LAS priority p = attained_service × gpus.
// Lower is more urgent; new jobs get the highest priority.
func (j *Job) LAS2D() float64 {
	return j.Attained.Seconds() * float64(j.GPUs)
}

// JCT returns the job completion time (finish − submit). It panics if the
// job is not done, because reading a JCT early is always a bug.
func (j *Job) JCT() time.Duration {
	if j.State != Done {
		panic(fmt.Sprintf("job %d: JCT requested in state %v", j.ID, j.State))
	}
	return j.FinishedAt - j.Submit
}

// Finished reports whether all iterations are complete.
func (j *Job) Finished() bool { return j.DoneIterations >= j.Iterations }

// Advance records the completion of n iterations over elapsed virtual
// time, clamping at the job's total. It returns the number of iterations
// actually credited.
func (j *Job) Advance(n int64, elapsed time.Duration) int64 {
	if n > j.RemainingIterations() {
		n = j.RemainingIterations()
	}
	j.DoneIterations += n
	j.Attained += elapsed
	return n
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d (%s, %d GPUs, %d iters, %s/iter)",
		j.ID, j.Name, j.GPUs, j.Iterations, j.SerialIterTime())
}

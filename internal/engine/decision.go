package engine

import (
	"slices"
	"strconv"
	"strings"

	"muri/internal/job"
	"muri/internal/sched"
)

// Action is the kind of one scheduling decision.
type Action string

const (
	// ActLaunch starts a unit that was not running under this key before.
	ActLaunch Action = "launch"
	// ActKill preempts a running unit to reclaim its capacity.
	ActKill Action = "kill"
	// ActRequeue pushes a job back to the queue after a fault or a lost
	// machine.
	ActRequeue Action = "requeue"
	// ActDeadletter parks a job that exhausted its retry budget.
	ActDeadletter Action = "deadletter"
)

// Reason qualifies requeue decisions.
type Reason string

const (
	// ReasonMachineLost marks a requeue caused by losing the machine the
	// job ran on (crash or evicted executor); it does not charge the
	// job's retry budget.
	ReasonMachineLost Reason = "machine-lost"
	// ReasonFault marks a requeue caused by the job's own failure; it
	// spends retry budget.
	ReasonFault Reason = "fault"
)

// Decision is one entry of the engine's decision stream. Both drivers —
// the discrete-event simulator and the live daemon — emit the same
// stream for the same event sequence; the parity tests compare streams
// via String, which deliberately excludes timestamps (virtual and wall
// clocks never align byte-for-byte).
type Decision struct {
	// Seq is the engine-assigned sequence number, starting at 1.
	Seq uint64
	// Action is the decision kind.
	Action Action
	// Key is the canonical unit key (launch and kill decisions).
	Key string
	// Jobs lists the affected job IDs in ascending order.
	Jobs []job.ID
	// Reason qualifies requeues.
	Reason Reason
	// Cause is the provenance annotation attached at the decision site
	// (preemptor identity, grouping efficiency, retry-budget state).
	// Only populated when Config.Provenance is set; deliberately excluded
	// from String so parity streams stay byte-identical either way.
	Cause string
}

// String renders the decision without its sequence number or any
// timestamp, so streams from different drivers compare byte-for-byte.
func (d Decision) String() string {
	var b strings.Builder
	b.WriteString(string(d.Action))
	if d.Key != "" {
		b.WriteByte(' ')
		b.WriteString(d.Key)
	} else {
		for i, id := range d.Jobs {
			if i == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(int64(id), 10))
		}
	}
	if d.Reason != "" {
		b.WriteString(" (")
		b.WriteString(string(d.Reason))
		b.WriteByte(')')
	}
	return b.String()
}

// memberIDs returns a unit's member IDs in ascending order.
func memberIDs(u sched.Unit) []job.ID {
	ids := make([]job.ID, len(u.Jobs))
	for i, j := range u.Jobs {
		ids[i] = j.ID
	}
	if len(ids) > 1 {
		slices.Sort(ids)
	}
	return ids
}

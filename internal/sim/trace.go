// Trace instrumentation: renders simulation activity into the run's
// telemetry.Tracer (Chrome trace-event format, viewable in Perfetto).
//
// The visual contract is the paper's Figure 3: each interleaved group
// gets one trace process with one thread row per resource type
// (storage, cpu, gpu, network), so the stage offsets of Eq. 3 are
// directly visible — while job 0 loads data, job 1 preprocesses, job 2
// propagates, job 3 synchronizes, with a barrier at the end of every
// stage slot. Exclusive units render their serial stage sequence on the
// same rows; space-shared units get one row per member because their
// stages genuinely overlap on every resource.
//
// Everything here is nil-gated: with cfg.Trace == nil no method touches
// any simulation state, keeping uninstrumented runs bit-identical.
package sim

import (
	"fmt"
	"time"

	"muri/internal/sched"
	"muri/internal/telemetry"
	"muri/internal/workload"
)

// traceStageCycles is how many group iterations of each unit launch are
// rendered as stage spans: enough to see the interleaving pattern without
// recording every iteration of a multi-day job.
const traceStageCycles = 4

// traceFault emits an instant event on the fault row of the trace.
func (s *sim) traceFault(name string, at time.Duration, args map[string]any) {
	tr := s.cfg.Trace
	if !tr.Enabled() {
		return
	}
	pid := tr.Process("faults")
	tr.Instant(pid, tr.Thread(pid, "events"), name, "fault", at, args)
}

// traceUnitStages renders a freshly launched (or restarted) unit on its
// group process: one "launch" instant naming the members and the machines
// they landed on, then the first few group iterations as per-resource
// stage spans, starting at the unit's readyAt (restart overhead already
// applied). Emission happens only on actual launches, never on
// round-to-round continuations, which bounds the event volume under
// preemptive policies that re-place every unit every round.
func (s *sim) traceUnitStages(u *unit, key string) {
	tr := s.cfg.Trace
	if !tr.Enabled() {
		return
	}
	pid := tr.Process("group " + key)
	switch u.spec.Mode {
	case sched.Interleaved:
		s.traceInterleavedStages(u, pid)
	case sched.Exclusive:
		s.traceSerialStages(u, pid)
	default: // space-shared
		s.traceSpaceSharedStages(u, pid)
	}
	jobs := make([]int64, len(u.spec.Jobs))
	for i, j := range u.spec.Jobs {
		jobs[i] = int64(j.ID)
	}
	tr.Instant(pid, tr.Thread(pid, "launches"), "launch", "launch", s.now,
		map[string]any{"jobs": jobs, "machines": allocMachines(u.alloc)})
}

// resourceThreads registers (or looks up) the per-resource thread rows
// of a group process, in canonical stage order so rows render as
// storage, cpu, gpu, network top to bottom.
func resourceThreads(tr *telemetry.Tracer, pid int) [workload.NumResources]int {
	var tids [workload.NumResources]int
	for r := workload.Resource(0); r < workload.NumResources; r++ {
		tids[r] = tr.Thread(pid, r.String())
	}
	return tids
}

// traceInterleavedStages draws the Eq. 3 schedule: slot j of a cycle
// lasts max_i inflated[i][(i+j) mod k], and within it the member at
// ordering position i occupies resource (i+j) mod k. Distinct members
// always occupy distinct resources in a slot (i is distinct mod k and
// group size ≤ k), so each resource row holds at most one span per slot.
func (s *sim) traceInterleavedStages(u *unit, pid int) {
	tr := s.cfg.Trace
	times := make([]workload.StageTimes, len(u.spec.Jobs))
	for i, j := range u.spec.Jobs {
		times[i] = j.TrueProfile
	}
	inflated := s.cfg.Interleave.Inflate(times)
	if u.slow > 1 {
		for i := range inflated {
			inflated[i] = inflated[i].Scale(u.slow)
		}
	}
	const k = workload.NumResources
	tids := resourceThreads(tr, pid)
	start := u.readyAt
	for c := 0; c < traceStageCycles; c++ {
		for j := 0; j < k; j++ {
			var slot time.Duration
			for i := range inflated {
				if d := inflated[i][(i+j)%k]; d > slot {
					slot = d
				}
			}
			for i, j2 := range u.spec.Jobs {
				r := workload.Resource((i + j) % k)
				d := inflated[i][r]
				if d <= 0 {
					continue
				}
				tr.Span(pid, tids[r], fmt.Sprintf("job %d: %s", j2.ID, r.StageName()), "stage",
					start, d, map[string]any{"job": int64(j2.ID), "cycle": c, "slot": j})
			}
			start += slot
		}
	}
}

// traceSerialStages draws an exclusive unit's stage sequence: the single
// member cycles through its four stages back to back, each on its own
// resource row, scaled so one rendered cycle spans exactly iterTime[0]
// (which folds in any straggler slowdown).
func (s *sim) traceSerialStages(u *unit, pid int) {
	tr := s.cfg.Trace
	j := u.spec.Jobs[0]
	profile := j.TrueProfile
	total := profile.Total()
	if total <= 0 {
		return
	}
	scale := float64(u.iterTime[0]) / float64(total)
	tids := resourceThreads(tr, pid)
	start := u.readyAt
	for c := 0; c < traceStageCycles; c++ {
		for r := workload.Resource(0); r < workload.NumResources; r++ {
			d := time.Duration(float64(profile[r]) * scale)
			if d <= 0 {
				continue
			}
			tr.Span(pid, tids[r], fmt.Sprintf("job %d: %s", j.ID, r.StageName()), "stage",
				start, d, map[string]any{"job": int64(j.ID), "cycle": c})
			start += d
		}
	}
}

// traceSpaceSharedStages draws a space-shared unit: every member runs
// its own serial stage sequence concurrently at its contended speed, so
// each member gets its own thread row (stages overlap on every
// resource, which per-resource rows cannot render).
func (s *sim) traceSpaceSharedStages(u *unit, pid int) {
	tr := s.cfg.Trace
	for i, j := range u.spec.Jobs {
		profile := j.TrueProfile
		total := profile.Total()
		if total <= 0 {
			continue
		}
		scale := float64(u.iterTime[i]) / float64(total)
		tid := tr.Thread(pid, fmt.Sprintf("job %d", j.ID))
		start := u.readyAt
		for c := 0; c < traceStageCycles; c++ {
			for r := workload.Resource(0); r < workload.NumResources; r++ {
				d := time.Duration(float64(profile[r]) * scale)
				if d <= 0 {
					continue
				}
				tr.Span(pid, tid, fmt.Sprintf("job %d: %s", j.ID, r.StageName()), "stage",
					start, d, map[string]any{"job": int64(j.ID), "cycle": c})
				start += d
			}
		}
	}
}

// Package executor implements the Muri executor (paper Figure 3, §5):
// it runs interleaving groups stage slot by stage slot, reports progress
// and faults to the scheduler, and answers dry-run profiling requests.
// Stage execution is simulated by sleeping to (time-scaled) stage-slot
// deadlines on one clock per group, which preserves the slot structure
// of the prototype without GPUs.
package executor

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"muri/internal/proto"
	"muri/internal/workload"
)

// FaultFunc lets tests and examples inject failures: it is consulted
// before every iteration and returns a non-nil error to fail the job.
type FaultFunc func(jobID int64, iteration int64) error

// GroupEvents receives runner callbacks. Callbacks run on the group's
// one goroutine and must not block for long: the group's next stage
// slot starts only when they return.
type GroupEvents struct {
	// JobDone fires when a member completes all iterations.
	JobDone func(jobID int64)
	// Fault fires when a member fails; the member stops, others continue.
	Fault func(jobID int64, err error)
}

// GroupRun executes one interleaving group: each member runs with a
// distinct stage offset and consecutive stage slots do not overlap, so
// at any instant each resource type is used by at most one member
// (paper §4.1). The zero value is not usable; construct with NewGroupRun.
type GroupRun struct {
	jobs   []proto.JobSpec
	scale  float64
	events GroupEvents
	fault  FaultFunc

	done   []atomic.Int64 // per-member completed iterations
	iterNS []atomic.Int64 // per-member observed avg iteration nanos
}

// NewGroupRun prepares a group execution. Jobs must be in stage-offset
// order (Jobs[i] starts at offset i). timeScale compresses virtual stage
// durations into wall-clock sleeps; it must be positive.
func NewGroupRun(jobs []proto.JobSpec, timeScale float64, events GroupEvents, fault FaultFunc) *GroupRun {
	if len(jobs) == 0 {
		panic("executor: empty group")
	}
	if len(jobs) > workload.NumResources {
		panic(fmt.Sprintf("executor: group of %d exceeds %d members", len(jobs), workload.NumResources))
	}
	if timeScale <= 0 {
		panic("executor: non-positive time scale")
	}
	g := &GroupRun{
		jobs:   jobs,
		scale:  timeScale,
		events: events,
		fault:  fault,
		done:   make([]atomic.Int64, len(jobs)),
		iterNS: make([]atomic.Int64, len(jobs)),
	}
	for i, j := range jobs {
		g.done[i].Store(j.DoneIterations)
	}
	return g
}

// Progress returns a snapshot of every member's progress.
func (g *GroupRun) Progress() []proto.JobProgress {
	out := make([]proto.JobProgress, len(g.jobs))
	for i, j := range g.jobs {
		out[i] = proto.JobProgress{
			ID:             j.ID,
			DoneIterations: g.done[i].Load(),
			AvgIterTime:    time.Duration(g.iterNS[i].Load()),
		}
	}
	return out
}

// clock paces a run against absolute deadlines counted from its start:
// each advance moves the deadline by a scaled virtual duration and sleeps
// until it, so a late wakeup shortens the next wait instead of stretching
// the run. One timer serves every wait; between waits it is stopped with
// its channel drained, as Reset requires under go.mod's go 1.22 timers.
type clock struct {
	start time.Time
	scale float64
	virt  time.Duration // virtual time elapsed at the current deadline
	timer *time.Timer
}

func newClock(scale float64) *clock {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &clock{start: time.Now(), scale: scale, timer: t}
}

// advance moves the deadline by d of virtual time and waits for it. A
// deadline already passed only checks ctx. It returns ctx.Err() on
// cancellation; the clock is unusable afterwards.
func (c *clock) advance(ctx context.Context, d time.Duration) error {
	c.virt += d
	wait := time.Until(c.start.Add(time.Duration(float64(c.virt) * c.scale)))
	if wait <= 0 {
		return ctx.Err()
	}
	c.timer.Reset(wait)
	select {
	case <-ctx.Done():
		c.timer.Stop()
		return ctx.Err()
	case <-c.timer.C:
		return nil
	}
}

// Run executes the group until all members finish or ctx is cancelled.
// It returns ctx.Err() on cancellation and nil on completion.
//
// One goroutine drives every member on one clock. In stage slot s the
// member at offset i runs stage (i+s) mod k, and the slot lasts as long
// as the slowest live member's stage: the paper's barrier after the
// overlapped stages (§4.1), computed rather than synchronized. Each
// iteration is k slots; before it, every live member passes its fault
// check, and after it, finished members leave, so the remaining
// members' slots shrink.
func (g *GroupRun) Run(ctx context.Context) error {
	k := workload.NumResources
	live := make([]int, 0, len(g.jobs)) // offsets of running members
	for i, spec := range g.jobs {
		if spec.DoneIterations < spec.Iterations {
			live = append(live, i)
		} else if g.events.JobDone != nil {
			g.events.JobDone(spec.ID)
		}
	}
	c := newClock(g.scale)
	defer c.timer.Stop()
	for len(live) > 0 {
		if g.fault != nil {
			live = slices.DeleteFunc(live, func(i int) bool {
				err := g.fault(g.jobs[i].ID, g.done[i].Load())
				if err != nil && g.events.Fault != nil {
					g.events.Fault(g.jobs[i].ID, err)
				}
				return err != nil
			})
			if len(live) == 0 {
				break
			}
		}
		for slot := 0; slot < k; slot++ {
			var longest time.Duration
			for _, i := range live {
				longest = max(longest, g.jobs[i].Stages[(i+slot)%k])
			}
			if err := c.advance(ctx, longest); err != nil {
				return err
			}
		}
		elapsed := time.Since(c.start)
		live = slices.DeleteFunc(live, func(i int) bool {
			spec := g.jobs[i]
			done := g.done[i].Add(1)
			// Report virtual time: wall time divided by the time scale.
			g.iterNS[i].Store(int64(float64(elapsed) / float64(done-spec.DoneIterations) / g.scale))
			if done < spec.Iterations {
				return false
			}
			if g.events.JobDone != nil {
				g.events.JobDone(spec.ID)
			}
			return true
		})
	}
	return ctx.Err()
}

// ProfileModel dry-runs a model alone for the given iterations and
// returns the measured per-stage durations in virtual time. This is the
// executor side of the resource profiler (paper §3/§5).
func ProfileModel(ctx context.Context, model string, iterations int, timeScale float64) (proto.Profiled, error) {
	m, err := workload.ByName(model)
	if err != nil {
		return proto.Profiled{Model: model, Err: err.Error()}, err
	}
	if iterations <= 0 {
		iterations = 5
	}
	// Stages end at deadlines on one clock and each is measured from the
	// previous wakeup: a late wakeup shortens the next stage by what it
	// added to this one, so timer overshoot cancels out over the run
	// instead of inflating every stage.
	var measured [workload.NumResources]time.Duration
	c := newClock(timeScale)
	defer c.timer.Stop()
	last := c.start
	for it := 0; it < iterations; it++ {
		for r := 0; r < workload.NumResources; r++ {
			if err := c.advance(ctx, m.Stages[r]); err != nil {
				return proto.Profiled{Model: model, Err: err.Error()}, err
			}
			now := time.Now()
			measured[r] += time.Duration(float64(now.Sub(last)) / timeScale)
			last = now
		}
	}
	var out proto.Profiled
	out.Model = model
	for r := 0; r < workload.NumResources; r++ {
		out.Stages[r] = measured[r] / time.Duration(iterations)
	}
	return out, nil
}

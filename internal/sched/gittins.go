package sched

import (
	"slices"
	"sort"
	"sync"
	"time"

	"muri/internal/job"
)

// HistorySource supplies an empirical distribution of completed-job
// total service demands (gpu-seconds, sorted ascending). The online
// predictor (profile.Online) implements it, so the Gittins index can
// consume the shared predictor history instead of keeping a private
// oracle-fed log.
type HistorySource interface {
	ServiceHistory() []float64
}

// Gittins implements the Gittins-index scheduling policy that Tiresias
// offers alongside 2D-LAS (paper §2.1: "LAS and Gittins index are
// effective when the running time is unknown"). The index of a job that
// has attained service a is the best ratio, over service quanta Δ, of
//
//	P(job finishes within Δ more service | it survived a)
//	------------------------------------------------------
//	E(service spent in the next Δ | survived a)
//
// computed against an empirical distribution of previously completed job
// service demands. Jobs with the highest index run first; like 2D-LAS,
// the index needs no per-job duration oracle, only the history of
// completed jobs. The 2D extension multiplies attained service by the
// GPU count, exactly as Tiresias does for LAS.
//
// The policy is safe for concurrent use: the private history is guarded
// by a mutex (a caller may Observe and Plan from different goroutines),
// and each Plan works against an immutable snapshot of the distribution.
type Gittins struct {
	// Source, when non-nil, replaces the private completion log with the
	// shared predictor history: Plan reads Source.ServiceHistory() and
	// Observe becomes a no-op (the driver feeds the predictor, which
	// feeds every consumer). Set before the first Plan call.
	Source HistorySource

	// mu guards history and dirty.
	mu sync.Mutex
	// dirty marks the history as needing a re-sort before the next
	// snapshot.
	dirty   bool
	history []float64 // completed total service (gpu-seconds), sorted
}

// NewGittins returns the policy with a private completion log fed
// through Observe.
func NewGittins() *Gittins { return &Gittins{} }

// NewGittinsFromEstimator returns the policy reading its empirical
// distribution from the shared predictor history (profile.Online) rather
// than a private oracle-fed log.
func NewGittinsFromEstimator(src HistorySource) *Gittins {
	return &Gittins{Source: src}
}

// Name implements Policy.
func (g *Gittins) Name() string {
	if g.Source != nil {
		return "gittins-pred"
	}
	return "gittins"
}

// Preemptive implements Policy.
func (g *Gittins) Preemptive() bool { return true }

// Observe records the total service demand of a completed job: it is the
// policy's engine.CompletionObserver hook, which both drivers' completions
// reach through engine.Complete, so the empirical prior sharpens as jobs
// finish. With a Source attached the call is a no-op:
// the predictor already holds the completion.
func (g *Gittins) Observe(totalService time.Duration) {
	if g.Source != nil {
		return
	}
	g.mu.Lock()
	g.history = append(g.history, totalService.Seconds())
	g.dirty = true
	g.mu.Unlock()
}

// gittinsQuanta are the candidate service deltas Δ evaluated for the
// index: a geometric ladder from one minute to one day.
var gittinsQuanta = []time.Duration{
	time.Minute, 5 * time.Minute, 15 * time.Minute, time.Hour,
	4 * time.Hour, 12 * time.Hour, 24 * time.Hour,
}

// snapshotHistory returns the sorted distribution Plan should rank
// against: a copy of the private log (so concurrent Observe appends
// cannot mutate a plan in flight), or the predictor's own snapshot.
func (g *Gittins) snapshotHistory() []float64 {
	if g.Source != nil {
		return g.Source.ServiceHistory()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dirty {
		slices.Sort(g.history)
		g.dirty = false
	}
	return append([]float64(nil), g.history...)
}

// gittinsIndex computes the Gittins index for attained service a
// (gpu-seconds) against a sorted demand history. With no history, every
// job gets the same index (degenerates to FIFO order via the sort
// tie-break) — matching a cold-started Tiresias.
func gittinsIndex(history []float64, quanta []time.Duration, a float64) float64 {
	n := len(history)
	if n == 0 {
		return 0
	}
	// survivors: jobs with demand > a.
	lo := sort.SearchFloat64s(history, a)
	survivors := history[lo:]
	if len(survivors) == 0 {
		// Beyond every observed demand: assume heavy tail, lowest index.
		return 0
	}
	best := 0.0
	for _, q := range quanta {
		dq := q.Seconds()
		finished := 0
		expected := 0.0
		for _, d := range survivors {
			if d <= a+dq {
				finished++
				expected += d - a
			} else {
				expected += dq
			}
		}
		p := float64(finished) / float64(len(survivors))
		if expected <= 0 {
			continue
		}
		if r := p / (expected / float64(len(survivors))); r > best {
			best = r
		}
	}
	return best
}

// Plan implements Policy: exclusive units ordered by descending Gittins
// index on 2D attained service, ranked against one immutable history
// snapshot per round.
func (g *Gittins) Plan(now time.Duration, jobs []*job.Job, capacity int) []Unit {
	history := g.snapshotHistory()
	return exclusiveUnits(sortJobs(jobs, func(j *job.Job) float64 {
		a := j.Attained.Seconds() * float64(j.GPUs)
		return -gittinsIndex(history, gittinsQuanta, a) // highest index first
	}))
}

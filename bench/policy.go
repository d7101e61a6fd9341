package main

import (
	"hash"
	"hash/fnv"
	"io"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/sched"
)

// planTimer is a forwarding sched.Policy that times every Plan call from
// outside. The engine and the simulator type-assert their policy for
// four optional hooks; the wrapper forwards each one the inner policy
// has and answers neutrally otherwise, so a wrapped run makes the same
// decisions as an unwrapped one (TestWrappedPolicyEquivalent, and the
// traced pass checks it on every run).
type planTimer struct {
	inner sched.Policy
	// durs holds one wall duration per Plan call.
	durs    []time.Duration
	jobsMax int
	// after, when set, runs after each Plan call with its index, start
	// time and duration plus the round's live inputs (traced pass: span
	// recording and the core.Plan probes). Time spent in it is not part
	// of durs.
	after func(call int, start time.Time, d time.Duration, jobs []*job.Job, capacity int)
}

func (p *planTimer) Name() string     { return p.inner.Name() }
func (p *planTimer) Preemptive() bool { return p.inner.Preemptive() }

func (p *planTimer) Plan(now time.Duration, jobs []*job.Job, capacity int) []sched.Unit {
	start := time.Now()
	units := p.inner.Plan(now, jobs, capacity)
	d := time.Since(start)
	p.durs = append(p.durs, d)
	if len(jobs) > p.jobsMax {
		p.jobsMax = len(jobs)
	}
	if p.after != nil {
		p.after(len(p.durs)-1, start, d, jobs, capacity)
	}
	return units
}

// NoteDecisions forwards engine.DecisionSink.
func (p *planTimer) NoteDecisions(n int) {
	if s, ok := p.inner.(engine.DecisionSink); ok {
		s.NoteDecisions(n)
	}
}

// PriorityKey forwards engine.PriorityKeyer. The engine reads it only
// with provenance on, which no sim workload enables.
func (p *planTimer) PriorityKey(now time.Duration, j *job.Job) float64 {
	if k, ok := p.inner.(engine.PriorityKeyer); ok {
		return k.PriorityKey(now, j)
	}
	return 0
}

// PlanStats forwards engine.PlanStatsProvider.
func (p *planTimer) PlanStats() metrics.ShardStats {
	if s, ok := p.inner.(engine.PlanStatsProvider); ok {
		return s.PlanStats()
	}
	return metrics.ShardStats{}
}

// Observe forwards the completion hook the simulator feeds learning
// policies (sched.Gittins).
func (p *planTimer) Observe(service time.Duration) {
	if o, ok := p.inner.(interface{ Observe(time.Duration) }); ok {
		o.Observe(service)
	}
}

// decisionHash is FNV-32a over the decision stream, one
// Decision.String() per line (32 bits so the value survives a float64
// in the result file), plus the number of decisions hashed.
type decisionHash struct {
	h hash.Hash32
	n int
}

func newDecisionHash() *decisionHash { return &decisionHash{h: fnv.New32a()} }

func (dh *decisionHash) observe(d engine.Decision) {
	io.WriteString(dh.h, d.String())
	io.WriteString(dh.h, "\n")
	dh.n++
}

func (dh *decisionHash) equal(o *decisionHash) bool {
	return dh.n == o.n && dh.h.Sum32() == o.h.Sum32()
}

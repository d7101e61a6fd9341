// Package sched defines the scheduling-policy interface and implements
// the policies evaluated in the paper: the baselines (FIFO, SRTF, SRSF,
// Tiresias/2D-LAS, Themis, AntMan) and Muri itself (Muri-S with SRSF
// priorities, Muri-L with 2D-LAS priorities), plus the ablation variants
// of Figures 11 and 12.
package sched

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"time"

	"muri/internal/core"
	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/workload"
)

// Mode describes how the jobs of a unit share their GPUs.
type Mode int

const (
	// Exclusive units hold their GPUs for a single job.
	Exclusive Mode = iota
	// Interleaved units time-interleave their members' stages with
	// synchronization barriers (Muri groups).
	Interleaved
	// SpaceShared units co-locate members on the same GPUs without stage
	// coordination (AntMan-style sharing): members contend whenever their
	// resource usage overlaps.
	SpaceShared
)

// String returns the lowercase mode name.
func (m Mode) String() string {
	switch m {
	case Exclusive:
		return "exclusive"
	case Interleaved:
		return "interleaved"
	case SpaceShared:
		return "space-shared"
	default:
		return "mode(?)"
	}
}

// Unit is one schedulable entity: a set of jobs that share one GPU
// allocation of size GPUs. Exclusive units have exactly one member.
type Unit struct {
	// Jobs lists the members; for Interleaved units they are in plan
	// (stage-offset) order.
	Jobs []*job.Job
	// GPUs is the allocation size every member requires.
	GPUs int
	// Mode is the sharing discipline.
	Mode Mode
	// Plan is the interleaving plan (Interleaved mode only).
	Plan interleave.Plan
}

// Policy decides which units run. The simulator invokes Plan at every
// scheduling interval; for preemptive policies jobs contains every
// unfinished job (running ones included), for non-preemptive policies it
// contains only jobs not currently placed.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Preemptive reports whether the policy reconsiders running jobs.
	Preemptive() bool
	// Plan returns candidate units in descending placement priority.
	// capacity is the cluster's total GPU count; policies use it to bound
	// how many queue entries they consider. The result and every Unit.Jobs
	// in it may live in buffers the policy reuses: they are valid until its
	// next Plan, and a caller that keeps a unit longer copies Jobs out.
	Plan(now time.Duration, jobs []*job.Job, capacity int) []Unit
}

// ranker is the one ordering primitive every policy ranks through:
// ascending key, ties broken by submission time then ID. entryCmp is a
// strict total order, so the sorted permutation is unique and any exact
// algorithm returns it; this one starts from the order it returned last
// round. Every job carries its index in that order (job.Sched.Rank), so
// a round costs O(n + f log f) with f the arrivals plus the jobs that
// changed place, instead of a sort of all n from an arbitrary order. The
// zero ranker has no history and is a plain full sort. Not safe for
// concurrent use; a policy that keeps one belongs to one engine.
type ranker struct {
	// prev is the order returned last round, only read while this round's
	// is written into spare, the order returned the round before; then the
	// two trade places. keys[i] is the key prev[i] ranked with.
	prev, spare []*job.Job
	keys        []float64
	// slots[i] is this round's entry for prev[i]; fresh collects the
	// entries without a valid hint or found out of place. Both hold no job
	// between rounds.
	slots, fresh []muriEntry
}

// resized returns buf with length n for the caller to overwrite, growing
// it amortized. What a shrinking buffer cuts off is zeroed, so it pins
// nothing and a later regrowth within capacity finds zeros.
func resized[T any](buf []T, n int) []T {
	if n <= len(buf) {
		clear(buf[n:])
		return buf[:n]
	}
	return slices.Grow(buf[:0], n)[:n]
}

// sortJobs ranks jobs with no history and leaves none: the full sort. It
// writes nothing to the jobs, so the stateless policies that rank through
// it stay safe to call from several goroutines over the same jobs.
func sortJobs(jobs []*job.Job, key func(*job.Job) float64) []*job.Job {
	var r ranker
	return r.rankBy(jobs, key, entryCmp, false)
}

// rank returns jobs in entryCmp order in a buffer the ranker owns, valid
// until the next rank: whoever keeps a unit past that copies its window
// out (the engine does, at placement). The key is evaluated once per job.
func (r *ranker) rank(jobs []*job.Job, key func(*job.Job) float64) []*job.Job {
	return r.rankBy(jobs, key, entryCmp, true)
}

// rankBy is rank with the comparator as a parameter, so a test can count
// comparisons (order must be entryCmp), and with the choice to remember:
// a ranker that will not be asked again records neither the order nor the
// jobs' ranks in it, and its result is the caller's to keep.
func (r *ranker) rankBy(jobs []*job.Job, key func(*job.Job) float64, order func(a, b muriEntry) int, remember bool) []*job.Job {
	prev, was := r.prev, r.keys
	r.slots = resized(r.slots, len(prev))
	slots, fresh := r.slots, r.fresh[:0]
	// Scatter each job into the slot it held last round. The hint is
	// validated by identity, not trusted: another policy instance may have
	// ranked the job since, it may have been outside last round's queue,
	// and a job passed twice finds its slot taken.
	for _, j := range jobs {
		e := muriEntry{j: j, key: key(j)}
		if i := int(j.Sched.Rank); i < len(prev) && prev[i] == j && slots[i].j == nil {
			slots[i] = e
		} else {
			fresh = append(fresh, e)
		}
	}
	// Sweep the slots once, compacting the non-decreasing run to the front
	// (with the keys it had) and moving whatever breaks it to fresh. Of a
	// descending pair the entry whose key changed is the one out of place:
	// entries with unchanged keys are still in last round's order among
	// themselves. So a kept entry that moved gives way to a newcomer that
	// did not (a key that rose, 2D-LAS), and otherwise the newcomer goes (a
	// key that fell, SRTF) — each moved job costs one fresh entry, and the
	// comparisons, not the keys' history, are what make the run sorted.
	w := 0
sweep:
	for i, e := range slots {
		if e.j == nil {
			continue
		}
		for w > 0 && order(slots[w-1], e) > 0 {
			if e.key != was[i] || slots[w-1].key == was[w-1] {
				fresh = append(fresh, e)
				continue sweep
			}
			w--
			fresh = append(fresh, slots[w])
		}
		slots[w], was[w] = e, was[i]
		w++
	}
	run := slots[:w]
	slices.SortFunc(fresh, order)
	ordered := resized(r.spare, len(jobs))
	if remember {
		r.keys = resized(r.keys, len(jobs))
	}
	i, k := 0, 0
	for n := range ordered {
		var e muriEntry
		if k == len(fresh) || (i < len(run) && order(run[i], fresh[k]) <= 0) {
			e, i = run[i], i+1
		} else {
			e, k = fresh[k], k+1
		}
		ordered[n] = e.j
		if remember {
			r.keys[n], e.j.Sched.Rank = e.key, uint32(n)
		}
	}
	clear(slots)
	clear(fresh)
	r.fresh = fresh
	if remember {
		r.prev, r.spare = ordered, prev
	}
	return ordered
}

// exclusiveUnits wraps each job in its own unit, preserving order, in a
// fresh slice.
func exclusiveUnits(jobs []*job.Job) []Unit {
	units := make([]Unit, len(jobs))
	fillExclusive(units, jobs)
	return units
}

// fillExclusive sets units[i] to job i's own unit. A unit's Jobs is a
// one-element window of jobs with its capacity clipped to one: no per-job
// allocation, and an append to one unit's Jobs reallocates instead of
// overwriting its neighbour. The windows live as long as jobs does.
func fillExclusive(units []Unit, jobs []*job.Job) {
	for i, j := range jobs {
		units[i] = Unit{Jobs: jobs[i : i+1 : i+1], GPUs: j.GPUs, Mode: Exclusive}
	}
}

// priorityPolicy is a generic exclusive-allocation policy ordered by a
// priority key (lower runs first).
type priorityPolicy struct {
	name       string
	preemptive bool
	key        func(now time.Duration, j *job.Job) float64
	order      ranker
	// units is the buffer Plan builds its result in.
	units []Unit
}

func (p *priorityPolicy) Name() string     { return p.name }
func (p *priorityPolicy) Preemptive() bool { return p.preemptive }

// PriorityKey exposes the comparator key that orders job j (lower runs
// first) — the engine's provenance layer uses it to explain why a job
// ranked behind its blockers.
func (p *priorityPolicy) PriorityKey(now time.Duration, j *job.Job) float64 {
	return p.key(now, j)
}

func (p *priorityPolicy) Plan(now time.Duration, jobs []*job.Job, capacity int) []Unit {
	ordered := p.order.rank(jobs, func(j *job.Job) float64 { return p.key(now, j) })
	p.units = resized(p.units, len(ordered))
	fillExclusive(p.units, ordered)
	return p.units
}

// FIFO schedules jobs exclusively in arrival order without preemption.
func FIFO() Policy {
	return &priorityPolicy{name: "fifo", preemptive: false,
		key: func(_ time.Duration, j *job.Job) float64 { return j.Submit.Seconds() }}
}

// SRTF is Shortest Remaining Time First: preemptive, exclusive, ordered
// by remaining run time (GPU count ignored).
func SRTF() Policy {
	return &priorityPolicy{name: "srtf", preemptive: true,
		key: func(_ time.Duration, j *job.Job) float64 { return j.RemainingTime().Seconds() }}
}

// SRSF is Shortest Remaining Service First (Tiresias's duration-aware
// metric): preemptive, exclusive, ordered by remaining time × GPUs.
func SRSF() Policy {
	return &priorityPolicy{name: "srsf", preemptive: true,
		key: func(_ time.Duration, j *job.Job) float64 { return j.SRSF() }}
}

// Tiresias is the 2D-LAS configuration of Tiresias: preemptive,
// exclusive, ordered by attained service × GPUs, so new jobs run first.
func Tiresias() Policy {
	return &priorityPolicy{name: "tiresias", preemptive: true,
		key: func(_ time.Duration, j *job.Job) float64 { return j.LAS2D() }}
}

// Themis approximates Themis's finish-time fairness: preemptive,
// exclusive, ordered by descending ρ = (waiting + attained + remaining) /
// ideal total — jobs that have been treated most unfairly run first. This
// captures the ordering property the paper's comparison relies on; the
// full auction protocol is out of scope (see DESIGN.md §1).
func Themis() Policy {
	return &priorityPolicy{name: "themis", preemptive: true,
		key: func(now time.Duration, j *job.Job) float64 {
			total := j.TotalTime().Seconds()
			if total <= 0 {
				return 0
			}
			age := (now - j.Submit).Seconds()
			if age < 0 {
				age = 0
			}
			rho := (age + j.RemainingTime().Seconds()) / total
			return -rho
		}}
}

// AntMan models AntMan's opportunistic GPU sharing: non-preemptive FIFO
// order, with up to ShareDegree jobs of equal GPU requirement co-located
// on one allocation. Sharing is spatial (no stage coordination), so
// co-located jobs slow each other down in proportion to how much their
// resource usage overlaps.
type AntMan struct {
	// ShareDegree is the maximum number of jobs per GPU allocation
	// (AntMan packs one resource-guaranteed job plus opportunistic ones;
	// 2 is the common case).
	ShareDegree int
}

// Name implements Policy.
func (a AntMan) Name() string { return "antman" }

// Preemptive implements Policy: AntMan is non-preemptive (§6.3).
func (a AntMan) Preemptive() bool { return false }

// Plan implements Policy: FIFO order, pairing adjacent jobs with the same
// GPU requirement.
func (a AntMan) Plan(now time.Duration, jobs []*job.Job, capacity int) []Unit {
	degree := a.ShareDegree
	if degree < 1 {
		degree = 2
	}
	ordered := sortJobs(jobs, func(j *job.Job) float64 { return j.Submit.Seconds() })
	var units []Unit
	pendingByGPU := make(map[int][]*job.Job)
	flush := func(g int) {
		batch := pendingByGPU[g]
		if len(batch) == 0 {
			return
		}
		mode := SpaceShared
		if len(batch) == 1 {
			mode = Exclusive
		}
		units = append(units, Unit{Jobs: batch, GPUs: g, Mode: mode})
		pendingByGPU[g] = nil
	}
	for _, j := range ordered {
		pendingByGPU[j.GPUs] = append(pendingByGPU[j.GPUs], j)
		if len(pendingByGPU[j.GPUs]) == degree {
			flush(j.GPUs)
		}
	}
	// Flush leftovers in deterministic order.
	var gs []int
	for g, batch := range pendingByGPU {
		if len(batch) > 0 {
			gs = append(gs, g)
		}
	}
	slices.Sort(gs)
	for _, g := range gs {
		flush(g)
	}
	// Restore global FIFO order across units (earliest member first).
	slices.SortStableFunc(units, func(a, b Unit) int {
		return cmp.Compare(a.Jobs[0].Submit, b.Jobs[0].Submit)
	})
	return units
}

// SpaceSharedSlowdown returns the multiplicative slowdown each member of a
// space-shared unit experiences: 1 + the pairwise overlap of resource-time
// fractions with every co-located job. Two jobs with identical profiles
// overlap fully (≈2× slowdown, the paper's §2.1 example); complementary
// jobs overlap little.
func SpaceSharedSlowdown(member workload.StageTimes, others []workload.StageTimes) float64 {
	mf := member.Fractions()
	slow := 1.0
	for _, o := range others {
		of := o.Fractions()
		overlap := 0.0
		for r := 0; r < workload.NumResources; r++ {
			if mf[r] < of[r] {
				overlap += mf[r]
			} else {
				overlap += of[r]
			}
		}
		slow += overlap
	}
	return slow
}

// Muri is the paper's scheduler: priority ordering (SRSF or 2D-LAS)
// combined with the multi-round Blossom grouping of Algorithm 1.
type Muri struct {
	// Grouping configures Algorithm 1 (group size cap, Blossom on/off,
	// ordering ablation, contention model).
	Grouping core.Config
	// KnownDurations selects the priority function: true = SRSF (Muri-S),
	// false = 2D-LAS (Muri-L).
	KnownDurations bool
	// Label overrides the reported name (used by ablation variants).
	Label string

	// quantize rounds priority keys and (for Muri-L) the
	// remaining-iteration estimates down to powers of two,
	// Tiresias-style (NewMuriLScale). Quantized estimates only move when a
	// job crosses a power-of-two service boundary, so between queue events
	// the grouping inputs — and therefore the planner memo's keys — hold
	// still instead of drifting every round.
	quantize bool

	// order ranks the queue, starting from last round's order.
	order ranker
	// ranked and units are the buffers Plan ranks its groups and builds its
	// result in.
	ranked []rankedGroup
	units  []Unit
}

// PlanStats snapshots the grouping planner's counters (zero without a
// core.PlanState, which only NewMuriLScale attaches).
func (m *Muri) PlanStats() metrics.ShardStats {
	return m.Grouping.Planner.Stats()
}

// NewMuriS returns Muri with SRSF priorities (known durations). Known
// durations also enable the JCT merge gate: groups form only when the
// merge lowers the members' summed completion time versus sequential
// execution.
func NewMuriS() *Muri {
	return &Muri{Grouping: core.DefaultConfig(), KnownDurations: true}
}

// NewMuriL returns Muri with 2D-LAS priorities (unknown durations). The
// JCT merge gate runs on the least-attained-service estimate of remaining
// work: with heavy-tailed DL job durations, a job that has attained a lot
// of service is expected to need about as much again, while a fresh job
// is expected to be short.
func NewMuriL() *Muri {
	cfg := core.DefaultConfig()
	m := &Muri{KnownDurations: false}
	cfg.RemainingIters = func(j *job.Job) int64 {
		// Floor at ten minutes of iterations so brand-new jobs are not
		// treated as instantaneous.
		floor := int64(1)
		if it := j.Profile.Total(); it > 0 {
			floor = int64(10 * time.Minute / it)
			if floor < 1 {
				floor = 1
			}
		}
		est := j.DoneIterations
		if est < floor {
			est = floor
		}
		if m.quantize {
			est = quantPow2Int(est)
		}
		return est
	}
	m.Grouping = cfg
	return m
}

// NewMuriLScale returns the Muri-L configuration tuned for very large
// fleets: quantized Tiresias-style estimates, a core.PlanState whose memo
// serves unchanged shards across rounds, and bucket sharding (shards ≤ 1
// keeps whole-bucket matching). Scheduling behavior differs from plain
// Muri-L only through the quantized estimates and — at shards > 1 — the
// sharded matching; both are deterministic, and a memo hit is
// bit-identical to matching afresh under the same configuration.
func NewMuriLScale(shards int) *Muri {
	m := NewMuriL()
	m.quantize = true
	m.Grouping.Shards = shards
	m.Grouping.Planner = core.NewPlanState()
	m.Label = "muri-l-scale"
	return m
}

// quantPow2Int rounds a positive count down to a power of two (the
// Tiresias discretization: values move only at doubling boundaries).
func quantPow2Int(v int64) int64 {
	if v <= 1 {
		return 1
	}
	return int64(1) << (63 - bits.LeadingZeros64(uint64(v)))
}

// quantPow2 rounds a positive priority key down to a power of two by
// clearing the float's mantissa — a pure bit operation, deterministic on
// every platform.
func quantPow2(x float64) float64 {
	if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	b := math.Float64bits(x)
	b &^= 1<<52 - 1
	return math.Float64frombits(b)
}

// Name implements Policy.
func (m *Muri) Name() string {
	if m.Label != "" {
		return m.Label
	}
	if m.KnownDurations {
		return "muri-s"
	}
	return "muri-l"
}

// Preemptive implements Policy.
func (m *Muri) Preemptive() bool { return true }

// PriorityKey exposes the comparator key orderJobs ranks job j with
// (SRSF for Muri-S, 2D-LAS for Muri-L, quantized when the run
// quantizes estimates), so ranked-behind provenance can cite the exact
// values that ordered the queue.
func (m *Muri) PriorityKey(_ time.Duration, j *job.Job) float64 {
	var key float64
	if m.KnownDurations {
		key = j.SRSF()
	} else {
		key = j.LAS2D()
	}
	if m.quantize {
		key = quantPow2(key)
	}
	return key
}

// Plan implements Policy: sort by priority, take candidates to fill the
// cluster MaxGroupSize times over, group with Algorithm 1, and order
// groups by their best member's priority.
func (m *Muri) Plan(now time.Duration, jobs []*job.Job, capacity int) []Unit {
	maxGroup := m.Grouping.MaxGroupSize
	if maxGroup <= 0 {
		maxGroup = interleave.MaxGroupSize
	}
	// Algorithm 1 line 3: jobs are taken in priority order until their
	// summed GPU demand reaches k × capacity — "these n jobs can be fully
	// grouped and they can fully utilize the cluster".
	budget := maxGroup * capacity
	ordered := m.orderJobs(jobs)
	cut := len(ordered)
	taken := 0
	for i, j := range ordered {
		if taken >= budget {
			cut = i
			break
		}
		taken += j.GPUs
	}
	// Capacity-aware Algorithm 1: merges happen only while the candidate
	// demand exceeds the cluster, so a lightly loaded cluster degrades to
	// pure SRSF/2D-LAS with exclusive GPUs.
	groups := m.Grouping.Plan(ordered[:cut], capacity)
	// Rank groups by their most urgent member, so capacity goes to the
	// highest-priority work first. ordered is sorted by entryCmp, a total
	// order, so a group's most urgent member is the one at the lowest
	// position in ordered — which orderJobs just wrote on every job — and
	// ranking the groups is sorting those positions.
	m.ranked = resized(m.ranked, len(groups))
	ranked := m.ranked
	for i, g := range groups {
		pos := g.Jobs[0].Sched.Rank
		for _, j := range g.Jobs[1:] {
			pos = min(pos, j.Sched.Rank)
		}
		ranked[i] = rankedGroup{pos: pos, group: int32(i)}
	}
	slices.SortFunc(ranked, func(a, b rankedGroup) int { return cmp.Compare(a.pos, b.pos) })
	// Jobs beyond the grouping budget still back-fill exclusively: when a
	// high-priority multi-GPU unit cannot be placed, the spare capacity
	// must not idle while the queue has work.
	backfill := ordered[cut:]
	m.units = resized(m.units, len(groups)+len(backfill))
	for i, r := range ranked {
		g := groups[r.group]
		mode := Interleaved
		if len(g.Jobs) == 1 {
			mode = Exclusive
		}
		m.units[i] = Unit{Jobs: g.Jobs, GPUs: g.GPUs, Mode: mode, Plan: g.Plan}
	}
	fillExclusive(m.units[len(groups):], backfill)
	return m.units
}

// muriEntry pairs a job with its precomputed priority key so the sort
// never re-evaluates keys inside the comparator.
type muriEntry struct {
	j   *job.Job
	key float64
}

// rankedGroup is a planned group's sort key: the position in the ranked
// queue of its most urgent member, and the group's index in the plan.
type rankedGroup struct {
	pos   uint32
	group int32
}

// entryCmp is the total priority order: key, then submission time, then
// ID. NaN keys rank after every number and equal to each other (a
// comparator that returns "not less" both ways for NaN is not a strict
// weak order, and an unstable sort may then misplace unrelated jobs). IDs
// are unique, so the order has no ties and any comparison sort yields the
// same permutation as a stable one.
func entryCmp(a, b muriEntry) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	case a.key != b.key: // at least one NaN
		if aNaN, bNaN := a.key != a.key, b.key != b.key; aNaN != bNaN {
			if aNaN {
				return 1
			}
			return -1
		}
	}
	if c := cmp.Compare(a.j.Submit, b.j.Submit); c != 0 {
		return c
	}
	return cmp.Compare(a.j.ID, b.j.ID)
}

// orderJobs returns jobs in priority order.
func (m *Muri) orderJobs(jobs []*job.Job) []*job.Job {
	return m.order.rank(jobs, func(j *job.Job) float64 { return m.PriorityKey(0, j) })
}

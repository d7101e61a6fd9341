// Package engine is the shared scheduling decision core behind both the
// trace-driven simulator (internal/sim) and the live daemon
// (internal/server). The paper validates Muri by running the same
// policies through a testbed prototype and a simulator with <3%
// divergence (§6); this package makes that structural: one queue and
// lifecycle state machine, one unit canonicalization, one admission
// sweep with anti-starvation, one preemption reconciliation, and one
// fault/retry/backoff path. The drivers stay thin — the simulator feeds
// virtual-clock events, the daemon feeds wall-clock/network events, and
// both consume the engine's decision stream (launch, kill, requeue,
// deadletter) instead of deciding inline. A parity harness replays one
// scripted event sequence through both drivers and asserts the streams
// are byte-identical.
package engine

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/telemetry"
	"muri/internal/workload"
)

// Style selects how a preemptive round reconciles the running set.
// Non-preemptive rounds behave identically under both styles: running
// units are untouchable and only new units are admitted into free
// capacity.
type Style int

const (
	// ReplaceAll releases every allocation and re-places the full
	// admitted set each round (the simulator: placement is cheap and
	// bit-exact virtual state carries across). Units re-placed under an
	// unchanged key are continuations, not restarts.
	ReplaceAll Style = iota
	// Differential keeps running units whose key is re-admitted, kills
	// the rest to reclaim capacity, and places only the new keys (the
	// daemon: a launch is a real RPC, so same-key units must keep their
	// processes).
	Differential
)

// Config parameterizes an engine.
type Config struct {
	// Policy decides grouping and ordering. Required.
	Policy sched.Policy
	// Style is the preemption reconciliation style.
	Style Style
	// StarvationPatience is how many scheduling rounds a unit may be
	// bypassed (skipped for capacity while a lower-priority unit was
	// admitted) before it is boosted to the front of the admission order.
	// Zero uses the default of 5 rounds.
	StarvationPatience int
	// Retry governs fault requeue backoff and the dead-letter budget.
	// The zero value dead-letters on the first fault with no backoff;
	// drivers set it explicitly (Budget -1 for unlimited retries).
	Retry RetryPolicy
	// Observer, when non-nil, receives every decision as it is issued.
	Observer func(Decision)
	// Tracer, when non-nil, records scheduler-round and decision events
	// into the shared telemetry tracer. Both drivers instrument the
	// engine once here instead of each shadowing the decision stream.
	// Nil (the default) records nothing and perturbs nothing.
	Tracer *telemetry.Tracer
	// Now supplies the driver's clock for trace timestamps (virtual time
	// for the simulator, virtualized wall time for the daemon). Only
	// consulted while Tracer is non-nil, and required then.
	Now func() time.Duration
	// Estimator, when non-nil, replaces the oracle-profile assumption
	// with beliefs, for both drivers: Reconcile rewrites every
	// candidate's Profile from its belief before the policy plans (a
	// model with no belief yet keeps its profile), and every completion a
	// driver reports through Complete feeds it. Nil (the default)
	// keeps both paths inert and every fixed-seed run bit-identical.
	Estimator profile.Estimator
	// Provenance, when non-nil, receives structured cause annotations
	// from each decision site: wait-cause transitions for jobs left
	// unplaced (capacity vs. ranked-behind, with comparator keys and
	// blocker identities) and starvation-boost notes. Decisions also gain
	// a Cause annotation (grouping efficiency, preemptor identity,
	// retry-budget state). Nil — the default — emits nothing, computes
	// nothing, and keeps every fixed-seed stream bit-identical.
	Provenance func(CauseEvent)
}

// Wait causes the engine itself classifies. The explain layer unions
// these with the driver-level causes (ingest-queue, fault-backoff,
// adoption-freeze, service) into the full attribution taxonomy.
const (
	// CauseCapacity: the job's unit fits no free capacity — the cluster
	// is too small, has no executors, or is fragmented.
	CauseCapacity = "capacity"
	// CauseRankedBehind: capacity exists but higher-priority work
	// consumed it first this round.
	CauseRankedBehind = "ranked-behind"
	// CauseStarvationBoost annotates the round a bypassed unit jumped
	// the admission order (a note, not a span transition).
	CauseStarvationBoost = "starvation-boost"
)

// CauseEvent is one provenance annotation from a decision site. Note
// events annotate a job's timeline without opening a new wait span.
type CauseEvent struct {
	Job    job.ID
	Cause  string
	Detail string
	Note   bool
}

// PriorityKeyer is implemented by policies that can expose the
// comparator key ranking a job (sched's priority policies and Muri);
// the engine uses it to put concrete key values into ranked-behind
// provenance details. Policies without it still get blocker identities.
type PriorityKeyer interface {
	PriorityKey(now time.Duration, j *job.Job) float64
}

// CompletionObserver is implemented by policies that learn from
// completions (sched.Gittins's private service log): Complete hands it
// each finished job's 2D service demand, before the estimator sees it.
type CompletionObserver interface {
	Observe(service time.Duration)
}

// DecisionSink is a decision-feedback hook that no policy implements and
// the engine never calls. It is declared only because bench/policy.go's
// Plan-timing wrapper still forwards it; ROADMAP item 6's benchmark
// change deletes the forwarder and this declaration together.
type DecisionSink interface {
	NoteDecisions(n int)
}

// PlanStatsProvider is implemented by policies that expose incremental/
// sharded grouping counters (sched.Muri); the engine uses it to emit
// per-shard trace rows alongside the round instants.
type PlanStatsProvider interface {
	PlanStats() metrics.ShardStats
}

// Engine owns the scheduling decision path. It is not safe for
// concurrent use; the daemon drives it under its own mutex and the
// simulator is single-threaded.
type Engine struct {
	cfg Config
	// prevKeys is the placement memory: each running job's unit key, as
	// its last launch left it (snapshot.go holds every write). No round
	// classifies by it: whether a unit continues is whether its key is
	// running as the round begins. The daemon's recovery reads it, and
	// unitKey reuses its strings.
	prevKeys map[job.ID]string
	// bypassed counts consecutive rounds a job's unit was skipped for
	// capacity while a lower-priority unit was admitted.
	bypassed map[job.ID]int
	// jobs are the jobs whose lifecycle (job.State, job.Faults) the
	// engine drives: both drivers track every job they admit.
	jobs  map[job.ID]*job.Job
	stats metrics.EngineStats
	seq   uint64
	// round is Reconcile's working memory, reused across rounds so a
	// steady-state round allocates only the members its placements hand
	// out.
	round roundScratch
	// lastWaitCause gates provenance emission to cause transitions: one
	// record when a waiting job's classification changes, not one per
	// round. Entries clear when the job places, requeues, faults, or
	// completes. Only populated while cfg.Provenance is set.
	lastWaitCause map[job.ID]string
	// keyer is cfg.Policy as a PriorityKeyer, resolved once (nil when the
	// policy does not expose comparator keys).
	keyer PriorityKeyer
	// completions is cfg.Policy as a CompletionObserver, resolved once
	// (nil when the policy does not learn from completions).
	completions CompletionObserver
}

// reprofileThreshold is the relative deviation between a completion's
// measured iteration total and the estimator's belief beyond which the
// belief is discarded and re-seeded from the measurement (the
// engine-level re-profiling trigger).
const reprofileThreshold = 0.25

// New creates an engine. It panics without a policy, or given a Tracer
// without a Now.
func New(cfg Config) *Engine {
	if cfg.Policy == nil {
		panic("engine: config needs a policy")
	}
	if cfg.Tracer != nil && cfg.Now == nil {
		panic("engine: a tracer needs a clock")
	}
	if cfg.StarvationPatience <= 0 {
		cfg.StarvationPatience = 5
	}
	keyer, _ := cfg.Policy.(PriorityKeyer)
	completions, _ := cfg.Policy.(CompletionObserver)
	return &Engine{
		cfg:           cfg,
		prevKeys:      make(map[job.ID]string),
		bypassed:      make(map[job.ID]int),
		jobs:          make(map[job.ID]*job.Job),
		keyer:         keyer,
		completions:   completions,
		lastWaitCause: make(map[job.ID]string),
		round: roundScratch{
			currentKeys: make(map[string]any),
			keySet:      make(map[string]bool),
		},
	}
}

// admittedUnit is one unit that passed the admission walk, with its
// canonical key computed once for the whole round.
type admittedUnit struct {
	key  string
	spec sched.Unit
}

// stamps hands every round a process-unique mark value. One source for
// all engines: two engines may alternate rounds over the same jobs (a
// test's reference engine beside the one under test), and a per-engine
// counter would let each read the other's marks as its own.
var stamps atomic.Uint64

// roundScratch is one Reconcile round's working memory, reused by the
// next. The returned placements live here and are valid until the next
// Reconcile; a placed unit's Jobs, allocated per round, are the driver's
// to keep.
//
// The round's per-job sets live on the jobs themselves (job.Sched), each
// set while its field equals stamp: Placed — the job holds resources
// after this round; Claimed — admitted this round or untouchably running;
// Bumped — its bypass count already rose this round. The wait-cause walk
// dedups on Seen under a stamp of its own.
type roundScratch struct {
	stamp uint64
	// currentKeys maps each key running as the round begins to its
	// Current.Handle; keySet holds the admitted (Differential) or placed
	// (ReplaceAll) keys of the kill diff.
	currentKeys map[string]any
	keySet      map[string]bool
	admitted    []admittedUnit
	skipped     []sched.Unit
	// boostedAt are the planner positions, ascending, of the units a
	// starvation-boosted round admits first.
	boostedAt []int
	// candidates are the offered jobs the candidate rule kept.
	candidates []*job.Job
	// placements are what Reconcile returns; kept and killed are the
	// current units the round left running and preempted (Differential's
	// kept only: a non-preemptive round keeps Input.Current whole, and
	// ReplaceAll keeps nothing).
	placements []Placement
	kept       []Current
	killed     []Current
}

func (r *roundScratch) reset() {
	r.stamp = stamps.Add(1)
	clear(r.currentKeys)
	clear(r.keySet)
	// Dropped jobs and specs would otherwise pin last round's job slices.
	clear(r.candidates)
	clear(r.admitted)
	clear(r.skipped)
	clear(r.placements)
	clear(r.kept)
	clear(r.killed)
	r.candidates, r.admitted, r.skipped, r.boostedAt = r.candidates[:0], r.admitted[:0], r.skipped[:0], r.boostedAt[:0]
	r.placements, r.kept, r.killed = r.placements[:0], r.kept[:0], r.killed[:0]
}

// emitCause publishes one provenance annotation (no-op without a hook).
func (e *Engine) emitCause(ev CauseEvent) {
	if e.cfg.Provenance != nil {
		e.cfg.Provenance(ev)
	}
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() metrics.EngineStats { return e.stats }

// reseeder is the optional estimator re-profiling hook (profile.Online
// implements it); estimators without it just observe the completion.
type reseeder interface {
	Reseed(model string, measured workload.StageTimes, service time.Duration)
}

// feedEstimator folds one completed job into the configured estimator:
// its measured per-iteration stage durations (the true profile) and its
// total 2D service demand. When the measurement deviates from the current
// belief beyond reprofileThreshold, the belief is discarded and re-seeded
// from the measurement (the re-profiling trigger); otherwise the
// measurement folds into the running estimate. Complete calls it for both
// drivers — the simulator at virtual completions, the daemon at real ones
// and during WAL replay — so learned state reconstructs identically on
// recovery. A nil estimator makes the call a no-op.
func (e *Engine) feedEstimator(j *job.Job, service time.Duration) {
	est := e.cfg.Estimator
	if est == nil {
		return
	}
	measured := j.TrueProfile
	if b, ok := est.EstimateFor(j); ok && b.Samples > 0 {
		bt, mt := b.Stages.Total().Seconds(), measured.Total().Seconds()
		if mt > 0 && bt > 0 && math.Abs(bt-mt)/mt > reprofileThreshold {
			if r, ok := est.(reseeder); ok {
				r.Reseed(j.Model.Name, measured, service)
				e.stats.Reprofiles++
				return
			}
		}
	}
	est.ObserveCompletion(j.Model.Name, measured, service)
}

// emit stamps, applies and publishes one decision: the engine's state
// changes by exactly what replaying the decision changes (apply), before
// the observer sees it.
func (e *Engine) emit(d Decision) Decision {
	e.seq++
	d.Seq = e.seq
	e.apply(d)
	if e.cfg.Observer != nil {
		e.cfg.Observer(d)
	}
	e.traceDecision(d)
	return d
}

// traceDecision records one decision as an instant event on the
// scheduler's per-action decision rows.
func (e *Engine) traceDecision(d Decision) {
	tr := e.cfg.Tracer
	if tr == nil {
		return
	}
	pid := tr.Process("scheduler")
	tid := tr.Thread(pid, string(d.Action))
	args := map[string]any{"seq": d.Seq}
	if d.Key != "" {
		args["key"] = d.Key
	}
	if len(d.Jobs) > 0 {
		ids := make([]int64, len(d.Jobs))
		for i, id := range d.Jobs {
			ids[i] = int64(id)
		}
		args["jobs"] = ids
	}
	if d.Reason != "" {
		args["reason"] = string(d.Reason)
	}
	tr.Instant(pid, tid, d.String(), "decision", e.cfg.Now(), args)
}

// traceRound records one Reconcile round as an instant event carrying
// the round's headline numbers (planned counts the policy's units).
func (e *Engine) traceRound(in Input, planned int, kept []Current) {
	tr := e.cfg.Tracer
	if tr == nil {
		return
	}
	pid := tr.Process("scheduler")
	tid := tr.Thread(pid, "rounds")
	tr.Instant(pid, tid, "round "+strconv.Itoa(e.stats.Rounds), "round", in.Now, map[string]any{
		"candidates": len(in.Candidates),
		"capacity":   in.Capacity,
		"planned":    planned,
		"placed":     len(e.round.placements),
		"kept":       len(kept),
		"killed":     len(e.round.killed),
		"queue":      e.stats.QueueDepth,
	})
	e.traceShards(pid, in.Now)
}

// traceShards renders the policy's incremental/sharded grouping counters
// as one summary row with the sweep-reuse breakdown.
func (e *Engine) traceShards(pid int, now time.Duration) {
	prov, ok := e.cfg.Policy.(PlanStatsProvider)
	if !ok {
		return
	}
	tr := e.cfg.Tracer
	st := prov.PlanStats()
	if st.PlanRounds == 0 {
		return
	}
	tid := tr.Thread(pid, "plan")
	tr.Instant(pid, tid, "plan "+strconv.FormatUint(st.PlanRounds, 10), "shard", now, map[string]any{
		"replay":   st.ReplaySweeps,
		"fixpoint": st.FixpointSweeps,
		"fresh":    st.FreshSweeps,
		"reuse":    st.ReuseRatio(),
		"pairHits": st.PairHits,
	})
}

// RequeueWithCause records a job pushed back to the queue through no
// fault of its own (machine crash, evicted executor) as a requeue
// decision: the placement memory is forgotten — so the next admission
// charges a full restart even if the unit reforms identically — but no
// retry budget is spent. The job moves running → pending. The cause,
// a provenance annotation supplied by the driver (e.g. the identity of
// the lost machine), rides the decision only while provenance is enabled.
func (e *Engine) RequeueWithCause(id job.ID, reason Reason, cause string) Decision {
	d := Decision{Action: ActRequeue, Jobs: []job.ID{id}, Reason: reason}
	if e.cfg.Provenance != nil {
		d.Cause = cause
	}
	return e.emit(d)
}

// Preempt records a unit the driver killed outside a round (the daemon's
// injected job fault takes the victim's whole group down) as a kill
// decision for its key.
func (e *Engine) Preempt(key string, ids []job.ID, cause string) Decision {
	d := Decision{Action: ActKill, Key: key, Jobs: ids}
	if e.cfg.Provenance != nil {
		d.Cause = cause
	}
	return e.emit(d)
}

// Input is everything one scheduling round needs from the driver.
type Input struct {
	// Now is the driver's clock (virtual for the simulator, virtualized
	// wall time for the daemon).
	Now time.Duration
	// Candidates are the jobs the driver offers this round. The engine
	// plans over those whose State is pending, plus running ones for
	// preemptive policies, and skips the rest. Jobs the driver holds back
	// (fault backoff) are simply omitted. Their order is the driver's and
	// reaches no decision: policies rank by total orders.
	Candidates []*job.Job
	// Capacity is the total in-service GPU capacity, passed to the
	// policy.
	Capacity int
	// Current lists the units running as the round begins, in the
	// driver's stable order.
	Current []Current
	// Free is the unallocated GPU capacity as the round begins. A
	// preemptive ReplaceAll round re-places everything, so its driver
	// releases every allocation first and reports the freed capacity.
	Free int
	// Place tries to place u, whose Jobs is the unit's own copy: the
	// driver may keep u. The returned handle is opaque to the engine and
	// comes back on the unit's Placement (the simulator's *unit holding
	// the allocation, the daemon's group ID). ok=false means the unit does
	// not fit right now (fragmentation, send failure) and is skipped this
	// round. Required.
	Place func(key string, u sched.Unit) (handle any, ok bool)
	// Kill executes a preemption under the Differential style, freeing
	// the unit's capacity before new placements. Ignored by ReplaceAll
	// (the driver released everything before the round).
	Kill func(Current)
}

// Current describes one unit that is running as a round begins. The
// engine keys it by UnitKey(Spec); Handle is the driver's own identifier
// for the unit and is passed back verbatim on kills.
type Current struct {
	// Spec is the unit's composition as the driver currently sees it.
	Spec sched.Unit
	// Handle identifies the unit to the driver (simulator *unit, daemon
	// group ID). It is never nil: a placement that continues the unit
	// carries it back as Placement.Prev.
	Handle any
	// key is UnitKey(Spec), stamped by Reconcile as the round begins so
	// the round's kept and killed copies carry it.
	key string
}

// Placement is one unit Input.Place accepted this round.
type Placement struct {
	// Key is the unit's canonical key.
	Key string
	// Spec is the placed unit. Its Jobs is the unit's own copy, not a
	// window into the policy's buffers, and the driver may keep it.
	Spec sched.Unit
	// Handle is Input.Place's opaque placement handle.
	Handle any
	// Prev is the Current.Handle of the running unit this placement
	// continues: its key was running as the round began, so the unit keeps
	// running with no decision and no restart. Nil for a launch, which
	// emits a launch decision and restarts every member that had started.
	Prev any
}

// Reconcile runs one scheduling round: pick the candidates and refresh
// their beliefs, invoke the policy, order units with anti-starvation,
// admit into capacity, reconcile preemptions, place, and emit the round's
// decisions (which change the placement memory and the jobs' states):
// kills in current order, then launches in placement order. A placement
// whose key was running as the round began continues (Placement.Prev) and
// emits nothing; any other placement is a launch. The admission and
// placement path is the simulator's historical loop moved here verbatim,
// so fixed-seed simulations stay bit-identical.
//
// It returns the units placed this round, in placement order (descending
// GPUs); the decisions went to Config.Observer as they were issued. Each
// Placement's Spec.Jobs is the driver's to keep; the slice is lent until
// the next Reconcile, and so is each Prev, which the driver must keep
// readable until then (DESIGN.md §8).
func (e *Engine) Reconcile(in Input) []Placement {
	e.stats.Rounds++
	preempt := e.cfg.Policy.Preemptive()
	r := &e.round
	r.reset()
	in.Candidates = e.candidates(in.Candidates, preempt)
	units := e.cfg.Policy.Plan(in.Now, in.Candidates, in.Capacity)
	for i := range in.Current {
		c := &in.Current[i]
		c.key = unitKey(c.Spec, e.prevKeys)
		r.currentKeys[c.key] = c.Handle
	}

	// Capacity budget and already-claimed jobs. Preemptive rounds
	// reconsider everything: under ReplaceAll the driver released all
	// allocations, Differential counts running units as reclaimable.
	// Non-preemptive rounds keep running units and their members off the
	// table.
	stamp := r.stamp
	free := in.Free
	switch {
	case !preempt:
		for _, c := range in.Current {
			for _, j := range c.Spec.Jobs {
				j.Sched.Placed, j.Sched.Claimed = stamp, stamp
			}
		}
	case e.cfg.Style == Differential:
		for _, c := range in.Current {
			free += c.Spec.GPUs
		}
	}

	e.boostStarving(units)

	// Admission: walk in priority order, admitting units that fit in the
	// remaining capacity. Units skipped for capacity while a later unit
	// is admitted accumulate a bypass count. The walk stops once nothing
	// is free, which is exact: every unit needs at least one GPU, and only
	// an admission claims jobs, bumps bypass counts or changes what
	// emitWaitCauses reads (DESIGN.md §8).
	admissionOrder(units, r.boostedAt, func(spec sched.Unit) bool {
		if free <= 0 {
			return false
		}
		if slices.ContainsFunc(spec.Jobs, func(j *job.Job) bool { return j.Sched.Claimed == stamp }) {
			return true
		}
		if spec.GPUs > free {
			r.skipped = append(r.skipped, spec)
			return true
		}
		free -= spec.GPUs
		r.admitted = append(r.admitted, admittedUnit{key: unitKey(spec, e.prevKeys), spec: spec})
		for _, j := range spec.Jobs {
			j.Sched.Claimed = stamp
		}
		for _, sk := range r.skipped {
			for _, j := range sk.Jobs {
				if j.Sched.Bumped != stamp {
					j.Sched.Bumped = stamp
					e.bypassed[j.ID]++
				}
			}
		}
		r.skipped = r.skipped[:0]
		return true
	})

	// Preemption reconciliation. Differential keeps re-admitted keys,
	// kills the rest (through the driver, so capacity frees before
	// placement), and places only the new keys. ReplaceAll re-places the
	// whole admitted set; kills fall out of the key diff afterwards.
	toPlace := r.admitted
	var kept []Current
	if preempt && e.cfg.Style == Differential {
		for _, a := range r.admitted {
			r.keySet[a.key] = true
		}
		for _, c := range in.Current {
			if r.keySet[c.key] {
				r.kept = append(r.kept, c)
				for _, j := range c.Spec.Jobs {
					j.Sched.Placed = stamp
				}
				continue
			}
			r.killed = append(r.killed, c)
			if in.Kill != nil {
				in.Kill(c)
			}
		}
		kept = r.kept
		// An admitted unit whose key is current was just kept.
		toPlace = toPlace[:0]
		for _, a := range r.admitted {
			if _, running := r.currentKeys[a.key]; !running {
				toPlace = append(toPlace, a)
			}
		}
	} else if !preempt {
		kept = in.Current
	}

	// Placement: descending GPU order so large units claim whole machines
	// before small units fragment them (§5). A placed unit outlives the
	// round and the policy's buffers, so ownership starts here: each unit
	// about to be placed gets its own copy of its members, all of them
	// carved from the one array this round allocates for the purpose.
	slices.SortStableFunc(toPlace, func(a, b admittedUnit) int { return cmp.Compare(b.spec.GPUs, a.spec.GPUs) })
	nMembers := 0
	for _, a := range toPlace {
		nMembers += len(a.spec.Jobs)
	}
	owned := make([]*job.Job, nMembers)
	for _, a := range toPlace {
		key, spec := a.key, a.spec
		n := len(spec.Jobs)
		copy(owned[:n], spec.Jobs)
		spec.Jobs, owned = owned[:n:n], owned[n:]
		handle, ok := in.Place(key, spec)
		if !ok {
			continue // fragmentation despite descending order; rare
		}
		for _, j := range spec.Jobs {
			j.Sched.Placed = stamp
		}
		r.placements = append(r.placements, Placement{Key: key, Spec: spec, Handle: handle, Prev: r.currentKeys[key]})
	}

	// ReplaceAll kill diff: current units whose key did not survive into
	// the placed set were preempted.
	if preempt && e.cfg.Style == ReplaceAll {
		for _, p := range r.placements {
			r.keySet[p.Key] = true
		}
		for _, c := range in.Current {
			if !r.keySet[c.key] {
				r.killed = append(r.killed, c)
			}
		}
	}

	// Decision stream: kills first (current order), then launches
	// (placement order). Same-key re-placements are continuations and
	// emit nothing.
	var killCause string
	if e.cfg.Provenance != nil && len(r.killed) > 0 {
		killCause = e.preemptorDetail()
	}
	for _, c := range r.killed {
		e.emit(Decision{Action: ActKill, Key: c.key, Jobs: memberIDs(c.Spec), Cause: killCause})
	}
	for _, p := range r.placements {
		if _, running := r.currentKeys[p.Key]; running {
			continue
		}
		d := Decision{Action: ActLaunch, Key: p.Key, Jobs: memberIDs(p.Spec)}
		if e.cfg.Provenance != nil {
			d.Cause = launchDetail(p.Spec)
		}
		e.emit(d)
	}

	depth := 0
	for _, j := range in.Candidates {
		if j.Sched.Placed != stamp {
			depth++
		}
	}
	e.stats.QueueDepth = depth
	if e.cfg.Provenance != nil {
		e.emitWaitCauses(in, units, kept)
	}
	e.traceRound(in, len(units), kept)
	return r.placements
}

// candidates applies the candidate rule to the offered jobs — pending
// ones, plus running ones when the policy preempts — into the round's
// scratch, and rewrites each kept job's Profile from the estimator's
// belief, so both drivers' policies rank and group on the same beliefs. A
// model with no belief yet (or a zero one) keeps the profile it has; jobs
// the rule skips are not rewritten.
func (e *Engine) candidates(offered []*job.Job, preempt bool) []*job.Job {
	r := &e.round
	est := e.cfg.Estimator
	for _, j := range offered {
		if j.State != job.Pending && (j.State != job.Running || !preempt) {
			continue
		}
		if est != nil {
			if b, ok := est.EstimateFor(j); ok && b.Stages.Total() > 0 {
				j.Profile = b.Stages
			}
		}
		r.candidates = append(r.candidates, j)
	}
	return r.candidates
}

// boostStarving applies anti-starvation to the planner's order: units
// whose members have been bypassed too many rounds jump to the front of
// the admission order (stable within each class), so a large multi-GPU
// unit cannot be blocked forever by a stream of small higher-priority
// units. It records the planner positions of those units in the round's
// boostedAt and moves nothing: when nothing is starving (the common round)
// that is empty and the planner's order is the admission order.
func (e *Engine) boostStarving(units []sched.Unit) {
	starving := func(j *job.Job) bool { return e.bypassed[j.ID] >= e.cfg.StarvationPatience }
	// The ledger is small (only units skipped while capacity remained
	// enter it), so scanning it beats probing it once per planned job.
	overdue := false
	for _, n := range e.bypassed {
		overdue = overdue || n >= e.cfg.StarvationPatience
	}
	if !overdue {
		return
	}
	for i, spec := range units {
		if !slices.ContainsFunc(spec.Jobs, starving) {
			continue
		}
		e.round.boostedAt = append(e.round.boostedAt, i)
		for _, j := range spec.Jobs {
			if e.cfg.Provenance != nil && starving(j) {
				e.emitCause(CauseEvent{Job: j.ID, Cause: CauseStarvationBoost, Note: true,
					Detail: "boosted to the front after " + strconv.Itoa(e.bypassed[j.ID]) + " bypassed rounds"})
			}
		}
	}
}

// admissionOrder visits units in admission order until visit returns
// false: the boosted units (ascending planner positions), then everything
// else in planner order — the stretches between them.
func admissionOrder(units []sched.Unit, boostedAt []int, visit func(sched.Unit) bool) {
	for _, i := range boostedAt {
		if !visit(units[i]) {
			return
		}
	}
	for i, spec := range units {
		if len(boostedAt) > 0 && boostedAt[0] == i {
			boostedAt = boostedAt[1:]
			continue
		}
		if !visit(spec) {
			return
		}
	}
}

// preemptorDetail names the work that displaced this round's kills: the
// members of the round's new launches, capped for readability.
func (e *Engine) preemptorDetail() string {
	var ids []job.ID
	for _, p := range e.round.placements {
		if _, running := e.round.currentKeys[p.Key]; running {
			continue
		}
		ids = append(ids, memberIDs(p.Spec)...)
	}
	if len(ids) == 0 {
		return "capacity reclaimed (no replacement launched)"
	}
	slices.Sort(ids)
	var b strings.Builder
	b.WriteString("preempted by job")
	if len(ids) > 1 {
		b.WriteByte('s')
	}
	b.WriteByte(' ')
	for i, id := range ids {
		if i == 4 {
			b.WriteString(" +" + strconv.Itoa(len(ids)-i) + " more")
			break
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(id), 10))
	}
	return b.String()
}

// launchDetail annotates a launch with its grouping provenance: the
// accepted plan's Eq.-3 interleaving efficiency for interleaved units,
// the sharing degree for space-shared ones.
func launchDetail(spec sched.Unit) string {
	switch spec.Mode {
	case sched.Interleaved:
		return "interleaved x" + strconv.Itoa(len(spec.Jobs)) +
			" eff=" + strconv.FormatFloat(spec.Plan.Efficiency, 'g', 6, 64)
	case sched.SpaceShared:
		return "space-shared x" + strconv.Itoa(len(spec.Jobs))
	default:
		return "exclusive"
	}
}

// emitWaitCauses classifies every candidate left unplaced this round and
// emits a provenance event when its classification changed: capacity
// (cluster too small, empty, or fragmented) versus ranked-behind
// (higher-priority work consumed the capacity first), the latter with
// the comparator key values and blocker identities when the policy
// exposes them. Walk order follows the admission order, so emission is
// deterministic.
func (e *Engine) emitWaitCauses(in Input, units []sched.Unit, kept []Current) {
	blockers := e.blockerDetail(in.Now, kept)
	stamp, seen := e.round.stamp, stamps.Add(1)
	admissionOrder(units, e.round.boostedAt, func(spec sched.Unit) bool {
		for _, j := range spec.Jobs {
			if j.Sched.Placed == stamp || j.Sched.Seen == seen || j.State == job.Done {
				continue
			}
			j.Sched.Seen = seen
			var cause, detail string
			switch {
			case in.Capacity <= 0:
				cause, detail = CauseCapacity, "no capacity registered"
			case spec.GPUs > in.Capacity:
				cause = CauseCapacity
				detail = "needs " + strconv.Itoa(spec.GPUs) + " GPUs, cluster capacity " + strconv.Itoa(in.Capacity)
			case j.Sched.Claimed == stamp:
				cause = CauseCapacity
				detail = "admitted but fragmented: no machine with " + strconv.Itoa(spec.GPUs) + " free GPUs"
			default:
				cause = CauseRankedBehind
				if e.keyer != nil {
					detail = "key=" + strconv.FormatFloat(e.keyer.PriorityKey(in.Now, j), 'g', 6, 64) + " " + blockers
				} else {
					detail = blockers
				}
			}
			if e.lastWaitCause[j.ID] != cause {
				e.lastWaitCause[j.ID] = cause
				e.emitCause(CauseEvent{Job: j.ID, Cause: cause, Detail: detail})
			}
		}
		return true
	})
}

// blockerDetail renders the round's highest-priority placed work (the
// kept units, then the placements: the jobs that consumed the capacity),
// with comparator keys when known.
func (e *Engine) blockerDetail(now time.Duration, kept []Current) string {
	var b strings.Builder
	n := 0
	add := func(spec sched.Unit) {
		for _, j := range spec.Jobs {
			if n >= 3 {
				return
			}
			if n > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(int64(j.ID), 10))
			if e.keyer != nil {
				b.WriteString("(key=" + strconv.FormatFloat(e.keyer.PriorityKey(now, j), 'g', 6, 64) + ")")
			}
			n++
		}
	}
	for _, c := range kept {
		add(c.Spec)
	}
	for _, p := range e.round.placements {
		add(p.Spec)
	}
	if n == 0 {
		return "behind higher-priority work"
	}
	return "behind jobs " + b.String()
}

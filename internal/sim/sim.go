// Package sim is the trace-driven cluster simulator (paper §6.1). It
// replays a job trace against a scheduling policy on a modeled GPU
// cluster, advancing virtual time between fixed scheduling intervals (the
// paper uses six minutes) and tracking job progress, preemption/restart
// overhead, and the detailed metrics of Figure 8.
//
// The paper validates this style of simulator against its 64-GPU testbed
// with <3% metric error; this reproduction uses the simulator for both
// the "testbed" tables (4, 5) and the large-trace figures (9–14).
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"muri/internal/cluster"
	"muri/internal/engine"
	"muri/internal/faults"
	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/profile"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/telemetry"
	"muri/internal/trace"
	"muri/internal/wal"
	"muri/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	// Machines and GPUsPerMachine define the cluster (default 8×8, the
	// paper's testbed).
	Machines, GPUsPerMachine int
	// Interval is the scheduling interval (default 6 minutes, §5).
	Interval time.Duration
	// RestartOverhead is the virtual time a unit loses when one of its
	// members restarts (resumes after preemption or joins a changed unit:
	// checkpoint reload). A first start pays nothing, and a unit that
	// continues into the next round keeps waiting out overhead it was
	// already charged.
	RestartOverhead time.Duration
	// Interleave is the contention model used to execute shared units.
	Interleave interleave.Config
	// Profiler supplies (possibly noisy) profiles; nil means exact.
	Profiler *profile.Profiler
	// Estimator, when non-nil, replaces the oracle-profile assumption:
	// scheduler-visible profiles are refreshed from the estimator's
	// current beliefs before every round, and completions feed back into
	// it through the engine (which re-profiles past its deviation
	// threshold). The oracle estimator reproduces an estimator-free run
	// bit-identically (pinned by the golden tests); the online estimator
	// schedules on learned durations.
	Estimator profile.Estimator
	// Drift, when non-nil, deterministically perturbs each job's true
	// stage durations away from the model zoo at construction — the
	// profile-drift model. The scheduler's zoo-derived beliefs go stale;
	// only the oracle estimator (or learning from completions) sees the
	// drifted truth.
	Drift *profile.Drift
	// SampleEvery is the metrics sampling period; zero disables the
	// detailed time series.
	SampleEvery time.Duration
	// MaxJobs truncates the trace for quick runs; zero runs everything.
	MaxJobs int
	// StarvationPatience is how many scheduling rounds a unit may be
	// bypassed (skipped for capacity while a lower-priority unit was
	// admitted) before it is boosted to the front of the admission order.
	// Without it, a large multi-GPU job can starve indefinitely behind a
	// stream of small jobs. Zero uses the default of 5 rounds.
	StarvationPatience int
	// EventDriven additionally reschedules at job arrivals and
	// completions (the paper's §3: "periodically invoked on events like
	// job arrival and job completion"), instead of only at fixed
	// intervals (§5 prototype behavior, the default).
	EventDriven bool
	// RecordTimeline captures per-job lifecycle events (start, restart,
	// finish) into Result.Timeline for post-hoc analysis.
	RecordTimeline bool
	// Faults, when non-nil and non-empty, injects the deterministic
	// failure plan: seeded machine crash/repair events preempt and
	// requeue affected jobs against degraded capacity, straggler
	// machines slow their units, and transient job faults push single
	// members back to the queue. A nil or empty plan leaves the
	// simulation bit-identical to a build without the failure model.
	Faults *faults.Plan
	// Observer, when non-nil, receives every decision of the shared
	// scheduling engine as it is issued (the parity harness compares
	// this stream against the live daemon's).
	Observer func(engine.Decision)
	// Trace, when non-nil, records the run into a Chrome trace-event
	// tracer (telemetry.Tracer): per-unit per-resource stage spans,
	// scheduler rounds and decisions, and fault/repair instants, all on
	// the virtual clock. Nil leaves the run bit-identical to an
	// uninstrumented build.
	Trace *telemetry.Tracer
	// Record, when non-nil, receives the run as the records the live
	// daemon commits to its WAL — admissions, decisions, cause
	// annotations, fault-ledger mutations, completions — stamped with the
	// virtual clock, in log order. Callers fold them themselves (e.g.
	// explain.Builder.Apply for per-job spans and exact wait attribution).
	// It also enables the engine's cause annotations, which never enter
	// Decision.String(), so the decision stream — and every golden pinned
	// to it — is bit-identical with or without it.
	Record func(*wal.Record)
}

// DefaultConfig returns the paper's testbed configuration.
func DefaultConfig() Config {
	return Config{
		Machines:        8,
		GPUsPerMachine:  8,
		Interval:        6 * time.Minute,
		RestartOverhead: 30 * time.Second,
		Interleave:      interleave.DefaultConfig,
	}
}

// Result is the outcome of one simulation run.
type Result struct {
	// Policy is the policy name.
	Policy string
	// Summary holds the end-of-run metrics.
	Summary metrics.Summary
	// Series is the detailed time series (empty unless SampleEvery set).
	Series metrics.Series
	// Jobs are the completed jobs with full progress history.
	Jobs []*job.Job
	// Preemptions counts unit restarts across the run.
	Preemptions int
	// Timeline holds per-job lifecycle events (with RecordTimeline).
	Timeline []Event
	// Heap counts the event-driven clock's completion scans; all zero on
	// fixed-interval runs, which never scan.
	Heap metrics.HeapStats
	// Faults reports failure-plan activity; all zero without a plan.
	Faults metrics.FaultStats
	// Engine reports the shared scheduling engine's decision counters.
	Engine metrics.EngineStats
}

// Event is one job-lifecycle event in a run's timeline. The JSON tags
// define the `murisim -timeline-out` JSONL schema.
type Event struct {
	// Time is the virtual timestamp.
	Time time.Duration `json:"t"`
	// Kind is "submit", "start", "restart", "finish", "fault", or
	// "repair". Fault events carry the affected job (zero for a machine
	// crash) and repair events mark a machine returning to service.
	Kind string `json:"kind"`
	// Job identifies the job. It is kept even when zero so a JSONL dump
	// can tell job 0 apart from machine-level fault/repair events, which
	// carry a machine-name Unit instead.
	Job job.ID `json:"job"`
	// Unit names the unit the job runs in (member IDs), empty on submit
	// and finish events; on machine-level fault/repair events it names
	// the machine ("machine-3").
	Unit string `json:"unit,omitempty"`
	// Machine attributes the event to cluster machines: the crashed or
	// repaired machine on machine-level fault/repair events, the machine
	// whose crash requeued the job on crash-induced job faults, and the
	// (comma-joined) machines hosting the unit on start, restart, and
	// transient-fault events. Empty on submit and finish events, which
	// have no placement.
	Machine string `json:"machine,omitempty"`
}

// unit is a placed schedulable unit at run time, and its own placement
// handle: simPlacer takes it from the free list, recycle puts it back.
type unit struct {
	spec  sched.Unit
	alloc cluster.Alloc
	// readyAt is when execution (re)starts after restart overhead.
	readyAt time.Duration
	// iterTime is the per-member iteration duration: interleaved units
	// share one group iteration time; space-shared and exclusive units
	// have per-member times.
	iterTime []time.Duration
	// carry is the fractional-iteration progress per member.
	carry []float64
	// faultAt is the absolute instant of the transient fault drawn for
	// each member's current execution attempt, zero when the draw missed.
	// It lives and dies with the attempt: a member that leaves the unit
	// (completion, preemption, crash, an earlier fault) takes it along.
	faultAt []time.Duration
	// slow is the straggler slowdown baked into iterTime (> 1 when the
	// unit landed on a slow machine of the fault plan); retime reapplies
	// it after completions shrink the unit. Zero without a fault plan.
	slow float64
}

// dropMember deletes member i in place.
func (u *unit) dropMember(i int) {
	u.spec.Jobs = slices.Delete(u.spec.Jobs, i, i+1)
	u.iterTime = slices.Delete(u.iterTime, i, i+1)
	u.carry = slices.Delete(u.carry, i, i+1)
	u.faultAt = slices.Delete(u.faultAt, i, i+1)
}

// memberIterTimes writes each member's effective iteration time under
// the unit's sharing mode into out, which has one entry per member.
func memberIterTimes(out []time.Duration, u sched.Unit, cfg interleave.Config) {
	var buf [interleave.MaxGroupSize]workload.StageTimes
	switch u.Mode {
	case sched.Exclusive:
		out[0] = u.Jobs[0].SerialIterTime()
	case sched.Interleaved:
		_, T := groupTimes(&buf, u.Jobs, cfg)
		for i := range out {
			out[i] = T
		}
	case sched.SpaceShared:
		for i, j := range u.Jobs {
			others := buf[:0]
			for k, o := range u.Jobs {
				if k != i {
					others = append(others, o.TrueProfile)
				}
			}
			slow := sched.SpaceSharedSlowdown(j.TrueProfile, others)
			out[i] = time.Duration(float64(j.SerialIterTime()) * slow)
		}
	default:
		panic("sim: unknown unit mode")
	}
}

// groupTimes writes an interleaved group's true profiles, inflated as
// interleave.Config.Inflate does, into buf and returns them with their
// Eq. 3 iteration time; interleave.IterationTime would move buf to the heap.
func groupTimes(buf *[interleave.MaxGroupSize]workload.StageTimes, jobs []*job.Job, cfg interleave.Config) ([]workload.StageTimes, time.Duration) {
	var vecs [interleave.MaxGroupSize][]time.Duration
	times := buf[:len(jobs)]
	for i, j := range jobs {
		times[i] = j.TrueProfile
		if p := len(jobs); p > 1 && cfg.Overhead != 0 {
			times[i] = times[i].Scale(1 + cfg.Overhead*float64(p-1))
		}
		vecs[i] = times[i][:]
	}
	return times, interleave.IterationTimeK(vecs[:len(jobs)])
}

// sim is the run state.
type sim struct {
	cfg     Config
	cluster *cluster.Cluster
	policy  sched.Policy
	// eng is the shared scheduling decision core: policy invocation,
	// admission, anti-starvation, placement memory, and the decision
	// stream all live there; the simulator only executes the outcome
	// against virtual time.
	eng *engine.Engine

	now     time.Duration
	pending []*job.Job // submitted, not running
	arrived int        // index into all (sorted by submit)
	all     []*job.Job
	running []*unit
	done    []*job.Job

	series      metrics.Series
	nextSample  time.Duration
	preemptions int
	timeline    []Event
	// scans counts the event-driven clock's completion scans.
	scans metrics.HeapStats

	// Failure-model state; all nil/zero when the plan is nil or empty.
	plan *faults.Plan
	// faultIdx is the cursor into plan.Events.
	faultIdx int
	fstats   metrics.FaultStats

	// Per-round scratch of schedule, reused across rounds. The engine
	// and the policies read these during Reconcile and retain none of
	// them (Outcome.Kept may alias current, and is not kept here).
	candidates []*job.Job
	current    []engine.Current
	carried    map[job.ID]attempt
	// free holds units nothing can read any more; spareRunning and
	// spareQueue double-buffer the running set and the pending queue.
	free         []*unit
	spareRunning []*unit
	spareQueue   []*job.Job
}

// recycle frees a unit that left the running set, keeping its per-member
// capacity.
func (s *sim) recycle(u *unit) {
	*u = unit{iterTime: u.iterTime[:0], carry: u.carry[:0], faultAt: u.faultAt[:0]}
	s.free = append(s.free, u)
}

// attempt is what a member carries into its next round when it continues
// in the same unit: its fractional progress, its attempt's drawn fault and
// when its unit finishes paying restart overhead.
type attempt struct {
	carry   float64
	faultAt time.Duration
	readyAt time.Duration
}

// dropEmptyUnits releases the running units whose members all left.
func (s *sim) dropEmptyUnits() {
	still := s.running[:0]
	for _, u := range s.running {
		if len(u.spec.Jobs) == 0 {
			s.cluster.Release(u.alloc)
			s.recycle(u)
			continue
		}
		still = append(still, u)
	}
	clear(s.running[len(still):])
	s.running = still
}

// record appends a timeline event when recording is enabled.
func (s *sim) record(kind string, id job.ID, unit, machine string) {
	if s.cfg.RecordTimeline {
		s.timeline = append(s.timeline, Event{Time: s.now, Kind: kind, Job: id, Unit: unit, Machine: machine})
	}
}

// Run simulates the trace under the policy and returns the result.
func Run(cfg Config, tr trace.Trace, policy sched.Policy) Result {
	s := newSim(cfg, tr, policy)
	s.loop()
	return Result{
		Policy:      policy.Name(),
		Summary:     metrics.Summarize(s.done),
		Series:      s.series,
		Jobs:        s.done,
		Preemptions: s.preemptions,
		Timeline:    s.timeline,
		Heap:        s.scans,
		Faults:      s.fstats,
		Engine:      s.eng.Stats(),
	}
}

// newSim validates cfg and builds the run state with the trace's jobs.
func newSim(cfg Config, tr trace.Trace, policy sched.Policy) *sim {
	if cfg.Machines <= 0 || cfg.GPUsPerMachine <= 0 {
		panic("sim: cluster dimensions must be positive")
	}
	if cfg.Interval <= 0 {
		panic("sim: scheduling interval must be positive")
	}
	s := &sim{
		cfg:     cfg,
		cluster: cluster.New(cfg.Machines, cfg.GPUsPerMachine),
		policy:  policy,
		carried: make(map[job.ID]attempt),
	}
	// With a record sink, tee the decision stream into it as decision
	// records and hook the engine's cause annotations, as the daemon does.
	observer := cfg.Observer
	var provenance func(engine.CauseEvent)
	if cfg.Record != nil {
		inner := observer
		observer = func(d engine.Decision) {
			if inner != nil {
				inner(d)
			}
			s.write(&wal.Record{Kind: wal.KindDecision, Decision: wal.FromDecision(d)})
		}
		provenance = func(ev engine.CauseEvent) {
			s.write(&wal.Record{Kind: wal.KindCause, Cause: &wal.CauseRecord{
				Job: int64(ev.Job), Cause: ev.Cause, Detail: ev.Detail, Note: ev.Note}})
		}
	}
	s.eng = engine.New(engine.Config{
		Policy:             policy,
		Style:              engine.ReplaceAll,
		StarvationPatience: cfg.StarvationPatience,
		// The simulator's failure model retries from checkpoint
		// indefinitely: no backoff, no dead-letter budget.
		Retry:      engine.RetryPolicy{Budget: -1},
		Observer:   observer,
		Provenance: provenance,
		Tracer:     cfg.Trace,
		Now:        func() time.Duration { return s.now },
		Estimator:  cfg.Estimator,
	})
	if !cfg.Faults.Empty() {
		s.plan = cfg.Faults
	}
	s.buildJobs(tr)
	return s
}

// buildJobs materializes jobs from trace specs: iteration counts derive
// from the trace duration and the model's serial iteration time, exactly
// as the paper does ("the number of training iterations is calculated
// according to the duration of the jobs and the average time of one
// iteration", §6.1).
func (s *sim) buildJobs(tr trace.Trace) {
	specs := tr.Specs
	if s.cfg.MaxJobs > 0 && len(specs) > s.cfg.MaxJobs {
		specs = specs[:s.cfg.MaxJobs]
	}
	capGPUs := s.cfg.Machines * s.cfg.GPUsPerMachine
	for _, spec := range specs {
		m, err := workload.ByName(spec.Model)
		if err != nil {
			panic(err)
		}
		gpus := spec.GPUs
		if gpus > capGPUs {
			gpus = capGPUs
		}
		iters := int64(spec.Duration / m.Stages.Total())
		if iters < 1 {
			iters = 1
		}
		j := job.New(job.ID(spec.ID), m, gpus, iters, spec.Submit)
		if s.cfg.Profiler != nil {
			j.Profile = s.cfg.Profiler.Profile(m)
		}
		if s.cfg.Drift != nil {
			// Truth drifts; the scheduler-visible Profile keeps the stale
			// zoo-derived belief until an estimator corrects it.
			j.TrueProfile = s.cfg.Drift.Apply(int64(j.ID), j.TrueProfile)
		}
		s.refreshBelief(j)
		s.all = append(s.all, j)
	}
	slices.SortStableFunc(s.all, func(a, b *job.Job) int { return cmp.Compare(a.Submit, b.Submit) })
}

// loop drives virtual time: admit arrivals, run the policy, advance
// execution to the next scheduling point, repeat until every job is done.
func (s *sim) loop() {
	if len(s.all) == 0 {
		return
	}
	s.now = s.all[0].Submit
	for len(s.done) < len(s.all) {
		s.admitArrivals()
		if s.plan != nil {
			s.applyFaults()
		}
		s.schedule()
		next := s.nextWake()
		s.advance(next)
		s.now = next
	}
}

// nextWake returns the next scheduling point after a round at s.now.
func (s *sim) nextWake() time.Duration {
	next := s.now + s.cfg.Interval
	if s.cfg.EventDriven {
		// Wake early for the next arrival or the earliest completion.
		if s.arrived < len(s.all) {
			if a := s.all[s.arrived].Submit; a > s.now && a < next {
				next = a
			}
		}
		if c, ok := s.earliestCompletion(); ok && c < next {
			next = c
		}
		if next <= s.now {
			next = s.now + time.Millisecond
		}
	}
	// Fast-forward across idle gaps: if nothing is running and the
	// queue is empty, jump to the next arrival.
	if len(s.running) == 0 && len(s.pending) == 0 && s.arrived < len(s.all) {
		if a := s.all[s.arrived].Submit; a > next {
			next = a
		}
	}
	// Wake exactly at the next crash/repair/transient-fault instant so
	// preemption happens at the event time, not a whole interval late.
	// applyFaults consumed everything due at s.now, so the clamp can
	// never stall the clock.
	if s.plan != nil {
		if at, ok := s.nextFault(); ok && at > s.now && at < next {
			next = at
		}
	}
	return next
}

// applyFaults applies every failure-plan event that has come due:
// machine crashes preempt and requeue the units they host and shrink the
// schedulable capacity, repairs restore it, and the running attempts'
// transient faults push single members back to the queue. Machine events
// apply in deterministic plan order at (or, across idle fast-forwards,
// with) the timestamp they carry; transient faults in running-set order.
func (s *sim) applyFaults() {
	for s.faultIdx < len(s.plan.Events) && s.plan.Events[s.faultIdx].Time <= s.now {
		e := s.plan.Events[s.faultIdx]
		s.faultIdx++
		if e.Machine < 0 || e.Machine >= s.cfg.Machines {
			continue // plan generated for a bigger cluster
		}
		switch e.Kind {
		case faults.MachineCrash:
			s.crashMachine(e)
		case faults.MachineRepair:
			s.repairMachine(e)
		}
	}
	failed := false
	for _, u := range s.running {
		for i := 0; i < len(u.spec.Jobs); {
			if at := u.faultAt[i]; at != 0 && at <= s.now {
				s.failJob(u, i, at)
				failed = true
				continue
			}
			i++
		}
	}
	if failed {
		s.dropEmptyUnits()
	}
}

// nextFault returns the earliest pending failure-plan instant: the next
// machine event or the earliest fault of a running attempt.
func (s *sim) nextFault() (time.Duration, bool) {
	var at time.Duration
	ok := false
	if s.faultIdx < len(s.plan.Events) {
		at, ok = s.plan.Events[s.faultIdx].Time, true
	}
	for _, u := range s.running {
		for _, f := range u.faultAt {
			if f != 0 && (!ok || f < at) {
				at, ok = f, true
			}
		}
	}
	return at, ok
}

// machineLabel names a machine in timeline events.
func machineLabel(id int) string { return "machine-" + strconv.Itoa(id) }

// recordAt appends a timeline event with an explicit timestamp (fault
// and repair events carry the plan's time, which can precede s.now after
// an idle fast-forward).
func (s *sim) recordAt(at time.Duration, kind string, id job.ID, unit, machine string) {
	if s.cfg.RecordTimeline {
		s.timeline = append(s.timeline, Event{Time: at, Kind: kind, Job: id, Unit: unit, Machine: machine})
	}
}

// allocMachines names an allocation's machines, comma-joined in
// ascending ID order ("machine-1,machine-3").
func allocMachines(a cluster.Alloc) string {
	ids := a.Machines()
	if len(ids) == 0 {
		return ""
	}
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(machineLabel(id))
	}
	return b.String()
}

// crashMachine takes a machine down: every unit with GPUs on it is
// preempted, its live members requeued from their last whole-iteration
// checkpoint (the fractional carry is the work lost), and the capacity
// disappears until the paired repair.
func (s *sim) crashMachine(e faults.MachineEvent) {
	if s.cluster.Machines()[e.Machine].Down() {
		return // double crash cannot happen in a generated plan
	}
	label := machineLabel(e.Machine)
	s.recordAt(e.Time, "fault", 0, label, label)
	s.traceFault("crash "+label, e.Time, map[string]any{"machine": e.Machine})
	loss := &wal.FaultRecord{Origin: label, Err: "machine crashed"}
	queued := len(s.pending)
	still := s.running[:0]
	for _, u := range s.running {
		if u.alloc.On(e.Machine) == 0 {
			still = append(still, u)
			continue
		}
		s.cluster.Release(u.alloc)
		var key string
		if s.cfg.RecordTimeline {
			key = engine.UnitKey(u.spec)
		}
		for i, j := range u.spec.Jobs {
			if j.State == job.Done {
				continue
			}
			s.fstats.WorkLost += time.Duration(u.carry[i] * float64(u.iterTime[i]))
			s.recordAt(e.Time, "fault", j.ID, key, label)
			s.pending = append(s.pending, j)
			loss.Jobs = append(loss.Jobs, int64(j.ID))
		}
		s.recycle(u)
	}
	clear(s.running[len(still):])
	s.running = still
	s.cluster.SetDown(e.Machine)
	// As on the daemon, one loss record naming the machine and listing the
	// requeued jobs precedes their requeue decisions. The engine forgets
	// each placement, so the next admission charges a full checkpoint
	// restart even if the unit reforms identically. The cause annotation
	// names the lost machine (inert — and absent from the decision stream —
	// unless provenance is enabled).
	s.fault(loss)
	for _, j := range s.pending[queued:] {
		s.eng.RequeueWithCause(j.ID, engine.ReasonMachineLost, label+" lost")
	}
}

// repairMachine returns a crashed machine to service.
func (s *sim) repairMachine(e faults.MachineEvent) {
	if !s.cluster.Machines()[e.Machine].Down() {
		return
	}
	s.fstats.Repairs++
	s.recordAt(e.Time, "repair", 0, machineLabel(e.Machine), machineLabel(e.Machine))
	s.traceFault("repair "+machineLabel(e.Machine), e.Time, map[string]any{"machine": e.Machine})
	s.cluster.SetUp(e.Machine)
}

// failJob applies member i's transient fault, drawn for its current
// attempt to strike at at: the job is removed from its unit and requeued,
// and survivors keep running at their recomputed speed. A unit left empty
// stays in the running set until the caller drops it.
func (s *sim) failJob(u *unit, i int, at time.Duration) {
	j := u.spec.Jobs[i]
	origin := allocMachines(u.alloc)
	s.fstats.WorkLost += time.Duration(u.carry[i] * float64(u.iterTime[i]))
	if s.cfg.RecordTimeline {
		s.recordAt(at, "fault", j.ID, engine.UnitKey(u.spec), origin)
	}
	if s.cfg.Trace.Enabled() {
		s.traceFault(fmt.Sprintf("transient fault job %d", j.ID), at, map[string]any{"job": int64(j.ID)})
	}
	// The fault record follows the engine's requeue decision, as the
	// daemon commits them. The retry policy has no backoff, but the
	// release time is computed the same way regardless.
	backoff, deadlettered := s.eng.RecordFault(j.ID)
	s.fault(&wal.FaultRecord{Job: int64(j.ID), Origin: origin, Err: "transient fault",
		Faults: j.Faults, DeadLettered: deadlettered,
		NotBeforeV: int64(s.now) + int64(backoff)})
	s.pending = append(s.pending, j)
	u.dropMember(i)
	s.retime(u)
}

// earliestCompletion predicts the soonest completion among the running
// units' live members, for event-driven rescheduling: one scan of
// s.running, counted in s.scans (Rebuilds scans, Peak and Size running
// units). False when no member can complete.
func (s *sim) earliestCompletion() (time.Duration, bool) {
	s.scans.Rebuilds++
	s.scans.Size = len(s.running)
	s.scans.Peak = max(s.scans.Peak, len(s.running))
	var first time.Duration
	found := false
	for _, u := range s.running {
		start := max(s.now, u.readyAt)
		for i, j := range u.spec.Jobs {
			if j.State == job.Done || u.iterTime[i] <= 0 {
				continue
			}
			remaining := max(float64(j.RemainingIterations())-u.carry[i], 0)
			if at := start + time.Duration(remaining*float64(u.iterTime[i])); !found || at < first {
				first, found = at, true
			}
		}
	}
	return first, found
}

// refreshBelief updates one job's scheduler-visible profile from the
// estimator's current belief. Cold-started jobs (no belief for the
// model yet) keep their existing profile; with the oracle estimator the
// write is the identity (Profile already equals TrueProfile absent a
// profiler), so estimator-free runs stay bit-identical.
func (s *sim) refreshBelief(j *job.Job) {
	if s.cfg.Estimator == nil {
		return
	}
	if e, ok := s.cfg.Estimator.EstimateFor(j); ok && e.Stages.Total() > 0 {
		j.Profile = e.Stages
	}
}

// admitArrivals moves jobs whose submit time has passed into the queue,
// writing them as one admission batch. The simulator has no ingest queue,
// so WaitV is zero: each job's timeline origin is its trace submit time,
// and attribution sums to the JCT the metrics report (FinishedAt − Submit).
func (s *sim) admitArrivals() {
	first := s.arrived
	for s.arrived < len(s.all) && s.all[s.arrived].Submit <= s.now {
		j := s.all[s.arrived]
		s.record("submit", j.ID, "", "")
		s.eng.Track(j, job.Pending)
		s.pending = append(s.pending, j)
		s.arrived++
	}
	if s.cfg.Record == nil || s.arrived == first {
		return
	}
	admit := &wal.AdmitRecord{}
	for _, j := range s.all[first:s.arrived] {
		admit.Items = append(admit.Items, wal.AdmitItem{SubmitV: int64(j.Submit), Spec: proto.JobSpec{
			ID: int64(j.ID), Model: j.Model.Name, GPUs: j.GPUs, Iterations: j.Iterations}})
	}
	s.write(&wal.Record{Kind: wal.KindAdmit, Admit: admit})
}

// write stamps a record with the virtual clock and hands it to the record
// sink; callers check that cfg.Record is set.
func (s *sim) write(r *wal.Record) {
	r.V = int64(s.now)
	s.cfg.Record(r)
}

// fault counts a fault-ledger record into the run's stats through the
// daemon's fold, and writes it when a sink is set.
func (s *sim) fault(f *wal.FaultRecord) {
	f.Count(&s.fstats)
	if s.cfg.Record != nil {
		s.write(&wal.Record{Kind: wal.KindFault, Fault: f})
	}
}

// simPlacer adapts the modeled cluster to the engine's Placer
// interface: placement is a GPU allocation held by a recycled unit, and
// preemptive rounds reset the cluster (down-state survives a Reset).
type simPlacer struct{ s *sim }

func (p simPlacer) Free() int { return p.s.cluster.FreeGPUs() }
func (p simPlacer) Reset()    { p.s.cluster.Reset() }
func (p simPlacer) Place(_ string, u sched.Unit) (any, bool) {
	alloc, ok := p.s.cluster.Allocate(u.GPUs)
	if !ok {
		return nil, false
	}
	var placed *unit
	if n := len(p.s.free); n > 0 {
		placed, p.s.free = p.s.free[n-1], p.s.free[:n-1]
	} else {
		placed = new(unit)
	}
	placed.alloc = alloc
	return placed, true
}

// schedule runs one engine round and executes its outcome: placed units
// become live simulation state (iteration times, straggler slowdowns,
// carry restoration, restart overhead, transient-fault draws).
func (s *sim) schedule() {
	candidates := append(s.candidates[:0], s.pending...)
	if s.policy.Preemptive() {
		// Preemptive policies reconsider everything unfinished.
		for _, u := range s.running {
			candidates = append(candidates, u.spec.Jobs...)
		}
	}
	s.candidates = candidates
	// Prediction mode: re-read every candidate's believed profile before
	// the policy sees it, so completions observed since the last round
	// reshape this round's priorities and groupings.
	if s.cfg.Estimator != nil {
		for _, j := range candidates {
			s.refreshBelief(j)
		}
	}
	// Plan against in-service capacity. Without a fault plan no machine is
	// ever down, so AvailableGPUs equals TotalGPUs and behavior is
	// unchanged; under a plan, a fully-crashed cluster has nothing to
	// schedule (crashMachine already requeued everything).
	capacity := s.cluster.AvailableGPUs()
	if s.plan != nil && capacity == 0 {
		return
	}
	// Remember each running attempt so continuing jobs lose no partial
	// iterations across intervals, keep their drawn fault and still wait
	// out a restart overhead they were charged.
	carried := s.carried
	clear(carried)
	current := s.current[:0]
	for _, u := range s.running {
		for i, j := range u.spec.Jobs {
			carried[j.ID] = attempt{carry: u.carry[i], faultAt: u.faultAt[i], readyAt: u.readyAt}
		}
		current = append(current, engine.Current{Spec: u.spec, Handle: u})
	}
	s.current = current
	out := s.eng.Reconcile(engine.Input{
		Now:         s.now,
		Candidates:  candidates,
		Pending:     s.pending,
		PendingInto: s.spareQueue,
		Capacity:    capacity,
		Current:     current,
		Placer:      simPlacer{s},
	})
	s.spareQueue, s.pending = s.pending, out.Pending
	old := s.running
	placed := s.spareRunning[:0]
	if s.policy.Preemptive() {
		// ReplaceAll re-placed everything: the engine's placements are the
		// entire new running set, and the previous one — read through
		// Input.Current until Reconcile returned — goes back to the free list.
		for _, u := range old {
			s.recycle(u)
		}
	} else {
		placed = append(placed, old...) // keep current units
	}
	for _, p := range out.Placements {
		n := len(p.Spec.Jobs)
		u := p.Handle.(*unit)
		u.spec, u.readyAt = p.Spec, s.now
		u.iterTime, u.carry = slices.Grow(u.iterTime, n)[:n], slices.Grow(u.carry, n)[:n]
		u.faultAt = slices.Grow(u.faultAt, n)[:n]
		clear(u.carry)
		clear(u.faultAt)
		memberIterTimes(u.iterTime, p.Spec, s.cfg.Interleave)
		if s.plan != nil {
			// A unit runs at the pace of its slowest machine: distributed
			// workers synchronize every iteration, so one straggler drags
			// the whole allocation.
			for _, m := range u.alloc.Machines() {
				if f := s.plan.SlowdownFor(m); f > u.slow {
					u.slow = f
				}
			}
			if u.slow > 1 {
				for i := range u.iterTime {
					u.iterTime[i] = time.Duration(float64(u.iterTime[i]) * u.slow)
				}
			}
		}
		for i, m := range p.Members {
			if m.Continues {
				a := carried[m.Job.ID]
				u.carry[i], u.faultAt[i] = a.carry, a.faultAt
				u.readyAt = max(u.readyAt, a.readyAt)
			}
		}
		var machines string
		if s.cfg.RecordTimeline {
			machines = allocMachines(u.alloc)
		}
		launched := false
		for _, m := range p.Members {
			if m.Fresh {
				m.Job.StartedAt = s.now
				s.record("start", m.Job.ID, p.Key, machines)
				launched = true
			} else if m.Restart {
				// Either the job resumes after preemption or its unit's
				// composition changed — both restart the worker process.
				m.Job.Restarts++
				s.record("restart", m.Job.ID, p.Key, machines)
				launched = true
			}
		}
		if p.Restart && s.cfg.RestartOverhead > 0 {
			u.readyAt = s.now + s.cfg.RestartOverhead
			s.preemptions++
		}
		if launched {
			// Render the first few group iterations of this launch as
			// per-resource stage spans (tracing only; nil tracer is inert).
			s.traceUnitStages(u, p.Key)
		}
		if s.plan != nil {
			// Transient-fault draws: exactly one per execution attempt
			// (attempt = restart count). Fresh and restarted members start
			// one; continuing members kept theirs above. The fault, if
			// drawn, strikes at a hash-chosen fraction of the attempt's
			// estimated remaining work (carry is zero on a new attempt).
			for i, m := range p.Members {
				if m.Continues {
					continue
				}
				frac, fault := s.plan.TransientFault(int64(m.Job.ID), m.Job.Restarts)
				if !fault {
					continue
				}
				remaining := max(float64(m.Job.RemainingIterations()), 0)
				at := u.readyAt + time.Duration(frac*remaining*float64(u.iterTime[i]))
				if at <= s.now {
					at = s.now + time.Millisecond
				}
				u.faultAt[i] = at
			}
		}
		placed = append(placed, u)
	}
	clear(old)
	s.running, s.spareRunning = placed, old[:0]
}

// advance simulates execution from s.now to deadline, handling member
// completions (which speed up the survivors) and metric sampling.
func (s *sim) advance(deadline time.Duration) {
	if s.cfg.SampleEvery > 0 {
		for s.nextSample <= deadline {
			if s.nextSample >= s.now {
				s.sample(s.nextSample)
			}
			s.nextSample += s.cfg.SampleEvery
		}
	}
	doneBefore := len(s.done)
	for _, u := range s.running {
		s.advanceUnit(u, s.now, deadline)
	}
	if len(s.done) == doneBefore {
		// Nothing completed, so every unit's membership is unchanged.
		return
	}
	// Drop units whose members all finished; release their GPUs.
	s.dropEmptyUnits()
}

// advanceUnit advances one unit over [from, to], processing completions
// one at a time because each completion changes the survivors' speed.
func (s *sim) advanceUnit(u *unit, from, to time.Duration) {
	if u.readyAt > from {
		from = u.readyAt
	}
	if from >= to {
		return
	}
	for len(u.spec.Jobs) > 0 {
		// Find the earliest completion among the members.
		first := -1
		var firstAt time.Duration
		for i, j := range u.spec.Jobs {
			remaining := float64(j.RemainingIterations()) - u.carry[i]
			if remaining < 0 {
				remaining = 0
			}
			at := from + time.Duration(remaining*float64(u.iterTime[i]))
			if first == -1 || at < firstAt {
				first = i
				firstAt = at
			}
		}
		if firstAt > to {
			// No completion before the deadline: advance everyone.
			s.credit(u, from, to)
			return
		}
		// Advance to the completion instant, finish that job and drop it
		// from the unit, recompute the survivors' iteration times, and
		// continue.
		s.credit(u, from, firstAt)
		j := u.spec.Jobs[first]
		u.dropMember(first)
		j.DoneIterations = j.Iterations
		j.FinishedAt = firstAt
		s.done = append(s.done, j)
		s.eng.MarkDone(j.ID) // as the daemon's: done, and the engine forgets its placement
		if s.cfg.RecordTimeline {
			s.timeline = append(s.timeline, Event{Time: firstAt, Kind: "finish", Job: j.ID})
		}
		if s.cfg.Record != nil {
			// Completions carry their own instant (mid-advance, between
			// scheduling points): the finish time the metrics see.
			s.cfg.Record(&wal.Record{Kind: wal.KindDone, V: int64(firstAt),
				Done: &wal.DoneRecord{Job: int64(j.ID), FinishedV: int64(firstAt)}})
		}
		// Policies that learn from completions (e.g. the Gittins index)
		// observe the job's 2D service demand.
		if obs, ok := s.policy.(interface{ Observe(time.Duration) }); ok {
			obs.Observe(time.Duration(float64(j.Attained) * float64(j.GPUs)))
		}
		// The estimator observes the measured per-iteration stages and the
		// 2D service demand (no-op without one).
		if s.cfg.Estimator != nil {
			s.eng.NoteCompletion(j, j.TrueProfile,
				time.Duration(float64(j.Attained)*float64(j.GPUs)))
		}
		from = firstAt
		s.retime(u)
		if from >= to {
			return
		}
	}
}

// credit advances the members by the elapsed window.
func (s *sim) credit(u *unit, from, to time.Duration) {
	dt := to - from
	if dt <= 0 {
		return
	}
	for i, j := range u.spec.Jobs {
		if u.iterTime[i] <= 0 {
			continue
		}
		u.carry[i] += float64(dt) / float64(u.iterTime[i])
		whole := int64(u.carry[i])
		if whole > 0 {
			j.Advance(whole, 0)
			u.carry[i] -= float64(whole)
		}
		j.Attained += dt
	}
}

// retime recomputes member iteration times after a completion shrinks the
// unit (survivors speed up: fewer members to interleave or contend with).
func (s *sim) retime(u *unit) {
	if len(u.spec.Jobs) == 0 {
		return
	}
	shrunk := u.spec
	if len(shrunk.Jobs) == 1 {
		shrunk.Mode = sched.Exclusive
	}
	memberIterTimes(u.iterTime, shrunk, s.cfg.Interleave)
	if u.slow > 1 {
		for i := range u.iterTime {
			u.iterTime[i] = time.Duration(float64(u.iterTime[i]) * u.slow)
		}
	}
}

// sample records one point of the Figure 8 time series.
func (s *sim) sample(at time.Duration) {
	var pending []*job.Job
	for _, j := range s.pending {
		if j.State == job.Pending {
			pending = append(pending, j)
		}
	}
	sm := metrics.Sample{
		Time:          at,
		QueueLen:      len(pending),
		BlockingIndex: metrics.BlockingIndex(pending, at),
		UsedGPUs:      s.cluster.UsedGPUs(),
	}
	for _, u := range s.running {
		for _, j := range u.spec.Jobs {
			if j.State == job.Running {
				sm.RunningJobs++
			}
		}
	}
	total := float64(s.cluster.TotalGPUs())
	for _, u := range s.running {
		if u.readyAt > at {
			continue
		}
		share := float64(u.spec.GPUs) / total
		busy := unitBusyFractions(u, s.cfg.Interleave)
		for r := 0; r < workload.NumResources; r++ {
			sm.Util[r] += share * busy[r]
		}
	}
	s.series = append(s.series, sm)
}

// unitBusyFractions returns, per resource type, the fraction of the
// unit's iteration during which the resource is in use.
func unitBusyFractions(u *unit, cfg interleave.Config) [workload.NumResources]float64 {
	var out [workload.NumResources]float64
	live := u.spec.Jobs
	if len(live) == 0 {
		return out
	}
	switch u.spec.Mode {
	case sched.Interleaved:
		var buf [interleave.MaxGroupSize]workload.StageTimes
		inflated, T := groupTimes(&buf, live, cfg)
		if T == 0 {
			return out
		}
		for r := 0; r < workload.NumResources; r++ {
			var used time.Duration
			for _, t := range inflated {
				used += t[r]
			}
			f := float64(used) / float64(T)
			if f > 1 {
				f = 1
			}
			out[r] = f
		}
	default:
		// Exclusive and space-shared: average the members' own busy
		// fractions (space sharing does not overlap stages in time).
		for _, j := range live {
			fr := j.TrueProfile.Fractions()
			for r := 0; r < workload.NumResources; r++ {
				out[r] += fr[r] / float64(len(live))
			}
		}
	}
	return out
}

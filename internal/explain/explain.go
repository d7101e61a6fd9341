// Package explain is the decision-provenance subsystem: it folds the
// daemon's durable record stream — admissions, engine decisions, fault
// ledger mutations, completions, and the structured cause annotations
// each decision site attaches — into per-job lifecycle spans with exact
// wait-time attribution. Every nanosecond of a job's completion time is
// assigned to exactly one cause, so "why is my job waiting?" has a
// number, not a guess.
//
// The builder is deliberately driven by wal.Record values only. The
// live daemon feeds it the records it commits (a daemon without a state
// dir commits them too, so its explanations work all the same); recovery
// feeds it the replayed tail on top of the snapshot-restored state; and
// the offline muritrace tool feeds it the recovered log from disk. All
// three paths run the identical fold, which is what makes the live
// `murictl explain` output and the offline reconstruction byte-
// identical — a property the tests pin.
//
// Time is virtual throughout (the same clock the decision stream and
// trace use), so explanations are invariant under -timescale.
package explain

import (
	"encoding/json"
	"sort"
	"strconv"

	"muri/internal/wal"
)

// Causes partition a job's lifetime. Exactly one is open at any moment
// between a job's timeline origin and its completion.
const (
	// CauseIngestQueue is time between acceptance by the ingest queue and
	// the admission round that drained it into the engine.
	CauseIngestQueue = "ingest-queue"
	// CauseThrottled is time a submission spent rejected by tenant rate
	// limiting before a retry succeeded. The daemon rejects throttled
	// submissions outright rather than queueing them, so per-job
	// throttled time is attributed only when a driver synthesizes it;
	// the cause exists so the taxonomy is closed over every verdict the
	// admission layer can return.
	CauseThrottled = "throttled"
	// CauseCapacity is time waiting admitted: the cluster had no
	// capacity for the job (or none was registered, or admission-level
	// fragmentation blocked placement).
	CauseCapacity = "capacity"
	// CauseRankedBehind is time waiting while capacity existed but the
	// policy ordered other work ahead of this job.
	CauseRankedBehind = "ranked-behind"
	// CauseFaultBackoff is time serving a post-fault retry backoff.
	CauseFaultBackoff = "fault-backoff"
	// CauseAdoptionFreeze is time lost to the post-failover adoption
	// freeze, when the promoted daemon holds scheduling until executors
	// re-register.
	CauseAdoptionFreeze = "adoption-freeze"
	// CauseService is time actually running on GPUs.
	CauseService = "service"
)

// Causes lists the full taxonomy in canonical render order.
var Causes = []string{
	CauseIngestQueue,
	CauseThrottled,
	CauseCapacity,
	CauseRankedBehind,
	CauseFaultBackoff,
	CauseAdoptionFreeze,
	CauseService,
}

// Span is one closed interval [StartV, EndV) of a job's timeline,
// attributed to a single cause. Detail is the site-specific
// explanation (comparator keys, preemptor identity, retry budget...).
type Span struct {
	Cause  string `json:"cause"`
	Detail string `json:"detail,omitempty"`
	StartV int64  `json:"start_v"`
	EndV   int64  `json:"end_v"`
}

// Note annotates a job's timeline without consuming time (starvation
// boosts, for example).
type Note struct {
	V      int64  `json:"v"`
	Cause  string `json:"cause"`
	Detail string `json:"detail,omitempty"`
}

// JobState is one job's folded lifecycle.
type JobState struct {
	ID     int64  `json:"id"`
	Model  string `json:"model,omitempty"`
	GPUs   int    `json:"gpus,omitempty"`
	Tenant string `json:"tenant,omitempty"`

	// OriginV is the job's timeline origin: acceptance by the ingest
	// queue (SubmitV − WaitV). Attribution covers [OriginV, FinishedV).
	OriginV int64 `json:"origin_v"`
	// AdmitV is the admission round that drained the job into the
	// engine (= SubmitV of the admit record).
	AdmitV int64 `json:"admit_v"`
	// FirstDispatchV is the first launch, 0 until dispatched.
	FirstDispatchV int64 `json:"first_dispatch_v,omitempty"`
	// Dispatched disambiguates FirstDispatchV == 0 (a launch at v=0 is
	// legal in simulation).
	Dispatched bool `json:"dispatched,omitempty"`

	Spans []Span `json:"spans,omitempty"`
	Notes []Note `json:"notes,omitempty"`

	// Open span, if any.
	OpenCause  string `json:"open_cause,omitempty"`
	OpenDetail string `json:"open_detail,omitempty"`
	OpenStartV int64  `json:"open_start_v,omitempty"`

	// BackoffUntilV is the latest fault's backoff release time; closing
	// a fault-backoff span that straddles it splits the tail into
	// capacity (the backoff elapsed; the job then waited for space).
	BackoffUntilV int64 `json:"backoff_until_v,omitempty"`

	// FrozenPrev* stash the open cause across a global adoption freeze
	// so the prior wait cause resumes when the freeze lifts.
	FrozenPrevCause  string `json:"frozen_prev_cause,omitempty"`
	FrozenPrevDetail string `json:"frozen_prev_detail,omitempty"`
	FrozenStashed    bool   `json:"frozen_stashed,omitempty"`

	Done      bool  `json:"done,omitempty"`
	Dead      bool  `json:"dead,omitempty"`
	FinishedV int64 `json:"finished_v,omitempty"`

	Faults      int `json:"faults,omitempty"`
	Preemptions int `json:"preemptions,omitempty"`
}

// Builder folds wal.Records into per-job lifecycle state. Not safe for
// concurrent use; the daemon drives it under its scheduling lock.
type Builder struct {
	jobs   map[int64]*JobState
	frozen bool
	clockV int64
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{jobs: make(map[int64]*JobState)}
}

// Frozen reports whether the builder last saw an adoption-freeze start
// without a matching end (used by the daemon to re-derive its freeze
// marker state after a restore).
func (b *Builder) Frozen() bool { return b.frozen }

// Jobs lists known job IDs in ascending order.
func (b *Builder) Jobs() []int64 {
	ids := make([]int64, 0, len(b.jobs))
	for id := range b.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Job returns the folded state for one job (nil if unknown).
func (b *Builder) Job(id int64) *JobState { return b.jobs[id] }

// Apply folds one record. Records must arrive in log order; kinds the
// explainer does not model (profile, group, term, progress) only
// advance the clock.
func (b *Builder) Apply(r *wal.Record) {
	if r == nil {
		return
	}
	if r.V > b.clockV {
		b.clockV = r.V
	}
	switch r.Kind {
	case wal.KindAdmit:
		if r.Admit != nil {
			b.applyAdmit(r.Admit)
		}
	case wal.KindDecision:
		if r.Decision != nil {
			b.applyDecision(r.V, r.Decision)
		}
	case wal.KindFault:
		if r.Fault != nil && !r.Fault.Loss() {
			b.applyFault(r.Fault)
		}
	case wal.KindDone:
		if r.Done != nil {
			b.applyDone(r.Done)
		}
	case wal.KindCause:
		if r.Cause != nil {
			b.applyCause(r.V, r.Cause)
		}
	}
}

func (b *Builder) applyAdmit(a *wal.AdmitRecord) {
	for i := range a.Items {
		it := &a.Items[i]
		if b.jobs[it.Spec.ID] != nil {
			continue // replay overlap; first fold wins
		}
		js := &JobState{
			ID:      it.Spec.ID,
			Model:   it.Spec.Model,
			GPUs:    it.Spec.GPUs,
			Tenant:  it.Spec.Tenant,
			OriginV: it.SubmitV - it.WaitV,
			AdmitV:  it.SubmitV,
		}
		b.jobs[js.ID] = js
		if it.WaitV > 0 {
			detail := ""
			if it.Depth > 0 {
				detail = "behind " + strconv.Itoa(it.Depth) + " queued submissions"
			}
			b.addSpan(js, Span{Cause: CauseIngestQueue, Detail: detail,
				StartV: js.OriginV, EndV: js.AdmitV})
		}
		detail := "awaiting admission"
		if it.Profiling {
			detail = "awaiting model profile"
		}
		b.open(js, js.AdmitV, CauseCapacity, detail)
	}
}

func (b *Builder) applyDecision(v int64, d *wal.DecisionRecord) {
	for _, id := range d.Jobs {
		js := b.jobs[id]
		if js == nil {
			continue
		}
		switch d.Action {
		case "launch":
			if !js.Dispatched {
				js.Dispatched = true
				js.FirstDispatchV = v
			}
			b.transition(js, v, CauseService, d.Cause)
		case "kill":
			js.Preemptions++
			detail := d.Cause
			if detail == "" {
				detail = "preempted"
			}
			b.transition(js, v, CauseCapacity, detail)
		case "requeue":
			cause, detail := CauseCapacity, d.Cause
			if d.Reason == "fault" {
				cause = CauseFaultBackoff
			} else if detail == "" {
				detail = "machine lost"
			}
			b.transition(js, v, cause, detail)
		case "deadletter":
			b.closeOpen(js, v)
			js.Dead = true
			js.FinishedV = v
			if d.Cause != "" {
				js.Notes = append(js.Notes, Note{V: v, Cause: "deadletter", Detail: d.Cause})
			}
		}
	}
	// Jobs launched with a key but absent from d.Jobs do not exist:
	// engine decisions always carry member IDs.
}

func (b *Builder) applyFault(f *wal.FaultRecord) {
	js := b.jobs[f.Job]
	if js == nil {
		return
	}
	if f.Faults > js.Faults {
		js.Faults = f.Faults
	}
	if !f.DeadLettered && f.NotBeforeV > 0 {
		js.BackoffUntilV = f.NotBeforeV
	}
}

func (b *Builder) applyDone(d *wal.DoneRecord) {
	js := b.jobs[d.Job]
	if js == nil || js.Done {
		return
	}
	b.closeOpen(js, d.FinishedV)
	js.Done = true
	js.FinishedV = d.FinishedV
}

func (b *Builder) applyCause(v int64, c *wal.CauseRecord) {
	if c.Job == 0 && c.Cause == CauseAdoptionFreeze {
		b.applyFreeze(v, c.Detail == "start")
		return
	}
	js := b.jobs[c.Job]
	if js == nil {
		return
	}
	if c.Note {
		js.Notes = append(js.Notes, Note{V: v, Cause: c.Cause, Detail: c.Detail})
		return
	}
	// Wait-cause transition. Never displaces service: the engine does
	// not emit wait causes for jobs it placed this round, so a service
	// open span here means a stale record — ignore defensively.
	if js.OpenCause == CauseService || js.Done || js.Dead {
		return
	}
	b.transition(js, v, c.Cause, c.Detail)
}

// applyFreeze opens (or lifts) the global adoption-freeze cause across
// every waiting job, stashing each job's prior cause so it resumes
// when the freeze ends. Jobs in service keep running — an adoption
// freeze stalls scheduling, not adopted groups.
func (b *Builder) applyFreeze(v int64, start bool) {
	b.frozen = start
	for _, id := range b.Jobs() {
		js := b.jobs[id]
		if js.Done || js.Dead {
			continue
		}
		if start {
			if js.OpenCause == "" || js.OpenCause == CauseService || js.OpenCause == CauseAdoptionFreeze {
				continue
			}
			js.FrozenPrevCause, js.FrozenPrevDetail = js.OpenCause, js.OpenDetail
			js.FrozenStashed = true
			b.transition(js, v, CauseAdoptionFreeze, "scheduling frozen during executor adoption")
		} else if js.FrozenStashed {
			b.transition(js, v, js.FrozenPrevCause, js.FrozenPrevDetail)
			js.FrozenPrevCause, js.FrozenPrevDetail = "", ""
			js.FrozenStashed = false
		}
	}
}

// transition closes the open span at v and opens a new one. A
// same-cause transition only refreshes the detail, mirroring the
// engine's emit-on-change dedup.
func (b *Builder) transition(js *JobState, v int64, cause, detail string) {
	if js.OpenCause == cause {
		js.OpenDetail = detail
		return
	}
	b.closeOpen(js, v)
	b.open(js, v, cause, detail)
}

func (b *Builder) open(js *JobState, v int64, cause, detail string) {
	js.OpenCause, js.OpenDetail, js.OpenStartV = cause, detail, v
}

// closeOpen closes the open span at endV. A fault-backoff span that
// straddles the backoff release time splits there: the head was the
// backoff, the tail was waiting for capacity after it elapsed.
func (b *Builder) closeOpen(js *JobState, endV int64) {
	if js.OpenCause == "" {
		return
	}
	cause, detail, start := js.OpenCause, js.OpenDetail, js.OpenStartV
	js.OpenCause, js.OpenDetail, js.OpenStartV = "", "", 0
	if endV < start {
		endV = start
	}
	if cause == CauseFaultBackoff && js.BackoffUntilV > start && js.BackoffUntilV < endV {
		b.addSpan(js, Span{Cause: cause, Detail: detail, StartV: start, EndV: js.BackoffUntilV})
		b.addSpan(js, Span{Cause: CauseCapacity, Detail: "backoff elapsed; awaiting capacity",
			StartV: js.BackoffUntilV, EndV: endV})
		return
	}
	b.addSpan(js, Span{Cause: cause, Detail: detail, StartV: start, EndV: endV})
}

// addSpan appends a span, skipping zero-length intervals (they carry
// no time, and skipping them keeps attribution exact while keeping the
// rendered timeline readable).
func (b *Builder) addSpan(js *JobState, s Span) {
	if s.EndV <= s.StartV {
		return
	}
	js.Spans = append(js.Spans, s)
}

// Attribution is a job's exact wait-time breakdown.
type Attribution struct {
	// PerCause maps cause → total virtual nanoseconds. Every cause in
	// Causes has an entry (possibly zero).
	PerCause map[string]int64
	// Total is the attributed total. For completed jobs this equals
	// FinishedV − OriginV exactly; for live jobs it is ClockV − OriginV
	// (the open span counted up to the builder clock).
	Total int64
	// Done reports whether the job completed (or dead-lettered).
	Done bool
}

// AttributionOf computes a job's wait-time attribution. ok is false
// for unknown jobs.
func (b *Builder) AttributionOf(id int64) (Attribution, bool) {
	js := b.jobs[id]
	if js == nil {
		return Attribution{}, false
	}
	at := Attribution{PerCause: make(map[string]int64, len(Causes)), Done: js.Done || js.Dead}
	for _, c := range Causes {
		at.PerCause[c] = 0
	}
	for _, s := range js.Spans {
		at.PerCause[s.Cause] += s.EndV - s.StartV
		at.Total += s.EndV - s.StartV
	}
	for _, s := range b.openAsSpans(js) {
		at.PerCause[s.Cause] += s.EndV - s.StartV
		at.Total += s.EndV - s.StartV
	}
	return at, true
}

// openAsSpans materializes the open span (if any) closed at the
// builder clock, applying the same fault-backoff split closeOpen
// would, without mutating state.
func (b *Builder) openAsSpans(js *JobState) []Span {
	if js.OpenCause == "" || b.clockV <= js.OpenStartV {
		return nil
	}
	start, end := js.OpenStartV, b.clockV
	if js.OpenCause == CauseFaultBackoff && js.BackoffUntilV > start && js.BackoffUntilV < end {
		return []Span{
			{Cause: js.OpenCause, Detail: js.OpenDetail, StartV: start, EndV: js.BackoffUntilV},
			{Cause: CauseCapacity, Detail: "backoff elapsed; awaiting capacity",
				StartV: js.BackoffUntilV, EndV: end},
		}
	}
	return []Span{{Cause: js.OpenCause, Detail: js.OpenDetail, StartV: start, EndV: end}}
}

// State is the builder's serialized form, embedded in WAL snapshots so
// recovery resumes the fold exactly where the snapshot left it.
type State struct {
	Jobs   []*JobState `json:"jobs,omitempty"`
	Frozen bool        `json:"frozen,omitempty"`
	ClockV int64       `json:"clock_v,omitempty"`
}

// Snapshot serializes the builder (jobs sorted by ID, so snapshot
// bytes are deterministic).
func (b *Builder) Snapshot() (json.RawMessage, error) {
	st := State{Frozen: b.frozen, ClockV: b.clockV}
	for _, id := range b.Jobs() {
		st.Jobs = append(st.Jobs, b.jobs[id])
	}
	return json.Marshal(st)
}

// Restore overwrites the builder from a serialized State. A nil or
// empty raw message resets to fresh (snapshots predating the explain
// subsystem).
func (b *Builder) Restore(raw json.RawMessage) error {
	b.jobs = make(map[int64]*JobState)
	b.frozen = false
	b.clockV = 0
	if len(raw) == 0 {
		return nil
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	b.frozen = st.Frozen
	b.clockV = st.ClockV
	for _, js := range st.Jobs {
		if js != nil {
			b.jobs[js.ID] = js
		}
	}
	return nil
}

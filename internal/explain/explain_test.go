package explain

import (
	"strings"
	"testing"

	"muri/internal/proto"
	"muri/internal/wal"
)

func admitRec(v int64, items ...wal.AdmitItem) *wal.Record {
	return &wal.Record{Kind: wal.KindAdmit, V: v, Admit: &wal.AdmitRecord{Items: items}}
}

func causeRec(v, jobID int64, cause, detail string, note bool) *wal.Record {
	return &wal.Record{Kind: wal.KindCause, V: v,
		Cause: &wal.CauseRecord{Job: jobID, Cause: cause, Detail: detail, Note: note}}
}

func decisionRec(v int64, action string, reason string, cause string, jobs ...int64) *wal.Record {
	return &wal.Record{Kind: wal.KindDecision, V: v, Decision: &wal.DecisionRecord{
		Action: action, Reason: reason, Cause: cause, Jobs: jobs}}
}

func faultRec(v, jobID int64, faults int, notBeforeV int64, dead bool) *wal.Record {
	return &wal.Record{Kind: wal.KindFault, V: v, Fault: &wal.FaultRecord{
		Job: jobID, Faults: faults, NotBeforeV: notBeforeV, DeadLettered: dead}}
}

func doneRec(v, jobID int64) *wal.Record {
	return &wal.Record{Kind: wal.KindDone, V: v, Done: &wal.DoneRecord{Job: jobID, FinishedV: v}}
}

func apply(b *Builder, recs ...*wal.Record) {
	for _, r := range recs {
		b.Apply(r)
	}
}

// sumAttribution checks the invariant every test leans on: per-cause
// values sum to Total.
func sumAttribution(t *testing.T, at Attribution) {
	t.Helper()
	var sum int64
	for _, v := range at.PerCause {
		sum += v
	}
	if sum != at.Total {
		t.Fatalf("per-cause sum %d ≠ total %d", sum, at.Total)
	}
}

// TestLifecycleFold walks one job through the full pipeline: queued at
// the ingest layer, admitted, ranked behind other work, launched, done.
func TestLifecycleFold(t *testing.T) {
	b := NewBuilder()
	apply(b,
		admitRec(100, wal.AdmitItem{
			Spec:    proto.JobSpec{ID: 1, Model: "resnet50", GPUs: 4, Tenant: "team-a"},
			SubmitV: 100, WaitV: 40, Depth: 3,
		}),
		causeRec(150, 1, CauseRankedBehind, "behind 2 higher-priority units", false),
		decisionRec(200, "launch", "", "interleaved x2 eff=1.80", 1),
		doneRec(500, 1),
	)

	js := b.Job(1)
	if js == nil {
		t.Fatal("job 1 unknown")
	}
	if js.OriginV != 60 || js.AdmitV != 100 {
		t.Fatalf("origin/admit = %d/%d, want 60/100", js.OriginV, js.AdmitV)
	}
	if !js.Dispatched || js.FirstDispatchV != 200 {
		t.Fatalf("first dispatch = %v/%d, want true/200", js.Dispatched, js.FirstDispatchV)
	}
	if !js.Done || js.FinishedV != 500 {
		t.Fatalf("done = %v/%d, want true/500", js.Done, js.FinishedV)
	}

	want := []Span{
		{Cause: CauseIngestQueue, Detail: "behind 3 queued submissions", StartV: 60, EndV: 100},
		{Cause: CauseCapacity, Detail: "awaiting admission", StartV: 100, EndV: 150},
		{Cause: CauseRankedBehind, Detail: "behind 2 higher-priority units", StartV: 150, EndV: 200},
		{Cause: CauseService, Detail: "interleaved x2 eff=1.80", StartV: 200, EndV: 500},
	}
	if len(js.Spans) != len(want) {
		t.Fatalf("got %d spans %+v, want %d", len(js.Spans), js.Spans, len(want))
	}
	for i, s := range js.Spans {
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}

	at, ok := b.AttributionOf(1)
	if !ok || !at.Done {
		t.Fatalf("attribution ok=%v done=%v", ok, at.Done)
	}
	sumAttribution(t, at)
	if at.Total != 500-60 {
		t.Fatalf("total %d, want %d", at.Total, 500-60)
	}
	if at.PerCause[CauseService] != 300 || at.PerCause[CauseIngestQueue] != 40 {
		t.Fatalf("service/ingest = %d/%d, want 300/40", at.PerCause[CauseService], at.PerCause[CauseIngestQueue])
	}

	out := b.RenderJob(1)
	for _, frag := range []string{
		"job 1 (resnet50, 4 GPUs, tenant team-a)",
		"jct 440ns",
		"behind 3 queued submissions",
		"interleaved x2 eff=1.80",
		"total",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, out)
		}
	}
}

// TestFaultBackoffSplit: a requeue-on-fault span straddling the backoff
// release time splits there — the head is fault-backoff, the tail is
// capacity ("backoff elapsed"), so backoff is never over-attributed.
func TestFaultBackoffSplit(t *testing.T) {
	b := NewBuilder()
	apply(b,
		admitRec(0, wal.AdmitItem{Spec: proto.JobSpec{ID: 7}, SubmitV: 0}),
		decisionRec(10, "launch", "", "", 7),
		decisionRec(100, "requeue", "fault", "fault 1 of budget 3", 7),
		faultRec(100, 7, 1, 160, false),
		decisionRec(250, "launch", "", "", 7),
		doneRec(400, 7),
	)
	at, _ := b.AttributionOf(7)
	sumAttribution(t, at)
	if got := at.PerCause[CauseFaultBackoff]; got != 60 {
		t.Errorf("fault-backoff = %d, want 60", got)
	}
	// capacity: [0,10) awaiting admission + [160,250) post-backoff tail.
	if got := at.PerCause[CauseCapacity]; got != 10+90 {
		t.Errorf("capacity = %d, want 100", got)
	}
	if got := at.PerCause[CauseService]; got != 90+150 {
		t.Errorf("service = %d, want 240", got)
	}
	js := b.Job(7)
	if js.Faults != 1 {
		t.Errorf("faults = %d, want 1", js.Faults)
	}
	found := false
	for _, s := range js.Spans {
		if s.Cause == CauseCapacity && s.Detail == "backoff elapsed; awaiting capacity" {
			found = true
			if s.StartV != 160 || s.EndV != 250 {
				t.Errorf("split tail = [%d,%d), want [160,250)", s.StartV, s.EndV)
			}
		}
	}
	if !found {
		t.Error("no post-backoff capacity tail span")
	}
}

// TestPreemptionAndDeadletter: kills count preemptions and open a
// capacity span carrying the preemptor's identity; deadletter closes
// the timeline and leaves a note.
func TestPreemptionAndDeadletter(t *testing.T) {
	b := NewBuilder()
	apply(b,
		admitRec(0, wal.AdmitItem{Spec: proto.JobSpec{ID: 2}, SubmitV: 0}),
		decisionRec(10, "launch", "", "", 2),
		decisionRec(50, "kill", "preempted", "preempted by unit [5] (srsf rank ahead)", 2),
		decisionRec(80, "requeue", "fault", "fault 1 of budget 1", 2),
		decisionRec(80, "deadletter", "", "retry budget exhausted after 1 faults", 2),
	)
	js := b.Job(2)
	if js.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", js.Preemptions)
	}
	if !js.Dead || js.FinishedV != 80 {
		t.Fatalf("dead = %v at %d, want true at 80", js.Dead, js.FinishedV)
	}
	at, _ := b.AttributionOf(2)
	sumAttribution(t, at)
	if !at.Done {
		t.Error("dead-lettered job should report Done attribution")
	}
	if at.Total != 80 {
		t.Errorf("total = %d, want 80", at.Total)
	}
	out := b.RenderJob(2)
	if !strings.Contains(out, "dead-lettered") || !strings.Contains(out, "retry budget exhausted") {
		t.Errorf("rendering missing deadletter evidence:\n%s", out)
	}
}

// TestAdoptionFreezeStashRestore: a global freeze moves every waiting
// job to the adoption-freeze cause and restores each job's prior cause
// (with its detail) when the freeze lifts; running jobs are untouched.
func TestAdoptionFreezeStashRestore(t *testing.T) {
	b := NewBuilder()
	apply(b,
		admitRec(0,
			wal.AdmitItem{Spec: proto.JobSpec{ID: 1}, SubmitV: 0},
			wal.AdmitItem{Spec: proto.JobSpec{ID: 2}, SubmitV: 0},
			wal.AdmitItem{Spec: proto.JobSpec{ID: 3}, SubmitV: 0},
		),
		causeRec(5, 2, CauseRankedBehind, "behind unit [1]", false),
		decisionRec(10, "launch", "", "", 3),
		causeRec(20, 0, CauseAdoptionFreeze, "start", false),
	)
	if !b.Frozen() {
		t.Fatal("builder not frozen after start marker")
	}
	for _, id := range []int64{1, 2} {
		if got := b.Job(id).OpenCause; got != CauseAdoptionFreeze {
			t.Errorf("job %d open cause %q during freeze", id, got)
		}
	}
	if got := b.Job(3).OpenCause; got != CauseService {
		t.Errorf("running job displaced to %q by freeze", got)
	}
	apply(b, causeRec(60, 0, CauseAdoptionFreeze, "end", false))
	if b.Frozen() {
		t.Fatal("builder still frozen after end marker")
	}
	if got := b.Job(1).OpenCause; got != CauseCapacity {
		t.Errorf("job 1 resumed %q, want capacity", got)
	}
	j2 := b.Job(2)
	if j2.OpenCause != CauseRankedBehind || j2.OpenDetail != "behind unit [1]" {
		t.Errorf("job 2 resumed %q/%q, want ranked-behind with original detail", j2.OpenCause, j2.OpenDetail)
	}
	at, _ := b.AttributionOf(2)
	sumAttribution(t, at)
	if got := at.PerCause[CauseAdoptionFreeze]; got != 40 {
		t.Errorf("adoption-freeze = %d, want 40", got)
	}
}

// TestNotesAndSameCauseRefresh: note records never perturb the open
// span, and a same-cause transition only refreshes the detail (no
// zero-length span churn).
func TestNotesAndSameCauseRefresh(t *testing.T) {
	b := NewBuilder()
	apply(b,
		admitRec(0, wal.AdmitItem{Spec: proto.JobSpec{ID: 4}, SubmitV: 0}),
		causeRec(10, 4, CauseCapacity, "cluster full: 0 of 8 GPUs free", false),
		causeRec(20, 4, CauseCapacity, "cluster full: 4 of 8 GPUs free", false),
		causeRec(30, 4, "starvation-boost", "boosted to the front after 5 bypassed rounds", true),
	)
	js := b.Job(4)
	if len(js.Spans) != 0 {
		t.Fatalf("same-cause refresh closed spans: %+v", js.Spans)
	}
	if js.OpenDetail != "cluster full: 4 of 8 GPUs free" {
		t.Errorf("detail not refreshed: %q", js.OpenDetail)
	}
	if len(js.Notes) != 1 || js.Notes[0].V != 30 {
		t.Fatalf("notes = %+v, want one at v=30", js.Notes)
	}
	// Live attribution counts the open span up to the builder clock.
	at, _ := b.AttributionOf(4)
	sumAttribution(t, at)
	if at.Done {
		t.Error("live job reported done")
	}
	if at.Total != 30 {
		t.Errorf("live total = %d, want 30 (clock)", at.Total)
	}
}

// TestSnapshotRestoreResumesFold: folding half the records, detouring
// through Snapshot/Restore, and folding the rest must render exactly
// what the uninterrupted fold renders — the invariant that makes the
// daemon's recovery path and muritrace byte-identical with the live RPC.
func TestSnapshotRestoreResumesFold(t *testing.T) {
	records := []*wal.Record{
		admitRec(0,
			wal.AdmitItem{Spec: proto.JobSpec{ID: 1, Model: "vgg16", GPUs: 2}, SubmitV: 0, WaitV: 0},
			wal.AdmitItem{Spec: proto.JobSpec{ID: 2, Model: "gpt2", GPUs: 4}, SubmitV: 0, WaitV: 0},
		),
		causeRec(5, 2, CauseRankedBehind, "behind unit [1]", false),
		decisionRec(10, "launch", "", "", 1),
		decisionRec(100, "requeue", "fault", "fault 1 of budget unlimited", 1),
		faultRec(100, 1, 1, 130, false),
		decisionRec(200, "launch", "", "", 1),
		decisionRec(200, "launch", "", "", 2),
		doneRec(300, 1),
		doneRec(400, 2),
	}
	for split := 0; split <= len(records); split++ {
		ref := NewBuilder()
		apply(ref, records...)

		b := NewBuilder()
		apply(b, records[:split]...)
		raw, err := b.Snapshot()
		if err != nil {
			t.Fatalf("split %d: snapshot: %v", split, err)
		}
		b2 := NewBuilder()
		if err := b2.Restore(raw); err != nil {
			t.Fatalf("split %d: restore: %v", split, err)
		}
		apply(b2, records[split:]...)

		if got, want := b2.RenderAll(), ref.RenderAll(); got != want {
			t.Fatalf("split %d diverged\nwant:\n%s\ngot:\n%s", split, want, got)
		}
	}
}

// TestRestoreEmpty: nil and empty snapshots reset to a fresh builder
// (snapshots predating the explain subsystem).
func TestRestoreEmpty(t *testing.T) {
	b := NewBuilder()
	apply(b, admitRec(0, wal.AdmitItem{Spec: proto.JobSpec{ID: 9}, SubmitV: 0}))
	if err := b.Restore(nil); err != nil {
		t.Fatalf("restore nil: %v", err)
	}
	if len(b.Jobs()) != 0 || b.Frozen() || b.clockV != 0 {
		t.Fatal("restore nil did not reset the builder")
	}
	if got := b.RenderJob(9); !strings.Contains(got, "no provenance recorded") {
		t.Errorf("unknown job rendering = %q", got)
	}
}

// TestReplayOverlapFirstFoldWins: re-applying an admission for a known
// job (snapshot/record-tail overlap during recovery) must not reset
// its state.
func TestReplayOverlapFirstFoldWins(t *testing.T) {
	b := NewBuilder()
	admit := admitRec(0, wal.AdmitItem{Spec: proto.JobSpec{ID: 5}, SubmitV: 0})
	apply(b,
		admit,
		decisionRec(10, "launch", "", "", 5),
		admit, // replayed overlap
		doneRec(50, 5),
		doneRec(60, 5), // replayed overlap
	)
	js := b.Job(5)
	if js.FinishedV != 50 {
		t.Errorf("finished = %d, want 50 (first done wins)", js.FinishedV)
	}
	at, _ := b.AttributionOf(5)
	sumAttribution(t, at)
	if at.PerCause[CauseService] != 40 {
		t.Errorf("service = %d, want 40", at.PerCause[CauseService])
	}
}

package core

import (
	"slices"
	"sync/atomic"

	"muri/internal/metrics"
)

// cachedProp is one recorded matching proposal: node indices within the
// bucket at the sweep it was generated, the edge weight, the gate's gain,
// and whether the central acceptance loop took it.
type cachedProp struct {
	u, v     int32
	weight   float64
	gain     float64
	accepted bool
}

// cachedSweep is the proposal stream one bucket produced in one sweep.
type cachedSweep struct {
	props []cachedProp
}

// bucketCache is the record of one bucket's previous plan: the signature
// of its initial nodes and the per-sweep proposal streams with their
// acceptance pattern. When the next round's signature matches, the bucket
// replays this stream instead of re-running edge construction and
// Blossom; replay stays exact because the stream is a pure function of
// the signature and the (live, re-checked) acceptance history.
//
// Both halves are double-buffered: a plan writes its signature and record
// into the spares while it reads the previous plan's, and finishPlan
// swaps, so a warm PlanState allocates only the streams themselves.
type bucketCache struct {
	gpus   int
	sig    []int64
	sweeps []cachedSweep

	spareSig    []int64
	spareSweeps []cachedSweep
}

// PlanState carries grouping state across scheduling rounds: the planner's
// counters and per-bucket dirty tracking. Each plan records every bucket's
// proposal stream, and the next plan replays the stream for buckets whose
// exact signature (member IDs, their profile classes, plus the
// gate-relevant remaining-iteration estimates, in candidate order) is
// unchanged. Any divergence in the central acceptance loop promotes the
// bucket back to fresh matching from the next sweep, so incremental
// planning is bit-identical to full re-matching by construction (see
// DESIGN.md §10).
//
// A PlanState must be owned by a single policy instance: the replay cache
// assumes a consistent Config between rounds. The counters are safe for
// concurrent use by the shard workers; the replay bookkeeping is only
// touched between parallel sections.
type PlanState struct {
	// buckets holds one cache per GPU requirement ever planned: a handful,
	// so a scan finds it.
	buckets []*bucketCache

	shards    int
	rounds    atomic.Uint64
	replays   atomic.Uint64
	fixpoints atomic.Uint64
	fresh     atomic.Uint64
	tasks     atomic.Uint64
	// pairHits/pairMiss count the grouping graph's class-pair table:
	// reads served by an already-filled cell, and cells filled.
	pairHits atomic.Uint64
	pairMiss atomic.Uint64
	marks    atomic.Uint64
}

// NewPlanState returns a PlanState with an empty replay cache.
func NewPlanState() *PlanState {
	return new(PlanState)
}

// MarkDirty records decision-stream dirty notifications (arrivals,
// completions, faults, preemptions). The marks are telemetry: the
// per-bucket signature check is the authoritative dirty test, because
// remaining-iteration estimates can also change without a decision.
func (ps *PlanState) MarkDirty(n int) {
	if ps == nil || n <= 0 {
		return
	}
	ps.marks.Add(uint64(n))
}

// Stats snapshots the plan-state counters. Safe on a nil receiver.
func (ps *PlanState) Stats() metrics.ShardStats {
	if ps == nil {
		return metrics.ShardStats{}
	}
	return metrics.ShardStats{
		Shards:         ps.shards,
		PlanRounds:     ps.rounds.Load(),
		ReplaySweeps:   ps.replays.Load(),
		FixpointSweeps: ps.fixpoints.Load(),
		FreshSweeps:    ps.fresh.Load(),
		ShardTasks:     ps.tasks.Load(),
		PairHits:       ps.pairHits.Load(),
		PairMisses:     ps.pairMiss.Load(),
		DirtyMarks:     ps.marks.Load(),
	}
}

// bucketSig flattens the bucket's initial nodes into an exact signature:
// a length separator per node, then each member's job ID and profile
// class (the stage times themselves when a nil Cache leaves the node
// unclassified), and each member's remaining-iteration estimate (the merge
// gate's input). Profiles are part of the signature because estimators
// rewrite them mid-run. Everything else the proposal stream depends on (the
// Config, the shard layout as a function of epoch) is constant across
// rounds, so an equal signature implies an identical stream. The signature
// is written over sig.
func (c Config) bucketSig(st *bucketState, sig []int64) []int64 {
	sig = sig[:0]
	for _, nd := range st.nodes {
		// Separators are negative; job IDs are non-negative in every
		// trace and daemon path, so node boundaries are unambiguous.
		sig = append(sig, -int64(len(nd.jobs))-1)
		cls := c.classes(nd)
		for i, j := range nd.jobs {
			sig = append(sig, int64(j.ID), int64(cls[i]))
			if cls[i] == 0 {
				for _, d := range j.Profile {
					sig = append(sig, int64(d))
				}
			}
			rem := j.RemainingIterations()
			if c.RemainingIters != nil {
				rem = c.RemainingIters(j)
			}
			sig = append(sig, rem)
		}
	}
	return sig
}

// cache returns the bucket cache for a GPU requirement, adding an empty one
// (which matches no signature) when the requirement is new.
func (ps *PlanState) cache(gpus int) *bucketCache {
	for _, bc := range ps.buckets {
		if bc.gpus == gpus {
			return bc
		}
	}
	bc := &bucketCache{gpus: gpus}
	ps.buckets = append(ps.buckets, bc)
	return bc
}

// beginPlan binds prior-round bucket caches to this plan's buckets and
// marks clean the ones whose signature is unchanged.
func (ps *PlanState) beginPlan(c Config, states []bucketState) {
	ps.rounds.Add(1)
	ps.shards = c.shardCount()
	for i := range states {
		st := &states[i]
		st.bc = ps.cache(st.gpus)
		st.sig = c.bucketSig(st, st.bc.spareSig)
		st.rec = st.bc.spareSweeps[:0]
		st.clean = slices.Equal(st.bc.sig, st.sig)
	}
}

// finishPlan installs this plan's signatures and recorded streams as the
// caches for the next round. Buckets absent this round keep their stale
// entries; the signature check makes them harmless.
func (ps *PlanState) finishPlan(states []bucketState) {
	for i := range states {
		st, bc := &states[i], states[i].bc
		bc.sig, bc.spareSig = st.sig, bc.sig
		bc.sweeps, bc.spareSweeps = st.rec, bc.sweeps
		clear(bc.spareSweeps) // the previous plan's streams are garbage now
	}
}

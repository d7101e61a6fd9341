package core

import (
	"slices"
	"sync"

	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/workload"
)

// planArena is the working memory of one Plan call, recycled
// through arenaPool the way scratchPool recycles graphScratch. Every
// transient of a plan is carved from it, so a warm plan allocates only
// the groups it returns and one proposal stream per sweep. Nothing a plan
// returns aliases the arena, and only the serial part of a plan touches
// it — shard tasks work in their own graphScratch and write results into
// disjoint windows handed to them.
type planArena struct {
	// nodes, jobs and profs are slabs that nodes and their member windows
	// point into, so they must not move during a plan: reserve sizes them
	// up front, and a request they cannot serve falls back to the heap.
	// jobs and profs advance in lockstep.
	nodes []node
	jobs  []*job.Job
	profs []workload.StageTimes
	// ptrs backs the buckets' node lists, one window per bucket.
	ptrs   []*node
	states []bucketState

	proposals []proposal
	// dropped is applySweep's compaction scratch; the pass resets the
	// flags it set, so it is all-false between uses.
	dropped []bool

	// Shard scratch: props backs the shard tasks' result windows, rematch
	// the cross-shard re-match.
	parts          [][]int32
	results        [][]cachedProp
	props, rematch []cachedProp
	matched        []bool
	left, byWeight []int32
}

var arenaPool = sync.Pool{New: func() any { return new(planArena) }}

// sized returns buf with length n, keeping its contents and reallocating
// only when its capacity falls short.
func sized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// reserve sizes the slabs for a plan over the given member and node
// counts. Every merge removes a node, so a plan creates fewer than twice
// its initial nodes; every merge a job takes part in grows its node, up to
// MaxGroupSize, so all member windows ever carved hold at most
// MaxGroupSize entries per job.
func (a *planArena) reserve(members, nodes int) {
	a.nodes = slices.Grow(a.nodes[:0], 2*nodes)
	a.jobs = slices.Grow(a.jobs[:0], interleave.MaxGroupSize*members)
	a.profs = slices.Grow(a.profs[:0], interleave.MaxGroupSize*members)
	a.ptrs = sized(a.ptrs, nodes)
}

// release drops every reference the plan left behind (jobs, nodes,
// proposal streams), so a pooled arena pins nothing.
func (a *planArena) release() {
	clear(a.nodes)
	clear(a.jobs)
	clear(a.ptrs)
	clear(a.states)
	a.nodes, a.jobs, a.profs, a.states = a.nodes[:0], a.jobs[:0], a.profs[:0], a.states[:0]
}

// newNode returns a node with windows for the given member count, which
// the caller fills, from the slabs when they have room and from the heap
// otherwise (so the zero arena is the heap path).
func (a *planArena) newNode(members int) *node {
	if len(a.nodes) == cap(a.nodes) || cap(a.jobs)-len(a.jobs) < members || cap(a.profs)-len(a.profs) < members {
		return &node{jobs: make([]*job.Job, members), profiles: make([]workload.StageTimes, members)}
	}
	i, end := len(a.jobs), len(a.jobs)+members
	a.nodes, a.jobs, a.profs = a.nodes[:len(a.nodes)+1], a.jobs[:end], a.profs[:end]
	n := &a.nodes[len(a.nodes)-1]
	// The windows' capacities are clipped, so an append to one can never
	// write into its neighbour.
	*n = node{jobs: a.jobs[i:end:end], profiles: a.profs[i:end:end]}
	return n
}

// merge concatenates two nodes (Algorithm 1's MergeNode). Classes and
// remaining-iteration aggregates carry over when both halves have them:
// the sorted key by a two-run merge, the aggregates as the sums they are.
func (a *planArena) merge(u, v *node) *node {
	m := a.newNode(len(u.jobs) + len(v.jobs))
	copy(m.jobs[copy(m.jobs, u.jobs):], v.jobs)
	copy(m.profiles[copy(m.profiles, u.profiles):], v.profiles)
	if u.cls[0] != 0 && v.cls[0] != 0 {
		m.cls = u.cls
		copy(m.cls[len(u.jobs):], v.cls[:])
		m.key = interleave.MergeSorted(u.key, len(u.jobs), v.key, len(v.jobs))
	}
	if u.remDone && v.remDone {
		m.remSum, m.remMax, m.remDone = u.remSum+v.remSum, max(u.remMax, v.remMax), true
	}
	return m
}

// bucket returns the state of the bucket with the given GPU requirement,
// adding it when new: a plan sees a handful of GPU sizes, so a scan beats
// a map. The pointer is valid until the next call.
func (a *planArena) bucket(gpus int) *bucketState {
	for i := range a.states {
		if a.states[i].gpus == gpus {
			return &a.states[i]
		}
	}
	a.states = append(a.states, bucketState{gpus: gpus, arena: a})
	return &a.states[len(a.states)-1]
}

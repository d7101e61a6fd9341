// Package core implements the paper's primary contribution: the
// multi-round, Blossom-based job grouping algorithm (Algorithm 1) together
// with GPU-requirement bucketing for multi-GPU jobs (paper §4.2).
//
// Grouping works on a graph whose nodes are jobs (later: merged job
// groups) and whose edge weights are interleaving efficiencies. Each round
// finds a maximum weighted matching with the Blossom algorithm and merges
// every matched pair into one node; log₂k rounds produce groups of up to
// k jobs for k resource types. Multi-GPU jobs are only grouped with jobs
// of the same GPU requirement, which avoids the cascading slowdown from
// cross-group packing (Figure 7).
package core

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"muri/internal/blossom"
	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/workload"
)

// Config controls the grouping algorithm. The zero value is not useful;
// use DefaultConfig as a starting point.
type Config struct {
	// Interleave is the contention model used to score and plan groups.
	Interleave interleave.Config
	// MaxGroupSize caps the number of jobs per group (2–4). The paper's
	// default is k = 4, one job per resource type; Figure 12 sweeps 2–4.
	MaxGroupSize int
	// UseBlossom selects the matching strategy: true runs Algorithm 1;
	// false reproduces the "Muri-L w/o Blossom" ablation, which packs
	// adjacent jobs in the given (priority) order.
	UseBlossom bool
	// WorstOrdering reproduces the "Muri-L w/ worst ordering" ablation:
	// groups execute with the least-efficient stage ordering.
	WorstOrdering bool
	// RemainingIters estimates a job's remaining iterations for the merge
	// gate (gateTerms).
	// Nil uses the job's true remaining count (known durations, Muri-S).
	// Muri-L supplies the least-attained-service heuristic: for
	// heavy-tailed DL duration distributions, a job's expected remaining
	// work is proportional to what it has already attained. It must be
	// safe for concurrent calls: shard tasks invoke it in parallel.
	RemainingIters func(*job.Job) int64
	// Cache memoizes best-ordering group statistics (pair efficiencies,
	// node γ/T, JCT-gate iteration times) and execution plans across
	// Blossom rounds and scheduling intervals, and interns job profiles
	// into the class IDs the grouping graph is indexed by. Everything is
	// keyed by profile contents, so cached values are bit-identical to
	// fresh computation, schedules do not depend on cache state, and a job
	// whose profile is rewritten simply lands in another class. Required:
	// DefaultConfig sets one.
	Cache *interleave.EffCache
	// Shards splits buckets of shardNodeThreshold nodes or more into
	// deterministic shards that are edge-constructed and matched
	// independently (concurrently on multicore hosts), cutting the
	// quadratic pair-evaluation and cubic matching cost by the shard
	// count. 0 or 1 keeps whole-bucket matching, which is exact
	// Algorithm 1 at every bucket size; plans at Shards=1 are
	// bit-identical to the unsharded path and deterministic at any shard
	// count (DESIGN.md §10).
	Shards int
	// Planner, when non-nil, carries grouping state across scheduling
	// rounds: counters, and a memo of shard matchings keyed by the matched
	// nodes' contents, which serves every shard whose nodes are unchanged
	// since this plan or the last. A hit is bit-identical to matching
	// afresh. A PlanState must not be shared between policies.
	Planner *PlanState
}

// DefaultConfig is the standard Muri configuration: 4-job groups, Blossom
// matching, best ordering, default contention model.
func DefaultConfig() Config {
	return Config{
		Interleave:   interleave.DefaultConfig,
		MaxGroupSize: interleave.MaxGroupSize,
		UseBlossom:   true,
		Cache:        interleave.NewEffCache(0),
	}
}

// Group is one interleaving group: up to MaxGroupSize jobs that share one
// set of resources, plus the execution plan derived from the scheduler's
// (possibly noisy) view of their profiles.
type Group struct {
	// Jobs lists the members in plan order: Jobs[i] runs with stage
	// offset i.
	Jobs []*job.Job
	// Plan is the interleaving plan computed from the members' profiles.
	Plan interleave.Plan
	// GPUs is the per-job GPU requirement of this group's bucket. Every
	// member needs exactly this many GPUs and the whole group shares one
	// allocation of that size.
	GPUs int
}

// node is one vertex of the grouping graph: a set of jobs merged across
// earlier rounds.
type node struct {
	jobs     []*job.Job
	profiles []workload.StageTimes
	// cls holds the members' profile classes in member order, interned on
	// first use (Config.classes); the zero value means not yet classified.
	// key is the same tuple sorted: the node's identity in classify and in
	// the statistics memo, computed once (a merge merges its halves').
	cls, key interleave.Classes
	// remSum/remMax cache the summed and maximum remaining-iteration
	// estimates of the members (JCT gate inputs). Estimates are stable
	// within one Plan call (RemainingIters must be pure per call), so
	// they are filled once per node.
	remSum, remMax int64
	remDone        bool
}

// stat is a group's best-ordering iteration time and interleaving
// efficiency.
type stat struct {
	t   time.Duration
	eff float64
}

func (c Config) maxGroup() int {
	if c.MaxGroupSize <= 0 {
		return interleave.MaxGroupSize
	}
	if c.MaxGroupSize > interleave.MaxGroupSize {
		return interleave.MaxGroupSize
	}
	return c.MaxGroupSize
}

// rounds returns ⌈log₂(maxGroup)⌉ — the number of matching rounds needed
// so group sizes can reach maxGroup by doubling.
func (c Config) rounds() int {
	r := 0
	for size := 1; size < c.maxGroup(); size *= 2 {
		r++
	}
	return r
}

// Plan groups jobs (already in priority order) so the result fits the
// cluster as well as possible: merging happens only while the summed GPU
// demand exceeds capacityGPUs. Pass capacityGPUs ≤ 0 for the
// unconstrained classic Algorithm 1 (merge every beneficial pair).
// Groups are returned ordered by descending GPU requirement, priority
// order within each bucket.
func (c Config) Plan(jobs []*job.Job, capacityGPUs int) []Group {
	if len(jobs) == 0 {
		return nil
	}
	a := arenaPool.Get().(*planArena)
	out := c.plan(a, jobs, capacityGPUs)
	a.release()
	arenaPool.Put(a)
	return out
}

// plan is Plan in the given arena.
func (c Config) plan(a *planArena, jobs []*job.Job, capacityGPUs int) []Group {
	// Size the buckets, then carve each one's node list and fill it in
	// input order.
	for _, j := range jobs {
		a.bucket(j.GPUs).want++
	}
	slices.SortFunc(a.states, func(x, y bucketState) int { return cmp.Compare(y.gpus, x.gpus) })
	a.reserve(len(jobs), len(jobs))
	off := 0
	for i := range a.states {
		st := &a.states[i]
		st.nodes = a.ptrs[off : off : off+st.want]
		off += st.want
	}
	for _, j := range jobs {
		n := a.newNode(1)
		n.jobs[0], n.profiles[0] = j, j.Profile
		st := a.bucket(j.GPUs)
		st.nodes = append(st.nodes, n)
	}
	if c.UseBlossom {
		c.planRounds(a, capacityGPUs)
	} else {
		c.greedyRounds(a, capacityGPUs)
	}
	// What outlives the call is the caller's: the groups, and one slab each
	// for their member lists and plan orders.
	groups := 0
	for i := range a.states {
		groups += len(a.states[i].nodes)
	}
	out := make([]Group, 0, groups)
	jobSlab, orderSlab := make([]*job.Job, len(jobs)), make([]int, len(jobs))
	for i := range a.states {
		st := &a.states[i]
		for _, n := range st.nodes {
			k := len(n.jobs)
			out = append(out, c.finalizeInto(n, st.gpus, jobSlab[:k:k], orderSlab[:k:k]))
			jobSlab, orderSlab = jobSlab[k:], orderSlab[k:]
		}
	}
	return out
}

// classes returns the node's member classes, interning them (and merging
// them into the node's sorted key) on first use.
func (c Config) classes(n *node) interleave.Classes {
	if n.cls[0] == 0 {
		n.key = interleave.Classes{}
		for i, p := range n.profiles {
			n.cls[i] = c.Cache.Class(p)
			n.key = interleave.MergeSorted(n.key, i, interleave.Classes{n.cls[i]}, 1)
		}
	}
	return n.cls
}

// nodeRemStats fills the node's remaining-iteration aggregates (JCT gate
// inputs).
func (c Config) nodeRemStats(n *node) {
	if n.remDone {
		return
	}
	var sum, max int64
	for _, j := range n.jobs {
		rem := j.RemainingIterations()
		if c.RemainingIters != nil {
			rem = c.RemainingIters(j)
		}
		sum += rem
		if rem > max {
			max = rem
		}
	}
	n.remSum, n.remMax = sum, max
	n.remDone = true
}

// gateTerms are a node's factors in the JCT gate: its summed and maximum
// remaining iterations times its standalone iteration time, the sum
// itself, and its member count. bucketGraph computes them once per node,
// so the gate costs a pair a few multiply-adds.
type gateTerms struct {
	sumT, maxT, sum, n int64
}

// gateTerms needs the node's remaining-iteration aggregates filled.
func (n *node) gateTerms(t time.Duration) gateTerms {
	return gateTerms{sumT: n.remSum * int64(t), maxT: n.remMax * int64(t), sum: n.remSum, n: int64(len(n.jobs))}
}

// jctGain is the merge gate: the reduction in summed completion time of
// running u∪v concurrently (iteration time mergedIter) versus running u
// and v sequentially on one resource set in the better of the two orders —
// the relevant baseline when demand exceeds capacity. A merge enters the
// matching graph only when this is positive; the edge weight is always the
// interleaving efficiency γ (paper §4.1), the gate prunes merges that
// would hurt average JCT.
//
// With per-node remaining-iteration aggregates the costs reduce to
// arithmetic: a node starting at offset s with iteration time t has
// summed completion len·s + Σrem·t and finishes at s + maxRem·t. The
// int64 algebra distributes exactly — also when it wraps, as
// time.Duration arithmetic does — so this is bit-identical to
// materializing the merged node and summing member by member.
func (u gateTerms) jctGain(v gateTerms, mergedIter time.Duration) time.Duration {
	seq := u.sumT + v.n*u.maxT + v.sumT // u first, v starting when u finishes
	if alt := v.sumT + u.n*v.maxT + u.sumT; alt < seq {
		seq = alt
	}
	return time.Duration(seq - (u.sum+v.sum)*int64(mergedIter))
}

// graphScratch is the working set of one bucketGraph call and the matching
// that follows it, recycled through scratchPool so a warm planning round
// builds and matches its graphs without allocating. A shard task holds its
// own. The returned edges and gains alias it: they are valid until the
// scratch is reused.
type graphScratch struct {
	edges []blossom.Edge
	gains []float64
	index map[interleave.Classes]int32 // canonical class tuple → local class
	local []int32                      // node → local class
	rep   []int32                      // local class → its first node
	multi []bool                       // local class has at least two nodes
	self  []stat                       // local class → standalone statistics
	pair  []stat                       // C×C merged statistics, symmetric
	terms []gateTerms                  // node → JCT-gate factors
	sub   []*node                      // matchShard's node selection
	mate  []int                        // the matcher's result
	key   []byte                       // the selection's memo key
	pairs []cachedProp                 // its matched pairs, by local index
}

var scratchPool = sync.Pool{New: func() any { return new(graphScratch) }}

// classify assigns every node its local class — a dense index over the
// distinct canonical (sorted) class tuples present, in order of first
// appearance — and returns the class count.
func (c Config) classify(nodes []*node, s *graphScratch) int {
	if s.index == nil {
		s.index = make(map[interleave.Classes]int32)
	}
	clear(s.index)
	s.local, s.rep, s.multi = s.local[:0], s.rep[:0], s.multi[:0]
	for i, nd := range nodes {
		c.classes(nd)
		k, ok := s.index[nd.key]
		if ok {
			s.multi[k] = true
		} else {
			k = int32(len(s.rep))
			s.index[nd.key] = k
			s.rep = append(s.rep, int32(i))
			s.multi = append(s.multi, false)
		}
		s.local = append(s.local, k)
	}
	return len(s.rep)
}

// bucketGraph builds the gain-gated grouping graph for one round in one
// bucket: edge weights are interleaving efficiencies (paper §4.1), and
// edges whose merge fails the gate (jctGain) are dropped. The
// gate gain of every surviving edge is returned alongside it, so matched
// pairs never re-evaluate the gate.
//
// An edge weight is a pure function of the two nodes' profile multisets,
// and candidates are instances of a few profile classes, so the weights
// are computed once per class pair that occurs into a dense C×C table and
// the O(n²) pair loop is a table read plus the gate arithmetic. Edges come
// out in u-major (u,v) order, so the Blossom matching and every downstream
// schedule are those of pair-by-pair construction. Every gated edge is
// handed to the matcher: Algorithm 1 is exact at every bucket size.
func (c Config) bucketGraph(nodes []*node, s *graphScratch) ([]blossom.Edge, []float64) {
	maxSize := c.maxGroup()
	n := len(nodes)
	nc := c.classify(nodes, s)
	// Every cell is written by the fill below, so stale contents are fine.
	// The fill holds the cache for the whole table: one lock, not one per
	// cell.
	s.self, s.pair = sized(s.self, nc), sized(s.pair, nc*nc)
	fills := 0
	memo := c.Cache.Begin(c.Interleave)
	for a := 0; a < nc; a++ {
		ra := nodes[s.rep[a]]
		la := len(ra.profiles)
		s.self[a].t, s.self[a].eff = memo.Stats(ra.key, ra.profiles)
		var buf [interleave.MaxGroupSize]workload.StageTimes
		copy(buf[:], ra.profiles)
		for b := a; b < nc; b++ {
			rb := nodes[s.rep[b]]
			lb := len(rb.profiles)
			m := stat{eff: math.Inf(-1)} // does not fit, or never occurs
			if la+lb <= maxSize && (a != b || s.multi[a]) {
				copy(buf[la:], rb.profiles)
				m.t, m.eff = memo.Stats(interleave.MergeSorted(ra.key, la, rb.key, lb), buf[:la+lb])
				fills++
			}
			s.pair[a*nc+b], s.pair[b*nc+a] = m, m
		}
	}
	memo.End()
	if ps := c.Planner; ps != nil {
		ps.pairMiss.Add(uint64(fills))
		ps.pairHits.Add(uint64(n*(n-1)/2 - fills))
	}
	s.terms = sized(s.terms, n)
	for u, nd := range nodes {
		c.nodeRemStats(nd)
		s.terms[u] = nd.gateTerms(s.self[s.local[u]].t)
	}
	edges, gains := s.edges[:0], s.gains[:0]
	for u := 0; u < n-1; u++ {
		cu := int(s.local[u])
		row := s.pair[cu*nc : (cu+1)*nc]
		for v := u + 1; v < n; v++ {
			m := row[s.local[v]]
			if m.eff <= 0 {
				continue
			}
			// Seconds() is positive exactly when the duration is, so only
			// surviving edges pay for it.
			d := s.terms[u].jctGain(s.terms[v], m.t)
			if d <= 0 {
				continue
			}
			edges = append(edges, blossom.Edge{I: u, J: v, Weight: m.eff})
			gains = append(gains, d.Seconds())
		}
	}
	s.edges, s.gains = edges, gains
	return edges, gains
}

// maxCapacitySweeps bounds the merge passes of capacity-constrained
// planning. Partial acceptance can need more than the classic ⌈log₂k⌉
// rounds before group sizes saturate; every accepted merge strictly
// reduces demand, so the loop terminates regardless. Bound it generously.
const maxCapacitySweeps = 64

// roundSetup computes the state shared by the multi-round planners: the
// summed GPU demand of all nodes, whether capacityGPUs actually constrains
// merging, and the round budget (the classic ⌈log₂k⌉ bound when
// unconstrained, maxCapacitySweeps otherwise).
func (c Config) roundSetup(states []bucketState, capacityGPUs int) (demand int, unconstrained bool, maxRounds int) {
	for i := range states {
		demand += states[i].gpus * len(states[i].nodes)
	}
	unconstrained = capacityGPUs <= 0
	maxRounds = c.rounds()
	if !unconstrained {
		maxRounds = maxCapacitySweeps
	}
	return demand, unconstrained, maxRounds
}

// proposal is one Blossom-matched pair a sweep may accept: its gate gain
// and where it sits (bucket by index into the plan's states, position in
// that bucket's proposal stream). Pointer-free and 16 bytes, so ordering a
// sweep's proposals moves little and the collector never scans them.
type proposal struct {
	gain   float64
	bucket int32
	idx    int32
}

// planRounds runs the capacity-aware multi-round matching over all GPU
// buckets (the arena's states, in descending GPU order). Each round runs
// Blossom inside every bucket and accepts the proposed merges in
// descending gain order, but only while the summed GPU demand of the
// remaining nodes exceeds capacityGPUs — this realizes Algorithm 1's
// framing that the dequeued jobs "can be fully grouped and they can fully
// utilize the cluster": merging beyond that point slows jobs down with no
// queueing benefit. capacityGPUs ≤ 0 disables the constraint (classic
// Algorithm 1: merge every beneficial pair for log₂k rounds).
func (c Config) planRounds(a *planArena, capacityGPUs int) {
	states := a.states
	demand, unconstrained, maxRounds := c.roundSetup(states, capacityGPUs)
	if ps := c.Planner; ps != nil {
		ps.beginPlan(c)
	}
	for sweep := 0; sweep < maxRounds; sweep++ {
		if !unconstrained && demand <= capacityGPUs {
			break
		}
		proposals := a.proposals[:0]
		for b := range states {
			st := &states[b]
			st.props = c.sweepProposals(st)
			for i, p := range st.props {
				proposals = append(proposals, proposal{gain: p.gain, bucket: int32(b), idx: int32(i)})
			}
		}
		a.proposals = proposals
		if len(proposals) == 0 {
			break
		}
		// Accept the most beneficial merges first, ties to the larger
		// bucket (the lower state index) and then in stream order — a
		// total order, so no stable sort is needed. Each accepted merge
		// frees one resource set of the bucket's size. Acceptance goes
		// straight into the bucket's stream.
		slices.SortFunc(proposals, func(x, y proposal) int {
			if x.gain != y.gain {
				return cmp.Compare(y.gain, x.gain)
			}
			if x.bucket != y.bucket {
				return cmp.Compare(x.bucket, y.bucket)
			}
			return cmp.Compare(x.idx, y.idx)
		})
		accepted := 0
		for _, p := range proposals {
			if !unconstrained && demand <= capacityGPUs {
				break
			}
			st := &states[p.bucket]
			st.props[p.idx].accepted = true
			demand -= st.gpus
			accepted++
		}
		for b := range states {
			states[b].applySweep()
		}
		if accepted == 0 {
			break
		}
	}
}

// applySweep finishes one bucket's sweep: it applies the accepted merges
// with in-place node compaction, so the bucket's node list is reused sweep
// over sweep.
func (st *bucketState) applySweep() {
	a := st.arena
	count := 0
	for _, p := range st.props {
		if !p.accepted {
			continue
		}
		if count == 0 {
			a.dropped = sized(a.dropped, len(st.nodes))
		}
		// Matched pairs are disjoint, so merges within a sweep commute.
		st.nodes[p.u] = a.merge(st.nodes[p.u], st.nodes[p.v])
		a.dropped[p.v] = true
		count++
	}
	if count == 0 {
		return
	}
	st.epoch += uint64(count)
	out := st.nodes[:0]
	for i, nd := range st.nodes {
		if a.dropped[i] {
			a.dropped[i] = false
			continue
		}
		out = append(out, nd)
	}
	st.nodes = out
}

// greedyRounds is the no-Blossom ablation ("Muri-L w/o Blossom", Figure
// 11): merges adjacent nodes in priority order instead of matching, with
// the same capacity-aware acceptance.
func (c Config) greedyRounds(a *planArena, capacityGPUs int) {
	demand, unconstrained, maxRounds := c.roundSetup(a.states, capacityGPUs)
	maxSize := c.maxGroup()
	for round := 0; round < maxRounds; round++ {
		if !unconstrained && demand <= capacityGPUs {
			break
		}
		accepted := 0
		for b := range a.states {
			st := &a.states[b]
			// The output never overtakes the input, so compact in place.
			nodes, out := st.nodes, st.nodes[:0]
			for i := 0; i < len(nodes); i++ {
				canMerge := i+1 < len(nodes) &&
					len(nodes[i].jobs)+len(nodes[i+1].jobs) <= maxSize &&
					(unconstrained || demand > capacityGPUs)
				if canMerge {
					out = append(out, a.merge(nodes[i], nodes[i+1]))
					demand -= st.gpus
					accepted++
					i++
				} else {
					out = append(out, nodes[i])
				}
			}
			st.nodes = out
		}
		if accepted == 0 {
			break
		}
	}
}

// finalizeInto computes the execution plan for a finished node and writes
// its members, in plan order, into jobs; order (same length) becomes the
// plan's permutation, which after the reordering is the identity, so
// Group.Jobs[i] always has offset i.
func (c Config) finalizeInto(n *node, gpus int, jobs []*job.Job, order []int) Group {
	var perm [interleave.MaxGroupSize]int8
	plan := interleave.Plan{Order: order}
	if c.WorstOrdering {
		worst := c.Interleave.PlanGroup(n.profiles, true)
		for pos, idx := range worst.Order {
			perm[pos] = int8(idx)
		}
		plan.IterTime, plan.Efficiency = worst.IterTime, worst.Efficiency
	} else {
		perm, plan.IterTime, plan.Efficiency = c.Cache.PlanOrder(c.Interleave, c.classes(n), n.profiles)
	}
	for pos := range jobs {
		jobs[pos] = n.jobs[perm[pos]]
		order[pos] = pos
	}
	return Group{Jobs: jobs, Plan: plan, GPUs: gpus}
}

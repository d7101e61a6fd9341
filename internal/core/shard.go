package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"muri/internal/blossom"
	"muri/internal/job"
)

// Sharding defaults. Sharding cuts the quadratic pair-evaluation and the
// cubic Blossom cost by the shard count even on one core (S shards of
// n/S nodes evaluate n²/S pairs instead of n²), and the shard tasks run
// concurrently on multicore hosts. Small buckets are matched whole:
// splitting them saves little and costs matching quality.
const (
	// shardNodeThreshold is the bucket node count at or above which
	// sharding engages.
	shardNodeThreshold = 32
	// minShardNodes caps the shard count so every shard keeps enough
	// nodes for the matcher to have real choices (quality bound: one
	// sharded sweep keeps ≥ 96% of the exact matching weight,
	// TestShardedMatchingWeightBound).
	minShardNodes = 16
)

// shardCount resolves the configured shard count.
func (c Config) shardCount() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return 1
}

// effectiveShards returns how many shards an n-node bucket is split into:
// 1 below the threshold, and never so many that shards drop below
// minShardNodes expected nodes.
func (c Config) effectiveShards(n int) int {
	s := c.shardCount()
	if s <= 1 || n < shardNodeThreshold {
		return 1
	}
	if max := n / minShardNodes; s > max {
		s = max
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardOf assigns a node (by its minimum member job ID) to a shard with a
// splitmix64-style hash salted by the bucket's merge epoch. The epoch
// advances only when merges are applied, so the partition is stable while
// the bucket is unchanged (its shards hit the PlanState memo) and
// reshuffles — the cross-shard rebalance pass — exactly when the node set
// changes, giving pairs split by the previous partition a chance to meet.
func shardOf(id job.ID, epoch uint64, shards int) int {
	x := uint64(id) + 0x9e3779b97f4a7c15*(epoch+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// minJobID returns the smallest member job ID — stable across merges and
// independent of arrival order, which keeps shard assignment
// deterministic for a given node set.
func minJobID(n *node) job.ID {
	min := n.jobs[0].ID
	for _, j := range n.jobs[1:] {
		if j.ID < min {
			min = j.ID
		}
	}
	return min
}

// bucketState carries one GPU bucket through the multi-round planner. It
// lives in the plan's arena (nil for a state built outside a plan, whose
// scratch then comes from the heap).
type bucketState struct {
	gpus  int
	nodes []*node
	arena *planArena
	// want is the node count the bucket is carved for.
	want int
	// epoch counts merges applied to this bucket (the shard rebalance
	// salt).
	epoch uint64
	// props is this sweep's proposal stream; acceptance marks it in place.
	props []cachedProp
}

// sweepProposals runs edge construction and Blossom matching over the
// bucket for one sweep, splitting large buckets into deterministic shards
// that run as tasks on up to GOMAXPROCS goroutines, each writing its
// matches into its own window of the arena (fanOut). Shard streams are
// concatenated in shard order, so the result is a pure function of (nodes,
// epoch, config) regardless of worker interleaving, and Shards=1 — or any
// bucket below the threshold — follows the exact unsharded path. Every
// matching goes through matchShard, so a PlanState's memo serves each
// shard whose nodes it has seen. The returned stream is freshly allocated.
func (c Config) sweepProposals(st *bucketState) []cachedProp {
	shards := c.effectiveShards(len(st.nodes))
	if shards <= 1 {
		return c.matchShard(st.nodes, nil, nil)
	}
	a := st.arena
	if a == nil {
		a = new(planArena)
	}
	a.parts = sized(a.parts, shards)
	for s := range a.parts {
		a.parts[s] = a.parts[s][:0]
	}
	for i, nd := range st.nodes {
		s := shardOf(minJobID(nd), st.epoch, shards)
		a.parts[s] = append(a.parts[s], int32(i))
	}
	if ps := c.Planner; ps != nil {
		ps.tasks.Add(uint64(shards))
	}
	// A shard of k nodes matches at most k/2 pairs.
	a.results, a.props = sized(a.results, shards), sized(a.props, len(st.nodes)/2)
	off := 0
	for s, part := range a.parts {
		a.results[s] = a.props[off : off : off+len(part)/2]
		off += len(part) / 2
	}
	parts, results := a.parts, a.results
	fanOut(shards, func(i int) {
		results[i] = c.matchShard(st.nodes, parts[i], results[i])
	})
	// Close the gaps between the windows; each moves left or not at all.
	out := a.props[:0]
	for _, r := range results {
		out = append(out, r...)
	}
	return c.rebalance(st, a, out)
}

// fanOut runs the shard tasks fn(0), …, fn(n-1) on up to GOMAXPROCS
// goroutines, handing out indices dynamically (shards differ in size, so a
// static split would leave workers idle); on one P it runs serially on the
// caller's goroutine. Callers write results into slots indexed by i, so the
// outcome does not depend on worker interleaving.
func fanOut(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// rebalance is the cheap cross-shard pass that holds the sharded
// matching weight at ≥ 96% of the exact one (TestShardedMatchingWeightBound;
// the epoch reshuffle between sweeps is its long-range
// complement). Nodes their shard left unmatched, plus the nodes of the
// weakest eighth of the matched pairs, get one global re-match. The
// dissolved pairs are themselves a feasible matching of that subset, so
// max-weight matching over it can only improve the total weight; the
// subset is an eighth of the bucket, so the extra cost is n²/128 pair
// evaluations against the n²/2S the shards already paid.
func (c Config) rebalance(st *bucketState, a *planArena, out []cachedProp) []cachedProp {
	// matched[i]: node i sits in a pair that is kept.
	matched := sized(a.matched, len(st.nodes))
	clear(matched)
	for _, p := range out {
		matched[p.u], matched[p.v] = true, true
	}
	weak := len(out) / 8
	if weak > 0 {
		a.byWeight = sized(a.byWeight, len(out))
		for i := range a.byWeight {
			a.byWeight[i] = int32(i)
		}
		slices.SortFunc(a.byWeight, func(x, y int32) int {
			px, py := out[x], out[y]
			return cmp.Or(cmp.Compare(px.weight, py.weight), cmp.Compare(px.u, py.u), cmp.Compare(px.v, py.v))
		})
		for _, i := range a.byWeight[:weak] {
			matched[out[i].u], matched[out[i].v] = false, false
		}
	}
	left := a.left[:0]
	for i, m := range matched {
		if !m {
			left = append(left, int32(i))
		}
	}
	a.matched, a.left = matched, left
	var again []cachedProp
	if len(left) >= 2 {
		a.rematch = sized(a.rematch, len(left)/2)
		again = c.matchShard(st.nodes, left, a.rematch[:0])
	}
	stream := make([]cachedProp, 0, len(out)-weak+len(again))
	for _, p := range out {
		if matched[p.u] {
			stream = append(stream, p)
		}
	}
	return append(stream, again...)
}

// matchShard is the core of one bucket-sweep over the sub-bucket selected
// by idx (ascending; nil selects all of nodes): build the gain-gated
// grouping graph, run Blossom, and append the matched pairs to dst (a fresh
// stream when nil) in deterministic u-major edge order, by bucket-global
// node index, with their recorded weights and gains. With a PlanState the
// matching comes from the memo when these nodes' contents were matched
// this plan or the last.
func (c Config) matchShard(nodes []*node, idx []int32, dst []cachedProp) []cachedProp {
	s := scratchPool.Get().(*graphScratch)
	defer scratchPool.Put(s)
	if idx != nil {
		s.sub = sized(s.sub, len(idx))
		for k, i := range idx {
			s.sub[k] = nodes[i]
		}
		nodes = s.sub
		defer clear(s.sub) // a pooled scratch pins no node
	}
	if len(nodes) < 2 {
		return dst
	}
	ps, hit := c.Planner, false
	if ps != nil {
		s.key = c.memoKey(nodes, s.key)
		s.pairs, hit = ps.lookup(s.key, s.pairs[:0])
	}
	if !hit {
		s.pairs = c.matchPairs(nodes, s)
		if ps != nil {
			ps.store(s.key, s.pairs)
		}
	}
	if len(s.pairs) == 0 {
		return dst
	}
	if dst == nil {
		dst = make([]cachedProp, 0, len(s.pairs))
	}
	for _, p := range s.pairs {
		if idx != nil {
			p.u, p.v = idx[p.u], idx[p.v]
		}
		dst = append(dst, p)
	}
	return dst
}

// matchPairs builds the grouping graph over nodes and matches it, writing
// the matched pairs, by index into nodes, over s.pairs.
func (c Config) matchPairs(nodes []*node, s *graphScratch) []cachedProp {
	pairs := s.pairs[:0]
	edges, gains := c.bucketGraph(nodes, s)
	if len(edges) == 0 {
		return pairs
	}
	s.mate = blossom.MatchPooledInto(s.mate, len(nodes), edges, false)
	for k, e := range edges {
		if s.mate[e.I] == e.J {
			pairs = append(pairs, cachedProp{u: int32(e.I), v: int32(e.J), weight: e.Weight, gain: gains[k]})
		}
	}
	return pairs
}

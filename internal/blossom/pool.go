package blossom

import (
	"sync"
	"sync/atomic"

	"muri/internal/metrics"
)

// matcherPool recycles Matcher state across MatchPooledInto calls. The
// grouping planner matches every GPU bucket every round every scheduling
// interval; recycling keeps the ~15 state slices warm instead of
// reallocating them per call.
var (
	matcherPool = sync.Pool{New: func() any {
		poolNews.Add(1)
		return new(Matcher)
	}}
	poolGets atomic.Uint64
	poolNews atomic.Uint64
)

// MatchPooledInto is MaxWeightMatching on pool-backed reusable state, with
// mate written into dst's backing array when it has the capacity (see
// Matcher.SolveInto; a nil dst gets a fresh one). The matching is
// bit-identical to the one-shot form (Reset restores exact
// fresh-construction state; see TestMatchPooledEquivalence). The caller's
// edges slice is read during the call only — the pooled matcher drops its
// reference before returning. The grouping planner keeps one mate buffer
// per edge-construction scratch.
func MatchPooledInto(dst []int, n int, edges []Edge, maxCardinality bool) []int {
	poolGets.Add(1)
	m := matcherPool.Get().(*Matcher)
	m.Reset(n, edges)
	out := m.SolveInto(dst, maxCardinality)
	m.edges = nil
	matcherPool.Put(m)
	return out
}

// PoolStats snapshots the matcher-pool counters: Gets counts
// MatchPooledInto calls, News the subset that had to construct a fresh Matcher. The
// difference is the number of calls that reused recycled state.
func PoolStats() metrics.MatcherPoolStats {
	return metrics.MatcherPoolStats{Gets: poolGets.Load(), News: poolNews.Load()}
}

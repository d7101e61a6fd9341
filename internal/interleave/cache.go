package interleave

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"muri/internal/metrics"
	"muri/internal/workload"
)

// DefaultCacheEntries is the per-generation size bound of an EffCache
// built with NewEffCache(0). Two generations are resident at once, so the
// worst-case footprint is 2× this many entries (~150 B each).
const DefaultCacheEntries = 1 << 15

// effKey canonically identifies a group-statistics computation: the
// multiset of member profiles (sorted, so member order is irrelevant)
// plus the contention overhead they were inflated with. The key is the
// profile contents, not the job, so memoization across Blossom rounds and
// scheduling intervals stays sound when an estimator rewrites a job's
// profile: the job simply maps to another key.
type effKey struct {
	n        int
	overhead float64
	profiles [MaxGroupSize]workload.StageTimes
}

// effEntry is a memoized best-ordering result. Only the scalar statistics
// are stored: for a fixed profile multiset, efficiency is a strictly
// decreasing function of iteration time (γ = Σ used / (k·T) with Σ used
// fixed), so (T, γ) is unique across member orderings — the permutation
// itself is not, and is memoized separately by ordered tuple (PlanGroup).
type effEntry struct {
	iterTime time.Duration
	eff      float64
}

// Classes is the class-ID tuple of a group's members (see EffCache.Class)
// in member order. IDs start at 1; zero marks an unused slot, so the zero
// value means "not classified".
type Classes [MaxGroupSize]uint32

// planKey identifies a best-ordering plan: the chosen permutation depends
// on member order, so the tuple is ordered, not a multiset.
type planKey struct {
	overhead float64
	cls      Classes
}

// planEntry is a memoized Plan with the permutation held by value, so
// every hit hands out its own Order slice.
type planEntry struct {
	order    [MaxGroupSize]int8
	iterTime time.Duration
	eff      float64
}

// EffCache memoizes best-ordering group statistics — the quantity behind
// PairEfficiency edge weights, node γ/T statistics, and the JCT merge
// gate — keyed by the canonical profile multiset. It is safe for
// concurrent use by the planner's shard tasks.
//
// The size bound uses two generations (à la fastcache): inserts go to the
// current generation; when it fills, the previous generation is dropped
// and the current one rotates into its place. Hits in the old generation
// re-promote the entry, so hot keys survive rotation. Resident entries
// never exceed 2× the configured bound.
//
// Determinism invariant: a cached value is always bit-identical to the
// fresh computation, so cache state (including which entries were
// evicted) can never change a scheduling decision — only its cost.
//
// The cache also interns stage-time vectors into class IDs (Class) and
// memoizes best-ordering plans by ordered class tuple (PlanGroup). Both
// maps are created on first use and dropped whole at the size bound; class
// IDs are never reused, so an ID denotes the same profile for the cache's
// lifetime and a dropped interner only costs re-interning.
type EffCache struct {
	mu        sync.RWMutex
	max       int
	cur       map[effKey]effEntry
	old       map[effKey]effEntry
	classes   map[workload.StageTimes]uint32
	lastClass uint32
	plans     map[planKey]planEntry

	hits atomic.Uint64
	miss atomic.Uint64
	evic atomic.Uint64
}

// NewEffCache returns a cache bounded to maxEntries per generation
// (≤ 2·maxEntries resident). maxEntries ≤ 0 uses DefaultCacheEntries.
func NewEffCache(maxEntries int) *EffCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &EffCache{max: maxEntries, cur: make(map[effKey]effEntry)}
}

// lessStages orders stage-time vectors lexicographically in canonical
// resource order.
func lessStages(a, b workload.StageTimes) bool {
	for r := 0; r < workload.NumResources; r++ {
		if a[r] != b[r] {
			return a[r] < b[r]
		}
	}
	return false
}

// canonicalKey builds the sorted-multiset key for a group of profiles.
func canonicalKey(overhead float64, times []workload.StageTimes) effKey {
	k := effKey{n: len(times), overhead: overhead}
	copy(k.profiles[:], times)
	// Insertion sort: groups have at most MaxGroupSize (4) members.
	for i := 1; i < k.n; i++ {
		for j := i; j > 0 && lessStages(k.profiles[j], k.profiles[j-1]); j-- {
			k.profiles[j], k.profiles[j-1] = k.profiles[j-1], k.profiles[j]
		}
	}
	return k
}

// GroupStats returns the best-ordering iteration time and efficiency of
// the group under cfg's contention model, memoizing by profile multiset.
// A nil receiver computes fresh (no caching), so callers need not guard.
func (ec *EffCache) GroupStats(cfg Config, times []workload.StageTimes) (time.Duration, float64) {
	if ec == nil {
		_, t, eff := BestOrdering(cfg.Inflate(times))
		return t, eff
	}
	key := canonicalKey(cfg.Overhead, times)
	ec.mu.RLock()
	e, ok := ec.cur[key]
	inOld := false
	if !ok {
		e, ok = ec.old[key]
		inOld = ok
	}
	ec.mu.RUnlock()
	if ok {
		ec.hits.Add(1)
		if inOld {
			// Re-promote so hot keys survive the next rotation.
			ec.put(key, e)
		}
		return e.iterTime, e.eff
	}
	ec.miss.Add(1)
	_, t, eff := BestOrdering(cfg.Inflate(times))
	ec.put(key, effEntry{iterTime: t, eff: eff})
	return t, eff
}

// put inserts into the current generation, rotating generations when the
// size bound is reached. Concurrent duplicate computes are idempotent:
// every writer stores the same bit-identical value for a given key.
func (ec *EffCache) put(key effKey, e effEntry) {
	ec.mu.Lock()
	if len(ec.cur) >= ec.max {
		ec.evic.Add(uint64(len(ec.old)))
		ec.old = ec.cur
		ec.cur = make(map[effKey]effEntry, ec.max)
	}
	ec.cur[key] = e
	ec.mu.Unlock()
}

// Class interns a stage-time vector: equal vectors get equal IDs, distinct
// vectors distinct ones. The values depend on interning order and carry no
// meaning beyond equality. A nil receiver returns 0 (not classified).
func (ec *EffCache) Class(p workload.StageTimes) uint32 {
	if ec == nil {
		return 0
	}
	ec.mu.RLock()
	id, ok := ec.classes[p]
	ec.mu.RUnlock()
	if ok {
		return id
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if id, ok := ec.classes[p]; ok {
		return id
	}
	if ec.classes == nil || len(ec.classes) >= ec.max {
		ec.classes = make(map[workload.StageTimes]uint32)
	}
	ec.lastClass++
	ec.classes[p] = ec.lastClass
	return ec.lastClass
}

// PlanGroup is the memoized form of Config.PlanGroup with the best
// ordering. cls must hold the classes of times, in the same order; a nil
// receiver or an unclassified tuple computes fresh.
func (ec *EffCache) PlanGroup(cfg Config, cls Classes, times []workload.StageTimes) Plan {
	if ec == nil || cls[0] == 0 {
		return cfg.PlanGroup(times, false)
	}
	key := planKey{overhead: cfg.Overhead, cls: cls}
	ec.mu.RLock()
	e, ok := ec.plans[key]
	ec.mu.RUnlock()
	if ok {
		ec.hits.Add(1)
		order := make(Ordering, len(times))
		for i := range order {
			order[i] = int(e.order[i])
		}
		return Plan{Order: order, IterTime: e.iterTime, Efficiency: e.eff}
	}
	ec.miss.Add(1)
	plan := cfg.PlanGroup(times, false)
	e = planEntry{iterTime: plan.IterTime, eff: plan.Efficiency}
	for i, idx := range plan.Order {
		e.order[i] = int8(idx)
	}
	ec.mu.Lock()
	if ec.plans == nil || len(ec.plans) >= ec.max {
		ec.plans = make(map[planKey]planEntry)
	}
	ec.plans[key] = e
	ec.mu.Unlock()
	return plan
}

// PairEfficiency is the memoized form of Config.PairEfficiency: the
// best-ordering interleaving efficiency of the union of two candidate
// member sets, or -Inf when the union exceeds MaxGroupSize. A nil
// receiver computes fresh.
func (ec *EffCache) PairEfficiency(cfg Config, a, b []workload.StageTimes) float64 {
	n := len(a) + len(b)
	if n > MaxGroupSize {
		return math.Inf(-1)
	}
	var buf [MaxGroupSize]workload.StageTimes
	copy(buf[:], a)
	copy(buf[len(a):], b)
	_, eff := ec.GroupStats(cfg, buf[:n])
	return eff
}

// Stats snapshots the cache counters. Safe on a nil receiver.
func (ec *EffCache) Stats() metrics.CacheStats {
	if ec == nil {
		return metrics.CacheStats{}
	}
	ec.mu.RLock()
	entries := len(ec.cur) + len(ec.old) + len(ec.plans)
	ec.mu.RUnlock()
	return metrics.CacheStats{
		Hits:      ec.hits.Load(),
		Misses:    ec.miss.Load(),
		Evictions: ec.evic.Load(),
		Entries:   entries,
	}
}

package interleave

import (
	"sync"
	"sync/atomic"
	"time"

	"muri/internal/metrics"
	"muri/internal/workload"
)

// DefaultCacheEntries is the per-generation size bound of an EffCache
// built with NewEffCache(0). Two generations are resident at once, so the
// worst-case footprint is 2× this many entries (~40 B each).
const DefaultCacheEntries = 1 << 15

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

// MergeSorted merges two canonical tuples — ascending, unused (zero) slots
// at the tail — of na and nb members (na+nb ≤ MaxGroupSize) into the
// canonical tuple of their union, the key of the statistics memo.
func MergeSorted(a Classes, na int, b Classes, nb int) Classes {
	var out Classes
	i, j := 0, 0
	for k := 0; k < na+nb; k++ {
		if j == nb || (i < na && a[i] <= b[j]) {
			out[k], i = a[i], i+1
		} else {
			out[k], j = b[j], j+1
		}
	}
	return out
}

// tupleKey identifies a memoized computation over a group: its class
// tuple plus the contention overhead the profiles were inflated with. The
// statistics memo keys by the canonical (sorted) tuple, so member order is
// irrelevant; the plan memo keys by the tuple in member order, because the
// chosen permutation depends on it. Class IDs are never reused, so a tuple
// denotes the same profiles for the cache's lifetime — that is what lets
// 24 bytes of IDs stand in for the profile contents — and a job whose
// profile is rewritten interns to another class, so it maps to another key.
type tupleKey struct {
	overhead float64
	cls      Classes
}

// planEntry is a memoized Plan with the permutation held by value, so
// every hit hands out its own Order.
type planEntry struct {
	order    [MaxGroupSize]int8
	iterTime time.Duration
	eff      float64
}

// EffCache memoizes what the grouping path computes from profiles, in
// three layers: an interner from stage-time vectors to class IDs (Class),
// best-ordering group statistics — the quantity behind Config.PairEfficiency
// edge weights, node γ/T statistics, and the JCT merge gate — keyed by the
// group's sorted class tuple, and best-ordering plans keyed by its ordered
// tuple (PlanGroup). It is safe for concurrent use by the planner's shard
// tasks. All maps are created on first use.
//
// The statistics memo's size bound uses two generations (à la fastcache):
// inserts go to the current generation; when it fills, the previous
// generation is dropped and the current one rotates into its place. Hits
// in the old generation re-promote the entry, so hot keys survive
// rotation. Resident entries never exceed 2× the configured bound. The
// interner and the plan memo are dropped whole at the bound; a dropped
// interner hands the same profile a new ID, which only costs the
// recomputation of what was memoized under the old one.
//
// Determinism invariant: a cached value is always bit-identical to the
// fresh computation, so cache state (including which entries were
// evicted) can never change a scheduling decision — only its cost.
type EffCache struct {
	mu        sync.RWMutex
	max       int
	cur       map[tupleKey]effEntry
	old       map[tupleKey]effEntry
	classes   map[workload.StageTimes]uint32
	lastClass uint32
	plans     map[tupleKey]planEntry

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
	return &EffCache{max: maxEntries}
}

// Batch is an EffCache held under its lock for a run of statistics
// lookups — one grouping sweep's class-pair table — so the run pays for
// the lock and the counters once, not per cell. Between Begin and End the
// goroutine must call no other method of the cache.
type Batch struct {
	ec         *EffCache
	cfg        Config
	hits, miss uint64
}

// Begin locks the cache for a run of lookups under cfg's contention model.
func (ec *EffCache) Begin(cfg Config) Batch {
	ec.mu.Lock()
	return Batch{ec: ec, cfg: cfg}
}

// Stats returns the best-ordering iteration time and efficiency of the
// group with the given canonical class tuple (MergeSorted of the members'
// Class IDs) and profiles, which may come in any member order.
func (b *Batch) Stats(sorted Classes, times []workload.StageTimes) (time.Duration, float64) {
	ec := b.ec
	key := tupleKey{overhead: b.cfg.Overhead, cls: sorted}
	if e, ok := ec.cur[key]; ok {
		b.hits++
		return e.iterTime, e.eff
	}
	e, ok := ec.old[key]
	if ok {
		b.hits++ // re-promoted below, so hot keys survive the next rotation
	} else {
		b.miss++
		_, e.iterTime, e.eff = BestOrdering(b.cfg.Inflate(times))
	}
	if ec.cur == nil {
		ec.cur = make(map[tupleKey]effEntry)
	} else if len(ec.cur) >= ec.max {
		ec.evic.Add(uint64(len(ec.old)))
		ec.old = ec.cur
		ec.cur = make(map[tupleKey]effEntry, ec.max)
	}
	ec.cur[key] = e
	return e.iterTime, e.eff
}

// End releases the cache and publishes the run's hit and miss counts.
func (b *Batch) End() {
	b.ec.mu.Unlock()
	b.ec.hits.Add(b.hits)
	b.ec.miss.Add(b.miss)
}

// GroupStats returns the best-ordering iteration time and efficiency of
// the group under cfg's contention model, memoizing by the multiset of the
// members' classes.
func (ec *EffCache) GroupStats(cfg Config, times []workload.StageTimes) (time.Duration, float64) {
	var key Classes
	b := ec.Begin(cfg)
	for i, p := range times {
		key = MergeSorted(key, i, Classes{ec.classLocked(p)}, 1)
	}
	t, eff := b.Stats(key, times)
	b.End()
	return t, eff
}

// Class interns a stage-time vector: equal vectors get equal IDs, distinct
// vectors distinct ones. The values depend on interning order and carry no
// meaning beyond equality; an ID is never handed out twice, so it denotes
// the same vector for the cache's lifetime.
func (ec *EffCache) Class(p workload.StageTimes) uint32 {
	ec.mu.RLock()
	id, ok := ec.classes[p]
	ec.mu.RUnlock()
	if ok {
		return id
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.classLocked(p)
}

func (ec *EffCache) classLocked(p workload.StageTimes) uint32 {
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
// ordering. cls must hold the classes (Class) of times, in the same order.
func (ec *EffCache) PlanGroup(cfg Config, cls Classes, times []workload.StageTimes) Plan {
	perm, t, eff := ec.PlanOrder(cfg, cls, times)
	order := make(Ordering, len(times))
	for i := range order {
		order[i] = int(perm[i])
	}
	return Plan{Order: order, IterTime: t, Efficiency: eff}
}

// PlanOrder is PlanGroup with the permutation returned by value: member
// perm[i] runs with stage offset i. It is what the planner calls, once per
// group per plan, so a hit allocates nothing.
func (ec *EffCache) PlanOrder(cfg Config, cls Classes, times []workload.StageTimes) (perm [MaxGroupSize]int8, iterTime time.Duration, eff float64) {
	key := tupleKey{overhead: cfg.Overhead, cls: cls}
	ec.mu.RLock()
	e, ok := ec.plans[key]
	ec.mu.RUnlock()
	if ok {
		ec.hits.Add(1)
		return e.order, e.iterTime, e.eff
	}
	ec.miss.Add(1)
	plan := cfg.PlanGroup(times, false)
	e = planEntry{iterTime: plan.IterTime, eff: plan.Efficiency}
	for i, idx := range plan.Order {
		e.order[i] = int8(idx)
	}
	ec.mu.Lock()
	if ec.plans == nil || len(ec.plans) >= ec.max {
		ec.plans = make(map[tupleKey]planEntry)
	}
	ec.plans[key] = e
	ec.mu.Unlock()
	return e.order, e.iterTime, e.eff
}

// Stats snapshots the cache counters.
func (ec *EffCache) Stats() metrics.CacheStats {
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

package interleave

import (
	"math/rand"
	"testing"
	"time"

	"muri/internal/workload"
)

// randProfile draws a random stage-time vector; zeros are common in real
// profiles (A2C has no storage stage), so include them.
func randProfile(rng *rand.Rand) workload.StageTimes {
	var s workload.StageTimes
	for r := 0; r < workload.NumResources; r++ {
		if rng.Intn(8) == 0 {
			continue // leave the stage at zero
		}
		s[r] = time.Duration(rng.Intn(100_000)) * time.Microsecond
	}
	return s
}

// TestCacheMatchesFresh is the property test guarding the memoization:
// over randomized profile multisets, the cached GroupStats must equal fresh
// computation exactly (==, not within an epsilon — the determinism
// invariant requires bit-identical values), both on the miss path and on
// the hit path, and its efficiency must equal the edge weight
// Config.PairEfficiency gives any split of the multiset.
func TestCacheMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cache := NewEffCache(0)
	for trial := 0; trial < 2000; trial++ {
		cfg := Config{Overhead: []float64{0, 0.08, 0.2}[rng.Intn(3)]}
		n := 1 + rng.Intn(MaxGroupSize)
		times := make([]workload.StageTimes, n)
		for i := range times {
			times[i] = randProfile(rng)
		}
		_, wantT, wantEff := BestOrdering(cfg.Inflate(times))
		for pass := 0; pass < 2; pass++ { // miss path, then hit path
			gotT, gotEff := cache.GroupStats(cfg, times)
			if gotT != wantT || gotEff != wantEff {
				t.Fatalf("trial %d pass %d: GroupStats = (%v, %v), fresh = (%v, %v)",
					trial, pass, gotT, gotEff, wantT, wantEff)
			}
		}
		split := rng.Intn(n + 1)
		want := cfg.PairEfficiency(times[:split], times[split:])
		if _, got := cache.GroupStats(cfg, times); got != want {
			t.Fatalf("trial %d: GroupStats efficiency = %v, PairEfficiency of split %d = %v", trial, got, split, want)
		}
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("test exercised only one path: %+v", st)
	}
}

// TestCacheOrderIndependence checks the canonical-key claim: member order
// never changes the memoized statistics, and a cache warmed in one order
// answers queries in any other order with the same exact values.
func TestCacheOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Overhead: 0.08}
	for trial := 0; trial < 500; trial++ {
		cache := NewEffCache(0)
		n := 2 + rng.Intn(MaxGroupSize-1)
		times := make([]workload.StageTimes, n)
		for i := range times {
			times[i] = randProfile(rng)
		}
		baseT, baseEff := cache.GroupStats(cfg, times)
		perm := rng.Perm(n)
		permuted := make([]workload.StageTimes, n)
		for i, p := range perm {
			permuted[i] = times[p]
		}
		gotT, gotEff := cache.GroupStats(cfg, permuted)
		if gotT != baseT || gotEff != baseEff {
			t.Fatalf("trial %d: permuted lookup (%v, %v) != original (%v, %v)",
				trial, gotT, gotEff, baseT, baseEff)
		}
		_, wantT, wantEff := BestOrdering(cfg.Inflate(permuted))
		if gotT != wantT || gotEff != wantEff {
			t.Fatalf("trial %d: cached (%v, %v) != fresh permuted (%v, %v)",
				trial, gotT, gotEff, wantT, wantEff)
		}
	}
}

// TestCacheOverheadKeying ensures distinct contention configurations do
// not alias: the overhead is part of the key.
func TestCacheOverheadKeying(t *testing.T) {
	cache := NewEffCache(0)
	times := []workload.StageTimes{
		{60 * time.Millisecond, 18 * time.Millisecond, 6 * time.Millisecond, 2 * time.Millisecond},
		{time.Millisecond, 2 * time.Millisecond, 80 * time.Millisecond, 30 * time.Millisecond},
	}
	t0, _ := cache.GroupStats(Config{Overhead: 0}, times)
	t1, _ := cache.GroupStats(Config{Overhead: 0.2}, times)
	// Contention inflates every stage, so the iteration time must differ
	// (γ is scale-invariant, so it cannot distinguish the two).
	if t0 == t1 {
		t.Fatalf("overhead not keyed: iteration time %v under both configs", t0)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("expected two distinct keys, stats %+v", st)
	}
}

// TestCacheBounded fills a small cache far past its limit and checks the
// resident set respects the two-generation bound, entries are evicted,
// and values remain correct afterwards — the guard against unbounded
// growth on 5755-job traces with per-job noisy profiles.
func TestCacheBounded(t *testing.T) {
	const max = 16
	cache := NewEffCache(max)
	cfg := Config{Overhead: 0.08}
	rng := rand.New(rand.NewSource(99))
	var keys [][]workload.StageTimes
	for i := 0; i < 40*max; i++ {
		times := []workload.StageTimes{randProfile(rng), randProfile(rng)}
		keys = append(keys, times)
		cache.GroupStats(cfg, times)
		if got := cache.Stats().Entries; got > 2*max {
			t.Fatalf("after %d inserts: %d entries resident, bound is %d", i+1, got, 2*max)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite %d distinct keys with bound %d", len(keys), max)
	}
	// Post-eviction queries (mixed hits and recomputes) still match fresh.
	for _, times := range keys[len(keys)-3*max:] {
		_, wantT, wantEff := BestOrdering(cfg.Inflate(times))
		gotT, gotEff := cache.GroupStats(cfg, times)
		if gotT != wantT || gotEff != wantEff {
			t.Fatalf("post-eviction mismatch: (%v, %v) != (%v, %v)", gotT, gotEff, wantT, wantEff)
		}
	}
}

// TestTupleMemoMatchesFresh is the soundness property of keying the
// statistics memo by class IDs instead of profile contents: over random
// multisets from a pool larger than a tiny cache's bound — so the interner
// is dropped and the generations rotate many times — every member order of
// every multiset reads exactly the fresh BestOrdering statistics, through
// GroupStats and through an explicit Batch; an ID is never handed to two
// profiles; and a member whose profile is rewritten reads the statistics
// of the new contents.
func TestTupleMemoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cache := NewEffCache(16)
	cfg := Config{Overhead: 0.08}
	pool := make([]workload.StageTimes, 40)
	for i := range pool {
		pool[i] = randProfile(rng)
	}
	owner := map[uint32]workload.StageTimes{}
	check := func(trial int, times []workload.StageTimes) {
		t.Helper()
		_, wantT, wantEff := BestOrdering(cfg.Inflate(times))
		if gotT, gotEff := cache.GroupStats(cfg, times); gotT != wantT || gotEff != wantEff {
			t.Fatalf("trial %d: GroupStats(%v) = (%v, %v), fresh (%v, %v)", trial, times, gotT, gotEff, wantT, wantEff)
		}
		var key Classes
		for i, p := range times {
			id := cache.Class(p)
			if prev, ok := owner[id]; ok && prev != p {
				t.Fatalf("trial %d: class %d handed to %v and to %v", trial, id, prev, p)
			}
			owner[id] = p
			key = MergeSorted(key, i, Classes{id}, 1)
		}
		b := cache.Begin(cfg)
		gotT, gotEff := b.Stats(key, times)
		b.End()
		if gotT != wantT || gotEff != wantEff {
			t.Fatalf("trial %d: Batch.Stats(%v) = (%v, %v), fresh (%v, %v)", trial, key, gotT, gotEff, wantT, wantEff)
		}
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(MaxGroupSize)
		times := make([]workload.StageTimes, n)
		for i := range times {
			times[i] = pool[rng.Intn(len(pool))]
		}
		permutations(n, func(perm []int) bool {
			check(trial, Ordering(perm).Apply(times))
			return true
		})
		// An estimator rewrites one member's profile in place.
		times[rng.Intn(n)] = randProfile(rng)
		check(trial, times)
	}
	if st := cache.Stats(); st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("test never rotated a generation or never hit: %+v", st)
	}
}

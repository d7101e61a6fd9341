package blossom

import (
	"math/rand"
	"testing"
)

// equalMates reports whether two mate arrays are identical elementwise.
func equalMates(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMatchPooledEquivalence is the pooling contract's property test: a
// pooled matcher — whose state is recycled across arbitrarily many prior
// solves of unrelated graphs — must return a mate array identical to the
// one-shot MaxWeightMatching on every input. 300 random graphs spanning
// sparse and complete shapes, both cardinality modes.
func TestMatchPooledEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(40)
		var edges []Edge
		if trial%3 == 0 {
			// Complete graph with efficiency-like weights.
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					edges = append(edges, Edge{i, j, rng.Float64()})
				}
			}
		} else {
			edges = randomGraph(rng, n, 4*n, trial%2 == 0)
		}
		maxCard := trial%5 == 0
		want := MaxWeightMatching(n, edges, maxCard)
		got := MatchPooledInto(nil, n, edges, maxCard)
		if !equalMates(got, want) {
			t.Fatalf("trial %d: pooled mate differs\none-shot: %v\npooled:   %v\nn=%d edges=%v maxCard=%v",
				trial, want, got, n, edges, maxCard)
		}
	}
	if s := PoolStats(); s.Gets == 0 {
		t.Fatal("pool counters not advancing")
	}
}

// TestMatcherReuseEquivalence drives a single long-lived Matcher through
// 200 consecutive graphs, checking each solve against a fresh one-shot
// run: Reset must restore exact fresh-construction state even after
// solves that leave collapsed blossoms behind.
func TestMatcherReuseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m Matcher
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		edges := randomGraph(rng, n, 3*n, false)
		want := MaxWeightMatching(n, edges, false)
		m.Reset(n, edges)
		got := m.Solve(false)
		if !equalMates(got, want) {
			t.Fatalf("trial %d: reused matcher diverged\nwant %v\ngot  %v", trial, want, got)
		}
	}
}

// TestMatchPooledResultIsFresh pins the no-retained-references contract:
// mutating a returned mate slice must not corrupt a later pooled solve.
func TestMatchPooledResultIsFresh(t *testing.T) {
	edges := []Edge{{0, 1, 2}, {1, 2, 3}, {2, 3, 2}}
	first := MatchPooledInto(nil, 4, edges, false)
	for i := range first {
		first[i] = -99
	}
	second := MatchPooledInto(nil, 4, edges, false)
	want := MaxWeightMatching(4, edges, false)
	if !equalMates(second, want) {
		t.Fatalf("pooled result aliased matcher state: got %v want %v", second, want)
	}
}

// TestWarmSolveAllocatesOnlyResult pins the scratch contract: once a
// Matcher has solved a graph, Reset+Solve on the same graph allocates the
// returned mate slice and nothing else. The graphs are dense enough that
// the solve builds, nests and expands blossoms (integer weights force
// ties), so every scratch buffer is exercised.
func TestWarmSolveAllocatesOnlyResult(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(40)
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) > 0 {
					edges = append(edges, Edge{i, j, float64(1 + rng.Intn(9))})
				}
			}
		}
		var m Matcher
		m.Reset(n, edges)
		want := m.Solve(false)
		allocs := testing.AllocsPerRun(5, func() {
			m.Reset(n, edges)
			if got := m.Solve(false); !equalMates(got, want) {
				t.Fatalf("trial %d: warm solve diverged", trial)
			}
		})
		if allocs != 1 {
			t.Fatalf("trial %d (n=%d, %d edges): warm Reset+Solve allocates %v times, want 1 (the mate slice)",
				trial, n, len(edges), allocs)
		}
	}
}

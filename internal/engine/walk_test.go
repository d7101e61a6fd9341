package engine

import (
	"math/rand"
	"slices"
	"testing"

	"muri/internal/sched"
)

// boostedCopy is the admission order as starvationOrder used to build it:
// a copy of every unit, the boosted ones first, then the stretches of the
// planner's order between them. Kept as the reference.
func boostedCopy(units []sched.Unit, at []int) []sched.Unit {
	var ordered []sched.Unit
	for _, i := range at {
		ordered = append(ordered, units[i])
	}
	from := 0
	for _, i := range at {
		ordered = append(ordered, units[from:i]...)
		from = i + 1
	}
	return append(ordered, units[from:]...)
}

// TestBoostedWalkMatchesCopy: walking "boosted positions, then planner
// order skipping them" visits exactly the units the copied order held, in
// its order, and stops where the visitor says — for no boost, boosts at
// either end, adjacent boosts and everything boosted.
func TestBoostedWalkMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(30)
		units := make([]sched.Unit, n)
		for i := range units {
			units[i].GPUs = i + 1 // identifies the unit
		}
		var at []int
		share := []float64{0, 0.1, 0.5, 1}[trial%4]
		for i := range units {
			if rng.Float64() < share || (trial%8 == 1 && (i == 0 || i == n-1)) {
				at = append(at, i)
			}
		}
		want := boostedCopy(units, at)
		stop := len(want) + 1 // never
		if trial%3 == 0 && len(want) > 0 {
			stop = rng.Intn(len(want))
		}
		want = want[:min(stop+1, len(want))]
		var got []int
		admissionOrder(units, at, func(u sched.Unit) bool {
			got = append(got, u.GPUs)
			return len(got) <= stop
		})
		wantIDs := make([]int, len(want))
		for i, u := range want {
			wantIDs[i] = u.GPUs
		}
		if !slices.Equal(got, wantIDs) {
			t.Fatalf("trial %d: %d units boosted at %v, stop after %d: walked %v, the copy holds %v", trial, n, at, stop, got, wantIDs)
		}
	}
}

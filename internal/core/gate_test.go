package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"muri/internal/job"
)

// jctGainByNodes is the JCT gate written out node by node, as it stood
// before the per-node factors were hoisted: the reference for
// gateTerms.jctGain.
func jctGainByNodes(u, v *node, tu, tv, mergedIter time.Duration) time.Duration {
	mergedSum := time.Duration(u.remSum+v.remSum) * mergedIter
	// Sequential baseline, both orders.
	fu := time.Duration(u.remMax) * tu
	fv := time.Duration(v.remMax) * tv
	su1 := time.Duration(u.remSum) * tu
	sv1 := time.Duration(len(v.jobs))*fu + time.Duration(v.remSum)*tv
	sv2 := time.Duration(v.remSum) * tv
	su2 := time.Duration(len(u.jobs))*fv + time.Duration(u.remSum)*tu
	seq := su1 + sv1
	if alt := su2 + sv2; alt < seq {
		seq = alt
	}
	return seq - mergedSum
}

// TestGateTermsMatchJCTGain checks the hoisted gate pair by pair against
// the node-by-node form, bit for bit, on random nodes whose remaining
// iterations range from a handful to values that wrap int64 when
// multiplied by an iteration time.
func TestGateTermsMatchJCTGain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	randNode := func() *node {
		n := &node{jobs: make([]*job.Job, 1+rng.Intn(3)), remDone: true}
		shift := uint(rng.Intn(62))
		for range n.jobs {
			rem := 1 + rng.Int63n(1<<shift)
			n.remSum += rem
			n.remMax = max(n.remMax, rem)
		}
		return n
	}
	iter := func() time.Duration { return time.Duration(1 + rng.Int63n(int64(10*time.Second))) }
	wrapped, admitted := 0, 0
	for trial := 0; trial < 20_000; trial++ {
		u, v := randNode(), randNode()
		tu, tv, tm := iter(), iter(), iter()
		want := jctGainByNodes(u, v, tu, tv, tm)
		if got := u.gateTerms(tu).jctGain(v.gateTerms(tv), tm); got != want {
			t.Fatalf("trial %d: hoisted gain %d, node-by-node %d (u=%+v v=%+v t=%v/%v/%v)",
				trial, got, want, *u, *v, tu, tv, tm)
		}
		if math.Log2(float64(u.remSum))+math.Log2(float64(tu)) > 63 {
			wrapped++
		}
		if want > 0 {
			admitted++
		}
	}
	if wrapped == 0 || admitted == 0 || admitted == 20_000 {
		t.Fatalf("degenerate sample: %d wrapped products, %d admitted pairs", wrapped, admitted)
	}
}

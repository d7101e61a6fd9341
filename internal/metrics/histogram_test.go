package metrics

import (
	"math"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// le=1: {0.5, 1}; le=2: +{1.5, 2}; le=4: +{3, 4}; +Inf: +{100}.
	want := []uint64{2, 4, 6, 7}
	got := h.Cumulative()
	if len(got) != len(want) {
		t.Fatalf("cumulative has %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 0.5+1+1.5+2+3+4+100 {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestHistogramDeterminism(t *testing.T) {
	mk := func() *Histogram {
		h := NewHistogram(ExponentialBounds(0.001, 2, 12)...)
		for i := 0; i < 1000; i++ {
			h.Observe(float64(i%97) * 0.013)
		}
		return h
	}
	a, b := mk(), mk()
	ca, cb := a.Cumulative(), b.Cumulative()
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("bucket %d diverged: %d vs %d", i, ca[i], cb[i])
		}
	}
	if a.Sum() != b.Sum() || a.Count() != b.Count() {
		t.Fatal("sum/count diverged across identical observation sequences")
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Error("NaN observation was counted")
	}
}

func TestExponentialBounds(t *testing.T) {
	b := ExponentialBounds(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}

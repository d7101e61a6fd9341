package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket cumulative histogram: values are counted
// into the first bucket whose upper bound is ≥ the observation, with an
// implicit +Inf bucket at the end. Buckets are fixed at construction, so
// two histograms observing the same sequence are bit-identical — the
// telemetry layer depends on that determinism (DESIGN.md §9). The zero
// value is unusable; construct with NewHistogram.
type Histogram struct {
	// bounds are the finite bucket upper bounds, strictly ascending.
	bounds []float64
	// counts[i] is the number of observations ≤ bounds[i]; the final
	// element counts observations above every finite bound (+Inf).
	counts []uint64
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over the given finite upper bounds,
// which must be strictly ascending and non-empty. A trailing +Inf bucket
// is implicit and must not be passed.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("metrics: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v after %v", b, bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// ExponentialBounds returns n strictly ascending bounds starting at
// start, each factor× the previous — the usual latency-bucket shape.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: exponential bounds need start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe counts one value. NaN observations are ignored.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the finite bucket upper bounds (callers must not
// mutate the slice).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Cumulative returns, for each finite bound plus the +Inf bucket, the
// number of observations at or below it (the Prometheus `le` semantics).
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		out[i] = run
	}
	return out
}

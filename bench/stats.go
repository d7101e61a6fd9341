package main

import (
	"math"
	"sort"
	"time"
)

// rank is the nearest-rank index of the p-quantile among n sorted
// samples (the convention of internal/metrics.Percentile).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// quantile returns the nearest-rank p-quantile of sorted samples, 0 for
// none. Samples may be +Inf (a job never dispatched misses every limit).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// median leaves xs unsorted.
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to sorted milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// histQuantile estimates the p-quantile of a cumulative histogram by
// linear interpolation inside the owning bucket, the way
// metrics.Histogram.Quantile does. bounds are the finite upper bounds;
// cum has one more entry for +Inf.
func histQuantile(bounds []float64, cum []float64, p float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	target := p * cum[len(cum)-1]
	prev := 0.0
	for i, c := range cum {
		if c >= target && c > prev {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(target-prev)/(c-prev)
		}
		prev = c
	}
	return bounds[len(bounds)-1]
}

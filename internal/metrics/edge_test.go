package metrics

import (
	"testing"
	"time"

	"muri/internal/job"
)

// Degenerate-input coverage: single-sample and all-equal distributions
// hit the rank-arithmetic boundaries of the nearest-rank quantile, and
// empty caches must report a 0 hit rate rather than dividing by zero.

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]*job.Job{doneJob(0, 2*time.Second, 9*time.Second)})
	if s.Jobs != 1 {
		t.Errorf("Jobs = %d, want 1", s.Jobs)
	}
	// With one sample every statistic collapses onto it.
	want := 7 * time.Second
	if s.AvgJCT != want || s.MedianJCT != want || s.P99JCT != want {
		t.Errorf("singleton summary = %+v, want all JCT stats %v", s, want)
	}
	if s.Makespan != want {
		t.Errorf("Makespan = %v, want %v", s.Makespan, want)
	}
}

func TestSummarizeAllEqual(t *testing.T) {
	var jobs []*job.Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, doneJob(i, 0, time.Minute))
	}
	s := Summarize(jobs)
	if s.AvgJCT != time.Minute || s.MedianJCT != time.Minute || s.P99JCT != time.Minute {
		t.Errorf("all-equal summary = %+v, want every JCT stat 1m", s)
	}
	if s.Makespan != time.Minute {
		t.Errorf("Makespan = %v, want 1m", s.Makespan)
	}
}

// TestCDFEmptyFromNilSamples complements TestCDFEmpty (zero value) by
// checking the constructed-from-nothing path behaves identically.
func TestCDFEmptyFromNilSamples(t *testing.T) {
	c := NewCDF(nil)
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
	if got := c.At(time.Hour); got != 0 {
		t.Errorf("At on empty CDF = %v, want 0", got)
	}
	if pts := c.Points(10); pts != nil {
		t.Errorf("Points on empty CDF = %v, want nil", pts)
	}
	if s := c.String(); s != "CDF{empty}" {
		t.Errorf("String = %q", s)
	}
}

func TestCDFSingleton(t *testing.T) {
	c := NewCDF([]time.Duration{10 * time.Second})
	if got := c.At(9 * time.Second); got != 0 {
		t.Errorf("At(9s) = %v, want 0", got)
	}
	if got := c.At(10 * time.Second); got != 1 {
		t.Errorf("At(10s) = %v, want 1", got)
	}
	for _, p := range []float64{0.01, 0.5, 1.0} {
		if got := c.Quantile(p); got != 10*time.Second {
			t.Errorf("Quantile(%v) = %v, want 10s", p, got)
		}
	}
}

func TestCDFAllEqual(t *testing.T) {
	c := NewCDF([]time.Duration{time.Second, time.Second, time.Second, time.Second})
	if got := c.At(time.Second); got != 1 {
		t.Errorf("At(1s) = %v, want 1", got)
	}
	if got := c.At(time.Second - 1); got != 0 {
		t.Errorf("At(just below) = %v, want 0", got)
	}
	if got := c.Quantile(0.5); got != time.Second {
		t.Errorf("median = %v, want 1s", got)
	}
	// Every plotted point sits on the single value.
	for _, pt := range c.Points(4) {
		if pt[0] != 1.0 {
			t.Errorf("point %v, want duration 1s", pt)
		}
	}
}

func TestCacheHitRateZeroLookups(t *testing.T) {
	var s CacheStats
	if s.Lookups() != 0 {
		t.Errorf("Lookups = %d, want 0", s.Lookups())
	}
	if got := s.HitRate(); got != 0 {
		t.Errorf("HitRate with zero lookups = %v, want 0", got)
	}
}

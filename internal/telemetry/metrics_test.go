package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("muri_rounds_total", "Scheduling rounds run.")
	g := r.Gauge("muri_queue_length", "Pending jobs.")
	h := r.Histogram("muri_jct_seconds", "Job completion time.", 1, 10)
	r.CounterFunc("muri_evictions_total", "Lease evictions.", func() uint64 { return 7 })
	r.GaugeFunc("muri_capacity_gpus", "Registered GPUs.", func() float64 { return 16 })

	c.Add(3)
	g.Set(5)
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP muri_rounds_total Scheduling rounds run.",
		"# TYPE muri_rounds_total counter",
		"muri_rounds_total 3",
		"# TYPE muri_queue_length gauge",
		"muri_queue_length 5",
		"# TYPE muri_jct_seconds histogram",
		`muri_jct_seconds_bucket{le="1"} 1`,
		`muri_jct_seconds_bucket{le="10"} 2`,
		`muri_jct_seconds_bucket{le="+Inf"} 3`,
		"muri_jct_seconds_sum 102.5",
		"muri_jct_seconds_count 3",
		"muri_evictions_total 7",
		"muri_capacity_gpus 16",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	samples, err := ParsePrometheus(out)
	if err != nil {
		t.Fatal(err)
	}
	if samples["muri_rounds_total"] != 3 {
		t.Errorf("parsed rounds = %v", samples["muri_rounds_total"])
	}
	if samples[`muri_jct_seconds_bucket{le="+Inf"}`] != 3 {
		t.Errorf("parsed +Inf bucket = %v", samples[`muri_jct_seconds_bucket{le="+Inf"}`])
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("muri_test_total", "t").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "muri_test_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	if _, err := ParsePrometheus("not a metric line\n"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCounterGaugeConcurrency(t *testing.T) {
	c := &Counter{}
	g := &Gauge{}
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if c.Value() != 4000 {
		t.Errorf("counter = %d, want 4000", c.Value())
	}
	if g.Value() != 4000 {
		t.Errorf("gauge = %d, want 4000", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// le=1: {0.5, 1}; le=2: +{1.5, 2}; le=4: +{3, 4}; +Inf: +{100}.
	want := []uint64{2, 4, 6, 7}
	_, got, sum, count := h.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("cumulative has %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
	if sum != 0.5+1+1.5+2+3+4+100 {
		t.Errorf("sum = %v", sum)
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
	_, ca, sa, na := mk().Snapshot()
	_, cb, sb, nb := mk().Snapshot()
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("bucket %d diverged: %d vs %d", i, ca[i], cb[i])
		}
	}
	if sa != sb || na != nb {
		t.Fatal("sum/count diverged across identical observation sequences")
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(math.NaN())
	if _, _, _, count := h.Snapshot(); count != 0 {
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

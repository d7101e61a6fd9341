package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous metric, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram, safe for concurrent
// use (the daemon's RPC handlers share one): values are counted into the
// first bucket whose upper bound is ≥ the observation, with an implicit
// +Inf bucket at the end. Buckets are fixed at construction, so two
// histograms observing the same sequence are bit-identical (DESIGN.md
// §9). Construct with NewHistogram.
type Histogram struct {
	mu sync.Mutex
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
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("telemetry: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %v after %v", b, bounds[i-1]))
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
		panic("telemetry: exponential bounds need start > 0, factor > 1, n > 0")
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
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[i]++
	h.sum += v
	h.count++
}

// Snapshot returns the finite bucket bounds (callers must not mutate
// them), the number of observations at or below each bound plus the +Inf
// bucket (the Prometheus `le` semantics), their sum and their count.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cumulative = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cumulative[i] = run
	}
	return h.bounds, cumulative, h.sum, h.count
}

// HistogramVec is a family of histograms sharing one name and bucket
// layout, split by a single label (e.g. per-cause wait attribution).
// Children materialize on first Observe and export as one metric with
// one HELP/TYPE header and per-label series.
type HistogramVec struct {
	mu     sync.Mutex
	label  string
	bounds []float64
	kids   map[string]*Histogram
}

// NewHistogramVec builds a histogram family keyed by label.
func NewHistogramVec(label string, bounds ...float64) *HistogramVec {
	return &HistogramVec{label: label, bounds: bounds, kids: make(map[string]*Histogram)}
}

// With returns the child histogram for one label value, creating it on
// first use.
func (hv *HistogramVec) With(value string) *Histogram {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	h := hv.kids[value]
	if h == nil {
		h = NewHistogram(hv.bounds...)
		hv.kids[value] = h
	}
	return h
}

// Observe counts one value under the label value.
func (hv *HistogramVec) Observe(value string, v float64) { hv.With(value).Observe(v) }

// children snapshots the family in sorted label order (stable scrapes).
func (hv *HistogramVec) children() (label string, values []string, kids []*Histogram) {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	values = make([]string, 0, len(hv.kids))
	for v := range hv.kids {
		values = append(values, v)
	}
	sort.Strings(values)
	kids = make([]*Histogram, len(values))
	for i, v := range values {
		kids[i] = hv.kids[v]
	}
	return hv.label, values, kids
}

// metricKind is the Prometheus metric type of a registration.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// registration is one named metric in a Registry.
type registration struct {
	name string
	help string
	kind metricKind
	// exactly one of the following is set
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	histVec     *HistogramVec
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration order is export order, so scrapes are
// stable. Func-backed metrics are sampled at scrape time — the daemon
// uses them to export engine counters that live under its own mutex,
// guaranteeing /metrics always agrees with the status RPC.
type Registry struct {
	mu   sync.Mutex
	regs []registration
	seen map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

func (r *Registry) add(reg registration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[reg.name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", reg.name))
	}
	r.seen[reg.name] = true
	r.regs = append(r.regs, reg)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(registration{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(registration{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// Histogram registers and returns a new histogram over bounds.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	r.add(registration{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// HistogramVec registers and returns a label-split histogram family
// over bounds.
func (r *Registry) HistogramVec(name, help, label string, bounds ...float64) *HistogramVec {
	hv := NewHistogramVec(label, bounds...)
	r.add(registration{name: name, help: help, kind: kindHistogram, histVec: hv})
	return hv
}

// CounterFunc registers a counter sampled from fn at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.add(registration{name: name, help: help, kind: kindCounter, counterFunc: fn})
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(registration{name: name, help: help, kind: kindGauge, gaugeFunc: fn})
}

// formatFloat renders a value the way Prometheus clients expect.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the text
// exposition format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	regs := append([]registration(nil), r.regs...)
	r.mu.Unlock()
	for _, reg := range regs {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", reg.name, reg.help, reg.name, reg.kind); err != nil {
			return err
		}
		var err error
		switch {
		case reg.counter != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", reg.name, reg.counter.Value())
		case reg.counterFunc != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", reg.name, reg.counterFunc())
		case reg.gauge != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", reg.name, reg.gauge.Value())
		case reg.gaugeFunc != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", reg.name, formatFloat(reg.gaugeFunc()))
		case reg.hist != nil:
			err = writeHistogram(w, reg.name, reg.hist)
		case reg.histVec != nil:
			err = writeHistogramVec(w, reg.name, reg.histVec)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram with cumulative le buckets.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	bounds, cum, sum, count := h.Snapshot()
	for i, b := range bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1]); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(sum), name, count); err != nil {
		return err
	}
	return nil
}

// writeHistogramVec renders one histogram family: per-label series
// under one name, labels in sorted order.
func writeHistogramVec(w io.Writer, name string, hv *HistogramVec) error {
	label, values, kids := hv.children()
	for i, value := range values {
		bounds, cum, sum, count := kids[i].Snapshot()
		series := fmt.Sprintf("%s=%q", label, value)
		for j, b := range bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, series, formatFloat(b), cum[j]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, series, cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum{%s} %s\n%s_count{%s} %d\n",
			name, series, formatFloat(sum), name, series, count); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ParsePrometheus extracts the sample value of every non-comment line
// of a text exposition body, keyed by the full series name (labels
// included). It exists for tests and murictl, not as a general client.
func ParsePrometheus(body string) (map[string]float64, error) {
	out := make(map[string]float64)
	start := 0
	for pos := 0; pos <= len(body); pos++ {
		if pos != len(body) && body[pos] != '\n' {
			continue
		}
		line := body[start:pos]
		start = pos + 1
		if line == "" || line[0] == '#' {
			continue
		}
		sp := -1
		for i := len(line) - 1; i >= 0; i-- {
			if line[i] == ' ' {
				sp = i
				break
			}
		}
		if sp <= 0 {
			return nil, fmt.Errorf("telemetry: malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: malformed sample in %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// Package telemetry is the observability layer over the scheduling
// stack (DESIGN.md §9): a deterministic span tracer exporting Chrome
// trace-event JSON (viewable in Perfetto / chrome://tracing) and a small
// Prometheus-text metrics registry served by the daemon's debug
// endpoint.
//
// Everything here is opt-in and passive: a nil *Tracer records nothing,
// a driver that never constructs a Registry pays nothing, and no
// instrumented code path changes behavior when telemetry is disabled —
// the fixed-seed simulator goldens stay bit-identical with tracing off.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// DefaultMaxEvents bounds a tracer's buffer when the caller passes no
// explicit limit: large enough for a full murisim run's stage spans,
// small enough that a daemon snapshot fits comfortably inside one
// proto frame (proto.MaxMessageSize).
const DefaultMaxEvents = 1 << 18

// Phase is the Chrome trace-event phase of one event.
const (
	phaseComplete = "X" // span with a duration
	phaseInstant  = "i" // instantaneous event
	phaseMeta     = "M" // process/thread naming metadata
)

// Event is one Chrome trace-event entry. Timestamps and durations are
// microseconds, per the format; virtual time maps 1ns → 0.001µs so the
// virtual timeline is preserved exactly.
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// File is the top-level trace-event JSON object: what Export writes and
// ParseTrace reads.
type File struct {
	TraceEvents     []Event        `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit,omitempty"`
	Metadata        map[string]any `json:"otherData,omitempty"`
}

// Tracer collects trace events into a bounded in-memory buffer. It is
// safe for concurrent use (the daemon records from several goroutines);
// the simulator drives it single-threaded. All methods on a nil Tracer
// are no-ops, so instrumentation sites never need a guard.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	max     int
	dropped uint64
	// pids and tids assign stable small integers to named processes and
	// threads in first-registration order, so two identical recording
	// sequences export byte-identical JSON.
	pids    map[string]int
	tids    map[pidName]int
	nextTID map[int]int
}

type pidName struct {
	pid  int
	name string
}

// NewTracer creates a tracer holding at most maxEvents events
// (metadata events included); maxEvents ≤ 0 uses DefaultMaxEvents.
// Events past the cap are counted in Dropped and discarded — the
// export notes the loss rather than silently truncating.
func NewTracer(maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Tracer{
		max:     maxEvents,
		pids:    make(map[string]int),
		tids:    make(map[pidName]int),
		nextTID: make(map[int]int),
	}
}

// Enabled reports whether the tracer records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// micros converts virtual/wall duration-since-start to trace µs.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Process returns a stable pid for name, registering it (and emitting
// the process_name metadata event) on first use.
func (t *Tracer) Process(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if pid, ok := t.pids[name]; ok {
		return pid
	}
	pid := len(t.pids) + 1
	t.pids[name] = pid
	t.appendLocked(Event{
		Name: "process_name", Phase: phaseMeta, PID: pid,
		Args: map[string]any{"name": name},
	})
	return pid
}

// Thread returns a stable tid for name within pid, registering it (and
// emitting the thread_name metadata event) on first use.
func (t *Tracer) Thread(pid int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := pidName{pid, name}
	if tid, ok := t.tids[key]; ok {
		return tid
	}
	t.nextTID[pid]++
	tid := t.nextTID[pid]
	t.tids[key] = tid
	t.appendLocked(Event{
		Name: "thread_name", Phase: phaseMeta, PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	})
	return tid
}

// Span records a complete event: name runs on (pid, tid) from start for
// dur. Zero-duration spans are recorded (Perfetto renders them as
// slivers), so purely virtual instants can still form rows.
func (t *Tracer) Span(pid, tid int, name, cat string, start, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(Event{
		Name: name, Cat: cat, Phase: phaseComplete,
		TS: micros(start), Dur: micros(dur), PID: pid, TID: tid, Args: args,
	})
}

// Instant records an instantaneous event at time at on (pid, tid).
func (t *Tracer) Instant(pid, tid int, name, cat string, at time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(Event{
		Name: name, Cat: cat, Phase: phaseInstant, Scope: "t",
		TS: micros(at), PID: pid, TID: tid, Args: args,
	})
}

// appendLocked adds one event, honoring the buffer cap.
func (t *Tracer) appendLocked(e Event) {
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of events discarded at the buffer cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// snapshot copies the current buffer state.
func (t *Tracer) snapshot() File {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := File{
		TraceEvents:     append([]Event(nil), t.events...),
		DisplayTimeUnit: "ms",
	}
	if t.dropped > 0 {
		f.Metadata = map[string]any{"droppedEvents": t.dropped}
	}
	return f
}

// Export writes the trace as Chrome trace-event JSON. The output is a
// pure function of the recording sequence: identical recordings export
// byte-identical JSON.
func (t *Tracer) Export(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: export of nil tracer")
	}
	enc := json.NewEncoder(w)
	return enc.Encode(t.snapshot())
}

// ExportJSON returns the trace as a JSON byte slice.
func (t *Tracer) ExportJSON() ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("telemetry: export of nil tracer")
	}
	return json.Marshal(t.snapshot())
}

// WriteFile exports the trace to path, then re-reads and re-parses the
// written bytes as a self-check so a truncated or malformed export
// fails loudly at the producer.
func (t *Tracer) WriteFile(path string) error {
	data, err := t.ExportJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: write trace: %w", err)
	}
	if _, err := ReadTraceFile(path); err != nil {
		return fmt.Errorf("telemetry: self-check of written trace: %w", err)
	}
	return nil
}

// ParseTrace decodes Chrome trace-event JSON (as produced by Export).
func ParseTrace(r io.Reader) (File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("telemetry: parse trace: %w", err)
	}
	return f, nil
}

// ReadTraceFile parses the trace-event JSON file at path.
func ReadTraceFile(path string) (File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return File{}, fmt.Errorf("telemetry: open trace: %w", err)
	}
	defer fh.Close()
	return ParseTrace(fh)
}

// Spans returns the complete ("X") events of the file, in order.
func (f File) Spans() []Event {
	var out []Event
	for _, e := range f.TraceEvents {
		if e.Phase == phaseComplete {
			out = append(out, e)
		}
	}
	return out
}

// Instants returns the instant ("i") events of the file, in order.
func (f File) Instants() []Event {
	var out []Event
	for _, e := range f.TraceEvents {
		if e.Phase == phaseInstant {
			out = append(out, e)
		}
	}
	return out
}

// ThreadNames maps (pid, tid) to the registered thread name.
func (f File) ThreadNames() map[[2]int]string {
	out := make(map[[2]int]string)
	for _, e := range f.TraceEvents {
		if e.Phase == phaseMeta && e.Name == "thread_name" {
			if name, ok := e.Args["name"].(string); ok {
				out[[2]int{e.PID, e.TID}] = name
			}
		}
	}
	return out
}

// ProcessNames maps pid to the registered process name.
func (f File) ProcessNames() map[int]string {
	out := make(map[int]string)
	for _, e := range f.TraceEvents {
		if e.Phase == phaseMeta && e.Name == "process_name" {
			if name, ok := e.Args["name"].(string); ok {
				out[e.PID] = name
			}
		}
	}
	return out
}

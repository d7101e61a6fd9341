package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"muri/internal/telemetry"
)

// TestMetricsEndpointMatchesStatus is the acceptance criterion of the
// metrics surface: after a workload completes, a /metrics scrape must be
// valid Prometheus text whose round/admission/preemption/fault counters
// equal the EngineSummary the status RPC reports.
func TestMetricsEndpointMatchesStatus(t *testing.T) {
	h := startHarness(t, Config{}, 1, nil)
	c := h.client(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Submit("gpt2", 1, 30); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Scrape over HTTP, exactly as a Prometheus server would, then take a
	// status snapshot. Both read the same live engine state; with the
	// workload drained the counters are quiescent and must agree.
	rec := httptest.NewRecorder()
	h.srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	samples, err := telemetry.ParsePrometheus(rec.Body.String())
	if err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine == nil {
		t.Fatal("status carries no engine summary")
	}
	for name, want := range map[string]int{
		"muri_sched_rounds_total":      st.Engine.Rounds,
		"muri_sched_admissions_total":  st.Engine.Launches,
		"muri_sched_preemptions_total": st.Engine.Preemptions,
		"muri_sched_requeues_total":    st.Engine.Requeues,
		"muri_sched_deadletters_total": st.Engine.DeadLettered,
		"muri_queue_length":            st.Engine.QueueDepth,
	} {
		got, ok := samples[name]
		if !ok {
			t.Errorf("scrape missing %s", name)
			continue
		}
		if int(got) != want {
			t.Errorf("%s = %v, status says %d", name, got, want)
		}
	}
	if got := samples["muri_capacity_gpus_total"]; got != 8 {
		t.Errorf("muri_capacity_gpus_total = %v, want 8", got)
	}
	// Ingest metrics agree with the status RPC's IngestSummary the same
	// way: func-backed off one set of admitter counters.
	if st.Ingest == nil {
		t.Fatal("status carries no ingest summary")
	}
	for name, want := range map[string]int{
		"muri_ingest_accepted_total":  st.Ingest.Accepted,
		"muri_ingest_rejected_total":  st.Ingest.Rejected,
		"muri_ingest_throttled_total": st.Ingest.Throttled,
		"muri_ingest_batches_total":   st.Ingest.Batches,
		"muri_ingest_queue_depth":     st.Ingest.QueueDepth,
	} {
		got, ok := samples[name]
		if !ok {
			t.Errorf("scrape missing %s", name)
			continue
		}
		if int(got) != want {
			t.Errorf("%s = %v, status says %d", name, got, want)
		}
	}
	if st.Ingest.Accepted != 3 || st.Ingest.QueueDepth != 0 {
		t.Errorf("ingest summary = %+v, want 3 accepted and an empty queue", st.Ingest)
	}
	if got := samples["muri_ingest_batch_size_count"]; int(got) != st.Ingest.Batches {
		t.Errorf("batch-size histogram holds %v observations, %d batches drained", got, st.Ingest.Batches)
	}
	if got := samples["muri_submit_latency_seconds_count"]; int(got) != st.Ingest.Accepted {
		t.Errorf("submit-latency histogram holds %v observations, %d accepted", got, st.Ingest.Accepted)
	}
	if got := samples["muri_jct_seconds_count"]; int(got) != st.Done {
		t.Errorf("JCT histogram holds %v observations, %d jobs done", got, st.Done)
	}
	if got := samples["muri_first_dispatch_seconds_count"]; int(got) != st.Done {
		t.Errorf("first-dispatch histogram holds %v observations, %d jobs launched and done", got, st.Done)
	}
	if samples["muri_round_latency_seconds_count"] == 0 {
		t.Error("round-latency histogram never observed a round")
	}
	// Every kicked round observes its linger, after its latency, so read
	// in this order the lingers never outnumber the rounds run; with no
	// MaxBatchDelay no round waits.
	if _, ok := samples["muri_round_linger_seconds_count"]; !ok {
		t.Error("scrape missing muri_round_linger_seconds")
	}
	_, _, lingerSum, lingers := h.srv.lingerHist.Snapshot()
	_, _, _, rounds := h.srv.roundHist.Snapshot()
	if lingers == 0 || lingers > rounds {
		t.Errorf("round-linger histogram holds %d observations, want 1..%d (the rounds run)", lingers, rounds)
	}
	if lingerSum != 0 {
		t.Errorf("round-linger sum = %v, want 0 without a MaxBatchDelay", lingerSum)
	}
}

// TestTraceSnapshotRPC drives a workload, snapshots the daemon's trace
// over the wire, and checks the payload parses as Chrome trace JSON
// containing scheduler rounds and decisions on the virtual clock.
func TestTraceSnapshotRPC(t *testing.T) {
	h := startHarness(t, Config{}, 1, nil)
	c := h.client(t)
	if _, err := c.Submit("vgg19", 1, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	data, err := c.TraceSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	f, err := telemetry.ParseTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("snapshot is not valid trace JSON: %v", err)
	}
	rounds, launches := 0, 0
	for _, e := range f.Instants() {
		switch {
		case e.Cat == "round":
			rounds++
		case e.Cat == "decision" && strings.HasPrefix(e.Name, "launch"):
			launches++
		}
	}
	if rounds == 0 {
		t.Error("trace snapshot holds no scheduler rounds")
	}
	if launches == 0 {
		t.Error("trace snapshot holds no launch decisions")
	}
}

// TestNewLoggerLine pins the daemon logger's rendering: the exact logfmt
// line, with msg before the With fields and no time key (the sink stamps
// its own), and the level filter dropping the info line.
func TestNewLoggerLine(t *testing.T) {
	var lines []string
	sink := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	l := newLogger(sink, slog.LevelWarn).With("component", "server")
	l.Info("dropped below the level")
	l.Warn("executor dropped", "machine", "m-1", "requeued", 2, "lease", 1500*time.Millisecond)
	want := `level=warn msg="executor dropped" component=server machine=m-1 requeued=2 lease=1.5s`
	if len(lines) != 1 || lines[0] != want {
		t.Fatalf("lines = %q, want [%q]", lines, want)
	}
}

// TestStructuredLogLines checks the daemon's diagnostics flow through
// the Logf hook as logfmt lines carrying component and machine fields.
func TestStructuredLogLines(t *testing.T) {
	lines := make(chan string, 256)
	cfg := Config{}
	cfg.Logf = func(format string, args ...any) {
		select {
		case lines <- fmt.Sprintf(format, args...):
		default:
		}
	}
	h := startHarness(t, cfg, 1, nil)
	h.client(t) // the harness already saw the executor register
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line := <-lines:
			if strings.Contains(line, `msg="executor registered"`) {
				for _, want := range []string{"level=info", "component=server", "machine=machine-0", "gpus=8"} {
					if !strings.Contains(line, want) {
						t.Errorf("registration line %q missing %q", line, want)
					}
				}
				return
			}
		case <-deadline:
			t.Fatal("no structured registration line observed")
		}
	}
}

// Tests for the admission front door as wired into the daemon: kick
// collapsing under bursts, typed backpressure over both transports,
// per-tenant throttling, batch RPCs, and the HTTP/JSON API.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"muri/internal/engine"
	"muri/internal/executor"
	"muri/internal/ingest"
	"muri/internal/proto"
	"muri/internal/sched"
)

// pendSpec is a job that runs long enough to outlive any test: explicit
// stages skip profiling, and ~12 virtual days of iterations keep it
// from completing.
func pendSpec(tenant string) proto.JobSpec {
	return proto.JobSpec{
		Model: "gpt2", GPUs: 1, Iterations: 1 << 20, Tenant: tenant,
		Stages: [4]time.Duration{250 * time.Millisecond, 250 * time.Millisecond,
			250 * time.Millisecond, 250 * time.Millisecond},
	}
}

// launchTap taps cfg's decision stream: the returned channel receives
// the wall time of each launch decision, up to n of them; later ones are
// dropped rather than block the round. Waiting on it cannot miss a job
// shorter than a poll would be.
func launchTap(cfg Config, n int) (Config, <-chan time.Time) {
	launched := make(chan time.Time, n)
	cfg.Observer = func(d engine.Decision) {
		if d.Action == engine.ActLaunch {
			select {
			case launched <- time.Now():
			default:
			}
		}
	}
	return cfg, launched
}

// nextLaunch waits for the next launch launchTap reports.
func nextLaunch(t *testing.T, launched <-chan time.Time) time.Time {
	t.Helper()
	select {
	case at := <-launched:
		return at
	case <-time.After(10 * time.Second):
		t.Fatal("no launch decision")
		return time.Time{}
	}
}

// TestIdleArrivalDispatchesWithoutLinger pins MaxBatchDelay as a
// throttle: a submission that finds the schedule loop quiet launches
// without waiting the delay out, and one right behind it is held until
// the delay has passed since that round.
func TestIdleArrivalDispatchesWithoutLinger(t *testing.T) {
	const delay = 300 * time.Millisecond
	launched := make(chan time.Time, 8) // one stamp per launch decision; two expected
	h := startHarness(t, Config{
		Interval:      time.Minute, // rounds come from kicks, not the ticker
		MaxBatchDelay: delay,
		Observer: func(d engine.Decision) {
			if d.Action == engine.ActLaunch {
				launched <- time.Now()
			}
		},
	}, 1, nil)
	c := h.client(t)
	// The executor's registration ran a round; let the loop go quiet.
	time.Sleep(delay + 50*time.Millisecond)

	awaitLaunch := func() time.Time {
		t.Helper()
		select {
		case at := <-launched:
			return at
		case <-time.After(10 * time.Second):
			t.Fatal("no launch decision")
			return time.Time{}
		}
	}
	sent := time.Now()
	if _, err := c.SubmitSpec(pendSpec("")); err != nil {
		t.Fatal(err)
	}
	first := awaitLaunch()
	if took := first.Sub(sent); took > delay/2 {
		t.Errorf("arrival on a quiet daemon launched after %v, want well under MaxBatchDelay %v", took, delay)
	}
	if _, err := c.SubmitSpec(pendSpec("")); err != nil {
		t.Fatal(err)
	}
	// The second round may start no sooner than delay after the first
	// ended, and the first launch preceded that end.
	if gap := awaitLaunch().Sub(first); gap < delay {
		t.Errorf("arrival %v behind a round launched %v after it, want at least MaxBatchDelay %v",
			time.Since(first), gap, delay)
	}
}

// TestNoOpRoundStartsNoLinger pins which rounds start the MaxBatchDelay
// spacing: only one that admitted a job or issued a decision. A second
// executor's registration kicks a round that has no candidates, so it
// changes nothing, and an arrival right behind it must launch at once
// rather than wait out the delay from that round.
func TestNoOpRoundStartsNoLinger(t *testing.T) {
	const delay = 300 * time.Millisecond
	cfg, launched := launchTap(Config{
		Interval:      time.Minute, // rounds come from kicks, not the ticker
		MaxBatchDelay: delay,
	}, 1)
	h := startHarness(t, cfg, 1, nil)
	c := h.client(t)
	// The first registration's round changed nothing either, but let the
	// loop go quiet: under a rule where every round starts the spacing,
	// only the round below would then hold the arrival back.
	time.Sleep(delay + 50*time.Millisecond)
	rounds := func() uint64 { _, _, _, n := h.srv.roundHist.Snapshot(); return n }
	before := rounds()

	ctx, cancel := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	agents.Add(1)
	go func() {
		defer agents.Done()
		_ = (&executor.Agent{MachineID: "machine-1", GPUs: 8, Logf: t.Logf}).Run(ctx, h.addr)
	}()
	t.Cleanup(func() { cancel(); agents.Wait() })
	waitFor(t, 5*time.Second, func() bool { return rounds() > before },
		"the second executor's registration ran no round")

	sent := time.Now()
	if _, err := c.SubmitSpec(pendSpec("")); err != nil {
		t.Fatal(err)
	}
	if took := nextLaunch(t, launched).Sub(sent); took > delay/2 {
		t.Errorf("arrival behind a round that changed nothing launched after %v, want well under MaxBatchDelay %v", took, delay)
	}
}

// TestDecidingRoundStartsLinger pins the other half of the rule: a round
// that admits nothing but issues a decision still starts the spacing,
// which is what caps relaunches under churn. A completion frees the
// machine and its round launches the queued job; an arrival right
// behind that round waits out the delay.
func TestDecidingRoundStartsLinger(t *testing.T) {
	const delay = 300 * time.Millisecond
	cfg, launched := launchTap(Config{
		Policy:        sched.FIFO(), // non-preemptive: the queued job waits for the machine
		Interval:      time.Minute,  // rounds come from kicks, not the ticker
		MaxBatchDelay: delay,
	}, 3)
	h := startHarness(t, cfg, 1, nil)
	c := h.client(t)
	// The first job holds all 8 GPUs for about two delays of wall time,
	// so its completion round runs at once; the second queues behind it.
	first, queued := pendSpec(""), pendSpec("")
	first.GPUs, first.Iterations = 8, 1200
	queued.GPUs = 7
	if res, err := c.SubmitBatch([]proto.JobSpec{first, queued}); err != nil || res[0].Err != "" || res[1].Err != "" {
		t.Fatalf("submit: %v %+v", err, res)
	}
	nextLaunch(t, launched)
	relaunch := nextLaunch(t, launched) // the completion round: a decision, no admission
	if _, err := c.SubmitSpec(pendSpec("")); err != nil {
		t.Fatal(err)
	}
	if gap := nextLaunch(t, launched).Sub(relaunch); gap < delay {
		t.Errorf("arrival behind a round that only decided launched %v after it, want at least MaxBatchDelay %v", gap, delay)
	}
}

// TestBurstSubmissionsCollapseRounds is the kick-collapse regression
// test: a 1k-job burst over the pipelined stream must cost a handful of
// engine rounds, not one per job. Before batched admission every submit
// kicked its own round; the issue's bar is a ≥10× collapse, which the
// MaxBatchDelay spacing between event-driven rounds holds.
func TestBurstSubmissionsCollapseRounds(t *testing.T) {
	h := startHarness(t, Config{
		Policy:        sched.FIFO(), // non-preemptive, cheap rounds at depth 1000
		Interval:      time.Minute,  // rounds come from kicks, not the ticker
		MaxBatchDelay: 30 * time.Millisecond,
	}, 1, nil)
	status := h.client(t)
	st0, err := status.Status()
	if err != nil {
		t.Fatal(err)
	}
	before := st0.Engine.Rounds

	const n = 1000
	stream := h.client(t).SubmitStream(256)
	var got int
	var firstErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range stream.Results() {
			got++
			if res.Err != nil && firstErr == nil {
				firstErr = res.Err
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := stream.Send(pendSpec("")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	stream.CloseSend()
	<-done
	if err := stream.Err(); err != nil {
		t.Fatalf("stream died: %v", err)
	}
	if got != n || firstErr != nil {
		t.Fatalf("acks = %d (first error %v), want %d clean", got, firstErr, n)
	}

	waitFor(t, 20*time.Second, func() bool {
		st, err := status.Status()
		return err == nil && st.Pending+st.Running == n
	}, "jobs never all reached the engine")

	st, err := status.Status()
	if err != nil {
		t.Fatal(err)
	}
	rounds := st.Engine.Rounds - before
	if rounds > n/10 {
		t.Errorf("1k-job burst cost %d engine rounds, want ≤ %d (≥10× collapse)", rounds, n/10)
	}
	if st.Ingest == nil || st.Ingest.Accepted != n || st.Ingest.QueueDepth != 0 {
		t.Errorf("ingest summary = %+v, want %d accepted and drained", st.Ingest, n)
	}
	if st.Ingest.Batches == 0 || st.Ingest.Batches > n/10 {
		t.Errorf("accepted %d jobs across %d admission batches, want 1..%d", n, st.Ingest.Batches, n/10)
	}
	t.Logf("burst of %d jobs: %d engine rounds, %d admission batches", n, rounds, st.Ingest.Batches)
}

// TestIngestBackpressureAndShutdown saturates the bounded queue from
// concurrent streams (run under -race): rejects must be the typed
// retryable queue-full sentinel, the daemon must stay responsive, and a
// Stop/Close teardown must not leak goroutines.
func TestIngestBackpressureAndShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Run("saturate", func(t *testing.T) {
		cfg, launched := launchTap(Config{
			IngestCapacity: 8,
			Interval:       time.Hour,
			// A long spacing after a round that changed something holds the
			// drain back, so concurrent submitters deterministically overrun
			// the 8-slot queue.
			MaxBatchDelay: 400 * time.Millisecond,
		}, 1)
		h := startHarness(t, cfg, 1, nil)
		// Start the hold on purpose: the primer's round admits and
		// launches it, and the senders below land inside the spacing.
		const primed = 1
		if _, err := h.client(t).SubmitSpec(pendSpec("")); err != nil {
			t.Fatal(err)
		}
		nextLaunch(t, launched)
		const senders, per = 4, 10
		var mu sync.Mutex
		var accepted, rejected int
		var wg sync.WaitGroup
		for w := 0; w < senders; w++ {
			stream := h.client(t).SubmitStream(4)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for res := range stream.Results() {
					mu.Lock()
					switch {
					case res.Err == nil:
						accepted++
					case errors.Is(res.Err, ingest.ErrQueueFull):
						var ie *ingest.Error
						if !errors.As(res.Err, &ie) || !ie.Retryable {
							t.Errorf("queue-full result not typed retryable: %v", res.Err)
						}
						rejected++
					default:
						t.Errorf("unexpected submit error: %v", res.Err)
					}
					mu.Unlock()
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stream.CloseSend()
				for i := 0; i < per; i++ {
					if err := stream.Send(pendSpec("")); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if accepted+rejected != senders*per {
			t.Fatalf("acks = %d accepted + %d rejected, want %d total", accepted, rejected, senders*per)
		}
		if rejected == 0 {
			t.Fatal("40 submits into an 8-slot held queue produced no backpressure")
		}
		st, err := h.client(t).Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingest.Accepted != primed+accepted || st.Ingest.Rejected != rejected {
			t.Errorf("ingest summary %+v, clients saw %d primed + %d accepted / %d rejected",
				st.Ingest, primed, accepted, rejected)
		}
		// Graceful stop: running groups won't finish within the context, so
		// Stop falls back to Close on expiry. Either way every loop exits.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = h.srv.Stop(ctx)
	})
	// The subtest's Cleanup tore the harness down; goroutines must return
	// to baseline (tolerance for runtime housekeeping).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines grew %d -> %d after teardown\n%s", before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestTenantThrottleOverWire drives the per-tenant token bucket through
// the RPC path: the sentinel survives the trip as a typed error.
func TestTenantThrottleOverWire(t *testing.T) {
	h := startHarness(t, Config{TenantRate: 0.001, TenantBurst: 2}, 1, nil)
	c := h.client(t)
	for i := 0; i < 2; i++ {
		if _, err := c.SubmitSpec(pendSpec("team-a")); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	_, err := c.SubmitSpec(pendSpec("team-a"))
	if !errors.Is(err, ingest.ErrThrottled) {
		t.Fatalf("over-burst submit returned %v, want ErrThrottled across the wire", err)
	}
	// Another tenant's bucket is untouched.
	if _, err := c.SubmitSpec(pendSpec("team-b")); err != nil {
		t.Fatalf("other tenant throttled too: %v", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest.Throttled != 1 || st.Ingest.Accepted != 3 {
		t.Errorf("ingest summary = %+v, want 3 accepted / 1 throttled", st.Ingest)
	}
}

// TestSubmitBatchRPC sends one batch with a bad job in the middle:
// per-job results, valid jobs run to completion.
func TestSubmitBatchRPC(t *testing.T) {
	h := startHarness(t, Config{}, 1, nil)
	c := h.client(t)
	res, err := c.SubmitBatch([]proto.JobSpec{
		{Model: "gpt2", GPUs: 1, Iterations: 30},
		{Model: "no-such-model", GPUs: 1, Iterations: 30},
		{Model: "dqn", GPUs: 1, Iterations: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].Err != "" || res[0].ID != 1 {
		t.Errorf("result[0] = %+v, want accepted with ID 1", res[0])
	}
	if res[1].Err == "" || res[1].Code != proto.CodeInvalid || res[1].Retryable {
		t.Errorf("result[1] = %+v, want non-retryable invalid rejection", res[1])
	}
	if res[2].Err != "" || res[2].ID != 2 {
		t.Errorf("result[2] = %+v, want accepted with ID 2", res[2])
	}
	st, err := c.WaitAllDone(20*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 2 {
		t.Errorf("done = %d, want 2", st.Done)
	}
}

// httpPost posts a JSON body and decodes the response into out.
func httpPost(t *testing.T, hd http.Handler, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	hd.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: response %q is not JSON: %v", path, rec.Body.String(), err)
		}
	}
	return rec
}

// TestHTTPSubmitEndpoint exercises the JSON API against a daemon whose
// schedule loop is not running (New without Serve): nothing drains the
// queue, so the capacity-2 server rejects the third job with a
// deterministic 429.
func TestHTTPSubmitEndpoint(t *testing.T) {
	s := New(Config{IngestCapacity: 2, Logf: t.Logf})
	api := s.APIHandler()

	var res proto.SubmitResult
	rec := httpPost(t, api, "/api/v1/submit", `{"job":{"model":"gpt2","gpus":1,"iterations":10}}`, &res)
	if rec.Code != http.StatusOK || res.ID != 1 || res.Err != "" {
		t.Fatalf("first submit: HTTP %d, result %+v", rec.Code, res)
	}
	rec = httpPost(t, api, "/api/v1/submit", `{"job":{"model":"no-such-model","iterations":10}}`, &res)
	if rec.Code != http.StatusBadRequest || res.Code != proto.CodeInvalid || res.Retryable {
		t.Errorf("bad model: HTTP %d, result %+v, want 400 invalid", rec.Code, res)
	}
	rec = httpPost(t, api, "/api/v1/submit", `not json`, &res)
	if rec.Code != http.StatusBadRequest || res.Code != proto.CodeInvalid {
		t.Errorf("garbage body: HTTP %d, result %+v, want 400 invalid", rec.Code, res)
	}
	if rec := httpPost(t, api, "/api/v1/submit", `{"job":{"model":"gpt2","gpus":1,"iterations":10}}`, &res); rec.Code != http.StatusOK {
		t.Fatalf("second submit: HTTP %d", rec.Code)
	}
	// Queue full at capacity 2: 429 with the typed code and a Retry-After.
	rec = httpPost(t, api, "/api/v1/submit", `{"job":{"model":"gpt2","gpus":1,"iterations":10}}`, &res)
	if rec.Code != http.StatusTooManyRequests || res.Code != proto.CodeQueueFull || !res.Retryable {
		t.Errorf("over capacity: HTTP %d, result %+v, want 429 queue_full retryable", rec.Code, res)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}

	var st proto.StatusAck
	req := httptest.NewRequest("GET", "/api/v1/status", nil)
	srec := httptest.NewRecorder()
	api.ServeHTTP(srec, req)
	if srec.Code != http.StatusOK {
		t.Fatalf("status: HTTP %d", srec.Code)
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ingest == nil || st.Ingest.QueueDepth != 2 || st.Ingest.Accepted != 2 || st.Ingest.Rejected != 1 {
		t.Errorf("status ingest = %+v, want depth 2, 2 accepted, 1 rejected", st.Ingest)
	}

	// Wrong methods answer 405 with an Allow header.
	if rec := httptest.NewRecorder(); true {
		api.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/submit", nil))
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" {
			t.Errorf("GET submit: HTTP %d Allow %q", rec.Code, rec.Header().Get("Allow"))
		}
	}
}

// TestHTTPBatchEndpoint posts one batch with a mix of outcomes: always
// 200, per-job results in order.
func TestHTTPBatchEndpoint(t *testing.T) {
	s := New(Config{IngestCapacity: 1, Logf: t.Logf})
	var resp proto.SubmitBatchAck
	body := `{"jobs":[
		{"model":"gpt2","gpus":1,"iterations":10},
		{"model":"no-such-model","iterations":10},
		{"model":"dqn","gpus":1,"iterations":10}]}`
	rec := httpPost(t, s.APIHandler(), "/api/v1/submit/batch", body, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", rec.Code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(resp.Results))
	}
	if r := resp.Results[0]; r.Err != "" || r.ID != 1 {
		t.Errorf("results[0] = %+v, want accepted ID 1", r)
	}
	if r := resp.Results[1]; r.Code != proto.CodeInvalid {
		t.Errorf("results[1] = %+v, want invalid", r)
	}
	// Capacity 1 is spent: the third job in the same batch hits queue-full.
	if r := resp.Results[2]; r.Code != proto.CodeQueueFull || !r.Retryable {
		t.Errorf("results[2] = %+v, want retryable queue_full", r)
	}
}

// TestDebugHandlerMountsAPI checks the single-port deployment shape:
// -debug-addr serves the submission API next to /metrics.
func TestDebugHandlerMountsAPI(t *testing.T) {
	s := New(Config{Logf: t.Logf})
	var res proto.SubmitResult
	rec := httpPost(t, s.DebugHandler(), "/api/v1/submit", `{"job":{"model":"gpt2","gpus":1,"iterations":10}}`, &res)
	if rec.Code != http.StatusOK || res.ID != 1 {
		t.Errorf("submit via debug mux: HTTP %d, result %+v", rec.Code, res)
	}
}

// TestStreamDrainingRejection: a daemon in drain mode answers streamed
// submits with the non-retryable draining sentinel instead of hanging.
func TestStreamDrainingRejection(t *testing.T) {
	h := startHarness(t, Config{}, 1, nil)
	h.srv.adm.SetDraining(true)
	stream := h.client(t).SubmitStream(4)
	if err := stream.Send(pendSpec("")); err != nil {
		t.Fatal(err)
	}
	stream.CloseSend()
	res, ok := <-stream.Results()
	if !ok {
		t.Fatalf("stream closed without a result: %v", stream.Err())
	}
	if !errors.Is(res.Err, ingest.ErrDraining) {
		t.Fatalf("draining submit returned %v, want ErrDraining", res.Err)
	}
	var ie *ingest.Error
	if !errors.As(res.Err, &ie) || ie.Retryable {
		t.Fatalf("draining error should be typed non-retryable: %v", res.Err)
	}
}

// TestStreamPipelinesManyAcks sanity-checks seq/ack bookkeeping at a
// window much smaller than the send count.
func TestStreamPipelinesManyAcks(t *testing.T) {
	h := startHarness(t, Config{}, 1, nil)
	stream := h.client(t).SubmitStream(8)
	const n = 100
	results := make([]StreamResult, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range stream.Results() {
			results = append(results, res)
		}
	}()
	for i := 0; i < n; i++ {
		if err := stream.Send(pendSpec("")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	stream.CloseSend()
	<-done
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Seq != uint64(i+1) || res.Err != nil || res.ID != int64(i+1) {
			t.Fatalf("results[%d] = %+v, want seq %d id %d", i, res, i+1, i+1)
		}
		if res.RTT <= 0 {
			t.Errorf("results[%d] has non-positive RTT %v", i, res.RTT)
		}
	}
	sum := fmt.Sprintf("%d acks in order", len(results))
	t.Log(sum)
}

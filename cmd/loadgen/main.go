// Command loadgen drives submission load against a running scheduler
// daemon and reports ingest throughput: p50/p99 submit latency,
// accept/reject/throttle counts, and how many engine rounds the burst
// cost (the batched-admission collapse factor).
//
// Two transports are exercised, matching the daemon's two front doors:
//
//	proto — pipelined submit frames over persistent TCP connections
//	http  — JSON batches against /api/v1/submit/batch
//
// Usage (against a live daemon):
//
//	loadgen -scheduler localhost:7800 -rate 120000 -duration 30s
//	loadgen -http localhost:7801 -transport http -batch 64
//	loadgen -transport both -scheduler localhost:7800 -http localhost:7801
//
// Or self-contained (starts an in-process daemon plus one executor, the
// mode `make bench-ingest` and CI use):
//
//	loadgen -selfhost -rate 120000 -duration 30s -json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"muri/internal/executor"
	"muri/internal/ingest"
	"muri/internal/metrics"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/server"
	"muri/internal/workload"
)

func main() {
	var (
		scheduler = flag.String("scheduler", "localhost:7800", "scheduler proto address")
		httpAddr  = flag.String("http", "", "scheduler HTTP API address (host:port)")
		transport = flag.String("transport", "proto", "submission transport: proto | http | both")
		rate      = flag.Int("rate", 120000, "target submission rate, jobs per minute (0 = as fast as possible)")
		duration  = flag.Duration("duration", 30*time.Second, "how long to sustain the load")
		conns     = flag.Int("conns", 8, "concurrent submitters per transport")
		window    = flag.Int("window", 256, "proto: max unacked frames in flight per connection")
		batch     = flag.Int("batch", 64, "http: jobs per batch request")
		tenants   = flag.Int("tenants", 1, "spread submissions across this many tenant names")
		seed      = flag.Int64("seed", 1, "workload-mix RNG seed")
		jsonOut   = flag.Bool("json", false, "emit the report as one JSON line on stdout")
		selfhost  = flag.Bool("selfhost", false, "start an in-process daemon + executor and load it")
	)
	flag.Parse()

	if *selfhost {
		stop, protoAddr, apiAddr, err := startSelfhost()
		if err != nil {
			log.Fatalf("loadgen: selfhost: %v", err)
		}
		defer stop()
		*scheduler = protoAddr
		*httpAddr = apiAddr
	}

	useProto := *transport == "proto" || *transport == "both"
	useHTTP := *transport == "http" || *transport == "both"
	if !useProto && !useHTTP {
		log.Fatalf("loadgen: unknown transport %q", *transport)
	}
	if useHTTP && *httpAddr == "" {
		log.Fatal("loadgen: http transport needs -http host:port")
	}

	// Status snapshots bracket the run: engine-round and batch deltas tell
	// us what the burst cost on the scheduling side.
	stc, err := server.Dial(*scheduler)
	if err != nil {
		log.Fatalf("loadgen: dial scheduler: %v", err)
	}
	defer stc.Close()
	st0, err := stc.Status()
	if err != nil {
		log.Fatalf("loadgen: status: %v", err)
	}

	nTransports := 0
	if useProto {
		nTransports++
	}
	if useHTTP {
		nTransports++
	}
	perWorker := float64(*rate) / 60.0 / float64(*conns*nTransports)

	var wg sync.WaitGroup
	workers := make([]*workerStats, 0, *conns*nTransports)
	deadline := time.Now().Add(*duration)
	start := time.Now()
	for i := 0; i < *conns; i++ {
		specs := newSpecSource(*seed+int64(i), *tenants)
		if useProto {
			ws := &workerStats{}
			workers = append(workers, ws)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := protoWorker(*scheduler, *window, perWorker, deadline, specs, ws); err != nil {
					log.Printf("loadgen: proto worker: %v", err)
				}
			}()
		}
		if useHTTP {
			ws := &workerStats{}
			workers = append(workers, ws)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := httpWorker(*httpAddr, *batch, perWorker, deadline, specs.clone(), ws); err != nil {
					log.Printf("loadgen: http worker: %v", err)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	st1, err := stc.Status()
	if err != nil {
		log.Fatalf("loadgen: status: %v", err)
	}

	total := &workerStats{}
	for _, ws := range workers {
		total.merge(ws)
	}
	slices.Sort(total.lat)
	rounds := 0
	batches := 0
	if st0.Engine != nil && st1.Engine != nil {
		rounds = st1.Engine.Rounds - st0.Engine.Rounds
	}
	if st0.Ingest != nil && st1.Ingest != nil {
		batches = st1.Ingest.Batches - st0.Ingest.Batches
	}

	rep := report{
		Name:       "loadgen",
		Transport:  *transport,
		DurationS:  elapsed.Seconds(),
		Sent:       total.sent,
		Accepted:   total.accepted,
		Rejected:   total.rejected,
		Throttled:  total.throttled,
		Errors:     total.failed,
		RatePerMin: float64(total.sent) / elapsed.Minutes(),
		P50Ms:      percentileMs(total.lat, 0.50),
		P99Ms:      percentileMs(total.lat, 0.99),
		Rounds:     rounds,
		RoundsPS:   float64(rounds) / elapsed.Seconds(),
		Batches:    batches,
	}
	if *jsonOut {
		out, _ := json.Marshal(rep)
		fmt.Println(string(out))
	} else {
		fmt.Printf("loadgen: %s over %v\n", *transport, elapsed.Round(time.Millisecond))
		fmt.Printf("  submitted %d jobs (%.0f/min): %d accepted, %d rejected, %d throttled, %d transport errors\n",
			rep.Sent, rep.RatePerMin, rep.Accepted, rep.Rejected, rep.Throttled, rep.Errors)
		fmt.Printf("  submit latency p50=%.3fms p99=%.3fms\n", rep.P50Ms, rep.P99Ms)
		fmt.Printf("  engine: %d rounds (%.2f/s), %d admission batches (avg %.0f jobs/batch)\n",
			rep.Rounds, rep.RoundsPS, rep.Batches, avg(rep.Accepted, rep.Batches))
	}
	if total.accepted == 0 {
		log.Fatal("loadgen: no submission was accepted")
	}
}

// percentileMs is the exact nearest-rank p-quantile of the sorted
// latencies, in milliseconds (0 with no samples).
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return metrics.Percentile(sorted, p).Seconds() * 1000
}

func avg(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// report is the machine-readable result line (`make bench-ingest`).
type report struct {
	Name       string  `json:"name"`
	Transport  string  `json:"transport"`
	DurationS  float64 `json:"duration_s"`
	Sent       int     `json:"sent"`
	Accepted   int     `json:"accepted"`
	Rejected   int     `json:"rejected"`
	Throttled  int     `json:"throttled"`
	Errors     int     `json:"errors"`
	RatePerMin float64 `json:"rate_per_min"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	Rounds     int     `json:"engine_rounds"`
	RoundsPS   float64 `json:"rounds_per_sec"`
	Batches    int     `json:"admission_batches"`
}

// workerStats accumulates one worker's counters and submit latencies;
// workers are single-goroutine, merged after the run.
type workerStats struct {
	sent, accepted, rejected, throttled, failed int
	lat                                         []time.Duration
}

func (w *workerStats) merge(o *workerStats) {
	w.sent += o.sent
	w.accepted += o.accepted
	w.rejected += o.rejected
	w.throttled += o.throttled
	w.failed += o.failed
	w.lat = append(w.lat, o.lat...)
}

func (w *workerStats) countResult(err error) {
	switch {
	case err == nil:
		w.accepted++
	case errors.Is(err, ingest.ErrThrottled):
		w.throttled++
	default:
		w.rejected++
	}
}

// specSource deals out job specs with a realistic model mix. Explicit
// stage vectors skip scheduler-side profiling — the load test measures
// ingest and scheduling, not the profiler. Huge iteration counts keep
// the jobs pending for the whole run, so the scheduler carries the full
// backlog.
type specSource struct {
	rng     *rand.Rand
	zoo     []workload.Model
	tenants int
}

func newSpecSource(seed int64, tenants int) *specSource {
	return &specSource{rng: rand.New(rand.NewSource(seed)), zoo: workload.Zoo(), tenants: tenants}
}

func (s *specSource) clone() *specSource {
	return &specSource{rng: rand.New(rand.NewSource(s.rng.Int63())), zoo: s.zoo, tenants: s.tenants}
}

func (s *specSource) next() proto.JobSpec {
	m := s.zoo[s.rng.Intn(len(s.zoo))]
	spec := proto.JobSpec{
		Model:      m.Name,
		GPUs:       1 << s.rng.Intn(3), // 1, 2, or 4
		Iterations: 1 << 30,
	}
	copy(spec.Stages[:], m.Stages[:])
	if s.tenants > 1 {
		spec.Tenant = fmt.Sprintf("tenant-%d", s.rng.Intn(s.tenants))
	}
	return spec
}

// pace sleeps until the next send slot at ratePerSec (no-op when the
// rate is uncapped or the worker is behind schedule).
func pace(start time.Time, sent int, ratePerSec float64) {
	if ratePerSec <= 0 {
		return
	}
	next := start.Add(time.Duration(float64(sent) / ratePerSec * float64(time.Second)))
	if d := time.Until(next); d > 0 {
		time.Sleep(d)
	}
}

// protoWorker streams pipelined submit frames over one connection.
func protoWorker(addr string, window int, ratePerSec float64, deadline time.Time, specs *specSource, ws *workerStats) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	stream := c.SubmitStream(window)
	var mu sync.Mutex // guards ws between the ack reader and the final merge
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range stream.Results() {
			mu.Lock()
			ws.countResult(res.Err)
			ws.lat = append(ws.lat, res.RTT)
			mu.Unlock()
		}
	}()
	start := time.Now()
	sent := 0
	for time.Now().Before(deadline) {
		if err := stream.Send(specs.next()); err != nil {
			break
		}
		sent++
		pace(start, sent, ratePerSec)
	}
	stream.CloseSend()
	<-done
	mu.Lock()
	ws.sent = sent
	ws.failed = sent - (ws.accepted + ws.rejected + ws.throttled)
	mu.Unlock()
	return stream.Err()
}

// httpWorker posts JSON batches against /api/v1/submit/batch. Each
// job's recorded latency is its batch's request time — what a caller
// of the HTTP API actually waits.
func httpWorker(addr string, batch int, ratePerSec float64, deadline time.Time, specs *specSource, ws *workerStats) error {
	if batch < 1 {
		batch = 1
	}
	url := "http://" + addr + "/api/v1/submit/batch"
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	var lastErr error
	for time.Now().Before(deadline) {
		req := proto.SubmitBatch{Jobs: make([]proto.JobSpec, batch)}
		for i := range req.Jobs {
			req.Jobs[i] = specs.next()
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		rtt := time.Since(t0)
		ws.sent += batch
		if err != nil {
			ws.failed += batch
			lastErr = err
			pace(start, ws.sent, ratePerSec)
			continue
		}
		var br proto.SubmitBatchAck
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil || len(br.Results) != batch {
			ws.failed += batch
			lastErr = fmt.Errorf("bad batch response: %v", err)
			pace(start, ws.sent, ratePerSec)
			continue
		}
		for _, res := range br.Results {
			if res.Err == "" {
				ws.accepted++
			} else if res.Code == proto.CodeThrottled {
				ws.throttled++
			} else {
				ws.rejected++
			}
			ws.lat = append(ws.lat, rtt)
		}
		pace(start, ws.sent, ratePerSec)
	}
	return lastErr
}

// startSelfhost spins up an in-process daemon plus one 8-GPU executor
// so the benchmark runs with no external setup. FIFO keeps planning
// rounds cheap at six-figure queue depths; a small batch delay lets
// arrivals coalesce the way a production deployment would configure it.
func startSelfhost() (stop func(), protoAddr, apiAddr string, err error) {
	srv := server.New(server.Config{
		Policy:        sched.FIFO(),
		Interval:      time.Second,
		MaxBatchDelay: 5 * time.Millisecond,
		Logf:          func(string, ...any) {}, // keep the report readable
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", "", err
	}
	go func() { _ = srv.Serve(ln) }()

	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		return nil, "", "", err
	}
	go func() { _ = http.Serve(hln, srv.APIHandler()) }()

	ctx, cancel := context.WithCancel(context.Background())
	agent := &executor.Agent{MachineID: "selfhost-0", GPUs: 8, Logf: func(string, ...any) {}}
	go func() { _ = agent.Run(ctx, ln.Addr().String()) }()

	// Wait for the executor to register before loading the daemon.
	c, err := server.Dial(ln.Addr().String())
	if err != nil {
		cancel()
		ln.Close()
		hln.Close()
		return nil, "", "", err
	}
	defer c.Close()
	for i := 0; ; i++ {
		st, err := c.Status()
		if err == nil && st.Executors == 1 {
			break
		}
		if i > 200 {
			cancel()
			ln.Close()
			hln.Close()
			return nil, "", "", fmt.Errorf("selfhost executor never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop = func() {
		cancel()
		srv.Close()
		hln.Close()
	}
	return stop, ln.Addr().String(), hln.Addr().String(), nil
}

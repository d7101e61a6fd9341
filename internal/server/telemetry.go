// Daemon observability surface: the structured logger, the /metrics
// registry, the debug HTTP handler (murisched -debug-addr), and the
// trace snapshot served to murictl. See DESIGN.md §9.
package server

import (
	"expvar"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"muri/internal/ingest"
	"muri/internal/telemetry"
	"muri/internal/wal"
	"muri/internal/workload"
)

// newLogger builds the daemon's structured logger: slog's logfmt text
// handler, one line per entry, handed to the printf-shaped sink. The
// sink stamps its own time, so the time key is dropped, and levels
// print lower-case: `level=warn msg="..." component=server k=v`.
func newLogger(sink func(format string, args ...any), level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(sinkWriter(sink), &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			switch a.Key {
			case slog.TimeKey:
				return slog.Attr{}
			case slog.LevelKey:
				return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
			}
			return a
		},
	}))
}

// sinkWriter adapts a printf-shaped sink to the writer a slog handler
// writes each entry to, in one call, newline-terminated.
type sinkWriter func(format string, args ...any)

func (w sinkWriter) Write(p []byte) (int, error) {
	w("%s", strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// initMetrics registers the daemon's metric set. Engine, fault, and
// capacity figures are func-backed: each scrape samples the live state
// under s.mu, so /metrics always agrees with the status RPC's
// EngineSummary rather than drifting behind duplicate counters.
func (s *Server) initMetrics() {
	r := telemetry.NewRegistry()
	s.reg = r

	engCounter := func(pick func() int) func() uint64 {
		return func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return uint64(pick())
		}
	}
	r.CounterFunc("muri_sched_rounds_total", "Scheduling rounds run.",
		engCounter(func() int { return s.eng.Stats().Rounds }))
	r.CounterFunc("muri_sched_admissions_total", "Units launched under a new key.",
		engCounter(func() int { return s.eng.Stats().Launches }))
	r.CounterFunc("muri_sched_preemptions_total", "Units killed to reclaim capacity.",
		engCounter(func() int { return s.eng.Stats().Preemptions }))
	r.CounterFunc("muri_sched_requeues_total", "Jobs pushed back to the queue.",
		engCounter(func() int { return s.eng.Stats().Requeues }))
	r.CounterFunc("muri_sched_deadletters_total", "Jobs parked after exhausting retries.",
		engCounter(func() int { return s.eng.Stats().DeadLettered }))
	r.CounterFunc("muri_fault_crashes_total", "Executor losses (disconnects and evictions).",
		engCounter(func() int { return s.faults.Crashes }))
	r.CounterFunc("muri_fault_transient_total", "Transient job faults reported or injected.",
		engCounter(func() int { return s.faults.Transient }))
	r.CounterFunc("muri_fault_repairs_total", "Executors re-registering after a loss.",
		engCounter(func() int { return s.faults.Repairs }))
	r.CounterFunc("muri_lease_evictions_total", "Executors evicted for lease expiry.",
		func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.leaseEvictions
		})

	engGauge := func(pick func() int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(pick())
		}
	}
	r.GaugeFunc("muri_queue_length", "Candidates left unplaced after the last round.",
		engGauge(func() int { return s.eng.Stats().QueueDepth }))
	r.GaugeFunc("muri_capacity_gpus_total", "GPUs across registered executors.",
		engGauge(func() int {
			total := 0
			for _, e := range s.executors {
				total += e.gpus
			}
			return total
		}))
	r.GaugeFunc("muri_capacity_gpus_free", "Unallocated GPUs across registered executors.",
		engGauge(func() int {
			free := 0
			for _, e := range s.executors {
				free += e.free
			}
			return free
		}))
	r.GaugeFunc("muri_machines_degraded", "Machines seen before but absent now (crashed, not yet repaired).",
		engGauge(func() int { return len(s.seenMachines) - len(s.executors) }))

	// Ingest front door: counters and depth come func-backed from the
	// admitter (its own lock — scrapes never contend with s.mu), so they
	// agree with the status RPC's IngestSummary at every instant.
	admCounter := func(pick func(ingest.Stats) uint64) func() uint64 {
		return func() uint64 { return pick(s.adm.Stats()) }
	}
	r.CounterFunc("muri_ingest_accepted_total", "Submissions accepted into the admission queue.",
		admCounter(func(st ingest.Stats) uint64 { return st.Accepted }))
	r.CounterFunc("muri_ingest_rejected_total", "Submissions rejected for a full admission queue.",
		admCounter(func(st ingest.Stats) uint64 { return st.RejectedFull }))
	r.CounterFunc("muri_ingest_throttled_total", "Submissions rejected by per-tenant rate limits.",
		admCounter(func(st ingest.Stats) uint64 { return st.Throttled }))
	r.CounterFunc("muri_ingest_batches_total", "Admission batches drained into the engine.",
		admCounter(func(st ingest.Stats) uint64 { return st.Batches }))
	r.GaugeFunc("muri_ingest_queue_depth", "Submissions queued awaiting engine admission.",
		func() float64 { return float64(s.adm.Depth()) })
	s.batchHist = r.Histogram("muri_ingest_batch_size",
		"Jobs admitted per batched admission round.",
		telemetry.ExponentialBounds(1, 2, 16)...)
	s.submitWaitHist = r.Histogram("muri_submit_latency_seconds",
		"Queue wait between submission accept and engine admission.",
		telemetry.ExponentialBounds(1e-6, 10, 8)...)

	// Online predictor: func-backed off the estimator's own lock (never
	// s.mu), so scrapes agree with the status RPC's PredictorSummary.
	r.GaugeFunc("muri_predictor_models", "Models with a learned duration belief.",
		func() float64 { m, _, _ := s.est.Stats(); return float64(m) })
	r.GaugeFunc("muri_predictor_samples", "Completions retained across model beliefs (re-seeds reset a model).",
		func() float64 { _, n, _ := s.est.Stats(); return float64(n) })
	r.CounterFunc("muri_predictor_completions_total", "Lifetime completions folded into the predictor.",
		func() uint64 { return uint64(s.est.Completions()) })
	r.CounterFunc("muri_predictor_reseeds_total", "Beliefs re-seeded after a deviating completion.",
		func() uint64 { _, _, rs := s.est.Stats(); return uint64(rs) })
	r.GaugeFunc("muri_predictor_error_mean", "Mean absolute relative prediction error over scored completions.",
		func() float64 { e, _ := s.est.Error(); return e })
	// Predictor calibration: error-band coverage plus predicted vs
	// measured per-stage service sums (workload.Resources order).
	r.GaugeFunc("muri_predictor_band_coverage", "Fraction of scored completions whose measured total fell inside the predicted error band.",
		func() float64 { c, _, _, _ := s.est.Calibration(); return c })
	r.GaugeFunc("muri_predictor_band_checks", "Scored completions behind the band-coverage rate.",
		func() float64 { _, n, _, _ := s.est.Calibration(); return float64(n) })
	for res := 0; res < workload.NumResources; res++ {
		stage := workload.Resource(res).String()
		r.GaugeFunc("muri_predictor_stage_predicted_seconds_"+stage,
			"Predicted per-iteration "+stage+" stage seconds, summed over scored completions.",
			func() float64 { _, _, p, _ := s.est.Calibration(); return p[res] })
		r.GaugeFunc("muri_predictor_stage_measured_seconds_"+stage,
			"Measured per-iteration "+stage+" stage seconds, summed over scored completions.",
			func() float64 { _, _, _, m := s.est.Calibration(); return m[res] })
	}
	r.CounterFunc("muri_sched_reprofiles_total", "Completions that tripped the engine's re-profiling threshold.",
		engCounter(func() int { return s.eng.Stats().Reprofiles }))

	// Virtual JCT spans seconds to hours on scaled runs; round latency is
	// wall time in the microsecond-to-second range.
	s.jctHist = r.Histogram("muri_jct_seconds",
		"Virtual job completion time of finished jobs.",
		telemetry.ExponentialBounds(1, 2, 16)...)
	// Per-cause wait attribution: each finished job contributes one
	// observation per cause with nonzero time, in virtual seconds. The
	// sum over causes of _sum equals the total attributed JCT exactly.
	s.waitAttrHist = r.HistogramVec("muri_wait_attribution_seconds",
		"Virtual seconds of finished jobs' lifetime attributed to each wait cause.",
		"cause", telemetry.ExponentialBounds(1, 2, 16)...)
	s.roundHist = r.Histogram("muri_round_latency_seconds",
		"Wall-clock latency of scheduling rounds, admission drain included.",
		telemetry.ExponentialBounds(1e-6, 10, 8)...)
	s.lingerHist = r.Histogram("muri_round_linger_seconds",
		"Wall-clock seconds each kicked scheduling round waited out MaxBatchDelay; 0 for one that ran at once.",
		telemetry.ExponentialBounds(1e-6, 10, 8)...)
	s.firstDispatchHist = r.Histogram("muri_first_dispatch_seconds",
		"Wall-clock seconds from a submission's accept to its first launch.",
		telemetry.ExponentialBounds(1e-4, 2, 20)...)

	// Durability & failover. Everything is func-backed off the same
	// state the status RPC's DurabilitySummary reads, so the two can
	// never disagree; all figures read 0 when the WAL is disabled.
	// One wal.Stats reading per sample: the committer advances Fsyncs and
	// DurableLSN outside s.mu, so separate reads could straddle a commit.
	walStats := func() (st wal.Stats) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.w != nil {
			st = s.w.Stats()
		}
		return st
	}
	r.CounterFunc("muri_wal_appends_total", "Records appended to the WAL.",
		func() uint64 { return walStats().Appends })
	r.CounterFunc("muri_wal_fsyncs_total", "WAL fsync batches flushed to disk.",
		func() uint64 { return walStats().Fsyncs })
	r.CounterFunc("muri_wal_sync_stalls_total", "Appends that waited for the disk at the fsync-every bound.",
		func() uint64 { return walStats().SyncStalls })
	r.CounterFunc("muri_wal_replayed_total", "Records replayed from the WAL at the last recovery.",
		func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return uint64(s.walReplayed)
		})
	r.GaugeFunc("muri_wal_lsn", "Last assigned WAL log sequence number.",
		func() float64 { return float64(walStats().LSN) })
	r.GaugeFunc("muri_wal_durable_lsn", "Last WAL log sequence number covered by a completed fsync.",
		func() float64 { return float64(walStats().DurableLSN) })
	r.GaugeFunc("muri_wal_unsynced_records", "Records appended since the last completed fsync (the live loss window).",
		func() float64 { st := walStats(); return float64(st.LSN - st.DurableLSN) })
	r.GaugeFunc("muri_wal_segment", "Active WAL segment number (its first LSN).",
		func() float64 { return float64(walStats().Segment) })
	r.GaugeFunc("muri_wal_offset", "Write offset into the active WAL segment.",
		func() float64 { return float64(walStats().Offset) })
	r.GaugeFunc("muri_wal_snapshot_lsn", "LSN of the newest durable snapshot.",
		func() float64 { return float64(walStats().SnapshotLSN) })
	r.GaugeFunc("muri_wal_snapshot_age_seconds", "Age of the newest durable snapshot.",
		func() float64 {
			wall := walStats().SnapshotWall
			if wall == 0 {
				return 0
			}
			return time.Since(time.Unix(0, wall)).Seconds()
		})
	r.GaugeFunc("muri_role", "Daemon election role (0 solo, 1 leader, 2 standby, 3 fenced).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			switch s.role {
			case roleLeader:
				return 1
			case roleStandby:
				return 2
			case roleFenced:
				return 3
			}
			return 0
		})
	r.GaugeFunc("muri_term", "Current election term.",
		func() float64 { return float64(s.term.Load()) })
	r.GaugeFunc("muri_repl_standbys", "Standbys attached to the replication stream.",
		func() float64 {
			s.replMu.Lock()
			defer s.replMu.Unlock()
			n := 0
			for _, sub := range s.subs {
				if !sub.gone {
					n++
				}
			}
			return float64(n)
		})
	r.GaugeFunc("muri_repl_lag_records", "Replication lag in WAL records (leader: max over standbys).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.replLagLocked())
		})
	s.fsyncHist = r.Histogram("muri_wal_fsync_seconds",
		"WAL fsync batch latency.",
		telemetry.ExponentialBounds(1e-6, 10, 8)...)
	s.applyLagHist = r.Histogram("muri_repl_apply_lag_seconds",
		"Standby apply lag behind the leader append (wall clock).",
		telemetry.ExponentialBounds(1e-6, 10, 8)...)
}

// Metrics exposes the daemon's registry (tests scrape it directly).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// TraceJSON snapshots the daemon's trace ring as Chrome trace-event
// JSON. The ring keeps recording; the snapshot is a copy.
func (s *Server) TraceJSON() ([]byte, error) { return s.tracer.ExportJSON() }

// DebugHandler serves the observability endpoints murisched binds on
// -debug-addr: /metrics (Prometheus text), /debug/vars (expvar),
// /debug/pprof (the standard profiles), and — so a single port works for
// small deployments — the HTTP submission API (see APIHandler).
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.apiRoutes(mux)
	return mux
}

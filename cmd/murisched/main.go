// Command murisched runs the Muri scheduler daemon (paper Figure 3):
// executors connect with muriexec, clients submit jobs with murictl.
//
// Usage:
//
//	murisched -addr :7800 -policy muri-l -interval 6m -timescale 0.001
//
// -debug-addr serves the observability surface over HTTP: /metrics
// (Prometheus text), /debug/vars (expvar), /debug/pprof/, and the JSON
// submission API. -http-addr serves the submission API alone, for
// deployments that keep ingest and debug on separate ports. SIGINT
// drains gracefully: new submissions are rejected while running groups
// finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/server"
	"muri/internal/telemetry"
)

// policyByName resolves a policy; the -pred variants read their duration
// beliefs from est, the daemon's online predictor (every completion the
// daemon observes updates it), instead of submitted oracle profiles.
func policyByName(name string, est *profile.Online) (sched.Policy, error) {
	switch name {
	case "fifo":
		return sched.FIFO(), nil
	case "srtf":
		return sched.SRTF(), nil
	case "srtf-pred":
		return sched.SRTFPredicted(est), nil
	case "srsf":
		return sched.SRSF(), nil
	case "srsf-pred":
		return sched.SRSFPredicted(est), nil
	case "tiresias":
		return sched.Tiresias(), nil
	case "themis":
		return sched.Themis(), nil
	case "antman":
		return sched.AntMan{}, nil
	case "gittins-pred":
		return sched.NewGittinsFromEstimator(est), nil
	case "muri-s":
		return sched.NewMuriS(), nil
	case "muri-l":
		return sched.NewMuriL(), nil
	case "muri-l-pred":
		return sched.NewMuriLPredicted(est), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func main() {
	var (
		addr      = flag.String("addr", ":7800", "listen address")
		policy    = flag.String("policy", "muri-l", "scheduling policy (fifo|srtf|srsf|tiresias|themis|antman|muri-s|muri-l; -pred variants use the online predictor: srtf-pred|srsf-pred|muri-l-pred|gittins-pred)")
		interval  = flag.Duration("interval", time.Second, "scheduling interval (wall time)")
		timeScale = flag.Float64("timescale", 0.001, "virtual-to-wall time scale forwarded to executors")
		report    = flag.Duration("report", 200*time.Millisecond, "executor progress-report period")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof, and the JSON API on this address")
		httpAddr  = flag.String("http-addr", "", "serve the JSON submission API (/api/v1/...) on this address")
		logLevel  = flag.String("log-level", "info", "minimum log level (debug|info|warn|error)")

		ingestCap   = flag.Int("ingest-cap", 0, "admission queue capacity (0 = default 65536)")
		batchDelay  = flag.Duration("max-batch-delay", 0, "minimum spacing between event-driven scheduling rounds: an event on a quiet scheduler runs its round at once, one sooner after a round waits out the rest and batches with what arrives meanwhile (0 = a round per event)")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant sustained submission rate in jobs/sec (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant submission burst size (0 = derive from -tenant-rate)")
		drainWait   = flag.Duration("drain-timeout", time.Minute, "on SIGINT, how long to wait for running groups before closing")

		stateDir     = flag.String("state-dir", "", "durability directory: WAL + snapshots (empty = in-memory daemon)")
		fsyncEvery   = flag.Int("fsync-every", 0, "at most N-1 WAL records unsynced when an append returns; the fsync itself runs in the background (0 = default 64; 1 = durable on append)")
		snapEvery    = flag.Duration("snapshot-interval", 0, "full-state snapshot cadence (0 = default 10s)")
		segmentBytes = flag.Int64("segment-bytes", 0, "WAL segment size cap in bytes (0 = default)")
		standbyOf    = flag.String("standby-of", "", "run as warm standby replicating the leader at this address (requires -state-dir)")
		standbyID    = flag.String("standby-id", "", "standby identity on the replication stream (default: the machine role)")
		electionTTL  = flag.Duration("election-ttl", 0, "leader lease: standby promotes after this much silence (0 = default 2s)")
		unsafeDebug  = flag.Bool("unsafe-debug", false, "enable the crash-injection debug RPC (murictl debug crash); never in production")
	)
	flag.Parse()

	// One predictor serves both the daemon (which feeds it completions)
	// and any prediction-aware policy (which reads beliefs from it).
	predictor := profile.NewOnline()
	p, err := policyByName(*policy, predictor)
	if err != nil {
		fmt.Fprintf(os.Stderr, "murisched: %v\n", err)
		os.Exit(2)
	}
	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "murisched: %v\n", err)
		os.Exit(2)
	}
	sid := *standbyID
	if sid == "" {
		sid = "standby"
	}
	srv := server.New(server.Config{
		Policy:         p,
		Predictor:      predictor,
		Interval:       *interval,
		TimeScale:      *timeScale,
		ReportEvery:    *report,
		LogLevel:       level,
		IngestCapacity: *ingestCap,
		MaxBatchDelay:  *batchDelay,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		StateDir:       *stateDir,
		FsyncEvery:     *fsyncEvery,
		SnapshotEvery:  *snapEvery,
		SegmentBytes:   *segmentBytes,
		StandbyOf:      *standbyOf,
		StandbyID:      sid,
		ElectionTTL:    *electionTTL,
		UnsafeDebug:    *unsafeDebug,
	})
	if *debugAddr != "" {
		go func() {
			log.Printf("murisched: debug endpoints on http://%s/metrics", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, srv.DebugHandler()); err != nil {
				log.Fatalf("murisched: debug server: %v", err)
			}
		}()
	}
	if *httpAddr != "" {
		go func() {
			log.Printf("murisched: HTTP submission API on http://%s/api/v1/submit", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, srv.APIHandler()); err != nil {
				log.Fatalf("murisched: http server: %v", err)
			}
		}()
	}

	// SIGINT/SIGTERM drain gracefully: stop admitting, let running groups
	// finish (up to -drain-timeout), then close.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("murisched: %v: draining (timeout %v)", sig, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Stop(ctx); err != nil {
			log.Printf("murisched: drain cut short: %v", err)
		}
	}()

	switch {
	case *standbyOf != "":
		log.Printf("murisched: warm standby of %s (state %s), listening on %s", *standbyOf, *stateDir, *addr)
	case *stateDir != "":
		log.Printf("murisched: %s policy, durable state in %s, listening on %s", p.Name(), *stateDir, *addr)
	default:
		log.Printf("murisched: %s policy, listening on %s", p.Name(), *addr)
	}
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("murisched: %v", err)
	}
	log.Printf("murisched: shut down cleanly")
}

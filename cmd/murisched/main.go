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
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":7800", "listen address")
		policy    = flag.String("policy", "muri-l", "scheduling policy ("+strings.Join(sched.Names(), "|")+"); every policy plans on the daemon's online predictor (gittins-pred also ranks by its service history)")
		interval  = flag.Duration("interval", time.Second, "scheduling interval (wall time)")
		timeScale = flag.Float64("timescale", 0.001, "virtual-to-wall time scale forwarded to executors")
		report    = flag.Duration("report", 200*time.Millisecond, "executor progress-report period")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof, and the JSON API on this address")
		httpAddr  = flag.String("http-addr", "", "serve the JSON submission API (/api/v1/...) on this address")

		ingestCap   = flag.Int("ingest-cap", 0, "admission queue capacity (0 = default 65536)")
		batchDelay  = flag.Duration("max-batch-delay", 0, "minimum spacing between an event-driven scheduling round and the last round that admitted a job or issued a decision: an event sooner than that waits out the rest and batches with what arrives meanwhile, any other runs its round at once (0 = a round per event)")
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
	var level slog.Level
	flag.TextVar(&level, "log-level", slog.LevelInfo, "minimum log `level` (debug|info|warn|error)")
	flag.Parse()

	// One predictor serves both the daemon (which feeds it completions
	// and plans every policy on its beliefs) and gittins-pred (which
	// ranks on its service history).
	predictor := profile.NewOnline()
	p, err := sched.ByName(*policy, predictor)
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

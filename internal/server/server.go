// Package server implements the Muri scheduler daemon of Figure 3: a job
// queue fed by clients, a resource profiler that dry-runs first-seen
// models on an executor, a job scheduler that periodically runs the
// grouping policy, and a worker monitor that tracks executors, job
// progress, and faults.
//
// The daemon speaks the internal/proto protocol over TCP. Executors
// register and receive Launch/Kill commands; clients submit jobs and poll
// status. Time is virtual: stage durations are scaled by TimeScale on the
// executors, and the scheduler converts wall-clock spans back to virtual
// time for metrics.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"muri/internal/crashpoint"
	"muri/internal/engine"
	"muri/internal/explain"
	"muri/internal/ingest"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/profile"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/telemetry"
	"muri/internal/wal"
	"muri/internal/workload"
)

// Config parameterizes the scheduler daemon.
type Config struct {
	// Policy decides grouping and ordering; nil defaults to Muri-L.
	Policy sched.Policy
	// Interval is the scheduling period (virtual-time semantics are up to
	// the caller; the prototype usually runs with a short wall interval).
	Interval time.Duration
	// TimeScale is forwarded to executors: virtual stage duration ×
	// TimeScale = wall sleep.
	TimeScale float64
	// ReportEvery is the executor progress-report period (wall time).
	ReportEvery time.Duration
	// ProfileIterations is the dry-run length for first-seen models.
	ProfileIterations int
	// LivenessTimeout is the executor lease TTL: an executor that sends
	// nothing (not even a heartbeat) within one TTL is evicted and its
	// groups requeued. It is advertised to executors in RegisterAck so
	// they can pace heartbeats to it. Zero means 5 seconds.
	LivenessTimeout time.Duration
	// FaultBackoffBase is the requeue delay after a job's first fault;
	// each subsequent fault doubles it (with deterministic jitter) up to
	// FaultBackoffMax. Zero means 100ms base, 5s cap.
	FaultBackoffBase time.Duration
	FaultBackoffMax  time.Duration
	// FaultRetryBudget is how many faults a job may accumulate before it
	// is parked in the dead-letter state instead of being requeued. Zero
	// means 8; negative means unlimited retries.
	FaultRetryBudget int
	// StarvationPatience is forwarded to the scheduling engine: how many
	// rounds a unit may be bypassed for capacity before it is boosted to
	// the front of the admission order. Zero uses the engine default.
	StarvationPatience int
	// Predictor is the online duration estimator fed by every job
	// completion; nil constructs a fresh one. It is the engine's
	// estimator, so every policy plans on the beliefs the daemon learns;
	// pass the same instance to sched.NewGittinsFromEstimator to rank on
	// its service history. Its state rides WAL snapshots and Done-record
	// replay, surviving restarts.
	Predictor *profile.Online
	// Observer, when non-nil, receives every engine decision as it is
	// issued (the parity harness taps the decision stream here).
	Observer func(engine.Decision)
	// Logf receives diagnostics; nil uses log.Printf. Lines are rendered
	// by the structured logger (level=... msg=... component=server
	// key=value), so any printf-shaped sink works unchanged.
	Logf func(format string, args ...any)
	// LogLevel is the minimum severity emitted; the zero value is info.
	LogLevel slog.Level
	// TraceEvents bounds the daemon's always-on trace ring (scheduler
	// rounds and decisions on the virtual clock, snapshotted by the
	// TraceSnapshot RPC). Zero uses telemetry.DefaultMaxEvents.
	TraceEvents int
	// IngestCapacity bounds the admission queue between the submission
	// front door and the scheduling engine; beyond it submissions are
	// rejected with a typed, retryable queue-full error instead of
	// blocking a connection handler. Zero means 65536.
	IngestCapacity int
	// MaxBatchDelay is the minimum spacing between an event-driven
	// scheduling round and the last round that changed something
	// (admitted a job or issued a decision). An event (arrival,
	// completion, fault) that lands sooner waits out the remainder, and
	// every event arriving meanwhile joins the same round; any other
	// event runs its round at once. A round that changed nothing starts
	// no spacing, so an arrival behind an idle completion round is not
	// delayed. It caps admission rounds under a burst, and relaunching
	// rounds under churn, at 1/MaxBatchDelay. Zero runs a round per
	// event.
	MaxBatchDelay time.Duration
	// TenantRate is each tenant's sustained submission rate in jobs per
	// second (token bucket keyed on JobSpec.Tenant); zero disables rate
	// limiting. TenantBurst is the bucket depth (zero derives it).
	TenantRate  float64
	TenantBurst int
	// StateDir enables durability: every engine decision (plus admission
	// batches, fault-ledger spends, and completions) is logged to a
	// checksummed WAL there, with periodic snapshots. A restarted daemon
	// pointed at the same directory replays to the exact pre-crash
	// state. Empty disables the WAL (in-memory daemon, as before).
	StateDir string
	// FsyncEvery bounds the WAL's loss window: at most N−1 records are
	// unsynced when an append returns; the fsync itself runs in the
	// background (and on shutdown). 1 is durable-on-append; zero means 64.
	FsyncEvery int
	// SnapshotEvery is the full-state checkpoint cadence; recovery
	// replays only the WAL tail past the newest snapshot. Zero means 10s.
	SnapshotEvery time.Duration
	// SegmentBytes caps each WAL segment file; zero uses the WAL default.
	SegmentBytes int64
	// StandbyOf runs this daemon as a warm standby replicating the WAL
	// of the leader at this address; it serves no clients or executors
	// until the leader's lease lapses and it promotes itself. Requires
	// StateDir.
	StandbyOf string
	// StandbyID names this standby on the replication stream.
	StandbyID string
	// ElectionTTL is the leader lease: a standby hearing nothing (no
	// frames, no heartbeats) for one TTL promotes itself. Zero means 2s.
	ElectionTTL time.Duration
	// UnsafeDebug enables the crash-injection debug RPC (murictl debug
	// crash). Never enable outside tests.
	UnsafeDebug bool
}

// jobState tracks one submitted job's daemon-side bookkeeping around its
// job.Job, whose State and Faults the scheduling engine writes: wire
// specs, wall-clock timestamps, and the fault attribution log.
type jobState struct {
	spec    proto.JobSpec
	job     *job.Job
	groupID int64
	// virtual bookkeeping
	submittedAt time.Time
	finishedAt  time.Time
	lastSeen    time.Time
	// notBefore holds the job out of scheduling until the backoff after
	// its last fault has elapsed.
	notBefore time.Time
	// faultLog records every fault with its origin, so repeated failures
	// are attributable (e.g. the same flaky machine every time). Entries
	// are appended by applyFaultLocked and never rewritten, so snapshots
	// share them.
	faultLog []wal.FaultLogEntry
}

// executorConn is one registered executor.
type executorConn struct {
	id    string
	gpus  int
	free  int
	codec *proto.Codec
	wmu   sync.Mutex
	conn  net.Conn
	gone  bool
	// sendTimeout bounds one send (the liveness timeout: an executor that
	// takes longer to drain a frame has outlived its lease anyway).
	sendTimeout time.Duration
	// leaseExpiry is the liveness lease: renewed by every inbound
	// message, checked by the worker monitor each scheduling round.
	leaseExpiry time.Time
}

// send writes one frame under a deadline. Launch and Kill frames are sent
// under Server.mu, so an executor that stops reading must not block the
// write for good: that would stall the round, Status, every other
// executor's handlers and the lease eviction that would remove it. A send
// that fails closes the connection — a partial frame corrupts the stream
// — and the executor's reader then requeues its groups (dropExecutor).
func (e *executorConn) send(m *proto.Message) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	err := e.conn.SetWriteDeadline(time.Now().Add(e.sendTimeout))
	if err == nil {
		err = e.codec.Write(m)
	}
	if err != nil {
		e.conn.Close()
	}
	return err
}

// groupState is one launched group. Its spec is the placed unit and the
// only record of membership: a member that finishes or faults leaves
// spec.Jobs (detachFromGroupLocked) as it leaves the executor's run, so
// every round offers the engine the composition that is really running,
// and a kill, a requeue or a status count names only live members.
type groupState struct {
	id   int64
	exec *executorConn
	spec sched.Unit
}

// The daemon's tables — live jobs, launched groups, registered executors
// — are slices in ascending ID order: a round walks them in
// decision-stream order, and a lookup is a binary search.
func jobIDOf(js *jobState) int64       { return js.spec.ID }
func groupIDOf(g *groupState) int64    { return g.id }
func machineOf(e *executorConn) string { return e.id }

// search finds id in the ascending table s: the index of its element, or
// of where one would go, and whether it is there.
func search[T any, K cmp.Ordered](s []T, id K, idOf func(T) K) (int, bool) {
	return slices.BinarySearchFunc(s, id, func(v T, id K) int { return cmp.Compare(idOf(v), id) })
}

// find returns the element of the ascending table s whose ID is id, or
// nil when there is none.
func find[T any, K cmp.Ordered](s []T, id K, idOf func(T) K) (v T) {
	if i, ok := search(s, id, idOf); ok {
		v = s[i]
	}
	return v
}

// insertSorted adds v to the ascending table s; the newest job or group
// carries the highest ID, so the usual case is an append.
func insertSorted[T any, K cmp.Ordered](s []T, v T, idOf func(T) K) []T {
	i, _ := search(s, idOf(v), idOf)
	return slices.Insert(s, i, v)
}

// removeSorted drops v from the ascending table s if present.
func removeSorted[T any, K cmp.Ordered](s []T, v T, idOf func(T) K) []T {
	if i, ok := search(s, idOf(v), idOf); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// Server is the scheduler daemon.
type Server struct {
	cfg Config
	ln  net.Listener

	mu sync.Mutex
	// eng is the shared scheduling decision core (internal/engine): job
	// lifecycle phases, admission, preemption reconciliation, and the
	// fault/retry state machine all live there. Driven under s.mu.
	eng  *engine.Engine
	jobs map[int64]*jobState
	// live is every job that is neither done nor dead-lettered, in
	// ascending ID order: jobs is never pruned, so a round must not scale
	// with it. Recovery rebuilds it wholesale. groups are the launched
	// groups and executors the registered machines, each in ascending ID
	// order and nowhere else.
	live      []*jobState
	groups    []*groupState
	executors []*executorConn
	// candidates and current are scheduleLocked's engine-input buffers,
	// refilled every round (neither the engine nor a policy retains them).
	candidates []*job.Job
	current    []engine.Current
	profiles   map[string][4]time.Duration
	// profiling maps each model with an in-flight dry run to the executor
	// serving it, so an eviction can release the request for a retry.
	profiling map[string]string
	nextGroup int64
	started   time.Time
	closed    bool
	// est is the online duration estimator (cfg.Predictor or a fresh
	// one): every completion folds in through eng.Complete, and its
	// learned state checkpoints into WAL snapshots. It has its own lock,
	// so metrics scrape it without s.mu.
	est *profile.Online
	// draining rejects new submissions while in-flight groups finish
	// (set by Stop).
	draining bool
	// seenMachines remembers every machine id that ever registered, so a
	// re-registration after an eviction counts as a repair.
	seenMachines map[string]bool
	faults       metrics.FaultStats
	// leaseEvictions counts executors evicted specifically for lease
	// expiry (a subset of faults.Crashes, which also counts disconnects).
	leaseEvictions uint64
	conns          map[net.Conn]bool
	kick           chan struct{}
	wg             sync.WaitGroup

	// log is the structured logger (component=server), rendered through
	// cfg.Logf.
	log *slog.Logger
	// tracer records scheduler rounds and decisions on the virtual clock
	// for the TraceSnapshot RPC. Always on, bounded by cfg.TraceEvents.
	tracer *telemetry.Tracer
	// reg is the /metrics registry; engine and fault counters are
	// func-backed so every scrape agrees with the status RPC.
	reg *telemetry.Registry
	// jctHist observes each finished job's virtual JCT in seconds;
	// roundHist observes each scheduling round's wall latency in seconds;
	// lingerHist observes how long each kicked round waited out
	// MaxBatchDelay (0 for one that ran at once); firstDispatchHist
	// observes each job's wall seconds from accept to its first launch.
	jctHist, roundHist, lingerHist, firstDispatchHist *telemetry.Histogram
	// waitAttrHist observes, per cause, each finished job's exact
	// wait-time attribution in virtual seconds.
	waitAttrHist *telemetry.HistogramVec

	// expl folds the daemon's record stream into per-job lifecycle spans
	// (decision provenance). Fed by applyLocked — with or without a WAL,
	// live and replaying — so live rendering and the offline muritrace
	// reconstruction are byte-identical. Guarded by s.mu.
	expl *explain.Builder

	// adm is the admission front door: submissions queue here under the
	// admitter's own lock (never s.mu, so submit latency stays flat even
	// mid-round) and the schedule loop drains them in batches.
	adm *ingest.Admitter
	// batchHist observes admission batch sizes; submitWaitHist observes
	// each job's queue wait (accept → engine admission) in seconds.
	batchHist, submitWaitHist *telemetry.Histogram

	// --- durability & failover (see durable.go) ---
	// w is the decision-stream WAL; nil when StateDir is unset. Appends
	// happen exclusively under s.mu.
	w          *wal.Writer
	durStarted bool
	role       string
	// notLeader gates the lock-free submit path (standby/fenced daemons
	// reject writes without touching s.mu).
	notLeader atomic.Bool
	term      atomic.Uint64
	lastSnap  time.Time
	// adoptUntil is the post-recovery grace deadline: scheduling rounds
	// freeze until every orphaned running job is re-adopted by its
	// returning executor, or the deadline passes and they requeue.
	adoptUntil  time.Time
	walReplayed int
	// walErr is the text of the last append failure logged and walFailed
	// the failures since start: the writer's error is sticky, so
	// commitLocked logs a change and counts the repeats.
	walErr    string
	walFailed uint64
	// replaying is set while restoreLocked runs the log through
	// applyLocked: the engine has not seen these decisions (apply.go).
	replaying bool
	// stopCh wakes durable background loops (standby/election) on Close.
	stopCh chan struct{}

	// replMu guards subs; always acquired after s.mu when both are held.
	replMu      sync.Mutex
	subs        []*replSub
	standbyConn net.Conn
	// lastLeaderMsg (unix nanos) is the standby's view of leader
	// liveness; appliedLSN/leaderLSN drive the replication-lag gauge.
	lastLeaderMsg           atomic.Int64
	appliedLSN, leaderLSN   atomic.Uint64
	fsyncHist, applyLagHist *telemetry.Histogram
}

// profileTimeScale is the time scale used for dry-run profiling, coarser
// than Config.TimeScale because measuring microsecond sleeps is dominated
// by timer overhead and would destroy the stage ratios the scheduler
// depends on.
const profileTimeScale = 0.05

// New creates a daemon with defaults filled in.
func New(cfg Config) *Server {
	if cfg.Policy == nil {
		cfg.Policy = sched.NewMuriL()
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 0.001
	}
	if cfg.ReportEvery <= 0 {
		cfg.ReportEvery = 50 * time.Millisecond
	}
	if cfg.ProfileIterations <= 0 {
		cfg.ProfileIterations = 5
	}
	if cfg.LivenessTimeout <= 0 {
		cfg.LivenessTimeout = 5 * time.Second
	}
	if cfg.FaultBackoffBase <= 0 {
		cfg.FaultBackoffBase = 100 * time.Millisecond
	}
	if cfg.FaultBackoffMax <= 0 {
		cfg.FaultBackoffMax = 5 * time.Second
	}
	if cfg.FaultRetryBudget == 0 {
		cfg.FaultRetryBudget = 8
	}
	if cfg.TraceEvents <= 0 {
		// A TraceAck must fit one proto frame (16MB); at ~150 bytes per
		// JSON event, 64Ki events stay safely under it.
		cfg.TraceEvents = 1 << 16
	}
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = 64
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 10 * time.Second
	}
	if cfg.ElectionTTL <= 0 {
		cfg.ElectionTTL = 2 * time.Second
	}
	if cfg.Predictor == nil {
		cfg.Predictor = profile.NewOnline()
	}
	s := &Server{
		cfg:          cfg,
		est:          cfg.Predictor,
		jobs:         make(map[int64]*jobState),
		profiles:     make(map[string][4]time.Duration),
		profiling:    make(map[string]string),
		seenMachines: make(map[string]bool),
		conns:        make(map[net.Conn]bool),
		kick:         make(chan struct{}, 1),
		stopCh:       make(chan struct{}),
		role:         roleSolo,
		started:      time.Now(),
		tracer:       telemetry.NewTracer(cfg.TraceEvents),
		expl:         explain.NewBuilder(),
		adm: ingest.New(ingest.Config{
			Capacity:    cfg.IngestCapacity,
			TenantRate:  cfg.TenantRate,
			TenantBurst: cfg.TenantBurst,
		}),
	}
	sink := cfg.Logf
	if sink == nil {
		sink = log.Printf
	}
	s.log = newLogger(sink, cfg.LogLevel).With("component", "server")
	s.eng = engine.New(engine.Config{
		Policy:             cfg.Policy,
		Style:              engine.Differential,
		StarvationPatience: cfg.StarvationPatience,
		Estimator:          s.est,
		Retry: engine.RetryPolicy{
			BackoffBase: cfg.FaultBackoffBase,
			BackoffMax:  cfg.FaultBackoffMax,
			Budget:      cfg.FaultRetryBudget,
		},
		// observeDecision wraps the caller's tap and makes every decision
		// durable in the WAL before the round moves on.
		Observer: s.observeDecision,
		// provenance turns each decision site's cause annotation into a
		// durable KindCause record feeding the explain builder.
		Provenance: s.provenance,
		Tracer:     s.tracer,
		// virtualNowLocked reads only immutable fields, so the engine may
		// stamp trace events from any point of the reconcile path.
		Now: s.virtualNowLocked,
	})
	s.initMetrics()
	return s
}

// ListenAndServe binds addr and serves until Close. It returns the bound
// address through Addr once listening.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. When StateDir is set it
// first recovers durable state from the WAL (or, as a standby, starts
// replicating the leader) — before the first scheduling round can run.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.startDurability(); err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.scheduleLoop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Addr returns the bound listener address (for tests using port 0).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the daemon: the listener closes, executors are
// disconnected, and background loops drain.
func (s *Server) Close() { s.shutdown(false) }

// shutdown marks the daemon closed, stops the loops and ingest, closes the
// listener, connections and standby link, and waits for the loops. Only
// the WAL step depends on crash: a graceful close fsyncs the tail before
// any listener closes and closes the log after the wait; a crash abandons
// it unflushed.
func (s *Server) shutdown(crash bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stopCh)
	s.adm.SetDraining(true)
	if s.w != nil {
		if crash {
			s.w.Abandon()
		} else if err := s.w.Sync(); err != nil {
			// Every acked decision is durable before any listener closes.
			s.log.Error("wal sync on close failed", "err", err)
		}
	}
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	sc := s.standbyConn
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if sc != nil {
		sc.Close()
	}
	s.kickSchedule() // wake the schedule loop so it observes closed
	s.wg.Wait()
	if crash {
		return
	}
	s.mu.Lock()
	if s.w != nil {
		if err := s.w.Close(); err != nil {
			s.log.Error("wal close failed", "err", err, "failed_appends", s.walFailed)
		}
	}
	s.mu.Unlock()
}

// Stop drains the daemon gracefully: new submissions are rejected while
// groups already in flight run to completion (or fault), then the
// listener and all connections close. If ctx expires first, the daemon
// closes anyway and the context error is returned.
func (s *Server) Stop(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.adm.SetDraining(true)
	s.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := len(s.groups) == 0
		s.mu.Unlock()
		if idle {
			s.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// handleConn dispatches a new connection based on its first message.
func (s *Server) handleConn(conn net.Conn) {
	codec := proto.NewCodec(conn)
	m, err := codec.Read()
	if err != nil {
		conn.Close()
		return
	}
	switch m.Type {
	case proto.TypeRegister:
		s.handleExecutor(conn, codec, m.Register)
	case proto.TypeReplSubscribe:
		if m.ReplSubscribe != nil {
			s.handleReplSubscribe(conn, codec, m.ReplSubscribe)
		}
	case proto.TypeSubmit, proto.TypeSubmitBatch, proto.TypeStatus, proto.TypeInjectFault,
		proto.TypeTrace, proto.TypeExplain, proto.TypeDebugCrash:
		s.handleClient(conn, codec, m)
	default:
		s.log.Warn("unexpected first message", "type", m.Type)
		conn.Close()
	}
}

// handleExecutor serves one executor connection until it drops.
func (s *Server) handleExecutor(conn net.Conn, codec *proto.Codec, reg *proto.Register) {
	e := &executorConn{id: reg.MachineID, gpus: reg.GPUs, free: reg.GPUs,
		codec: codec, conn: conn, sendTimeout: s.cfg.LivenessTimeout,
		leaseExpiry: time.Now().Add(s.cfg.LivenessTimeout)}
	s.mu.Lock()
	// Fencing: an executor that has seen a higher election term carries
	// proof this daemon was deposed; and a standby/fenced daemon serves
	// no executors at all.
	if reg.SeenTerm > s.term.Load() {
		s.fenceLocked(reg.SeenTerm)
	}
	if s.notLeader.Load() {
		role, term := s.role, s.term.Load()
		s.mu.Unlock()
		_ = e.send(&proto.Message{Type: proto.TypeRegisterAck,
			RegisterAck: &proto.RegisterAck{OK: false, Term: term,
				Reason: "not_leader: daemon is " + role}})
		conn.Close()
		return
	}
	if find(s.executors, e.id, machineOf) != nil || reg.GPUs <= 0 {
		s.mu.Unlock()
		_ = e.send(&proto.Message{Type: proto.TypeRegisterAck,
			RegisterAck: &proto.RegisterAck{OK: false, Reason: "duplicate machine id or no GPUs"}})
		conn.Close()
		return
	}
	s.executors = insertSorted(s.executors, e, machineOf)
	rejoined := s.seenMachines[e.id]
	s.seenMachines[e.id] = true
	if rejoined {
		// A machine coming back after an eviction (or clean disconnect)
		// is the live-path analogue of a repair event.
		s.faults.Repairs++
	}
	// Adoption: re-bind groups the executor kept running across our
	// crash or a failover. Anything not adopted is the executor's to
	// kill (its jobs were requeued or reassigned meanwhile).
	var adopted []int64
	for i := range reg.Groups {
		if s.adoptGroupLocked(e, &reg.Groups[i]) {
			adopted = append(adopted, reg.Groups[i].GroupID)
		}
	}
	s.mu.Unlock()
	ack := &proto.RegisterAck{OK: true, LeaseTTL: s.cfg.LivenessTimeout,
		Term: s.term.Load(), AdoptedGroups: adopted}
	if err := e.send(&proto.Message{Type: proto.TypeRegisterAck, RegisterAck: ack}); err != nil {
		s.dropExecutor(e)
		return
	}
	s.log.Info("executor registered", "machine", e.id, "gpus", e.gpus, "lease", s.cfg.LivenessTimeout)
	s.kickSchedule()
	for {
		m, err := codec.Read()
		if err != nil {
			s.dropExecutor(e)
			return
		}
		s.mu.Lock()
		e.leaseExpiry = time.Now().Add(s.cfg.LivenessTimeout)
		s.mu.Unlock()
		switch m.Type {
		case proto.TypeProgress:
			s.onProgress(m.Progress)
		case proto.TypeJobDone:
			s.onJobDone(m.JobDone)
		case proto.TypeFault:
			s.onFault(m.Fault, e.id)
		case proto.TypeProfiled:
			s.onProfiled(m.Profiled)
		case proto.TypeHeartbeat:
			// The lease renewal above is all a heartbeat needs.
		default:
			s.log.Warn("unexpected executor message", "machine", e.id, "type", m.Type)
		}
	}
}

// dropExecutor handles an executor disconnect or lease expiry: its
// groups' jobs go back to the queue (the worker monitor's fault
// handling, §5). Losing a machine is not the job's fault, so requeued
// jobs keep their retry budget; the loss is still recorded in their
// fault log for attribution.
func (s *Server) dropExecutor(e *executorConn) {
	e.conn.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.gone {
		return
	}
	e.gone = true
	s.executors = removeSorted(s.executors, e, machineOf)
	if s.closed {
		// The daemon is dying, not the machine: connections drop because
		// Close/Crash closed them. Leave the jobs bound so recovery sees
		// them as running orphans (the executor re-offers them for
		// adoption), and emit nothing into a stream the WAL no longer
		// accepts.
		return
	}
	// Release any profiling dry run the dead executor was serving, so the
	// next scheduling round re-requests it from a healthy machine (a
	// request stuck on a hung executor would otherwise block its model's
	// jobs in the profiling phase forever).
	for model, owner := range s.profiling {
		if owner == e.id {
			delete(s.profiling, model)
		}
	}
	// Walk the dead executor's groups in ascending group-ID order so the
	// engine's requeue decision stream is deterministic, filtering them
	// out of groups in place.
	var lost []int64
	s.groups = slices.DeleteFunc(s.groups, func(g *groupState) bool {
		if g.exec != e {
			return false
		}
		for _, j := range g.spec.Jobs {
			lost = append(lost, int64(j.ID))
		}
		return true
	})
	s.requeueLostLocked(lost, e.id, "executor lost", "machine "+e.id+" lost")
	s.log.Warn("executor dropped", "machine", e.id, "requeued", len(lost))
	s.kickSchedule()
}

// requeueLostLocked pushes running jobs whose executor is gone back to the
// queue: one loss record up front carries the origin and text every job's
// fault log takes (and counts the crash, when origin names a machine); the
// progress checkpoints and requeue decisions follow, job by job. Callers
// hold s.mu.
func (s *Server) requeueLostLocked(ids []int64, origin, text, cause string) {
	s.commitLocked(&wal.Record{Kind: wal.KindFault,
		Fault: &wal.FaultRecord{Origin: origin, Err: text, Jobs: ids}})
	for _, id := range ids {
		s.checkpointLocked(s.jobs[id])
		s.eng.RequeueWithCause(job.ID(id), engine.ReasonMachineLost, cause)
	}
}

// handleClient serves a client connection: each request gets a reply,
// and the connection may carry many requests.
func (s *Server) handleClient(conn net.Conn, codec *proto.Codec, first *proto.Message) {
	defer conn.Close()
	m := first
	for {
		var reply proto.Message
		switch m.Type {
		case proto.TypeSubmit:
			r := submitResult(s.submit(m.Submit.Job))
			reply = proto.Message{Type: proto.TypeSubmitAck, SubmitAck: &proto.SubmitAck{
				ID: r.ID, Err: r.Err, Seq: m.Submit.Seq, Code: r.Code, Retryable: r.Retryable}}
		case proto.TypeSubmitBatch:
			ack := s.submitBatch(m.SubmitBatch.Jobs)
			reply = proto.Message{Type: proto.TypeSubmitBatchAck, SubmitBatchAck: &ack}
		case proto.TypeStatus:
			st := s.status()
			reply = proto.Message{Type: proto.TypeStatusAck, StatusAck: &st}
		case proto.TypeInjectFault:
			ack := proto.InjectFaultAck{OK: true}
			if err := s.injectFault(m.InjectFault); err != nil {
				ack.OK = false
				ack.Err = err.Error()
			}
			reply = proto.Message{Type: proto.TypeInjectFaultAck, InjectFaultAck: &ack}
		case proto.TypeTrace:
			ack := proto.TraceAck{}
			if data, err := s.TraceJSON(); err != nil {
				ack.Err = err.Error()
			} else {
				ack.Trace = data
			}
			reply = proto.Message{Type: proto.TypeTraceAck, TraceAck: &ack}
		case proto.TypeExplain:
			ack := proto.ExplainAck{}
			if m.Explain == nil || m.Explain.JobID <= 0 {
				ack.Err = "explain needs a job id"
			} else {
				ack.Text = s.explainJob(m.Explain.JobID)
			}
			reply = proto.Message{Type: proto.TypeExplainAck, ExplainAck: &ack}
		case proto.TypeDebugCrash:
			ack := proto.DebugCrashAck{OK: true}
			switch {
			case !s.cfg.UnsafeDebug:
				ack.OK = false
				ack.Err = "debug interface disabled (run murisched -unsafe-debug)"
			case m.DebugCrash == nil || m.DebugCrash.Point == "":
				ack.OK = false
				ack.Err = "debug crash needs a point name"
			default:
				crashpoint.Arm(m.DebugCrash.Point)
				s.log.Warn("crash point armed", "point", m.DebugCrash.Point)
			}
			reply = proto.Message{Type: proto.TypeDebugCrashAck, DebugCrashAck: &ack}
		default:
			s.log.Warn("unexpected client message", "type", m.Type)
			return
		}
		if err := codec.Write(&reply); err != nil {
			return
		}
		var err error
		m, err = codec.Read()
		if err != nil {
			return
		}
	}
}

// provenance is the engine's cause hook: every structured annotation a
// decision site emits (wait-cause transitions, starvation-boost notes)
// becomes a durable KindCause record, which both feeds the live
// explain builder and lets muritrace reconstruct the identical
// explanation offline. Runs under s.mu (the engine is driven under it).
func (s *Server) provenance(ev engine.CauseEvent) {
	s.commitLocked(&wal.Record{Kind: wal.KindCause, Cause: &wal.CauseRecord{
		Job: int64(ev.Job), Cause: ev.Cause, Detail: ev.Detail, Note: ev.Note}})
}

// explainJob renders one job's provenance under the scheduling lock.
func (s *Server) explainJob(id int64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expl.RenderJob(id)
}

// submit validates a spec and offers it to the admission queue. It
// deliberately never takes s.mu: the heavy lifting — engine tracking,
// job construction, profile resolution — happens in batched drains at
// the top of each scheduling round, so the front door stays fast even
// while a planning round holds the scheduling lock. The returned ID is
// final (assigned in arrival order under the admitter's lock).
func (s *Server) submit(spec proto.JobSpec) (int64, error) {
	if s.notLeader.Load() {
		return 0, errNotLeader
	}
	if spec.Iterations <= 0 {
		return 0, errors.New("server: job needs a positive iteration count")
	}
	if spec.GPUs <= 0 {
		spec.GPUs = 1
	}
	if _, err := workload.ByName(spec.Model); err != nil {
		return 0, err
	}
	id, wasEmpty, err := s.adm.Offer(spec)
	if err != nil {
		return 0, err
	}
	// One wakeup per burst: only the offer that found the queue empty
	// kicks the schedule loop; everything arriving before the next drain
	// rides the same admission round.
	if wasEmpty {
		s.kickSchedule()
	}
	return id, nil
}

// submitResult maps a submit outcome onto the wire result, carrying the
// typed rejection code and retryability for backpressure-aware clients.
func submitResult(id int64, err error) proto.SubmitResult {
	res := proto.SubmitResult{ID: id}
	if err == nil {
		return res
	}
	res.Err = err.Error()
	var ie *ingest.Error
	if errors.As(err, &ie) {
		res.Code, res.Retryable = ie.Code, ie.Retryable
	} else {
		res.Code = proto.CodeInvalid
	}
	return res
}

// submitBatch admits jobs in order, one result each: the batch answer of
// both transports.
func (s *Server) submitBatch(jobs []proto.JobSpec) proto.SubmitBatchAck {
	results := make([]proto.SubmitResult, len(jobs))
	for i, spec := range jobs {
		results[i] = submitResult(s.submit(spec))
	}
	return proto.SubmitBatchAck{Results: results}
}

// drainIngestLocked admits every queued submission into the engine as one
// batch, durable as one record: a recovered daemon re-admits exactly these
// jobs in exactly this order. Items drain FIFO, so engine admission order equals ack order —
// the determinism the decision-stream goldens pin. Each job's stage
// durations come from, in order, the submitted spec, the profile cache, or
// a dry-run profiling round on an executor (the job waits in "profiling"
// state meanwhile). It reports whether it admitted anything. Callers
// hold s.mu.
func (s *Server) drainIngestLocked() bool {
	items := s.adm.Drain(0)
	if len(items) == 0 {
		return false
	}
	now := time.Now()
	ar := &wal.AdmitRecord{Items: make([]wal.AdmitItem, len(items))}
	for i := range items {
		it, ai := &items[i], &ar.Items[i]
		wait := max(0, now.Sub(it.At))
		// The virtual clock advances item by item, and replay must give
		// each job the submit instant it got here.
		*ai = wal.AdmitItem{Spec: it.Spec, AtWall: it.At.UnixNano(), Depth: it.Depth,
			SubmitV: int64(s.virtualNowLocked()), WaitV: int64(float64(wait) / s.cfg.TimeScale)}
		if ai.Spec.Stages == ([4]time.Duration{}) {
			ai.Spec.Stages = s.profiles[it.Spec.Model]
		}
		if ai.Spec.Stages == ([4]time.Duration{}) {
			ai.Profiling = true
			s.requestProfileLocked(it.Spec.Model)
		}
		s.submitWaitHist.Observe(wait.Seconds())
	}
	s.commitLocked(&wal.Record{Kind: wal.KindAdmit, Admit: ar})
	s.batchHist.Observe(float64(len(items)))
	if s.adm.Depth() > 0 {
		// A bounded batch left items behind; run another round promptly.
		s.kickSchedule()
	}
	return true
}

// requestProfileLocked asks any executor to dry-run the model. Callers
// hold s.mu.
func (s *Server) requestProfileLocked(model string) {
	if _, inflight := s.profiling[model]; inflight {
		return
	}
	for _, e := range s.executors { // the lowest machine ID serves it
		s.profiling[model] = e.id
		req := &proto.Message{Type: proto.TypeProfileReq, ProfileReq: &proto.ProfileReq{
			Model: model, Iterations: s.cfg.ProfileIterations, TimeScale: profileTimeScale,
		}}
		exec := e
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := exec.send(req); err != nil {
				s.mu.Lock()
				delete(s.profiling, model)
				s.mu.Unlock()
			}
		}()
		return
	}
	// No executor yet: retried by the schedule loop.
}

// onProfiled stores a measured profile and releases waiting jobs.
func (s *Server) onProfiled(p *proto.Profiled) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.profiling, p.Model)
	if p.Err != "" {
		s.log.Warn("profiling failed", "model", p.Model, "err", p.Err)
		return
	}
	s.commitLocked(&wal.Record{Kind: wal.KindProfile,
		Profile: &wal.ProfileRecord{Model: p.Model, Stages: p.Stages}})
	s.kickSchedule()
}

// virtualNowLocked converts wall time since start to virtual time.
func (s *Server) virtualNowLocked() time.Duration {
	return time.Duration(float64(time.Since(s.started)) / s.cfg.TimeScale)
}

// onProgress updates the worker monitor's view of a group.
func (s *Server) onProgress(p *proto.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, jp := range p.Jobs {
		js := s.jobs[jp.ID]
		if js == nil || js.job.State == job.Done {
			continue
		}
		if jp.DoneIterations > js.job.DoneIterations {
			js.job.DoneIterations = jp.DoneIterations
		}
		now := time.Now()
		if js.job.State == job.Running {
			wall := now.Sub(js.lastSeen)
			js.job.Attained += time.Duration(float64(wall) / s.cfg.TimeScale)
		}
		js.lastSeen = now
	}
}

// onJobDone finalizes a completed job.
func (s *Server) onJobDone(d *proto.JobDone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := s.jobs[d.JobID]
	if js == nil || (js.groupID != 0 && js.groupID != d.GroupID) {
		// Unknown job, or a stale report from a group the job no longer
		// belongs to (an executor that kept running through a failover can
		// replay events for reassigned work).
		return
	}
	if s.closed || !js.job.State.CanTransition(job.Done) {
		// The state machine rejects the transition (the job already
		// completed); nothing to finalize.
		return
	}
	reprofiles := s.eng.Stats().Reprofiles
	s.commitLocked(&wal.Record{Kind: wal.KindDone, Done: &wal.DoneRecord{
		Job: d.JobID, FinishedWall: time.Now().UnixNano(), FinishedV: int64(s.virtualNowLocked()),
		ServiceV: int64(float64(js.job.Attained) * float64(js.job.GPUs))}})
	if s.eng.Stats().Reprofiles > reprofiles {
		s.log.Info("predictor re-profiled model on completion deviation",
			"job", d.JobID, "model", js.spec.Model)
	}
	jct := time.Duration(float64(js.finishedAt.Sub(js.submittedAt)) / s.cfg.TimeScale)
	s.jctHist.Observe(jct.Seconds())
	// The done record just folded into the explain builder, so the job's
	// attribution is final: observe each cause's exact share and export
	// the lifecycle spans onto the trace.
	if at, ok := s.expl.AttributionOf(d.JobID); ok {
		for _, c := range at.SortedCauses() {
			s.waitAttrHist.Observe(c, time.Duration(at.PerCause[c]).Seconds())
		}
		s.expl.EmitJobSpans(s.tracer, d.JobID)
	}
	s.detachFromGroupLocked(d.GroupID, d.JobID)
	s.kickSchedule()
}

// onFault pushes a failed job back to the queue (§5), preserving its
// progress (the next launch resumes from DoneIterations) and recording
// the fault's origin for attribution. Repeated faults back the job off
// exponentially; past the retry budget it is dead-lettered.
func (s *Server) onFault(f *proto.Fault, from string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := s.jobs[f.JobID]
	if js == nil || js.job.State == job.Done {
		return
	}
	if js.groupID != 0 && js.groupID != f.GroupID {
		// Stale fault from a group the job was already detached from.
		return
	}
	origin := f.Machine
	if origin == "" {
		origin = from
	}
	s.detachFromGroupLocked(f.GroupID, f.JobID)
	s.recordJobFaultLocked(js, origin, f.Error)
	s.kickSchedule()
}

// recordJobFaultLocked records one job-level fault: the engine spends
// retry budget and decides between requeue-with-backoff and dead-letter,
// and the fault record carries the attribution and the backoff. The job's
// progress is untouched — js.job.DoneIterations survives, so the next
// launch resumes the remaining iterations. Callers hold s.mu.
func (s *Server) recordJobFaultLocked(js *jobState, origin, errMsg string) {
	s.checkpointLocked(js)
	backoff, deadlettered := s.eng.RecordFault(js.job.ID)
	fr := &wal.FaultRecord{Job: js.spec.ID, Origin: origin, Err: errMsg,
		Faults: js.job.Faults, DeadLettered: deadlettered}
	if !deadlettered {
		fr.NotBeforeWall = time.Now().Add(backoff).UnixNano()
		// The backoff release on the virtual clock, so wait attribution can
		// split fault-backoff from capacity exactly at the boundary.
		fr.NotBeforeV = int64(s.virtualNowLocked()) + int64(float64(backoff)/s.cfg.TimeScale)
	}
	s.commitLocked(&wal.Record{Kind: wal.KindFault, Fault: fr})
	if deadlettered {
		s.log.Error("job dead-lettered", "job", js.spec.ID, "faults", fr.Faults,
			"machine", origin, "err", errMsg)
		return
	}
	s.log.Warn("job faulted; requeued", "job", js.spec.ID, "machine", origin, "err", errMsg,
		"fault", fr.Faults, "backoff", backoff,
		"done", js.job.DoneIterations, "iterations", js.job.Iterations)
}

// checkpointLocked logs a job's iteration count as it leaves its group
// (kill, fault, lost machine), so after a recovery the requeued job
// resumes from its last reported iteration. Callers hold s.mu.
func (s *Server) checkpointLocked(js *jobState) {
	s.commitLocked(&wal.Record{Kind: wal.KindProgress,
		Progress: &wal.ProgressRecord{Job: js.spec.ID, Done: js.job.DoneIterations}})
}

// detachFromGroupLocked removes a finished or faulted job from its
// group's spec, as the executor's run drops it, and frees the executor
// when the group empties. The survivors keep running: the next round
// offers the engine the shrunk unit, which it keeps with no decision when
// the policy re-plans that same unit, and kills under its shrunk key when
// it does not. Callers hold s.mu.
func (s *Server) detachFromGroupLocked(groupID, jobID int64) {
	g := find(s.groups, groupID, groupIDOf)
	if g == nil {
		return
	}
	g.spec.Jobs = slices.DeleteFunc(g.spec.Jobs, func(j *job.Job) bool { return int64(j.ID) == jobID })
	if len(g.spec.Jobs) == 0 {
		g.exec.free += g.spec.GPUs
		s.groups = removeSorted(s.groups, g, groupIDOf)
	}
}

// scheduleLoop replans periodically and on events: the paper's scheduler
// "is periodically invoked on events like job arrival and job
// completion" (§3). Event kicks coalesce through a 1-slot channel, and
// MaxBatchDelay throttles them: a kick that lands within MaxBatchDelay
// of the last round that changed something (admitted a job or issued a
// decision) lingers the remainder, absorbing further kicks; any other
// kick runs its round at once. A round that changed nothing relaunched
// nothing, so it holds back no later kick. An isolated arrival is not
// delayed, a burst still costs one round per MaxBatchDelay (every one
// of its rounds admits), and relaunches under churn stay capped at one
// round per MaxBatchDelay (every relaunching round decides).
func (s *Server) scheduleLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	linger := time.NewTimer(time.Hour) // stopped; re-armed only after its fire was received
	linger.Stop()
	var lastChange time.Time // when the last round that changed something finished
	for {
		kicked, waited := false, time.Duration(0)
		select {
		case <-t.C:
		case <-s.kick:
			kicked = true
			if wait := s.cfg.MaxBatchDelay - time.Since(lastChange); wait > 0 {
				start := time.Now()
				linger.Reset(wait)
			coalesce:
				for {
					select {
					case <-s.kick: // absorb further kicks into this round
					case <-linger.C:
						break coalesce
					}
				}
				waited = time.Since(start)
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		changed := s.scheduleLocked()
		// Observed after the round's latency: read in that order, a
		// leader's lingers never outnumber its rounds.
		if kicked {
			s.lingerHist.Observe(waited.Seconds())
		}
		s.mu.Unlock()
		if changed {
			lastChange = time.Now()
		}
	}
}

// kickSchedule requests an immediate scheduling round (non-blocking).
func (s *Server) kickSchedule() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// creditLeasesLocked pushes every lease out by held, the time the caller
// kept s.mu across executor sends. Leases do not run meanwhile: the
// readers that renew them wait behind the lock, so a caller that stalled
// on one hung executor (a send blocks for up to LivenessTimeout) would
// otherwise leave every healthy executor's lease expired as well.
func (s *Server) creditLeasesLocked(held time.Duration) {
	for _, e := range s.executors {
		e.leaseExpiry = e.leaseExpiry.Add(held)
	}
}

// scheduleLocked runs one scheduling round and reports whether it
// changed anything: admitted at least one job or issued at least one
// decision (launch, kill, requeue or dead-letter). Callers hold s.mu.
func (s *Server) scheduleLocked() (changed bool) {
	// A standby or fenced daemon plans nothing: its engine state is
	// either a replica (applied only at promotion) or deposed.
	if s.notLeader.Load() {
		return
	}
	wallNow := time.Now()
	defer func() {
		held := time.Since(wallNow)
		s.roundHist.Observe(held.Seconds())
		s.creditLeasesLocked(held)
	}()
	// Batched admission first: every submission accepted since the last
	// round joins the candidate set in one engine round.
	changed = s.drainIngestLocked()
	crashpoint.Hit(crashpoint.MidRound)
	// Worker-monitor liveness: evict executors whose lease expired. A
	// hung machine keeps its TCP connection open, so read errors alone
	// are not enough.
	for _, e := range s.executors {
		if wallNow.After(e.leaseExpiry) {
			dead := e
			s.leaseEvictions++
			s.log.Warn("executor lease expired; evicting", "machine", dead.id)
			s.wg.Add(1)
			go func() { // takes s.mu; must run outside this lock
				defer s.wg.Done()
				s.dropExecutor(dead)
			}()
		}
	}
	if s.draining {
		// Drain: in-flight groups run to completion, nothing new launches.
		return
	}
	// Periodic full-state checkpoint; recovery replays only the tail
	// past it, and the WAL prunes segments below it.
	if s.w != nil && time.Since(s.lastSnap) >= s.cfg.SnapshotEvery {
		s.snapshotLocked()
	}
	// Post-recovery adoption grace: hold rounds while recovered running
	// jobs wait for their executors to re-register. Freeze boundaries are
	// logged as global provenance markers so every waiting job's
	// attribution charges the frozen rounds to adoption, not capacity.
	frozen := s.freezeForAdoptionLocked(wallNow)
	if frozen != s.expl.Frozen() { // the fold remembers the last marker, across restarts too
		detail := "end"
		if frozen {
			detail = "start"
		}
		s.commitLocked(&wal.Record{Kind: wal.KindCause,
			Cause: &wal.CauseRecord{Cause: explain.CauseAdoptionFreeze, Detail: detail}})
	}
	if frozen {
		return
	}
	// Retry profiling for jobs stuck without an executor earlier (a no-op
	// while the model's dry run is in flight).
	for _, js := range s.live {
		if js.job.State == job.Profiling {
			s.requestProfileLocked(js.spec.Model)
		}
	}
	capacity, free := 0, 0
	for _, e := range s.executors {
		capacity += e.gpus
		free += e.free
	}
	if capacity == 0 {
		return
	}
	candidates := s.roundCandidatesLocked(wallNow)
	if len(candidates) == 0 {
		return
	}
	// One engine round: plan, admit (with anti-starvation), reconcile
	// preemptions (kills run through killGroupLocked so capacity frees
	// before placement), and place via placeLocked (the Launch RPCs happen
	// inside it).
	decisions := s.eng.Stats().Decisions
	s.eng.Reconcile(engine.Input{
		Now:        s.virtualNowLocked(),
		Candidates: candidates,
		Capacity:   capacity,
		Current:    s.roundCurrentLocked(),
		Free:       free,
		Place:      s.placeLocked,
		Kill:       func(c engine.Current) { s.killGroupLocked(c.Handle.(int64)) },
	})
	return changed || s.eng.Stats().Decisions != decisions
}

// roundCandidatesLocked fills s.candidates with the jobs a round offers
// the engine: every live job, in s.live's ascending-ID order, less those
// still in their post-fault backoff window. The engine keeps the ones
// job.State makes candidates. The order reaches no decision: every policy
// ranks candidates by a total order of its own. Callers hold s.mu.
func (s *Server) roundCandidatesLocked(wallNow time.Time) []*job.Job {
	s.candidates = s.candidates[:0]
	for _, js := range s.live {
		if !wallNow.Before(js.notBefore) {
			s.candidates = append(s.candidates, js.job)
		}
	}
	return s.candidates
}

// roundCurrentLocked fills s.current with the launched groups in
// ascending group-ID order (again: determinism of the kill stream). The
// engine re-derives each unit's key from the spec; the handle is the
// group ID, passed back verbatim on kills. Callers hold s.mu.
func (s *Server) roundCurrentLocked() []engine.Current {
	s.current = s.current[:0]
	for _, g := range s.groups {
		s.current = append(s.current, engine.Current{Spec: g.spec, Handle: g.id})
	}
	return s.current
}

// placeLocked is the engine's Input.Place on the executor pool: it
// best-fits u onto one executor and sends the Launch RPC; the handle is
// the new group's ID. Callers hold s.mu (Reconcile runs under it).
func (s *Server) placeLocked(key string, u sched.Unit) (any, bool) {
	exec := s.pickExecutorLocked(u.GPUs)
	if exec == nil {
		return nil, false
	}
	gid, ok := s.launchLocked(exec, u, key)
	if !ok {
		return nil, false
	}
	return gid, true
}

// pickExecutorLocked returns the executor with the least sufficient free
// GPUs (best fit). Callers hold s.mu.
func (s *Server) pickExecutorLocked(gpus int) *executorConn {
	var best *executorConn
	for _, e := range s.executors { // ascending machine ID breaks ties
		if e.free >= gpus && (best == nil || e.free < best.free) {
			best = e
		}
	}
	return best
}

// launchLocked sends a Launch for unit u to exec and returns the new
// group's ID. ok=false means the send failed and nothing was recorded
// (the engine skips the unit this round). The members' phase flip to
// running happens in the engine after Place succeeds. Callers hold s.mu.
func (s *Server) launchLocked(exec *executorConn, u sched.Unit, key string) (int64, bool) {
	gid := s.nextGroup + 1 // taken by the group record: a failed send spends no ID
	specs := make([]proto.JobSpec, len(u.Jobs))
	for i, j := range u.Jobs {
		js := s.jobs[int64(j.ID)]
		specs[i] = js.spec
		specs[i].DoneIterations = j.DoneIterations
	}
	msg := &proto.Message{Type: proto.TypeLaunch, Launch: &proto.Launch{
		GroupID:     gid,
		Key:         key,
		GPUs:        u.GPUs,
		Jobs:        specs,
		TimeScale:   s.cfg.TimeScale,
		ReportEvery: s.cfg.ReportEvery,
	}}
	if err := exec.send(msg); err != nil {
		s.log.Warn("launch failed", "machine", exec.id, "err", err)
		return 0, false
	}
	exec.free -= u.GPUs
	// The group outlives the round; u.Jobs is the unit's own copy already
	// (the engine makes it before Place).
	now := time.Now()
	s.groups = insertSorted(s.groups, &groupState{id: gid, exec: exec, spec: u}, groupIDOf)
	gr := &wal.GroupRecord{ID: gid, Members: make([]wal.GroupMember, len(u.Jobs))}
	for i, j := range u.Jobs {
		js := s.jobs[int64(j.ID)]
		js.groupID = gid
		js.lastSeen = now
		gr.Members[i] = wal.GroupMember{Job: int64(j.ID), StartedV: int64(js.job.StartedAt)}
		if js.job.StartedAt < 0 {
			gr.Members[i].StartedV = int64(s.virtualNowLocked())
			s.firstDispatchHist.Observe(now.Sub(js.submittedAt).Seconds())
		}
	}
	s.commitLocked(&wal.Record{Kind: wal.KindGroup, Group: gr})
	return gid, true
}

// killGroupLocked preempts a group — a round's Kill callback, and the
// first half of an injected job fault: members go back to pending with
// their current progress checkpointed. Callers hold s.mu.
func (s *Server) killGroupLocked(gid int64) {
	g := find(s.groups, gid, groupIDOf)
	if g == nil {
		return
	}
	_ = g.exec.send(&proto.Message{Type: proto.TypeKill, Kill: &proto.Kill{GroupID: gid}})
	ids := make([]int64, len(g.spec.Jobs))
	for i, j := range g.spec.Jobs {
		ids[i] = int64(j.ID)
		s.checkpointLocked(s.jobs[ids[i]])
	}
	// The members' half of the kill decision the engine emits after this
	// callback: it cannot wait for the record, because placement may
	// re-bind them first (applyDecisionLocked).
	s.applyKillLocked(ids)
	g.exec.free += g.spec.GPUs
	s.groups = removeSorted(s.groups, g, groupIDOf)
}

// injectFault applies a client-requested chaos injection: kill a running
// job (as if its process crashed) or drop a whole executor (as if the
// machine died). Injections go through the same fault paths as organic
// failures, so backoff, budgets, and counters all apply.
func (s *Server) injectFault(req *proto.InjectFault) error {
	if req == nil || (req.JobID == 0) == (req.Machine == "") {
		return errors.New("server: inject fault needs exactly one of job or machine")
	}
	if req.Machine != "" {
		s.mu.Lock()
		e := find(s.executors, req.Machine, machineOf)
		s.mu.Unlock()
		if e == nil {
			return fmt.Errorf("server: unknown machine %q", req.Machine)
		}
		s.log.Info("injected crash", "machine", req.Machine)
		s.dropExecutor(e)
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The Kill below is sent under s.mu, like a round's.
	locked := time.Now()
	defer func() { s.creditLeasesLocked(time.Since(locked)) }()
	js := s.jobs[req.JobID]
	if js == nil {
		return fmt.Errorf("server: unknown job %d", req.JobID)
	}
	if st := js.job.State; st != job.Running {
		return fmt.Errorf("server: job %d is %s, not running", req.JobID, st)
	}
	origin := ""
	if g := find(s.groups, js.groupID, groupIDOf); g != nil {
		origin = g.exec.id
		// Kill the whole group (the executor cannot stop one member of an
		// interleaved unit): a kill decision for the composition running
		// now, so replay, the decision stream and the explain fold see the
		// innocent members preempted; only the target is charged a fault.
		key := engine.UnitKey(g.spec)
		members := make([]job.ID, len(g.spec.Jobs))
		for i, j := range g.spec.Jobs {
			members[i] = j.ID
		}
		s.killGroupLocked(g.id)
		s.eng.Preempt(key, members, fmt.Sprintf("injected fault on job %d", req.JobID))
	}
	s.recordJobFaultLocked(js, origin, "injected fault")
	s.kickSchedule()
	return nil
}

// status snapshots the scheduler state for clients.
func (s *Server) status() proto.StatusAck {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ack proto.StatusAck
	ack.Executors = len(s.executors)
	ids := make([]int64, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var jctSum, jctMax time.Duration
	for _, id := range ids {
		js := s.jobs[id]
		st := proto.JobStatus{
			ID:             id,
			Model:          js.spec.Model,
			State:          js.job.State.String(),
			DoneIterations: js.job.DoneIterations,
			Iterations:     js.spec.Iterations,
			Faults:         js.job.Faults,
		}
		if n := len(js.faultLog); n > 0 {
			st.FaultExecutor = js.faultLog[n-1].Executor
		}
		switch js.job.State {
		case job.Pending, job.Profiling:
			ack.Pending++
		case job.Running:
			ack.Running++
		case job.Deadletter:
			ack.DeadLetter++
		case job.Done:
			ack.Done++
			st.JCT = time.Duration(float64(js.finishedAt.Sub(js.submittedAt)) / s.cfg.TimeScale)
			jctSum += st.JCT
			if st.JCT > jctMax {
				jctMax = st.JCT
			}
		}
		ack.Jobs = append(ack.Jobs, st)
	}
	if s.faults != (metrics.FaultStats{}) {
		ack.Faults = &proto.FaultSummary{
			Crashes:      s.faults.Crashes,
			Repairs:      s.faults.Repairs,
			Transient:    s.faults.Transient,
			Requeues:     s.faults.Requeues,
			DeadLettered: s.faults.DeadLettered,
		}
	}
	ist := s.adm.Stats()
	ack.Ingest = &proto.IngestSummary{
		QueueDepth: ist.Depth,
		Accepted:   int(ist.Accepted),
		Rejected:   int(ist.RejectedFull),
		Throttled:  int(ist.Throttled),
		Batches:    int(ist.Batches),
	}
	es := s.eng.Stats()
	ack.Engine = &proto.EngineSummary{
		Rounds:       es.Rounds,
		Decisions:    es.Decisions,
		Launches:     es.Launches,
		Preemptions:  es.Preemptions,
		Requeues:     es.Requeues,
		DeadLettered: es.DeadLettered,
		QueueDepth:   es.QueueDepth,
		Reprofiles:   es.Reprofiles,
	}
	// Print whenever the estimator has learned anything: oracle-family
	// policies don't consult it, but it still learns from completions,
	// and status should say so (gate on samples, not models).
	if models, samples, reseeds := s.est.Stats(); models > 0 || samples > 0 {
		meanErr, errN := s.est.Error()
		ack.Predictor = &proto.PredictorSummary{
			Models:      models,
			Samples:     samples,
			Completions: s.est.Completions(),
			Reseeds:     reseeds,
			MeanAbsErr:  meanErr,
			ErrSamples:  errN,
		}
	}
	if ack.Done > 0 {
		ack.Extra = map[string]any{
			"avg_jct_s": (jctSum / time.Duration(ack.Done)).Seconds(),
			"max_jct_s": jctMax.Seconds(),
		}
	}
	ack.Durability = s.durabilitySummaryLocked()
	return ack
}

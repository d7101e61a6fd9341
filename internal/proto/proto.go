// Package proto defines the wire protocol between the Muri scheduler and
// its executors (paper Figure 3 and §5), plus the client API used to
// submit jobs. Messages are JSON values framed with a 4-byte big-endian
// length prefix over a TCP (or any stream) connection.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// MaxMessageSize bounds a single frame; anything larger is rejected to
// protect against corrupt length prefixes.
const MaxMessageSize = 16 << 20

// Type enumerates the message kinds.
type Type string

const (
	// Executor → scheduler.
	TypeRegister  Type = "register"  // executor announces itself
	TypeProgress  Type = "progress"  // periodic per-group progress report
	TypeJobDone   Type = "job_done"  // one group member finished
	TypeFault     Type = "fault"     // a job failed; push it back to the queue
	TypeProfiled  Type = "profiled"  // dry-run profiling result
	TypeHeartbeat Type = "heartbeat" // liveness signal from an idle executor

	// Scheduler → executor.
	TypeRegisterAck Type = "register_ack"
	TypeLaunch      Type = "launch"  // start an interleaving group
	TypeKill        Type = "kill"    // stop a group (preemption)
	TypeProfileReq  Type = "profile" // dry-run a model and report stages

	// Client → scheduler.
	TypeSubmit         Type = "submit"
	TypeSubmitAck      Type = "submit_ack"
	TypeSubmitBatch    Type = "submit_batch"     // many jobs in one frame
	TypeSubmitBatchAck Type = "submit_batch_ack" // per-job results, in order
	TypeStatus         Type = "status"
	TypeStatusAck      Type = "status_ack"
	TypeInjectFault    Type = "inject_fault"     // chaos: fail a job or machine
	TypeInjectFaultAck Type = "inject_fault_ack" // result of the injection
	TypeTrace          Type = "trace"            // snapshot the daemon's trace ring
	TypeTraceAck       Type = "trace_ack"        // Chrome trace-event JSON payload
	TypeExplain        Type = "explain"          // ask why a job waited: lifecycle spans + attribution
	TypeExplainAck     Type = "explain_ack"      // rendered explanation text
	TypeDebugCrash     Type = "debug_crash"      // arm a crash-injection point (-unsafe-debug only)
	TypeDebugCrashAck  Type = "debug_crash_ack"

	// Standby ↔ leader WAL replication (durability layer).
	TypeReplSubscribe Type = "repl_subscribe" // standby asks to follow the leader's WAL
	TypeReplSnapshot  Type = "wal_snapshot"   // leader seeds the standby with a full snapshot
	TypeWALAppend     Type = "wal_append"     // leader streams raw WAL frames (empty = lease heartbeat)
	TypeWALAppendAck  Type = "wal_append_ack" // standby acks applied LSN (or rejects a stale term)
)

// JobSpec describes one job inside a Launch message or a Submit request.
type JobSpec struct {
	// ID is the scheduler-assigned job identity.
	ID int64 `json:"id"`
	// Model is the zoo model name the job trains.
	Model string `json:"model"`
	// Stages is the per-iteration stage duration vector (storage, cpu,
	// gpu, network).
	Stages [4]time.Duration `json:"stages"`
	// Iterations is the total iteration count; DoneIterations is the
	// progress at launch (restart from checkpoint).
	Iterations     int64 `json:"iterations"`
	DoneIterations int64 `json:"done_iterations"`
	// GPUs is the job's GPU requirement.
	GPUs int `json:"gpus"`
	// Tenant names the submitting principal for per-tenant admission
	// rate limiting. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// Register announces an executor and its machine inventory.
type Register struct {
	MachineID string `json:"machine_id"`
	GPUs      int    `json:"gpus"`
	// Groups lists groups still running on this machine from a previous
	// registration (the scheduler restarted or failed over while the
	// executor kept its processes alive). The scheduler adopts the ones
	// it still recognizes and kills the rest.
	Groups []RunningGroup `json:"groups,omitempty"`
	// SeenTerm is the highest election term this executor has seen from
	// any scheduler; a leader receiving a higher term fences itself.
	SeenTerm uint64 `json:"seen_term,omitempty"`
}

// RunningGroup describes one group an executor kept alive across a
// scheduler restart, carried in Register for adoption.
type RunningGroup struct {
	GroupID int64        `json:"group_id"`
	Key     string       `json:"key"`
	GPUs    int          `json:"gpus"`
	Jobs    []RunningJob `json:"jobs"`
}

// RunningJob is one member of a surviving group with its live progress.
type RunningJob struct {
	ID             int64 `json:"id"`
	DoneIterations int64 `json:"done_iterations"`
}

// RegisterAck confirms registration.
type RegisterAck struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
	// LeaseTTL is the scheduler's liveness lease: the executor must send
	// some message (heartbeats suffice) within every TTL window or be
	// evicted and have its groups requeued. Zero means no lease.
	LeaseTTL time.Duration `json:"lease_ttl,omitempty"`
	// Term is the scheduler's current election term; executors carry the
	// highest term they have seen into future registrations (fencing).
	Term uint64 `json:"term,omitempty"`
	// AdoptedGroups lists the group IDs from Register.Groups the
	// scheduler adopted; the executor kills the rest locally.
	AdoptedGroups []int64 `json:"adopted_groups,omitempty"`
}

// Launch instructs an executor to run an interleaving group.
type Launch struct {
	// GroupID identifies the group for Kill/Progress correlation.
	GroupID int64 `json:"group_id"`
	// Key is the unit's canonical scheduling key, echoed back in
	// Register.Groups so a restarted scheduler can adopt the group.
	Key string `json:"key,omitempty"`
	// GPUs is the number of GPUs the group occupies on the machine.
	GPUs int `json:"gpus"`
	// Jobs lists the members in stage-offset order: Jobs[i] starts at
	// stage offset i (paper §4.1).
	Jobs []JobSpec `json:"jobs"`
	// TimeScale compresses virtual stage durations into wall time: a
	// stage of duration d sleeps d×TimeScale. 1.0 runs in real time.
	TimeScale float64 `json:"time_scale"`
	// ReportEvery is how often the executor sends Progress.
	ReportEvery time.Duration `json:"report_every"`
}

// Kill stops a group; jobs report their progress before stopping.
type Kill struct {
	GroupID int64 `json:"group_id"`
}

// Progress reports per-job progress of a running group.
type Progress struct {
	GroupID int64          `json:"group_id"`
	Jobs    []JobProgress  `json:"jobs"`
	Util    [4]float64     `json:"util"` // observed busy fraction per resource
	Extra   map[string]any `json:"extra,omitempty"`
}

// JobProgress is one member's progress snapshot.
type JobProgress struct {
	ID             int64         `json:"id"`
	DoneIterations int64         `json:"done_iterations"`
	AvgIterTime    time.Duration `json:"avg_iter_time"`
}

// JobDone reports the completion of one member.
type JobDone struct {
	GroupID int64 `json:"group_id"`
	JobID   int64 `json:"job_id"`
}

// Fault reports a failed job; the scheduler pushes it back to the queue
// (§5: "the related DL job will be pushed back to the job queue").
type Fault struct {
	GroupID int64  `json:"group_id"`
	JobID   int64  `json:"job_id"`
	Error   string `json:"error"`
	// Machine names the executor the fault originated on, so the
	// scheduler's fault log can attribute it.
	Machine string `json:"machine,omitempty"`
}

// Heartbeat keeps an executor's registration alive. The worker monitor
// evicts executors that stay silent past its liveness timeout — TCP
// alone cannot distinguish a hung machine from an idle one.
type Heartbeat struct {
	MachineID string `json:"machine_id"`
	// RunningGroups lets the monitor cross-check its view.
	RunningGroups int `json:"running_groups"`
}

// ProfileReq asks an executor to dry-run a model for a few iterations.
type ProfileReq struct {
	Model      string  `json:"model"`
	Iterations int     `json:"iterations"`
	TimeScale  float64 `json:"time_scale"`
}

// Profiled returns measured stage durations (virtual time).
type Profiled struct {
	Model  string           `json:"model"`
	Stages [4]time.Duration `json:"stages"`
	Err    string           `json:"err,omitempty"`
}

// Submit is a client request to enqueue a job, on the framed stream and
// as the JSON body of POST /api/v1/submit.
type Submit struct {
	Job JobSpec `json:"job"`
	// Seq is an optional client-chosen sequence number echoed in the
	// ack, so pipelined streams can correlate acks with requests.
	Seq uint64 `json:"seq,omitempty"`
}

// Admission reject codes carried in SubmitAck.Code / SubmitResult.Code.
// Retryable codes mean the request was well-formed and may be resubmitted
// after backing off; non-retryable codes mean the spec itself is bad.
const (
	CodeInvalid   = "invalid"    // malformed spec (unknown model, bad counts)
	CodeQueueFull = "queue_full" // admission queue at capacity; retry later
	CodeThrottled = "throttled"  // tenant over its token-bucket rate; retry later
	CodeDraining  = "draining"   // scheduler shutting down; retry elsewhere
	CodeNotLeader = "not_leader" // standby or fenced daemon; submit to the leader
)

// SubmitAck confirms a submission and returns the assigned ID.
type SubmitAck struct {
	ID  int64  `json:"id"`
	Err string `json:"err,omitempty"`
	// Seq echoes the request's sequence number for pipelined streams.
	Seq uint64 `json:"seq,omitempty"`
	// Code classifies a rejection (one of the Code* constants);
	// Retryable reports whether resubmitting later can succeed.
	Code      string `json:"code,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// SubmitBatch enqueues many jobs in one frame or one POST
// /api/v1/submit/batch body: arrivals within one scheduling interval cost
// one admission round, not N (batched ingest).
type SubmitBatch struct {
	Jobs []JobSpec `json:"jobs"`
}

// SubmitResult is one job's admission outcome inside a batch ack (and
// the HTTP batch response). Results are in request order.
type SubmitResult struct {
	ID        int64  `json:"id,omitempty"`
	Err       string `json:"err,omitempty"`
	Code      string `json:"code,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// SubmitBatchAck carries per-job results for a SubmitBatch, in order, on
// both transports.
type SubmitBatchAck struct {
	Results []SubmitResult `json:"results"`
}

// ReplSubscribe is a standby's request to follow the leader's WAL. The
// leader answers with one ReplSnapshot, then a stream of WALAppend
// frames. A Term above the leader's own fences the leader.
type ReplSubscribe struct {
	StandbyID string `json:"standby_id"`
	Term      uint64 `json:"term,omitempty"`
}

// ReplSnapshot seeds a standby with the leader's latest snapshot: the
// raw framed wal.Snapshot bytes, installed verbatim so the replica WAL
// stays byte-identical to the leader's. Empty Snapshot means the leader
// has no snapshot yet (fresh log); replication starts from LSN 1.
type ReplSnapshot struct {
	Snapshot []byte `json:"snapshot,omitempty"`
	LSN      uint64 `json:"lsn"`
	Term     uint64 `json:"term"`
}

// WALFrame is one raw WAL record frame (header + payload, the exact
// bytes on the leader's disk).
type WALFrame struct {
	LSN  uint64 `json:"lsn"`
	Data []byte `json:"data"`
}

// WALAppend streams WAL frames to a standby. An empty Records slice is
// a lease heartbeat: it renews the leader's lease without moving the
// log.
type WALAppend struct {
	Term    uint64     `json:"term"`
	Records []WALFrame `json:"records,omitempty"`
}

// WALAppendAck reports the standby's applied position. OK=false with a
// higher Term is the fencing signal: the sender is a deposed leader and
// must stop writing.
type WALAppendAck struct {
	OK      bool   `json:"ok"`
	LastLSN uint64 `json:"last_lsn"`
	Term    uint64 `json:"term"`
}

// DebugCrash arms a crash-injection point in the daemon (only honored
// under -unsafe-debug): the daemon panics at the next hit of the named
// point (mid-round, mid-fsync, mid-snapshot).
type DebugCrash struct {
	Point string `json:"point"`
}

// DebugCrashAck confirms the point was armed.
type DebugCrashAck struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
}

// Status asks for the scheduler's current state.
type Status struct{}

// StatusAck summarizes the scheduler state.
type StatusAck struct {
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Executors int `json:"executors"`
	// DeadLetter counts jobs parked after exhausting their retry budget.
	DeadLetter int                `json:"dead_letter,omitempty"`
	Faults     *FaultSummary      `json:"faults,omitempty"`
	Engine     *EngineSummary     `json:"engine,omitempty"`
	Ingest     *IngestSummary     `json:"ingest,omitempty"`
	Durability *DurabilitySummary `json:"durability,omitempty"`
	Predictor  *PredictorSummary  `json:"predictor,omitempty"`
	Jobs       []JobStatus        `json:"jobs,omitempty"`
	Extra      map[string]any     `json:"extra,omitempty"`
}

// PredictorSummary mirrors the online duration estimator's state on the
// wire (kept separate from internal profile types so proto stays
// dependency-free): how many models it tracks, how many completions it
// has folded in, how often deviating completions re-seeded a belief,
// and its running prediction-error score.
type PredictorSummary struct {
	// Models is the number of distinct model names with a learned belief.
	Models int `json:"models"`
	// Samples is the total completions retained across models (re-seeds
	// reset a model's count, so this can trail lifetime completions).
	Samples int `json:"samples"`
	// Completions is the lifetime completion count (the Gittins service
	// history length).
	Completions int `json:"completions,omitempty"`
	// Reseeds counts beliefs discarded and re-seeded after a deviating
	// completion (the engine's re-profiling trigger).
	Reseeds int `json:"reseeds,omitempty"`
	// MeanAbsErr is the mean absolute relative error of pre-completion
	// predictions against measured totals; ErrSamples is how many
	// completions were scored (only repeat models score).
	MeanAbsErr float64 `json:"mean_abs_err,omitempty"`
	ErrSamples int     `json:"err_samples,omitempty"`
}

// DurabilitySummary mirrors the durability layer's state on the wire:
// role and term of the election state machine, the WAL append position,
// snapshot freshness, and standby replication lag. Present only when
// the daemon runs with a state dir.
type DurabilitySummary struct {
	// Role is one of "solo", "leader", "standby", "fenced".
	Role string `json:"role"`
	Term uint64 `json:"term"`
	// WALSegment is the active segment's first LSN; WALOffset the byte
	// offset within it; WALLSN the last appended record.
	WALSegment uint64 `json:"wal_segment"`
	WALOffset  int64  `json:"wal_offset"`
	WALLSN     uint64 `json:"wal_lsn"`
	// DurableLSN is the last record covered by a completed fsync;
	// Unsynced = WALLSN − DurableLSN is the live loss window, below
	// FsyncEvery whenever no append is in progress.
	DurableLSN uint64 `json:"durable_lsn"`
	Unsynced   uint64 `json:"unsynced"`
	// SnapshotLSN is the latest snapshot's covered LSN (0 if none);
	// SnapshotAge is how long ago it was taken.
	SnapshotLSN uint64        `json:"snapshot_lsn,omitempty"`
	SnapshotAge time.Duration `json:"snapshot_age,omitempty"`
	// Standbys counts attached replication subscribers (leader side);
	// ReplLag is the leader's max records-behind across them, or — on a
	// standby — this replica's records behind the leader stream.
	Standbys int    `json:"standbys,omitempty"`
	ReplLag  uint64 `json:"repl_lag,omitempty"`
	// FsyncEvery is the configured loss bound in records; Appends and
	// Fsyncs are lifetime WAL counters, SyncStalls the appends among them
	// that waited for the disk at the bound.
	FsyncEvery int    `json:"fsync_every,omitempty"`
	Appends    uint64 `json:"appends"`
	Fsyncs     uint64 `json:"fsyncs"`
	SyncStalls uint64 `json:"sync_stalls,omitempty"`
}

// IngestSummary mirrors the admission front door's counters on the wire:
// queue depth, accept/reject/throttle totals, and how many batched drain
// rounds admitted the accepted jobs (accepted/batches is the average
// admission batch size — the per-job-wakeup collapse factor).
type IngestSummary struct {
	QueueDepth int `json:"queue_depth"`
	Accepted   int `json:"accepted"`
	Rejected   int `json:"rejected,omitempty"`
	Throttled  int `json:"throttled,omitempty"`
	Batches    int `json:"batches,omitempty"`
}

// EngineSummary mirrors the scheduling engine's counters on the wire
// (kept separate from internal metrics types so proto stays
// dependency-free): rounds run, decisions issued, and the current queue
// depth, as surfaced by `murictl status`.
type EngineSummary struct {
	Rounds       int `json:"rounds"`
	Decisions    int `json:"decisions"`
	Launches     int `json:"launches"`
	Preemptions  int `json:"preemptions,omitempty"`
	Requeues     int `json:"requeues,omitempty"`
	DeadLettered int `json:"dead_lettered,omitempty"`
	QueueDepth   int `json:"queue_depth,omitempty"`
	// Reprofiles counts completions whose measured stage times deviated
	// far enough from the predictor's belief to re-seed it.
	Reprofiles int `json:"reprofiles,omitempty"`
}

// FaultSummary mirrors the scheduler's fault counters on the wire (kept
// separate from internal metrics types so proto stays dependency-free).
type FaultSummary struct {
	Crashes      int `json:"crashes"`
	Repairs      int `json:"repairs"`
	Transient    int `json:"transient"`
	Requeues     int `json:"requeues"`
	DeadLettered int `json:"dead_lettered"`
}

// JobStatus is one job's externally visible state.
type JobStatus struct {
	ID             int64         `json:"id"`
	Model          string        `json:"model"`
	State          string        `json:"state"`
	DoneIterations int64         `json:"done_iterations"`
	Iterations     int64         `json:"iterations"`
	JCT            time.Duration `json:"jct,omitempty"`
	// Faults counts this job's recorded faults; FaultExecutor names the
	// machine the most recent one originated on.
	Faults        int    `json:"faults,omitempty"`
	FaultExecutor string `json:"fault_executor,omitempty"`
}

// InjectFault asks the scheduler to inject a failure: exactly one of
// JobID (fail that running job) or Machine (drop that executor as if it
// crashed) should be set.
type InjectFault struct {
	JobID   int64  `json:"job_id,omitempty"`
	Machine string `json:"machine,omitempty"`
}

// InjectFaultAck reports the outcome of an injection.
type InjectFaultAck struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
}

// TraceReq asks the scheduler for a snapshot of its trace ring.
type TraceReq struct{}

// TraceAck carries the snapshot as raw Chrome trace-event JSON (kept
// opaque so proto needs no telemetry types; viewers and murictl write
// it to disk verbatim). Snapshots are bounded by the daemon's trace
// ring, which fits MaxMessageSize by construction.
type TraceAck struct {
	Trace json.RawMessage `json:"trace,omitempty"`
	Err   string          `json:"err,omitempty"`
}

// ExplainReq asks the scheduler for one job's decision provenance:
// its lifecycle span timeline and exact wait-time attribution.
type ExplainReq struct {
	JobID int64 `json:"job_id"`
}

// ExplainAck carries the server-rendered explanation. The text is
// rendered daemon-side (not client-side from structured fields) so the
// live output is byte-identical to what `muritrace` reconstructs from
// the WAL alone — the parity tests diff the two verbatim.
type ExplainAck struct {
	Text string `json:"text,omitempty"`
	Err  string `json:"err,omitempty"`
}

// Message is the framed envelope. Exactly one payload field matching Type
// should be set.
type Message struct {
	Type           Type            `json:"type"`
	Register       *Register       `json:"register,omitempty"`
	RegisterAck    *RegisterAck    `json:"register_ack,omitempty"`
	Launch         *Launch         `json:"launch,omitempty"`
	Kill           *Kill           `json:"kill,omitempty"`
	Progress       *Progress       `json:"progress,omitempty"`
	JobDone        *JobDone        `json:"job_done,omitempty"`
	Fault          *Fault          `json:"fault,omitempty"`
	Heartbeat      *Heartbeat      `json:"heartbeat,omitempty"`
	ProfileReq     *ProfileReq     `json:"profile_req,omitempty"`
	Profiled       *Profiled       `json:"profiled,omitempty"`
	Submit         *Submit         `json:"submit,omitempty"`
	SubmitAck      *SubmitAck      `json:"submit_ack,omitempty"`
	SubmitBatch    *SubmitBatch    `json:"submit_batch,omitempty"`
	SubmitBatchAck *SubmitBatchAck `json:"submit_batch_ack,omitempty"`
	Status         *Status         `json:"status,omitempty"`
	StatusAck      *StatusAck      `json:"status_ack,omitempty"`
	InjectFault    *InjectFault    `json:"inject_fault,omitempty"`
	InjectFaultAck *InjectFaultAck `json:"inject_fault_ack,omitempty"`
	Trace          *TraceReq       `json:"trace,omitempty"`
	TraceAck       *TraceAck       `json:"trace_ack,omitempty"`
	Explain        *ExplainReq     `json:"explain,omitempty"`
	ExplainAck     *ExplainAck     `json:"explain_ack,omitempty"`
	DebugCrash     *DebugCrash     `json:"debug_crash,omitempty"`
	DebugCrashAck  *DebugCrashAck  `json:"debug_crash_ack,omitempty"`
	ReplSubscribe  *ReplSubscribe  `json:"repl_subscribe,omitempty"`
	ReplSnapshot   *ReplSnapshot   `json:"repl_snapshot,omitempty"`
	WALAppend      *WALAppend      `json:"wal_append,omitempty"`
	WALAppendAck   *WALAppendAck   `json:"wal_append_ack,omitempty"`
}

// Codec reads and writes framed messages on a stream. Reads and writes
// are independently safe for one reader plus one writer; concurrent
// writers must synchronize externally. A codec buffers its reads, so it
// must be the only reader of its stream.
type Codec struct {
	r   *bufio.Reader
	w   io.Writer
	out bytes.Buffer  // the frame being written: length prefix, then body
	enc *json.Encoder // encodes into out
}

// maxRetainedFrame bounds the write buffer a codec keeps between frames;
// a larger frame (a trace snapshot, say) gets a fresh one.
const maxRetainedFrame = 64 << 10

// NewCodec wraps a stream (typically a net.Conn).
func NewCodec(rw io.ReadWriter) *Codec {
	c := &Codec{r: bufio.NewReader(rw), w: rw}
	c.enc = json.NewEncoder(&c.out)
	return c
}

// Write frames and sends one message in a single Write call.
func (c *Codec) Write(m *Message) error {
	c.out.Reset()
	c.out.Write([]byte{0, 0, 0, 0}) // length prefix, filled in below
	// Encode writes what json.Marshal returns, plus a newline.
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("proto: marshal %s: %w", m.Type, err)
	}
	frame := c.out.Bytes()
	frame = frame[:len(frame)-1]
	n := len(frame) - 4
	if n > MaxMessageSize {
		return fmt.Errorf("proto: message of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := c.w.Write(frame)
	if c.out.Cap() > maxRetainedFrame {
		c.out = bytes.Buffer{}
	}
	if err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// Read receives and decodes one message.
func (c *Codec) Read() (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageSize {
		return nil, fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.r, body); err != nil {
		return nil, fmt.Errorf("proto: read body: %w", err)
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("proto: unmarshal: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("proto: message without type")
	}
	return &m, nil
}

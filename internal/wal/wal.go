// Package wal is the daemon's durability layer: an append-only,
// checksummed write-ahead log of every recoverable mutation (engine
// decisions, admission batches, fault-ledger changes) plus periodic
// full-state snapshots, so recovery is snapshot-load + tail-replay.
//
// On-disk layout inside the state dir:
//
//	wal-<firstLSN>.seg   length-prefixed records: [len u32][crc32c u32][json]
//	snap-<LSN>.snap      one framed wal.Snapshot record
//
// Records carry monotonically increasing LSNs. Appends are buffered in
// user space and group-committed by a background goroutine that owns the
// fsync; an append never returns with Options.SyncEvery or more records
// unsynced, so a crash loses at most that tail — recovery treats a torn
// or corrupt record as the end of the log, truncates it, and resumes
// from the last durable prefix. The same byte frames are streamed
// verbatim to warm standbys, whose replica WALs are therefore
// byte-identical to the leader's.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sync"

	"muri/internal/crashpoint"
)

const (
	frameHeader = 8 // 4-byte big-endian length + 4-byte CRC32-C of the payload
	// MaxRecordSize bounds a single record payload; anything larger in a
	// length prefix is corruption, not a record.
	MaxRecordSize = 16 << 20

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fsyncFile is the one place segment data reaches the disk. A variable
// so in-package tests can swap in a slow or failing disk.
var fsyncFile = (*os.File).Sync

// fsyncDir is the same seam for the state directory, whose fsync makes a
// created or renamed entry durable.
var fsyncDir = (*os.File).Sync

var errClosed = errors.New("wal: writer closed")

// Corruption reports where a WAL scan stopped: the segment's first LSN,
// the byte offset of the bad frame inside that segment, and why. A torn
// tail (crash mid-write) surfaces here and is expected; recovery
// truncates it and continues from the preceding record.
type Corruption struct {
	Segment uint64
	Offset  int64
	Reason  string
}

func (c *Corruption) Error() string {
	return fmt.Sprintf("wal: corrupt record in segment %d at offset %d: %s", c.Segment, c.Offset, c.Reason)
}

// Position identifies a point in the log for status reporting.
type Position struct {
	// Segment is the first LSN of the active segment file.
	Segment uint64
	// Offset is the byte offset within the active segment (including
	// user-space buffered bytes not yet written through).
	Offset int64
	// LSN is the last assigned LSN (0 when the log is empty).
	LSN uint64
}

// Stats is one consistent reading of the writer: where the log stands,
// how much of it is durable, and the lifetime counters. LSN − DurableLSN
// is the live loss window; it is below SyncEvery whenever no append is
// in progress.
type Stats struct {
	Position
	// DurableLSN is the last LSN covered by a completed fsync.
	DurableLSN uint64
	// Appends and Fsyncs are lifetime counts. SyncStalls counts appends
	// that found the log at the SyncEvery bound (or the segment full) and
	// waited for the disk before returning; with SyncEvery = 1 that is
	// every append.
	Appends, Fsyncs, SyncStalls uint64
	// SnapshotLSN and SnapshotWall describe the latest snapshot (0 if none).
	SnapshotLSN  uint64
	SnapshotWall int64
}

// Options configures a Writer.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the active one grows
	// past this size. Default 8 MiB.
	SegmentBytes int64
	// SyncEvery bounds the loss window: at most SyncEvery−1 records are
	// unsynced when an append returns. 1 = durable on return. For larger
	// values the fsync itself runs in the background, started at half the
	// bound; an append that reaches the bound waits for it. Default 64.
	SyncEvery int
	// OnSync observes each fsync: its latency and how many records it
	// made durable. Called under the writer lock, from the committer
	// goroutine or the syncing caller. Telemetry hook; may be nil.
	OnSync func(d time.Duration, records int)
	// OnAppend observes each appended frame (header + payload, the exact
	// bytes on disk) under the writer lock, in LSN order. Replication
	// tap; may be nil. The slice is only valid during the call.
	OnAppend func(lsn uint64, frame []byte)
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
}

// Writer appends records to the log. Safe for concurrent use.
type Writer struct {
	mu sync.Mutex
	// cond (on mu) wakes the committer when there is a batch to fsync or
	// the writer closed, and wakes callers waiting for inflight to clear.
	cond *sync.Cond
	dir  string
	opts Options

	f        *os.File
	bw       *bufio.Writer
	segFirst uint64 // first LSN of the active segment
	segOff   int64  // bytes appended to the active segment (incl. buffered)
	nextLSN  uint64
	durable  uint64 // last LSN covered by a completed fsync
	closed   bool
	// dirDirty is set while the active segment's directory entry may not be
	// durable: from its creation until the directory fsync that follows the
	// segment's first data fsync. No record in the segment counts as durable
	// before then.
	dirDirty bool

	// inflight is set while the committer fsyncs f with mu released.
	// Anything that closes or replaces f waits for it to clear.
	inflight bool
	// err is the first write-through or fsync failure. Sticky: the page
	// cache's state after a failed fsync is unknown, so the records it
	// covered are never retired and every later call returns it.
	err  error
	done chan struct{} // closed when the committer has exited

	appends   uint64
	fsyncs    uint64
	stalls    uint64
	snapLSN   uint64
	snapWall  int64
	snapValid bool
	scratch   []byte
}

// Open prepares dir for appending. It scans existing segments to find
// the next LSN, truncates any torn tail left by a crash, and starts a
// fresh segment. Open never discards durable records: the caller is
// expected to Recover(dir) first and replay what Open will preserve.
func Open(dir string, opts Options) (*Writer, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rec, err := Recover(dir)
	if err != nil {
		return nil, err
	}
	// Truncate a torn tail in place so the on-disk prefix is exactly the
	// replayable one; otherwise records appended after it would be
	// unreachable behind a permanently corrupt frame.
	if c := rec.Corruption; c != nil {
		seg := filepath.Join(dir, segName(c.Segment))
		if err := os.Truncate(seg, c.Offset); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	w := &Writer{dir: dir, opts: opts, nextLSN: rec.NextLSN, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	if w.nextLSN == 0 {
		w.nextLSN = 1
	}
	w.durable = w.nextLSN - 1
	if s := rec.Snapshot; s != nil {
		w.snapLSN = s.LSN
		w.snapWall = s.TakenWall
		w.snapValid = true
	}
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	go w.commitLoop()
	return w, nil
}

func segName(firstLSN uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstLSN, segSuffix)
}

func snapName(lsn uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, lsn, snapSuffix)
}

// openSegmentLocked starts a new segment whose first record will be
// nextLSN. Caller holds w.mu (or is constructing w) with no fsync in
// flight. The directory is not fsynced here but with the segment's first
// commit: an entry that names no durable record has nothing to lose, and
// this runs inside Open and, at every rotation, under the caller's lock.
func (w *Writer) openSegmentLocked() error {
	if w.bw != nil {
		if err := w.commitLocked(false); err != nil {
			return err
		}
		w.f.Close()
	}
	path := filepath.Join(w.dir, segName(w.nextLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.segFirst = w.nextLSN
	w.segOff = 0
	w.dirDirty = true
	return nil
}

// frame encodes payload into buf as [len][crc][payload], reusing buf.
func frame(buf []byte, payload []byte) []byte {
	buf = buf[:0]
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Append assigns the next LSN to rec, encodes and buffers it, and
// returns the assigned LSN with fewer than SyncEvery records unsynced.
func (w *Writer) Append(rec *Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return 0, err
	}
	rec.LSN = w.nextLSN
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	w.scratch = frame(w.scratch, payload)
	return rec.LSN, w.appendFrameLocked(rec.LSN, w.scratch)
}

// AppendRaw appends an already-framed record (as delivered by a
// leader's OnAppend tap) verbatim. The embedded LSN must be the next
// one; a gap means the replication stream dropped records.
func (w *Writer) AppendRaw(lsn uint64, fr []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return err
	}
	if lsn != w.nextLSN {
		return fmt.Errorf("wal: raw append LSN %d, want %d", lsn, w.nextLSN)
	}
	if len(fr) < frameHeader {
		return errors.New("wal: raw frame shorter than header")
	}
	return w.appendFrameLocked(lsn, fr)
}

func (w *Writer) appendFrameLocked(lsn uint64, fr []byte) error {
	if _, err := w.bw.Write(fr); err != nil {
		return err
	}
	w.segOff += int64(len(fr))
	w.nextLSN = lsn + 1
	w.appends++
	if w.opts.OnAppend != nil {
		w.opts.OnAppend(lsn, fr)
	}
	// Back-pressure keeps the loss bound: rather than return with
	// SyncEvery records unsynced, wait out the committer's fsync and, if
	// that did not cover enough, fsync here. Rotation syncs and closes
	// the segment, so it waits the same way. Each wait releases w.mu, so
	// re-check everything after it.
	full := func() bool {
		return w.unsynced() >= w.opts.SyncEvery || w.segOff >= w.opts.SegmentBytes
	}
	if full() {
		w.stalls++
	}
	for full() {
		if w.inflight {
			w.cond.Wait()
			if err := w.usableLocked(); err != nil {
				return err
			}
			continue
		}
		if w.segOff >= w.opts.SegmentBytes {
			return w.openSegmentLocked()
		}
		return w.commitLocked(false)
	}
	if w.unsynced() >= w.kickAt() && !w.inflight {
		w.cond.Broadcast()
	}
	return nil
}

// unsynced is the live loss window: records appended but not yet covered
// by a completed fsync.
func (w *Writer) unsynced() int { return int(w.nextLSN - 1 - w.durable) }

// kickAt is the unsynced count that starts a background fsync: half the
// bound, so the disk works while the second half of the batch arrives.
func (w *Writer) kickAt() int { return (w.opts.SyncEvery + 1) / 2 }

// usableLocked gates every mutating call on the writer still being open
// and the disk never having failed under it.
func (w *Writer) usableLocked() error {
	if w.closed {
		return errClosed
	}
	return w.err
}

// quiesceLocked waits until no background fsync is in flight, so the
// caller may fsync, close or replace w.f. The wait releases w.mu: other
// appends, or a Close, may have run by the time it returns.
func (w *Writer) quiesceLocked() error {
	for w.inflight {
		w.cond.Wait()
	}
	return w.usableLocked()
}

// commitLoop is the committer goroutine: whenever half a batch is
// unsynced it commits with the lock released around the fsync, so
// appenders (and whatever lock they hold) keep going meanwhile. It has
// no timer: fewer than kickAt records stay buffered until more arrive or
// someone calls Sync/Close.
func (w *Writer) commitLoop() {
	defer close(w.done)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for !w.closed && (w.err != nil || w.unsynced() < w.kickAt()) {
			w.cond.Wait()
		}
		if w.closed {
			return
		}
		_ = w.commitLocked(true) // nobody to return to: a failure stays in w.err for the next caller
	}
}

// Sync flushes buffered records and fsyncs the active segment. After it
// returns, every appended record survives a crash.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.quiesceLocked(); err != nil {
		return err
	}
	return w.commitLocked(false)
}

// commitLocked writes the buffer through and fsyncs the active segment —
// and, on the segment's first commit, the directory that names it —
// making every record appended so far durable. With release set (the
// committer only) w.mu is dropped around the fsyncs and inflight marks
// w.f as in use, which also keeps the segment from rotating meanwhile;
// otherwise the caller keeps the lock throughout and must have quiesced
// first.
func (w *Writer) commitLocked(release bool) error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	upto := w.nextLSN - 1
	if upto == w.durable {
		return nil
	}
	f, dirDirty := w.f, w.dirDirty
	if release {
		w.inflight = true
		w.mu.Unlock()
	}
	// The torn-tail window: buffered bytes are in the page cache but not
	// durable until the fsync below.
	crashpoint.Hit(crashpoint.MidFsync)
	start := time.Now()
	err := fsyncFile(f)
	if err == nil && dirDirty {
		err = syncDir(w.dir)
	}
	d := time.Since(start)
	if release {
		w.mu.Lock()
		w.inflight = false
		w.cond.Broadcast()
	}
	if err != nil {
		w.err = err
		return err
	}
	w.dirDirty = false
	n := int(upto - w.durable)
	w.durable = upto
	w.fsyncs++
	if w.opts.OnSync != nil {
		w.opts.OnSync(d, n)
	}
	return nil
}

// Stats reads position, durable frontier and counters under one lock
// acquisition, so no two fields straddle a commit.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Position:     Position{Segment: w.segFirst, Offset: w.segOff, LSN: w.nextLSN - 1},
		DurableLSN:   w.durable,
		Appends:      w.appends,
		Fsyncs:       w.fsyncs,
		SyncStalls:   w.stalls,
		SnapshotLSN:  w.snapLSN,
		SnapshotWall: w.snapWall,
	}
}

// WriteSnapshot persists s atomically (temp file + rename), records it
// as the latest checkpoint, and prunes snapshots and segments wholly
// covered by it. s.LSN must reflect every record already appended.
func (w *Writer) WriteSnapshot(s *Snapshot) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.quiesceLocked(); err != nil {
		return err
	}
	// Records the snapshot claims to cover must be durable before the
	// snapshot can supersede them.
	if err := w.commitLocked(false); err != nil {
		return err
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fr := frame(nil, payload)
	tmp := filepath.Join(w.dir, snapName(s.LSN)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(fr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// The crash window: the temp file exists but was not published; a
	// restart ignores *.tmp and recovers from the previous snapshot.
	crashpoint.Hit(crashpoint.MidSnapshot)
	if err := os.Rename(tmp, filepath.Join(w.dir, snapName(s.LSN))); err != nil {
		return err
	}
	if err := w.syncDirLocked(); err != nil {
		return err
	}
	w.snapLSN = s.LSN
	w.snapWall = s.TakenWall
	w.snapValid = true
	w.pruneLocked()
	return nil
}

// SnapshotRaw returns the latest published snapshot's framed bytes and
// LSN, for seeding a standby. ok is false when no snapshot exists.
func (w *Writer) SnapshotRaw() (fr []byte, lsn uint64, ok bool, err error) {
	w.mu.Lock()
	lsn, valid := w.snapLSN, w.snapValid
	w.mu.Unlock()
	if !valid {
		return nil, 0, false, nil
	}
	fr, err = os.ReadFile(filepath.Join(w.dir, snapName(lsn)))
	if err != nil {
		return nil, 0, false, err
	}
	return fr, lsn, true, nil
}

// InstallSnapshot replaces the entire local log with a leader-supplied
// framed snapshot: all local segments and snapshots are deleted, the
// snapshot is published, and appending resumes at its LSN + 1. Standby
// bootstrap only — it discards local history by design.
func (w *Writer) InstallSnapshot(fr []byte) (*Snapshot, error) {
	payload, _, err := decodeFrame(fr)
	if err != nil {
		return nil, fmt.Errorf("wal: installing snapshot: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("wal: installing snapshot: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.quiesceLocked(); err != nil {
		return nil, err
	}
	if w.bw != nil {
		w.bw.Flush()
		w.f.Close()
		w.bw, w.f = nil, nil
	}
	names, err := stateFiles(w.dir)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if err := os.Remove(filepath.Join(w.dir, n)); err != nil {
			return nil, err
		}
	}
	if err := os.WriteFile(filepath.Join(w.dir, snapName(s.LSN)), fr, 0o644); err != nil {
		return nil, err
	}
	if err := w.syncDirLocked(); err != nil {
		return nil, err
	}
	w.snapLSN = s.LSN
	w.snapWall = s.TakenWall
	w.snapValid = true
	w.nextLSN = s.LSN + 1
	w.durable = s.LSN
	return &s, w.openSegmentLocked()
}

// pruneLocked removes snapshots older than the latest and segments
// whose every record is covered by the latest snapshot.
func (w *Writer) pruneLocked() {
	names, err := stateFiles(w.dir)
	if err != nil {
		return
	}
	var segs []uint64
	for _, n := range names {
		if lsn, ok := parseName(n, snapPrefix, snapSuffix); ok && lsn < w.snapLSN {
			os.Remove(filepath.Join(w.dir, n))
		}
		if lsn, ok := parseName(n, segPrefix, segSuffix); ok {
			segs = append(segs, lsn)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	// A segment's records end where the next segment begins; only drop
	// segments wholly below the snapshot (never the active one).
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= w.snapLSN+1 && segs[i] != w.segFirst {
			os.Remove(filepath.Join(w.dir, segName(segs[i])))
		}
	}
}

// Close fsyncs the tail, closes the active segment and stops the
// committer. The graceful counterpart of Abandon.
func (w *Writer) Close() error { return w.shutdown(true) }

// Abandon closes the file descriptor without flushing user-space
// buffers: everything since the last write-through is lost, exactly as
// in a crash. Test hook for in-process kill -9 simulation.
func (w *Writer) Abandon() { _ = w.shutdown(false) } // a crash reports nothing

// shutdown waits out the in-flight fsync, closes the segment (committing
// the tail first when flush is set), and returns once the committer has
// exited. A second call is a no-op.
func (w *Writer) shutdown(flush bool) error {
	w.mu.Lock()
	for w.inflight {
		w.cond.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	var err error
	if flush {
		err = w.commitLocked(false)
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
	return err
}

// Recovery is the result of scanning a state dir: the latest loadable
// snapshot (nil if none), every decoded record after it in LSN order,
// the next LSN to append at, and — when the scan stopped early — where
// and why.
type Recovery struct {
	Snapshot   *Snapshot
	Records    []Record
	NextLSN    uint64
	Corruption *Corruption
}

// Recover scans dir without mutating it. It loads the newest snapshot
// that decodes (falling back to older ones if the newest is corrupt),
// then replays segment records with LSN > snapshot LSN. The scan stops
// at the first corrupt or torn record — reported, never panicked on —
// treating everything before it as the durable prefix.
func Recover(dir string) (*Recovery, error) {
	names, err := stateFiles(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return &Recovery{NextLSN: 1}, nil
		}
		return nil, err
	}
	var snaps, segs []uint64
	for _, n := range names {
		if lsn, ok := parseName(n, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, lsn)
		}
		if lsn, ok := parseName(n, segPrefix, segSuffix); ok {
			segs = append(segs, lsn)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	rec := &Recovery{NextLSN: 1}
	for _, lsn := range snaps {
		s, err := readSnapshot(filepath.Join(dir, snapName(lsn)))
		if err != nil {
			continue // corrupt snapshot: fall back to the previous one
		}
		rec.Snapshot = s
		rec.NextLSN = s.LSN + 1
		break
	}

	last := rec.NextLSN - 1 // highest LSN accepted so far
scan:
	for _, first := range segs {
		f, err := os.Open(filepath.Join(dir, segName(first)))
		if err != nil {
			return nil, err
		}
		br := bufio.NewReaderSize(f, 1<<16)
		var off int64
		for {
			payload, n, err := readFrame(br)
			if err == io.EOF {
				break // clean segment end
			}
			if err != nil {
				rec.Corruption = &Corruption{Segment: first, Offset: off, Reason: err.Error()}
				f.Close()
				break scan
			}
			var r Record
			if err := json.Unmarshal(payload, &r); err != nil {
				rec.Corruption = &Corruption{Segment: first, Offset: off, Reason: "record json: " + err.Error()}
				f.Close()
				break scan
			}
			off += n
			if r.LSN <= last {
				continue // covered by the snapshot (or duplicate segment prefix)
			}
			if last > 0 && r.LSN != last+1 {
				rec.Corruption = &Corruption{Segment: first, Offset: off - n, Reason: fmt.Sprintf("LSN gap: got %d, want %d", r.LSN, last+1)}
				f.Close()
				break scan
			}
			last = r.LSN
			rec.Records = append(rec.Records, r)
		}
		f.Close()
	}
	if last+1 > rec.NextLSN {
		rec.NextLSN = last + 1
	}
	return rec, nil
}

// readFrame reads one [len][crc][payload] frame, returning the payload
// and the total bytes consumed. io.EOF means a clean boundary; any
// other error means a torn or corrupt frame.
func readFrame(br *bufio.Reader) ([]byte, int64, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(br, hdr[:1]); err != nil {
		return nil, 0, io.EOF // nothing left: clean end
	}
	if _, err := io.ReadFull(br, hdr[1:]); err != nil {
		return nil, 0, errors.New("torn frame header")
	}
	size := binary.BigEndian.Uint32(hdr[0:4])
	if size == 0 || size > MaxRecordSize {
		return nil, 0, fmt.Errorf("implausible record length %d", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, errors.New("torn frame payload")
	}
	want := binary.BigEndian.Uint32(hdr[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("checksum mismatch: got %08x, want %08x", got, want)
	}
	return payload, int64(frameHeader) + int64(size), nil
}

// decodeFrame validates a single standalone frame (snapshot files,
// replicated frames) and returns its payload.
func decodeFrame(fr []byte) (payload []byte, consumed int64, err error) {
	if len(fr) < frameHeader {
		return nil, 0, errors.New("frame shorter than header")
	}
	size := binary.BigEndian.Uint32(fr[0:4])
	if size == 0 || size > MaxRecordSize {
		return nil, 0, fmt.Errorf("implausible record length %d", size)
	}
	if int64(len(fr)) < int64(frameHeader)+int64(size) {
		return nil, 0, errors.New("frame shorter than its length prefix")
	}
	payload = fr[frameHeader : frameHeader+int(size)]
	want := binary.BigEndian.Uint32(fr[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("checksum mismatch: got %08x, want %08x", got, want)
	}
	return payload, int64(frameHeader) + int64(size), nil
}

// DecodeRawRecord decodes one replicated frame into a Record. Standby
// side of the replication stream.
func DecodeRawRecord(fr []byte) (*Record, error) {
	payload, _, err := decodeFrame(fr)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("record json: %w", err)
	}
	return &r, nil
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, _, err := decodeFrame(data)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

func stateFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if strings.HasSuffix(n, segSuffix) || strings.HasSuffix(n, snapSuffix) {
			names = append(names, n)
		}
	}
	return names, nil
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var lsn uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), "%d", &lsn)
	return lsn, err == nil
}

// syncDirLocked fsyncs the state directory with w.mu held and no fsync in
// flight. A failure is sticky, like a segment fsync's: what the directory
// holds after it is unknown.
func (w *Writer) syncDirLocked() error {
	if err := syncDir(w.dir); err != nil {
		w.err = err
		return err
	}
	w.dirDirty = false
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Filesystems that refuse directory fsync (os.ErrInvalid) are
// tolerated; any other failure is the caller's.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := fsyncDir(d); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err // an *os.PathError: names the operation and the directory
	}
	return nil
}

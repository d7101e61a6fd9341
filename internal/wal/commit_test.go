package wal

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// swapFsync replaces the disk for one test. The committer reads the
// seam, so swap only before Open or while it is parked (nothing unsynced
// beyond the kick point), and end every writer before the test returns.
func swapFsync(t *testing.T, fn func(*os.File) error) {
	t.Helper()
	orig := fsyncFile
	fsyncFile = fn
	t.Cleanup(func() { fsyncFile = orig })
}

func slowFsync(d time.Duration) func(*os.File) error {
	return func(f *os.File) error {
		time.Sleep(d)
		return f.Sync()
	}
}

// gatedFsync blocks every fsync until release is closed, announcing each
// one on started first.
func gatedFsync() (fn func(*os.File) error, started chan struct{}, release chan struct{}) {
	started = make(chan struct{}, 1)
	release = make(chan struct{})
	return func(f *os.File) error {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return f.Sync()
	}, started, release
}

func mustAppend(t *testing.T, w *Writer, i int) uint64 {
	t.Helper()
	lsn, err := w.Append(testRecord(i))
	if err != nil {
		t.Fatalf("append %d: %v", i, err)
	}
	return lsn
}

// mustRecoverPrefix asserts dir recovers to records 1..n in LSN order
// with no corruption, for some n ≥ atLeast, and returns n.
func mustRecoverPrefix(t *testing.T, dir string, atLeast int) int {
	t.Helper()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Corruption != nil {
		t.Fatalf("unexpected corruption: %v", rec.Corruption)
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	if len(rec.Records) < atLeast {
		t.Fatalf("recovered %d records, want at least %d", len(rec.Records), atLeast)
	}
	return len(rec.Records)
}

// TestLossBoundProperty is the durability contract under concurrency:
// whatever the committer is doing, no Append returns with SyncEvery or
// more records unsynced, and every record is retired exactly once.
func TestLossBoundProperty(t *testing.T) {
	swapFsync(t, slowFsync(2*time.Millisecond))
	for _, every := range []int{1, 2, 3, 8, 64} {
		var synced int
		w, err := Open(t.TempDir(), Options{
			SyncEvery: every,
			OnSync:    func(_ time.Duration, n int) { synced += n },
		})
		if err != nil {
			t.Fatal(err)
		}
		const appenders, each = 4, 30
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					lsn, err := w.Append(testRecord(i))
					if err != nil {
						t.Errorf("SyncEvery %d: append: %v", every, err)
						return
					}
					// Another appender's commit may already have passed lsn.
					if st := w.Stats(); int64(lsn)-int64(st.DurableLSN) >= int64(every) {
						t.Errorf("SyncEvery %d: append %d returned with durable frontier at %d", every, lsn, st.DurableLSN)
					}
				}
			}()
		}
		wg.Wait()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st := w.Stats()
		if st.Appends != appenders*each || st.DurableLSN != st.LSN || synced != appenders*each {
			t.Errorf("SyncEvery %d: after close appends=%d lsn=%d durable=%d, OnSync retired %d",
				every, st.Appends, st.LSN, st.DurableLSN, synced)
		}
		if every == 1 && st.SyncStalls != st.Appends {
			t.Errorf("SyncEvery 1: %d of %d appends waited for the disk, want all", st.SyncStalls, st.Appends)
		}
	}
}

// TestAppendReturnsWhileSyncInFlight pins both halves of the hand-off:
// below the bound an Append does not wait for the disk, at the bound it
// does.
func TestAppendReturnsWhileSyncInFlight(t *testing.T) {
	fsync, started, release := gatedFsync()
	swapFsync(t, fsync)
	w, err := Open(t.TempDir(), Options{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 4; i++ { // the 4th reaches half the bound and kicks the committer
		mustAppend(t, w, i)
	}
	<-started
	for i := 5; i <= 7; i++ {
		mustAppend(t, w, i) // would deadlock here with the fsync inline
	}
	if st := w.Stats(); st.LSN != 7 || st.DurableLSN != 0 || st.Fsyncs != 0 || st.SyncStalls != 0 {
		t.Fatalf("mid-fsync stats: %+v", st)
	}
	// The 8th would leave SyncEvery records unsynced: it must wait.
	returned := make(chan error, 1)
	go func() {
		_, err := w.Append(testRecord(8))
		returned <- err
	}()
	select {
	case <-returned:
		t.Fatal("append returned with SyncEvery records unsynced")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-returned; err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.LSN-st.DurableLSN >= 8 || st.DurableLSN < 4 || st.SyncStalls != 1 {
		t.Fatalf("post-stall stats: %+v", st)
	}
}

// TestGroupCommitRotation rotates segments while background fsyncs are in
// flight on the segment being closed.
func TestGroupCommitRotation(t *testing.T) {
	swapFsync(t, slowFsync(time.Millisecond))
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256, SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 1; i <= n; i++ {
		if lsn := mustAppend(t, w, i); lsn != uint64(i) {
			t.Fatalf("append %d: lsn %d", i, lsn)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) < 10 {
		t.Fatalf("expected many rotations, got %d segments", len(segs))
	}
	if got := mustRecoverPrefix(t, dir, n); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
}

// TestAbandonWhileSyncInFlight crashes the writer with a background
// fsync outstanding: what recovers is a clean prefix covering at least
// the durable frontier.
func TestAbandonWhileSyncInFlight(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		mustAppend(t, w, i)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// The committer is parked (nothing unsynced): swap the disk under it.
	fsync, started, release := gatedFsync()
	swapFsync(t, fsync)
	for i := 4; i <= 9; i++ {
		mustAppend(t, w, i)
	}
	<-started // the committer is fsyncing records 4..7 or more
	frontier := w.Stats().DurableLSN
	if frontier != 3 {
		t.Fatalf("durable frontier %d with the fsync still in flight, want 3", frontier)
	}
	abandoned := make(chan struct{})
	go func() {
		w.Abandon() // waits for the in-flight fsync before closing the fd
		close(abandoned)
	}()
	select {
	case <-abandoned:
		t.Fatal("Abandon closed the segment under an in-flight fsync")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-abandoned
	if _, err := w.Append(testRecord(10)); err == nil {
		t.Fatal("append after Abandon succeeded")
	}
	mustRecoverPrefix(t, dir, int(frontier))
}

// TestGroupCommitStickyError fails the disk under a live writer: the
// first error sticks, nothing it covered is retired, and every later
// call reports it.
func TestGroupCommitStickyError(t *testing.T) {
	diskGone := errors.New("disk gone")
	for name, breakDisk := range map[string]func(*testing.T, *Writer){
		"fsync fails": func(t *testing.T, _ *Writer) {
			swapFsync(t, func(*os.File) error { return diskGone })
		},
		"segment fd closed": func(_ *testing.T, w *Writer) {
			w.mu.Lock()
			w.f.Close()
			w.mu.Unlock()
		},
	} {
		t.Run(name, func(t *testing.T) {
			w, err := Open(t.TempDir(), Options{SyncEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, w, 1)
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			// No fsync is in flight (1 < kickAt) and the committer is parked,
			// so the seam can be swapped under it.
			breakDisk(t, w)
			// The committer hits the failure once half the bound is unsynced;
			// the bound itself forces it into the caller by the 4th append.
			var failed error
			for i := 2; i <= 5 && failed == nil; i++ {
				_, failed = w.Append(testRecord(i))
			}
			if failed == nil {
				t.Fatal("appends kept succeeding on a failed disk")
			}
			before := w.Stats()
			if lsn, err := w.Append(testRecord(9)); err != failed || lsn != 0 {
				t.Fatalf("append after failure: lsn %d err %v, want sticky %v", lsn, err, failed)
			}
			if err := w.Sync(); err != failed {
				t.Fatalf("Sync after failure: %v, want sticky %v", err, failed)
			}
			if st := w.Stats(); st != before || st.DurableLSN != 1 || st.Fsyncs != 1 {
				t.Fatalf("failed disk moved the writer: before %+v after %+v", before, st)
			}
			if err := w.Close(); err != failed {
				t.Fatalf("Close after failure: %v, want sticky %v", err, failed)
			}
		})
	}
}

// TestGroupCommitNoGoroutineLeak: the committer exits with its writer,
// however the writer ends.
func TestGroupCommitNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		w, err := Open(t.TempDir(), Options{SyncEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= 5; j++ {
			mustAppend(t, w, j)
		}
		if i%2 == 0 {
			w.Close()
			w.Close() // idempotent
		} else {
			w.Abandon()
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after closing every writer", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// swapFsyncDir replaces the directory's disk for one test, under the same
// rules as swapFsync.
func swapFsyncDir(t *testing.T, fn func(*os.File) error) {
	t.Helper()
	orig := fsyncDir
	fsyncDir = fn
	t.Cleanup(func() { fsyncDir = orig })
}

// TestDirSyncErrorSticky: a failed directory fsync is a failed fsync. It
// surfaces from the call that needed it — the first commit of a fresh
// segment, a snapshot publish — nothing it covered is retired, and every
// later call reports it. A filesystem that refuses directory fsync
// (os.ErrInvalid) is not a failure.
func TestDirSyncErrorSticky(t *testing.T) {
	dirGone := errors.New("directory gone")
	stuck := func(t *testing.T, w *Writer, failed error, durable uint64) {
		t.Helper()
		if !errors.Is(failed, dirGone) {
			t.Fatalf("got %v, want the directory fsync's error", failed)
		}
		if lsn, err := w.Append(testRecord(9)); err != failed || lsn != 0 {
			t.Fatalf("append after failure: lsn %d err %v, want sticky %v", lsn, err, failed)
		}
		if err := w.Sync(); err != failed {
			t.Fatalf("Sync after failure: %v, want sticky %v", err, failed)
		}
		if st := w.Stats(); st.DurableLSN != durable {
			t.Fatalf("durable frontier %d after a failed directory fsync, want %d", st.DurableLSN, durable)
		}
		if err := w.Close(); err != failed {
			t.Fatalf("Close after failure: %v, want sticky %v", err, failed)
		}
	}
	t.Run("first commit of a segment", func(t *testing.T) {
		swapFsyncDir(t, func(*os.File) error { return dirGone })
		w, err := Open(t.TempDir(), Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err) // Open creates the segment and owes the fsync to its first commit
		}
		_, failed := w.Append(testRecord(1))
		stuck(t, w, failed, 0)
	})
	t.Run("background commit", func(t *testing.T) {
		swapFsyncDir(t, func(*os.File) error { return dirGone })
		w, err := Open(t.TempDir(), Options{SyncEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		var failed error
		for i := 1; i <= 5 && failed == nil; i++ {
			_, failed = w.Append(testRecord(i))
		}
		stuck(t, w, failed, 0)
	})
	t.Run("snapshot publish", func(t *testing.T) {
		w, err := Open(t.TempDir(), Options{SyncEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, w, 1)
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		swapFsyncDir(t, func(*os.File) error { return dirGone }) // committer parked: 0 unsynced
		stuck(t, w, w.WriteSnapshot(&Snapshot{LSN: 1}), 1)
	})
	t.Run("refused is tolerated", func(t *testing.T) {
		swapFsyncDir(t, func(*os.File) error { return &os.PathError{Op: "sync", Path: "dir", Err: os.ErrInvalid} })
		w, err := Open(t.TempDir(), Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, w, 1)
		if err := w.WriteSnapshot(&Snapshot{LSN: 1}); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.DurableLSN != 1 {
			t.Fatalf("durable frontier %d, want 1", st.DurableLSN)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableWaitsForDirSync: a segment's records are durable only once
// the directory names the segment durably. While that fsync is pending —
// the data fsync already done — the frontier stands still and appends
// below the bound keep returning; it moves when the directory fsync
// completes, and the segment pays it once.
func TestDurableWaitsForDirSync(t *testing.T) {
	dirSync, started, release := gatedFsync()
	swapFsyncDir(t, dirSync)
	var dataSyncs int
	swapFsync(t, func(f *os.File) error { dataSyncs++; return f.Sync() })
	w, err := Open(t.TempDir(), Options{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 4; i++ { // the 4th kicks the committer
		mustAppend(t, w, i)
	}
	<-started // the data fsync is done, the directory's is not
	mustAppend(t, w, 5)
	if st := w.Stats(); st.DurableLSN != 0 || st.Fsyncs != 0 {
		t.Fatalf("frontier moved with the directory fsync pending: %+v", st)
	}
	close(release)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.DurableLSN != 5 {
		t.Fatalf("durable frontier %d after Sync, want 5", st.DurableLSN)
	}
	// The segment is named now: later commits fsync data only.
	swapFsyncDir(t, func(*os.File) error { t.Error("directory fsynced again for the same segment"); return nil })
	mustAppend(t, w, 6)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if dataSyncs < 2 {
		t.Fatalf("%d data fsyncs, want one per commit", dataSyncs)
	}
}

// TestDirSyncProperty extends the loss-bound property to the directory:
// under concurrent appenders and constant rotation, whenever the frontier
// moves the active segment's directory entry is durable, no record of a
// segment whose entry is still pending is ever counted, and the loss
// bound holds throughout.
func TestDirSyncProperty(t *testing.T) {
	swapFsync(t, slowFsync(time.Millisecond))
	swapFsyncDir(t, slowFsync(time.Millisecond))
	for _, every := range []int{1, 3, 8} {
		var w *Writer
		w, err := Open(t.TempDir(), Options{
			SegmentBytes: 512,
			SyncEvery:    every,
			OnSync: func(time.Duration, int) { // under w.mu
				if w.dirDirty {
					t.Errorf("SyncEvery %d: frontier moved to %d with segment %d's directory entry pending", every, w.durable, w.segFirst)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		const appenders, each = 4, 40
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					lsn, err := w.Append(testRecord(i))
					if err != nil {
						t.Errorf("SyncEvery %d: append: %v", every, err)
						return
					}
					w.mu.Lock()
					if w.dirDirty && w.durable >= w.segFirst {
						t.Errorf("SyncEvery %d: record %d of segment %d durable before the segment's directory entry", every, w.durable, w.segFirst)
					}
					if int64(lsn)-int64(w.durable) >= int64(every) {
						t.Errorf("SyncEvery %d: append %d returned with durable frontier at %d", every, lsn, w.durable)
					}
					w.mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.DurableLSN != appenders*each || st.Segment == 1 {
			t.Errorf("SyncEvery %d: after close durable=%d active segment=%d, want every record durable across rotations", every, st.DurableLSN, st.Segment)
		}
	}
}

// TestCrashBetweenCreateAndFirstCommit: a segment that was created but
// never committed may or may not survive a crash — its directory entry
// was not yet owed to the disk. Either way recovery ends at the previous
// segment's tail and the next writer carries on from there.
func TestCrashBetweenCreateAndFirstCommit(t *testing.T) {
	for _, entryLost := range []bool{false, true} {
		dir := t.TempDir()
		w, err := Open(dir, Options{SegmentBytes: 256, SyncEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for w.Stats().Segment == 1 { // until the first rotation
			n++
			mustAppend(t, w, n)
		}
		st := w.Stats()
		if st.Offset != 0 || st.DurableLSN != uint64(n) || st.Segment != uint64(n+1) {
			t.Fatalf("after rotation: %+v, want an empty segment %d and %d durable records", st, n+1, n)
		}
		w.Abandon()
		fresh := filepath.Join(dir, segName(st.Segment))
		if _, err := os.Stat(fresh); err != nil {
			t.Fatalf("the rotated-to segment is missing: %v", err)
		}
		if entryLost {
			if err := os.Remove(fresh); err != nil {
				t.Fatal(err)
			}
		}
		if got := mustRecoverPrefix(t, dir, n); got != n {
			t.Fatalf("entry lost %v: recovered %d records, want %d", entryLost, got, n)
		}
		w, err = Open(dir, Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if lsn := mustAppend(t, w, n+1); lsn != uint64(n+1) {
			t.Fatalf("entry lost %v: first append after recovery got LSN %d, want %d", entryLost, lsn, n+1)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		mustRecoverPrefix(t, dir, n+1)
	}
}

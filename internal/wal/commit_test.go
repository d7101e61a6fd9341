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

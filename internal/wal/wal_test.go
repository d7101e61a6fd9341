package wal

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"muri/internal/engine"
)

func testRecord(i int) *Record {
	return &Record{
		Kind: KindDecision,
		V:    int64(i) * int64(time.Millisecond),
		Decision: &DecisionRecord{
			Seq:    uint64(i),
			Action: "launch",
			Key:    "exclusive:1,2",
			Jobs:   []int64{1, 2},
		},
	}
}

func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 1; i <= n; i++ {
		lsn, err := w.Append(testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("append %d: lsn %d", i, lsn)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Corruption != nil {
		t.Fatalf("unexpected corruption: %v", rec.Corruption)
	}
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		want := testRecord(i + 1)
		want.LSN = uint64(i + 1)
		if !reflect.DeepEqual(&r, want) {
			t.Fatalf("record %d: got %+v, want %+v", i, r, want)
		}
	}
	if rec.NextLSN != n+1 {
		t.Fatalf("NextLSN %d, want %d", rec.NextLSN, n+1)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{})
	for i := 1; i <= 3; i++ {
		w.Append(testRecord(i))
	}
	w.Close()
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w2.Append(testRecord(4))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("lsn after reopen: %d, want 4", lsn)
	}
	w2.Close()
	rec, _ := Recover(dir)
	if len(rec.Records) != 4 || rec.Corruption != nil {
		t.Fatalf("got %d records, corruption %v", len(rec.Records), rec.Corruption)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{SegmentBytes: 256, SyncEvery: 1})
	const n = 20
	for i := 1; i <= n; i++ {
		w.Append(testRecord(i))
	}
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	rec, _ := Recover(dir)
	if len(rec.Records) != n || rec.Corruption != nil {
		t.Fatalf("got %d records across segments, corruption %v", len(rec.Records), rec.Corruption)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{SyncEvery: 1})
	for i := 1; i <= 5; i++ {
		w.Append(testRecord(i))
	}
	pos := w.Stats().Position
	w.Close()

	// Tear the last record: chop bytes off the segment's tail.
	seg := filepath.Join(dir, segName(pos.Segment))
	fi, _ := os.Stat(seg)
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Corruption == nil {
		t.Fatal("expected corruption report for torn tail")
	}
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records before the tear, want 4", len(rec.Records))
	}
	if rec.NextLSN != 5 {
		t.Fatalf("NextLSN %d, want 5", rec.NextLSN)
	}

	// Reopening truncates the tear and appending continues cleanly.
	w2, err := Open(dir, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lsn, _ := w2.Append(testRecord(5)); lsn != 5 {
		t.Fatalf("post-truncate lsn %d, want 5", lsn)
	}
	w2.Close()
	rec2, _ := Recover(dir)
	if rec2.Corruption != nil || len(rec2.Records) != 5 {
		t.Fatalf("after reopen: %d records, corruption %v", len(rec2.Records), rec2.Corruption)
	}
}

func TestBitFlipStopsScan(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{SyncEvery: 1})
	for i := 1; i <= 5; i++ {
		w.Append(testRecord(i))
	}
	pos := w.Stats().Position
	w.Close()

	seg := filepath.Join(dir, segName(pos.Segment))
	data, _ := os.ReadFile(seg)
	// Flip one bit in the third record's payload. Records are equal-sized
	// here except for the V field digits; find the third frame by walking.
	off := 0
	for i := 0; i < 2; i++ {
		size := int(binary.BigEndian.Uint32(data[off : off+4]))
		off += frameHeader + size
	}
	data[off+frameHeader+4] ^= 0x40
	os.WriteFile(seg, data, 0o644)

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Corruption == nil {
		t.Fatal("expected corruption report for bit flip")
	}
	if rec.Corruption.Offset != int64(off) {
		t.Fatalf("corruption offset %d, want %d", rec.Corruption.Offset, off)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records before the flip, want 2", len(rec.Records))
	}
}

func TestAbandonLosesUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{SyncEvery: 100})
	for i := 1; i <= 3; i++ {
		w.Append(testRecord(i))
	}
	w.Sync()
	for i := 4; i <= 6; i++ {
		w.Append(testRecord(i)) // buffered, never synced
	}
	w.Abandon()
	rec, _ := Recover(dir)
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want only the 3 synced ones", len(rec.Records))
	}
}

func TestSnapshotAndPrune(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{SegmentBytes: 256, SyncEvery: 1})
	for i := 1; i <= 10; i++ {
		w.Append(testRecord(i))
	}
	snap := &Snapshot{
		LSN:       10,
		Term:      3,
		TakenWall: 12345,
		V:         int64(time.Second),
		Engine:    engine.Snapshot{Seq: 10},
		NextGroup: 7,
		NextJobID: 11,
	}
	if err := w.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 14; i++ {
		w.Append(testRecord(i))
	}
	w.Close()

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.LSN != 10 || rec.Snapshot.Term != 3 {
		t.Fatalf("snapshot not recovered: %+v", rec.Snapshot)
	}
	if len(rec.Records) != 4 || rec.Records[0].LSN != 11 {
		t.Fatalf("tail: %d records starting at %d", len(rec.Records), rec.Records[0].LSN)
	}
	if rec.NextLSN != 15 {
		t.Fatalf("NextLSN %d, want 15", rec.NextLSN)
	}

	// Segments wholly below the snapshot were pruned.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, s := range segs {
		var first uint64
		if lsn, ok := parseName(filepath.Base(s), segPrefix, segSuffix); ok {
			first = lsn
		}
		_ = first
	}
	if len(segs) == 0 {
		t.Fatal("pruning removed the live tail")
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{SyncEvery: 1})
	for i := 1; i <= 4; i++ {
		w.Append(testRecord(i))
	}
	w.WriteSnapshot(&Snapshot{LSN: 2, NextJobID: 3})
	w.WriteSnapshot(&Snapshot{LSN: 4, NextJobID: 5})
	w.Close()

	// Newest snapshot may have been pruned down to just snap-4; write a
	// corrupt newer one and make sure recovery falls back.
	os.WriteFile(filepath.Join(dir, snapName(9)), []byte("garbage"), 0o644)
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.LSN != 4 {
		t.Fatalf("fallback snapshot: %+v", rec.Snapshot)
	}
}

func TestRawReplicationRoundtrip(t *testing.T) {
	leaderDir, standbyDir := t.TempDir(), t.TempDir()
	sw, _ := Open(standbyDir, Options{SyncEvery: 1})
	lw, _ := Open(leaderDir, Options{
		SyncEvery: 1,
		OnAppend: func(lsn uint64, fr []byte) {
			cp := make([]byte, len(fr))
			copy(cp, fr)
			if err := sw.AppendRaw(lsn, cp); err != nil {
				t.Errorf("standby append: %v", err)
			}
		},
	})
	for i := 1; i <= 6; i++ {
		lw.Append(testRecord(i))
	}
	lw.Close()
	sw.Close()

	lr, _ := Recover(leaderDir)
	sr, _ := Recover(standbyDir)
	if !reflect.DeepEqual(lr.Records, sr.Records) {
		t.Fatal("standby replica diverged from leader WAL")
	}
	// Byte-identical segments, not just logically equal records.
	lb, _ := os.ReadFile(filepath.Join(leaderDir, segName(1)))
	sb, _ := os.ReadFile(filepath.Join(standbyDir, segName(1)))
	if string(lb) != string(sb) {
		t.Fatal("standby segment bytes differ from leader")
	}
}

func TestAppendRawGapRejected(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{})
	defer w.Close()
	fr := frame(nil, []byte(`{"lsn":5,"kind":"term"}`))
	if err := w.AppendRaw(5, fr); err == nil {
		t.Fatal("expected LSN-gap rejection")
	}
}

func TestInstallSnapshotResetsLog(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, Options{SyncEvery: 1})
	for i := 1; i <= 3; i++ {
		w.Append(testRecord(i))
	}
	// A leader snapshot from far ahead.
	leaderDir := t.TempDir()
	lw, _ := Open(leaderDir, Options{SyncEvery: 1})
	for i := 1; i <= 20; i++ {
		lw.Append(testRecord(i))
	}
	lw.WriteSnapshot(&Snapshot{LSN: 20, Term: 2, NextJobID: 21})
	fr, lsn, ok, err := lw.SnapshotRaw()
	if err != nil || !ok || lsn != 20 {
		t.Fatalf("SnapshotRaw: %v ok=%v lsn=%d", err, ok, lsn)
	}
	lw.Close()

	s, err := w.InstallSnapshot(fr)
	if err != nil {
		t.Fatal(err)
	}
	if s.LSN != 20 || s.Term != 2 {
		t.Fatalf("installed snapshot: %+v", s)
	}
	if err := w.AppendRaw(21, frameFor(t, 21)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rec, _ := Recover(dir)
	if rec.Snapshot == nil || rec.Snapshot.LSN != 20 || len(rec.Records) != 1 || rec.Records[0].LSN != 21 {
		t.Fatalf("post-install recovery: snap=%+v records=%d", rec.Snapshot, len(rec.Records))
	}
}

func frameFor(t *testing.T, lsn uint64) []byte {
	t.Helper()
	r := testRecord(int(lsn))
	r.LSN = lsn
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return frame(nil, payload)
}

// TestSyncLatencyHook: OnSync sees every record exactly once. How many
// fsyncs carry them is the committer's business for SyncEvery > 1; the
// contract is the record total and the bound.
func TestSyncLatencyHook(t *testing.T) {
	dir := t.TempDir()
	var syncs, recs int
	w, _ := Open(dir, Options{
		SyncEvery: 3,
		OnSync: func(d time.Duration, n int) {
			syncs++
			recs += n
		},
	})
	for i := 1; i <= 7; i++ {
		lsn, _ := w.Append(testRecord(i))
		if st := w.Stats(); lsn-st.DurableLSN >= 3 {
			t.Fatalf("append %d returned with durable frontier at %d, want fewer than 3 unsynced", lsn, st.DurableLSN)
		}
	}
	w.Close() // flushes the last partial batch
	if recs != 7 {
		t.Fatalf("records synced %d, want 7", recs)
	}
	if st := w.Stats(); uint64(syncs) != st.Fsyncs || st.DurableLSN != 7 {
		t.Fatalf("OnSync ran %d times; stats %+v", syncs, st)
	}
}

func TestEmptyDirRecovery(t *testing.T) {
	rec, err := Recover(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.NextLSN != 1 || rec.Corruption != nil {
		t.Fatalf("empty recovery: %+v", rec)
	}
}

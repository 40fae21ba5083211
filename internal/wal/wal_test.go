package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// openT opens a log at gen with fsync-always and fails the test on error.
func openT(t *testing.T, path string, gen uint64) *Log {
	t.Helper()
	l, err := Open(path, gen, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// collect replays the log and returns the payloads.
func collect(t *testing.T, path string, gen uint64) ([][]byte, Result) {
	t.Helper()
	var got [][]byte
	res, err := Replay(path, gen, nil, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	l := openT(t, path, 3)
	recs := [][]byte{
		[]byte("a"),
		[]byte(`{"id":"match-7","home":"Barcelona"}`),
		bytes.Repeat([]byte{0xAB}, 10_000),
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, path, 3)
	if res.Torn || res.GenMismatch || res.Records != len(recs) || res.Generation != 3 {
		t.Fatalf("replay result = %+v", res)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestEmptyAndOversizedAppendsRejected(t *testing.T) {
	l := openT(t, filepath.Join(t.TempDir(), "w"), 0)
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Error("empty append accepted")
	}
	if err := l.Append(make([]byte, MaxRecordLen+1)); err != ErrRecordTooLarge {
		t.Errorf("oversized append: %v", err)
	}
}

// TestTornTailEveryOffset is the kill-at-any-point property at the log
// layer: three records, then the file cut at every byte offset from 0 —
// inside the header, inside every record and at every boundary. A cut
// replays exactly the whole records before it. A cut on a boundary is a
// clean log, cut 0 a clean empty one; every other cut is a tear, reported
// and repaired, after which the log takes appends and replays clean.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.wal")
	l := openT(t, path, 1)
	// boundaries[k] is the file size once k records are on disk.
	var boundaries []int64
	for i := 0; i <= 3; i++ {
		if i > 0 {
			if err := l.Append([]byte(fmt.Sprintf("record-%d-0123456789", i))); err != nil {
				t.Fatal(err)
			}
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, st.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		cp := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(cp, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := collect(t, cp, 1)
		wantRecs, wantTorn := 0, cut != 0
		for k, b := range boundaries {
			if b <= cut {
				wantRecs = k
			}
			if b == cut {
				wantTorn = false
			}
		}
		if len(got) != wantRecs {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), wantRecs)
		}
		if res.Torn != wantTorn {
			t.Errorf("cut %d: torn = %v, want %v", cut, res.Torn, wantTorn)
		}
		// The tear was truncated: the log must accept appends and a
		// second replay must be clean.
		l2, err := Open(cp, 1, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := l2.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		got2, res2 := collect(t, cp, 1)
		if res2.Torn || len(got2) != wantRecs+1 {
			t.Errorf("cut %d: after repair+append: %d records, torn %v", cut, len(got2), res2.Torn)
		}
	}
}

// TestBitFlipTruncatesAtFlippedRecord flips every byte of the middle
// record in turn; replay must surface only the first record, report the
// tear, and never error or panic.
func TestBitFlipTruncatesAtFlippedRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.wal")
	l := openT(t, path, 1)
	if err := l.Append([]byte("first-record")); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	mid0 := st.Size()
	if err := l.Append([]byte("second-record")); err != nil {
		t.Fatal(err)
	}
	st, _ = os.Stat(path)
	mid1 := st.Size()
	if err := l.Append([]byte("third-record")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(path)
	for off := mid0; off < mid1; off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x40
		cp := filepath.Join(dir, "flip.wal")
		if err := os.WriteFile(cp, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := collect(t, cp, 1)
		if len(got) != 1 || !res.Torn {
			t.Fatalf("flip at %d: %d records, torn %v", off, len(got), res.Torn)
		}
	}
}

func TestGenMismatchSkipsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	l := openT(t, path, 5)
	if err := l.Append([]byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, path, 6)
	if len(got) != 0 || !res.GenMismatch || res.Generation != 5 {
		t.Fatalf("gen mismatch: %d records, %+v", len(got), res)
	}
	// Open at the new generation resets the stale log.
	l2 := openT(t, path, 6)
	if err := l2.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, res = collect(t, path, 6)
	if len(got) != 1 || res.GenMismatch {
		t.Fatalf("after reset: %d records, %+v", len(got), res)
	}
}

func TestRotateDiscardsRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	l := openT(t, path, 1)
	if err := l.Append([]byte("pre-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(2); err != nil {
		t.Fatal(err)
	}
	if g := l.Generation(); g != 2 {
		t.Errorf("generation after rotate = %d", g)
	}
	if err := l.Append([]byte("post-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, path, 2)
	if len(got) != 1 || string(got[0]) != "post-checkpoint" || res.Torn {
		t.Fatalf("after rotate: %q torn=%v", got, res.Torn)
	}
}

func TestMissingFileIsEmptyLog(t *testing.T) {
	got, res := collect(t, filepath.Join(t.TempDir(), "absent.wal"), 9)
	if len(got) != 0 || res.Torn || res.GenMismatch {
		t.Fatalf("missing file: %d records, %+v", len(got), res)
	}
}

func TestZeroFilledTailIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	l := openT(t, path, 1)
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, res := collect(t, path, 1)
	if len(got) != 1 || !res.Torn {
		t.Fatalf("zero tail: %d records, torn %v", len(got), res.Torn)
	}
}

func TestSyncPolicies(t *testing.T) {
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "ingest.wal")
	l, err := Open(path, 0, Options{Policy: SyncNever, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	base := reg.Counter(metricFsyncs).Value() // header sync
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte("x-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(metricFsyncs).Value(); got != base {
		t.Errorf("SyncNever issued %d fsyncs", got-base)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(metricFsyncs).Value(); got != base+1 {
		t.Errorf("explicit Sync: fsyncs = %d, want %d", got, base+1)
	}
	l.Close()

	l2, err := Open(path, 0, Options{Policy: SyncInterval, Interval: time.Hour, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	mark := reg.Counter(metricFsyncs).Value()
	// The first append is past the (zero) lastSync mark, so it syncs;
	// the burst after it rides the interval.
	for i := 0; i < 5; i++ {
		if err := l2.Append([]byte("y-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(metricFsyncs).Value(); got != mark+1 {
		t.Errorf("SyncInterval burst: fsyncs = %d, want %d", got, mark+1)
	}
}

// TestSyncPolicyIntervalSyncsIdleTail: under SyncInterval the tail of a
// burst is synced within an interval of its first unsynced append, with
// no further call on the log to prompt it.
func TestSyncPolicyIntervalSyncsIdleTail(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(filepath.Join(t.TempDir(), "ingest.wal"), 0, Options{Policy: SyncInterval, Interval: 100 * time.Millisecond, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The first append syncs; the second, 20 ms later and inside the
	// interval, leaves the log dirty. One more fsync must follow.
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	fsyncs := reg.Counter(metricFsyncs)
	mark := fsyncs.Value()
	time.Sleep(20 * time.Millisecond)
	if err := l.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); fsyncs.Value() == mark; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the tail of the burst was not synced within 2 s of its last append")
		}
	}
}

func TestScanReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	l := openT(t, path, 4)
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(path)
	if err := os.WriteFile(path, full[:len(full)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 || !res.Torn || res.Generation != 4 {
		t.Fatalf("scan: %+v", res)
	}
	// Read-only: the torn byte is still there.
	after, _ := os.ReadFile(path)
	if len(after) != len(full)-2 {
		t.Error("Scan mutated the file")
	}
}

// TestReplayStreamsRecords: replay reads each record into one reused
// buffer and hands it to fn before reading the next, so what it allocates
// stays near one record's size however long the log is.
func TestReplayStreamsRecords(t *testing.T) {
	const records, size = 32, 256 << 10
	path := filepath.Join(t.TempDir(), "ingest.wal")
	l := openT(t, path, 1)
	for i := 0; i < records; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seen := 0
	res, err := Replay(path, 1, nil, func(rec []byte) error {
		if len(rec) != size || rec[0] != byte(seen) || rec[size-1] != byte(seen) {
			return fmt.Errorf("record %d: %d bytes, first %d", seen, len(rec), rec[0])
		}
		seen++
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != records || seen != records || res.Torn {
		t.Fatalf("replay = %+v, fn saw %d records, want %d", res, seen, records)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2<<20 {
		t.Errorf("replaying %d records of %d KiB allocated %d KiB, want under 2048", records, size>>10, alloc>>10)
	}
}

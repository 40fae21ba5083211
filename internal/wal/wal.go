// Package wal is the ingest write-ahead log behind the engine's
// kill-at-any-point durability guarantee. A snapshot (internal/shard's
// manifest-anchored checkpoint) captures the index at a generation; the
// WAL captures every ingest batch since, appended and (per policy)
// fsynced *before* the batch mutates memory. Recovery is snapshot +
// replay: whatever survives on disk reconstructs exactly the state the
// crashed process had acknowledged.
//
// File layout (little-endian):
//
//	header: magic "SWAL" | version u32 | generation u64
//	record: length u32 | crc32(IEEE, payload) u32 | payload bytes
//
// The generation ties a log to the snapshot it extends: replay applies a
// log only when its generation matches the manifest's, so a stale log
// left by a crash mid-checkpoint is ignored rather than double-applied.
//
// Torn writes are the normal crash artifact, not an error: a record cut
// anywhere — short header, short payload, bit-flipped bytes failing the
// CRC — ends the valid prefix. Replay surfaces the records before the
// tear, reports it, and truncates the file back to the last good
// boundary so the log is immediately appendable again. A length prefix
// larger than the bytes actually on disk is treated the same way, so a
// corrupt prefix can never drive allocation past the file size.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	logMagic   = "SWAL"
	logVersion = 1
	headerLen  = 4 + 4 + 8 // magic, version, generation
	recHdrLen  = 4 + 4     // length, crc
)

// MaxRecordLen bounds a single record's payload (64 MiB). Appends beyond
// it are rejected, and a length prefix claiming more marks a torn tail.
const MaxRecordLen = 64 << 20

// ErrBadHeader reports a file that is not a WAL: wrong magic or an
// unsupported version. Distinct from a torn tail — a bad header means
// the whole file is untrusted.
var ErrBadHeader = errors.New("wal: bad log header")

// ErrRecordTooLarge rejects an Append past MaxRecordLen.
var ErrRecordTooLarge = errors.New("wal: record exceeds MaxRecordLen")

// Policy selects when Append makes its record durable.
type Policy int

const (
	// SyncAlways fsyncs after every append: the acknowledged-write-
	// survives-kill guarantee, at one fsync per batch.
	SyncAlways Policy = iota
	// SyncInterval fsyncs at most once per Options.Interval, amortizing
	// the fsync over a burst; a crash can lose up to one interval of
	// acknowledged appends. An append inside the interval arms a timer
	// that syncs the tail of the burst when the interval ends, so the
	// window holds when no later call on the log comes to sync it.
	SyncInterval
	// SyncNever leaves durability to the OS page cache (and Close/Sync).
	// A crash can lose everything since the last explicit sync.
	SyncNever
)

// Options configures a log handle.
type Options struct {
	// Policy is the fsync policy (default SyncAlways).
	Policy Policy
	// Interval is the SyncInterval flush period (default 100ms).
	Interval time.Duration
	// Registry receives the wal_* counters; nil disables them. Callers
	// that want process-wide series pass obs.Default explicitly.
	Registry *obs.Registry
}

// Metric names the log publishes.
const (
	metricAppends     = "wal_appends_total"
	metricFsyncs      = "wal_fsyncs_total"
	metricReplayed    = "wal_replayed_records_total"
	metricTruncations = "wal_torn_truncations_total"
)

type logMetrics struct {
	appends     *obs.Counter
	fsyncs      *obs.Counter
	replayed    *obs.Counter
	truncations *obs.Counter
}

func newLogMetrics(r *obs.Registry) logMetrics {
	r.Help(metricAppends, "WAL records appended.")
	r.Help(metricFsyncs, "WAL fsync calls issued.")
	r.Help(metricReplayed, "WAL records replayed during recovery.")
	r.Help(metricTruncations, "WAL torn tails truncated during recovery.")
	return logMetrics{
		appends:     r.Counter(metricAppends),
		fsyncs:      r.Counter(metricFsyncs),
		replayed:    r.Counter(metricReplayed),
		truncations: r.Counter(metricTruncations),
	}
}

// Log is an append handle on one WAL file. Appends are serialized
// internally; a Log is safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	gen      uint64
	opts     Options
	met      logMetrics
	lastSync time.Time
	dirty    bool
	// timer, when non-nil, is the armed SyncInterval timer that syncs
	// the log's tail when its interval ends; any sync stops it.
	timer *time.Timer
}

// Open returns an append handle positioned after the last intact record,
// creating the file when absent. An existing log whose generation
// differs from gen is reset: its records belong to another snapshot
// lineage and replaying them here would corrupt state, so they are
// discarded and a fresh header is written. An existing log at the right
// generation keeps its records — they are the tail the caller just
// replayed (or an empty log) — with any torn tail truncated away.
func Open(path string, gen uint64, opts Options) (*Log, error) {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, gen: gen, opts: opts, met: newLogMetrics(opts.Registry)}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	reset := st.Size() < headerLen
	if !reset {
		fileGen, err := readHeader(f)
		if err != nil || fileGen != gen {
			reset = true
		}
	}
	if reset {
		if err := l.rewriteHeader(gen); err != nil {
			f.Close()
			return nil, err
		}
		return l, nil
	}
	// Find the intact prefix and drop whatever tear follows it.
	end, _, torn, err := scanFrom(f, st.Size(), nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if torn {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		l.met.truncations.Inc()
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return l, nil
}

// rewriteHeader truncates the file to a fresh header at gen and syncs it.
func (l *Log) rewriteHeader(gen uint64) error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:4], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], logVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], gen)
	if _, err := l.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Seek(headerLen, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.met.fsyncs.Inc()
	l.gen = gen
	l.dirty = false
	l.stopTimerLocked()
	return nil
}

// Append writes one record and makes it durable per the sync policy.
// When Append returns nil under SyncAlways, the record survives an
// immediate kill -9. Empty records are rejected: a zero-filled tail
// (what some filesystems leave after a crash) must read as a torn tail,
// not as a run of valid empty records.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(payload); err != nil {
		return err
	}
	switch l.opts.Policy {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		wait := l.opts.Interval - time.Since(l.lastSync)
		if wait <= 0 {
			return l.syncLocked()
		}
		if l.timer == nil {
			l.armLocked(wait)
		}
	}
	return nil
}

// armLocked arms the SyncInterval timer to sync, after wait, the tail of
// a burst that no later call syncs. A timer that a sync, Rotate or Close
// stopped does nothing when it fires, even if a newer one is armed. A
// failed timed sync leaves the log dirty, so the next Append, Sync or
// Close syncs again and returns the error if it recurs.
func (l *Log) armLocked(wait time.Duration) {
	var t *time.Timer
	t = time.AfterFunc(wait, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.timer == t {
			_ = l.syncLocked() // a failure leaves the log dirty, for the next call to report
		}
	})
	l.timer = t
}

// stopTimerLocked disarms the SyncInterval timer, if one is armed.
func (l *Log) stopTimerLocked() {
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
}

// AppendAsync writes one record without consulting the sync policy: the
// record reaches the OS page cache but no fsync is issued, whatever the
// policy. It backs the engine's async-durability ingest acknowledgement —
// replayable after a process crash, lost on a machine crash — and a later
// Sync (or any policy-triggered one) makes it durable.
func (l *Log) AppendAsync(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(payload)
}

// appendLocked writes the record header and payload under l.mu.
func (l *Log) appendLocked(payload []byte) error {
	if len(payload) > MaxRecordLen {
		return ErrRecordTooLarge
	}
	if len(payload) == 0 {
		return errors.New("wal: empty record")
	}
	var hdr [recHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.met.appends.Inc()
	l.dirty = true
	return nil
}

// Sync forces pending appends to disk regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	l.stopTimerLocked()
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.met.fsyncs.Inc()
	l.lastSync = time.Now()
	l.dirty = false
	return nil
}

// Rotate discards every record and starts the log over at a new
// generation — the checkpoint step: once a snapshot at gen is committed,
// the records folded into it are dead weight.
func (l *Log) Rotate(gen uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rewriteHeader(gen)
}

// Close syncs and releases the handle.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.syncLocked(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Result describes one replay or scan.
type Result struct {
	// Generation is the log's recorded snapshot generation.
	Generation uint64
	// Records counts the intact records visited.
	Records int
	// Torn is true when the file ended mid-record (crash artifact or
	// bit flip); the records before the tear are still good.
	Torn bool
	// GenMismatch is true when the log belongs to a different snapshot
	// generation than expected and was therefore skipped entirely.
	GenMismatch bool
}

// Replay feeds every intact record of the log at path to fn, in append
// order, as it reads it, then truncates any torn tail so the log is
// appendable again. rec is valid only until fn returns: the next record
// is read into the same buffer, so replay holds one record at a time. A
// missing file is an empty log, not an error. A log at a different
// generation than expectGen is skipped (GenMismatch). fn errors abort
// the replay and are returned as-is; the torn tail is not truncated in
// that case, so a later attempt sees the same records.
func Replay(path string, expectGen uint64, reg *obs.Registry, fn func(rec []byte) error) (Result, error) {
	met := newLogMetrics(reg)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return Result{Generation: expectGen}, nil
	}
	if err != nil {
		return Result{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	res, end, err := scanFile(f, expectGen, true, fn)
	if err != nil {
		return res, err
	}
	met.replayed.Add(uint64(res.Records))
	if res.Torn {
		if err := f.Truncate(end); err != nil {
			return res, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return res, fmt.Errorf("wal: %w", err)
		}
		met.truncations.Inc()
	}
	return res, nil
}

// Scan is the read-only form of Replay for fsck: it reports the log's
// shape — generation, intact records, torn tail — without mutating the
// file. expectGen < 0 disables the generation check.
func Scan(path string, expectGen int64) (Result, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return Result{}, nil
	}
	if err != nil {
		return Result{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	res, _, err := scanFile(f, uint64(max64(expectGen, 0)), expectGen >= 0, nil)
	return res, err
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// scanFile validates the header and walks the records, returning the
// offset where the intact prefix ends. checkGen false disables the
// generation gate (read-only fsck of a log of unknown lineage).
func scanFile(f *os.File, expectGen uint64, checkGen bool, fn func(rec []byte) error) (Result, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return Result{}, 0, fmt.Errorf("wal: %w", err)
	}
	if st.Size() < headerLen {
		// Shorter than a header: a crash before the first header sync.
		// Nothing to replay; treat as empty-and-torn at offset 0.
		return Result{Torn: st.Size() > 0}, 0, nil
	}
	gen, err := readHeader(f)
	if err != nil {
		return Result{}, 0, err
	}
	if checkGen && gen != expectGen {
		return Result{Generation: gen, GenMismatch: true}, headerLen, nil
	}
	end, n, torn, err := scanFrom(f, st.Size(), fn)
	return Result{Generation: gen, Records: n, Torn: torn}, end, err
}

// readHeader validates magic and version and returns the generation.
func readHeader(f *os.File) (uint64, error) {
	var hdr [headerLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if string(hdr[:4]) != logMagic {
		return 0, fmt.Errorf("%w: magic %q", ErrBadHeader, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != logVersion {
		return 0, fmt.Errorf("%w: version %d", ErrBadHeader, v)
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}

// scanFrom walks records from the header to size, calling fn (when
// non-nil) per intact record. It returns the end of the intact prefix,
// the record count, and whether a tear cut the walk short. fn errors
// abort and propagate.
func scanFrom(f *os.File, size int64, fn func(rec []byte) error) (end int64, n int, torn bool, err error) {
	r := io.NewSectionReader(f, headerLen, size-headerLen)
	n, valid, torn, err := readRecords(r, size-headerLen, fn)
	return headerLen + valid, n, torn, err
}

// readRecords is the core scanner: it consumes records off r until the
// stream ends or tears, where remaining bounds how many payload bytes
// can still exist (the file size minus the current offset — the defense
// against a corrupt length prefix driving unbounded allocation). It hands
// each intact record to fn, when non-nil, as it reads it, in one buffer
// every record reuses, and stops at fn's first error, counting the record
// fn failed on. This function is the fuzz target: it must never panic on
// arbitrary input.
func readRecords(r io.Reader, remaining int64, fn func(rec []byte) error) (n int, valid int64, torn bool, err error) {
	var payload []byte
	for {
		var hdr [recHdrLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// EOF exactly at a boundary is a clean end; anything else
			// (partial header) is a tear.
			return n, valid, !errors.Is(err, io.EOF), nil
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxRecordLen || length > remaining-valid-recHdrLen {
			// Zero length (a zero-filled tail reads as endless empty
			// records otherwise) or a prefix claiming more bytes than
			// the file holds: torn.
			return n, valid, true, nil
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return n, valid, true, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			return n, valid, true, nil
		}
		valid += recHdrLen + length
		n++
		if fn != nil {
			if err := fn(payload); err != nil {
				return n, valid, false, err
			}
		}
	}
}

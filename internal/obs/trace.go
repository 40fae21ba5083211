package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed step of a trace, as offsets from the trace start so a
// rendered trace reads as a timeline.
type Span struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Trace records the timed steps of one query (parse → scatter → per-shard
// search → merge on the sharded path). It is safe for concurrent span
// recording — scatter goroutines append spans in parallel — and a nil
// *Trace ignores everything, so the engine's hot path only pays for
// tracing when a caller asked for it.
type Trace struct {
	// ID is the request-unique identifier surfaced in access logs and the
	// X-Trace-ID response header.
	ID string
	// Name labels the traced operation (the request path, the query).
	Name string

	begin time.Time
	mu    sync.Mutex
	spans []Span
	total time.Duration
	done  bool
}

// traceSeq and traceEpoch make IDs unique within a process and unlikely to
// collide across restarts without any external dependency.
var (
	traceSeq   atomic.Uint64
	traceEpoch = uint64(time.Now().UnixNano())
)

// NewTrace starts a trace now.
func NewTrace(name string) *Trace {
	return &Trace{
		ID:    fmt.Sprintf("%08x-%06d", uint32(traceEpoch), traceSeq.Add(1)),
		Name:  name,
		begin: time.Now(),
	}
}

// Span starts a named span and returns the func that ends it. Safe on a
// nil trace (returns a no-op).
func (t *Trace) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.AddSpan(name, start, time.Since(start)) }
}

// AddSpan records an already-timed span. Safe on a nil trace and from
// concurrent goroutines.
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.begin), Dur: d})
	t.mu.Unlock()
}

// Finish fixes the trace's total duration (first call wins) and returns it.
// Safe on a nil trace (returns 0).
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.total = time.Since(t.begin)
		t.done = true
	}
	return t.total
}

// Total returns the finished duration (elapsed time if not finished yet).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.total
	}
	return time.Since(t.begin)
}

// Spans returns a copy of the recorded spans in start order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// String renders the trace as one log line:
//
//	trace 01a2b3c4-000017 /v1/search 1.8ms: shard0=1.1ms shard1=1.3ms merge=60µs
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s %s %s:", t.ID, t.Name, t.Total().Round(time.Microsecond))
	for _, s := range t.Spans() {
		fmt.Fprintf(&b, " %s=%s", s.Name, s.Dur.Round(time.Microsecond))
	}
	return b.String()
}

// traceKey carries a *Trace through a context.
type traceKey struct{}

// WithTrace attaches a trace to a context so handlers deeper in the stack
// can add spans to the request's trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil (which every Trace method
// tolerates) when none is attached.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SlowLog writes finished traces that exceeded a threshold — the
// slow-query log. The zero value (and a nil *SlowLog) logs nothing; set
// Threshold and Out to enable. Safe for concurrent use.
type SlowLog struct {
	// Threshold is the minimum total duration worth logging; 0 disables.
	Threshold time.Duration
	// Out receives one line per slow trace.
	Out io.Writer

	mu sync.Mutex
}

// Record logs the trace if it ran at least Threshold, returning whether it
// was logged. It finishes the trace if the caller has not.
func (l *SlowLog) Record(t *Trace) bool {
	if l == nil || l.Out == nil || l.Threshold <= 0 || t == nil {
		return false
	}
	if t.Finish() < l.Threshold {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.Out, "slow query: %s\n", t)
	return true
}

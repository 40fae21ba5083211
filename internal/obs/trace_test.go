package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndString(t *testing.T) {
	tr := NewTrace("/v1/search?q=goal")
	end := tr.Span("parse")
	time.Sleep(time.Millisecond)
	end()
	tr.AddSpan("merge", time.Now(), 2*time.Millisecond)
	total := tr.Finish()
	if total < time.Millisecond {
		t.Errorf("total = %v, want >= 1ms", total)
	}
	// Finish is idempotent: the first total sticks.
	time.Sleep(time.Millisecond)
	if tr.Finish() != total {
		t.Error("Finish not idempotent")
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "parse" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Dur < time.Millisecond {
		t.Errorf("parse span = %v, want >= 1ms", spans[0].Dur)
	}
	s := tr.String()
	for _, want := range []string{"trace ", tr.ID, "/v1/search?q=goal", "parse=", "merge="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTrace("x").ID
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

// TestTraceConcurrentSpans mirrors the scatter path: goroutines record
// per-shard spans into one trace (the race detector is the assertion).
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("scatter")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := tr.Span("shard")
			end()
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 8 {
		t.Errorf("spans = %d, want 8", got)
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTrace("x")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Error("trace lost through context")
	}
	if TraceFrom(context.Background()) != nil {
		t.Error("empty context must yield nil trace")
	}
}

func TestSlowLog(t *testing.T) {
	var fast, slow strings.Builder

	l := &SlowLog{Threshold: time.Hour, Out: &fast}
	if l.Record(NewTrace("quick")) {
		t.Error("sub-threshold trace logged")
	}
	if fast.Len() != 0 {
		t.Errorf("fast log = %q, want empty", fast.String())
	}

	l = &SlowLog{Threshold: time.Nanosecond, Out: &slow}
	tr := NewTrace("/v1/search?q=goal")
	time.Sleep(time.Millisecond)
	if !l.Record(tr) {
		t.Fatal("over-threshold trace not logged")
	}
	if got := slow.String(); !strings.Contains(got, "slow query:") || !strings.Contains(got, tr.ID) {
		t.Errorf("slow log = %q", got)
	}

	// Disabled configurations never log.
	if (&SlowLog{Out: &slow}).Record(tr) {
		t.Error("zero threshold must disable")
	}
	if (&SlowLog{Threshold: time.Nanosecond}).Record(tr) {
		t.Error("nil output must disable")
	}
}

package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("route", "/v1/search"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same series.
	if again := r.Counter("requests_total", L("route", "/v1/search")); again.Value() != 5 {
		t.Errorf("re-resolved counter = %d, want 5", again.Value())
	}
	// Different labels are a different series.
	if other := r.Counter("requests_total", L("route", "/v1/related")); other.Value() != 0 {
		t.Errorf("new series = %d, want 0", other.Value())
	}

	g := r.Gauge("inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %v, want 1", got)
	}
	g.Set(7.5)
	if got := g.Value(); got != 7.5 {
		t.Errorf("gauge = %v, want 7.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(0.5)
	h.ObserveDuration(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must be inert")
	}
	var tr *Trace
	tr.Span("s")()
	tr.AddSpan("s", time.Now(), time.Millisecond)
	if tr.Finish() != 0 || tr.String() != "" || tr.Spans() != nil {
		t.Error("nil trace must be inert")
	}
	var sl *SlowLog
	if sl.Record(NewTrace("q")) {
		t.Error("nil slow log must not record")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Errorf("nil registry exposition: %v", err)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m")
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(0.005) // all in the first bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got := h.Sum(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("sum = %v, want 0.5", got)
	}
	h.Observe(5) // past the last finite bound

	// Quantiles are estimated off /metrics by Prometheus
	// histogram_quantile(), which reads the cumulative bucket counts: p50
	// must fall in the first bucket and p100 only in +Inf.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 100`,
		`lat_seconds_bucket{le="1"} 100`,
		`lat_seconds_bucket{le="+Inf"} 101`,
		"lat_seconds_count 101",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, b.String())
		}
	}
}

func TestBucketNormalization(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 0.1, 0.1, 0.01})
	h.Observe(0.05)
	want := []float64{0.01, 0.1, 1}
	if len(h.bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", h.bounds, want)
	}
	for i := range want {
		if h.bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", h.bounds, want)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Help("searches_total", "Total searches.")
	r.Counter("searches_total", L("shard", "0")).Add(3)
	r.Counter("searches_total", L("shard", "1")).Add(7)
	r.Gauge("inflight").Set(2)
	h := r.Histogram("search_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP searches_total Total searches.",
		"# TYPE searches_total counter",
		`searches_total{shard="0"} 3`,
		`searches_total{shard="1"} 7`,
		"# TYPE inflight gauge",
		"inflight 2",
		"# TYPE search_seconds histogram",
		`search_seconds_bucket{le="0.1"} 1`,
		`search_seconds_bucket{le="1"} 2`,
		`search_seconds_bucket{le="+Inf"} 3`,
		"search_seconds_sum 2.55",
		"search_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families are sorted by name.
	if strings.Index(out, "inflight") > strings.Index(out, "search_seconds") {
		t.Error("families not sorted by name")
	}

	// The HTTP handler serves the same bytes with the right content type.
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("q", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `q="a\"b\\c\nd"`) {
		t.Errorf("labels not escaped: %s", b.String())
	}
}

// TestConcurrentUpdates exercises the lock-free paths under -race: many
// goroutines hammering one counter, gauge and histogram while exposition
// runs concurrently.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	// Exposition and resolution race the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			r.WritePrometheus(&b)
			r.Counter("c")
		}
	}()
	wg.Wait()
	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if math.Abs(h.Sum()-workers*iters*0.001) > 1e-6 {
		t.Errorf("histogram sum = %v", h.Sum())
	}
}

// TestLatencyBucketsP999Resolution pins the bucket-layout contract a
// histogram_quantile() p999 on /metrics depends on: the default layout
// must remain a strict
// superset of the pre-extension layout (so dashboards keyed on the old
// le= bounds keep reading the same cumulative series), stay sorted and
// duplicate-free, and keep consecutive bounds above 50ms within 2x of
// each other so a p999 interpolated inside one bucket is a meaningful
// estimate rather than a 2.5x-wide guess.
func TestLatencyBucketsP999Resolution(t *testing.T) {
	// The layout before the p999 extension — frozen, never edit.
	legacy := []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	have := map[float64]bool{}
	for _, b := range DefaultLatencyBuckets {
		have[b] = true
	}
	for _, b := range legacy {
		if !have[b] {
			t.Errorf("legacy bound %g dropped from DefaultLatencyBuckets", b)
		}
	}
	for i := 1; i < len(DefaultLatencyBuckets); i++ {
		lo, hi := DefaultLatencyBuckets[i-1], DefaultLatencyBuckets[i]
		if hi <= lo {
			t.Errorf("buckets not strictly ascending at %d: %g then %g", i, lo, hi)
		}
		if lo >= 0.05 && hi/lo > 2.0 {
			t.Errorf("tail resolution too coarse: %g -> %g is %.2fx (max 2x)", lo, hi, hi/lo)
		}
	}

	// Exposition at the old bounds stays well-formed and cumulative.
	r := NewRegistry()
	h := r.Histogram("lat_seconds", DefaultLatencyBuckets)
	for _, v := range []float64{0.0002, 0.08, 0.12, 0.3, 1.2, 3} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="0.25"} 3`,
		`lat_seconds_bucket{le="0.5"} 4`,
		`lat_seconds_bucket{le="2.5"} 5`,
		`lat_seconds_bucket{le="+Inf"} 6`,
		"lat_seconds_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// Package obs is the query-path observability layer: a dependency-free,
// concurrency-safe metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms — no locks on the hot path), Prometheus
// text-format exposition, and lightweight per-query trace spans with a
// configurable slow-query log.
//
// Handles are resolved once (Registry.Counter / Gauge / Histogram take a
// creation lock) and then updated with single atomic operations, so the
// search and ingest hot paths pay a few nanoseconds per event. Every
// handle type tolerates a nil receiver as a no-op, and a nil *Registry
// hands out nil handles — "metrics off" is expressed by wiring nil, not
// by branching at every call site.
//
// The paper's scalability claim (Sections 3.6, 7) is only as good as the
// latency evidence behind it; this package is the substrate the engine's
// /metrics exposition and the benchmark module's per-layer figures read.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing metric. The zero value is ready;
// a nil *Counter ignores updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down (in-flight requests, sizes).
// The zero value is ready; a nil *Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(floatBits(v))
	}
}

// Add adds delta with a CAS loop (lock-free).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

// metricKind partitions a registry's families for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) time series and its typed value.
type series struct {
	labels []Label
	key    string // rendered label signature, for sorting and dedup
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name    string
	kind    metricKind
	help    string
	buckets []float64 // histograms only; fixed at family creation
	series  []*series // sorted by key
	byKey   map[string]*series
}

// Registry holds metric families and hands out series handles. All methods
// are safe for concurrent use; handle resolution takes a lock, handle
// updates never do. A nil *Registry is valid and hands out nil (no-op)
// handles, so instrumented code can be "switched off" by wiring nil.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// pendingHelp holds Help texts set before the family's first series.
	pendingHelp map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry the stack wires by default; the
// socserve /metrics endpoint exposes it.
var Default = NewRegistry()

// Counter returns the counter series for name+labels, creating it (and its
// family) on first use. Reusing a name with a different metric kind panics:
// that is a programming error exposition could not represent.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.resolve(name, kindCounter, nil, labels)
	if s == nil {
		return nil
	}
	return s.c
}

// Gauge returns the gauge series for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.resolve(name, kindGauge, nil, labels)
	if s == nil {
		return nil
	}
	return s.g
}

// Histogram returns the histogram series for name+labels, creating it on
// first use with the given bucket upper bounds (ascending, in seconds for
// latency metrics; nil means DefaultLatencyBuckets). The family's buckets
// are fixed by the first creation; later calls reuse them.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	s := r.resolve(name, kindHistogram, buckets, labels)
	if s == nil {
		return nil
	}
	return s.h
}

// Help attaches a # HELP line to a family (created on demand as a counter
// placeholder if it does not exist yet — kind is fixed by first real use).
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = help
		return
	}
	// Remember the help text for a family registered later.
	if r.pendingHelp == nil {
		r.pendingHelp = map[string]string{}
	}
	r.pendingHelp[name] = help
}

func (r *Registry) resolve(name string, kind metricKind, buckets []float64, labels []Label) *series {
	if r == nil {
		return nil
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		if kind == kindHistogram {
			if len(buckets) == 0 {
				buckets = DefaultLatencyBuckets
			}
			buckets = normalizeBuckets(buckets)
		}
		f = &family{name: name, kind: kind, buckets: buckets, byKey: map[string]*series{}}
		if h, ok := r.pendingHelp[name]; ok {
			f.help = h
			delete(r.pendingHelp, name)
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " registered as " + f.kind.String() + ", requested as " + kind.String())
	}
	if s := f.byKey[key]; s != nil {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...), key: key}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.buckets)
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
	return s
}

// labelKey renders labels into a stable signature: sorted by name.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus text-format label escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

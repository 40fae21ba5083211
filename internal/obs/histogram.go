package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the fixed histogram bounds (seconds) used for
// every latency metric in the stack: 100µs to 10s, roughly exponential.
// They bracket the observed query path — a paper-scale keyword search
// lands in the 100µs–5ms range, a sharded scatter-gather over a large
// corpus in the 1–50ms range, and the top bucket catches pathological
// stalls that should have been deadlined.
//
// Above 100ms the layout is denser than a pure powers-of-~2.5 ladder
// (0.075/0.15/0.35/0.75/1.5 interleave the original bounds): a p999 read
// off /metrics with Prometheus histogram_quantile() interpolates inside
// one bucket, and at million-doc corpus sizes the tail lands exactly in
// the 100ms–2s range where the old layout jumped 2.5x between bounds —
// too coarse for such an estimate to mean anything. The new layout is a
// strict superset of the old one, so Prometheus series recorded at the
// old le= bounds keep their meaning (TestLatencyBucketsP999Resolution
// pins both properties).
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.075, 0.1, 0.15, 0.25, 0.35, 0.5, 0.75, 1, 1.5, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with lock-free observation: one
// atomic add on the owning bucket, one on the count, one CAS on the sum.
// Bounds are upper bounds in ascending order with an implicit +Inf bucket.
// A nil *Histogram ignores observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// normalizeBuckets copies and sorts bounds ascending, dropping duplicates,
// so a family's exposition is always well-formed.
func normalizeBuckets(bounds []float64) []float64 {
	out := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		out = append(out, b)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// Observe records one value (seconds, for latency histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: the default bucket count is 21 and the slice is hot in
	// cache; a binary search costs more in branches than it saves.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return bitsFloat(h.sum.Load())
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

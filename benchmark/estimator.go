package main

import (
	"math"
	"sort"
	"time"
)

// refNominalMs is the reference kernel's sample time on a quiet run of the
// machine the benchmark was frozen on. Every timing is scaled by
// refNominalMs / (mean reference sample of its window), so a reported
// "ms" is a millisecond of that quiet machine. Never edited by a change
// that claims a gain: it only fixes the unit.
const refNominalMs = 0.6

const (
	refTableWords = 1 << 20 // 4 MiB of uint32: larger than L2, so the loads miss
	refIterations = 50_000
)

// refKernel is the fixed piece of work whose duration measures how fast the
// machine is right now. One sample is an untimed pass over the table (so
// every sample starts from the same cache state) followed by a timed chain
// of dependent load -> FNV multiply -> Log1p accumulate: cache-missing
// loads, integer and floating-point work, like the engine's own mix.
type refKernel struct {
	table []uint32
	sink  float64
}

func newRefKernel() *refKernel {
	k := &refKernel{table: make([]uint32, refTableWords)}
	x := uint32(2463534242) // xorshift32, constant seed: the table never changes
	for i := range k.table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.table[i] = x
	}
	return k
}

// sample runs the kernel once and returns its duration in milliseconds.
func (k *refKernel) sample() float64 {
	var warm uint32
	for _, v := range k.table {
		warm += v
	}
	idx := warm & (refTableWords - 1)
	h := uint32(2166136261)
	acc := 0.0
	start := time.Now()
	for i := 0; i < refIterations; i++ {
		h = (h ^ k.table[idx]) * 16777619
		acc += math.Log1p(float64(h & 0xffff))
		idx = h & (refTableWords - 1)
	}
	d := time.Since(start)
	k.sink += acc
	return ms(d)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank percentile (p in (0,100]) of v; 0 for an
// empty series. v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the mean of the two middle values for even lengths, unlike
// percentile(v, 50): window medians are few, so the interpolation matters.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// buildExponent is how much of the reference kernel's slowdown reaches
// bulk_build's chunk commits. Searches and one-page ingests slow down one
// to one with the kernel (run-level regressions of log raw time on log
// reference time give 0.99 to 1.1), but a streamed build with its growing
// heap gives 0.6 to 0.8 over four sets of ten runs (SPREAD.md): scaled by
// the full factor, its quiet runs read slow and its busy runs fast. Like
// refNominalMs it is frozen: it fixes a unit, not a result.
const buildExponent = 0.75

// normFactor converts raw timings to reference-normalised ones, given the
// reference samples taken beside them and the exponent of the work timed
// (1, or buildExponent). Without reference samples nothing is scaled.
func normFactor(refSamples []float64, exponent float64) float64 {
	m := mean(refSamples)
	if m <= 0 {
		return 1
	}
	return math.Pow(refNominalMs/m, exponent)
}

// window is one measured slice of a run: the raw timings observed in it,
// by series name, and the reference samples taken inside it.
type window struct {
	ref []float64
	obs map[string][]float64
}

// recorder collects windows. A run's value for a metric is the median
// across windows of the per-window statistic, each scaled by its own
// window's factor: drift slower than a window cancels, and a stall inside
// one window moves one vote of the median.
type recorder struct {
	ref      *refKernel
	exponent float64 // of the work the windows time
	windows  []*window
	cur      *window
	allRef   []float64
}

func (r *recorder) factor(w *window) float64 { return normFactor(w.ref, r.exponent) }

func (r *recorder) begin() {
	r.cur = &window{obs: map[string][]float64{}}
	r.windows = append(r.windows, r.cur)
}

// sampleRef takes one reference sample into the current window. The caller
// spreads a dozen or so over the window, outside every timed region: on a
// shared machine the speed flips within milliseconds, so many short samples
// estimate a window's mean speed better than a few long ones.
func (r *recorder) sampleRef() {
	v := r.ref.sample()
	r.cur.ref = append(r.cur.ref, v)
	r.allRef = append(r.allRef, v)
}

func (r *recorder) observe(series string, d time.Duration) {
	r.cur.obs[series] = append(r.cur.obs[series], ms(d))
}

// minStatSamples is the fewest samples a percentile is taken over. Windows
// holding fewer (six ingests, four chunk commits) are pooled with the
// windows that follow them until the pool is large enough; each sample is
// scaled by its own window's factor first. Sixty leaves three samples
// beyond a p95, and the few large pools it makes of a run of small windows
// lose less to the median-of-medians than many pools of twenty would.
const minStatSamples = 60

// stat is a statistic over one pool of samples.
type stat func(samples []float64) float64

func pct(p float64) stat { return func(v []float64) float64 { return percentile(v, p) } }

// pools returns the series' samples, normalised unless raw is set, window
// by window, with consecutive windows merged until each pool holds
// minStatSamples; a short tail joins the last pool.
func (r *recorder) pools(series string, raw bool) [][]float64 {
	var out [][]float64
	var cur []float64
	for _, w := range r.windows {
		f := r.factor(w)
		if raw {
			f = 1
		}
		for _, v := range w.obs[series] {
			cur = append(cur, v*f)
		}
		if len(cur) >= minStatSamples {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if len(out) == 0 {
			return [][]float64{cur}
		}
		out[len(out)-1] = append(out[len(out)-1], cur...)
	}
	return out
}

// value is the run's value for a timing metric: the median across pools
// (windows, when they are large enough) of the pool's statistic.
func (r *recorder) value(series string, st stat, raw bool) float64 {
	var per []float64
	for _, pool := range r.pools(series, raw) {
		per = append(per, st(pool))
	}
	return median(per)
}

// rate is the run's value for a throughput metric: per window, units of
// work divided by the busy time summed over the named series, then the
// median across windows. work maps a window index to its units.
func (r *recorder) rate(work func(w int) float64, raw bool, series ...string) float64 {
	var out []float64
	for i, w := range r.windows {
		busy := 0.0
		for _, s := range series {
			busy += sum(w.obs[s])
		}
		if busy <= 0 {
			continue
		}
		if !raw {
			busy *= r.factor(w)
		}
		out = append(out, work(i)/(busy/1e3))
	}
	return median(out)
}

// count is the number of samples a series holds across all windows.
func (r *recorder) count(series string) int {
	n := 0
	for _, w := range r.windows {
		n += len(w.obs[series])
	}
	return n
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) returns (the driver's yardstick).
func iqrShare(v []float64) float64 {
	n := len(v)
	m := median(v)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / m
}

package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {95, 50}, {100, 50},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := iqrShare([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare of three = %v, want %v", got, want)
	}
}

func TestNormFactor(t *testing.T) {
	if got := normFactor([]float64{refNominalMs, refNominalMs}, 1); got != 1 {
		t.Errorf("factor at nominal speed = %v, want 1", got)
	}
	if got := normFactor([]float64{2 * refNominalMs, 2 * refNominalMs}, 1); got != 0.5 {
		t.Errorf("factor at half speed = %v, want 0.5", got)
	}
	if got, want := normFactor([]float64{2 * refNominalMs}, buildExponent), math.Pow(0.5, buildExponent); got != want {
		t.Errorf("build factor at half speed = %v, want %v", got, want)
	}
	if got := normFactor(nil, 1); got != 1 {
		t.Errorf("factor without samples = %v, want 1", got)
	}
}

// synthetic fills a recorder with windows of log-normal operation times.
// slow(w, i) is the machine's slowdown during operation i of window w; it
// scales the operations and the reference samples taken beside them alike.
func synthetic(windows, ops, refs int, slow func(w, i int) float64) *recorder {
	rng := rand.New(rand.NewSource(7))
	r := &recorder{exponent: 1}
	for w := 0; w < windows; w++ {
		r.begin()
		for i := 0; i < ops; i++ {
			s := slow(w, i)
			if i%(ops/refs) == 0 {
				r.cur.ref = append(r.cur.ref, refNominalMs*s*(1+0.02*rng.NormFloat64()))
			}
			r.cur.obs["op"] = append(r.cur.obs["op"], 0.2*math.Exp(0.8*rng.NormFloat64())*s)
		}
	}
	return r
}

// A stretch during which the machine runs 30% slower - starting and ending
// inside windows - must not move the normalised run values by more than
// 3%, while it visibly moves the raw ones.
func TestSlowStretchIsNormalisedAway(t *testing.T) {
	const windows, ops, refs = 40, 1000, 10
	clean := synthetic(windows, ops, refs, func(int, int) float64 { return 1 })
	slowed := synthetic(windows, ops, refs, func(w, i int) float64 {
		if at := w*ops + i; at >= 8*ops+ops/2 && at < 32*ops+ops/2 { // 60% of the run
			return 1.3
		}
		return 1
	})
	perWindowOps := func(int) float64 { return ops }
	for _, c := range []struct {
		name string
		of   func(r *recorder, raw bool) float64
	}{
		{"p50", func(r *recorder, raw bool) float64 { return r.value("op", pct(50), raw) }},
		{"p95", func(r *recorder, raw bool) float64 { return r.value("op", pct(95), raw) }},
		{"rate", func(r *recorder, raw bool) float64 { return r.rate(perWindowOps, raw, "op") }},
	} {
		want := c.of(clean, false)
		if got := c.of(slowed, false); math.Abs(got/want-1) > 0.03 {
			t.Errorf("%s: normalised %v with the slow stretch, %v without: off by more than 3%%", c.name, got, want)
		}
		if got := c.of(slowed, true); math.Abs(got/want-1) < 0.2 {
			t.Errorf("%s: raw value %v did not move with the slow stretch (clean %v): the test exercises nothing", c.name, got, want)
		}
	}
}

func TestRefKernelIsDeterministic(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	for i := range a.table {
		if a.table[i] != b.table[i] {
			t.Fatalf("reference table differs at %d", i)
		}
	}
	a.sample()
	b.sample()
	b.sample()
	if a.sink*2 != b.sink {
		t.Errorf("reference kernel did different work on two samples: %v vs %v", a.sink, b.sink/2)
	}
}

package index

import (
	"math"
	"runtime"
	"testing"
)

// TestLnMatchesMathLog checks ln against math.Log bit for bit over the
// inputs of both idfs: every (numDocs, df) with numDocs up to 2,048, and
// every df of four larger collections. math.Log is the same algorithm,
// unfused, only on amd64 (assembly there, portable Go that the compiler
// fuses elsewhere), so it is the reference there alone.
func TestLnMatchesMathLog(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Log on %s may fuse products; ln is checked against amd64's", runtime.GOARCH)
	}
	checked, bad := 0, 0
	check := func(formula string, n, df int, x float64) {
		checked++
		if got, want := ln(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			if bad++; bad <= 10 {
				t.Errorf("%s idf, numDocs %d, df %d: ln(%v) = %v, math.Log %v", formula, n, df, x, got, want)
			}
		}
	}
	sweep := func(n int) {
		for df := 0; df <= n; df++ {
			st := termStats{df: df, numDocs: n}
			check("classic", n, df, float64(st.numDocs)/float64(st.df+1))
			check("BM25", n, df, 1+(float64(st.numDocs)-float64(st.df)+0.5)/(float64(st.df)+0.5))
		}
	}
	for n := 0; n <= 2048; n++ {
		sweep(n)
	}
	for _, n := range []int{10_000, 65_536, 100_000, 1_000_000} {
		sweep(n)
	}
	// No idf input is subnormal, where amd64's assembly skips Frexp's
	// normalization and ln does not.
	for _, x := range []float64{math.NaN(), math.Inf(1), -1, math.Copysign(0, -1), math.SmallestNonzeroFloat64 * (1 << 52), math.MaxFloat64} {
		if got, want := ln(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("ln(%v) = %v, math.Log %v", x, got, want)
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d inputs differ", bad, checked)
	}
	t.Logf("%d inputs", checked)
}

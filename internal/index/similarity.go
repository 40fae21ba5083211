package index

import "math"

// Similarity is the formula a term clause scores with, one of two kinds:
// ClassicTFIDF, Lucene's classic TF-IDF (what the paper's Lucene 2.x would
// have used, and the default), or BM25, the modern alternative for the
// ranking ablation. The set is closed: the one method is unexported, so
// these two types are its only implementations. Phrase clauses score with
// the classic idf and phraseScore under either similarity.
type Similarity interface {
	// weight binds the similarity to one term's collection statistics.
	weight(termStats) termWeight
}

// ClassicTFIDF is Lucene's classic similarity:
// sqrt(tf) · idf² · 1/sqrt(fieldLen), idf = 1 + ln(N/(df+1)).
type ClassicTFIDF struct{}

func (ClassicTFIDF) weight(st termStats) termWeight { return termWeight{idf: st.idf()} }

// BM25 is Okapi BM25 at the standard parameters bm25K1 and bm25B:
// idf · tf·(k1+1) / (tf + k1·(1 − b + b·fieldLen/avgLen)),
// idf = ln(1 + (N − df + 0.5)/(df + 0.5)), avgLen floored at one.
type BM25 struct{}

// bm25K1 is BM25's term-frequency saturation, bm25B its length
// normalization.
const bm25K1, bm25B float64 = 1.2, 0.75

func (BM25) weight(st termStats) termWeight {
	idf := math.Log(1 + (float64(st.numDocs)-float64(st.df)+0.5)/(float64(st.df)+0.5))
	return termWeight{bm25: true, idf: idf, avgLen: math.Max(st.avgLen, 1)}
}

// termWeight is a similarity bound to one term: what its formula derives
// from the collection statistics alone, computed once per term per query.
// The kernel, the exhaustive path and the score bounds all score a term
// through it. Only whole sub-expressions are precomputed; every product
// and quotient keeps the formula's association, so each score is the same
// float64 on every path.
type termWeight struct {
	bm25        bool
	idf, avgLen float64 // avgLen: BM25 only
}

// score scores a posting with freq occurrences in a field of fieldLen
// tokens.
func (w termWeight) score(freq, fieldLen int) float64 {
	if freq == 0 || fieldLen == 0 {
		return 0
	}
	if w.bm25 {
		tf := float64(freq)
		norm := 1 - bm25B + bm25B*float64(fieldLen)/w.avgLen
		return w.idf * tf * (bm25K1 + 1) / (tf + bm25K1*norm)
	}
	return math.Sqrt(float64(freq)) * w.idf * w.idf / math.Sqrt(float64(fieldLen))
}

// bound returns an upper bound on score over every posting with freq <=
// maxFreq and fieldLen >= minLen: the DAAT kernel's score cap per term and
// per posting block (see scoreBound, and DESIGN.md §10 for both
// derivations). Both formulas rise with freq and fall with fieldLen, so
// score at the best-case shape dominates every real posting over the
// reals. The bound must also hold for the computed floats, since the
// kernel prunes a block whose bound ties the threshold:
//   - classic: each input appears once and every rounded step is monotone
//     in it, so the best-case score is the bound exactly;
//   - BM25: tf sits in the numerator and the denominator, so rounding can
//     invert the order by an ulp, and Go may fuse tf + k1·norm into one
//     rounding on architectures with a fused multiply-add. The bound
//     therefore carries capSlack.
func (w termWeight) bound(maxFreq, minLen int) float64 {
	b := w.score(maxFreq, minLen)
	if w.bm25 {
		b *= capSlack
	}
	return b
}

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
// idf·(k1+1) / (1 + k1·(norm/tf)), norm = (1 − b) + (b/avgLen)·fieldLen,
// idf = ln(1 + (N − df + 0.5)/(df + 0.5)), avgLen floored at one. Over the
// reals this is the textbook idf · tf·(k1+1) / (tf + k1·norm); the
// association is the one in which each input appears once (see termWeight)
// and idf·(k1+1) and b/avgLen are whole sub-expressions, computed per term.
type BM25 struct{}

// bm25K1 is BM25's term-frequency saturation, bm25B its length
// normalization.
const bm25K1, bm25B float64 = 1.2, 0.75

func (BM25) weight(st termStats) termWeight {
	idf := ln(1 + (float64(st.numDocs)-float64(st.df)+0.5)/(float64(st.df)+0.5))
	return termWeight{bm25: true, idf: idf * (bm25K1 + 1), bPerLen: bm25B / math.Max(st.avgLen, 1)}
}

// termWeight is a similarity bound to one term: what its formula derives
// from the collection statistics alone, computed once per term per query.
// The kernel, the exhaustive path and the score bounds all score a term
// through it. Only whole sub-expressions are precomputed; every product
// and quotient keeps the formula's association, so each score is the same
// float64 on every path.
//
// In both formulas each input (freq, fieldLen) appears once, and every
// rounded step is monotone in its one varying input, so score at a
// best-case shape (freq at most, fieldLen at least) is an exact upper
// bound on every computed score it covers (see scoreBound). That needs
// every operation rounded on its own: the Go spec lets a compiler fuse
// x*y + z into one rounding, so each product that feeds a sum is wrapped
// in an explicit float64 conversion, which the spec says rounds it first.
type termWeight struct {
	bm25 bool
	// idf is the classic idf, or BM25's idf·(k1+1); bPerLen is BM25's
	// b/avgLen.
	idf, bPerLen float64
}

// score scores a posting with freq occurrences in a field of fieldLen
// tokens.
func (w termWeight) score(freq, fieldLen int) float64 {
	if freq == 0 || fieldLen == 0 {
		return 0
	}
	if w.bm25 {
		norm := (1 - bm25B) + float64(w.bPerLen*float64(fieldLen))
		return w.idf / (1 + float64(bm25K1*(norm/float64(freq))))
	}
	return math.Sqrt(float64(freq)) * w.idf * w.idf / math.Sqrt(float64(fieldLen))
}

package index

import "math"

// Similarity scores a single term's contribution to a document, the
// pluggable ranking core. The default reproduces Lucene's classic
// TF-IDF similarity (what the paper's Lucene 2.x would have used); BM25 is
// provided as the modern alternative for the ranking ablation bench.
type Similarity interface {
	// TermScore scores one term occurrence set: freq occurrences in a field
	// of fieldLen tokens, df documents containing the term out of numDocs,
	// avgLen the mean field length across documents. It is
	// Scorer(df, numDocs, avgLen).Score(freq, fieldLen), bit for bit.
	TermScore(freq, df, numDocs, fieldLen int, avgLen float64) float64
	// Scorer prepares the scoring of one term: whatever the formula derives
	// from the collection statistics alone is computed here, once per term
	// per query, and the returned TermScorer holds the per-posting rest.
	// Only whole sub-expressions may move into the preparation — a product
	// or quotient must keep the association TermScore documents, or the
	// kernel and the exhaustive oracle stop agreeing in the last bit.
	Scorer(df, numDocs int, avgLen float64) TermScorer
	// TermScoreBound returns an upper bound on TermScore over every
	// posting with freq <= maxFreq and fieldLen >= minLen, at the given
	// collection statistics: the DAAT kernel's score cap per term and per
	// posting block. TermScore must therefore be monotone nondecreasing in
	// freq and nonincreasing in fieldLen, so that the formula at the
	// best-case posting shape bounds every real posting (see DESIGN.md §10
	// for both similarities' derivations). The bound must hold for the
	// computed floats, bit for bit, not only over the reals: the kernel
	// prunes a block whose bound, times the boosts, is at or under the
	// threshold, with no margin of its own.
	TermScoreBound(maxFreq, df, numDocs, minLen int, avgLen float64) float64
}

// TermScorer is a Similarity bound to one term's collection statistics.
type TermScorer interface {
	// Score scores a posting with freq occurrences in a field of fieldLen
	// tokens.
	Score(freq, fieldLen int) float64
}

// ClassicTFIDF is Lucene's classic similarity:
// sqrt(tf) · idf² · 1/sqrt(fieldLen), idf = 1 + ln(N/(df+1)).
type ClassicTFIDF struct{}

// classicTerm is ClassicTFIDF with the term's idf computed.
type classicTerm struct{ idf float64 }

// Scorer implements Similarity: the logarithm is the per-term part.
func (s ClassicTFIDF) Scorer(df, numDocs int, _ float64) TermScorer { return s.term(df, numDocs) }

// term is the per-term value Scorer boxes; a search's arena holds it
// unboxed.
func (ClassicTFIDF) term(df, numDocs int) classicTerm {
	return classicTerm{idf: 1 + math.Log(float64(numDocs)/float64(df+1))}
}

func (t classicTerm) Score(freq, fieldLen int) float64 {
	if freq == 0 || fieldLen == 0 {
		return 0
	}
	return math.Sqrt(float64(freq)) * t.idf * t.idf / math.Sqrt(float64(fieldLen))
}

// TermScore implements Similarity.
func (s ClassicTFIDF) TermScore(freq, df, numDocs, fieldLen int, _ float64) float64 {
	return s.term(df, numDocs).Score(freq, fieldLen)
}

// TermScoreBound implements Similarity: sqrt(tf) rises with tf
// and 1/sqrt(len) falls with len, so the formula at (maxFreq, minLen)
// dominates every real posting. Each input appears once and every rounded
// step is monotone in it, so that holds for the computed floats too, and
// the bound is the best-case posting's score exactly.
func (s ClassicTFIDF) TermScoreBound(maxFreq, df, numDocs, minLen int, avgLen float64) float64 {
	return s.TermScore(maxFreq, df, numDocs, minLen, avgLen)
}

// BM25 is Okapi BM25 with the usual k1/b parameterization. Zero values get
// the standard defaults k1=1.2, b=0.75.
type BM25 struct {
	K1 float64
	B  float64
}

// bm25Term is BM25 with the defaults resolved, the term's idf computed and
// the average length floored at one.
type bm25Term struct{ idf, k1, b, avgLen float64 }

// Scorer implements Similarity.
func (s BM25) Scorer(df, numDocs int, avgLen float64) TermScorer { return s.term(df, numDocs, avgLen) }

// term is the per-term value Scorer boxes; a search's arena holds it
// unboxed.
func (s BM25) term(df, numDocs int, avgLen float64) bm25Term {
	k1, b := s.K1, s.B
	if k1 == 0 {
		k1 = 1.2
	}
	if b == 0 {
		b = 0.75
	}
	idf := math.Log(1 + (float64(numDocs)-float64(df)+0.5)/(float64(df)+0.5))
	return bm25Term{idf: idf, k1: k1, b: b, avgLen: math.Max(avgLen, 1)}
}

func (t bm25Term) Score(freq, fieldLen int) float64 {
	if freq == 0 || fieldLen == 0 {
		return 0
	}
	tf := float64(freq)
	norm := 1 - t.b + t.b*float64(fieldLen)/t.avgLen
	return t.idf * tf * (t.k1 + 1) / (tf + t.k1*norm)
}

// TermScore implements Similarity.
func (s BM25) TermScore(freq, df, numDocs, fieldLen int, avgLen float64) float64 {
	return s.term(df, numDocs, avgLen).Score(freq, fieldLen)
}

// TermScoreBound implements Similarity: tf·(k1+1)/(tf+k1·norm)
// rises with tf and falls with norm (which rises with len), so the
// formula at (maxFreq, minLen) dominates every real posting over the
// reals. Not bit for bit: tf is in the numerator and the denominator, so
// rounding can invert the order by an ulp, and Go may fuse tf+k1·norm
// into one rounding on architectures with a fused multiply-add. The bound
// therefore carries capSlack.
func (s BM25) TermScoreBound(maxFreq, df, numDocs, minLen int, avgLen float64) float64 {
	return s.TermScore(maxFreq, df, numDocs, minLen, avgLen) * capSlack
}

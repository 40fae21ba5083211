package index

// Mapped DAAT scorers: the zero-copy counterparts of termScorer and
// phraseScorer (scorer.go). The contract is the heap contract verbatim —
// identical hit sets, byte-identical scores, identical tie order versus
// the exhaustive path — so every score is computed with exactly the same
// floating-point expression in exactly the same order; only where the
// postings come from differs.
//
// What changes is the cost model. The heap scorer owns a materialized
// []Posting; block skipping saves score computations but the bytes were
// already decoded. Here a scorer owns a BlockReader and the TOC's
// per-block (offset, lastDoc) table:
//
//   - skipBeatenBlocks compares the collector threshold against a bound
//     computed from the block's ~20-byte max-impact header read straight
//     from the mapped region — a beaten block's posting bytes are never
//     decoded at all;
//   - maxScoreUpTo answers from the in-RAM block boundaries and the same
//     header reads, decoding nothing (the shallow probe tracks a block
//     index, not a posting index — the bound and boundary only depend on
//     the block, and the block of the heap path's probe index is exactly
//     the first block at or after the cursor whose last docID reaches the
//     target, which the boundary table yields directly);
//   - advance binary searches the boundary table first and decodes at
//     most the one block the target lands in.

import (
	"math"
	"sort"
)

// mappedTermScorer mirrors termScorer over a mapped term.
type mappedTermScorer struct {
	ix    *Index
	f     *mappedField
	t     *mappedTerm
	cur   *BlockReader
	st    termStats
	ts    TermScorer
	boost float64
	i     int
	cap   float64

	// shallowBlk is the maxScoreUpTo probe's block (monotone; numBlocks()
	// once exhausted); th and the bound memo mirror termScorer.
	shallowBlk  int
	th          float64
	cachedBlock int
	cachedBound float64
}

func newMappedTermScorer(ix *Index, f *mappedField, field, term string, queryBoost float64) scorer {
	mt := f.terms[term]
	if mt == nil {
		return emptyScorer{}
	}
	st := ix.termStats(field, term)
	return &mappedTermScorer{
		ix: ix, f: f, t: mt,
		cur: newBlockReader(f, mt, false),
		st:  st, ts: st.scorer(ix.sim),
		boost:       queryBoost,
		i:           -1,
		cap:         ix.scoreBound(mt.cap, st, queryBoost),
		cachedBlock: -1,
	}
}

func (s *mappedTermScorer) doc() int {
	if s.i >= s.t.n {
		return noMoreDocs
	}
	return s.cur.docAt(s.i)
}

func (s *mappedTermScorer) next() int {
	s.i++
	if s.th > 0 {
		s.skipBeatenBlocks()
	}
	return s.doc()
}

func (s *mappedTermScorer) setThreshold(th float64) { s.th = th }

// skipBeatenBlocks mirrors termScorer.skipBeatenBlocks; here a skipped
// block's postings are never read from disk, only its header.
func (s *mappedTermScorer) skipBeatenBlocks() {
	n := s.t.n
	for s.i < n {
		if !s.t.multi {
			if s.cap <= s.th {
				s.i = n
			}
			return
		}
		b := s.i / postingBlockSize
		if s.blockBound(b) > s.th {
			return
		}
		s.i = (b + 1) * postingBlockSize
	}
}

// blockBound is termScorer.blockBound over the header read from the
// mapped region. The header holds the exact per-block values the encoder
// computed — the identical numbers the heap decode path carries in
// termEntry.blocks — so pruning decisions match.
func (s *mappedTermScorer) blockBound(b int) float64 {
	if b != s.cachedBlock {
		s.cachedBlock, s.cachedBound = b, s.ix.scoreBound(s.f.blockCap(s.t, b), s.st, s.boost)
	}
	return s.cachedBound
}

// probeBlock advances blk to the first block at or after it whose last
// docID reaches target, using only the in-RAM boundary table.
func (t *mappedTerm) probeBlock(blk, target int) int {
	nb := t.numBlocks()
	if blk >= nb || int(t.lastDocs[blk]) >= target {
		return blk
	}
	blk++
	return blk + sort.Search(nb-blk, func(k int) bool { return int(t.lastDocs[blk+k]) >= target })
}

// shallowProbe moves a maxScoreUpTo probe standing on block blk, for a
// cursor at posting i, to the block holding the first posting at or after
// target; numBlocks() when there is none.
func (t *mappedTerm) shallowProbe(blk, i, target int) int {
	if i >= t.n {
		return t.numBlocks()
	}
	if i > 0 {
		blk = max(blk, i/postingBlockSize)
	}
	return t.probeBlock(blk, target)
}

func (s *mappedTermScorer) maxScoreUpTo(target int) (float64, int) {
	b := s.t.shallowProbe(s.shallowBlk, s.i, target)
	s.shallowBlk = b
	if b >= s.t.numBlocks() {
		return 0, noMoreDocs
	}
	if !s.t.multi {
		return s.cap, int(s.t.lastDocs[0])
	}
	return s.blockBound(b), int(s.t.lastDocs[b])
}

// firstAtLeast returns the index of the first posting at or after base
// whose docID reaches target (t.n when none), decoding at most one block.
func firstAtLeast(cur *BlockReader, t *mappedTerm, base, target int) int {
	if base >= t.n {
		return t.n
	}
	b := t.probeBlock(base/postingBlockSize, target)
	if b >= t.numBlocks() || !cur.load(b) {
		return t.n
	}
	lo := 0
	if b == base/postingBlockSize {
		lo = base - b*postingBlockSize
	}
	j := lo + sort.Search(len(cur.docs)-lo, func(k int) bool { return cur.docs[lo+k] >= int32(target) })
	if j >= len(cur.docs) {
		// Only reachable when the TOC boundary and the payload disagree
		// (excluded by the envelope CRC); fail closed as exhausted.
		return t.n
	}
	return b*postingBlockSize + j
}

func (s *mappedTermScorer) advance(target int) int {
	if s.i >= 0 && s.i < s.t.n {
		if d := s.cur.docAt(s.i); d >= target {
			return d
		}
	}
	s.i = firstAtLeast(s.cur, s.t, s.i+1, target)
	return s.doc()
}

func (s *mappedTermScorer) score() float64 {
	d := s.cur.docAt(s.i)
	freq, pboost := s.cur.at(s.i)
	return s.ts.Score(freq, s.f.lengthOf(d)) * pboost * s.boost
}

func (s *mappedTermScorer) maxScore() float64 { return s.cap }

// mappedPhraseScorer mirrors phraseScorer: the first term's reader
// generates candidates (with positions), and each later term keeps its
// own positional reader so verification decodes at most one block per
// probe — candidates arrive in ascending docID order, so those reads are
// nearly sequential.
type mappedPhraseScorer struct {
	f      *mappedField
	t0     *mappedTerm
	first  *BlockReader
	probes []*BlockReader
	follow [][]int
	idfSum float64
	boost  float64
	i      int
	freq   int
	cap    float64

	whole       termCap
	shallowBlk  int
	cachedBlock int
	cachedBound float64
}

func newMappedPhraseScorer(ix *Index, f *mappedField, field string, terms []string, boost float64) scorer {
	mts := make([]*mappedTerm, len(terms))
	for i, t := range terms {
		if mts[i] = f.terms[t]; mts[i] == nil {
			return emptyScorer{}
		}
	}
	t0 := mts[0]
	s := &mappedPhraseScorer{
		f: f, t0: t0, first: newBlockReader(f, t0, true),
		probes: make([]*BlockReader, len(terms)-1), follow: make([][]int, len(terms)-1),
		boost: boost, i: -1, cachedBlock: -1,
		whole: termCap{maxFreq: math.MaxInt, minLen: 1, maxBoost: t0.cap.maxBoost},
	}
	for i, mt := range mts {
		s.idfSum += ix.IDF(field, terms[i])
		s.whole.maxFreq = min(s.whole.maxFreq, mt.cap.maxFreq)
		s.whole.minLen = max(s.whole.minLen, mt.cap.minLen)
		if i > 0 {
			s.probes[i-1] = newBlockReader(f, mt, true)
		}
	}
	s.cap = phraseBound(s.whole, s.idfSum, boost)
	return s
}

func (s *mappedPhraseScorer) maxScoreUpTo(target int) (float64, int) {
	b := s.t0.shallowProbe(s.shallowBlk, s.i, target)
	s.shallowBlk = b
	if b >= s.t0.numBlocks() {
		return 0, noMoreDocs
	}
	if !s.t0.multi {
		return s.cap, int(s.t0.lastDocs[0])
	}
	if b != s.cachedBlock {
		s.cachedBlock = b
		s.cachedBound = phraseBound(s.whole.tighten(s.f.blockCap(s.t0, b)), s.idfSum, s.boost)
	}
	return s.cachedBound, int(s.t0.lastDocs[b])
}

func (s *mappedPhraseScorer) next() int {
	for s.i++; s.i < s.t0.n; s.i++ {
		if s.computeFreq() {
			return s.first.docAt(s.i)
		}
	}
	return noMoreDocs
}

func (s *mappedPhraseScorer) advance(target int) int {
	if s.i >= 0 && s.i < s.t0.n {
		if d := s.first.docAt(s.i); d >= target {
			return d
		}
	}
	// Position just before the first candidate >= target; next() verifies
	// the phrase positionally from there (the heap shape exactly).
	s.i = firstAtLeast(s.first, s.t0, s.i+1, target) - 1
	return s.next()
}

// computeFreq mirrors phraseScorer.computeFreq at the current candidate.
func (s *mappedPhraseScorer) computeFreq() bool {
	s.freq = 0
	d := s.first.docAt(s.i)
	if d == noMoreDocs {
		return false
	}
	for k, r := range s.probes {
		idx, ok := r.findDoc(d)
		if !ok {
			return false
		}
		s.follow[k] = r.positionsAt(idx)
	}
	s.freq = phraseFreq(s.first.positionsAt(s.i), s.follow)
	return s.freq > 0
}

func (s *mappedPhraseScorer) score() float64 {
	d := s.first.docAt(s.i)
	_, p0boost := s.first.at(s.i)
	tf := math.Sqrt(float64(s.freq))
	return tf * s.idfSum * p0boost * s.f.norm(d) * s.boost
}

func (s *mappedPhraseScorer) maxScore() float64 { return s.cap }

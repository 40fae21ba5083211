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
	df    int
	nDocs int
	avg   float64
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
	return &mappedTermScorer{
		ix: ix, f: f, t: mt,
		cur:         newBlockReader(f, mt, false),
		df:          ix.scoringDocFreq(field, term),
		nDocs:       ix.scoringNumDocs(),
		avg:         ix.scoringAvgLen(field),
		boost:       queryBoost,
		i:           -1,
		cap:         ix.termUpperBound(field, term, queryBoost),
		cachedBlock: -1,
	}
}

func (s *mappedTermScorer) doc() int {
	if s.i < 0 {
		return -1
	}
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

// blockBound evaluates the same expression as termScorer.blockBound over
// the header read from the mapped region. The header holds the exact
// per-block values the encoder computed — the identical numbers the heap
// decode path carries in termEntry.blocks — so pruning decisions match.
func (s *mappedTermScorer) blockBound(b int) float64 {
	if b == s.cachedBlock {
		return s.cachedBound
	}
	bound := math.Inf(1)
	blk := s.f.blockCap(s.t, b)
	if ubs, ok := s.ix.sim.(UpperBoundSimilarity); ok && blk.maxBoost >= 0 && s.boost >= 0 {
		bound = ubs.TermScoreBound(blk.maxFreq, s.df, s.nDocs, blk.minLen, s.avg) *
			blk.maxBoost * s.boost * capSlack
	}
	s.cachedBlock, s.cachedBound = b, bound
	return bound
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

func (s *mappedTermScorer) maxScoreUpTo(target int) (float64, int) {
	b := s.shallowBlk
	if s.i > 0 {
		if ib := s.i / postingBlockSize; ib > b {
			b = ib
		}
	}
	if s.i >= s.t.n {
		return 0, noMoreDocs
	}
	b = s.t.probeBlock(b, target)
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
	base := s.i + 1
	if base < 0 {
		base = 0
	}
	s.i = firstAtLeast(s.cur, s.t, base, target)
	return s.doc()
}

func (s *mappedTermScorer) score() float64 {
	d := s.cur.docAt(s.i)
	freq, pboost := s.cur.at(s.i)
	base := s.ix.sim.TermScore(freq, s.df, s.nDocs, s.f.lengthOf(d), s.avg)
	return base * pboost * s.boost
}

func (s *mappedTermScorer) maxScore() float64 { return s.cap }

// mappedPhraseScorer mirrors phraseScorer: the first term's reader
// generates candidates (with positions), and each later term keeps its
// own positional reader so verification decodes at most one block per
// probe — candidates arrive in ascending docID order, so those reads are
// nearly sequential.
type mappedPhraseScorer struct {
	ix     *Index
	f      *mappedField
	field  string
	t0     *mappedTerm
	first  *BlockReader
	probes []*BlockReader
	idfSum float64
	boost  float64
	i      int
	freq   int
	cap    float64

	minMaxFreq  int
	maxMinLen   int
	shallowBlk  int
	cachedBlock int
	cachedBound float64
	cachedCap   termCap
}

func newMappedPhraseScorer(ix *Index, f *mappedField, field string, terms []string, boost float64) scorer {
	for _, t := range terms {
		if f.terms[t] == nil {
			return emptyScorer{}
		}
	}
	idfSum := 0.0
	for _, t := range terms {
		idfSum += ix.IDF(field, t)
	}
	t0 := f.terms[terms[0]]
	s := &mappedPhraseScorer{
		ix: ix, f: f, field: field, t0: t0,
		first:  newBlockReader(f, t0, true),
		idfSum: idfSum, boost: boost, i: -1,
		cachedBlock: -1,
	}
	for _, t := range terms[1:] {
		s.probes = append(s.probes, newBlockReader(f, f.terms[t], true))
	}
	s.minMaxFreq, s.maxMinLen = math.MaxInt, 1
	for _, t := range terms {
		c := f.terms[t].cap
		if c.maxFreq < s.minMaxFreq {
			s.minMaxFreq = c.maxFreq
		}
		if c.minLen > s.maxMinLen {
			s.maxMinLen = c.minLen
		}
	}
	if maxBoost := t0.cap.maxBoost; maxBoost < 0 || boost < 0 {
		s.cap = math.Inf(1)
	} else {
		s.cap = math.Sqrt(float64(s.minMaxFreq)) * idfSum * maxBoost /
			math.Sqrt(float64(s.maxMinLen)) * boost * capSlack
	}
	return s
}

func (s *mappedPhraseScorer) maxScoreUpTo(target int) (float64, int) {
	b := s.shallowBlk
	if s.i > 0 {
		if ib := s.i / postingBlockSize; ib > b {
			b = ib
		}
	}
	if s.i >= s.t0.n {
		return 0, noMoreDocs
	}
	b = s.t0.probeBlock(b, target)
	s.shallowBlk = b
	nb := s.t0.numBlocks()
	if b >= nb {
		return 0, noMoreDocs
	}
	if !s.t0.multi {
		return s.cap, int(s.t0.lastDocs[0])
	}
	boundary := int(s.t0.lastDocs[b])
	if b != s.cachedBlock {
		s.cachedBlock, s.cachedCap = b, s.f.blockCap(s.t0, b)
	}
	blk := s.cachedCap
	if blk.maxBoost < 0 || s.boost < 0 {
		return s.cap, boundary
	}
	mf := s.minMaxFreq
	if blk.maxFreq < mf {
		mf = blk.maxFreq
	}
	ml := s.maxMinLen
	if blk.minLen > ml {
		ml = blk.minLen
	}
	bound := math.Sqrt(float64(mf)) * s.idfSum * blk.maxBoost /
		math.Sqrt(float64(ml)) * s.boost * capSlack
	return bound, boundary
}

func (s *mappedPhraseScorer) doc() int {
	if s.i < 0 {
		return -1
	}
	if s.i >= s.t0.n {
		return noMoreDocs
	}
	return s.first.docAt(s.i)
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
	base := s.i + 1
	if base < 0 {
		base = 0
	}
	// Position just before the first candidate >= target; next() verifies
	// the phrase positionally from there (the heap shape exactly).
	s.i = firstAtLeast(s.first, s.t0, base, target) - 1
	return s.next()
}

// computeFreq mirrors phraseScorer.computeFreq at the current candidate.
func (s *mappedPhraseScorer) computeFreq() bool {
	d := s.first.docAt(s.i)
	if d == noMoreDocs {
		s.freq = 0
		return false
	}
	freq := 0
	for _, start := range s.first.positionsAt(s.i) {
		if s.phraseAt(d, start) {
			freq++
		}
	}
	s.freq = freq
	return freq > 0
}

// phraseAt verifies terms[1:] at consecutive positions in doc d.
func (s *mappedPhraseScorer) phraseAt(d, start int) bool {
	for k, r := range s.probes {
		idx, ok := r.findDoc(d)
		if !ok {
			return false
		}
		pl := r.positionsAt(idx)
		pos := start + k + 1
		j := searchInts(pl, pos)
		if j >= len(pl) || pl[j] != pos {
			return false
		}
	}
	return true
}

func (s *mappedPhraseScorer) score() float64 {
	d := s.first.docAt(s.i)
	_, p0boost := s.first.at(s.i)
	tf := math.Sqrt(float64(s.freq))
	return tf * s.idfSum * p0boost * s.ix.fieldNorm(s.field, d) * s.boost
}

func (s *mappedPhraseScorer) maxScore() float64 { return s.cap }

package index

// Mapped DAAT scorers: the zero-copy counterparts of termScorer and
// phraseScorer (scorer.go). The contract is the heap contract verbatim —
// identical hit sets, byte-identical scores, identical tie order versus
// the exhaustive path — so every score is computed with exactly the same
// floating-point expression in exactly the same order; only where the
// postings come from differs.
//
// What changes is the cost model. The heap scorer walks a term's decoded
// columns; block skipping saves score computations but the bytes were
// already decoded. Here a scorer embeds a blockCursor and reads the TOC's
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
//   - next and advance decode the docID section of the block they land in,
//     advance after searching the boundary table for it; score decodes the
//     block's frequency and boost section the first time a document in it
//     is scored, and the phrase scorer's position reads decode position
//     lists only as far into the block as its candidates reach.
//
// A scorer records the docID it stands on where it moves (next, advance),
// the rule scorer.go's compound scorers follow one level down: advance's
// early-out and score read it back instead of asking the cursor again.

import "math"

// mappedTermScorer mirrors termScorer over a mapped term.
type mappedTermScorer struct {
	ix    *Index
	cur   blockCursor
	st    termStats
	ts    TermScorer
	boost float64
	// i is the cursor's posting index (t.n once exhausted) and d the docID
	// there: -1 before the first document, noMoreDocs after the last.
	i, d int
	cap  float64

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
		ix:  ix,
		cur: newBlockCursor(f, mt, false),
		st:  st, ts: st.scorer(ix.sim),
		boost:       queryBoost,
		i:           -1,
		d:           -1,
		cap:         ix.scoreBound(mt.cap, st, queryBoost),
		cachedBlock: -1,
	}
}

// land records where the cursor stands after a move to posting index i. A
// cursor that cannot produce the posting (past the end, or spoiled) is
// exhausted.
func (s *mappedTermScorer) land(i, d int) int {
	if d == noMoreDocs {
		i = s.cur.t.n
	}
	s.i, s.d = i, d
	return d
}

func (s *mappedTermScorer) next() int {
	s.i++
	if s.th > 0 {
		s.skipBeatenBlocks()
	}
	return s.land(s.i, s.cur.docAt(s.i))
}

func (s *mappedTermScorer) setThreshold(th float64) { s.th = th }

// skipBeatenBlocks mirrors termScorer.skipBeatenBlocks; here a skipped
// block's postings are never read from disk, only its header.
func (s *mappedTermScorer) skipBeatenBlocks() {
	t := s.cur.t
	for s.i < t.n {
		if !t.multi {
			if s.cap <= s.th {
				s.i = t.n
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
		s.cachedBlock, s.cachedBound = b, s.ix.scoreBound(s.cur.f.blockCap(s.cur.t, b), s.st, s.boost)
	}
	return s.cachedBound
}

// probeBlock advances blk to the first block at or after it whose last
// docID reaches target (numBlocks() when none does), using only the in-RAM
// boundary table.
func (t *mappedTerm) probeBlock(blk, target int) int {
	if blk >= t.numBlocks() || int(t.lastDocs[blk]) >= target {
		return blk
	}
	return blk + 1 + searchInt32(t.lastDocs[blk+1:], target)
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
	t := s.cur.t
	b := t.shallowProbe(s.shallowBlk, s.i, target)
	s.shallowBlk = b
	if b >= t.numBlocks() {
		return 0, noMoreDocs
	}
	if !t.multi {
		return s.cap, int(t.lastDocs[0])
	}
	return s.blockBound(b), int(t.lastDocs[b])
}

func (s *mappedTermScorer) advance(target int) int {
	if s.d >= target {
		return s.d
	}
	return s.land(s.cur.seek(s.i+1, target))
}

func (s *mappedTermScorer) score() float64 {
	freq, pboost := s.cur.at(s.i)
	return s.ts.Score(freq, s.cur.f.lengthOf(s.d)) * pboost * s.boost
}

func (s *mappedTermScorer) maxScore() float64 { return s.cap }

// mappedPhraseScorer mirrors phraseScorer: the first term's cursor
// generates candidates, and each later term keeps its own positional
// cursor so verification decodes at most one block's docIDs per probe —
// candidates arrive in ascending docID order, so those reads are nearly
// sequential — and positions only for candidates every term contains.
type mappedPhraseScorer struct {
	first  blockCursor
	probes []blockCursor
	follow [][]int32
	idfSum float64
	boost  float64
	// i is the first term's posting index and d the docID of the phrase
	// match there, as in mappedTermScorer.
	i, d int
	freq int
	cap  float64

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
		first:  newBlockCursor(f, t0, true),
		probes: make([]blockCursor, len(terms)-1), follow: make([][]int32, len(terms)-1),
		boost: boost, i: -1, d: -1, cachedBlock: -1,
		whole: termCap{maxFreq: math.MaxInt, minLen: 1, maxBoost: t0.cap.maxBoost},
	}
	for i, mt := range mts {
		s.idfSum += ix.IDF(field, terms[i])
		s.whole.maxFreq = min(s.whole.maxFreq, mt.cap.maxFreq)
		s.whole.minLen = max(s.whole.minLen, mt.cap.minLen)
		if i > 0 {
			s.probes[i-1] = newBlockCursor(f, mt, true)
		}
	}
	s.cap = phraseBound(s.whole, s.idfSum, boost)
	return s
}

func (s *mappedPhraseScorer) maxScoreUpTo(target int) (float64, int) {
	t0 := s.first.t
	b := t0.shallowProbe(s.shallowBlk, s.i, target)
	s.shallowBlk = b
	if b >= t0.numBlocks() {
		return 0, noMoreDocs
	}
	if !t0.multi {
		return s.cap, int(t0.lastDocs[0])
	}
	if b != s.cachedBlock {
		s.cachedBlock = b
		s.cachedBound = phraseBound(s.whole.tighten(s.first.f.blockCap(t0, b)), s.idfSum, s.boost)
	}
	return s.cachedBound, int(t0.lastDocs[b])
}

func (s *mappedPhraseScorer) next() int {
	n := s.first.t.n
	for s.i++; s.i < n; s.i++ {
		d := s.first.docAt(s.i)
		if d == noMoreDocs {
			break // spoiled: the list ends here
		}
		if s.computeFreq(d) {
			s.d = d
			return d
		}
	}
	s.i, s.d = n, noMoreDocs
	return noMoreDocs
}

func (s *mappedPhraseScorer) advance(target int) int {
	if s.d >= target {
		return s.d
	}
	// Position just before the first candidate >= target; next() verifies
	// the phrase positionally from there (the heap shape exactly).
	i, _ := s.first.seek(s.i+1, target)
	s.i = i - 1
	return s.next()
}

// computeFreq mirrors phraseScorer.computeFreq at the current candidate,
// the first term's posting s.i on document d.
func (s *mappedPhraseScorer) computeFreq(d int) bool {
	s.freq = 0
	for k := range s.probes {
		r := &s.probes[k]
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
	_, p0boost := s.first.at(s.i)
	tf := math.Sqrt(float64(s.freq))
	return tf * s.idfSum * p0boost * s.first.f.norm(s.d) * s.boost
}

func (s *mappedPhraseScorer) maxScore() float64 { return s.cap }

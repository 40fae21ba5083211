package index

import (
	"math"
	"sort"
)

// Document-at-a-time (DAAT) evaluation. The seed-era kernel scored
// term-at-a-time: every clause materialized a map[int]float64 over all its
// matching documents and BooleanQuery merged the maps — allocation-heavy
// and oblivious to the caller's limit. This kernel walks the already
// docID-sorted posting lists in lockstep instead: a scorer is a cursor
// over one clause's matching documents, compound scorers align their
// children on the same docID, and the top-k collector's rising threshold
// feeds MaxScore pruning (Turtle & Flood) that stops evaluating documents
// which provably cannot enter the top k.
//
// The contract with the exhaustive path is strict: identical hit sets,
// byte-identical scores, identical tie order. Scores are therefore
// computed with exactly the same expressions, in exactly the same
// floating-point order (musts before shoulds, clause order within each),
// as the map-accumulator path in search.go.

// noMoreDocs is the docID sentinel every exhausted scorer reports.
const noMoreDocs = math.MaxInt

// capSlack inflates score upper bounds by a hair. The bounds are derived
// from monotonicity of TermScore in freq and fieldLen, which holds
// exactly over the reals; the slack keeps a last-ulp rounding inversion
// from ever producing a bound below an achievable score, so pruning can
// never drop a true top-k document.
const capSlack = 1 + 1e-9

// scorer is a cursor over one query clause's matching documents in
// ascending docID order. A fresh scorer is positioned before the first
// document (doc() == -1); next and advance move it forward only.
type scorer interface {
	// doc returns the current docID: -1 before iteration, noMoreDocs
	// after exhaustion.
	doc() int
	// next advances to the next matching document and returns its docID
	// (noMoreDocs when exhausted).
	next() int
	// advance moves to the first matching document with docID >= target
	// (staying put if already there) and returns its docID.
	advance(target int) int
	// score returns the current document's score. Only valid while
	// positioned on a document.
	score() float64
	// maxScore returns an upper bound on score() over every remaining
	// document (+Inf when no bound is available).
	maxScore() float64
}

// prunable is implemented by scorers that can exploit the collector's
// rising top-k threshold. Only the root scorer of a search receives
// thresholds: compound scorers must report exact sums when probed by a
// parent, so pruning is a root-only privilege.
type prunable interface {
	// setThreshold promises that only documents scoring strictly above th
	// will be collected; the scorer may skip any document it can prove at
	// or below the bar. Thresholds only rise.
	setThreshold(th float64)
}

// blockMaxScorer is implemented by scorers that can bound their score
// over a bounded docID window — the Block-Max WAND contract (Ding &
// Suel). Where maxScore bounds the whole remaining tail, maxScoreUpTo
// reads the per-block metadata the codec wrote at encode time, so a
// compound parent can prove "nothing in this window can win" and jump
// its children past the window boundary in one advance.
type blockMaxScorer interface {
	scorer
	// maxScoreUpTo returns an upper bound on score() for every matching
	// document in [target, boundary], together with that boundary (the
	// last docID the bound is known to cover; no document of this scorer
	// lies in (boundary, next block)). An exhausted scorer returns
	// (0, noMoreDocs). It is a shallow probe: the document cursor does
	// not move. Targets must not decrease across calls.
	maxScoreUpTo(target int) (bound float64, boundary int)
}

// ceilingTo is maxScoreUpTo with a graceful fallback: scorers without
// block metadata answer with their whole-tail bound and an unbounded
// window, which keeps compound bounds valid — just windowless.
func ceilingTo(s scorer, target int) (float64, int) {
	if bm, ok := s.(blockMaxScorer); ok {
		return bm.maxScoreUpTo(target)
	}
	if s.doc() == noMoreDocs {
		return 0, noMoreDocs
	}
	return s.maxScore(), noMoreDocs
}

// emptyScorer matches nothing: the scorer of an impossible clause.
type emptyScorer struct{}

func (emptyScorer) doc() int          { return noMoreDocs }
func (emptyScorer) next() int         { return noMoreDocs }
func (emptyScorer) advance(int) int   { return noMoreDocs }
func (emptyScorer) score() float64    { return 0 }
func (emptyScorer) maxScore() float64 { return 0 }

// termScorer walks one term's posting list, scoring with the index's
// similarity exactly like TermQuery.scores.
type termScorer struct {
	ix *Index
	// docLen is the field's length table; every posting's document is in it.
	docLen []int32
	pl     []Posting
	df     int
	nDocs  int
	avg    float64
	boost  float64
	i      int
	cap    float64

	// Block-Max state. blocks is the term's per-block metadata (nil for
	// single-block terms, whose only block bound is cap); shallow is the
	// maxScoreUpTo probe position, always >= i and monotone because
	// targets only rise; th is the collector threshold (root-only, see
	// setThreshold); cachedBlock/cachedBound memoize the last block bound
	// evaluation — the similarity math runs once per block, not once per
	// probe.
	blocks      []termCap
	shallow     int
	th          float64
	cachedBlock int
	cachedBound float64
}

// newTermScorer builds the cursor for one analyzed term. The term must be
// in index form; queryBoost is the resolved (zero-defaulted) clause boost.
func newTermScorer(ix *Index, field, term string, queryBoost float64) scorer {
	fi := ix.fields[field]
	if fi == nil {
		return emptyScorer{}
	}
	if fi.m != nil {
		return newMappedTermScorer(ix, fi.m, field, term, queryBoost)
	}
	te := fi.terms[term]
	if te == nil {
		return emptyScorer{}
	}
	return &termScorer{
		ix: ix, docLen: fi.docLen, pl: te.postings,
		df:          ix.scoringDocFreq(field, term),
		nDocs:       ix.scoringNumDocs(),
		avg:         ix.scoringAvgLen(field),
		boost:       queryBoost,
		i:           -1,
		cap:         ix.termUpperBound(field, term, queryBoost),
		blocks:      te.blocks,
		cachedBlock: -1,
	}
}

func (s *termScorer) doc() int {
	if s.i < 0 {
		return -1
	}
	if s.i >= len(s.pl) {
		return noMoreDocs
	}
	return s.pl[s.i].DocID
}

func (s *termScorer) next() int {
	s.i++
	if s.th > 0 {
		s.skipBeatenBlocks()
	}
	return s.doc()
}

// setThreshold implements prunable. As the root scorer of a plain term
// query the cursor hops whole blocks whose bound cannot beat the
// collector threshold; children never receive thresholds (a parent needs
// every hit to sum exact clause scores), so th stays 0 there and next()
// surfaces every posting.
func (s *termScorer) setThreshold(th float64) { s.th = th }

// skipBeatenBlocks moves the cursor forward over whole blocks proven
// unable to produce a score above th. Documents skipped here score at or
// below the collector threshold and would never be collected, so the
// pruned ranking stays byte-identical to the exhaustive one.
func (s *termScorer) skipBeatenBlocks() {
	n := len(s.pl)
	for s.i < n {
		if s.blocks == nil {
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

// blockBound is the per-block analogue of Index.termUpperBound: the
// similarity evaluated at the block's best-case posting shape. +Inf
// (never prune) when the similarity cannot provide bounds or a negative
// boost flips the best case into a worst case.
func (s *termScorer) blockBound(b int) float64 {
	if b == s.cachedBlock {
		return s.cachedBound
	}
	bound := math.Inf(1)
	blk := s.blocks[b]
	if ubs, ok := s.ix.sim.(UpperBoundSimilarity); ok && blk.maxBoost >= 0 && s.boost >= 0 {
		bound = ubs.TermScoreBound(blk.maxFreq, s.df, s.nDocs, blk.minLen, s.avg) *
			blk.maxBoost * s.boost * capSlack
	}
	s.cachedBlock, s.cachedBound = b, bound
	return bound
}

// maxScoreUpTo implements blockMaxScorer over the codec's per-block
// metadata: the bound for the window [target, boundary] is the bound of
// the single block holding every posting in that window.
func (s *termScorer) maxScoreUpTo(target int) (float64, int) {
	n := len(s.pl)
	j := s.shallow
	if j < s.i {
		j = s.i
	}
	if j < 0 {
		j = 0
	}
	if j < n && s.pl[j].DocID < target {
		// Same probe shape as advance: short linear scan, then binary
		// search for real jumps.
		for k := 0; k < 4 && j < n && s.pl[j].DocID < target; k++ {
			j++
		}
		if j < n && s.pl[j].DocID < target {
			j += sort.Search(n-j, func(k int) bool { return s.pl[j+k].DocID >= target })
		}
	}
	s.shallow = j
	if j >= n {
		return 0, noMoreDocs
	}
	if s.blocks == nil {
		return s.cap, s.pl[n-1].DocID
	}
	b := j / postingBlockSize
	e := (b + 1) * postingBlockSize
	if e > n {
		e = n
	}
	return s.blockBound(b), s.pl[e-1].DocID
}

func (s *termScorer) advance(target int) int {
	if s.i >= 0 && s.i < len(s.pl) && s.pl[s.i].DocID >= target {
		return s.pl[s.i].DocID
	}
	base := s.i + 1
	if base < 0 {
		base = 0
	}
	// A short linear probe catches the common advance-by-little case;
	// binary search handles real jumps.
	n := len(s.pl)
	for k := 0; k < 4 && base < n; k++ {
		if s.pl[base].DocID >= target {
			s.i = base
			return s.pl[base].DocID
		}
		base++
	}
	s.i = base + sort.Search(n-base, func(k int) bool { return s.pl[base+k].DocID >= target })
	return s.doc()
}

func (s *termScorer) score() float64 {
	p := &s.pl[s.i]
	base := s.ix.sim.TermScore(p.Freq(), s.df, s.nDocs, int(s.docLen[p.DocID]), s.avg)
	return base * p.Boost * s.boost
}

func (s *termScorer) maxScore() float64 { return s.cap }

// phraseScorer walks the first term's posting list and verifies the full
// phrase positionally per document, scoring exactly like
// PhraseQuery.scores.
type phraseScorer struct {
	ix     *Index
	field  string
	terms  []string
	first  []Posting
	idfSum float64
	boost  float64
	i      int
	freq   int
	cap    float64

	// Block-Max state over the first term's posting list (the candidate
	// generator): its per-block metadata, the whole-phrase freq/length
	// extremes the cap was derived from (kept so maxScoreUpTo can tighten
	// them per block), and the shallow probe position.
	blocks     []termCap
	minMaxFreq int
	maxMinLen  int
	shallow    int
}

// newPhraseScorer builds the cursor for already-analyzed phrase terms.
func newPhraseScorer(ix *Index, field string, terms []string, boost float64) scorer {
	fi := ix.fields[field]
	if fi == nil {
		return emptyScorer{}
	}
	if fi.m != nil {
		return newMappedPhraseScorer(ix, fi.m, field, terms, boost)
	}
	// Any term absent from the field makes the phrase unmatchable. Bound:
	// phrase freq cannot exceed any member term's max freq, a matching doc
	// is at least as long as every member term's shortest doc, and the
	// scored boost is the first term's posting boost.
	minMaxFreq, maxMinLen := math.MaxInt, 1
	for _, t := range terms {
		te := fi.terms[t]
		if te == nil {
			return emptyScorer{}
		}
		minMaxFreq = min(minMaxFreq, te.cap.maxFreq)
		maxMinLen = max(maxMinLen, te.cap.minLen)
	}
	idfSum := 0.0
	for _, t := range terms {
		idfSum += ix.IDF(field, t)
	}
	first := fi.terms[terms[0]]
	s := &phraseScorer{
		ix: ix, field: field, terms: terms,
		first:  first.postings,
		idfSum: idfSum, boost: boost, i: -1,
		blocks:     first.blocks,
		minMaxFreq: minMaxFreq, maxMinLen: maxMinLen,
	}
	if maxBoost := first.cap.maxBoost; maxBoost < 0 || boost < 0 {
		// Negative boosts turn the best-case evaluation into a lower bound;
		// disable pruning for this clause instead.
		s.cap = math.Inf(1)
	} else {
		s.cap = math.Sqrt(float64(s.minMaxFreq)) * idfSum * maxBoost /
			math.Sqrt(float64(s.maxMinLen)) * boost * capSlack
	}
	return s
}

// maxScoreUpTo implements blockMaxScorer. A phrase match needs a first-
// term posting, so the window is the first term's current block and the
// whole-phrase bound tightens with that block's metadata: block maxFreq
// caps the phrase frequency and block minLen floors the matching
// document's length.
func (s *phraseScorer) maxScoreUpTo(target int) (float64, int) {
	n := len(s.first)
	j := s.shallow
	if j < s.i {
		j = s.i
	}
	if j < 0 {
		j = 0
	}
	if j < n && s.first[j].DocID < target {
		for k := 0; k < 4 && j < n && s.first[j].DocID < target; k++ {
			j++
		}
		if j < n && s.first[j].DocID < target {
			j += sort.Search(n-j, func(k int) bool { return s.first[j+k].DocID >= target })
		}
	}
	s.shallow = j
	if j >= n {
		return 0, noMoreDocs
	}
	if s.blocks == nil {
		return s.cap, s.first[n-1].DocID
	}
	b := j / postingBlockSize
	e := (b + 1) * postingBlockSize
	if e > n {
		e = n
	}
	boundary := s.first[e-1].DocID
	blk := s.blocks[b]
	if blk.maxBoost < 0 || s.boost < 0 {
		// cap is the negative-boost-safe whole-tail bound (+Inf there).
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

func (s *phraseScorer) doc() int {
	if s.i < 0 {
		return -1
	}
	if s.i >= len(s.first) {
		return noMoreDocs
	}
	return s.first[s.i].DocID
}

func (s *phraseScorer) next() int {
	for s.i++; s.i < len(s.first); s.i++ {
		if s.computeFreq() {
			return s.first[s.i].DocID
		}
	}
	return noMoreDocs
}

func (s *phraseScorer) advance(target int) int {
	if s.i >= 0 && s.i < len(s.first) && s.first[s.i].DocID >= target {
		return s.first[s.i].DocID
	}
	base := s.i + 1
	if base < 0 {
		base = 0
	}
	// Position just before the first candidate >= target; next() verifies
	// the phrase positionally from there.
	s.i = base + sort.Search(len(s.first)-base, func(k int) bool {
		return s.first[base+k].DocID >= target
	}) - 1
	return s.next()
}

// computeFreq counts phrase occurrences at the current first-term posting.
func (s *phraseScorer) computeFreq() bool {
	p0 := &s.first[s.i]
	freq := 0
	for _, start := range p0.Positions {
		if phraseAt(s.ix, s.field, s.terms, p0.DocID, start) {
			freq++
		}
	}
	s.freq = freq
	return freq > 0
}

func (s *phraseScorer) score() float64 {
	p0 := &s.first[s.i]
	tf := math.Sqrt(float64(s.freq))
	return tf * s.idfSum * p0.Boost * s.ix.fieldNorm(s.field, p0.DocID) * s.boost
}

func (s *phraseScorer) maxScore() float64 { return s.cap }

// allScorer matches every document at constant score 1, mirroring
// MatchAllQuery.scores.
type allScorer struct {
	n   int
	cur int
}

func (s *allScorer) doc() int { return s.cur }

func (s *allScorer) next() int {
	if s.cur >= s.n-1 {
		s.cur = noMoreDocs
	} else {
		s.cur++
	}
	return s.cur
}

func (s *allScorer) advance(target int) int {
	if s.cur >= target {
		return s.cur
	}
	if target >= s.n {
		s.cur = noMoreDocs
	} else {
		s.cur = target
	}
	return s.cur
}

func (s *allScorer) score() float64    { return 1 }
func (s *allScorer) maxScore() float64 { return 1 }

// singleDocScorer matches exactly one document at score 1 (docIDQuery).
type singleDocScorer struct {
	id  int
	cur int
}

func (s *singleDocScorer) doc() int { return s.cur }

func (s *singleDocScorer) next() int { return s.advance(s.cur + 1) }

func (s *singleDocScorer) advance(target int) int {
	switch {
	case s.cur >= target:
	case target <= s.id:
		s.cur = s.id
	default:
		s.cur = noMoreDocs
	}
	return s.cur
}

func (s *singleDocScorer) score() float64    { return 1 }
func (s *singleDocScorer) maxScore() float64 { return 1 }

// maxScorer takes the per-document maximum over weighted sub-scorers —
// FuzzyQuery's semantics, where a document matching several expansions of
// the query term keeps only its best one. The weight multiplies outside
// the sub-score, reproducing the exhaustive path's expression order.
type maxScorer struct {
	subs     []scorer
	weights  []float64
	cur      int
	curScore float64
	cap      float64
}

func newMaxScorer(subs []scorer, weights []float64) scorer {
	if len(subs) == 0 {
		return emptyScorer{}
	}
	m := &maxScorer{subs: subs, weights: weights, cur: -1}
	for i, sub := range subs {
		if c := sub.maxScore() * weights[i]; c > m.cap {
			m.cap = c
		}
	}
	return m
}

func (m *maxScorer) doc() int { return m.cur }

func (m *maxScorer) next() int { return m.seek(m.cur + 1) }

func (m *maxScorer) advance(target int) int {
	if m.cur >= target {
		return m.cur
	}
	return m.seek(target)
}

func (m *maxScorer) seek(target int) int {
	d := noMoreDocs
	for _, sub := range m.subs {
		sd := sub.doc()
		if sd < target {
			sd = sub.advance(target)
		}
		if sd < d {
			d = sd
		}
	}
	m.cur = d
	if d == noMoreDocs {
		return d
	}
	best := 0.0
	for i, sub := range m.subs {
		if sub.doc() == d {
			if s := sub.score() * m.weights[i]; s > best {
				best = s
			}
		}
	}
	m.curScore = best
	return d
}

func (m *maxScorer) score() float64    { return m.curScore }
func (m *maxScorer) maxScore() float64 { return m.cap }

// maxScoreUpTo implements blockMaxScorer: the best weighted sub-bound
// over the window, the window ending where the first sub-scorer's block
// does (the mirror of the cap computation in newMaxScorer).
func (m *maxScorer) maxScoreUpTo(target int) (float64, int) {
	bound := 0.0
	boundary := noMoreDocs
	for i, sub := range m.subs {
		sb, sboundary := ceilingTo(sub, target)
		if c := sb * m.weights[i]; c > bound {
			bound = c
		}
		if sboundary < boundary {
			boundary = sboundary
		}
	}
	return bound, boundary
}

// booleanScorer evaluates BooleanQuery document-at-a-time. With Must
// clauses it leapfrogs their cursors to common documents; without, it is
// a disjunction over the Should clauses with MaxScore pruning: once the
// collector's threshold covers the summed bounds of the weakest clauses,
// those clauses stop generating candidates and are only probed to score
// documents the essential clauses surfaced.
type booleanScorer struct {
	musts   []scorer
	shoulds []scorer
	nots    []scorer
	coord   bool
	total   int

	cur      int
	curScore float64
	cap      float64
	dead     bool
	// th is the collector threshold (root-only), kept for Block-Max
	// window checks in seek.
	th float64

	// MaxScore partition (disjunction mode only): sorted holds should
	// indices by ascending bound, prefix[i] the bound-sum of sorted[:i],
	// and the first nonEss entries are currently non-essential.
	sorted []int
	prefix []float64
	nonEss int
}

func newBooleanScorer(ix *Index, q BooleanQuery) scorer {
	if len(q.Must)+len(q.Should) == 0 {
		return emptyScorer{}
	}
	b := &booleanScorer{
		coord: !q.DisableCoord,
		total: len(q.Must) + len(q.Should),
		cur:   -1,
	}
	for _, c := range q.Must {
		b.musts = append(b.musts, c.newScorer(ix))
	}
	for _, c := range q.Should {
		b.shoulds = append(b.shoulds, c.newScorer(ix))
	}
	for _, c := range q.MustNot {
		b.nots = append(b.nots, c.newScorer(ix))
	}
	for _, m := range b.musts {
		b.cap += m.maxScore()
	}
	for _, sh := range b.shoulds {
		b.cap += sh.maxScore()
	}
	if len(b.musts) == 0 {
		b.initPartition()
	}
	return b
}

// newDisjunctionScorer wraps pre-built clause scorers as a coord-free
// disjunction — the scorer shape of BooleanQuery{Should: ...,
// DisableCoord: true} without re-deriving each clause from a Query.
func newDisjunctionScorer(shoulds []scorer) scorer {
	if len(shoulds) == 0 {
		return emptyScorer{}
	}
	b := &booleanScorer{coord: false, total: len(shoulds), shoulds: shoulds, cur: -1}
	for _, sh := range shoulds {
		b.cap += sh.maxScore()
	}
	b.initPartition()
	return b
}

// initPartition precomputes the MaxScore bookkeeping for disjunction mode.
func (b *booleanScorer) initPartition() {
	b.sorted = make([]int, len(b.shoulds))
	for i := range b.sorted {
		b.sorted[i] = i
	}
	// Insertion sort by ascending bound: clause counts are small and this
	// keeps reflection-based sorting off the query path.
	for i := 1; i < len(b.sorted); i++ {
		for j := i; j > 0 && b.shoulds[b.sorted[j]].maxScore() < b.shoulds[b.sorted[j-1]].maxScore(); j-- {
			b.sorted[j], b.sorted[j-1] = b.sorted[j-1], b.sorted[j]
		}
	}
	b.prefix = make([]float64, len(b.sorted)+1)
	for i, idx := range b.sorted {
		b.prefix[i+1] = b.prefix[i] + b.shoulds[idx].maxScore()
	}
}

// setThreshold implements prunable: clauses whose collective bounds fall
// under the bar stop generating candidates, and the whole scorer dies
// once no document can beat it.
func (b *booleanScorer) setThreshold(th float64) {
	b.th = th
	if b.cap <= th {
		b.dead = true
		return
	}
	for b.sorted != nil && b.nonEss < len(b.sorted) && b.prefix[b.nonEss+1] <= th {
		b.nonEss++
	}
}

// maxScoreUpTo implements blockMaxScorer: the clause bounds summed over
// the window, the window ending at the earliest clause block boundary.
// The sum bounds the coord-free clause-score sum; the coordination
// factor only shrinks it (every clause bound is >= 0), and MustNot
// clauses only remove documents, so it is an upper bound on score() for
// any document in the window.
func (b *booleanScorer) maxScoreUpTo(target int) (float64, int) {
	bound := 0.0
	boundary := noMoreDocs
	for _, m := range b.musts {
		mb, mboundary := ceilingTo(m, target)
		bound += mb
		if mboundary < boundary {
			boundary = mboundary
		}
	}
	for _, sh := range b.shoulds {
		sb, sboundary := ceilingTo(sh, target)
		bound += sb
		if sboundary < boundary {
			boundary = sboundary
		}
	}
	return bound, boundary
}

func (b *booleanScorer) doc() int { return b.cur }

func (b *booleanScorer) next() int { return b.seek(b.cur + 1) }

func (b *booleanScorer) advance(target int) int {
	if b.cur >= target {
		return b.cur
	}
	return b.seek(target)
}

func (b *booleanScorer) seek(target int) int {
	if b.dead {
		b.cur = noMoreDocs
		return b.cur
	}
	for {
		// Block-Max window check (root-only: th is 0 as a child). When no
		// document up to the earliest clause block boundary can beat the
		// collector threshold, jump every clause past the whole window
		// instead of scoring through it.
		if b.th > 0 {
			bound, boundary := b.maxScoreUpTo(target)
			if bound <= b.th {
				if boundary == noMoreDocs {
					b.cur = noMoreDocs
					return b.cur
				}
				if boundary >= target {
					target = boundary + 1
					continue
				}
			}
		}
		var d int
		if len(b.musts) > 0 {
			d = b.leapfrog(target)
		} else {
			d = b.minEssential(target)
		}
		if d == noMoreDocs {
			b.cur = noMoreDocs
			return b.cur
		}
		if b.excluded(d) {
			target = d + 1
			continue
		}
		b.cur = d
		b.curScore = b.scoreAt(d)
		return d
	}
}

// leapfrog aligns every Must cursor on the next common docID >= target.
func (b *booleanScorer) leapfrog(target int) int {
	d := target
	for {
		raised := false
		for _, m := range b.musts {
			md := m.doc()
			if md < d {
				md = m.advance(d)
			}
			if md == noMoreDocs {
				return noMoreDocs
			}
			if md > d {
				d = md
				raised = true
			}
		}
		if !raised {
			return d
		}
	}
}

// minEssential returns the smallest docID >= target among the essential
// Should cursors — the disjunction-mode candidate generator. Documents
// matched only by non-essential clauses are skipped: their summed bounds
// are at or under the collector threshold, so they cannot enter the top k.
func (b *booleanScorer) minEssential(target int) int {
	d := noMoreDocs
	for _, i := range b.sorted[b.nonEss:] {
		sh := b.shoulds[i]
		sd := sh.doc()
		if sd < target {
			sd = sh.advance(target)
		}
		if sd < d {
			d = sd
		}
	}
	return d
}

// excluded reports whether any MustNot clause matches d.
func (b *booleanScorer) excluded(d int) bool {
	for _, nt := range b.nots {
		nd := nt.doc()
		if nd < d {
			nd = nt.advance(d)
		}
		if nd == d {
			return true
		}
	}
	return false
}

// scoreAt sums the matching clause scores in clause order — Musts first,
// then Shoulds, exactly the accumulation order of the exhaustive path —
// and applies the coordination factor.
func (b *booleanScorer) scoreAt(d int) float64 {
	sum := 0.0
	matched := 0
	for _, m := range b.musts {
		sum += m.score()
		matched++
	}
	for _, sh := range b.shoulds {
		sd := sh.doc()
		if sd < d {
			sd = sh.advance(d)
		}
		if sd == d {
			sum += sh.score()
			matched++
		}
	}
	if !b.coord {
		return sum
	}
	coord := float64(matched) / float64(b.total)
	return sum * coord
}

func (b *booleanScorer) score() float64    { return b.curScore }
func (b *booleanScorer) maxScore() float64 { return b.cap }

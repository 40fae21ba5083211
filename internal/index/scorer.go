package index

import "math"

// Document-at-a-time (DAAT) evaluation with Block-Max pruning. A scorer is
// a cursor over one clause's matching documents; posting lists are walked
// in docID lockstep, compound scorers align their children on the same
// docID, and the top-k collector's rising threshold prunes at two grains.
// MaxScore (Turtle & Flood) partitions a disjunction's clauses by their
// whole-list score caps: clauses whose caps sum under the threshold stop
// proposing candidates. Block-Max (Ding & Suel) bounds the score inside a
// docID window from the per-block metadata the codec keeps for every 128
// postings: a window whose bound cannot beat the threshold is jumped in one
// advance per clause.
//
// The hot loop never re-derives what it knows. The root keeps the last
// window it computed and asks its leaves again only once a target passes
// the window's end; compound scorers keep their children's positions
// themselves instead of asking each child per candidate; a term's share of
// the similarity formula is computed when its cursor is built, not per
// posting.
//
// The contract with the exhaustive path is strict: identical hit sets,
// byte-identical scores, identical tie order. Scores are therefore
// computed with exactly the same expressions, in exactly the same
// floating-point order (musts before shoulds, clause order within each),
// as the map-accumulator path in search.go.

// noMoreDocs is the docID sentinel every exhausted scorer reports.
const noMoreDocs = math.MaxInt

// scorer is a cursor over one query clause's matching documents in
// ascending docID order. A fresh scorer is positioned before the first
// document; next and advance move it forward only and return where it
// stands, which is how its owner knows: a scorer has exactly one owner
// (its parent, or Search for the root) and nothing else moves it.
type scorer interface {
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
	// maxScoreUpTo returns an upper bound on score() for every matching
	// document in [target, boundary], together with that boundary: the last
	// docID the bound is known to cover. Leaves answer from the metadata of
	// the one posting block holding their first posting at or after target
	// and end the window where that block does; scorers without block
	// metadata answer with their whole-tail bound and noMoreDocs, which
	// keeps a parent's bound valid, just windowless. An exhausted scorer
	// returns (0, noMoreDocs). It is a shallow probe: the document cursor
	// does not move. Targets must not decrease across calls.
	maxScoreUpTo(target int) (bound float64, boundary int)
}

// prunable is implemented by scorers that can exploit the collector's
// rising top-k threshold. Only the root scorer of a search receives it;
// no child is handed a threshold.
type prunable interface {
	// setThreshold promises that only documents scoring strictly above th
	// count. The scorer may skip a document only where it proves the
	// document cannot score above th, and it scores every document it
	// lands on exactly. Thresholds only rise.
	setThreshold(th float64)
}

// emptyScorer matches nothing: the scorer of an impossible clause.
// Compound scorers drop such children when they are built.
type emptyScorer struct{}

func (emptyScorer) next() int                       { return noMoreDocs }
func (emptyScorer) advance(int) int                 { return noMoreDocs }
func (emptyScorer) score() float64                  { return 0 }
func (emptyScorer) maxScore() float64               { return 0 }
func (emptyScorer) maxScoreUpTo(int) (float64, int) { return 0, noMoreDocs }

// liveScorers builds the clauses' scorers in a, leaving out those that can
// never match.
func liveScorers(ix *Index, a *searchArena, clauses []boundQuery) []scorer {
	out := a.scorers.take(len(clauses))[:0]
	for _, c := range clauses {
		if sc := c.newScorer(ix, a); !isEmpty(sc) {
			out = append(out, sc)
		}
	}
	return out
}

// termScorer walks one term's posting list through its cursor, scoring
// with the term's weight exactly like termClause.scores. It records
// the docID it stands on where it moves (next, advance), the rule the
// compound scorers below follow one level down: advance's early-out and
// score read it back instead of asking the cursor again.
type termScorer struct {
	// i is the cursor's posting index (cur.n once exhausted) and d the docID
	// there: -1 before the first document, noMoreDocs after the last. The
	// fields every posting reads come first, in the struct's first 64 bytes,
	// so they share cache lines with the head of the cursor's run: docLen's
	// capacity, which no posting reads, is the one word past them.
	i, d  int
	w     termWeight
	boost float64
	// docLen is the field's length table; every posting's document is in it.
	docLen []int32
	cur    postingsCursor
	cap    float64

	// Block-Max state: shallowBlk is the maxScoreUpTo probe's block,
	// monotone because targets only rise; th is the collector threshold,
	// set only on a root (see setThreshold); cachedBlock/cachedBound
	// memoize the last block bound evaluation — the similarity math runs
	// once per block, not once per probe.
	shallowBlk  int
	th          float64
	cachedBlock int
	cachedBound float64
}

// newTermScorer builds the cursor for one analyzed term in a, weighted by
// cs (nil: ix's own counts). The term must be in index form; queryBoost is
// the resolved (zero-defaulted) clause boost.
func newTermScorer(ix *Index, a *searchArena, cs *CorpusStats, field, term string, queryBoost float64) scorer {
	fi := ix.fields[field]
	if fi == nil {
		return emptyScorer{}
	}
	src := fi.lookup(term)
	if src.len() == 0 {
		return emptyScorer{}
	}
	s := &a.terms.take(1)[0]
	*s = termScorer{
		w:      ix.sim.weight(ix.termStats(cs, field, term)),
		docLen: fi.docLen,
		boost:  queryBoost,
		i:      -1, d: -1,
		cachedBlock: -1,
	}
	s.cur.init(src, false, a)
	s.cap = scoreBound(s.cur.listCap(), s.w, queryBoost)
	return s
}

// land records where the cursor stands after a move to posting index i. A
// cursor that cannot produce the posting (past the end, or spoiled) is
// exhausted.
func (s *termScorer) land(i, d int) int {
	if d == noMoreDocs {
		i = s.cur.n
	}
	s.i, s.d = i, d
	return d
}

func (s *termScorer) next() int {
	s.i++
	if s.th > 0 {
		s.skipBeatenBlocks()
	}
	// Inside the current run the scorer reads the run's columns itself, here
	// and in score: the cursor's accessors carry their decode path and are
	// too large for the compiler to inline into the per-posting loop.
	if k := uint(s.i - s.cur.base); k < uint(len(s.cur.docs)) {
		s.d = int(s.cur.docs[k])
		return s.d
	}
	return s.land(s.i, s.cur.docAt(s.i))
}

// setThreshold implements prunable. As the root scorer of a plain term
// query the cursor hops whole blocks whose bound cannot beat the
// collector threshold. A term under a boolean clause never receives a
// threshold: th stays 0 there, next() surfaces every posting, and the
// root's window check jumps the blocks the term could skip.
func (s *termScorer) setThreshold(th float64) { s.th = th }

// skipBeatenBlocks moves the cursor forward over whole blocks proven
// unable to produce a score above th. Documents skipped here score at or
// below the collector threshold and would never be collected, so the
// pruned ranking stays byte-identical to the exhaustive one. A skipped
// mapped block's postings are never decoded, only its header read.
func (s *termScorer) skipBeatenBlocks() {
	for s.i < s.cur.n {
		b := s.i / postingBlockSize
		if s.blockBound(b) > s.th {
			return
		}
		s.i = (b + 1) * postingBlockSize
	}
}

// blockBound is the score bound of block b (see scoreBound).
func (s *termScorer) blockBound(b int) float64 {
	if b != s.cachedBlock {
		s.cachedBlock, s.cachedBound = b, scoreBound(s.cur.blockCap(b), s.w, s.boost)
	}
	return s.cachedBound
}

// maxScoreUpTo answers from the per-block metadata: the bound for the
// window [target, boundary] is the bound of the single block holding every
// posting in that window. Nothing is decoded.
func (s *termScorer) maxScoreUpTo(target int) (float64, int) {
	b := s.cur.shallowProbe(s.shallowBlk, s.i, target)
	s.shallowBlk = b
	if b >= s.cur.numBlocks() {
		return 0, noMoreDocs
	}
	return s.blockBound(b), s.cur.lastDoc(b)
}

func (s *termScorer) advance(target int) int {
	if s.d >= target {
		return s.d
	}
	return s.land(s.cur.seek(s.i+1, target))
}

func (s *termScorer) score() float64 {
	c := &s.cur
	k := s.i - c.base
	if uint(k) >= uint(len(c.posEnd)) && !c.loadFreqs(k) {
		return 0 // a spoiled mapped block: the posting cannot be read
	}
	return s.w.score(c.freq(k), int(s.docLen[s.d])) * c.boostAt(k) * s.boost
}

func (s *termScorer) maxScore() float64 { return s.cap }

// phraseScore is the score of a phrase occurring freq times in a document
// whose length norm is norm, at the first term's posting boost p0boost and
// the query boost. phraseScorer, phraseClause and phraseBound all form it
// here.
func phraseScore(freq int, idfSum, p0boost, norm, boost float64) float64 {
	return math.Sqrt(float64(freq)) * idfSum * p0boost * norm * boost
}

// phraseBound is the score cap of a phrase clause: a phrase occurs at most
// as often as its rarest member term (maxFreq), in a document at least as
// long as the shortest any member term occurs in (minLen), and is scored
// with the first term's posting boost. It is phraseScore at those
// dominating inputs, each rounded step monotone in its input, so it equals
// the score of a best-case match and needs no margin (see scoreBound). +Inf
// for negative boosts, which would turn the best case into a lower bound.
func phraseBound(c termCap, idfSum, boost float64) float64 {
	if c.maxBoost < 0 || boost < 0 {
		return math.Inf(1)
	}
	return phraseScore(c.maxFreq, idfSum, c.maxBoost, 1/math.Sqrt(float64(c.minLen)), boost)
}

// tighten narrows a phrase's whole-list cap inputs with one block of its
// first term: the block's maxFreq caps the phrase frequency, its minLen
// floors the matching document's length, and its boost is the scored one.
func (c termCap) tighten(blk termCap) termCap {
	return termCap{maxFreq: min(c.maxFreq, blk.maxFreq), minLen: max(c.minLen, blk.minLen), maxBoost: blk.maxBoost}
}

// phraseFreq counts the positions in first at which the phrase occurs:
// follow[k] holds the positions of the phrase's (k+2)th term in the same
// document, which must continue each start at start+k+1.
func phraseFreq(first []int32, follow [][]int32) int {
	freq := 0
starts:
	for _, start := range first {
		for k, ps := range follow {
			if findInt32(ps, int(start)+k+1) < 0 {
				continue starts
			}
		}
		freq++
	}
	return freq
}

// phraseScorer walks the first term's posting list and verifies the full
// phrase positionally per candidate, scoring exactly like
// phraseClause.scores. Each later term keeps its own positional cursor, so
// verification decodes at most one mapped block's docIDs per probe —
// candidates arrive in ascending docID order, so those reads are nearly
// sequential — and positions only for candidates every term contains.
type phraseScorer struct {
	// i is the first term's posting index and d the docID of the phrase
	// match there, as in termScorer, whose field order this follows.
	i, d, freq    int
	idfSum, boost float64
	tbl           *docTable
	first         postingsCursor
	rest          []postingsCursor
	follow        [][]int32
	cap           float64

	// Block-Max state over the first term's posting list (the candidate
	// generator, whose per-block metadata bounds a window): the whole-phrase
	// cap inputs, kept so a block bound can tighten them, the shallow
	// probe's block, the collector threshold (set only on a root, as in
	// termScorer) and the last block bound.
	whole       termCap
	shallowBlk  int
	th          float64
	cachedBlock int
	cachedBound float64
}

// newPhraseScorer builds the cursor for already-analyzed phrase terms in a,
// their IDFs read from cs (nil: ix's own counts).
func newPhraseScorer(ix *Index, a *searchArena, cs *CorpusStats, field string, terms []string, boost float64) scorer {
	fi := ix.fields[field]
	if fi == nil {
		return emptyScorer{}
	}
	// Any term absent from the field makes the phrase unmatchable.
	for _, t := range terms {
		if fi.lookup(t).len() == 0 {
			return emptyScorer{}
		}
	}
	s := &a.phrases.take(1)[0]
	*s = phraseScorer{
		tbl: &fi.docTable, rest: a.cursors.take(len(terms) - 1), follow: a.follow.take(len(terms) - 1),
		boost: boost, i: -1, d: -1, cachedBlock: -1,
		whole: termCap{maxFreq: math.MaxInt, minLen: 1},
	}
	for i, t := range terms {
		c := &s.first
		if i > 0 {
			c = &s.rest[i-1]
		}
		c.init(fi.lookup(t), true, a)
		s.idfSum += ix.termStats(cs, field, t).idf()
		lc := c.listCap()
		s.whole.maxFreq = min(s.whole.maxFreq, lc.maxFreq)
		s.whole.minLen = max(s.whole.minLen, lc.minLen)
	}
	s.whole.maxBoost = s.first.listCap().maxBoost
	s.cap = phraseBound(s.whole, s.idfSum, boost)
	return s
}

// maxScoreUpTo: a phrase match needs a first-term posting, so the window
// is the first term's current block and the whole-phrase bound tightens
// with that block's metadata.
func (s *phraseScorer) maxScoreUpTo(target int) (float64, int) {
	b := s.first.shallowProbe(s.shallowBlk, s.i, target)
	s.shallowBlk = b
	if b >= s.first.numBlocks() {
		return 0, noMoreDocs
	}
	return s.blockBound(b), s.first.lastDoc(b)
}

// blockBound is the phrase's bound over the first term's block b: the
// whole-phrase bound tightened with that block's metadata.
func (s *phraseScorer) blockBound(b int) float64 {
	if b != s.cachedBlock {
		s.cachedBlock = b
		s.cachedBound = phraseBound(s.whole.tighten(s.first.blockCap(b)), s.idfSum, s.boost)
	}
	return s.cachedBound
}

// setThreshold implements prunable. As the root of a phrase query the
// first term's cursor hops whole blocks whose bound cannot beat the
// collector threshold, before any of their candidates is verified
// positionally. Under a boolean clause th stays 0, as termScorer's does.
func (s *phraseScorer) setThreshold(th float64) { s.th = th }

// skipBeatenBlocks moves the first term's cursor forward over whole blocks
// proven unable to hold a phrase match scoring above th, the way
// termScorer.skipBeatenBlocks does for a term. It is termScorer's loop over
// the phrase's own block bound; one loop shared through an interface or a
// bound callback would put a call in the term root's per-posting path.
func (s *phraseScorer) skipBeatenBlocks() {
	for s.i < s.first.n {
		b := s.i / postingBlockSize
		if s.blockBound(b) > s.th {
			return
		}
		s.i = (b + 1) * postingBlockSize
	}
}

func (s *phraseScorer) next() int {
	for s.i++; ; s.i++ {
		if s.th > 0 {
			s.skipBeatenBlocks()
		}
		d := s.first.docAt(s.i)
		if d == noMoreDocs {
			break
		}
		if s.computeFreq(d) {
			s.d = d
			return d
		}
	}
	s.i, s.d = s.first.n, noMoreDocs
	return noMoreDocs
}

func (s *phraseScorer) advance(target int) int {
	if s.d >= target {
		return s.d
	}
	// Position just before the first candidate >= target; next() verifies
	// the phrase positionally from there.
	i, _ := s.first.seek(s.i+1, target)
	s.i = i - 1
	return s.next()
}

// computeFreq counts phrase occurrences at the current candidate, the first
// term's posting s.i on document d.
func (s *phraseScorer) computeFreq(d int) bool {
	s.freq = 0
	for k := range s.rest {
		c := &s.rest[k]
		j, ok := c.findDoc(d)
		if !ok {
			return false
		}
		s.follow[k] = c.positionsAt(j)
	}
	s.freq = phraseFreq(s.first.positionsAt(s.i), s.follow)
	return s.freq > 0
}

func (s *phraseScorer) score() float64 {
	_, p0boost := s.first.at(s.i)
	return phraseScore(s.freq, s.idfSum, p0boost, s.tbl.norm(s.d), s.boost)
}

func (s *phraseScorer) maxScore() float64 { return s.cap }

// allScorer matches every document at constant score 1, mirroring
// MatchAllQuery.scores.
type allScorer struct {
	n   int
	cur int
}

func (s *allScorer) next() int { return s.advance(s.cur + 1) }

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

// maxScoreUpTo has no window, and nothing left to bound once exhausted.
func (s *allScorer) maxScoreUpTo(int) (float64, int) {
	if s.cur == noMoreDocs {
		return 0, noMoreDocs
	}
	return 1, noMoreDocs
}

// window is the Block-Max answer a compound scorer last computed: bound
// covers every document up to end. While targets stay at or under end a
// fresh walk over the children would return the same pair — end is at most
// every leaf's block end, that block's last posting is at or after the
// target, so every leaf is still in the block it answered from — which is
// why a compound scorer asks its children again only once a target passes
// end. The zero window ends before the first document.
type window struct {
	bound float64
	end   int
}

// maxScorer takes the per-document maximum over weighted sub-scorers —
// FuzzyQuery's semantics, where a document matching several expansions of
// the query term keeps only its best one. The weight multiplies outside
// the sub-score, reproducing the exhaustive path's expression order.
type maxScorer struct {
	subs    []scorer
	weights []float64
	// subDoc[i] is where subs[i] stands; only seek moves a sub.
	subDoc   []int
	cur      int
	curScore float64
	cap      float64
	win      window
}

func newMaxScorer(a *searchArena, subs []scorer, weights []float64) scorer {
	if len(subs) == 0 {
		return emptyScorer{}
	}
	m := &a.maxes.take(1)[0]
	*m = maxScorer{subs: subs, weights: weights, subDoc: a.unpositioned(len(subs), 0), cur: -1, win: window{end: -1}}
	for i, sub := range subs {
		if c := sub.maxScore() * weights[i]; c > m.cap {
			m.cap = c
		}
	}
	return m
}

func (m *maxScorer) next() int { return m.seek(m.cur + 1) }

func (m *maxScorer) advance(target int) int {
	if m.cur >= target {
		return m.cur
	}
	return m.seek(target)
}

// seek lands on the first document from target that some sub scores above
// 0. As in fuzzyClause.scores, a document whose every matching expansion
// scores at most 0 (under a negative boost) does not match.
func (m *maxScorer) seek(target int) int {
	d := m.seekAny(target)
	for d != noMoreDocs && m.curScore <= 0 {
		d = m.seekAny(d + 1)
	}
	return d
}

// seekAny lands on the first document from target that any sub matches,
// scored as the best weighted sub-score, floored at 0.
func (m *maxScorer) seekAny(target int) int {
	d := noMoreDocs
	for i, sd := range m.subDoc {
		if sd < target {
			sd = m.subs[i].advance(target)
			m.subDoc[i] = sd
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
	for i, sd := range m.subDoc {
		if sd == d {
			if s := m.subs[i].score() * m.weights[i]; s > best {
				best = s
			}
		}
	}
	m.curScore = best
	return d
}

func (m *maxScorer) score() float64    { return m.curScore }
func (m *maxScorer) maxScore() float64 { return m.cap }

// maxScoreUpTo is the best weighted sub-bound over the window, the window
// ending where the first sub-scorer's block does (the mirror of the cap
// computation in newMaxScorer).
func (m *maxScorer) maxScoreUpTo(target int) (float64, int) {
	if target > m.win.end {
		m.win = window{end: noMoreDocs}
		for i, sub := range m.subs {
			sb, end := sub.maxScoreUpTo(target)
			m.win.bound = max(m.win.bound, sb*m.weights[i])
			m.win.end = min(m.win.end, end)
		}
	}
	return m.win.bound, m.win.end
}

// booleanScorer evaluates a boolean clause document-at-a-time. With Must
// clauses it leapfrogs their cursors to common documents; without, it is
// a disjunction with MaxScore pruning: once the threshold covers what a
// document matched only by the weakest Shoulds can score, those stop
// generating candidates and are only probed to score documents the
// essential ones surfaced.
//
// A Should that is itself a plain sum of its own Shoulds — a boolean
// clause with no Must, no MustNot, and coordination off or a single
// Should, such as a keyword token's per-field disjunction — is not built
// as a scorer of its own. Its Shoulds become one group of consecutive
// leaves here, and every sum over the leaves (scoreAt, the cap, the
// window bound, the MaxScore prefixes) adds each group from zero before
// adding the groups in clause order, which is the nested clause's
// expression bit for bit. A two-token keyword query over nine fields is
// then one scorer over eighteen cursors, partitioned by one MaxScore. A
// Should that cannot be inlined is one leaf, a group of its own, scored
// exactly wherever the disjunction lands; only the root receives a
// threshold (see setThreshold).
type booleanScorer struct {
	musts   []scorer
	shoulds []scorer
	nots    []scorer
	// mustDoc, shouldDoc and notDoc hold where each child stands (-1 before
	// its first advance). Only this scorer moves its children, and it
	// records where every advance lands, so the loops below read positions
	// here instead of asking the children.
	mustDoc, shouldDoc, notDoc []int
	// ends[j] is one past the last Should leaf of the j-th group: the
	// leaves of one inlined clause, or a clause that is a leaf itself.
	ends  []int
	coord bool
	total int

	cur      int
	curScore float64
	cap      float64
	dead     bool
	// th is the collector's threshold (0 until one arrives, and always 0
	// below the root) and win the window it was last compared against,
	// see seek.
	th  float64
	win window

	// MaxScore partition (disjunction mode only): sorted holds should
	// indices weakest first (see newBooleanScorer), prefix[k] the grouped
	// bound-sum of sorted[:k], groupsIn[k] the number of groups among
	// sorted[:k], and the first nonEss entries are currently non-essential.
	sorted   []int
	prefix   []float64
	groupsIn []int
	nonEss   int
}

// inlined returns the Shoulds of a clause whose score is the plain sum of
// its Shoulds' scores added from zero — a boolean clause with no Must, no
// MustNot, and coordination off or a single Should (whose factor is 1/1) —
// and nil for any other clause.
func inlined(c boundQuery) []boundQuery {
	b, ok := c.(*boolClause)
	if !ok || len(b.must)+len(b.mustNot) > 0 || b.coord && len(b.should) > 1 {
		return nil
	}
	return b.should
}

// shouldLeaves builds the Should clauses' scorers in a, one per clause or,
// for a clause that is inlined, one per Should of it, leaving out those
// that can never match. group[i] is the clause leaf i came from, and
// ends[j] one past the last leaf of the j-th clause with any.
func shouldLeaves(ix *Index, a *searchArena, clauses []boundQuery) (leaves []scorer, group, ends []int) {
	n := 0
	for _, c := range clauses {
		n += max(1, len(inlined(c)))
	}
	leaves, group, ends = a.scorers.take(n)[:0], a.ints.take(n)[:0], a.ints.take(len(clauses))[:0]
	for g, c := range clauses {
		subs, start := inlined(c), len(leaves)
		if subs == nil {
			subs = clauses[g : g+1]
		}
		for _, sub := range subs {
			if sc := sub.newScorer(ix, a); !isEmpty(sc) {
				leaves, group = append(leaves, sc), append(group, g)
			}
		}
		if len(leaves) > start {
			ends = append(ends, len(leaves))
		}
	}
	return leaves, group, ends
}

func isEmpty(sc scorer) bool {
	_, empty := sc.(emptyScorer)
	return empty
}

// newBooleanScorer builds the clause's scorer tree over ix in a. Clauses that
// cannot match in this index are left out — a Should or MustNot that never
// matches changes no sum and no order, a Must that never matches empties
// the clause — while the coordination factor keeps counting the query's
// clauses, found or not.
func newBooleanScorer(ix *Index, a *searchArena, q *boolClause) scorer {
	musts := liveScorers(ix, a, q.must)
	if len(musts) < len(q.must) {
		return emptyScorer{}
	}
	shoulds, group, ends := shouldLeaves(ix, a, q.should)
	nots := liveScorers(ix, a, q.mustNot)
	nm, ns, nn := len(musts), len(shoulds), len(nots)
	total := len(q.must) + len(q.should)
	switch {
	case nm+ns == 0:
		return emptyScorer{}
	case nm+nn == 0 && ns == 1 && (!q.coord || total == 1):
		// A lone Should with nothing required or excluded, and coordination
		// off or 1/1: the clause's score is 0 + s (times 1), the child's own
		// score bit for bit, and so is the score of the clause it was
		// inlined from. The child stands in for the clause, and so receives
		// the collector's threshold itself instead of through a wrapper that
		// cannot hand it down.
		return shoulds[0]
	}
	b := &a.bools.take(1)[0]
	*b = booleanScorer{
		musts: musts, shoulds: shoulds, nots: nots, ends: ends,
		coord: q.coord, total: total, cur: -1, win: window{end: -1},
	}
	// Child positions and, in disjunction mode, the MaxScore order, each
	// Should's rank in it and the group counts share one stretch.
	ints := a.unpositioned(nm+ns+nn, 3*ns+1)
	b.mustDoc, b.shouldDoc, b.notDoc = ints[:nm], ints[nm:nm+ns], ints[nm+ns:nm+ns+nn]
	caps := a.floats.take(3*ns + 1)
	for _, m := range b.musts {
		b.cap += m.maxScore()
	}
	for i, sh := range b.shoulds {
		caps[i] = sh.maxScore()
	}
	b.cap = b.groupedSum(b.cap, caps[:ns], nil)
	if nm > 0 {
		return b
	}
	// Disjunction mode. sorted holds the should indices weakest group
	// first, by the group's bound, and inside a group by ascending leaf
	// bound (insertion sort: clause counts are small and this keeps
	// reflection-based sorting off the query path). The non-essential set
	// then grows a whole group at a time, each group it holds whole
	// counting as one match, as the clause did before it was inlined.
	b.sorted = ints[nm+ns+nn : nm+2*ns+nn]
	rank := ints[nm+2*ns+nn : nm+3*ns+nn]
	b.groupsIn = ints[nm+3*ns+nn:]
	groupCap, lo := caps[ns:2*ns], 0
	for _, hi := range ends {
		gs := 0.0
		for _, c := range caps[lo:hi] {
			gs += c
		}
		for ; lo < hi; lo++ {
			b.sorted[lo], groupCap[lo] = lo, gs
		}
	}
	weaker := func(x, y int) bool {
		if groupCap[x] != groupCap[y] {
			return groupCap[x] < groupCap[y]
		}
		return group[x] < group[y] || group[x] == group[y] && caps[x] < caps[y]
	}
	for i := 1; i < ns; i++ {
		for j := i; j > 0 && weaker(b.sorted[j], b.sorted[j-1]); j-- {
			b.sorted[j], b.sorted[j-1] = b.sorted[j-1], b.sorted[j]
		}
	}
	// prefix[k] adds the k weakest bounds as scoreAt adds scores, so it is
	// at or above the score of every document only they match, bit for bit
	// (weakBound); an ascending-order or ungrouped sum can land an ulp under
	// such a score and drop a document tying the bar.
	b.prefix = caps[2*ns : 3*ns+1]
	for r, idx := range b.sorted {
		rank[idx] = r
		b.groupsIn[r+1] = b.groupsIn[r]
		if r == 0 || group[idx] != group[b.sorted[r-1]] {
			b.groupsIn[r+1]++
		}
	}
	for k := 1; k <= ns; k++ {
		b.prefix[k] = b.groupedSum(0, caps[:ns], func(i int) bool { return rank[i] < k })
	}
	return b
}

// groupedSum adds v[i] over the Should leaves that in (nil: all) admits to
// base, as scoreAt adds their scores to the Musts' sum: each group's from
// zero, then the groups in clause order.
func (b *booleanScorer) groupedSum(base float64, v []float64, in func(i int) bool) float64 {
	sum, lo := base, 0
	for _, hi := range b.ends {
		gs := 0.0
		for i := lo; i < hi; i++ {
			if in == nil || in(i) {
				gs += v[i]
			}
		}
		sum, lo = sum+gs, hi
	}
	return sum
}

// setThreshold implements prunable: the whole scorer dies once no
// document can beat th, and in disjunction mode the weakest Should leaves
// stop generating candidates once a document only they match cannot beat
// th (weakBound). The children receive no threshold: seek's window check
// jumps the blocks they could skip, and scoreAt scores each exactly.
func (b *booleanScorer) setThreshold(th float64) {
	b.th = th
	if b.cap <= th {
		b.dead = true
		return
	}
	if b.sorted == nil {
		return
	}
	for b.nonEss < len(b.sorted) && b.weakBound(b.nonEss+1) <= th {
		b.nonEss++
	}
}

// weakBound bounds the score of a document matched by none of the
// Should leaves but the k weakest: their bound sum, times the coordination
// factor of the groups they fall in when coordination is on. Both factors
// are formed as scoreAt forms a score (the grouped sum in clause order,
// then the product), from inputs at or above the document's own: its leaf
// scores, and its matched groups at most groupsIn[k]. Every rounded step
// is monotone, so the bound is at or above the score bit for bit, and a
// document that can only tie the bar is left out.
func (b *booleanScorer) weakBound(k int) float64 {
	if !b.coord {
		return b.prefix[k]
	}
	return b.prefix[k] * (float64(b.groupsIn[k]) / float64(b.total))
}

// maxScoreUpTo is the clause bounds summed over the window, grouped as
// scoreAt sums scores, the window ending at the earliest clause block
// boundary. The sum bounds the coord-free clause-score sum bit for bit
// (see weakBound); the coordination factor only shrinks it
// (every clause bound is >= 0), and MustNot clauses only remove documents,
// so it is an upper bound on score() for any document in the window.
func (b *booleanScorer) maxScoreUpTo(target int) (float64, int) {
	if target > b.win.end {
		w := window{end: noMoreDocs}
		for _, c := range b.musts {
			cb, end := c.maxScoreUpTo(target)
			w.bound += cb
			w.end = min(w.end, end)
		}
		shoulds, lo := b.shoulds, 0
		for _, hi := range b.ends {
			gs := 0.0
			for i := lo; i < hi; i++ {
				cb, end := shoulds[i].maxScoreUpTo(target)
				gs += cb
				w.end = min(w.end, end)
			}
			w.bound, lo = w.bound+gs, hi
		}
		b.win = w
	}
	return b.win.bound, b.win.end
}

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
		// Block-Max window check (th is 0 until a threshold arrives). When
		// no document up to the earliest clause block boundary can beat the
		// threshold, jump every clause past the whole window
		// instead of scoring through it. The window is recomputed only when
		// target leaves it; the comparison runs per seek because the
		// threshold rises inside a window.
		if b.th > 0 {
			if bound, end := b.maxScoreUpTo(target); bound <= b.th {
				if end == noMoreDocs {
					b.cur = noMoreDocs
					return b.cur
				}
				if end >= target {
					target = end + 1
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
		for i, md := range b.mustDoc {
			if md < d {
				md = b.musts[i].advance(d)
				b.mustDoc[i] = md
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
		sd := b.shouldDoc[i]
		if sd < target {
			sd = b.shoulds[i].advance(target)
			b.shouldDoc[i] = sd
		}
		if sd < d {
			d = sd
		}
	}
	return d
}

// excluded reports whether any MustNot clause matches d.
func (b *booleanScorer) excluded(d int) bool {
	for i, nd := range b.notDoc {
		if nd < d {
			nd = b.nots[i].advance(d)
			b.notDoc[i] = nd
		}
		if nd == d {
			return true
		}
	}
	return false
}

// scoreAt sums the matching clause scores in clause order — Musts first,
// then Shoulds, exactly the accumulation order of the exhaustive path —
// and applies the coordination factor. An inlined clause's score is its
// group's sum from zero, and the clause counts once toward coordination
// however many of its leaves match.
func (b *booleanScorer) scoreAt(d int) float64 {
	sum := 0.0
	matched := len(b.musts)
	for _, m := range b.musts {
		sum += m.score()
	}
	shoulds, docs, lo := b.shoulds, b.shouldDoc, 0
	for _, hi := range b.ends {
		gs, hit := 0.0, false
		for i := lo; i < hi; i++ {
			sd := docs[i]
			if sd < d {
				sd = shoulds[i].advance(d)
				docs[i] = sd
			}
			if sd == d {
				gs += shoulds[i].score()
				hit = true
			}
		}
		if hit {
			sum += gs
			matched++
		}
		lo = hi
	}
	if !b.coord {
		return sum
	}
	coord := float64(matched) / float64(b.total)
	return sum * coord
}

func (b *booleanScorer) score() float64    { return b.curScore }
func (b *booleanScorer) maxScore() float64 { return b.cap }

package index

// One reader for a term's postings, wherever they live. A heap term's list
// is one postingRun the length of the list; a mapped term's is a sequence of
// 128-posting blocks in the byte region, decoded on landing into runs of the
// same shape. postingsCursor hands either out to every reader of postings —
// the scorers, the exhaustive clauses, merges and statistics — so none of
// them asks which storage mode it is in.

import (
	"encoding/binary"
	"math"
)

// postingRun is a stretch of one term's posting list in columns whose
// elements hold no pointers: posting k of the run is document docs[k], docID
// ascending, with positions positions[posEnd[k-1]:posEnd[k]] (from 0 for the
// first), so its frequency is a subtraction. Boosts follow the codec's rule:
// one value for the whole run until a posting arrives at a boost that
// differs bit for bit, from which point boosts holds one each.
type postingRun struct {
	docs      []int32
	posEnd    []uint32
	positions []int32
	boost     float64
	boosts    []float64
}

// newPostingRun returns an empty run with room for n postings and npos
// positions.
func newPostingRun(n, npos int) postingRun {
	return postingRun{docs: make([]int32, 0, n), posEnd: make([]uint32, 0, n), positions: make([]int32, 0, npos)}
}

// posStart is where posting k's positions begin in r.positions.
func (r *postingRun) posStart(k int) uint32 {
	if k == 0 {
		return 0
	}
	return r.posEnd[k-1]
}

// freq is posting k's within-document term frequency.
func (r *postingRun) freq(k int) int { return int(r.posEnd[k] - r.posStart(k)) }

// positionsAt returns posting k's token positions, ascending.
func (r *postingRun) positionsAt(k int) []int32 { return r.positions[r.posStart(k):r.posEnd[k]] }

// boostAt is the field boost posting k captured at indexing time. The test
// is on the length: a mapped cursor keeps its boost table's buffer, emptied,
// across blocks that need none.
func (r *postingRun) boostAt(k int) float64 {
	if len(r.boosts) > 0 {
		return r.boosts[k]
	}
	return r.boost
}

// setBoost records the boost posting k captured, those of the postings
// before it being set already.
func (r *postingRun) setBoost(k int, boost float64) {
	switch {
	case len(r.boosts) > 0:
		r.boosts = append(r.boosts, boost)
	case k == 0:
		r.boost = boost
	case math.Float64bits(boost) != math.Float64bits(r.boost):
		r.boosts = make([]float64, k+1, max(k+1, cap(r.docs)))
		for j := range r.boosts[:k] {
			r.boosts[j] = r.boost
		}
		r.boosts[k] = boost
	}
}

// appendPosting adds the posting of document id, indexed at boost, after
// the last one, with the positions already known; a caller that learns them
// one by one appends them to r.positions and closes with endPosting.
func (r *postingRun) appendPosting(id int, boost float64, positions ...int32) {
	r.setBoost(len(r.docs), boost)
	r.docs = append(r.docs, int32(id))
	r.positions = append(r.positions, positions...)
	r.posEnd = append(r.posEnd, uint32(len(r.positions)))
}

// setBoosts records that the m postings from k on all captured boost, those
// of the postings before them being set already.
func (r *postingRun) setBoosts(k, m int, boost float64) {
	r.setBoost(k, boost)
	if len(r.boosts) > 0 {
		for range m - 1 {
			r.boosts = append(r.boosts, boost)
		}
	}
}

// appendRun appends postings [lo, hi) of src after the last one, with their
// docIDs renumbered by remap (none of them may be dropped): the docIDs in
// one loop, the position ends shifted by one offset, the positions moved by
// one append, and the boosts under setBoost's rule, so a table is made only
// where the boosts really differ. A position end wraps only when the field's
// positions pass math.MaxUint32, which the document table's add refuses
// first.
func (r *postingRun) appendRun(src *postingRun, lo, hi int, remap []int) {
	k := len(r.docs)
	if len(src.boosts) == 0 {
		r.setBoosts(k, hi-lo, src.boost)
	} else {
		for i, b := range src.boosts[lo:hi] {
			r.setBoost(k+i, b)
		}
	}
	for _, d := range src.docs[lo:hi] {
		r.docs = append(r.docs, int32(remap[d]))
	}
	start := src.posStart(lo)
	shift := uint32(len(r.positions)) - start
	for _, e := range src.posEnd[lo:hi] {
		r.posEnd = append(r.posEnd, e+shift)
	}
	r.positions = append(r.positions, src.positions[start:src.posEnd[hi-1]]...)
}

// endPosting makes every position appended so far part of the last posting.
func (r *postingRun) endPosting() { r.posEnd[len(r.posEnd)-1] = uint32(len(r.positions)) }

// postingsSource is where a term's postings live: its heap entry, or its TOC
// entry t in the mapped field f.
type postingsSource struct {
	te *termEntry
	f  *mappedField
	t  *mappedTerm
}

// len is the term's posting count, from the heap entry or the TOC; 0 for the
// zero source, which is where an absent term's postings live.
func (s postingsSource) len() int {
	switch {
	case s.te != nil:
		return len(s.te.docs)
	case s.t != nil:
		return s.t.n
	}
	return 0
}

// lookup finds where term's postings live in the field.
func (fi *fieldIndex) lookup(term string) postingsSource {
	if fi.m == nil {
		return postingsSource{te: fi.terms[term]}
	}
	if t := fi.m.terms[term]; t != nil {
		return postingsSource{f: fi.m, t: t}
	}
	return postingsSource{}
}

// postingsOf returns a term's posting list as one run, empty without the
// term: the heap entry's own columns, or a mapped term's blocks decoded into
// a fresh run — the path the exhaustive clauses, merges and Postings walk;
// scorers drive cursors instead. A mapped decode is all or nothing: empty
// when any section of any block is spoiled, never a truncated list.
func (fi *fieldIndex) postingsOf(term string) postingRun {
	var c postingsCursor
	c.init(fi.lookup(term), true, nil)
	n := c.n
	if len(c.docs) == n {
		return c.postingRun // the heap entry's, or an absent term's
	}
	out := newPostingRun(n, n)
	for i := 0; i < n; i++ {
		d := c.docAt(i)
		_, boost := c.at(i)
		pos := c.positionsAt(i)
		if pos == nil || len(out.positions)+len(pos) > math.MaxUint32 {
			return postingRun{}
		}
		out.appendPosting(d, boost, pos...)
	}
	return out
}

// postingsCursor reads one term's posting list a run at a time and is the
// unit of work every scorer drives. The current run is postings [base,
// base+len(docs)) of the list, in the heap entry's own shape; the two
// sources differ only in how a run arrives:
//
//   - a heap term is one run the length of the list, the entry's own
//     columns, in place from init: the heap side never decodes anything;
//   - a mapped term is one run per 128-posting block, decoded from the byte
//     region into buffers the cursor owns: docIDs and position ends are
//     taken for a block when the cursor is built, the per-posting boost
//     table and the position buffer by the first block that needs them —
//     from the search's arena (arena.go) for a scorer's cursor, from the
//     heap for one that walks postings outside a search.
//
// A mapped block is three sections, each decoded at most once per landing
// and only by the accessor that needs it:
//
//   - load(b) (reached through docAt, seek and findDoc) decodes the docID
//     section, seeding the delta chain from the TOC's lastDocs[b-1] so any
//     block decodes independently, and notes where the next section starts;
//   - at decodes the frequency section, into posEnd as a running sum, and the
//     boost section the first time it is asked about the block. A uniform
//     block (boost flag 0, the common case) keeps its one boost value; only a
//     flag-1 block fills the per-posting table;
//   - positionsAt(i) (withPos cursors only) decodes position lists from where
//     the last call stopped up to posting i — the wire carries no per-posting
//     offsets, so reaching posting i means parsing the ones before it, and
//     nothing after it is parsed until someone asks. A cursor that only ever
//     answers findDoc misses parses no position byte.
//
// Block-Max metadata comes through the same two sources: lastDoc(b) and
// blockCap(b) read the heap entry's docs and blocks, or the TOC's block
// boundaries and the block's max-impact header, which a beaten mapped block
// is skipped on without its postings ever being decoded.
//
// Every accessor is total, whatever index it is handed: past the list docAt
// and seek answer noMoreDocs, findDoc a miss, at a posting that scores zero
// and positionsAt nil. A mapped section that does not parse spoils the
// cursor for good: it reads as exhausted from then on. On a CRC-verified file
// no section can fail; on any other the worst outcome is a term that reads
// shorter than it is, never a panic or an out-of-bounds read.
//
// A cursor belongs to exactly one reader, which holds it by value; it is not
// safe for concurrent use (the structures it reads are).
type postingsCursor struct {
	// base is the list index of the run's first posting and n the list's
	// length.
	base, n int
	postingRun
	postingsSource
	// blk is the decoded mapped block, -1 on a heap term, before the first
	// load and once spoiled. posEnd is empty until at decodes the block's
	// frequency section starting at byte off, and off then moves to the
	// position bytes; the positions of the run's first posN postings are
	// decoded (all of them on a heap term), and off is where posting posN's
	// deltas start.
	blk, off, posN int
	withPos, bad   bool
	// ar supplies a mapped cursor's buffers (nil: the heap).
	ar *searchArena
}

// init positions c before the first posting at src; the zero source, an
// absent term's, reads as an empty list. withPos is whether a mapped cursor
// decodes positions, ar where it takes its buffers (nil outside a search).
func (c *postingsCursor) init(src postingsSource, withPos bool, ar *searchArena) {
	n := src.len()
	*c = postingsCursor{postingsSource: src, n: n, blk: -1, withPos: withPos, ar: ar}
	if src.te != nil {
		c.postingRun, c.posN = src.te.postingRun, n
		return
	}
	m := min(n, postingBlockSize)
	c.docs, c.posEnd = ar.int32Buf(m)[:0], ar.uint32Buf(m)[:0]
}

// numBlocks is the list's Block-Max block count.
func (c *postingsCursor) numBlocks() int { return (c.n + postingBlockSize - 1) / postingBlockSize }

// lastDoc is block b's final docID: the Block-Max window boundary.
func (c *postingsCursor) lastDoc(b int) int {
	if c.te != nil {
		return int(c.te.docs[min((b+1)*postingBlockSize, c.n)-1])
	}
	return int(c.t.lastDocs[b])
}

// listCap is the whole list's score-bound inputs.
func (c *postingsCursor) listCap() termCap {
	if c.te != nil {
		return c.te.cap
	}
	return c.t.cap
}

// blockCap is block b's score-bound inputs. A single-block term carries no
// per-block metadata: its only block bound is exactly the term's cap. A
// mapped block's come from its ~20-byte max-impact header, no posting
// decoded.
func (c *postingsCursor) blockCap(b int) termCap {
	if c.te != nil {
		if c.te.blocks == nil {
			return c.te.cap
		}
		return c.te.blocks[b]
	}
	t, raw := c.t, c.f.raw
	if !t.multi {
		return t.cap
	}
	if b < 0 || b >= c.numBlocks() || t.offs[b] < 0 || t.offs[b] > int64(len(raw)) {
		return termCap{maxFreq: math.MaxInt, minLen: 1, maxBoost: math.Inf(1)}
	}
	br := byteReader{b: raw, pos: int(t.offs[b])}
	mf := br.uvarint()
	ml := br.uvarint()
	mb := br.f64()
	if br.bad || mf == 0 || ml == 0 || mf > 1<<24 || ml > 1<<32 {
		// Unreadable header (impossible post-CRC): never prune on it.
		return termCap{maxFreq: math.MaxInt, minLen: 1, maxBoost: math.Inf(1)}
	}
	return termCap{maxFreq: int(mf), minLen: int(ml), maxBoost: mb}
}

// probeBlock returns the first block at or after blk whose last docID
// reaches target, numBlocks() when none does, reading block boundaries only.
func (c *postingsCursor) probeBlock(blk, target int) int {
	lo, hi := blk, c.numBlocks()
	if lo >= hi || c.lastDoc(lo) >= target {
		return lo
	}
	for lo++; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if c.lastDoc(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// shallowProbe moves a maxScoreUpTo probe standing on block blk, for a
// reader at posting i, to the block holding the first posting at or after i
// whose docID reaches target; numBlocks() when there is none. It tracks a
// block, not a posting: the bound and boundary depend only on the block.
func (c *postingsCursor) shallowProbe(blk, i, target int) int {
	if i >= c.n {
		return c.numBlocks()
	}
	if i > 0 {
		blk = max(blk, i/postingBlockSize)
	}
	return c.probeBlock(blk, target)
}

// docAt returns the docID of posting i, loading the mapped block holding it
// when it is outside the current run; noMoreDocs past the end of the list.
func (c *postingsCursor) docAt(i int) int {
	k := i - c.base
	if uint(k) >= uint(len(c.docs)) {
		if i < 0 || !c.load(i/postingBlockSize) {
			return noMoreDocs
		}
		if k = i - c.base; k >= len(c.docs) {
			return noMoreDocs
		}
	}
	return int(c.docs[k])
}

// at returns the (freq, boost) of posting i of the current run, decoding a
// mapped block's frequency and boost section on first use; (0, 0) — a
// posting that scores nothing — for any other index.
func (c *postingsCursor) at(i int) (freq int, boost float64) {
	k := i - c.base
	if uint(k) >= uint(len(c.posEnd)) && !c.loadFreqs(k) {
		return 0, 0
	}
	return c.freq(k), c.boostAt(k)
}

// positionsAt returns the position list of posting i of the current run,
// decoding a mapped block forward to it when it has not been reached yet;
// nil for any other index and on mapped cursors built without positions. A
// mapped list aliases the cursor's buffer: valid until the next load.
func (c *postingsCursor) positionsAt(i int) []int32 {
	k := i - c.base
	if k < 0 || k >= c.posN && !c.loadPositions(k) {
		return nil
	}
	return c.postingRun.positionsAt(k)
}

// seek returns the index and docID of the first posting at or after index
// base whose docID reaches target — (n, noMoreDocs) when there is none. A
// mapped cursor finds the block in the TOC's boundary table, so only the
// docID section of the one block the target lands in is decoded.
func (c *postingsCursor) seek(base, target int) (int, int) {
	if base >= c.n {
		return c.n, noMoreDocs
	}
	base = max(base, 0)
	if c.t != nil && !c.load(c.probeBlock(base/postingBlockSize, target)) {
		return c.n, noMoreDocs
	}
	// A short linear scan for the common advance-by-little case, then
	// binary search for real jumps.
	docs, j := c.docs, max(base-c.base, 0)
	for k := 0; k < 4 && j < len(docs) && int(docs[j]) < target; k++ {
		j++
	}
	if j < len(docs) && int(docs[j]) < target {
		j += 1 + searchInt32(docs[j+1:], target)
	}
	if j >= len(docs) {
		// The end of a heap list; on a mapped one, only reachable when the
		// TOC boundary and the payload disagree (excluded by the envelope
		// CRC): fail closed as exhausted.
		return c.n, noMoreDocs
	}
	return c.base + j, int(docs[j])
}

// findDoc locates doc's posting index, or (-1, false). A mapped cursor's
// block search starts from the current block — a phrase's candidates
// ascend, so the answer is nearly always this block or the next — and falls
// back to the whole boundary table for a doc behind it; only docID sections
// are decoded.
func (c *postingsCursor) findDoc(doc int) (int, bool) {
	if c.t != nil {
		b := max(c.blk, 0)
		if b > 0 && c.lastDoc(b-1) >= doc {
			b = 0
		}
		if !c.load(c.probeBlock(b, doc)) {
			return -1, false
		}
	}
	j := findInt32(c.docs, doc)
	if j < 0 {
		return -1, false
	}
	return c.base + j, true
}

// hasPosition reports whether the term occurs at pos in doc.
func (c *postingsCursor) hasPosition(doc, pos int) bool {
	i, ok := c.findDoc(doc)
	return ok && findInt32(c.positionsAt(i), pos) >= 0
}

// load makes mapped block b the current run by decoding its docID section
// (a no-op when it already is). It returns false on a heap term, whose one
// run is the whole list, for a block the term does not have, and — spoiling
// the cursor — when the bytes do not parse as one.
func (c *postingsCursor) load(b int) bool {
	if c.blk == b {
		return b >= 0
	}
	t := c.t
	if t == nil || c.bad || b < 0 || b >= c.numBlocks() {
		return false
	}
	raw := c.f.raw
	if t.offs[b] < 0 || t.offs[b] > int64(len(raw)) {
		return c.spoil()
	}
	p := int(t.offs[b])
	if t.multi {
		// Skip the max-impact header; bounds are read via blockCap when a
		// scorer needs them, without decoding the block.
		_, p = uvarintAt(raw, p)
		if _, p = uvarintAt(raw, p); p < 0 {
			return c.spoil()
		}
		p += 8
	}
	numDocs := len(c.f.docLen)
	prev := int32(-1)
	if b > 0 {
		prev = t.lastDocs[b-1]
	}
	docs := c.docs[:t.blockLen(b)]
	for k := range docs {
		var d uint64
		if p < len(raw) && raw[p] < 0x80 {
			d, p = uint64(raw[p]), p+1
		} else {
			d, p = uvarintAt(raw, p)
		}
		if p < 0 || d == 0 || d > uint64(numDocs) {
			return c.spoil()
		}
		prev += int32(d)
		if int(prev) >= numDocs {
			return c.spoil()
		}
		docs[k] = prev
	}
	if prev != t.lastDocs[b] {
		// The payload disagrees with the TOC: one of them is corrupt.
		return c.spoil()
	}
	c.blk, c.base, c.off, c.docs = b, b*postingBlockSize, p, docs
	c.posEnd, c.boosts, c.posN = c.posEnd[:0], c.boosts[:0], 0
	return true
}

// spoil marks the cursor corrupt and empties it, so every accessor answers
// as an exhausted cursor would.
func (c *postingsCursor) spoil() bool {
	c.bad, c.blk, c.posN = true, -1, 0
	c.docs, c.posEnd, c.boosts = c.docs[:0], c.posEnd[:0], c.boosts[:0]
	return false
}

// loadFreqs decodes the current mapped block's frequency and boost section
// and reports whether slot k is a posting of the run.
func (c *postingsCursor) loadFreqs(k int) bool {
	if c.blk < 0 || len(c.posEnd) > 0 {
		return uint(k) < uint(len(c.posEnd))
	}
	raw, p := c.f.raw, c.off
	posEnd := c.posEnd[:len(c.docs)]
	total := 0
	for j := range posEnd {
		var f uint64
		if p < len(raw) && raw[p] < 0x80 {
			f, p = uint64(raw[p]), p+1
		} else {
			f, p = uvarintAt(raw, p)
		}
		if p < 0 || f == 0 || f > 1<<24 {
			return c.spoil()
		}
		total += int(f)
		posEnd[j] = uint32(total)
	}
	if p >= len(raw) {
		return c.spoil()
	}
	flag := raw[p]
	p++
	switch {
	case flag == 0 && p+8 <= len(raw):
		c.boost = math.Float64frombits(binary.LittleEndian.Uint64(raw[p:]))
		p += 8
	case flag == 1 && len(posEnd) <= (len(raw)-p)/8:
		if cap(c.boosts) < len(posEnd) {
			c.boosts = c.ar.float64Buf(min(c.n, postingBlockSize))
		}
		c.boosts = c.boosts[:len(posEnd)]
		for j := range c.boosts {
			c.boosts[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[p:]))
			p += 8
		}
	default:
		return c.spoil()
	}
	if c.withPos {
		// Position deltas are at least one byte each, so the remaining
		// region bounds the honest total — a lying freq cannot force an
		// allocation past the bytes that exist.
		if total > len(raw)-p || total > math.MaxInt32 {
			return c.spoil()
		}
		if cap(c.positions) < total {
			c.positions = c.ar.int32Buf(total)
		}
	}
	c.posEnd, c.off = posEnd, p
	return uint(k) < uint(len(posEnd))
}

// loadPositions decodes the current mapped block's position lists up to and
// including slot k's and reports whether they are there to read.
func (c *postingsCursor) loadPositions(k int) bool {
	if !c.withPos || !c.loadFreqs(k) {
		return false
	}
	raw, p := c.f.raw, c.off
	at := c.posStart(c.posN)
	for ; c.posN <= k; c.posN++ {
		pos := -1
		for end := c.posEnd[c.posN]; at < end; at++ {
			var delta uint64
			if p < len(raw) && raw[p] < 0x80 {
				delta, p = uint64(raw[p]), p+1
			} else {
				delta, p = uvarintAt(raw, p)
			}
			if p < 0 || delta == 0 || delta > math.MaxInt32 {
				return c.spoil()
			}
			if pos += int(delta); pos > math.MaxInt32 {
				return c.spoil()
			}
			c.positions[at] = int32(pos)
		}
	}
	c.off = p
	return true
}

// searchInt32 returns the index of the first element of ascending a that
// reaches v, len(a) when none does.
func searchInt32(a []int32, v int) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(a[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findInt32 returns the index of v in ascending a, -1 when it is not there.
func findInt32(a []int32, v int) int {
	if j := searchInt32(a, v); j < len(a) && int(a[j]) == v {
		return j
	}
	return -1
}

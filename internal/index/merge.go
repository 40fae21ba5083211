package index

// Segment merging for the LSM-shaped shard engine: many small immutable
// indexes (a base plus per-ingest-batch segments) are compacted into one,
// dropping tombstoned documents, WITHOUT re-analyzing any text. Postings
// are remapped and concatenated a run of survivors at a time — sources are
// given in ascending global order and each source's posting lists are
// ascending locally, so the merged lists come out ascending by
// construction. The merged index is indistinguishable from a from-scratch
// Add of the surviving documents in the same order: same docID assignment,
// same posting shapes, same score-bound caps (computed exactly), same
// statistics.

import (
	"math"
	"math/bits"
	"slices"
)

// MergeIndexes compacts sources (in order) into one new index, skipping
// tombstoned documents. Surviving documents are renumbered densely in
// source order; the returned remap slices (one per source, -1 for dropped
// documents) let the caller translate old docIDs to merged ones. A heap
// source's stored chunk whose documents all survive is shared by pointer
// (its bytes never change, and neither index appends to it again), a
// mapped source's is copied whole out of one inflate; the survivors of any
// other chunk are copied, as are postings, so nothing later done to a
// source shows in the merged index. No stored document is decoded. The
// merged index is laid out as Seal leaves one: each field's posting
// columns are allocated once at their final lengths, and the chunks the
// merge writes are copied to theirs. Like every index it holds only its
// own counts: a search that should score with corpus-wide statistics
// brings them (see AnalyzeQuery).
//
// dead, when non-nil, supplies a per-source liveness snapshot (see
// DeletedMask) consulted INSTEAD of each source's own tombstone bits —
// the hook that lets a background merge run outside the engine lock
// while concurrent ingests keep tombstoning: the merge works against the
// snapshot, and the caller reconciles documents tombstoned mid-merge by
// re-deleting them on the merged index. A nil dead (or nil dead[i])
// reads the source's live bits, which requires the caller to hold off
// writers for the duration.
func MergeIndexes(sources []*Index, dead [][]bool) (*Index, [][]int) {
	out := New(nil)
	remaps := make([][]int, len(sources))
	if len(sources) == 0 {
		return out, remaps
	}
	out.analyzer = sources[0].analyzer
	out.sim = sources[0].sim

	// Number the survivors first: every table and posting list below is
	// then allocated once at its final size. The output is nearly all a
	// compaction allocates; copies abandoned by append would triple that
	// and start a collection inside most merges.
	numDocs := 0
	whole := make([]bool, len(sources))
	for si, src := range sources {
		isDead := func(id int) bool { return src.numDeleted > 0 && src.deleted[id] }
		if dead != nil && dead[si] != nil {
			mask := dead[si]
			isDead = func(id int) bool { return mask[id] }
		}
		remap := make([]int, src.NumDocs())
		first := numDocs
		for id := range remap {
			if isDead(id) {
				remap[id] = -1
				continue
			}
			remap[id] = numDocs
			numDocs++
		}
		remaps[si], whole[si] = remap, numDocs-first == len(remap)
	}
	out.deleted = make([]bool, numDocs)
	for si, src := range sources {
		if src.mapped == nil {
			for ci, c := range src.stored.chunks {
				out.stored.appendSurvivors(c, remaps[si][src.stored.first[ci]:][:len(c.ends)])
			}
			continue
		}
		// A chunk that does not parse panics: the shard layer checked a
		// mapped region's bytes before mapping them.
		m := src.mapped
		if err := out.stored.readStored(m.raw, m.chunkOffs, m.numDocs, remaps[si]); err != nil {
			panic(err)
		}
	}

	m := fieldMerge{remaps: remaps, whole: whole}
	for si, src := range sources {
		for name := range src.fields {
			if out.fields[name] != nil {
				continue // merged when an earlier source showed it
			}
			if fi := m.merge(name, sources, si, numDocs); fi != nil {
				out.fields[name] = fi
			}
		}
	}
	out.stored.seal()
	return out, remaps
}

// fieldMerge is the merge of one field at a time, with the buffers its
// passes reuse from field to field.
type fieldMerge struct {
	// fields holds each source's copy of the field being merged, nil where
	// it has none, and remaps each source's document remap; whole marks
	// the sources none of whose documents is dropped, whose lists survive
	// in one piece.
	fields []*fieldIndex
	remaps [][]int
	whole  []bool
	fi     *fieldIndex
	// terms are the field's surviving terms in the order they are merged,
	// and spans the stretches of consecutive surviving postings of all of
	// them, each term's in merged order, except in a whole heap source,
	// whose list the copy pass takes as it is. The count pass fills both.
	terms []mergedTerm
	spans []span
	// ar holds the buffers of the cursors that read mapped sources, cleared
	// after every term.
	ar searchArena
}

// mergedTerm is a term of the merged field: its spans m.spans[lo:hi] (the
// copy pass consumes them, moving lo), and n postings and npos positions
// among them and its whole heap sources' lists, whose boosts are bit for
// bit one value unless boosted. The counts fit 32 bits, as the columns they
// size do.
type mergedTerm struct {
	term          string
	boost         float64
	lo, hi        int32
	n, npos       uint32
	boosted, seen bool
}

// span is postings [lo, hi) of source si's list of a term, every one of
// them surviving: r is the list of a heap source, nil for a mapped one,
// whose postings are decoded again when they are copied.
type span struct {
	r          *postingRun
	si, lo, hi int32
}

// merge merges field name of the sources, which no source before sources[si]
// carries, or returns nil when only tombstoned documents carry it: such a
// field does not survive the merge, exactly as a from-scratch build would
// not see it.
func (m *fieldMerge) merge(name string, sources []*Index, si, numDocs int) *fieldIndex {
	m.fields, m.fi = m.fields[:0], nil
	for _, src := range sources {
		m.fields = append(m.fields, src.fields[name])
	}
	// The document table first, through add: its limits on a field's
	// token counts are what keep the position ends below from wrapping.
	hint, sum := 0, 0
	for sj, sfi := range m.fields[si:] {
		if sfi == nil {
			continue
		}
		hint = max(hint, sfi.numTerms())
		if sfi.m != nil || !m.whole[si+sj] {
			sum += sfi.numTerms()
		}
		remap := m.remaps[si+sj]
		for w, word := range sfi.present {
			for ; word != 0; word &= word - 1 {
				id := w<<6 | bits.TrailingZeros64(word)
				nid := remap[id]
				if nid < 0 {
					continue
				}
				if m.fi == nil {
					m.fi = &fieldIndex{docTable: newDocTable(numDocs)}
				}
				m.fi.add(nid, int(sfi.docLen[id]), sfi.boostOf(id))
			}
		}
	}
	if m.fi == nil {
		return nil
	}

	// The count pass: a term is merged where its first source shows it,
	// across that source and every later one. Its survivors are found,
	// counted with their positions and boosts, and kept as spans; a mapped
	// source's list is read without its positions, a term at a time.
	// Until the copy pass a term's key holds nil. A term has a span in
	// each source that carries it and drops a document or is mapped, more
	// only where tombstones split it.
	m.terms, m.spans = slices.Grow(m.terms[:0], hint), slices.Grow(m.spans[:0], sum)
	m.fi.terms = make(map[string]*termEntry, hint)
	for ; si < len(m.fields); si++ {
		if sfi := m.fields[si]; sfi != nil {
			sfi.eachTerm(func(term string, _ postingsSource) {
				if _, ok := m.fi.terms[term]; !ok {
					m.count(term, si)
				}
			})
		}
	}

	// The copy pass: every column of the field is allocated once at its
	// final length, the term entries in one slice, and the sources are
	// copied in order into their terms' windows, a whole heap source's lists
	// as they are and any other's spans. A mapped source's postings are
	// decoded again, so memory stays bounded by a term's list, never the
	// whole field's.
	n, npos, nboost := 0, 0, 0
	for _, mt := range m.terms {
		n, npos = n+int(mt.n), npos+int(mt.npos)
		if mt.boosted {
			nboost += int(mt.n)
		}
	}
	cols := newColumns(n, npos, nboost)
	entries := make([]termEntry, len(m.terms))
	for k, mt := range m.terms {
		entries[k].postingRun = cols.take(int(mt.n), int(mt.npos), mt.boosted)
		m.fi.terms[mt.term] = &entries[k]
	}
	for si, f := range m.fields {
		switch {
		case f == nil:
		case f.m == nil && m.whole[si]:
			for term, r := range f.terms {
				// A list decoded empty adds nothing, and may have no merged
				// term to add it to.
				if len(r.docs) > 0 {
					m.fi.terms[term].appendRun(&r.postingRun, 0, len(r.docs), m.remaps[si])
				}
			}
		default:
			for k := range m.terms {
				mt := &m.terms[k]
				if mt.lo == mt.hi || int(m.spans[mt.lo].si) != si {
					continue
				}
				var c postingsCursor
				if f.m != nil {
					c.init(f.lookup(mt.term), true, &m.ar)
				}
				for ; mt.lo < mt.hi && int(m.spans[mt.lo].si) == si; mt.lo++ {
					if s := m.spans[mt.lo]; s.r != nil {
						entries[k].appendRun(s.r, int(s.lo), int(s.hi), m.remaps[si])
					} else {
						entries[k].appendCursor(&c, int(s.lo), int(s.hi), m.remaps[si])
					}
				}
				m.ar.clear()
			}
		}
	}
	for k := range entries {
		m.fi.setCaps(&entries[k])
	}
	return m.fi
}

// count finds term's surviving postings in sources[si], where the field
// shows it first, and in every later source, and adds the term to m.terms
// and its key to the merged dictionary unless no surviving document
// carries it.
func (m *fieldMerge) count(term string, si int) {
	mt := mergedTerm{term: term, lo: int32(len(m.spans))}
	for ; si < len(m.fields); si++ {
		switch f := m.fields[si]; {
		case f == nil:
		case f.m == nil:
			if te := f.terms[term]; te != nil {
				m.survivors(&mt, &te.postingRun, si)
			}
		default:
			var c postingsCursor
			c.init(f.lookup(term), false, &m.ar)
			m.mappedSurvivors(&mt, &c, si)
			m.ar.clear()
		}
	}
	if mt.n > 0 {
		mt.hi = int32(len(m.spans))
		m.terms = append(m.terms, mt)
		m.fi.terms[term] = nil
	}
}

// survivors adds the stretches of r, heap source si's list, that survive;
// the list of a whole source is counted but given no span.
func (m *fieldMerge) survivors(mt *mergedTerm, r *postingRun, si int) {
	remap, docs := m.remaps[si], r.docs
	for i := 0; i < len(docs); {
		if remap[docs[i]] < 0 {
			i++
			continue
		}
		lo := i
		if m.whole[si] {
			i = len(docs)
		} else {
			for i++; i < len(docs) && remap[docs[i]] >= 0; i++ {
			}
			m.spans = append(m.spans, span{r, int32(si), int32(lo), int32(i)})
		}
		mt.n, mt.npos = mt.n+uint32(i-lo), mt.npos+r.posEnd[i-1]-r.posStart(lo)
		if len(r.boosts) == 0 {
			mt.observe(r.boost)
			continue
		}
		for _, b := range r.boosts[lo:i] {
			mt.observe(b)
		}
	}
}

// mappedSurvivors adds the stretches of c's list, mapped source si's, that
// survive, decoding docIDs, frequencies and boosts. A list that does not
// decode panics: the shard layer checked a mapped region's bytes before
// mapping them.
func (m *fieldMerge) mappedSurvivors(mt *mergedTerm, c *postingsCursor, si int) {
	remap, open := m.remaps[si], false
	for i := 0; i < c.n; i++ {
		d := c.docAt(i)
		freq, boost := c.at(i)
		if freq == 0 {
			panic("index: merging a mapped posting list that does not decode")
		}
		if remap[d] < 0 {
			open = false
			continue
		}
		if !open {
			m.spans = append(m.spans, span{nil, int32(si), int32(i), int32(i)})
			open = true
		}
		m.spans[len(m.spans)-1].hi = int32(i + 1)
		mt.n, mt.npos = mt.n+1, mt.npos+uint32(freq)
		mt.observe(boost)
	}
}

// observe notes one more surviving posting's boost: the term needs a boost
// table once two of them differ bit for bit, setBoost's rule.
func (mt *mergedTerm) observe(boost float64) {
	switch {
	case !mt.seen:
		mt.boost, mt.seen = boost, true
	case math.Float64bits(boost) != math.Float64bits(mt.boost):
		mt.boosted = true
	}
}

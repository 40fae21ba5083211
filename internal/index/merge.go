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

import "math/bits"

// MergeIndexes compacts sources (in order) into one new index, skipping
// tombstoned documents. Surviving documents are renumbered densely in
// source order; the returned remap slices (one per source, -1 for dropped
// documents) let the caller translate old docIDs to merged ones. A heap
// source's stored chunk whose documents all survive is shared by pointer
// (its bytes never change, and neither index appends to it again), a
// mapped source's is copied whole out of one inflate; the survivors of any
// other chunk are copied, as are postings, so nothing later done to a
// source shows in the merged index. No stored document is decoded.
// The merged index carries no corpus stats; the caller installs them.
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
	out.exhaustive = sources[0].exhaustive

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

	m := fieldMerge{remaps: remaps, whole: whole, decoded: make([]postingRun, len(sources))}
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
	return out, remaps
}

// fieldMerge is the merge of one field at a time, with the buffers its term
// loop reuses from term to term and field to field.
type fieldMerge struct {
	// fields holds each source's copy of the field being merged, nil where
	// it has none, and remaps each source's document remap; whole marks
	// the sources none of whose documents is dropped, whose lists survive
	// in one piece.
	fields []*fieldIndex
	remaps [][]int
	whole  []bool
	fi     *fieldIndex
	// decoded holds the term being merged's list in each mapped source,
	// and spans the stretches of consecutive surviving postings in merged
	// order, with n postings and npos positions among them.
	decoded []postingRun
	spans   []span
	n, npos int
}

// span is postings [lo, hi) of r, every one of them surviving, numbered by
// remap.
type span struct {
	r      *postingRun
	remap  []int
	lo, hi int
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
	hint := 0
	for sj, sfi := range m.fields[si:] {
		if sfi == nil {
			continue
		}
		hint = max(hint, sfi.numTerms())
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

	// A term is merged where its first source shows it, across that source
	// and every later one, into columns allocated once at their final
	// lengths. A heap source's list is read in place; a mapped source
	// materializes one term at a time, so memory stays bounded by a term's
	// posting lists, never the whole field.
	m.fi.terms = make(map[string]*termEntry, hint)
	for ; si < len(m.fields); si++ {
		sfi := m.fields[si]
		switch {
		case sfi == nil:
		case sfi.m == nil:
			for term, te := range sfi.terms {
				if m.fi.terms[term] == nil {
					m.term(term, si, &te.postingRun)
				}
			}
		default:
			for term := range sfi.m.terms {
				if m.fi.terms[term] == nil {
					m.decoded[si] = sfi.postingsOf(term)
					m.term(term, si, &m.decoded[si])
				}
			}
		}
	}
	return m.fi
}

// term merges one term, whose list in sources[si] is first and in every
// later source is looked up: survivors are counted, with their positions,
// from the position ends; each stretch of consecutive survivors is then
// copied as one run; and the caps are computed once, off the merged
// columns. A term no surviving document carries is left out.
func (m *fieldMerge) term(term string, si int, first *postingRun) {
	m.spans, m.n, m.npos = m.spans[:0], 0, 0
	m.survivors(first, si)
	for sj := si + 1; sj < len(m.fields); sj++ {
		switch f := m.fields[sj]; {
		case f == nil:
		case f.m == nil:
			if te := f.terms[term]; te != nil {
				m.survivors(&te.postingRun, sj)
			}
		default:
			m.decoded[sj] = f.postingsOf(term)
			m.survivors(&m.decoded[sj], sj)
		}
	}
	if m.n == 0 {
		return
	}
	te := &termEntry{postingRun: newPostingRun(m.n, m.npos)}
	for _, s := range m.spans {
		te.appendRun(s.r, s.lo, s.hi, s.remap)
	}
	m.fi.setCaps(te)
	m.fi.terms[term] = te
}

// survivors adds the stretches of r, source si's list, that survive.
func (m *fieldMerge) survivors(r *postingRun, si int) {
	remap, docs := m.remaps[si], r.docs
	if m.whole[si] {
		if len(docs) > 0 {
			m.spans = append(m.spans, span{r, remap, 0, len(docs)})
			m.n, m.npos = m.n+len(docs), m.npos+int(r.posEnd[len(docs)-1])
		}
		return
	}
	for i := 0; i < len(docs); {
		if remap[docs[i]] < 0 {
			i++
			continue
		}
		lo := i
		for i++; i < len(docs) && remap[docs[i]] >= 0; i++ {
		}
		m.spans = append(m.spans, span{r, remap, lo, i})
		m.n, m.npos = m.n+i-lo, m.npos+int(r.posEnd[i-1]-r.posStart(lo))
	}
}

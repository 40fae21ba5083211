package index

import "strings"

// Corpus-wide statistics for globally-consistent ranking across index
// partitions. A single index scores terms against its own document
// frequencies and lengths; a sharded deployment must not — each shard sees
// only its slice of the corpus, and per-shard IDF would make the same
// document score differently depending on which shard it landed in,
// breaking the merged ranking. The sharded engine therefore exchanges
// statistics after build: every shard exports LocalStats and the engine
// merges them with Merge. The merged view is not installed on any index:
// each search brings it, bound into its query (AnalyzeQuery) and passed to
// LikeThisQuery, so that every Similarity computation (TF-IDF, BM25,
// fuzzy, phrase IDF sums, more-like-this term selection) uses corpus-wide
// df, doc counts and average field lengths. With identical inputs the
// per-shard scores are bit-identical to the single-index scores, so a
// scatter-gather merge reproduces the monolithic ranking exactly.

// FieldStats aggregates one field's collection statistics.
type FieldStats struct {
	// Docs is the number of documents carrying the field.
	Docs int
	// SumLen is the total token count of the field across those documents.
	SumLen int
	// DocFreq maps each term to the number of documents containing it.
	DocFreq map[string]int
}

// AvgLen is the mean field length across documents carrying the field.
func (fs *FieldStats) AvgLen() float64 {
	if fs == nil || fs.Docs == 0 {
		return 0
	}
	return float64(fs.SumLen) / float64(fs.Docs)
}

// CorpusStats carries collection-wide statistics, either exported from a
// single index (LocalStats) or merged across partitions (Merge).
type CorpusStats struct {
	// Docs is the total document count.
	Docs int
	// Fields maps field name to its aggregated statistics.
	Fields map[string]*FieldStats
}

// NewCorpusStats returns empty statistics ready for merging.
func NewCorpusStats() *CorpusStats {
	return &CorpusStats{Fields: map[string]*FieldStats{}}
}

// DocFreq returns the corpus-wide document frequency of a term in a field.
func (cs *CorpusStats) DocFreq(field, term string) int {
	fs := cs.Fields[field]
	if fs == nil {
		return 0
	}
	return fs.DocFreq[term]
}

// Merge folds another partition's statistics into cs. Partitions must be
// disjoint document sets for the result to be meaningful.
func (cs *CorpusStats) Merge(o *CorpusStats) {
	if o == nil {
		return
	}
	cs.Docs += o.Docs
	for name, ofs := range o.Fields {
		fs := cs.Fields[name]
		if fs == nil {
			fs = &FieldStats{DocFreq: map[string]int{}}
			cs.Fields[name] = fs
		}
		fs.Docs += ofs.Docs
		fs.SumLen += ofs.SumLen
		for t, df := range ofs.DocFreq {
			fs.DocFreq[t] += df
		}
	}
}

// Remove subtracts one partition's (or one document's) statistics from
// cs — the tombstone-time inverse of Merge. All counters are integers, so
// any interleaving of Merge and Remove calls lands on exactly the state a
// from-scratch recompute over the surviving documents would produce:
// entries that reach zero are deleted, matching LocalStats, which never
// emits zero-df terms or fields carried only by dead documents.
func (cs *CorpusStats) Remove(o *CorpusStats) {
	if o == nil {
		return
	}
	cs.Docs -= o.Docs
	for name, ofs := range o.Fields {
		fs := cs.Fields[name]
		if fs == nil {
			continue
		}
		fs.Docs -= ofs.Docs
		fs.SumLen -= ofs.SumLen
		for t, df := range ofs.DocFreq {
			if n := fs.DocFreq[t] - df; n > 0 {
				fs.DocFreq[t] = n
			} else {
				delete(fs.DocFreq, t)
			}
		}
		if fs.Docs <= 0 {
			delete(cs.Fields, name)
		}
	}
}

// LocalStats exports the index's own statistics — one partition's
// contribution to the corpus-wide exchange. Tombstoned documents are
// excluded: the result equals what a from-scratch index over only the
// live documents would export.
func (ix *Index) LocalStats() *CorpusStats {
	if ix.numDeleted == 0 {
		// Clean path: per-term document frequencies are the posting counts,
		// which a mapped index answers from its TOC — no block decoded, so
		// the load-time stats exchange stays O(vocabulary), not O(postings).
		cs := &CorpusStats{Docs: ix.NumDocs(), Fields: make(map[string]*FieldStats, len(ix.fields))}
		for name, fi := range ix.fields {
			fs := &FieldStats{
				Docs:    fi.docCount,
				SumLen:  fi.sumLen,
				DocFreq: make(map[string]int, fi.numTerms()),
			}
			fi.eachTerm(func(t string, src postingsSource) { fs.DocFreq[t] = src.len() })
			cs.Fields[name] = fs
		}
		return cs
	}
	cs := &CorpusStats{Docs: ix.LiveDocs(), Fields: make(map[string]*FieldStats, len(ix.fields))}
	var c postingsCursor
	for name, fi := range ix.fields {
		fs := &FieldStats{DocFreq: map[string]int{}}
		fi.eachDocLen(func(id, l int) {
			if !ix.deleted[id] {
				fs.Docs++
				fs.SumLen += l
			}
		})
		if fs.Docs == 0 {
			continue // the field survives only on tombstoned documents
		}
		// Tombstone-aware export must count live postings per term, run by
		// run; on a mapped field that decodes each term's docID sections
		// once. This path only runs when stats are recomputed over an index
		// with pending tombstones — not at load, where indexes are clean. A
		// spoiled block ends its term's walk (see postingsCursor): the term
		// reads as shorter, which on a CRC-verified file cannot happen.
		fi.eachTerm(func(t string, src postingsSource) {
			c.init(src, false, nil)
			df := 0
			for i := 0; c.docAt(i) != noMoreDocs; i += len(c.docs) {
				for _, d := range c.docs {
					if !ix.deleted[d] {
						df++
					}
				}
			}
			if df > 0 {
				fs.DocFreq[t] = df
			}
		})
		cs.Fields[name] = fs
	}
	return cs
}

// DocStats computes one stored document's statistics contribution — what
// removing it must subtract from the corpus-wide view. It re-analyzes the
// stored field text with the index's own analyzer, so the result is
// exactly what Add contributed when the document was indexed. It returns
// nil for a docID the index does not hold.
func (ix *Index) DocStats(id int) *CorpusStats {
	cs := NewCorpusStats()
	if !ix.AddDocStats(cs, id, new(Scratch)) {
		return nil
	}
	return cs
}

// AddDocStats adds one stored document's statistics contribution to cs, so a
// caller tombstoning many documents subtracts their sum once instead of
// building a CorpusStats apiece (integer adds commute). It reports whether
// the index holds the document. It builds no Document and caches none (a
// batch of upserts tombstones whole pages of documents nobody is serving):
// it walks the document's fields over its chunk's bytes, their texts slices
// of one string copied from them. On a mapped index the chunk is inflated
// into sc, which keeps it for the next call: a caller summing documents in
// docID order inflates each chunk once. It analyzes with sc, not with the
// index's own state, and reads the index only: calls with distinct scratches
// may run beside each other and beside searches, but not beside Add or
// Delete on the same index.
func (ix *Index) AddDocStats(cs *CorpusStats, id int, sc *Scratch) bool {
	if id < 0 || id >= ix.NumDocs() {
		return false
	}
	var c *storedChunk
	k := id % storedChunkDocs
	if m := ix.mapped; m == nil {
		c, k = ix.stored.locate(id)
	} else if c = sc.mappedChunk(m, id); c == nil {
		return false
	}
	r := c.fields(k)
	all := string(r.b)
	sc.beginDoc()
	cs.Docs++
	for pos := 0; ; pos++ {
		name, text, _, ok := r.next()
		if !ok {
			return true
		}
		if len(name) > 0 && name[0] == '_' {
			continue
		}
		// df and Docs count documents, not occurrences or values: a field
		// is counted at its first value in the document, a term at its
		// first occurrence in the field.
		f := sc.docField(cs, pos, name)
		for _, t := range sc.analyze(ix.analyzer, all[r.at:r.at+len(text)]) {
			f.stats.SumLen++
			if sc.firstInDoc(f, t) {
				f.stats.DocFreq[t]++
			}
		}
	}
}

// mappedChunk returns the chunk of m holding document id, in [0, numDocs):
// the one sc holds when it is that chunk, else the chunk inflated and its
// bytes copied into sc's buffer, so that summing a page of documents
// inflates each of its chunks once and sc keeps nothing of the mapping. It
// returns nil when the chunk does not parse.
func (sc *Scratch) mappedChunk(m *mappedIndex, id int) *storedChunk {
	of := [2]uint64{m.open, uint64(id / storedChunkDocs)}
	if sc.chunk != nil && sc.chunkOf == of {
		return sc.chunk
	}
	var buf []byte
	if sc.chunk != nil {
		buf = sc.chunk.data[:0]
	}
	in := inflaters.Get().(*inflater)
	defer in.release()
	sc.inflates++
	c := new(storedChunk)
	if !m.chunk(id, in, c) {
		sc.chunk = nil
		return nil
	}
	c.data = append(buf, c.data...)
	sc.chunk, sc.chunkOf = c, of
	return c
}

// fieldTerms is what AddDocStats keeps of one field from one document to
// the next. slots numbers the terms met in the field, and counted[i] is
// the number of the document term i was last counted for; doc is the
// document the field was last counted for, and stats its statistics in
// the CorpusStats that document is summed into.
type fieldTerms struct {
	name    string
	slots   map[string]int32
	counted []uint64
	doc     uint64
	stats   *FieldStats
}

// termsMax bounds the terms a Scratch numbers for AddDocStats, under a
// megabyte; past the bound the next document starts the numbering over.
const termsMax = 1 << 14

// beginDoc starts AddDocStats's next document, with no field or term
// counted for it yet. The terms stay numbered from one document to the
// next, so a term the documents share is entered once, not once per
// document.
func (sc *Scratch) beginDoc() {
	sc.doc++
	if sc.fieldTerms == nil || sc.numTerms > termsMax {
		sc.fieldTerms, sc.numTerms, sc.byPos = make(map[string]*fieldTerms), 0, sc.byPos[:0]
	}
}

// docField returns what AddDocStats keeps of the field named name, which
// the document's value at position pos carries, and counts the document
// for the field the first time the field comes up in it. Documents of one
// layout find each field at its value's position, with no map lookup.
func (sc *Scratch) docField(cs *CorpusStats, pos int, name string) *fieldTerms {
	for pos >= len(sc.byPos) {
		sc.byPos = append(sc.byPos, nil)
	}
	ft := sc.byPos[pos]
	if ft == nil || ft.name != name {
		if ft = sc.fieldTerms[name]; ft == nil {
			// name may point into the document's stored bytes, which the
			// map must not keep alive; so may a term.
			ft = &fieldTerms{name: strings.Clone(name), slots: make(map[string]int32)}
			sc.fieldTerms[ft.name] = ft
		}
		sc.byPos[pos] = ft
	}
	if ft.doc != sc.doc {
		ft.doc, ft.stats = sc.doc, cs.Fields[name]
		if ft.stats == nil {
			ft.stats = &FieldStats{DocFreq: map[string]int{}}
			cs.Fields[ft.name] = ft.stats
		}
		ft.stats.Docs++
	}
	return ft
}

// firstInDoc reports whether the current document has not been counted for
// term t in field ft yet, and marks it counted.
func (sc *Scratch) firstInDoc(ft *fieldTerms, t string) bool {
	i, ok := ft.slots[t]
	if !ok {
		i = int32(len(ft.counted))
		ft.slots[strings.Clone(t)] = i
		ft.counted = append(ft.counted, 0)
		sc.numTerms++
	}
	if ft.counted[i] == sc.doc {
		return false
	}
	ft.counted[i] = sc.doc
	return true
}

// termStats is what the ranking formulas read about one term: its document
// frequency, the document count and the average length of its field.
type termStats struct {
	df, numDocs int
	avgLen      float64
}

// termStats gathers a term's scoring statistics in one walk: from g, the
// corpus-wide view a search brings, or from the index's own counts when g
// is nil.
func (ix *Index) termStats(g *CorpusStats, field, term string) termStats {
	if g != nil {
		fs := g.Fields[field]
		if fs == nil {
			return termStats{numDocs: g.Docs}
		}
		return termStats{df: fs.DocFreq[term], numDocs: g.Docs, avgLen: fs.AvgLen()}
	}
	st := termStats{numDocs: ix.NumDocs()}
	if fi := ix.fields[field]; fi != nil {
		st.df, st.avgLen = fi.lookup(term).len(), fi.avgLen()
	}
	return st
}

// idf is the classic Lucene inverse document frequency, 1 + ln(N / (df + 1)).
func (st termStats) idf() float64 {
	return 1 + ln(float64(st.numDocs)/float64(st.df+1))
}

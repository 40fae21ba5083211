package index

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// postingBlockSize is the number of postings per Block-Max block: posting
// lists are carved into fixed runs of this many entries, each carrying its
// own score-bound inputs (termCap), so the DAAT kernel can skip whole
// blocks — not just whole terms — against the collector's threshold. 128
// matches the codec's on-disk block size (Lucene's choice), small enough
// that a block's bound is much tighter than the term's, large enough that
// the metadata is negligible next to the postings it covers.
const postingBlockSize = 128

// fieldIndex is the inverted index of a single field.
type fieldIndex struct {
	// terms is the heap term dictionary: one entry per term, found with one
	// probe by Add and by the scorers alike.
	terms map[string]*termEntry
	// docTable holds the field's per-document lengths and boosts. A mapped
	// field shares its mappedField's tables, so the readers below never ask
	// which storage mode they are in.
	docTable
	// m, when set, is the mapped (zero-copy) postings view: terms stays
	// empty and postings come from the byte region through the same
	// postingsCursor the heap entries are read with (postings.go).
	m *mappedField
	// nbrs is the dictionary laid out for fuzzy expansion (neighbours.go):
	// published by the first expansion, dropped by an Add that creates a
	// term. Merge, Decode and OpenMapped leave it unset.
	nbrs atomic.Pointer[neighbours]
}

// termEntry is everything the heap index keeps about one term of one field:
// its posting list as one postingRun the length of the list — the shape a
// postingsCursor hands every reader, from a mapped block's decode as from
// here — and the list's score-bound inputs.
type termEntry struct {
	postingRun
	// cap tracks the term's score-bound inputs for MaxScore pruning,
	// maintained incrementally by Add and rebuilt exactly on load and merge.
	cap termCap
	// blocks tracks per-block score-bound inputs once the term spans more
	// than one posting block (block i covers postings
	// [i*postingBlockSize, (i+1)*postingBlockSize)). A single-block term
	// carries none: its only block bound is exactly cap. Maintained
	// incrementally by Add, read from snapshots, rebuilt from the
	// postings on merge.
	blocks []termCap
}

// termCap records the inputs from which a term's score upper bound is
// derived at query time: the largest within-document frequency, the
// shortest document carrying the term (tracked conservatively — a
// multi-valued field observed mid-growth only shrinks the bound's length,
// which loosens, never invalidates, the cap), and the largest posting
// boost.
type termCap struct {
	maxFreq  int
	minLen   int
	maxBoost float64
}

// docTable is a field's per-document table, indexed by docID: how many
// tokens of the field each document has and at what boost they were
// indexed. present marks the documents that carry the field at all, which
// is not the same as a positive length: a value that analyzes to no terms
// still counts in the average length's denominator and in the codec's
// entry count. The length table is dense because the traffic is (every
// document of the semantic index carries every indexed field); a field
// most documents lack would waste 4 bytes per document that lacks it. No
// scorer reads the boosts (a score takes the posting's boost); Encode and
// a merge do. They follow postingRun's rule: one value while every
// document carrying the field was indexed at the same boost, bit for bit,
// and a dense column from the first write that differs.
type docTable struct {
	docLen  []int32
	present []uint64
	// boost is the boost every document carrying the field was indexed at
	// while boosts is nil; boosts, once set, holds one per docID (0 for a
	// document without the field) and boost means nothing.
	boost  float64
	boosts []float64
	// docCount is the number of documents carrying the field and sumLen
	// their total token count, for the average field length.
	docCount int
	sumLen   int
}

// newDocTable returns an empty table covering docIDs [0, numDocs).
func newDocTable(numDocs int) docTable {
	return docTable{
		docLen:  make([]int32, numDocs),
		present: make([]uint64, (numDocs+63)/64),
	}
}

// add records n more tokens of the field on document id, indexed at boost
// (the last write wins), growing the table to cover id. It returns the
// field's length on the document before them: the position a multi-valued
// field continues from, 0 for a document's first value. Every write to a
// field comes through here before any posting of it, so this is where the
// limits of the 32-bit posting columns (see Add) panic instead of wrapping.
func (t *docTable) add(id, n int, boost float64) int {
	if id >= math.MaxInt32 {
		panic("index: Add on a segment holding math.MaxInt32 documents")
	}
	base := t.lengthOf(id)
	if base+n > math.MaxInt32 || t.sumLen+n > math.MaxUint32 {
		panic("index: Add takes a field past math.MaxInt32 tokens on a document or math.MaxUint32 in its segment")
	}
	for len(t.docLen) <= id {
		t.docLen = append(t.docLen, 0)
		if t.boosts != nil {
			t.boosts = append(t.boosts, 0)
		}
	}
	for len(t.present) <= id>>6 {
		t.present = append(t.present, 0)
	}
	if !t.hasEntry(id) {
		t.present[id>>6] |= 1 << (id & 63)
		t.docCount++
	}
	t.docLen[id] = int32(base + n)
	t.setBoost(id, boost)
	t.sumLen += n
	return base
}

// setBoost records that document id, which carries the field, was indexed
// at boost. While id is the only such document its boost is the one value.
func (t *docTable) setBoost(id int, boost float64) {
	switch {
	case t.boosts != nil:
		t.boosts[id] = boost
	case t.docCount == 1:
		t.boost = boost
	case math.Float64bits(boost) != math.Float64bits(t.boost):
		t.boosts = make([]float64, len(t.docLen))
		t.eachDocLen(func(d, _ int) { t.boosts[d] = t.boost })
		t.boosts[id] = boost
	}
}

// boostOf is the boost the field was indexed at on the document (0 without
// the field).
func (t *docTable) boostOf(id int) float64 {
	switch {
	case !t.hasEntry(id):
		return 0
	case t.boosts != nil:
		return t.boosts[id]
	}
	return t.boost
}

// hasEntry reports whether the document carries the field.
func (t *docTable) hasEntry(id int) bool {
	return id >= 0 && id < len(t.docLen) && t.present[id>>6]&(1<<(id&63)) != 0
}

// lengthOf is the field's token count on the document (0 without the field).
func (t *docTable) lengthOf(id int) int {
	if id < 0 || id >= len(t.docLen) {
		return 0
	}
	return int(t.docLen[id])
}

// eachDocLen visits every document carrying the field, docID ascending.
func (t *docTable) eachDocLen(fn func(id, l int)) {
	for w, word := range t.present {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			fn(id, int(t.docLen[id]))
		}
	}
}

// uniformBoost reports whether every document carrying the field was
// indexed at the same boost, bit for bit, and that boost — the one-value
// case of the codec's boost table. While the column is collapsed the
// answer is the stored value; a dense column is scanned, since the
// documents that differed may have been rewritten to agree.
func (t *docTable) uniformBoost() (uniform bool, first float64) {
	if t.boosts == nil {
		return true, t.boost
	}
	uniform, seen := true, false
	t.eachDocLen(func(id, _ int) {
		if !seen {
			first, seen = t.boosts[id], true
		} else if math.Float64bits(t.boosts[id]) != math.Float64bits(first) {
			uniform = false
		}
	})
	return uniform, first
}

// avgLen is the mean field length across documents carrying the field.
func (t *docTable) avgLen() float64 {
	if t.docCount == 0 {
		return 0
	}
	return float64(t.sumLen) / float64(t.docCount)
}

// newFieldIndex returns an empty single-field inverted index.
func newFieldIndex() *fieldIndex {
	return &fieldIndex{terms: make(map[string]*termEntry)}
}

// numTerms is the distinct-term count whatever the storage mode.
func (fi *fieldIndex) numTerms() int {
	if fi.m != nil {
		return len(fi.m.terms)
	}
	return len(fi.terms)
}

// eachTerm visits every term of the field with where its postings live, in
// no particular order, touching neither a heap entry nor a mapped block.
func (fi *fieldIndex) eachTerm(fn func(term string, src postingsSource)) {
	if fi.m != nil {
		for t, mt := range fi.m.terms {
			fn(t, postingsSource{f: fi.m, t: mt})
		}
		return
	}
	for t, te := range fi.terms {
		fn(t, postingsSource{te: te})
	}
}

// termNames returns the unsorted term dictionary keys.
func (fi *fieldIndex) termNames() []string {
	out := make([]string, 0, fi.numTerms())
	fi.eachTerm(func(t string, _ postingsSource) { out = append(out, t) })
	return out
}

// Index is an in-memory inverted index over documents with analyzed fields,
// the stand-in for a Lucene index. Build it once with Add, then search; it
// is not safe for concurrent mutation but safe for concurrent searching,
// mirroring the paper's offline-build / online-query discipline.
type Index struct {
	analyzer Analyzer
	sim      Similarity
	fields   map[string]*fieldIndex
	// stored holds a heap index's documents as bytes (stored.go).
	stored storedRegion
	// deleted marks tombstoned documents (Lucene's liveDocs, inverted).
	// Postings are never rewritten; the collect points in Search and
	// ExhaustiveSearch skip dead docIDs instead, and a merge drops them.
	deleted    []bool
	numDeleted int
	// mapped, when set, means this index serves from a mapped byte region
	// (OpenMapped): ix.stored stays empty, stored documents decode out of
	// the region one at a time, and ix.fields carry mappedField views. The
	// index is read-only except for tombstones.
	mapped *mappedIndex

	// w and one are Add's analysis state (see Scratch) and its
	// one-document batch, reused from call to call until Seal drops them;
	// searches read neither.
	w   Scratch
	one fieldBatch
}

// Scratch is the write path's reusable analysis state. memo maps a raw token
// to the term a StandardAnalyzer normalizes it to ("" for a dropped
// stopword), so the lowercase, stopword and stemmer work runs once per
// distinct token rather than once per occurrence; std is the analyzer
// settings the memo was filled under, and analysis under other settings
// starts it afresh. termBuf is the reused analysis output. For
// AddDocStats, fieldTerms holds what it keeps of each field, by name and
// at byPos by the position of the value it was last met at, numTerms
// counts the terms numbered, and doc numbers the current document; chunk
// is its last mapped chunk. An Index keeps one for Add; AddDocs' field
// calls and AddDocStats take their caller's, so calls over one index may
// run side by side, each with its own. One Scratch serves one call at a
// time. The zero value is ready to use.
type Scratch struct {
	std        StandardAnalyzer
	memo       map[string]string
	termBuf    []string
	fieldTerms map[string]*fieldTerms
	byPos      []*fieldTerms
	numTerms   int
	doc        uint64
	// chunk is the mapped stored chunk AddDocStats inflated last, its bytes
	// copied onto the heap, and chunkOf says which: the mapping's open and
	// the chunk's number. inflates counts the chunks inflated.
	chunk    *storedChunk
	chunkOf  [2]uint64
	inflates int
}

// The write-path memo holds at most memoMaxEntries tokens of at most
// memoMaxToken bytes, which bounds it under 100 KB however hostile the
// text; tokens beyond either bound are normalized directly every time.
const (
	memoMaxEntries = 1536
	memoMaxToken   = 16
)

// New returns an empty index using the analyzer for every field and the
// classic TF-IDF similarity.
func New(a Analyzer) *Index {
	if a == nil {
		a = StandardAnalyzer{}
	}
	return &Index{analyzer: a, sim: ClassicTFIDF{}, fields: make(map[string]*fieldIndex)}
}

// SetSimilarity swaps the ranking function (e.g. for the BM25 ablation).
// Must be called before searching; it does not affect indexed data.
func (ix *Index) SetSimilarity(s Similarity) { ix.sim = s }

// Analyzer returns the index's analyzer, which query parsers must reuse so
// query terms and index terms agree.
func (ix *Index) Analyzer() Analyzer { return ix.analyzer }

// Add indexes the document and returns its docID. Fields whose name starts
// with '_' are stored but not indexed — the semantic index uses them to
// carry evaluation metadata without polluting the term space. DocIDs,
// positions and position offsets are stored in 32 bits: Add panics on a
// segment that already holds math.MaxInt32 documents, and on a value that
// takes the document's field past math.MaxInt32 tokens (or the field past
// math.MaxUint32 in the segment), as it does on a mapped index. The index
// keeps no reference to d: it stores d's fields as bytes, so changing d
// afterwards changes nothing in the index. Add is AddDocs of one document,
// its fields indexed one after another with the index's own Scratch.
func (ix *Index) Add(d *Document) int {
	b := &ix.one
	b.docs = append(b.docs[:0], d)
	ix.appendDocs(b)
	ix.stored.add(d)
	for i := range b.fields {
		b.indexField(i, &ix.w)
	}
	b.docs[0] = nil
	return b.first
}

// AddDocs appends docs to the index, docs[k] at docID NumDocs()+k, and
// builds exactly the index one Add per document in order builds, byte for
// byte. It chains the documents' indexed values field by field, then does
// the rest through run, one claim per distinct indexed field the documents
// carry plus one claim that stores all their bytes: run is called once
// with n, the number of claims, and must call index(i, sc) once for every
// i in [0, n), each call with a Scratch no other running call holds, and
// return once they all have. Claims share no state, so run may make the
// calls in any order and on as many goroutines as it likes; the index
// starts none. Claim 0 is the one with the most text and the rest follow
// by falling text, so a run that claims in order starts the longest first.
// Until run returns the index must not be read or written. The limits and
// the no-reference rule are Add's.
func (ix *Index) AddDocs(docs []*Document, run func(n int, index func(i int, sc *Scratch))) {
	b := &fieldBatch{docs: docs}
	ix.appendDocs(b)
	// size[i] is field i's text bytes, and the last entry, the stored
	// bytes' claim, every field's; order[k] is claim k's entry.
	size := make([]int, len(b.fields)+1)
	for i := range b.fields {
		for j := b.head[i]; j >= 0; j = b.vals[j].next {
			v := b.vals[j]
			size[i] += len(docs[v.doc].Fields[v.field].Text)
		}
	}
	for _, d := range docs {
		for _, f := range d.Fields {
			size[len(b.fields)] += len(f.Text)
		}
	}
	order := make([]int, len(size))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(size[y], size[x]) })
	run(len(order), func(k int, sc *Scratch) {
		if i := order[k]; i < len(b.fields) {
			b.indexField(i, sc)
			return
		}
		for _, d := range docs {
			ix.stored.add(d)
		}
	})
}

// fieldBatch is documents whose bytes an index stores and whose fields are
// still to be indexed (appendDocs), one field at a time (indexField).
type fieldBatch struct {
	ix   *Index
	docs []*Document
	// first is docs[0]'s docID.
	first int
	// fields are the distinct indexed fields the documents carry, in the
	// order they first appear. vals holds every indexed value, document by
	// document and value by value; head[i] is field i's first value and
	// each value's next its field's next one (-1: none). tail is field i's
	// last value while the chains are built.
	fields     []*fieldIndex
	head, tail []int32
	vals       []fieldValue
	// names[v] and slots[v] are the name of the last document's value v
	// and the batch field it went to (-1 for a stored-only field): a value
	// at the same position under the same name goes there too, so a batch
	// of documents with one field layout resolves each name once.
	names []string
	slots []int32
}

// fieldValue is one indexed value of a fieldBatch: Fields[field] of
// docs[doc], and the next value of the same field.
type fieldValue struct {
	doc, field, next int32
}

// appendDocs grows the tombstone bits over b.docs and chains their indexed
// values field by field, creating the fields the index has not seen. The
// caller stores their bytes.
func (ix *Index) appendDocs(b *fieldBatch) {
	if ix.mapped != nil {
		// The mapped region is immutable; fresh writes belong in a new
		// (heap) segment — the LSM write side the shard layer runs.
		panic("index: Add on a mapped index")
	}
	b.ix, b.first = ix, ix.stored.n
	b.fields, b.head, b.tail, b.vals = b.fields[:0], b.head[:0], b.tail[:0], b.vals[:0]
	b.names, b.slots = b.names[:0], b.slots[:0]
	for k, d := range b.docs {
		ix.deleted = append(ix.deleted, false)
		for vi := range d.Fields {
			name := d.Fields[vi].Name
			if vi == len(b.names) {
				b.names, b.slots = append(b.names, name), append(b.slots, b.slot(name))
			} else if b.names[vi] != name {
				b.names[vi], b.slots[vi] = name, b.slot(name)
			}
			i := b.slots[vi]
			if i < 0 {
				continue
			}
			j := int32(len(b.vals))
			if b.head[i] < 0 {
				b.head[i] = j
			} else {
				b.vals[b.tail[i]].next = j
			}
			b.tail[i] = j
			b.vals = append(b.vals, fieldValue{doc: int32(k), field: int32(vi), next: -1})
		}
	}
}

// slot returns the batch field the values named name go to, adding the
// field to the batch, and to the index, when it is new; -1 for a
// stored-only field.
func (b *fieldBatch) slot(name string) int32 {
	if len(name) > 0 && name[0] == '_' {
		return -1
	}
	fi := b.ix.fields[name]
	if fi == nil {
		fi = newFieldIndex()
		b.ix.fields[name] = fi
	}
	if i := slices.Index(b.fields, fi); i >= 0 {
		return int32(i)
	}
	b.fields, b.head, b.tail = append(b.fields, fi), append(b.head, -1), append(b.tail, -1)
	return int32(len(b.fields) - 1)
}

// indexField indexes every value of b's i-th field, document by document
// and value by value, analysing with sc: the one place postings are
// appended. A field's later value on a document continues its earlier
// values' positions.
func (b *fieldBatch) indexField(i int, sc *Scratch) {
	fi := b.fields[i]
	for j := b.head[i]; j >= 0; j = b.vals[j].next {
		v := b.vals[j]
		f, id := &b.docs[v.doc].Fields[v.field], b.first+int(v.doc)
		boost := f.Boost
		if boost == 0 {
			boost = 1
		}
		terms := sc.analyze(b.ix.analyzer, f.Text)
		base := fi.add(id, len(terms), boost)
		dlen := base + len(terms)
		for pos, term := range terms {
			te := fi.terms[term]
			if te == nil {
				te = &termEntry{cap: termCap{minLen: dlen, maxBoost: boost}}
				fi.terms[term] = te
				// A build creates terms all the time and searches none:
				// skip the atomic store while nothing is set.
				if fi.nbrs.Load() != nil {
					fi.nbrs.Store(nil)
				}
			}
			n := len(te.docs)
			if n == 0 || te.docs[n-1] != int32(id) {
				// A later value of the field keeps the posting its first
				// value opened, boost included.
				te.appendPosting(id, boost)
				n++
			}
			te.positions = append(te.positions, int32(base+pos))
			te.endPosting()
			// Keep the term's score-bound inputs current for the posting
			// just written.
			freq, pboost := te.freq(n-1), te.boostAt(n-1)
			te.cap.observe(freq, dlen, pboost)
			if n > postingBlockSize {
				te.observeBlock(fi, freq, dlen, pboost)
			}
		}
	}
}

// analyze is the analysis Add and AddDocStats run: an's Analyze, with a
// StandardAnalyzer's per-token work memoised. The result aliases a buffer
// the next call overwrites.
func (sc *Scratch) analyze(an Analyzer, text string) []string {
	a, ok := an.(StandardAnalyzer)
	if !ok {
		return an.Analyze(text)
	}
	if a != sc.std {
		clear(sc.memo)
		sc.std = a
	}
	tokens := appendTokens(sc.termBuf[:0], text)
	sc.termBuf = tokens
	out := tokens[:0]
	for _, tok := range tokens {
		term, seen := sc.memo[tok]
		if !seen {
			if len(sc.memo) < memoMaxEntries && len(tok) <= memoMaxToken {
				if sc.memo == nil {
					sc.memo = make(map[string]string)
				}
				// The clone keeps the memo from pinning the document text.
				tok = strings.Clone(tok)
				term = a.normalize(tok)
				sc.memo[tok] = term
			} else {
				term = a.normalize(tok)
			}
		}
		if term != "" {
			out = append(out, term)
		}
	}
	return out
}

// NumDocs returns the number of indexed documents, including tombstoned
// ones — it is the docID space size, not the live count (see LiveDocs).
func (ix *Index) NumDocs() int {
	if ix.mapped != nil {
		return ix.mapped.numDocs
	}
	return ix.stored.n
}

// Delete tombstones a document: it stops matching queries immediately but
// keeps its docID and its stored bytes (AddDocStats reads them to take the
// document's statistics out of a corpus view) until a merge drops it.
// Reports whether the document was newly deleted. Like Add, not safe
// against concurrent searches.
func (ix *Index) Delete(id int) bool {
	if id < 0 || id >= ix.NumDocs() {
		return false
	}
	// Decoded snapshots carry no tombstones and leave the slice unsized;
	// grow it on the first delete after a load.
	if len(ix.deleted) < ix.NumDocs() {
		ix.deleted = append(ix.deleted, make([]bool, ix.NumDocs()-len(ix.deleted))...)
	}
	if ix.deleted[id] {
		return false
	}
	ix.deleted[id] = true
	ix.numDeleted++
	return true
}

// IsDeleted reports whether the document is tombstoned.
func (ix *Index) IsDeleted(id int) bool {
	return id >= 0 && id < len(ix.deleted) && ix.deleted[id]
}

// NumDeleted returns the tombstone count.
func (ix *Index) NumDeleted() int { return ix.numDeleted }

// DeletedMask returns a copy of the tombstone bits — the liveness
// snapshot a background merge works against (see MergeIndexes).
func (ix *Index) DeletedMask() []bool {
	if len(ix.deleted) == 0 {
		return nil
	}
	return append([]bool(nil), ix.deleted...)
}

// LiveDocs returns the number of documents that still match queries.
func (ix *Index) LiveDocs() int { return ix.NumDocs() - ix.numDeleted }

// Stats summarizes index size.
type Stats struct {
	// Docs is the document count, including tombstoned documents.
	Docs int
	// Deleted is the tombstone count awaiting a merge.
	Deleted int
	// Fields is the number of distinct indexed fields.
	Fields int
	// Terms is the total distinct (field, term) pairs.
	Terms int
	// Postings is the total posting count across all terms.
	Postings int
}

// Stats computes the index size summary by walking the term dictionaries
// (posting counts come from the TOC on a mapped index — no decode).
func (ix *Index) Stats() Stats {
	s := Stats{Docs: ix.NumDocs(), Deleted: ix.numDeleted, Fields: len(ix.fields)}
	for _, fi := range ix.fields {
		fi.eachTerm(func(_ string, src postingsSource) {
			s.Terms++
			s.Postings += src.len()
		})
	}
	return s
}

// Doc returns the stored document for a docID, nil outside [0, NumDocs).
// A heap index decodes it afresh from its chunk's bytes on every call and
// keeps nothing; the caller owns the result. A mapped index inflates the
// document's chunk on first access and caches the decode in the chunk's
// docCache; that result is shared by every caller and is read-only. No
// search calls Doc: a hit reads its document only when its holder asks
// (semindex.Hit).
func (ix *Index) Doc(id int) *Document {
	if id < 0 || id >= ix.NumDocs() {
		return nil
	}
	m := ix.mapped
	if m == nil {
		c, k := ix.stored.locate(id)
		return c.decode(k)
	}
	p := &m.docs[id/storedChunkDocs]
	if p.Load() == nil {
		p.CompareAndSwap(nil, new(docCache))
	}
	slot := &p.Load()[id%storedChunkDocs]
	if d := slot.Load(); d != nil {
		return d
	}
	// The entry is written once: a racing decode loses the CompareAndSwap
	// and returns the winner.
	if d := m.decode(id); d == nil || slot.CompareAndSwap(nil, d) {
		return d
	}
	return slot.Load()
}

// CachedDocs returns how many stored documents the index holds decoded:
// the documents Doc has served on a mapped index (a heap index keeps
// none).
func (ix *Index) CachedDocs() int {
	n := 0
	for id := range ix.NumDocs() {
		if ix.cachedDoc(id) != nil {
			n++
		}
	}
	return n
}

// cachedDoc returns document id's decode if Doc has made one.
func (ix *Index) cachedDoc(id int) *Document {
	if m := ix.mapped; m != nil {
		if c := m.docs[id/storedChunkDocs].Load(); c != nil {
			return c[id%storedChunkDocs].Load()
		}
	}
	return nil
}

// FieldNames returns the indexed field names, sorted.
func (ix *Index) FieldNames() []string {
	out := make([]string, 0, len(ix.fields))
	for n := range ix.fields {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasField reports whether any document has indexed the named field.
// Query routers use it to decide if a "name:" prefix in user input refers
// to a real field or is just punctuation in a keyword ("2:1 goal").
func (ix *Index) HasField(name string) bool {
	_, ok := ix.fields[name]
	return ok
}

// Neighbours returns the field's terms within edit distance 1 of term,
// term itself left out, in ascending order: the candidates of a spelling
// correction. It reads the field's neighbour tables (neighbours.go), which
// a fuzzy query on the field also reads, building them on first use.
func (ix *Index) Neighbours(field, term string) []string {
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	terms, _ := fi.expansions(term, nil, nil)
	terms = slices.DeleteFunc(terms, func(t string) bool { return t == term })
	slices.Sort(terms)
	return terms
}

// DocFreq returns the number of documents containing the term in the field.
func (ix *Index) DocFreq(field, term string) int {
	fi := ix.fields[field]
	if fi == nil {
		return 0
	}
	return fi.lookup(term).len()
}

// norm is Lucene's length normalization on the document:
// 1/sqrt(tokens in field), 0 without the field.
func (t *docTable) norm(id int) float64 {
	l := t.lengthOf(id)
	if l == 0 {
		return 0
	}
	return 1 / math.Sqrt(float64(l))
}

// scoreBound returns an upper bound on the score any posting within c's
// limits (frequency at most maxFreq, document at least minLen long, posting
// boost at most maxBoost) can earn from the term w weighs at the given
// query boost — what pruning compares against the top-k threshold, per term
// (c the term's cap) and per posting block (c the block's). w holds the
// statistics real scoring uses, so the bound holds per shard even when
// a search brings corpus-wide statistics. A negative boost would flip the
// best case into a lower bound, so it gets +Inf, which disables pruning but
// keeps evaluation correct.
//
// No margin is added. The bound is the expression termScorer.score and
// termClause.scores form, in their association, at inputs that dominate
// every posting's; each rounded step is monotone in its inputs (see
// termWeight). Under either similarity the bound is therefore at or above
// every score it covers, bit for bit, and equals the score of a posting
// with the best-case shape, so a block that can only tie the threshold is
// skipped (DESIGN.md §10).
func scoreBound(c termCap, w termWeight, queryBoost float64) float64 {
	if c.maxBoost < 0 || queryBoost < 0 {
		return math.Inf(1)
	}
	return w.score(c.maxFreq, c.minLen) * c.maxBoost * queryBoost
}

// observe widens the cap to cover a posting with the given shape.
func (c *termCap) observe(freq, dlen int, boost float64) {
	if freq > c.maxFreq {
		c.maxFreq = freq
	}
	if dlen < c.minLen {
		c.minLen = dlen
	}
	if boost > c.maxBoost {
		c.maxBoost = boost
	}
}

// observeBlock keeps a term's per-block score-bound inputs current for the
// posting state just written. Blocks materialize only once a term outgrows
// a single block — a single-block term's only block bound is exactly its
// cap, so storing it again would double the metadata for the long tail of
// rare terms. On the first crossing the completed earlier block is
// backfilled from the postings. Like the cap, tracking is conservative: a
// document observed mid-growth (multi-valued field) only shrinks the
// recorded minLen, which loosens — never invalidates — the bound.
func (te *termEntry) observeBlock(fi *fieldIndex, freq, dlen int, boost float64) {
	cur := (len(te.docs) - 1) / postingBlockSize
	for len(te.blocks) < cur {
		s := len(te.blocks) * postingBlockSize
		te.blocks = append(te.blocks, fi.exactCap(te, s, s+postingBlockSize))
	}
	if cur == len(te.blocks) {
		te.blocks = append(te.blocks, termCap{maxFreq: freq, minLen: dlen, maxBoost: boost})
	} else {
		te.blocks[cur].observe(freq, dlen, boost)
	}
}

// exactCap computes the exact score-bound inputs over postings [lo, hi) of
// te — the load-time (and encode-time) counterpart of Add's incremental
// tracking, slightly tighter since the docLens it reads are final.
func (fi *fieldIndex) exactCap(te *termEntry, lo, hi int) termCap {
	c := termCap{minLen: math.MaxInt}
	prev := te.posStart(lo)
	for i, end := range te.posEnd[lo:hi] {
		c.observe(int(end-prev), fi.lengthOf(int(te.docs[lo+i])), te.boostAt(lo+i))
		prev = end
	}
	return c
}

// rebuildCaps recomputes every term's score-bound inputs from its posting
// list — the load-time equivalent of Add's incremental tracking. A
// snapshot's per-block inputs are read, and checked by checkBlocks.
func (fi *fieldIndex) rebuildCaps() {
	for _, te := range fi.terms {
		te.cap = fi.exactCap(te, 0, len(te.docs))
	}
}

// setCaps computes a merged term's score-bound inputs exactly: per block for
// a multi-block term, and the term's own from those blocks, so every
// posting is read once.
func (fi *fieldIndex) setCaps(te *termEntry) {
	n := len(te.docs)
	if n <= postingBlockSize {
		te.cap = fi.exactCap(te, 0, n)
		return
	}
	te.cap = termCap{minLen: math.MaxInt}
	te.blocks = make([]termCap, 0, (n+postingBlockSize-1)/postingBlockSize)
	for s := 0; s < n; s += postingBlockSize {
		b := fi.exactCap(te, s, min(s+postingBlockSize, n))
		te.cap.observe(b.maxFreq, b.minLen, b.maxBoost)
		te.blocks = append(te.blocks, b)
	}
}

package index

// Mapped (zero-copy) read path. A heap index materializes every posting
// list at Decode time; a mapped index keeps the codec stream as one
// []byte region (mmap'd by the shard layer on linux, read into memory
// elsewhere) plus a table of contents (TOC) the encoder wrote next to the
// payload, and decodes a posting block only when a scorer actually lands
// on it — and then only the sections of it (docIDs; frequencies and boosts;
// positions) the scorer goes on to read, see postingsCursor. The TOC carries,
// per term: the byte offset and last docID of every 128-posting block and
// the exact term-level score cap — enough for Block-Max WAND to skip a
// beaten block without ever touching its bytes (the per-block max-impact
// header is read from the mapped region only when a block survives the
// term-level cap), and for advance() to binary search block boundaries
// entirely in RAM.
//
// Immutability contract: everything reachable from mappedIndex is
// read-only after OpenMapped returns, so concurrent searches share it
// freely; all per-query decode state lives in postingsCursor values held
// by a single reader. The only mutation is the per-document decode cache,
// whose atomic entries are written once with an immutable value (Doc, and
// Meta of a field the TOC did not capture, are the trigger: a caller
// reading a hit's stored fields, never a search).
//
// Corruption policy: the shard layer CRC-checks payload and TOC before
// handing them here, so decode failures after open are impossible on a
// verified file. The parsers stay fully defensive anyway (FuzzOpenMapped
// feeds truncated and bit-flipped images): every read is bounds-checked,
// a block section that does not parse leaves its cursor reading as
// exhausted rather than panicking, and OpenMapped rejects structurally
// inconsistent TOCs with an error.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// TOC serialization constants. The TOC rides outside the codec payload
// (the shard envelope's meta block), so the payload is the bare codec
// stream Decode reads.
const (
	tocMagic   = "STOC"
	tocVersion = 1
)

// mappedIndex is the index-wide mapped state.
type mappedIndex struct {
	// raw is the whole codec stream, magic through stored region.
	raw []byte
	// rawTOC is the serialized TOC exactly as read, kept so re-encoding a
	// clean mapped index (checkpointing an unchanged shard) is a raw copy.
	rawTOC []byte
	// numDocs mirrors the payload header's document count.
	numDocs int
	// open numbers this open among the process's mapped opens, from 1, so
	// a Scratch can name a chunk of it without holding the index.
	open uint64
	// metaNames/metaVals are the stored-only ('_'-prefixed) field values
	// captured in the TOC so metadata reads (page IDs, event kinds) never
	// force the flate region open. metaVals[k][doc] is "" when the doc does
	// not carry the field; equal values of a column share one string.
	metaNames []string
	metaVals  [][]string
	// chunkOffs is the stored region's chunk table (readChunkTable), parsed
	// and bounds-checked at open. The compressed bytes stay in the mapped
	// region; Doc inflates one chunk transiently to decode one document, so
	// serving stored fields never pins the region in heap.
	chunkOffs []int
	// docs holds each chunk's decoded documents, allocated on the chunk's
	// first Doc — a hit reads its document only when its holder asks, so a
	// serving process decodes the documents its callers read, not the
	// corpus. A heap index keeps no such cache (see Doc).
	docs []atomic.Pointer[docCache]
}

// mappedOpens counts OpenMapped's opens (mappedIndex.open).
var mappedOpens atomic.Uint64

// mappedField is one field's mapped postings view.
type mappedField struct {
	raw   []byte
	terms map[string]*mappedTerm
	// docTable holds the field-length and field-boost tables, parsed out of
	// the payload at open and resident, unlike postings: a scored
	// document's length is read from it (its boosts are not; see
	// docTable). The owning fieldIndex shares them.
	docTable
}

// mappedTerm is one term's TOC entry: exact score cap, posting count and
// per-block (offset, last docID) pairs.
type mappedTerm struct {
	n     int
	cap   termCap
	multi bool
	// offs[b] is the absolute offset of block b in the codec stream (at
	// the max-impact header for multi-block terms); lastDocs[b] is the
	// block's final docID — the Block-Max window boundary, and the delta
	// seed for decoding block b+1.
	offs     []int64
	lastDocs []int32
}

// blockLen returns the posting count of block b.
func (t *mappedTerm) blockLen(b int) int {
	n := t.n - b*postingBlockSize
	if n > postingBlockSize {
		n = postingBlockSize
	}
	return n
}

// byteReader is a bounds-checked cursor over an untrusted byte region.
// All reads after a failure return zero values; callers check bad once.
type byteReader struct {
	b   []byte
	pos int
	bad bool
}

func (r *byteReader) fail() {
	r.bad = true
	r.pos = len(r.b)
}

// uvarint settles the one-byte case — nearly every delta and length —
// itself and leaves the rest to uvarintLong.
func (r *byteReader) uvarint() uint64 {
	if p := r.pos; p < len(r.b) {
		if v := r.b[p]; v < 0x80 {
			r.pos = p + 1
			return uint64(v)
		}
	}
	return r.uvarintLong()
}

func (r *byteReader) uvarintLong() uint64 {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *byteReader) u32() uint32 {
	if r.pos+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *byteReader) u64() uint64 {
	if r.pos+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *byteReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *byteReader) u8() byte {
	if r.pos >= len(r.b) {
		r.fail()
		return 0
	}
	r.pos++
	return r.b[r.pos-1]
}

// shortUvarint is uvarint for bytes that must hold every value in its
// shortest form, the one binary.AppendUvarint writes.
func (r *byteReader) shortUvarint() uint64 {
	p := r.pos
	v := r.uvarint()
	if !r.bad && r.pos-p > 1 && r.b[r.pos-1] == 0 {
		r.fail()
	}
	return v
}

// skip moves r past n bytes.
func (r *byteReader) skip(n uint64) {
	if r.bad || n > uint64(len(r.b)-r.pos) {
		r.fail()
		return
	}
	r.pos += int(n)
}

// str reads a u32-length-prefixed string (the codec's string shape).
func (r *byteReader) str() string { return r.text(uint64(r.u32())) }

// vstr reads a uvarint-length-prefixed string (the TOC's string shape).
func (r *byteReader) vstr() string { return r.text(r.uvarint()) }

// text reads the next n bytes, at most 1<<26, into a string.
func (r *byteReader) text(n uint64) string { return string(r.bytes(n)) }

// bytes returns a view of the next n bytes, at most 1<<26.
func (r *byteReader) bytes(n uint64) []byte {
	p := r.pos
	if r.skip(n); r.bad || n > 1<<26 {
		r.fail()
		return nil
	}
	return r.b[p:r.pos]
}

// uvarintAt decodes the varint at b[p:] and returns it with the offset
// past it, negative when the bytes are truncated or overlong. The cursor's
// decode loops settle the one-byte case themselves and come here for the
// rest.
func uvarintAt(b []byte, p int) (v uint64, next int) {
	if uint(p) > uint(len(b)) {
		return 0, -1
	}
	v, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return 0, -1
	}
	return v, p + n
}

// --- TOC build (encoder side) ---

// tocBuilder accumulates offsets during encode and serializes them.
type tocBuilder struct {
	numDocs   int
	storedOff uint64
	// metaVals[k] is column k's values so far, each in the TOC's vstr form;
	// the stored region's writer (chunkWriter) appends them.
	metaNames []string
	metaVals  [][]byte
	fields    []*tocField
}

type tocField struct {
	name                string
	docLenOff, boostOff uint64
	terms               []tocTerm
	// offs and lasts are the offset and last docID of every block of the
	// field's terms, in term order: a term of n postings has
	// ceil(n/postingBlockSize) of them.
	offs  []uint64
	lasts []int32
}

type tocTerm struct {
	term string
	n    int
	cap  termCap
}

func (tb *tocBuilder) field(name string) *tocField {
	tf := &tocField{name: name}
	tb.fields = append(tb.fields, tf)
	return tf
}

func appendVstr[T string | []byte](b []byte, s T) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// serialize renders the TOC bytes. Offsets are delta-coded (they are
// strictly monotone across the payload), so the whole table stays a small
// fraction of the postings it describes.
func (tb *tocBuilder) serialize() []byte {
	out := make([]byte, 0, 1<<12)
	out = append(out, tocMagic...)
	out = binary.LittleEndian.AppendUint32(out, tocVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(tb.numDocs))
	out = binary.LittleEndian.AppendUint64(out, tb.storedOff)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(tb.metaNames)))
	for k, name := range tb.metaNames {
		out = appendVstr(out, name)
		out = append(out, tb.metaVals[k]...)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(tb.fields)))
	for _, tf := range tb.fields {
		out = appendVstr(out, tf.name)
		out = binary.LittleEndian.AppendUint64(out, tf.docLenOff)
		out = binary.LittleEndian.AppendUint64(out, tf.boostOff)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(tf.terms)))
		prevOff, blk := uint64(0), 0
		for _, t := range tf.terms {
			out = appendVstr(out, t.term)
			out = binary.AppendUvarint(out, uint64(t.n))
			out = binary.AppendUvarint(out, uint64(t.cap.maxFreq))
			out = binary.AppendUvarint(out, uint64(t.cap.minLen))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(t.cap.maxBoost))
			nb := (t.n + postingBlockSize - 1) / postingBlockSize
			for b, off := range tf.offs[blk : blk+nb] {
				out = binary.AppendUvarint(out, off-prevOff)
				prevOff = off
				last := uint64(tf.lasts[blk+b]) + 1
				if b > 0 {
					last = uint64(tf.lasts[blk+b] - tf.lasts[blk+b-1])
				}
				out = binary.AppendUvarint(out, last)
			}
			blk += nb
		}
	}
	return out
}

// --- Open (reader side) ---

// OpenMapped builds an index that serves queries directly from raw — a
// codec stream — using the TOC bytes its encoder produced alongside
// (EncodeWithTOC). Neither slice is copied: the caller owns their
// lifetime and must keep them valid (and unmodified) for the life of the
// index; the shard layer ties this to the mmap's lifetime.
//
// Integrity is the caller's job (the shard envelope CRCs both regions);
// OpenMapped validates structure, not checksums: header magic/version,
// TOC/payload agreement on counts and offsets, table parses, and monotone
// block boundaries.
func OpenMapped(raw, toc []byte, analyzer Analyzer) (*Index, error) {
	numDocs, err := readHeader(&byteReader{b: raw})
	if err != nil {
		return nil, err
	}

	tr := byteReader{b: toc}
	if string(tr.b[:min(4, len(tr.b))]) != tocMagic {
		return nil, fmt.Errorf("index: bad magic in mapped TOC")
	}
	tr.pos = 4
	if v := tr.u32(); tr.bad || v != tocVersion {
		return nil, fmt.Errorf("index: unsupported TOC version")
	}
	tocDocs := tr.u32()
	storedOff := tr.u64()
	if tr.bad || int(tocDocs) != numDocs {
		return nil, fmt.Errorf("index: TOC/payload doc count mismatch")
	}
	// The stored region must close the payload exactly. The chunk walk is
	// O(numDocs/storedChunkDocs) pointer arithmetic — no chunk is inflated
	// here — and it backs numDocs before anything below is sized by it.
	if storedOff > uint64(len(raw)) || storedOff < 16 {
		return nil, fmt.Errorf("index: TOC stored-region offset out of range")
	}
	chunkOffs, err := readChunkTable(raw, int(storedOff), numDocs)
	if err != nil {
		return nil, err
	}

	ix := New(analyzer)
	m := &mappedIndex{
		raw:       raw,
		rawTOC:    toc,
		numDocs:   numDocs,
		open:      mappedOpens.Add(1),
		chunkOffs: chunkOffs,
		docs:      make([]atomic.Pointer[docCache], len(chunkOffs)-1),
	}
	numMeta := tr.u32()
	if tr.bad || numMeta > 1<<10 {
		return nil, fmt.Errorf("index: implausible TOC meta field count")
	}
	for k := uint32(0); k < numMeta; k++ {
		name := tr.vstr()
		vals := make([]string, 0, capHint(uint32(numDocs), 1<<16))
		// A column holds few distinct values (a page's documents share its
		// ID), so each is allocated once; the strings outlive the mapping.
		distinct := map[string]string{}
		for d := 0; d < numDocs; d++ {
			b := tr.bytes(tr.uvarint())
			if tr.bad {
				return nil, fmt.Errorf("index: truncated TOC meta values")
			}
			v, ok := distinct[string(b)]
			if !ok {
				v = string(b)
				distinct[v] = v
			}
			vals = append(vals, v)
		}
		m.metaNames = append(m.metaNames, name)
		m.metaVals = append(m.metaVals, vals)
	}
	numFields := tr.u32()
	if tr.bad || numFields > 1<<16 {
		return nil, fmt.Errorf("index: implausible TOC field count")
	}
	for i := uint32(0); i < numFields; i++ {
		name := tr.vstr()
		docLenOff := tr.u64()
		tr.u64() // the boost table's offset: readTables reads it after the lengths
		numTerms := tr.u32()
		if tr.bad || numTerms > 1<<28 {
			return nil, fmt.Errorf("index: truncated TOC field header")
		}
		mf := &mappedField{
			raw:   raw,
			terms: make(map[string]*mappedTerm, capHint(numTerms, 1<<16)),
		}
		prevOff := uint64(0)
		for t := uint32(0); t < numTerms; t++ {
			term := tr.vstr()
			n := tr.uvarint()
			maxFreq := tr.uvarint()
			minLen := tr.uvarint()
			maxBoost := math.Float64frombits(tr.u64())
			if tr.bad || n == 0 || n > uint64(numDocs) || maxFreq == 0 || maxFreq > 1<<24 || minLen == 0 || minLen > 1<<32 {
				return nil, fmt.Errorf("index: bad TOC term entry")
			}
			nb := (int(n) + postingBlockSize - 1) / postingBlockSize
			mt := &mappedTerm{
				n:        int(n),
				cap:      termCap{maxFreq: int(maxFreq), minLen: int(minLen), maxBoost: maxBoost},
				multi:    int(n) > postingBlockSize,
				offs:     make([]int64, 0, nb),
				lastDocs: make([]int32, 0, nb),
			}
			prevLast := int32(-1)
			for b := 0; b < nb; b++ {
				off := prevOff + tr.uvarint()
				delta := tr.uvarint()
				if tr.bad || delta == 0 || off >= storedOff {
					return nil, fmt.Errorf("index: bad TOC block entry for %q", term)
				}
				last := prevLast + int32(delta)
				if int(last) >= numDocs {
					return nil, fmt.Errorf("index: TOC block boundary out of range for %q", term)
				}
				prevOff = off
				prevLast = last
				mt.offs = append(mt.offs, int64(off))
				mt.lastDocs = append(mt.lastDocs, last)
			}
			mf.terms[term] = mt
		}
		// The field-length and boost tables parse out of the payload into
		// the resident docTable (see mappedField).
		if docLenOff >= storedOff {
			return nil, fmt.Errorf("index: TOC table offset out of range for field %q", name)
		}
		mf.docTable = newDocTable(numDocs)
		if err := readTables(&byteReader{b: raw, pos: int(docLenOff)}, numDocs, &mf.docTable); err != nil {
			return nil, err
		}
		ix.fields[name] = &fieldIndex{m: mf, docTable: mf.docTable}
	}
	if !tr.bad && tr.pos != len(toc) {
		return nil, fmt.Errorf("index: %d trailing TOC bytes", len(toc)-tr.pos)
	}
	ix.mapped = m
	return ix, nil
}

// --- Index-level mapped plumbing ---

// Meta returns a stored field's value for one document ("" outside
// [0, NumDocs)) as a hit reads it (semindex.Hit.Meta). A heap index reads
// the value out of the document's bytes. A mapped index answers from its TOC
// when the encoder captured the field there, and otherwise through Doc,
// whose decode the chunk's docCache keeps, so a hit read field by field
// inflates its chunk once.
func (ix *Index) Meta(id int, name string) string {
	if id < 0 || id >= ix.NumDocs() {
		return ""
	}
	m := ix.mapped
	if m == nil {
		return ix.stored.value(id, name)
	}
	if k := slices.Index(m.metaNames, name); k >= 0 {
		return m.metaVals[k][id]
	}
	return ix.Doc(id).Get(name)
}

// sourceDoc returns document id as Doc does, except that on a mapped index
// it decodes the document afresh without publishing it into its chunk's
// docCache: for a read that serves no hit, such as LikeThisQuery's source,
// whose decode nothing reads again.
func (ix *Index) sourceDoc(id int) *Document {
	if m := ix.mapped; m != nil && id >= 0 && id < ix.NumDocs() {
		return m.decode(id)
	}
	return ix.Doc(id)
}

// docCache holds a chunk's documents, document k once Doc has decoded it.
type docCache [storedChunkDocs]atomic.Pointer[Document]

// decode decodes document id, in [0, numDocs), afresh out of its chunk,
// inflated into a pooled buffer (nil when the chunk does not parse).
func (m *mappedIndex) decode(id int) *Document {
	in := inflaters.Get().(*inflater)
	defer in.release()
	var c storedChunk
	if !m.chunk(id, in, &c) {
		return nil
	}
	return c.decode(id % storedChunkDocs)
}

// chunk inflates the chunk holding document id, in [0, numDocs), into c
// through in, and reports whether it parses.
func (m *mappedIndex) chunk(id int, in *inflater, c *storedChunk) bool {
	return readStoredChunk(m.raw, m.chunkOffs, id/storedChunkDocs, m.numDocs, in, c) == nil
}

// inflater is the reusable state of one stored-chunk inflate: the flate
// decompressor (about 40 KB of window and tables) and the buffer the chunk
// inflates into. A mapped decode borrows one per uncached document and a
// heap Decode one for its whole stored region; nothing in it outlives the
// borrow (what is decoded out of the buffer is copied).
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser
	out bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.zr = flate.NewReader(&in.src)
	return in
}}

// inflate decompresses one stored chunk into the inflater's buffer and
// returns it; the bytes are valid until the next inflate.
func (in *inflater) inflate(comp []byte) ([]byte, error) {
	in.src.Reset(comp)
	in.zr.(flate.Resetter).Reset(&in.src, nil)
	in.out.Reset()
	if _, err := in.out.ReadFrom(in.zr); err != nil {
		return nil, err
	}
	return in.out.Bytes(), nil
}

// release returns the inflater to the pool. A pooled inflater must not keep
// the bytes it read reachable (for a mapped index, the region).
func (in *inflater) release() {
	in.src.Reset(nil)
	inflaters.Put(in)
}

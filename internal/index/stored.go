package index

// Stored documents of a heap index. Add keeps no *Document: it appends the
// document's bytes to the open chunk of the index's stored region, and Doc
// decodes a document afresh on every call and keeps nothing, so the heap a
// segment spends on stored fields is its documents' bytes (no search reads
// a stored document: a hit reads one only when its holder asks). A chunk
// holds up to storedChunkDocs documents, each
//
//	numFields uvarint
//	per field: nameIndex<<1 | hasBoost uvarint, len uvarint, text,
//	           boost f64 bits (little-endian) when hasBoost
//
// where hasBoost is set when the boost's bits are non-zero (so 0 costs
// nothing and -0 survives bit for bit) and nameIndex points into the
// chunk's name table.
//
// The codec's stored region holds these bytes too, each chunk in a flate
// stream behind its own name table and document lengths (codec.go).
// chunkWriter writes that form, and parse, the one reader of chunk bytes
// from disk, checks it: Decode keeps what it parses, a mapped Doc decodes
// from it, and a merge copies a mapped source's survivors out of it.
//
// A chunk's bytes never change once written: Add only appends past them,
// and a chunk a merge has shared with another index is never appended to
// again, by either. So MergeIndexes shares every chunk whose documents all
// survive, and readers need no lock: none mutates a chunk.

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync/atomic"
)

// storedChunk is up to storedChunkDocs documents in the byte form above.
type storedChunk struct {
	// data holds the documents back to back; document k ends at ends[k].
	data []byte
	ends []uint32
	// names is the field-name table the documents' name indexes point into:
	// a prefix of the writing index's table, which only ever grows, or the
	// chunk's own, read from a codec stream.
	names []string
	// shared is set once a merge has handed the chunk to another index, or
	// when it was read from a codec stream with a name table of its own:
	// either way, no index appends to it.
	shared atomic.Bool
}

// storedRegion is a heap index's stored documents: its chunks in docID
// order, first[c] the docID of chunk c's first document, n the document
// count, and the name table this index writes chunks with.
type storedRegion struct {
	chunks  []*storedChunk
	first   []int32
	n       int
	names   []string
	nameIdx map[string]uint32
}

// locate returns the chunk holding document id, in [0, n), and id's place
// in it: the chunk every chunk before it being full would put it in (where
// Add and Decode put it), else the one a binary search over first finds
// (merges leave chunks of any length; none is empty, so first ascends
// strictly).
func (s *storedRegion) locate(id int) (*storedChunk, int) {
	c := id / storedChunkDocs
	if c >= len(s.first) || int(s.first[c]) > id || (c+1 < len(s.first) && int(s.first[c+1]) <= id) {
		c = searchInt32(s.first, id+1) - 1
	}
	return s.chunks[c], id - int(s.first[c])
}

// value is Document.Get on document id, read from its bytes without
// decoding the document.
func (s *storedRegion) value(id int, name string) string {
	c, k := s.locate(id)
	r := c.fields(k)
	var out []byte
	for {
		n, text, _, ok := r.next()
		if !ok {
			return string(out)
		}
		if n != name {
			continue
		}
		if len(out) == 0 {
			out = text
		} else {
			// The full slice expression makes the append copy: out may still
			// be a view of the chunk.
			out = append(append(out[:len(out):len(out)], ' '), text...)
		}
	}
}

// add appends d's bytes. The region keeps no reference to d.
func (s *storedRegion) add(d *Document) {
	c := s.open()
	c.data = binary.AppendUvarint(c.data, uint64(len(d.Fields)))
	for _, f := range d.Fields {
		c.data = appendStoredField(c.data, s.nameIndex(f.Name), f.Text, math.Float64bits(f.Boost))
	}
	s.end(c)
}

// appendSurvivors appends the documents of chunk c that live keeps (live[k]
// is document k's new docID, -1 when it is dropped), in order: a chunk
// whose documents all survive is shared as it is, the survivors of any
// other are copied.
func (s *storedRegion) appendSurvivors(c *storedChunk, live []int) {
	if !slices.Contains(live, -1) {
		c.shared.Store(true)
		s.chunks = append(s.chunks, c)
		s.first = append(s.first, int32(s.n))
		s.n += len(c.ends)
		return
	}
	for k, nid := range live {
		if nid >= 0 {
			s.copyDoc(c, k)
		}
	}
}

// copyDoc appends document k of c field by field, its names looked up in
// the region's table.
func (s *storedRegion) copyDoc(c *storedChunk, k int) {
	r := c.fields(k)
	o := s.open()
	o.data = binary.AppendUvarint(o.data, uint64(r.left))
	for {
		name, text, boost, ok := r.next()
		if !ok {
			break
		}
		o.data = appendStoredField(o.data, s.nameIndex(name), text, boost)
	}
	s.end(o)
}

// open returns the chunk the next document goes to: the last one, unless it
// is full or shared, when a new chunk starts with room for an eighth more
// than the last one's documents would take at full size, so most chunks
// allocate once (and one that outgrows it grows by a quarter, not double).
func (s *storedRegion) open() *storedChunk {
	hint := 0
	if k := len(s.chunks); k > 0 {
		last := s.chunks[k-1]
		if len(last.ends) < storedChunkDocs && !last.shared.Load() {
			return last
		}
		hint = len(last.data) / len(last.ends) * storedChunkDocs * 9 / 8
	}
	c := &storedChunk{data: make([]byte, 0, hint), ends: make([]uint32, 0, storedChunkDocs)}
	s.chunks = append(s.chunks, c)
	s.first = append(s.first, int32(s.n))
	return c
}

// end closes the document just appended to c.
func (s *storedRegion) end(c *storedChunk) {
	if len(c.data) > math.MaxUint32 {
		panic("index: stored documents take a chunk past math.MaxUint32 bytes")
	}
	c.ends = append(c.ends, uint32(len(c.data)))
	c.names = s.names
	s.n++
}

// nameIndex returns the name's index in the region's name table, adding it
// on first sight (cloned, so the table pins no caller's buffer).
func (s *storedRegion) nameIndex(name string) uint32 {
	if i, ok := s.nameIdx[name]; ok {
		return i
	}
	if s.nameIdx == nil {
		s.nameIdx = make(map[string]uint32)
	}
	name = strings.Clone(name)
	i := uint32(len(s.names))
	s.names = append(s.names, name)
	s.nameIdx[name] = i
	return i
}

// appendStoredField appends one field in the byte form above.
func appendStoredField[T string | []byte](b []byte, name uint32, text T, boost uint64) []byte {
	tag := uint64(name) << 1
	if boost != 0 {
		tag |= 1
	}
	b = binary.AppendUvarint(b, tag)
	b = binary.AppendUvarint(b, uint64(len(text)))
	b = append(b, text...)
	if boost != 0 {
		b = binary.LittleEndian.AppendUint64(b, boost)
	}
	return b
}

// storedFields walks one document's fields in order.
type storedFields struct {
	// b is the document's bytes after its field count and p the offset of
	// the next field in them; at is where the text next returned last
	// starts, and idx its name's index in names.
	b     []byte
	p, at int
	idx   uint32
	names []string
	left  int
}

// fields starts a walk over document k.
func (c *storedChunk) fields(k int) storedFields {
	var start uint32
	if k > 0 {
		start = c.ends[k-1]
	}
	b := c.data[start:c.ends[k]]
	n, w := binary.Uvarint(b)
	return storedFields{b: b[w:], names: c.names, left: int(n)}
}

// next returns the next field's name, its text as a view of the chunk and
// its boost's bits; ok is false past the last field. The bytes were written
// by this package or passed parse, so they are not checked.
func (r *storedFields) next() (name string, text []byte, boost uint64, ok bool) {
	if r.left == 0 {
		return "", nil, 0, false
	}
	r.left--
	tag, w := binary.Uvarint(r.b[r.p:])
	n, w2 := binary.Uvarint(r.b[r.p+w:])
	r.at = r.p + w + w2
	r.p = r.at + int(n)
	text = r.b[r.at:r.p]
	if tag&1 != 0 {
		boost = binary.LittleEndian.Uint64(r.b[r.p:])
		r.p += 8
	}
	r.idx = uint32(tag >> 1)
	return r.names[r.idx], text, boost, true
}

// decode builds document k afresh in three allocations: the Document, its
// Fields, and one string copied from the document's bytes that every
// field's Text is a slice of (the name tags and lengths between the texts,
// an eighth of the bytes on the semantic index's documents, come along).
// Names are entries of the name table.
func (c *storedChunk) decode(k int) *Document {
	r := c.fields(k)
	all := string(r.b)
	d := &Document{Fields: make([]Field, r.left)}
	for i := range d.Fields {
		name, text, boost, _ := r.next()
		d.Fields[i] = Field{Name: name, Text: all[r.at : r.at+len(text)], Boost: math.Float64frombits(boost)}
	}
	return d
}

// chunkWriter writes a heap index's stored documents in the wire form, one
// chunk per write, and gathers the TOC's meta columns (tocBuilder) on the
// same pass, so an encode walks each document once. Its buffers serve every
// chunk of the encode.
type chunkWriter struct {
	// names, data and ends are the chunk being written: its name table in
	// first-use order, whichever chunks its documents come from, and its
	// documents back to back.
	names []string
	data  []byte
	ends  []uint32
	// src is the stored chunk the last document came from, and xlat holds
	// per name index of src what that name is to this chunk, set on its
	// first use.
	src  *storedChunk
	xlat []nameSlot
	// tb takes each document's meta column values: val[k] is the value of
	// tb's column k in the document being written, and first[k] the first
	// column of that name.
	tb    *tocBuilder
	val   [][]byte
	first []int
}

// nameSlot is a source name as a chunkWriter writes it: its index in the
// chunk's name table, and the first TOC meta column of that name (-1: none).
type nameSlot struct {
	seen bool
	name uint32
	meta int
}

func newChunkWriter(tb *tocBuilder) *chunkWriter {
	w := &chunkWriter{tb: tb, val: make([][]byte, len(tb.metaNames))}
	for _, name := range tb.metaNames {
		w.first = append(w.first, slices.Index(tb.metaNames, name))
	}
	return w
}

// write appends documents [beg, end) of s, at most storedChunkDocs, in the
// wire form: their fields re-tagged with the chunk's own name table, in
// first-use order whichever chunks of s hold them.
func (w *chunkWriter) write(b []byte, s *storedRegion, beg, end int) []byte {
	w.names, w.data, w.ends, w.src = w.names[:0], w.data[:0], w.ends[:0], nil
	for id := beg; id < end; id++ {
		c, k := s.locate(id)
		if c != w.src {
			w.src = c
			w.xlat = append(w.xlat[:0], make([]nameSlot, len(c.names))...)
		}
		r := c.fields(k)
		w.data = binary.AppendUvarint(w.data, uint64(r.left))
		for i := range w.val {
			w.val[i] = w.val[i][:0]
		}
		for {
			name, text, boost, ok := r.next()
			if !ok {
				break
			}
			sl := &w.xlat[r.idx]
			if !sl.seen {
				i := slices.Index(w.names, name)
				if i < 0 {
					i = len(w.names)
					w.names = append(w.names, name)
				}
				*sl = nameSlot{seen: true, name: uint32(i), meta: slices.Index(w.tb.metaNames, name)}
			}
			w.data = appendStoredField(w.data, sl.name, text, boost)
			// A value of several fields is their texts joined by spaces,
			// as storedRegion.value reads it.
			if sl.meta >= 0 {
				v := w.val[sl.meta]
				if len(v) > 0 {
					v = append(v, ' ')
				}
				w.val[sl.meta] = append(v, text...)
			}
		}
		if len(w.data) > math.MaxUint32 {
			panic("index: stored documents take a chunk past math.MaxUint32 bytes")
		}
		w.ends = append(w.ends, uint32(len(w.data)))
		for k, f := range w.first {
			w.tb.metaVals[k] = appendVstr(w.tb.metaVals[k], w.val[f])
		}
	}
	b = binary.AppendUvarint(b, uint64(len(w.names)))
	for _, name := range w.names {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	var start uint32
	for _, e := range w.ends {
		b = binary.AppendUvarint(b, uint64(e-start))
		start = e
	}
	return append(b, w.data...)
}

// parse reads a chunk of n documents in the wire form into c, whose data
// is then a view of b, and reports whether b holds one. b comes off disk,
// so parse checks what next trusts: every length stays inside what holds
// it, every name index is in the table, boost bytes are non-zero. It also
// refuses what chunkWriter would not write — a uvarint longer than its
// shortest form, a name the documents do not use in table order, a name
// twice — so a chunk it accepts is the one chunkWriter makes of its
// documents. Nothing is sized by a count the bytes do not back.
func (c *storedChunk) parse(b []byte, n int) bool {
	r := byteReader{b: b}
	numNames := r.shortUvarint()
	start := r.pos
	for i := numNames; i > 0 && !r.bad; i-- {
		r.skip(r.shortUvarint())
	}
	if r.bad || len(b) > math.MaxUint32 {
		return false
	}
	// One string holds the table; the names are slices of it.
	all, nr := string(b[start:r.pos]), byteReader{b: b, pos: start}
	c.names = make([]string, numNames)
	for i := range c.names {
		l := int(nr.uvarint())
		c.names[i] = all[nr.pos-start:][:l]
		nr.pos += l
	}
	c.ends = make([]uint32, n)
	end := uint64(0)
	for k := range c.ends {
		// Bounded before it is added, so the sum cannot wrap: both terms
		// are at most len(b), itself at most math.MaxUint32.
		l := r.shortUvarint()
		if left := uint64(len(b) - r.pos); r.bad || l == 0 || l > left || end+l > left {
			return false
		}
		end += l
		c.ends[k] = uint32(end)
	}
	if c.data = b[r.pos:]; end != uint64(len(c.data)) {
		return false
	}
	used, beg := uint64(0), 0 // used: the names the documents so far use
	for _, end := range c.ends {
		d := byteReader{b: c.data[:end], pos: beg}
		for nf := d.shortUvarint(); nf > 0 && !d.bad; nf-- {
			tag := d.shortUvarint()
			switch idx := tag >> 1; {
			case idx == used && used < numNames:
				used++
			case idx >= used:
				d.fail()
			}
			d.skip(d.shortUvarint())
			if tag&1 != 0 && d.u64() == 0 {
				d.fail()
			}
		}
		if d.bad || d.pos != len(d.b) {
			return false
		}
		beg = int(end)
	}
	sorted := slices.Clone(c.names)
	slices.Sort(sorted)
	return used == numNames && len(slices.Compact(sorted)) == len(sorted)
}

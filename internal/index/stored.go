package index

// Stored documents of a heap index. Add keeps no *Document: it appends the
// document's bytes to the open chunk of the index's stored region, and Doc
// decodes a document on first touch and caches the decode in its chunk —
// the mapped store's docCache idea — so the heap a segment spends on stored
// fields is its documents' bytes plus the documents actually served. A
// chunk holds up to storedChunkDocs documents, each
//
//	numFields uvarint
//	per field: nameIndex<<1 | hasBoost uvarint, len uvarint, text,
//	           boost f64 bits (little-endian) when hasBoost
//
// where hasBoost is set when the boost's bits are non-zero (so 0 costs
// nothing and -0 survives bit for bit) and nameIndex points into the
// chunk's name table.
//
// A chunk's bytes never change once written: Add only appends past them,
// and a chunk a merge has shared with another index is never appended to
// again, by either. So MergeIndexes shares every chunk whose documents all
// survive, readers need no lock, and the only mutation a reader makes is
// the atomic, write-once publication of a decoded document.

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
	// a prefix of the writing index's table, which only ever grows.
	names []string
	// shared is set once a merge has handed the chunk to another index.
	shared atomic.Bool
	cache  docCache
}

// docCache holds a chunk's documents, document k once Doc has decoded it.
// An entry is written once; a racing decode loses the CompareAndSwap and
// returns the winner.
type docCache [storedChunkDocs]atomic.Pointer[Document]

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

// doc returns document id, decoding and caching it on first touch.
func (s *storedRegion) doc(id int) *Document {
	c, k := s.locate(id)
	if d := c.cache[k].Load(); d != nil {
		return d
	}
	d := c.decode(k)
	if c.cache[k].CompareAndSwap(nil, d) {
		return d
	}
	return c.cache[k].Load()
}

// peek returns document id without publishing it: the cached decode when
// Doc has made one, otherwise a decode no cache keeps.
func (s *storedRegion) peek(id int) *Document {
	c, k := s.locate(id)
	if d := c.cache[k].Load(); d != nil {
		return d
	}
	return c.decode(k)
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

// addEncoded appends one document read from r in the codec's stored shape
// (u32 field count, then per field a name, a text and a boost f64),
// reporting false when the bytes do not parse.
func (s *storedRegion) addEncoded(r *byteReader) bool {
	nf := r.u32()
	if r.bad || nf > 1<<16 {
		return false
	}
	c := s.open()
	c.data = binary.AppendUvarint(c.data, uint64(nf))
	for ; nf > 0; nf-- {
		name, text, boost := r.strBytes(), r.strBytes(), r.u64()
		if r.bad {
			return false
		}
		// Looked up before nameIndex: a map index by string(name) does not
		// copy name, a string argument would, for every field.
		idx, ok := s.nameIdx[string(name)]
		if !ok {
			idx = s.nameIndex(string(name))
		}
		c.data = appendStoredField(c.data, idx, text, boost)
	}
	s.end(c)
	return true
}

// appendSurvivors appends the documents of src that remap keeps, in order:
// a chunk whose documents all survive is shared as it is, the survivors of
// any other chunk are copied field by field.
func (s *storedRegion) appendSurvivors(src *storedRegion, remap []int) {
	for ci, c := range src.chunks {
		live := remap[src.first[ci]:][:len(c.ends)]
		if !slices.Contains(live, -1) {
			c.shared.Store(true)
			s.chunks = append(s.chunks, c)
			s.first = append(s.first, int32(s.n))
			s.n += len(c.ends)
			continue
		}
		for k, nid := range live {
			if nid < 0 {
				continue
			}
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
	}
}

// cached counts the documents the region holds decoded.
func (s *storedRegion) cached() int {
	n := 0
	for _, c := range s.chunks {
		for k := range c.ends {
			if c.cache[k].Load() != nil {
				n++
			}
		}
	}
	return n
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
	// starts.
	b     []byte
	p, at int
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
// by this package, so they are not checked.
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
	return r.names[tag>>1], text, boost, true
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

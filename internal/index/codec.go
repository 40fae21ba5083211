package index

// On-disk persistence for indices. The paper's production argument is that
// the semantic index — not the ontology store — is the system's serving
// data structure; a serving structure needs to be built offline and shipped
// to query nodes, so the index supports a compact binary codec:
//
//	toc, err := ix.EncodeWithTOC(f)            // offline builder
//	ix, err := index.OpenMapped(raw, toc, nil) // query node, serving raw in place
//	ix, err := index.Decode(r, nil)            // or decoding a copy onto the heap
//
// The codec has one readable version, 4: a block-postings layout. Posting
// lists are split into blocks of postingBlockSize documents: docIDs are
// delta+varint coded, per-posting frequencies and position deltas are
// varints, and per-posting boosts collapse to a single value when the
// block is uniform (the overwhelmingly common case — boosts are per (doc,
// field), so a block raises them only at multi-valued-field boundaries). Every block of
// a multi-block term is preceded by its max-impact metadata — the exact
// (maxFreq, minLen, maxBoost) over the block, computed at encode time —
// which the DAAT kernel turns into Block-Max WAND skipping at query time.
// Stored document fields live in a separate region of independently
// flate-compressed chunks after the postings, so the postings region can
// be scanned without touching document text; a chunk's contents are a
// heap index's stored chunk bytes (stored.go):
//
//	magic "SIDX" | version u32 = 4 | numDocs u32
//	numFields u32
//	  per field: name
//	    numTerms u32
//	    per term: term, numPostings u32
//	      per block of <=postingBlockSize postings:
//	        if numPostings > postingBlockSize:
//	          maxFreq uvarint, minLen uvarint, maxBoost f64
//	        docID deltas uvarint... (strictly positive; first is docID+1)
//	        freqs uvarint... (one per posting, each >= 1)
//	        boost flag u8: 0 | boost f64 (whole block)
//	                       1 | boost f64 per posting
//	        per posting: position deltas uvarint... (freq of them)
//	    numDocLens u32, per entry (docID ascending): docID delta uvarint, len uvarint
//	    numBoosts u32, flag u8 (when > 0):
//	      0: docID delta uvarint per entry, then one boost f64
//	      1: per entry: docID delta uvarint, boost f64
//	chunkDocs u32 = storedChunkDocs
//	  per chunk of <=chunkDocs docs: compLen u64 (> 0) | flate stream:
//	    numNames uvarint, per name: len uvarint, bytes (first-use order)
//	    per doc: byte length uvarint
//	    per doc: numFields uvarint, then per field:
//	      nameIndex<<1 | hasBoost uvarint, len uvarint, text,
//	      boost f64 when hasBoost (its bits non-zero)
//
// Streams of any other version are refused; changing the layout means a
// new version number and regenerated fixtures, not a second decoder.
//
// Everything is little-endian; strings are u32-length-prefixed. The
// analyzer is not serialized: the reader must be constructed with the
// same analyzer configuration the writer used (the soccer pipeline always
// uses StandardAnalyzer, and readers that disagree would disagree on query
// analysis anyway).

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

const codecMagic = "SIDX"

// CodecVersionCurrent is the one codec version EncodeWithTOC writes and
// Decode and OpenMapped read. The shard persistence envelope records it so fsck
// can tell "damaged" from "another version" without decoding the stream.
const CodecVersionCurrent = 4

// storedChunkDocs is how many documents share one flate stream in the
// stored region. Small enough that a random Doc() on a mapped index
// inflates tens of kilobytes, large enough that the flate window still
// sees repeated structure (field names recur per document, so even a
// part-filled window compresses well). A heap index's stored chunks
// (stored.go) hold at most as many.
const storedChunkDocs = 128

// EncodeWithTOC serializes the index in the current (block-postings)
// format and returns the serialized table of contents OpenMapped needs to
// serve the stream without decoding it: per-term block offsets and
// boundaries, exact score caps, table offsets, and the values of the
// requested stored-only meta fields (so reads of them never open the
// flate region). The stream is deterministic for a given index, and the
// TOC rides outside it — callers (the shard envelope) store it next to the
// stream — so the payload bytes do not depend on the meta fields asked for.
func (ix *Index) EncodeWithTOC(w io.Writer, metaFields ...string) ([]byte, error) {
	if m := ix.mapped; m != nil {
		// Clean mapped index: the region and its TOC are already exactly
		// what this function would produce — a raw copy, the same bytes a
		// heap re-encode of the identical postings would write.
		if _, err := w.Write(m.raw); err != nil {
			return nil, err
		}
		return m.rawTOC, nil
	}
	tb := newTOCBuilder(ix, metaFields)
	if err := ix.encode(w, tb); err != nil {
		return nil, err
	}
	return tb.serialize(), nil
}

// countingWriter tracks bytes written through it so encode can record
// logical stream offsets for the TOC.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// encode is the writer behind EncodeWithTOC, filling tb as it goes.
// Offsets are recorded as cw.n plus the bufio backlog — the logical
// position in the stream, regardless of flushes.
func (ix *Index) encode(w io.Writer, tb *tocBuilder) error {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	pos := func() uint64 { return uint64(cw.n) + uint64(bw.Buffered()) }
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	writeU32(bw, CodecVersionCurrent)
	writeU32(bw, uint32(ix.stored.n))

	// Postings region, sorted for determinism.
	names := ix.FieldNames()
	writeU32(bw, uint32(len(names)))
	for _, name := range names {
		fi := ix.fields[name]
		writeString(bw, name)
		tf := tb.field(name)

		terms := fi.termNames()
		sort.Strings(terms)
		writeU32(bw, uint32(len(terms)))
		for _, t := range terms {
			writeString(bw, t)
			te := fi.terms[t]
			n := len(te.docs)
			writeU32(bw, uint32(n))
			var offs []uint64
			var lasts []int32
			for s := 0; s < n; s += postingBlockSize {
				e := min(s+postingBlockSize, n)
				offs = append(offs, pos())
				lasts = append(lasts, te.docs[e-1])
				encodeBlock(bw, fi, te, s, e)
			}
			// The TOC cap is the exact bound over the whole list — the same
			// value rebuildCaps derives on the heap decode path and setCaps
			// on a merge, so mapped and heap prune with identical numbers.
			tf.terms = append(tf.terms, tocTerm{
				term: t, n: n, cap: fi.exactCap(te, 0, n), offs: offs, lasts: lasts,
			})
		}

		tf.docLenOff = pos()
		writeU32(bw, uint32(fi.docCount))
		prev := -1
		fi.eachDocLen(func(id, l int) {
			writeUvarint(bw, uint64(id-prev))
			writeUvarint(bw, uint64(l))
			prev = id
		})

		tf.boostOff = pos()
		writeU32(bw, uint32(fi.docCount))
		if fi.docCount > 0 {
			uniform, first := fi.uniformBoost()
			prev := -1
			if uniform {
				bw.WriteByte(0)
				fi.eachDocLen(func(id, _ int) {
					writeUvarint(bw, uint64(id-prev))
					prev = id
				})
				writeF64(bw, first)
			} else {
				bw.WriteByte(1)
				fi.eachDocLen(func(id, _ int) {
					writeUvarint(bw, uint64(id-prev))
					writeF64(bw, fi.boosts[id])
					prev = id
				})
			}
		}
	}

	// Stored region: independently-compressed chunks, each buffered in
	// memory first because every chunk is length-prefixed (the decoder
	// must know where to hand bytes to the flate reader — and where the
	// next chunk starts — without trusting the flate framing itself).
	tb.storedOff = pos()
	writeU32(bw, storedChunkDocs)
	var chunk []byte
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.DefaultCompression)
	if err != nil {
		return err
	}
	for beg := 0; beg < ix.stored.n; beg += storedChunkDocs {
		// The heap chunks need not line up with the codec's (a merge shares
		// chunks of any length); writeChunk copies out the codec's.
		chunk = writeChunk(chunk[:0], &ix.stored, beg, min(beg+storedChunkDocs, ix.stored.n))
		comp.Reset()
		zw.Reset(&comp)
		if _, err := zw.Write(chunk); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		writeU64(bw, uint64(comp.Len()))
		if _, err := bw.Write(comp.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeBlock writes postings [lo, hi) of te as one block: for multi-block
// terms the exact max-impact header first, then the docID deltas,
// frequencies, boosts, and position deltas. Metadata is computed here, at
// encode time, so a loaded index prunes with exact bounds even when the
// in-memory builder tracked them conservatively. The docID delta chain runs
// across the whole posting list: a block's first delta is from the previous
// block's last docID (-1 before the first block).
func encodeBlock(bw *bufio.Writer, fi *fieldIndex, te *termEntry, lo, hi int) {
	if len(te.docs) > postingBlockSize {
		c := fi.exactCap(te, lo, hi)
		writeUvarint(bw, uint64(c.maxFreq))
		writeUvarint(bw, uint64(c.minLen))
		writeF64(bw, c.maxBoost)
	}
	prev := int32(-1)
	if lo > 0 {
		prev = te.docs[lo-1]
	}
	for _, d := range te.docs[lo:hi] {
		writeUvarint(bw, uint64(d-prev))
		prev = d
	}
	for i := lo; i < hi; i++ {
		writeUvarint(bw, uint64(te.freq(i)))
	}
	uniform := true
	for i := lo + 1; i < hi; i++ {
		if math.Float64bits(te.boostAt(i)) != math.Float64bits(te.boostAt(lo)) {
			uniform = false
			break
		}
	}
	if uniform {
		bw.WriteByte(0)
		writeF64(bw, te.boostAt(lo))
	} else {
		bw.WriteByte(1)
		for i := lo; i < hi; i++ {
			writeF64(bw, te.boostAt(i))
		}
	}
	for i := lo; i < hi; i++ {
		pp := int32(-1)
		for _, pos := range te.positionsAt(i) {
			writeUvarint(bw, uint64(pos-pp))
			pp = pos
		}
	}
}

// capHint bounds speculative allocation from an untrusted length
// prefix: a corrupt u32 can claim 2^32-1 elements, so slices and maps
// start at min(n, limit) capacity and grow only as elements actually
// parse — allocation stays proportional to bytes read, and a lying
// prefix dies on a read error instead of an OOM.
func capHint(n uint32, limit int) int {
	if int64(n) < int64(limit) {
		return int(n)
	}
	return limit
}

// Decode deserializes an index written by EncodeWithTOC. The analyzer must match
// the one used at build time.
//
// Decode reads its input into one slice and parses it with the byte
// parsers OpenMapped uses. The input is untrusted: every length is bounded
// by the bytes that remain, allocation is proportional to the input (see
// capHint), and structural violations — counts past plausibility caps,
// posting or document IDs outside the stored document range, unsorted
// postings or positions, block metadata that is not a valid score bound —
// return errors. Decode never panics on corrupt input (FuzzDecode
// enforces it).
func Decode(r io.Reader, analyzer Analyzer) (*Index, error) {
	// io.Copy lets a reader that can write itself out (bytes.Reader,
	// bytes.Buffer) fill the buffer in one allocation of its length.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("index: reading stream: %w", err)
	}
	return decode(buf.Bytes(), analyzer)
}

// decode builds a heap index from a whole codec stream, sealed (Seal):
// the columns grow as the postings parse, since no length the bytes claim
// is trusted, and are then copied to their lengths. Nothing it returns
// aliases raw.
func decode(raw []byte, analyzer Analyzer) (*Index, error) {
	r := byteReader{b: raw}
	numDocs, err := readHeader(&r)
	if err != nil {
		return nil, err
	}
	numFields := r.u32()
	if r.bad || numFields > 1<<16 {
		return nil, fmt.Errorf("index: implausible field count %d", numFields)
	}
	ix := New(analyzer)
	// tables is where a field's length and boost tables start. They are
	// checked as the walk passes them but filled only after the stored
	// region has backed numDocs, since they are sized by it.
	type pendingField struct {
		fi     *fieldIndex
		tables int
	}
	pending := make([]pendingField, 0, capHint(numFields, 1<<10))
	for i := uint32(0); i < numFields; i++ {
		name := r.str()
		if r.bad {
			return nil, fmt.Errorf("index: truncated field name")
		}
		fi := newFieldIndex()
		ix.fields[name] = fi
		if err := decodePostings(&r, fi, numDocs); err != nil {
			return nil, err
		}
		pending = append(pending, pendingField{fi: fi, tables: r.pos})
		if err := readTables(&r, numDocs, nil); err != nil {
			return nil, err
		}
	}
	chunks, err := readChunkTable(raw, r.pos, numDocs)
	if err != nil {
		return nil, err
	}
	if err := ix.stored.readStored(raw, chunks, numDocs, nil); err != nil {
		return nil, err
	}
	for _, p := range pending {
		p.fi.docTable = newDocTable(numDocs)
		// The walk above checked these bytes; they parse the same again.
		if err := readTables(&byteReader{b: raw, pos: p.tables}, numDocs, &p.fi.docTable); err != nil {
			return nil, err
		}
		if err := p.fi.checkBlocks(); err != nil {
			return nil, err
		}
		p.fi.rebuildCaps()
	}
	ix.Seal()
	return ix, nil
}

// StreamDocs returns the document count a codec stream's header claims,
// reading the header alone (see readHeader).
func StreamDocs(raw []byte) (int, error) { return readHeader(&byteReader{b: raw}) }

// readHeader checks a codec stream's magic and version and returns the
// document count its header claims, capped for plausibility: only the
// stored region (readChunkTable) backs it.
func readHeader(r *byteReader) (int, error) {
	if string(r.b[:min(4, len(r.b))]) != codecMagic {
		return 0, fmt.Errorf("index: bad magic %q", r.b[:min(4, len(r.b))])
	}
	r.pos = 4
	switch v := r.u32(); {
	case r.bad:
		return 0, fmt.Errorf("index: truncated stream header")
	case v != CodecVersionCurrent:
		return 0, fmt.Errorf("index: unsupported version %d", v)
	}
	numDocs := r.u32()
	if r.bad || numDocs > 1<<28 {
		return 0, fmt.Errorf("index: implausible doc count %d", numDocs)
	}
	return int(numDocs), nil
}

// readChunkTable walks the stored region at raw[off:] — the chunk size,
// then the length-prefixed flate chunks of numDocs documents, which must
// end the stream — and returns the offset of each chunk's length prefix,
// followed by len(raw). Chunk c's compressed bytes are raw[offs[c]+8 :
// offs[c+1]]. Nothing is inflated, and nothing is sized by numDocs before
// the bytes that remain can hold that many chunks.
func readChunkTable(raw []byte, off, numDocs int) ([]int, error) {
	r := byteReader{b: raw, pos: off}
	if n := r.u32(); r.bad || n != storedChunkDocs {
		return nil, fmt.Errorf("index: stored chunk size %d, the codec writes %d", n, storedChunkDocs)
	}
	n := (numDocs + storedChunkDocs - 1) / storedChunkDocs
	// A chunk is a length prefix and at least one byte of flate stream.
	if n > (len(raw)-r.pos)/9 {
		return nil, fmt.Errorf("index: %d documents claimed, the stored region holds %d bytes", numDocs, len(raw)-r.pos)
	}
	offs := make([]int, n+1)
	for c := 0; c < n; c++ {
		offs[c] = r.pos
		l := r.u64()
		if r.bad || l == 0 || l > uint64(len(raw)-r.pos) {
			return nil, fmt.Errorf("index: stored chunk %d of %d bytes does not fit the stream", c, l)
		}
		r.pos += int(l)
	}
	if r.pos != len(raw) {
		return nil, fmt.Errorf("index: %d bytes after the stored region", len(raw)-r.pos)
	}
	offs[n] = r.pos
	return offs, nil
}

// readStoredChunk inflates chunk ci of a stored region of numDocs
// documents, whose chunk table (readChunkTable) is offs, with in and
// parses it into c; c's data is a view of in's buffer until the next
// inflate.
func readStoredChunk(raw []byte, offs []int, ci, numDocs int, in *inflater, c *storedChunk) error {
	data, err := in.inflate(raw[offs[ci]+8 : offs[ci+1]])
	if err != nil {
		return fmt.Errorf("index: stored chunk at doc %d: %w", ci*storedChunkDocs, err)
	}
	if !c.parse(data, min(storedChunkDocs, numDocs-ci*storedChunkDocs)) {
		return fmt.Errorf("index: stored chunk at doc %d does not parse", ci*storedChunkDocs)
	}
	return nil
}

// readStored appends the documents of a stored region of numDocs
// documents (raw, its chunk table offs) that remap keeps (nil: all), one
// inflate per chunk that keeps any: a chunk whose documents all survive is
// kept whole, copied off the inflater's buffer, and the survivors of any
// other are copied out of it.
func (s *storedRegion) readStored(raw []byte, offs []int, numDocs int, remap []int) error {
	in := inflaters.Get().(*inflater)
	defer in.release()
	for ci := 0; ci+1 < len(offs); ci++ {
		var live []int
		if remap != nil {
			live = remap[ci*storedChunkDocs:][:min(storedChunkDocs, numDocs-ci*storedChunkDocs)]
			if !slices.ContainsFunc(live, func(nid int) bool { return nid >= 0 }) {
				continue
			}
		}
		c := new(storedChunk)
		if err := readStoredChunk(raw, offs, ci, numDocs, in, c); err != nil {
			return err
		}
		if !slices.Contains(live, -1) {
			c.data = bytes.Clone(c.data)
		}
		s.appendSurvivors(c, live)
	}
	return nil
}

// decodePostings parses one field's term dictionary with its posting
// blocks and per-block metadata into fi.
func decodePostings(r *byteReader, fi *fieldIndex, numDocs int) error {
	numTerms := r.u32()
	if r.bad {
		return fmt.Errorf("index: truncated term count")
	}
	for t := uint32(0); t < numTerms; t++ {
		term := r.str()
		numPostings := r.u32()
		if r.bad {
			return fmt.Errorf("index: truncated term entry")
		}
		if int64(numPostings) > int64(numDocs) {
			return fmt.Errorf("index: term %q claims %d postings over %d docs",
				term, numPostings, numDocs)
		}
		n, hint := int(numPostings), capHint(numPostings, 1<<16)
		te := &termEntry{postingRun: newPostingRun(hint, hint)}
		multi := n > postingBlockSize
		if multi {
			te.blocks = make([]termCap, 0, capHint(uint32((n+postingBlockSize-1)/postingBlockSize), 1<<10))
		}
		prevDoc := -1
		for len(te.docs) < n {
			start := len(te.docs)
			blkLen := min(n-start, postingBlockSize)
			if multi {
				mf, ml, mb := r.uvarint(), r.uvarint(), r.f64()
				if r.bad || mf > 1<<24 || ml > 1<<32 {
					return fmt.Errorf("index: implausible block metadata for %q", term)
				}
				te.blocks = append(te.blocks, termCap{maxFreq: int(mf), minLen: int(ml), maxBoost: mb})
			}
			for k := 0; k < blkLen; k++ {
				delta := r.uvarint()
				if r.bad || delta == 0 || delta > uint64(numDocs) {
					return fmt.Errorf("index: bad docID delta for %q", term)
				}
				doc := prevDoc + int(delta)
				if doc >= numDocs {
					return fmt.Errorf("index: posting references doc %d of %d", doc, numDocs)
				}
				prevDoc = doc
				te.docs = append(te.docs, int32(doc))
			}
			// Frequencies arrive as the block's cumulative position ends; the
			// positions that back them are read below.
			end := uint64(len(te.positions))
			for k := 0; k < blkLen; k++ {
				f := r.uvarint()
				if end += f; r.bad || f == 0 || f > 1<<24 || end > math.MaxUint32 {
					return fmt.Errorf("index: implausible position count %d", f)
				}
				te.posEnd = append(te.posEnd, uint32(end))
			}
			flag := r.u8()
			if r.bad || flag > 1 {
				return fmt.Errorf("index: bad posting boost flag %d", flag)
			}
			var boost float64
			for k := start; k < start+blkLen; k++ {
				if flag == 1 || k == start {
					boost = r.f64()
				}
				te.setBoost(k, boost)
			}
			if r.bad {
				return fmt.Errorf("index: truncated boosts for %q", term)
			}
			for k := start; k < start+blkLen; k++ {
				prevPos := -1
				for q := te.freq(k); q > 0; q-- {
					delta := r.uvarint()
					if r.bad || delta == 0 || delta > math.MaxInt32 {
						return fmt.Errorf("index: bad position delta for %q", term)
					}
					pos := prevPos + int(delta)
					if pos > math.MaxInt32 {
						return fmt.Errorf("index: implausible position %d", pos)
					}
					prevPos = pos
					te.positions = append(te.positions, int32(pos))
				}
			}
		}
		fi.terms[term] = te
	}
	return nil
}

// readTables parses one field's length and boost tables at r (the wire
// shapes in the header comment), checking every docID against numDocs and
// every length against the 32-bit columns. With t nil it only checks the
// tables and moves r past them; otherwise t, covering numDocs documents,
// takes their values. A document with a length entry and no boost entry
// reads boost 0, and a boost for a document without a length entry is
// dropped. A flag-0 table covering every document of the length table —
// the table Encode writes for a uniform field — collapses to its one value;
// any other sets each boost through setBoost, add's rule.
func readTables(r *byteReader, numDocs int, t *docTable) error {
	numLens := r.u32()
	if r.bad || int64(numLens) > int64(numDocs) {
		return fmt.Errorf("index: bad field-length table")
	}
	id, sumLen := -1, uint64(0)
	for l := uint32(0); l < numLens; l++ {
		delta, v := r.uvarint(), r.uvarint()
		if id += int(delta); r.bad || delta == 0 || delta > uint64(numDocs) || id >= numDocs {
			return docIDError(delta, id, numDocs, "field length")
		}
		if sumLen += v; v > math.MaxInt32 || sumLen > math.MaxUint32 {
			return fmt.Errorf("index: implausible field length %d", v)
		}
		if t != nil {
			t.add(id, int(v), 0)
		}
	}
	numBoosts := r.u32()
	if r.bad || int64(numBoosts) > int64(numDocs) {
		return fmt.Errorf("index: bad field-boost table")
	}
	if numBoosts == 0 {
		return nil
	}
	// Flag 0: the docIDs, then one boost they all share; 1: a boost after
	// each docID.
	flag := r.u8()
	if r.bad || flag > 1 {
		return fmt.Errorf("index: bad field boost flag %d", flag)
	}
	ids, covered := *r, uint32(0)
	id = -1
	for k := uint32(0); k < numBoosts; k++ {
		delta := r.uvarint()
		if id += int(delta); r.bad || delta == 0 || delta > uint64(numDocs) || id >= numDocs {
			return docIDError(delta, id, numDocs, "field boost")
		}
		switch {
		case flag == 1:
			if v := r.f64(); t != nil && t.hasEntry(id) {
				t.setBoost(id, v)
			}
		case t != nil && t.hasEntry(id):
			covered++
		}
	}
	if flag == 0 {
		v := r.f64()
		switch {
		case t == nil:
		case covered == numLens:
			t.boost = v
		default:
			// The docIDs were checked above; walk them again for the value.
			id = -1
			for k := uint32(0); k < numBoosts; k++ {
				if id += int(ids.uvarint()); t.hasEntry(id) {
					t.setBoost(id, v)
				}
			}
		}
	}
	if r.bad {
		return fmt.Errorf("index: truncated field-boost table")
	}
	return nil
}

// docIDError reports a table's docID delta that is zero, truncated or
// lands on id, at or past numDocs.
func docIDError(delta uint64, id, numDocs int, table string) error {
	if delta == 0 || delta > uint64(numDocs) {
		return fmt.Errorf("index: bad %s docID delta", table)
	}
	return fmt.Errorf("index: %s references doc %d of %d", table, id, numDocs)
}

// checkBlocks validates the block metadata a snapshot carried against the
// exact per-block values, once the lengths are known. An understated
// maxFreq or overstated minLen would make Block-Max skipping drop true
// top-k documents, so metadata that is not a provable upper bound is
// rejected as corruption. Looser-than-exact is fine (the builder tracks
// conservatively).
func (fi *fieldIndex) checkBlocks() error {
	for t, te := range fi.terms {
		for bi, b := range te.blocks {
			s := bi * postingBlockSize
			exact := fi.exactCap(te, s, min(s+postingBlockSize, len(te.docs)))
			if b.minLen < 1 || b.maxFreq < exact.maxFreq || b.minLen > exact.minLen ||
				!(b.maxBoost >= exact.maxBoost) {
				return fmt.Errorf("index: term %q block %d metadata is not a valid score bound", t, bi)
			}
		}
	}
	return nil
}

func writeU32(w *bufio.Writer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.Write(buf[:])
}

func writeU64(w *bufio.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Write(buf[:])
}

func writeF64(w *bufio.Writer, v float64) { writeU64(w, math.Float64bits(v)) }

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

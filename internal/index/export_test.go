package index

// Posting is one entry of a posting list as Postings hands it out: the
// occurrences of one term in one document field. The index stores no
// Posting; it keeps each term's list in columns (see termEntry).
type Posting struct {
	// DocID is the document the term occurs in.
	DocID int
	// Positions are the token positions of each occurrence, ascending.
	Positions []int
	// Boost is the field boost captured at indexing time.
	Boost float64
}

// Freq returns the within-document term frequency.
func (p Posting) Freq() int { return len(p.Positions) }

// Postings returns the posting list of an analyzed term in a field,
// materialized into fresh Postings — an accessor for tests and debugging,
// not a read path. The term must already be in index form (lowercased,
// stemmed); use the analyzer to normalize raw text first.
func (ix *Index) Postings(field, term string) []Posting {
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	te := fi.postingsOf(term)
	var out []Posting
	for i, d := range te.docs {
		p := Posting{DocID: int(d), Boost: te.boostAt(i)}
		for _, pos := range te.positionsAt(i) {
			p.Positions = append(p.Positions, int(pos))
		}
		out = append(out, p)
	}
	return out
}

// Mapped reports whether this index serves postings from a mapped byte
// region instead of heap structures.
func (ix *Index) Mapped() bool { return ix.mapped != nil }

// writeChunk appends documents [beg, end) of s, at most storedChunkDocs,
// in the wire form, as an encode writes them with no TOC meta columns.
func writeChunk(b []byte, s *storedRegion, beg, end int) []byte {
	return newChunkWriter(&tocBuilder{}).write(b, s, beg, end)
}

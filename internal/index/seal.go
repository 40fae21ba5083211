package index

// Sealing a heap index. Add grows every column by append, so a built index
// carries the room the last doubling left: on the semantic index about a
// quarter of its term columns' capacity and a seventh of its stored
// chunks'. Seal drops that room once the build is done, and MergeIndexes
// writes the same layout directly, so every heap base — built, merged or
// decoded — keeps one exact-size slab per column of a field, each term a
// window of it.

// Seal copies each field's posting columns into one exact-size slab per
// column (docIDs, position ends, positions, and the boost tables of the
// terms that have one), each term keeping a window of every slab whose
// capacity is its length, and copies the block tables, the document tables,
// the tombstones and every stored chunk no other index shares to their
// lengths. It drops Add's analysis state too. Values do not change, so
// neither do encodes or rankings. A later Add still works: appending to a
// full window reallocates that term's column alone and never writes over a
// neighbour's. Seal writes the index, so it runs before any reader can see
// it; on a mapped index it does nothing.
func (ix *Index) Seal() {
	if ix.mapped != nil {
		return
	}
	for _, fi := range ix.fields {
		fi.seal()
	}
	ix.stored.seal()
	ix.deleted = clipped(ix.deleted)
	ix.w, ix.one = Scratch{}, fieldBatch{}
}

// seal moves the field's postings into exact-size columns and clips its
// block and document tables.
func (fi *fieldIndex) seal() {
	n, npos, nboost := 0, 0, 0
	for _, te := range fi.terms {
		n, npos, nboost = n+len(te.docs), npos+len(te.positions), nboost+len(te.boosts)
	}
	cols := newColumns(n, npos, nboost)
	for _, te := range fi.terms {
		r := cols.take(len(te.docs), len(te.positions), len(te.boosts) > 0)
		r.docs = append(r.docs, te.docs...)
		r.posEnd = append(r.posEnd, te.posEnd...)
		r.positions = append(r.positions, te.positions...)
		r.boost, r.boosts = te.boost, append(r.boosts, te.boosts...)
		te.postingRun = r
		te.blocks = clipped(te.blocks)
	}
	fi.docLen, fi.present, fi.boosts = clipped(fi.docLen), clipped(fi.present), clipped(fi.boosts)
}

// seal clips the chunk list and every chunk this region alone holds. A
// shared chunk is left as it is: another index may be reading it.
func (s *storedRegion) seal() {
	for _, c := range s.chunks {
		if !c.shared.Load() {
			c.data, c.ends = clipped(c.data), clipped(c.ends)
		}
	}
	s.chunks, s.first = clipped(s.chunks), clipped(s.first)
}

// columns are one field's posting columns, allocated at their final
// lengths and handed out front to back, a term's window at a time.
type columns struct {
	docs      []int32
	posEnd    []uint32
	positions []int32
	boosts    []float64
}

// newColumns allocates columns for n postings, npos positions and nboost
// boosts.
func newColumns(n, npos, nboost int) columns {
	return columns{
		docs:      make([]int32, n),
		posEnd:    make([]uint32, n),
		positions: make([]int32, npos),
		boosts:    make([]float64, nboost),
	}
}

// take cuts an empty run with room for exactly n postings and npos
// positions, and a boost table for the n postings when boosted, off the
// front of c. The run's appends fill its windows without reallocating; one
// past them reallocates, so no run ever writes into the next.
func (c *columns) take(n, npos int, boosted bool) postingRun {
	r := postingRun{docs: c.docs[:0:n], posEnd: c.posEnd[:0:n], positions: c.positions[:0:npos]}
	c.docs, c.posEnd, c.positions = c.docs[n:], c.posEnd[n:], c.positions[npos:]
	if boosted {
		r.boosts, c.boosts = c.boosts[:0:n], c.boosts[n:]
	}
	return r
}

// clipped returns s copied to an array of exactly its length, or s itself
// when it has no room past its length (nil stays nil).
func clipped[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

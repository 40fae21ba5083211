package index

// Segment merging for the LSM-shaped shard engine: many small immutable
// indexes (a base plus per-ingest-batch segments) are compacted into one,
// dropping tombstoned documents, WITHOUT re-analyzing any text. Postings
// are remapped and concatenated — sources are given in ascending global
// order and each source's posting lists are ascending locally, so the
// merged lists come out ascending by construction. The merged index is
// indistinguishable from a from-scratch Add of the surviving documents in
// the same order: same docID assignment, same posting shapes, same
// score-bound caps (rebuilt exactly), same statistics.

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
	for si, src := range sources {
		isDead := func(id int) bool { return src.numDeleted > 0 && src.deleted[id] }
		if dead != nil && dead[si] != nil {
			mask := dead[si]
			isDead = func(id int) bool { return mask[id] }
		}
		remap := make([]int, src.NumDocs())
		for id := range remap {
			if isDead(id) {
				remap[id] = -1
				continue
			}
			remap[id] = numDocs
			numDocs++
		}
		remaps[si] = remap
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

	for si, src := range sources {
		for name := range src.fields {
			if out.fields[name] != nil {
				continue // merged when an earlier source showed it
			}
			if fi := mergeField(name, sources[si:], remaps[si:], numDocs); fi != nil {
				out.fields[name] = fi
			}
		}
	}
	return out, remaps
}

// mergeField merges one field of the sources that carry it, or returns nil
// when only tombstoned documents do: such a field does not survive the
// merge, exactly as a from-scratch build would not see it.
func mergeField(name string, sources []*Index, remaps [][]int, numDocs int) *fieldIndex {
	var fi *fieldIndex
	for si, src := range sources {
		sfi := src.fields[name]
		if sfi == nil {
			continue
		}
		remap := remaps[si]
		sfi.eachDocLen(func(id, l int) {
			nid := remap[id]
			if nid < 0 {
				return
			}
			if fi == nil {
				fi = newFieldIndex()
				fi.docTable = newDocTable(numDocs)
			}
			fi.add(nid, l, sfi.boostOf(id))
		})
	}
	if fi == nil {
		return nil
	}

	// A term is merged where its first source shows it, across that source
	// and every later one, into columns allocated once at their final
	// lengths. Mapped sources materialize one term at a time; memory stays
	// bounded by a term's posting lists, never the whole field.
	lists := make([]postingRun, 0, len(sources))
	for si, src := range sources {
		sfi := src.fields[name]
		if sfi == nil {
			continue
		}
		for _, term := range sfi.termNames() {
			if fi.terms[term] != nil {
				continue
			}
			lists = lists[:0]
			n, npos := 0, 0
			for sj := si; sj < len(sources); sj++ {
				var pl postingRun
				if f := sources[sj].fields[name]; f != nil {
					pl = f.postingsOf(term)
				}
				lists = append(lists, pl)
				remap := remaps[sj]
				for i, d := range pl.docs {
					if remap[d] >= 0 {
						n++
						npos += pl.freq(i)
					}
				}
			}
			if n == 0 {
				continue
			}
			te := &termEntry{postingRun: newPostingRun(n, npos)}
			for k := range lists {
				pl, remap := &lists[k], remaps[si+k]
				for i, d := range pl.docs {
					if nid := remap[d]; nid >= 0 {
						te.appendPosting(nid, pl.boostAt(i), pl.positionsAt(i)...)
					}
				}
			}
			fi.terms[term] = te
		}
	}
	fi.rebuildCaps(true)
	return fi
}

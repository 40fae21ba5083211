package index

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// probeCounter stands between a compound scorer and one of its children
// and records the child's Block-Max probes.
type probeCounter struct {
	scorer
	targets, ends *[]int
}

func (p probeCounter) maxScoreUpTo(target int) (float64, int) {
	bound, end := p.scorer.maxScoreUpTo(target)
	*p.targets, *p.ends = append(*p.targets, target), append(*p.ends, end)
	return bound, end
}

// seekCounter counts the documents a root scorer is asked for.
type seekCounter struct {
	*booleanScorer
	seeks *int
}

func (c seekCounter) next() int { *c.seeks++; return c.booleanScorer.next() }

// TestWindowRecomputedOncePerWindow is the whitebox check on the window
// cache: over a whole search the root walks its children for a new (bound,
// boundary) once per distinct window it crosses — every walk's target lies
// past the end of the window before — however many seeks land inside each.
// The counters are the test's own, hung on the root and its children.
func TestWindowRecomputedOncePerWindow(t *testing.T) {
	ix := indexOf(kernelCorpus(rand.New(rand.NewSource(99)), 3000, "event", "narration", "fromRules"))
	fields := []FieldBoost{{"event", 4}, {"narration", 1}, {"fromRules", 1.5}}
	walks, seeks := 0, 0
	for _, text := range []string{"goal foul", "save corner pass", "keeper header"} {
		q := MultiFieldQuery(text, fields)
		root := q.bind(ix.analyzer, nil).newScorer(ix, new(searchArena)).(*booleanScorer)
		var targets, ends []int
		for i, sh := range root.shoulds {
			root.shoulds[i] = probeCounter{scorer: sh, targets: &targets, ends: &ends}
		}
		if err := sameHits(ix.collect(seekCounter{root, &seeks}, 10, nil), ix.ExhaustiveSearch(q, 10)); err != nil {
			t.Fatalf("%q: instrumented search diverged: %v", text, err)
		}
		// One walk probes every child once, all at the same target; the
		// window it yields ends at the earliest child boundary.
		n := len(root.shoulds)
		if len(targets) == 0 || len(targets)%n != 0 {
			t.Fatalf("%q: %d child probes for %d children", text, len(targets), n)
		}
		prevEnd := -1
		for w := 0; w < len(targets); w += n {
			end := noMoreDocs
			for c := 0; c < n; c++ {
				if targets[w+c] != targets[w] {
					t.Fatalf("%q: walk %d probed its children at targets %v", text, w/n, targets[w:w+n])
				}
				end = min(end, ends[w+c])
			}
			if targets[w] <= prevEnd {
				t.Fatalf("%q: walk %d, at target %d, is inside the window ending at %d", text, w/n, targets[w], prevEnd)
			}
			prevEnd = end
		}
		walks += len(targets) / n
	}
	t.Logf("%d seeks crossed %d windows, each walked once", seeks, walks)
	if seeks < 4*walks {
		t.Fatalf("%d seeks over %d windows: the corpus does not put several seeks in a window, so the test shows nothing", seeks, walks)
	}
}

// TestAddMaintainsBlockBounds is the whitebox check on the incremental
// tracking: Add must keep one metadata entry per block for multi-block
// terms, each a valid (possibly loose) bound over its block, and no
// entries at all for single-block terms.
func TestAddMaintainsBlockBounds(t *testing.T) {
	ix := New(StandardAnalyzer{})
	rng := rand.New(rand.NewSource(7))
	for d := 0; d < 300; d++ {
		doc := new(Document)
		text := "goal"
		for i := 0; i < rng.Intn(4); i++ {
			text += " goal"
		}
		if d == 150 {
			text += " unicorn"
		}
		doc.AddBoosted("f", text, 0.5+rng.Float64())
		ix.Add(doc)
	}
	fi := ix.fields["f"]
	te := fi.terms["goal"]
	n := len(te.docs)
	if n <= postingBlockSize {
		t.Fatalf("term spans %d postings, need > %d", n, postingBlockSize)
	}
	blks := te.blocks
	if want := (n + postingBlockSize - 1) / postingBlockSize; len(blks) != want {
		t.Fatalf("got %d block entries, want %d", len(blks), want)
	}
	for bi, blk := range blks {
		s := bi * postingBlockSize
		exact := fi.exactCap(te, s, min(s+postingBlockSize, n))
		if blk.maxFreq < exact.maxFreq || blk.minLen > exact.minLen || blk.minLen < 1 ||
			blk.maxBoost < exact.maxBoost {
			t.Errorf("block %d metadata %+v is not a valid bound for exact %+v", bi, blk, exact)
		}
	}
	if len(fi.terms["unicorn"].blocks) > 0 {
		t.Error("single-block term carries block metadata")
	}
}

// Stream-building helpers for the decoder-hardening regressions.
func putU32(b *bytes.Buffer, v uint32)     { binary.Write(b, binary.LittleEndian, v) }
func putF64(b *bytes.Buffer, v float64)    { binary.Write(b, binary.LittleEndian, v) }
func putUvarint(b *bytes.Buffer, v uint64) { b.Write(binary.AppendUvarint(nil, v)) }

// tableStream starts a stream claiming two documents with one inverted
// field "f" of no terms, and hands the buffer to build to append the
// field-length and boost tables under test. The decoder must refuse the
// tables before it looks for the stored region that would back the claim.
func tableStream(build func(b *bytes.Buffer)) []byte {
	var b bytes.Buffer
	b.WriteString(codecMagic)
	putU32(&b, CodecVersionCurrent)
	putU32(&b, 2) // two docs
	putU32(&b, 1) // one inverted field
	putU32(&b, 1)
	b.WriteString("f")
	putU32(&b, 0) // no terms
	build(&b)
	return b.Bytes()
}

// TestDecodeRejectsStrayDocLenID: a field-length entry for a document that
// does not exist would inflate sumLen, skewing the average-length
// statistic every similarity divides by. Its docID delta is in range, so
// only the document-count check can refuse it.
func TestDecodeRejectsStrayDocLenID(t *testing.T) {
	data := tableStream(func(b *bytes.Buffer) {
		putU32(b, 2) // two docLen entries:
		putUvarint(b, 1)
		putUvarint(b, 3) // doc 0 of 3 tokens
		putUvarint(b, 2)
		putUvarint(b, 3) // doc 2 of 2 — stray
		putU32(b, 0)     // no boosts
	})
	_, err := Decode(bytes.NewReader(data), nil)
	if err == nil || !strings.Contains(err.Error(), "field length references doc 2 of 2") {
		t.Fatalf("decoder accepted a field-length entry for a nonexistent doc: %v", err)
	}
}

// TestDecodeRejectsStrayBoostID is the boost-table variant.
func TestDecodeRejectsStrayBoostID(t *testing.T) {
	data := tableStream(func(b *bytes.Buffer) {
		putU32(b, 0) // no docLens
		putU32(b, 2) // two boost entries, one boost each:
		b.WriteByte(1)
		putUvarint(b, 1)
		putF64(b, 2.0) // doc 0
		putUvarint(b, 2)
		putF64(b, 2.0) // doc 2 of 2 — stray
	})
	_, err := Decode(bytes.NewReader(data), nil)
	if err == nil || !strings.Contains(err.Error(), "field boost references doc 2 of 2") {
		t.Fatalf("decoder accepted a boost entry for a nonexistent doc: %v", err)
	}
}

// TestDecodeRejectsInvalidBlockMetadata flips the first block's maxFreq
// header to a value below the block's real maximum: pruning with it could
// drop a true top-k document, so the decoder must treat it as corruption.
func TestDecodeRejectsInvalidBlockMetadata(t *testing.T) {
	ix := New(StandardAnalyzer{})
	for d := 0; d < 200; d++ {
		doc := new(Document)
		doc.Add("f", "goal")
		ix.Add(doc)
	}
	data, _, err := encode(ix)
	if err != nil {
		t.Fatal(err)
	}
	// Offset of the first block header's maxFreq uvarint: magic(4),
	// version(4), numDocs(4), numFields(4), name "f"(5), numTerms(4),
	// term "goal"(8), numPostings(4).
	const off = 37
	if data[off] != 1 {
		t.Fatalf("layout drifted: expected maxFreq uvarint 1 at offset %d, got %d", off, data[off])
	}
	data[off] = 0 // claim maxFreq 0 while the block holds freq-1 postings
	if _, err := Decode(bytes.NewReader(data), StandardAnalyzer{}); err == nil {
		t.Fatal("decoder accepted block metadata below the block's real maximum")
	}
}

// TestBoundsAreExact holds the term and phrase bounds to the scores they
// bound, bit for bit: under either similarity a bound is the score of a
// posting with its best-case shape, and at or above the score of every
// posting it covers, so the kernel may skip a block whose bound only ties
// the bar. Every posting block of a real index is checked, on the heap,
// decoded and mapped, at several query boosts and document frequencies;
// then a grid of shapes, every shape against each one it dominates.
func TestBoundsAreExact(t *testing.T) {
	heap := indexOf(kernelCorpus(rand.New(rand.NewSource(40)), 1200))
	decoded, err := reopen(heap, false)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := reopen(heap, true)
	if err != nil {
		t.Fatal(err)
	}
	queryBoosts := []float64{0.05, 0.5, 1, 1.1, 1.6, 2.5, 7.3}
	idfSum := 2 * heap.termStats(nil, "narration", "goal").idf()
	bits := math.Float64bits
	// norm is the length norm of a document l tokens long.
	norm := func(l int) float64 { return (&docTable{docLen: []int32{int32(l)}}).norm(0) }
	for name, ix := range map[string]*Index{"heap": heap, "decoded": decoded, "mapped": mapped} {
		blocks := 0
		for field, fi := range ix.fields {
			fi.eachTerm(func(term string, src postingsSource) {
				var c postingsCursor
				c.init(src, false, nil)
				for b := 0; b < c.numBlocks(); b++ {
					cp := c.blockCap(b)
					if cp.maxBoost < 0 {
						continue // a flipped boost: the bound is +Inf
					}
					blocks++
					for _, df := range []int{1, src.len(), ix.NumDocs()} {
						st := ix.termStats(nil, field, term)
						st.df = df
						w := ix.sim.weight(st)
						for _, qb := range queryBoosts {
							bound, pb := scoreBound(cp, w, qb), phraseBound(cp, idfSum, qb)
							best := w.score(cp.maxFreq, cp.minLen) * cp.maxBoost * qb
							bestPhrase := phraseScore(cp.maxFreq, idfSum, cp.maxBoost, norm(cp.minLen), qb)
							if bits(bound) != bits(best) || bits(pb) != bits(bestPhrase) {
								t.Fatalf("%s %s:%s block %d %+v df %d query boost %v: term bound %v, best-case score %v; phrase bound %v, best-case score %v",
									name, field, term, b, cp, df, qb, bound, best, pb, bestPhrase)
							}
							for i := b * postingBlockSize; i < min((b+1)*postingBlockSize, c.n); i++ {
								d := c.docAt(i)
								freq, boost := c.at(i)
								score := w.score(freq, fi.lengthOf(d)) * boost * qb
								// A phrase starting at the posting occurs at most
								// freq times there.
								phrase := phraseScore(freq, idfSum, boost, fi.norm(d), qb)
								if score > bound || phrase > pb {
									t.Fatalf("%s %s:%s block %d %+v df %d query boost %v: posting %d (doc %d, freq %d, boost %v) scores %v over the bound %v, phrase %v over %v",
										name, field, term, b, cp, df, qb, i, d, freq, boost, score, bound, phrase, pb)
								}
							}
						}
					}
				}
			})
		}
		if blocks < 100 {
			t.Fatalf("%s: only %d posting blocks checked", name, blocks)
		}
	}

	// The grid: every best-case shape against every shape it dominates
	// (freq at most, length at least, boost at most).
	var shapes []termCap
	for _, f := range []int{1, 2, 3, 5, 8, 13} {
		for _, l := range []int{1, 2, 3, 4, 7, 10, 13, 50} {
			for _, b := range []float64{0.1, 0.5, 1, 1.6, 2.2, 5} {
				shapes = append(shapes, termCap{maxFreq: f, minLen: l, maxBoost: b})
			}
		}
	}
	const numDocs, avgLen = 1200, 6.3
	for _, sim := range []Similarity{ClassicTFIDF{}, BM25{}} {
		for _, df := range []int{0, 1, 7, 150, numDocs} {
			w := sim.weight(termStats{df: df, numDocs: numDocs, avgLen: avgLen})
			for _, qb := range queryBoosts {
				for _, cp := range shapes {
					bound, pb := scoreBound(cp, w, qb), phraseBound(cp, idfSum, qb)
					if bits(bound) != bits(w.score(cp.maxFreq, cp.minLen)*cp.maxBoost*qb) ||
						bits(pb) != bits(phraseScore(cp.maxFreq, idfSum, cp.maxBoost, norm(cp.minLen), qb)) {
						t.Fatalf("%T shape %+v df %d query boost %v: term bound %v, phrase bound %v, not the best-case scores",
							sim, cp, df, qb, bound, pb)
					}
					for _, p := range shapes {
						if p.maxFreq > cp.maxFreq || p.minLen < cp.minLen || p.maxBoost > cp.maxBoost {
							continue
						}
						score := w.score(p.maxFreq, p.minLen) * p.maxBoost * qb
						phrase := phraseScore(p.maxFreq, idfSum, p.maxBoost, norm(p.minLen), qb)
						if score > bound || phrase > pb {
							t.Fatalf("%T shape %+v df %d query boost %v: a posting shaped %+v scores %v over the bound %v (phrase %v, bound %v)",
								sim, cp, df, qb, p, score, bound, phrase, pb)
						}
					}
				}
			}
		}
	}
}

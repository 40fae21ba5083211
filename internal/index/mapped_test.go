package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// openMappedPair encodes ix with a TOC and opens the same bytes both ways:
// through the heap decoder and through the mapped reader.
func openMappedPair(tb testing.TB, ix *Index, metaFields ...string) (heap, mapped *Index, raw, toc []byte) {
	tb.Helper()
	raw, toc, err := encode(ix, metaFields...)
	if err == nil {
		heap, err = openBytes(raw, toc, false)
	}
	if err == nil {
		mapped, err = openBytes(raw, toc, true)
	}
	if err != nil {
		tb.Fatal(err)
	}
	if !mapped.Mapped() || heap.Mapped() {
		tb.Fatal("storage-mode flags inverted")
	}
	return heap, mapped, raw, toc
}

// TestMappedLocalStatsClean pins the O(vocabulary) load-time contract: a
// freshly opened mapped index exports the statistics of the index it was
// encoded from, answered from the TOC alone, decoding no stored document.
func TestMappedLocalStatsClean(t *testing.T) {
	runCase(t, kernelCase{docs: kernelCorpus(rand.New(rand.NewSource(11)), 500), rep: "mapped"})
}

// TestMappedMetaAndLazyStored: a field captured as a TOC column is read
// without touching the stored region, and the documents sharing a value
// share one string; any other field is read through Doc, which caches its
// document; and Doc() decodes documents identical to the heap decode's.
func TestMappedMetaAndLazyStored(t *testing.T) {
	ix := New(StandardAnalyzer{})
	for d := 0; d < 10; d++ {
		doc := new(Document)
		doc.Add("narration", strings.Repeat("goal ", d+1))
		doc.Fields = append(doc.Fields,
			Field{Name: "_page", Text: fmt.Sprintf("page-%d", d/3)},
			Field{Name: "color", Text: []string{"red", "blue"}[d%2]})
		ix.Add(doc)
	}
	heap, mapped, _, _ := openMappedPair(t, ix, "_page")

	q := TermQuery{Field: "narration", Term: "goal"}
	if err := sameHits(mapped.Search(q, 5), heap.Search(q, 5)); err != nil {
		t.Fatalf("search diverged: %v", err)
	}
	for d := 0; d < 10; d++ {
		got, want := mapped.Meta(d, "_page"), fmt.Sprintf("page-%d", d/3)
		if got != want || heap.Meta(d, "_page") != want {
			t.Fatalf("Meta(%d, _page) = %q mapped, %q heap; want %q", d, got, heap.Meta(d, "_page"), want)
		}
		if first := mapped.Meta(d/3*3, "_page"); unsafe.StringData(got) != unsafe.StringData(first) {
			t.Fatalf("Meta(%d, _page) holds its own copy of %q", d, got)
		}
	}
	for _, ix := range []*Index{heap, mapped} {
		if ix.Meta(-1, "_page") != "" || ix.Meta(10, "_page") != "" || ix.Meta(10, "color") != "" {
			t.Fatal("out-of-range Meta must be empty")
		}
	}
	// Search and TOC-backed metadata must not have decoded any stored
	// document; documents never land in ix.stored on a mapped index.
	if n := mapped.CachedDocs(); n != 0 {
		t.Fatalf("%d documents decoded before any Doc access", n)
	}
	// A non-TOC field is read through Doc, which caches its document.
	if got := mapped.Meta(3, "color"); got != "blue" || got != heap.Meta(3, "color") {
		t.Fatalf("Meta(3, color) = %q", got)
	}
	if mapped.cachedDoc(3) == nil || mapped.CachedDocs() != 1 || heap.CachedDocs() != 0 {
		t.Fatal("Meta of a non-TOC field did not decode and cache exactly its document")
	}
	if mapped.stored.n != 0 {
		t.Fatal("mapped Doc access must decode per document, not fill ix.stored")
	}
	for d := 0; d < 10; d++ {
		if got, want := mapped.Doc(d), heap.Doc(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("Doc(%d) diverged:\nmapped: %+v\nheap:   %+v", d, got, want)
		}
	}
}

// TestMappedEncodeIsRawCopy: re-encoding a mapped index must be a byte
// copy of the mapped region (the merger and snapshot writer rely on this
// being cheap and exact).
func TestMappedEncodeIsRawCopy(t *testing.T) {
	ix := indexOf(kernelCorpus(rand.New(rand.NewSource(3)), 400))
	_, mapped, raw, toc := openMappedPair(t, ix)

	var re2 bytes.Buffer
	toc2, err := mapped.EncodeWithTOC(&re2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re2.Bytes(), raw) || !bytes.Equal(toc2, toc) {
		t.Fatal("EncodeWithTOC on a mapped index must return the original payload and TOC")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Add on a mapped index must panic")
		}
	}()
	doc := new(Document)
	doc.Add("event", "goal")
	mapped.Add(doc)
}

// TestOpenMappedRejects covers the structured error surface: an absent
// TOC, a payload of another codec version, and mismatched or trailing TOC
// bytes are all plain errors.
func TestOpenMappedRejects(t *testing.T) {
	raw, toc, err := encode(indexOf([]*Document{new(Document).Add("f", "goal goal save")}))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := OpenMapped(raw, nil, nil); err == nil {
		t.Fatal("empty TOC accepted")
	}
	v1 := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	if _, err := OpenMapped(v1, toc, nil); err == nil {
		t.Fatal("v1 payload accepted")
	}
	if _, err := OpenMapped(raw[:len(raw)-1], toc, nil); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := OpenMapped(raw, toc[:len(toc)-1], nil); err == nil {
		t.Fatal("truncated TOC accepted")
	}
	if _, err := OpenMapped(raw, append(append([]byte(nil), toc...), 0), nil); err == nil {
		t.Fatal("trailing TOC bytes accepted")
	}

	// A header's document count may size nothing the payload does not back.
	raw, toc = hostileChunkTable()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = OpenMapped(raw, toc, nil)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; err == nil && grew > 4<<20 {
		t.Fatalf("opened 2^28 claimed documents in %d bytes with %d bytes allocated", len(raw), grew)
	}
}

// hostileChunkTable is a 2,068-byte payload claiming 2^28 documents in 256
// empty chunks of 2^20, and the 28-byte TOC that matches it.
func hostileChunkTable() (raw, toc []byte) {
	u32 := binary.LittleEndian.AppendUint32
	raw = u32(u32(u32([]byte(codecMagic), CodecVersionCurrent), 1<<28), 0)
	storedOff := len(raw)
	raw = append(u32(raw, 1<<20), make([]byte, 256*8)...)
	toc = u32(u32([]byte(tocMagic), tocVersion), 1<<28)
	toc = binary.LittleEndian.AppendUint64(toc, uint64(storedOff))
	return raw, u32(u32(toc, 0), 0)
}

// TestMappedCorruptionFailsClosed flips bytes of the payload — every byte
// of one multi-block term's blocks, so each lazily decoded section is hit
// wherever it starts, and every 13th byte elsewhere — and of the TOC, and
// asserts the worst outcome is an open error or wrong results — never a
// panic, never an out-of-bounds read. Both similarities run, at a limit
// that prunes and one that scores every block. The shard envelope's
// checksums make these images unreachable in practice; this pins the
// defence-in-depth contract. The flips run in eight parallel subtests,
// each taking every eighth offset.
func TestMappedCorruptionFailsClosed(t *testing.T) {
	ix := indexOf(kernelCorpus(rand.New(rand.NewSource(19)), 300, "narration"))
	raw, toc, err := encode(ix)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(raw, toc []byte) {
		m, err := OpenMapped(raw, toc, StandardAnalyzer{})
		if err != nil {
			return
		}
		queries := []Query{
			TermQuery{Field: "narration", Term: "goal"},
			PhraseQuery{Field: "narration", Terms: []string{"goal", "save"}},
			PhraseQuery{Field: "narration", Terms: []string{"save", "goal"}},
			BooleanQuery{Must: []Query{TermQuery{Field: "narration", Term: "foul"}}},
			BooleanQuery{Should: []Query{TermQuery{Field: "narration", Term: "goal"}, TermQuery{Field: "narration", Term: "save"}}},
		}
		for _, sim := range []Similarity{ClassicTFIDF{}, BM25{}} {
			m.SetSimilarity(sim)
			for _, q := range queries {
				m.Search(q, 10)
				m.Search(q, 1000)
			}
		}
		// The oracle reads through postingsOf and phraseAt's cursors, which do
		// not depend on the similarity; the phrase is its slow case, so once.
		for _, q := range queries[:2] {
			m.ExhaustiveSearch(q, 10)
		}
		m.LocalStats()
		m.Doc(0)
		m.Stats()
		m.Delete(0)
		m.LocalStats() // with a tombstone it walks every term's blocks
	}

	// The dense range: from the first block of "goal" to the next term's.
	clean, err := OpenMapped(raw, toc, StandardAnalyzer{})
	if err != nil {
		t.Fatal(err)
	}
	terms := clean.fields["narration"].m.terms
	if !terms["goal"].multi {
		t.Fatal("the densely flipped term must span several blocks")
	}
	lo, hi := int(terms["goal"].offs[0]), len(raw)
	for _, mt := range terms {
		if off := int(mt.offs[0]); off > lo && off < hi {
			hi = off
		}
	}
	const parts = 8
	for part := 0; part < parts; part++ {
		t.Run(fmt.Sprintf("part=%d", part), func(t *testing.T) {
			t.Parallel()
			for off := part; off < len(raw); off += parts {
				if (off < lo || off >= hi) && off%13 != 0 {
					continue
				}
				mut := append([]byte(nil), raw...)
				mut[off] ^= 0x41
				probe(mut, toc)
			}
			for off := 7 * part; off < len(toc); off += 7 * parts {
				mut := append([]byte(nil), toc...)
				mut[off] ^= 0x41
				probe(raw, mut)
			}
		})
	}
}

// FuzzOpenMapped hammers the mapped reader with arbitrary payload/TOC
// pairs: whatever the bytes, opening and then searching must not panic.
func FuzzOpenMapped(f *testing.F) {
	ix := New(StandardAnalyzer{})
	for d := 0; d < 200; d++ {
		doc := new(Document)
		doc.Add("f", strings.Repeat("goal ", d%5+1)+"save")
		doc.Fields = append(doc.Fields, Field{Name: "_page", Text: "p"})
		ix.Add(doc)
	}
	raw, toc, err := encode(ix, "_page")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, toc)
	f.Add(raw[:len(raw)/2], toc)
	f.Add(raw, toc[:len(toc)/2])
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped, toc)
	f.Add([]byte("SIDX"), []byte("STOC"))
	hostileRaw, hostileTOC := hostileChunkTable()
	f.Add(hostileRaw, hostileTOC)

	f.Fuzz(func(t *testing.T, raw, toc []byte) {
		m, err := OpenMapped(raw, toc, StandardAnalyzer{})
		if err != nil {
			return
		}
		for _, q := range []Query{
			TermQuery{Field: "f", Term: "goal"},
			PhraseQuery{Field: "f", Terms: []string{"goal", "save"}},
			FuzzyQuery{Field: "f", Term: "goap"},
		} {
			m.Search(q, 5)
			m.ExhaustiveSearch(q, 5)
		}
		m.LocalStats()
		m.Meta(0, "_page")
		m.Doc(0)
	})
}

// eagerBlock is the block decoder the mapped path shipped with until the
// cursor learned to decode a block by sections (DESIGN §15): one call parses
// a whole block — docIDs, frequencies, boosts expanded to one per posting,
// and every posting's positions — by append. load and spoil are that code
// verbatim; it stays here as the oracle the sectioned cursor is compared
// against.
type eagerBlock struct {
	f       *mappedField
	t       *mappedTerm
	withPos bool

	blk    int // decoded block index, -1 before first load
	bad    bool
	docs   []int32
	freqs  []int32
	boosts []float64
	// posOff[k]..posOff[k+1] delimit posting k's positions.
	posOff    []int32
	positions []int
}

func (r *eagerBlock) load(b int) bool {
	if r.blk == b {
		return !r.bad
	}
	r.blk = b
	r.bad = false
	r.docs = r.docs[:0]
	r.freqs = r.freqs[:0]
	r.boosts = r.boosts[:0]
	r.posOff = r.posOff[:0]
	r.positions = r.positions[:0]
	if b < 0 || b >= len(r.t.offs) || r.t.offs[b] < 0 || r.t.offs[b] > int64(len(r.f.raw)) {
		r.bad = true
		return false
	}
	br := byteReader{b: r.f.raw, pos: int(r.t.offs[b])}
	if r.t.multi {
		// Skip the max-impact header; bounds are read via blockCap when a
		// scorer needs them, without decoding the block.
		br.uvarint()
		br.uvarint()
		br.f64()
	}
	n := r.t.blockLen(b)
	numDocs := len(r.f.docLen)
	prev := int32(-1)
	if b > 0 {
		prev = r.t.lastDocs[b-1]
	}
	for k := 0; k < n; k++ {
		d := br.uvarint()
		if br.bad || d == 0 || d > uint64(numDocs) {
			return r.spoil()
		}
		doc := prev + int32(d)
		if int(doc) >= numDocs {
			return r.spoil()
		}
		prev = doc
		r.docs = append(r.docs, doc)
	}
	if prev != r.t.lastDocs[b] {
		// The payload disagrees with the TOC: one of them is corrupt.
		return r.spoil()
	}
	totalFreq := 0
	for k := 0; k < n; k++ {
		f := br.uvarint()
		if br.bad || f == 0 || f > 1<<24 {
			return r.spoil()
		}
		totalFreq += int(f)
		r.freqs = append(r.freqs, int32(f))
	}
	flag := byte(0)
	if br.pos < len(br.b) {
		flag = br.b[br.pos]
		br.pos++
	} else {
		return r.spoil()
	}
	switch flag {
	case 0:
		v := br.f64()
		if br.bad {
			return r.spoil()
		}
		for k := 0; k < n; k++ {
			r.boosts = append(r.boosts, v)
		}
	case 1:
		for k := 0; k < n; k++ {
			v := br.f64()
			if br.bad {
				return r.spoil()
			}
			r.boosts = append(r.boosts, v)
		}
	default:
		return r.spoil()
	}
	if r.withPos {
		// Position deltas are at least one byte each, so the remaining
		// region bounds the honest total — a lying freq cannot force an
		// allocation past the bytes that exist.
		if totalFreq > len(br.b)-br.pos {
			return r.spoil()
		}
		for k := 0; k < n; k++ {
			r.posOff = append(r.posOff, int32(len(r.positions)))
			prevPos := -1
			for q := int32(0); q < r.freqs[k]; q++ {
				delta := br.uvarint()
				if br.bad || delta == 0 || delta > 1<<32 {
					return r.spoil()
				}
				pos := prevPos + int(delta)
				if pos > 1<<32 {
					return r.spoil()
				}
				prevPos = pos
				r.positions = append(r.positions, pos)
			}
		}
		r.posOff = append(r.posOff, int32(len(r.positions)))
	}
	return true
}

func (r *eagerBlock) spoil() bool {
	r.bad = true
	r.docs = r.docs[:0]
	r.freqs = r.freqs[:0]
	r.boosts = r.boosts[:0]
	r.posOff = r.posOff[:0]
	r.positions = r.positions[:0]
	return false
}

// eagerPosting is one posting as eagerBlock decodes it.
type eagerPosting struct {
	doc, freq int
	boost     float64
	positions []int
}

// eagerPostings decodes the term's whole list with eagerBlock.
func eagerPostings(tb testing.TB, f *mappedField, t *mappedTerm) []eagerPosting {
	tb.Helper()
	r := &eagerBlock{f: f, t: t, withPos: true, blk: -1}
	var out []eagerPosting
	for b := 0; b < len(t.offs); b++ {
		if !r.load(b) {
			tb.Fatalf("reference decoder rejected block %d", b)
		}
		for k := range r.docs {
			out = append(out, eagerPosting{
				doc: int(r.docs[k]), freq: int(r.freqs[k]), boost: r.boosts[k],
				positions: append([]int(nil), r.positions[r.posOff[k]:r.posOff[k+1]]...),
			})
		}
	}
	if len(out) != t.n {
		tb.Fatalf("reference decoder produced %d postings of %d", len(out), t.n)
	}
	return out
}

// oneTermIndex holds n documents carrying "goal" in field "event": freq
// repeats it that many times per document (alternating with a filler so the
// positions are not consecutive) and boost, when non-nil, sets each
// document's field boost — equal boosts make flag-0 blocks, differing ones
// flag-1. Every third docID is a document without the term, so deltas vary.
func oneTermIndex(n int, freq func(d int) int, boost func(d int) float64) *Index {
	ix := New(StandardAnalyzer{})
	for d := 0; d < n; d++ {
		if d%3 == 2 {
			doc := new(Document)
			doc.Add("event", "corner")
			ix.Add(doc)
		}
		doc := new(Document)
		f := Field{Name: "event", Text: strings.Repeat("goal save ", freq(d)) + "foul"}
		if boost != nil {
			f.Boost = boost(d)
		}
		doc.Fields = append(doc.Fields, f)
		ix.Add(doc)
	}
	return ix
}

// twoByteVarintIndex holds n postings of "goal" whose docID deltas,
// frequencies and position deltas all need two varint bytes — the general
// case behind the cursor's one-byte fast path.
func twoByteVarintIndex(n int) *Index {
	ix := New(StandardAnalyzer{})
	for d := 0; d < n; d++ {
		for k := 0; k < 129; k++ {
			doc := new(Document)
			doc.Add("event", "corner")
			ix.Add(doc)
		}
		doc := new(Document)
		doc.Add("event", "goal "+strings.Repeat("save ", 130)+strings.Repeat("goal ", 129))
		ix.Add(doc)
	}
	return ix
}

// TestPostingsCursorMatchesEagerDecode drives the cursor through seeded
// access orders — walks up and down a run, jumps across runs and back,
// seeks, findDoc hits and misses, positions before frequencies and after,
// indexes just outside the list — on every term of corpora covering the
// block shapes the codec writes, from both sources: the mapped cursor's
// sectioned decode and the heap cursor's one run over the decoded entry.
// Every answer must equal the eager decoder's.
func TestPostingsCursorMatchesEagerDecode(t *testing.T) {
	one := func(int) int { return 1 }
	corpora := map[string]*Index{
		"single-block":   oneTermIndex(40, one, nil),
		"exactly-128":    oneTermIndex(postingBlockSize, one, nil),
		"129":            oneTermIndex(postingBlockSize+1, one, nil),
		"multi-block":    oneTermIndex(700, one, nil),
		"flag-1":         oneTermIndex(300, one, func(d int) float64 { return 1 + float64(d%7)/4 }),
		"flag-0-boosted": oneTermIndex(300, one, func(int) float64 { return 2.5 }),
		"flags-mixed": oneTermIndex(700, one, func(d int) float64 {
			if d/200%2 == 0 {
				return 1 + float64(d%7)/4
			}
			return 2.5
		}),
		"multi-position":   oneTermIndex(300, func(d int) int { return 1 + d%5 }, nil),
		"two-byte-varints": twoByteVarintIndex(140),
		"random":           indexOf(kernelCorpus(rand.New(rand.NewSource(19)), 1200, "event", "narration")),
	}
	for name, ix := range corpora {
		heap, mapped, _, _ := openMappedPair(t, ix)
		rng := rand.New(rand.NewSource(int64(len(name))))
		for field, fi := range mapped.fields {
			for term, mt := range fi.m.terms {
				ref := eagerPostings(t, fi.m, mt)
				for round := 0; round < 4; round++ {
					label := name + "/" + field + "/" + term
					driveCursor(t, label+"/mapped", rng, fi, term, ref, round%2 == 0)
					driveCursor(t, label+"/heap", rng, heap.fields[field], term, ref, round%2 == 0)
				}
			}
		}
	}
}

// driveCursor runs one seeded sequence of accesses against a fresh cursor
// over the field's term.
func driveCursor(t *testing.T, label string, rng *rand.Rand, fi *fieldIndex, term string, ref []eagerPosting, withPos bool) {
	t.Helper()
	var r postingsCursor
	r.init(fi.lookup(term), withPos, nil)
	n := r.n
	if n != len(ref) {
		t.Fatalf("%s: the cursor counts %d postings, want %d", label, n, len(ref))
	}
	// check compares everything the cursor will say about posting index i,
	// asking for positions before or after frequencies as the seed decides.
	// Only a posting inside the current run answers; a heap cursor's one run
	// is the whole list and always carries positions.
	check := func(i int) {
		t.Helper()
		var want eagerPosting
		if i >= r.base && i < r.base+len(r.docs) {
			want = ref[i]
		}
		if !withPos && r.t != nil {
			want.positions = nil
		}
		posFirst := rng.Intn(2) == 0
		var got []int32
		if posFirst {
			got = r.positionsAt(i)
		}
		freq, boost := r.at(i)
		if !posFirst {
			got = r.positionsAt(i)
		}
		var pos []int
		for _, p := range got {
			pos = append(pos, int(p))
		}
		if freq != want.freq || boost != want.boost || !reflect.DeepEqual(pos, want.positions) {
			t.Fatalf("%s: posting %d (run from %d current): got freq %d boost %v positions %v, want %+v",
				label, i, r.base, freq, boost, pos, want)
		}
	}
	docAt := func(i int) {
		t.Helper()
		want := noMoreDocs
		if i >= 0 && i < n {
			want = ref[i].doc
		}
		if got := r.docAt(i); got != want {
			t.Fatalf("%s: docAt(%d) = %d, want %d", label, i, got, want)
		}
	}
	for step := 0; step < 60; step++ {
		i := rng.Intn(n+4) - 2
		switch rng.Intn(7) {
		case 0: // ascending run
			for j := i; j < i+1+rng.Intn(200); j++ {
				docAt(j)
				if rng.Intn(3) > 0 {
					check(j)
				}
			}
		case 1: // descending within (and out of) a run
			for j := i; j > i-1-rng.Intn(150); j-- {
				docAt(j)
				check(j)
			}
		case 2: // every 8th posting's positions, like a sparse phrase
			for j := max(i, 0); j < n; j += 8 {
				docAt(j)
				check(j)
			}
		case 3: // a posting of whichever run is current, without docAt
			check(i)
		case 4: // seek
			base := i
			target := rng.Intn(ref[n-1].doc+3) - 1
			wi, wd := n, noMoreDocs
			for j := max(base, 0); j < n; j++ {
				if ref[j].doc >= target {
					wi, wd = j, ref[j].doc
					break
				}
			}
			gi, gd := r.seek(base, target)
			if gi != wi || gd != wd {
				t.Fatalf("%s: seek(%d, %d) = (%d, %d), want (%d, %d)", label, base, target, gi, gd, wi, wd)
			}
			if gi < n {
				check(gi)
			}
		case 5: // findDoc hit
			if i < 0 || i >= n {
				continue
			}
			if gi, ok := r.findDoc(ref[i].doc); !ok || gi != i {
				t.Fatalf("%s: findDoc(%d) = (%d, %v), want (%d, true)", label, ref[i].doc, gi, ok, i)
			}
			check(i)
		case 6: // findDoc on an arbitrary docID, mostly misses
			doc := rng.Intn(ref[n-1].doc+3) - 1
			wi, wok := -1, false
			for j := range ref {
				if ref[j].doc == doc {
					wi, wok = j, true
				}
			}
			if gi, ok := r.findDoc(doc); gi != wi || ok != wok {
				t.Fatalf("%s: findDoc(%d) = (%d, %v), want (%d, %v)", label, doc, gi, ok, wi, wok)
			}
		}
	}
	if r.bad {
		t.Fatalf("%s: a clean image spoiled the cursor", label)
	}
}

// cursorSink keeps BenchmarkPostingsCursor's reads alive.
var cursorSink int

// BenchmarkPostingsCursor measures the posting leaf by itself, one cursor
// built and driven per iteration over a ~25k-posting term, from each source
// in turn — the heap entry and the mapped region of the same bytes, so the
// gap between the two arms of a drive is what decoding costs per posting:
// "walk" scores every posting the way a term scorer's next/score does,
// "advance50" seeks in strides of 50 docIDs and scores where it lands,
// "positions8" is a phrase's first cursor reading every 8th posting's
// positions. ns/posting divides by the postings of the blocks the run lands
// in (all of them, in all three); allocs/op is per cursor, so it does not
// grow with the blocks walked.
func BenchmarkPostingsCursor(b *testing.B) {
	ix := indexOf(kernelCorpus(rand.New(rand.NewSource(19)), 40000, "event"))
	heap, mapped, _, _ := openMappedPair(b, ix)
	run := func(name string, withPos bool, drive func(r *postingsCursor)) {
		for _, arm := range []struct {
			name string
			ix   *Index
		}{{"heap", heap}, {"mapped", mapped}} {
			src := arm.ix.fields["event"].lookup("goal")
			b.Run(name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var r postingsCursor
					r.init(src, withPos, nil)
					drive(&r)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*src.len()), "ns/posting")
			})
		}
	}
	run("walk", false, func(r *postingsCursor) {
		for i := 0; i < r.n; i++ {
			d := r.docAt(i)
			freq, _ := r.at(i)
			cursorSink += d + freq
		}
	})
	run("advance50", false, func(r *postingsCursor) {
		for i, d := r.seek(0, 0); d != noMoreDocs; i, d = r.seek(i+1, d+50) {
			freq, _ := r.at(i)
			cursorSink += freq
		}
	})
	run("positions8", true, func(r *postingsCursor) {
		for i := 0; i < r.n; i += 8 {
			cursorSink += r.docAt(i) + len(r.positionsAt(i))
		}
	})
}

// TestSpoiledBlockVerdict pins what each direct user of the cursor makes of
// a block section that does not parse (unreachable behind the shard
// envelope's CRC, reachable by hand): the term reads as shorter from the
// spoiled section on — LocalStats counts the blocks before it, phraseAt's
// position probe misses — postingsOf returns nil rather than a truncated list, and
// nothing panics. The image holds one three-block term; block 1 is damaged
// in one section at a time.
func TestSpoiledBlockVerdict(t *testing.T) {
	ix := oneTermIndex(300, func(int) int { return 1 }, nil)
	raw, toc, err := encode(ix)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := OpenMapped(raw, toc, StandardAnalyzer{})
	if err != nil {
		t.Fatal(err)
	}
	f := clean.fields["event"].m
	mt := f.terms["goal"]
	ref := eagerPostings(t, f, mt)

	// Section offsets of block 1, found the way the decoder finds them.
	n := mt.blockLen(1)
	br := byteReader{b: raw, pos: int(mt.offs[1])}
	br.uvarint()
	br.uvarint()
	br.f64()
	docsOff := br.pos
	for k := 0; k < n; k++ {
		br.uvarint()
	}
	freqsOff := br.pos
	for k := 0; k < n; k++ {
		br.uvarint()
	}
	flagOff := br.pos
	posOff := flagOff + 9 // a uniform block: flag 0 and one boost
	if br.bad || raw[flagOff] != 0 {
		t.Fatal("block 1 is not the uniform block this test lays out")
	}

	const damaged = 10 // the slot within block 1 whose byte is zeroed
	first, last := postingBlockSize, 2*postingBlockSize-1
	for _, c := range []struct {
		name string
		off  int
		val  byte
		// df is what LocalStats reports for the term; early and late say
		// whether phraseAt still finds the postings before and after the
		// damaged slot of block 1.
		df          int
		early, late bool
	}{
		{"clean", flagOff, 0, len(ref), true, true},
		{"docID delta", docsOff + damaged, 0, postingBlockSize, false, false},
		{"frequency", freqsOff + damaged, 0, len(ref), false, false},
		{"boost flag", flagOff, 7, len(ref), false, false},
		{"position delta", posOff + damaged, 0, len(ref), true, false},
	} {
		mut := append([]byte(nil), raw...)
		mut[c.off] = c.val
		m, err := OpenMapped(mut, toc, StandardAnalyzer{})
		if err != nil {
			t.Fatalf("%s: open: %v", c.name, err)
		}
		fi := m.fields["event"]
		// A filler document is tombstoned, so LocalStats walks the postings
		// and no posting of the term is dead.
		m.Delete(2)
		if got := m.LocalStats().Fields["event"].DocFreq["goal"]; got != c.df {
			t.Errorf("%s: LocalStats counts %d documents for the term, want %d", c.name, got, c.df)
		}
		pl := m.Postings("event", "goal")
		if c.name == "clean" && len(pl) != len(ref) || c.name != "clean" && pl != nil {
			t.Errorf("%s: postingsOf returned %d postings", c.name, len(pl))
		}
		for _, p := range []struct {
			i    int
			want bool
		}{{0, true}, {first + damaged - 1, c.early}, {last, c.late}, {len(ref) - 1, true}} {
			// phraseAt reads the terms after the first: this asks whether
			// "goal" occurs at the posting's first position.
			if got := fi.phraseAt([]string{"", "goal"}, ref[p.i].doc, ref[p.i].positions[0]-1); got != p.want {
				t.Errorf("%s: phraseAt on posting %d = %v, want %v", c.name, p.i, got, p.want)
			}
		}
		for _, q := range []Query{
			TermQuery{Field: "event", Term: "goal"},
			PhraseQuery{Field: "event", Terms: []string{"goal", "save"}},
		} {
			m.Search(q, 1000)
			m.ExhaustiveSearch(q, 1000)
		}
	}
}

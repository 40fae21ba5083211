package index_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/loadgen"
	"repro/internal/semindex"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encode.golden and testdata/scores.golden from the index this tree builds and the rankings it serves")

// goldenPages holds the FULL_INF documents of the benchmark corpus's first
// 30 pages, page by page, and goldenDocs all of them in order.
var (
	goldenPages = sync.OnceValue(func() [][]*index.Document {
		g := corpus.New(corpus.Spec{TargetDocs: 1 << 30, Seed: 20100301})
		b := semindex.NewBuilder()
		var pages [][]*index.Document
		for i := 0; i < 30; i++ {
			page, err := g.NextPage()
			if err != nil {
				panic(err)
			}
			pages = append(pages, b.PageDocuments(semindex.FullInf, page))
		}
		return pages
	})
	goldenDocs = sync.OnceValue(func() []*index.Document { return slices.Concat(goldenPages()...) })
)

// goldenIndex Adds the FULL_INF documents of the benchmark corpus's first
// 30 pages (the stream semindex's docstream.golden pins) to a fresh index.
func goldenIndex() *index.Index {
	ix := index.New(nil)
	for _, d := range goldenDocs() {
		ix.Add(d)
	}
	return ix
}

// encodeDigest is the FNV-64a of the index's codec payload followed by its
// table of contents.
func encodeDigest(t testing.TB, ix *index.Index) string {
	t.Helper()
	var payload bytes.Buffer
	toc, err := ix.EncodeWithTOC(&payload)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(payload.Bytes())
	h.Write(toc)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAddDocsMatchesAddOnPages builds the golden index a page at a time
// through AddDocs, as an upsert builds its segment, each page's fields
// indexed on goroutines of their own: it must encode to the bytes of the
// index one Add per document builds.
func TestAddDocsMatchesAddOnPages(t *testing.T) {
	ix := index.New(nil)
	for _, docs := range goldenPages() {
		ix.AddDocs(docs, func(n int, field func(int, *index.Scratch)) {
			var wg sync.WaitGroup
			for i := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					field(i, new(index.Scratch))
				}()
			}
			wg.Wait()
		})
	}
	if got, want := encodeDigest(t, ix), encodeDigest(t, goldenIndex()); got != want {
		t.Errorf("AddDocs page by page encodes to %s, one Add per document to %s", got, want)
	}
}

// writeStats renders statistics in one canonical order.
func writeStats(w io.Writer, cs *index.CorpusStats) {
	fmt.Fprintf(w, "docs %d\n", cs.Docs)
	names := make([]string, 0, len(cs.Fields))
	for n := range cs.Fields {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fs := cs.Fields[n]
		fmt.Fprintf(w, "field %s %d %d\n", n, fs.Docs, fs.SumLen)
		terms := make([]string, 0, len(fs.DocFreq))
		for term := range fs.DocFreq {
			terms = append(terms, term)
		}
		sort.Strings(terms)
		for _, term := range terms {
			fmt.Fprintf(w, "%s %d\n", term, fs.DocFreq[term])
		}
	}
}

func statsDigest(cs *index.CorpusStats) string {
	h := fnv.New64a()
	writeStats(h, cs)
	return fmt.Sprintf("%016x", h.Sum64())
}

// tombstoneTenth deletes every tenth document.
func tombstoneTenth(ix *index.Index) {
	for id := 3; id < ix.NumDocs(); id += 10 {
		ix.Delete(id)
	}
}

func decodeBytes(t testing.TB, payload []byte) *index.Index {
	t.Helper()
	ix, err := index.Decode(bytes.NewReader(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestEncodeGolden pins the content of the index Add builds, and of its
// decoded and merged copies, to digests recorded at commit 8b965db, when
// the heap index still kept its postings, score caps, block metadata,
// field lengths and field boosts in five maps per field.
func TestEncodeGolden(t *testing.T) {
	ix := goldenIndex()
	var payload bytes.Buffer
	if _, err := ix.EncodeWithTOC(&payload); err != nil {
		t.Fatal(err)
	}
	decoded := decodeBytes(t, payload.Bytes())
	merged, _ := index.MergeIndexes([]*index.Index{ix}, nil)

	docStats := fnv.New64a()
	sum := index.NewCorpusStats()
	for id := 0; id < ix.NumDocs(); id++ {
		ds := ix.DocStats(id)
		writeStats(docStats, ds)
		sum.Merge(ds)
	}
	clean := ix.LocalStats()
	if !reflect.DeepEqual(sum, clean) {
		t.Error("the documents' DocStats do not add up to LocalStats")
	}
	for name, other := range map[string]*index.Index{"decoded": decoded, "merged": merged} {
		if !reflect.DeepEqual(other.LocalStats(), clean) {
			t.Errorf("%s index: LocalStats differ from the built index's", name)
		}
	}

	built, redecoded, remerged := encodeDigest(t, ix), encodeDigest(t, decoded), encodeDigest(t, merged)
	if redecoded != built || remerged != built {
		t.Errorf("encode %s, after Decode %s, after MergeIndexes %s", built, redecoded, remerged)
	}

	dead := goldenIndex()
	tombstoneTenth(dead)
	tombstoneTenth(decoded)
	if !reflect.DeepEqual(decoded.LocalStats(), dead.LocalStats()) {
		t.Error("decoded index: tombstoned LocalStats differ from the built index's")
	}
	compacted, _ := index.MergeIndexes([]*index.Index{dead}, nil)
	if !reflect.DeepEqual(compacted.LocalStats(), dead.LocalStats()) {
		t.Error("merging the tombstones away changes LocalStats")
	}

	got := fmt.Sprintf("docs %d\nencode %s\ncompacted_encode %s\nlocalstats %s\nlocalstats_tombstoned %s\ndocstats %016x\n",
		ix.NumDocs(), built, encodeDigest(t, compacted),
		statsDigest(clean), statsDigest(dead.LocalStats()), docStats.Sum64())

	path := filepath.Join("testdata", "encode.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("index content changed:\n got:\n%s want:\n%s", got, want)
	}
}

// TestMappedServesGoldenBytes opens, mapped, the payload and table of
// contents whose digest encode.golden pins — the bytes every commit since
// 8b965db writes for this index, so a snapshot an earlier build wrote — and
// requires the repository benchmark's query mix to rank on them exactly as
// on the heap decode of the same bytes and as the exhaustive oracle on the
// index that was built, under both similarities.
func TestMappedServesGoldenBytes(t *testing.T) {
	ix := goldenIndex()
	var payload bytes.Buffer
	toc, err := ix.EncodeWithTOC(&payload)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "encode.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(golden), "\nencode "+encodeDigest(t, ix)+"\n") {
		t.Fatal("the encoder no longer writes the pinned bytes; TestEncodeGolden says how they differ")
	}
	heap := decodeBytes(t, payload.Bytes())
	mapped, err := index.OpenMapped(payload.Bytes(), toc, nil)
	if err != nil {
		t.Fatal(err)
	}
	universe := corpus.New(corpus.Spec{TargetDocs: 1 << 30, Seed: 20100301}).Universe()
	queries := loadgen.GenerateQueries(loadgen.VocabFromUniverse(universe),
		map[loadgen.Class]int{loadgen.ClassKeyword: 5, loadgen.ClassPhrase: 2, loadgen.ClassField: 2, loadgen.ClassFuzzy: 1}, 80, 20100301)
	for _, sim := range []index.Similarity{index.ClassicTFIDF{}, index.BM25{}} {
		for _, x := range []*index.Index{ix, heap, mapped} {
			x.SetSimilarity(sim)
		}
		matched := 0
		for _, lq := range queries {
			q, err := index.ParseQuery(lq.Text, semindex.QueryBoosts)
			if err != nil {
				t.Fatalf("%q: %v", lq.Text, err)
			}
			want := ix.ExhaustiveSearch(q, 10)
			if len(want) > 0 {
				matched++
			}
			if got := heap.Search(q, 10); !reflect.DeepEqual(got, want) {
				t.Errorf("%T %q: heap decode ranks %v, want %v", sim, lq.Text, got, want)
			}
			if got := mapped.Search(q, 10); !reflect.DeepEqual(got, want) {
				t.Errorf("%T %q: mapped ranks %v, want %v", sim, lq.Text, got, want)
			}
		}
		if matched < len(queries)/2 {
			t.Errorf("only %d of %d queries matched anything", matched, len(queries))
		}
	}
}

// TestScoresGolden pins the bits of every score the golden index ranks
// with, under both similarities: for 200 generated queries in the four
// search classes, the top ten as docID and the score's float64 bits. The
// exhaustive path, the kernel on the built index and the kernel on its
// mapped encoding must each produce the pinned line. The other oracles
// compare the kernel with the exhaustive path, which shares the scoring
// formulas; this test is what holds the formulas themselves still.
func TestScoresGolden(t *testing.T) {
	ix := goldenIndex()
	var payload bytes.Buffer
	toc, err := ix.EncodeWithTOC(&payload)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := index.OpenMapped(payload.Bytes(), toc, nil)
	if err != nil {
		t.Fatal(err)
	}
	universe := corpus.New(corpus.Spec{TargetDocs: 1 << 30, Seed: 20100301}).Universe()
	queries := loadgen.GenerateQueries(loadgen.VocabFromUniverse(universe),
		map[loadgen.Class]int{loadgen.ClassKeyword: 5, loadgen.ClassPhrase: 2, loadgen.ClassField: 2, loadgen.ClassFuzzy: 1}, 200, 7)
	line := func(hits []index.Hit) string {
		var b strings.Builder
		for _, h := range hits {
			fmt.Fprintf(&b, " %d:%x", h.DocID, math.Float64bits(h.Score))
		}
		return b.String()
	}
	var got strings.Builder
	for _, sim := range []index.Similarity{index.ClassicTFIDF{}, index.BM25{}} {
		ix.SetSimilarity(sim)
		mapped.SetSimilarity(sim)
		for _, lq := range queries {
			q, err := index.ParseQuery(lq.Text, semindex.QueryBoosts)
			if err != nil {
				t.Fatalf("%q: %v", lq.Text, err)
			}
			want := line(ix.ExhaustiveSearch(q, 10))
			if heap := line(ix.Search(q, 10)); heap != want {
				t.Errorf("%T %q: heap Search%s, ExhaustiveSearch%s", sim, lq.Text, heap, want)
			}
			if m := line(mapped.Search(q, 10)); m != want {
				t.Errorf("%T %q: mapped Search%s, ExhaustiveSearch%s", sim, lq.Text, m, want)
			}
			fmt.Fprintf(&got, "%T %q%s\n", sim, lq.Text, want)
		}
	}

	path := filepath.Join("testdata", "scores.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d ranked lines, %d pinned", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d changed:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestMappedMergeAllocationCeiling merges the golden index opened mapped.
// The merge reads each stored chunk out of one inflate and decodes no
// document, so it must leave none cached in the source, write what the
// built index writes, and stay under an allocation ceiling: it measured
// 16,563 allocations when the ceiling was set, where a merge that read
// each document through Doc took 232,918 and left all 3,579 cached. The
// ceiling leaves a third again as much room.
func TestMappedMergeAllocationCeiling(t *testing.T) {
	const maxAllocs = 22_100
	ix := goldenIndex()
	var payload bytes.Buffer
	toc, err := ix.EncodeWithTOC(&payload)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := index.OpenMapped(payload.Bytes(), toc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	merged, _ := index.MergeIndexes([]*index.Index{mapped}, nil)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations", allocs)
	if n := mapped.CachedDocs(); n != 0 {
		t.Errorf("the merge left %d documents cached in its source", n)
	}
	if allocs > maxAllocs {
		t.Errorf("%d allocations, ceiling %d", allocs, maxAllocs)
	}
	if got, want := encodeDigest(t, merged), encodeDigest(t, ix); got != want {
		t.Errorf("the merge encodes to %s, the built index to %s", got, want)
	}
}

// TestHeapMergeAllocationCeiling merges, on the heap, the golden index with
// a tombstoned copy of every ninth document beside its original, so that
// tombstones fall inside posting lists and stored chunks. The merge must
// write what the built index writes, and stay under an allocation ceiling:
// it measured 6,473 allocations when the ceiling was set (6,570 when the
// merge still copied posting by posting), nearly all of them the merged
// columns, each allocated once at its final size. The ceiling leaves a
// third again as much room.
func TestHeapMergeAllocationCeiling(t *testing.T) {
	const maxAllocs = 8_630
	ix := index.New(nil)
	for i, d := range goldenDocs() {
		ix.Add(d)
		if i%9 == 0 {
			ix.Delete(ix.Add(d))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	merged, _ := index.MergeIndexes([]*index.Index{ix}, nil)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations", allocs)
	if allocs > maxAllocs {
		t.Errorf("%d allocations, ceiling %d", allocs, maxAllocs)
	}
	if got, want := encodeDigest(t, merged), encodeDigest(t, goldenIndex()); got != want {
		t.Errorf("the merge encodes to %s, the built index to %s", got, want)
	}
}

// TestEncodeAllocationCeiling encodes the golden index with the TOC columns
// a shard file carries. The scalar writers append into the buffered
// writer's own buffer and the stored documents are walked once, gathering
// the columns as they are re-encoded, so the encode must write the pinned
// bytes and stay under an allocation ceiling: it measured 397 allocations
// when the ceiling was set, where writers that moved an array to the heap
// per value, a column read that built a string per document and a block
// list per term took 531,020. The ceiling leaves a third again as much
// room.
func TestEncodeAllocationCeiling(t *testing.T) {
	const maxAllocs = 530
	ix := goldenIndex()
	var payload bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ix.EncodeWithTOC(&payload, semindex.MetaMatchID, semindex.MetaKind)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations", allocs)
	if allocs > maxAllocs {
		t.Errorf("%d allocations, ceiling %d", allocs, maxAllocs)
	}
	var bare bytes.Buffer
	if _, err := ix.EncodeWithTOC(&bare); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload.Bytes(), bare.Bytes()) {
		t.Error("the TOC columns asked for change the payload")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "encode.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(golden), "\nencode "+encodeDigest(t, ix)+"\n") {
		t.Error("the encoder no longer writes the pinned bytes; TestEncodeGolden says how they differ")
	}
}

// TestWriteTrafficIsDense asserts what the docID-indexed field tables
// assume (DESIGN §17): the semantic index's documents carry every indexed
// field, so a table sized by the document count has no holes to waste.
func TestWriteTrafficIsDense(t *testing.T) {
	ix := goldenIndex()
	cs := ix.LocalStats()
	if len(cs.Fields) != 14 {
		t.Errorf("%d indexed fields, want 14", len(cs.Fields))
	}
	for name, fs := range cs.Fields {
		if fs.Docs != ix.NumDocs() {
			t.Errorf("field %s is on %d of %d documents", name, fs.Docs, ix.NumDocs())
		}
	}
}

// TestIndexAddAllocationCeiling keeps Add's per-document cost from creeping
// back. Building the golden index measured 7.3 allocations and 2.5 KB per
// document when the ceilings were set: the posting columns doubling as they
// grow, and the stored chunks, which Add writes each document's bytes into
// (430 bytes a document at the capacity a chunk is allocated with, plus the
// first chunk's growth). It read 2.0 KB before Add stored bytes, when it
// kept the caller's *Document; 6.6 allocations and 5.0 KB at commit 4f6839e,
// which kept a 40-byte struct per posting; 149.9 and 8.2 KB at 8b965db,
// which also allocated every posting's position list on its own. The
// ceilings leave a third again as much room.
func TestIndexAddAllocationCeiling(t *testing.T) {
	const (
		maxAllocs = 10
		maxBytes  = 3400
	)
	docs := goldenDocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix := goldenIndex()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ix)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(docs))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(docs))
	t.Logf("%.1f allocs, %.0f bytes per document", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("%.1f allocations per document, ceiling %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f bytes per document, ceiling %d", bytes, maxBytes)
	}
}

// liveHeap is HeapAlloc after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIndexFootprintCeiling keeps the live size of a posting from creeping
// back. The golden index measured 40.3 bytes per posting when the ceiling
// was set: columns of docIDs, position ends and positions with the room
// append left them, the term dictionary, the field tables, and the stored
// bytes the index owns (TestStoredFootprintCeiling holds those on their
// own). It read 26.4 before the index owned its stored documents, and 73.5
// at commit 4f6839e, which kept a 40-byte struct and a position slice per
// posting. The ceiling leaves a fifth again as much room.
func TestIndexFootprintCeiling(t *testing.T) {
	const maxBytesPerPosting = 48
	goldenDocs()
	without := liveHeap()
	ix := goldenIndex()
	with := liveHeap()
	postings := ix.Stats().Postings
	runtime.KeepAlive(ix)
	perPosting := float64(with-without) / float64(postings)
	t.Logf("%d postings, %.1f live bytes per posting", postings, perPosting)
	if perPosting > maxBytesPerPosting {
		t.Errorf("%.1f live bytes per posting, ceiling %d", perPosting, maxBytesPerPosting)
	}
}

// TestSealedFootprintCeiling keeps the live size of a posting in a sealed
// index from creeping back: the golden index after Seal measured 30.3
// bytes per posting when the ceiling was set, its columns and stored
// chunks at their lengths, where TestIndexFootprintCeiling's unsealed
// build read 35.2. The ceiling leaves a fifth again as much room.
func TestSealedFootprintCeiling(t *testing.T) {
	const maxBytesPerPosting = 36
	goldenDocs()
	without := liveHeap()
	ix := goldenIndex()
	ix.Seal()
	with := liveHeap()
	postings := ix.Stats().Postings
	runtime.KeepAlive(ix)
	perPosting := float64(with-without) / float64(postings)
	t.Logf("%d postings, %.1f live bytes per posting", postings, perPosting)
	if perPosting > maxBytesPerPosting {
		t.Errorf("%.1f live bytes per posting, ceiling %d", perPosting, maxBytesPerPosting)
	}
}

// TestStoredFootprintCeiling keeps the live size of a stored document from
// creeping back: the golden documents, each field renamed stored-only so
// the index holds nothing else, measured 466 bytes a document when the
// ceiling was set — their stored bytes (371 a document) with the room a
// chunk is allocated with, the chunks' document ends and decode-cache
// slots, and the tombstone slice. Before the index stored bytes, the
// *Document it kept from semindex was about 1 KB before any text. The
// ceiling leaves a fifth again as much room.
func TestStoredFootprintCeiling(t *testing.T) {
	const maxBytesPerDoc = 560
	renamed := map[string]string{}
	var docs []*index.Document
	for _, d := range goldenDocs() {
		c := &index.Document{Fields: append([]index.Field(nil), d.Fields...)}
		for i, f := range c.Fields {
			if renamed[f.Name] == "" {
				renamed[f.Name] = "_" + f.Name
			}
			c.Fields[i].Name = renamed[f.Name]
		}
		docs = append(docs, c)
	}
	without := liveHeap()
	ix := index.New(nil)
	for _, d := range docs {
		ix.Add(d)
	}
	with := liveHeap()
	runtime.KeepAlive(docs)
	if n := ix.Stats().Postings; n != 0 {
		t.Fatalf("%d postings; the renamed documents must be stored-only", n)
	}
	perDoc := float64(with-without) / float64(len(docs))
	t.Logf("%d documents, %.0f live bytes per document", len(docs), perDoc)
	if perDoc > maxBytesPerDoc {
		t.Errorf("%.0f live bytes per stored document, ceiling %d", perDoc, maxBytesPerDoc)
	}
}

// TestColumnarPostingsMatchReferenceOnGoldenPages runs the documents of
// docstream.golden's pages through the []Posting reference of
// writepath_test.go.
func TestColumnarPostingsMatchReferenceOnGoldenPages(t *testing.T) {
	index.CheckColumnarPostings(t, goldenDocs())
}

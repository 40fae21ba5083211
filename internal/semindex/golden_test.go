package semindex

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/populate"
	"repro/internal/rdf"
)

// goldenPages is the first 30 pages of the benchmark's own corpus.
func goldenPages(t testing.TB) []*crawler.MatchPage {
	t.Helper()
	g := corpus.New(corpus.Spec{TargetDocs: 1 << 30, Seed: 20100301})
	pages := make([]*crawler.MatchPage, 30)
	for i := range pages {
		p, err := g.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = p
	}
	return pages
}

// streamDigests hashes one page's documents two ways. strict covers every
// (field name, text) except fromRules, in document and field order.
// fromRules covers that field's whitespace tokens as a sorted multiset per
// document. Two orders are canonicalised before hashing because the commit
// the golden file was recorded on left them to accidents this test must
// not pin: the part order inside fromRules followed the graph's internal
// layout, and the page's trailing rule-minted documents came in blank-label
// string order. Both are sorted here (minted documents by their own
// digests), so only content is compared; TestMintedDocumentOrder pins the
// order they have now.
func streamDigests(docs []*index.Document) (strict, fromRules uint64) {
	type docDigest struct{ strict, fromRules uint64 }
	per := make([]docDigest, len(docs))
	for i, d := range docs {
		hs, hr := fnv.New64a(), fnv.New64a()
		for _, f := range d.Fields {
			if f.Name == FieldFromRules {
				toks := strings.Fields(f.Text)
				sort.Strings(toks)
				hr.Write([]byte(strings.Join(toks, " ")))
				continue
			}
			hs.Write([]byte(f.Name))
			hs.Write([]byte{0})
			hs.Write([]byte(f.Text))
			hs.Write([]byte{0})
		}
		per[i] = docDigest{hs.Sum64(), hr.Sum64()}
	}
	minted := per[len(docs)-mintedTail(docs):]
	sort.Slice(minted, func(i, j int) bool {
		if minted[i].strict != minted[j].strict {
			return minted[i].strict < minted[j].strict
		}
		return minted[i].fromRules < minted[j].fromRules
	})
	hs, hr := fnv.New64a(), fnv.New64a()
	for _, d := range per {
		hs.Write(binary.LittleEndian.AppendUint64(nil, d.strict))
		hr.Write(binary.LittleEndian.AppendUint64(nil, d.fromRules))
	}
	return hs.Sum64(), hr.Sum64()
}

// mintedTail counts the page's trailing rule-minted documents: the soccer
// rule set mints only assists, and a minted event has no narration.
func mintedTail(docs []*index.Document) int {
	n := 0
	for n < len(docs) {
		d := docs[len(docs)-1-n]
		if d.Get(MetaKind) != "Assist" || d.Get(MetaNarration) != "-1" {
			break
		}
		n++
	}
	return n
}

// advanceBlankCounter mints blank nodes until the process-wide label
// counter reaches at least target, returning the value reached.
func advanceBlankCounter(t testing.TB, target int) int {
	t.Helper()
	g := rdf.NewGraph()
	for {
		n, err := strconv.Atoi(strings.TrimPrefix(g.NewBlankNode().Value, "b"))
		if err != nil {
			t.Fatalf("blank label: %v", err)
		}
		if n >= target {
			return n
		}
	}
}

// TestGoldenDocumentStream pins the document stream PageDocuments emits
// for 30 benchmark pages at all five levels (18,005 documents) to the
// stream recorded at commit f62d030, before the rdf/reasoner/rules data
// path was rebuilt, under the canonicalisation streamDigests describes.
func TestGoldenDocumentStream(t *testing.T) {
	got, total := goldenStream(t)
	if total != 18005 {
		t.Errorf("%d documents, want 18005", total)
	}
	wantBytes, err := os.ReadFile(filepath.Join("testdata", "docstream.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(wantBytes), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(want) || line != want[i] {
			w := "<missing>"
			if i < len(want) {
				w = want[i]
			}
			t.Fatalf("line %d (level page docs strict fromRules):\n got  %s\n want %s", i+1, line, w)
		}
	}
}

// goldenStream renders one line per (level, page): document count and the
// two digests.
func goldenStream(t testing.TB) (string, int) {
	pages := goldenPages(t)
	b := NewBuilder()
	var out strings.Builder
	total := 0
	for _, level := range Levels {
		for i, page := range pages {
			docs := b.PageDocuments(level, page)
			total += len(docs)
			strict, fr := streamDigests(docs)
			fmt.Fprintf(&out, "%s %d %d %016x %016x\n", level, i, len(docs), strict, fr)
		}
	}
	return out.String(), total
}

// TestMintedDocumentOrder is the regression test for document order
// depending on the process-wide blank-label counter: the same page must
// flatten to the same documents whatever the counter holds, in particular
// when its rule-minted labels straddle a power of ten, where label string
// order ("b1000" < "b999") and mint order disagree.
func TestMintedDocumentOrder(t *testing.T) {
	page := goldenPages(t)[4] // mints three assists
	b := NewBuilder()
	want := b.PageDocuments(FullInf, page)
	minted := mintedTail(want)
	if minted < 2 {
		t.Fatalf("page mints %d documents, need at least 2", minted)
	}
	prev := -1
	for _, d := range want[len(want)-minted:] {
		minute, err := strconv.Atoi(d.Get(MetaMinute))
		if err != nil || minute < prev {
			t.Errorf("minted documents not chronological: minute %q after %d", d.Get(MetaMinute), prev)
		}
		prev = minute
	}
	// The next three powers of ten far enough above wherever earlier tests
	// left the counter for the page's first mint to land just below one.
	boundary := 10
	for at := advanceBlankCounter(t, 0); boundary-2 <= at; {
		boundary *= 10
	}
	for i := 0; i < 3; i, boundary = i+1, boundary*10 {
		// The page's first mint takes boundary-1, its second boundary.
		advanceBlankCounter(t, boundary-2)
		if got := b.PageDocuments(FullInf, page); !reflect.DeepEqual(got, want) {
			t.Errorf("documents differ with labels straddling %d", boundary)
		}
	}

	rec := func(minute int, id rdf.ID) populate.EventRecord {
		return populate.EventRecord{Individual: id, Minute: minute}
	}
	for _, c := range []struct {
		a, b populate.EventRecord
	}{
		{rec(10, 9), rec(11, 8)},  // chronological first
		{rec(10, 8), rec(10, 9)},  // then mint order, which is ID order
		{rec(10, 9), rec(10, 10)}, // whatever the labels' digit counts
	} {
		if !mintedBefore(c.a, c.b) || mintedBefore(c.b, c.a) {
			t.Errorf("mintedBefore(%v@%d, %v@%d) wrong", c.a.Individual, c.a.Minute, c.b.Individual, c.b.Minute)
		}
	}
}

// TestDocumentFieldWindows pins how a page's documents share memory: one
// Field array, in which each document's window holds exactly its fields,
// so an append to one document cannot write into a neighbour's window.
func TestDocumentFieldWindows(t *testing.T) {
	page := goldenPages(t)[4] // mints rule events too
	for _, noNarration := range []bool{false, true} {
		b := NewBuilder()
		b.DisableNarrationField = noNarration
		for _, level := range Levels[1:] { // TRAD documents are not flattened
			docs := b.PageDocuments(level, page)
			before := make([][]index.Field, len(docs))
			for i, d := range docs {
				if cap(d.Fields) != len(d.Fields) {
					t.Fatalf("%s (no narration %v) doc %d: %d fields in a window of %d", level, noNarration, i, len(d.Fields), cap(d.Fields))
				}
				before[i] = slices.Clone(d.Fields)
			}
			for i, d := range docs {
				d.Add("_extra", strconv.Itoa(i))
			}
			for i, d := range docs {
				if !slices.Equal(d.Fields[:len(d.Fields)-1], before[i]) {
					t.Fatalf("%s doc %d: fields changed by a neighbour's append", level, i)
				}
			}
		}
	}
}

// TestPageDocumentsAllocationCeiling keeps the per-page cost of the write
// path from creeping back: flattening one FULL_INF page measured about 480
// allocations and 0.19 MB when this ceiling was set (533 and 0.33 MB under
// -race, which does not fold slices.Grow's make into its append and makes
// sync.Pool drop a quarter of the page state the Builder hands it, so the
// mean is taken over 299 pages; 1,030 and 0.45 MB, 1,048 and 0.55 MB
// under -race, before the Builder pooled its page graphs and flatteners
// and dispatched templates; 1,035 and 0.48 MB before the graph's triples
// moved from a map to a table of log offsets, 3,980 and 0.83 MB before the
// model was built by ID, 8,000 and 1.6 MB before template matching stopped
// building a map per attempt and inference stopped cloning the model;
// 68,900 and 30 MB before graphs were integer-encoded), so the ceilings
// leave about a fifth again as much room over the -race figures.
func TestPageDocumentsAllocationCeiling(t *testing.T) {
	const (
		maxAllocs = 640
		maxBytes  = 397_000
	)
	pages := goldenPages(t)[:10]
	b := NewBuilder()
	b.PageDocuments(FullInf, pages[0]) // per-Builder set-up is not per-page cost
	i := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(30*len(pages)-1, func() {
		b.PageDocuments(FullInf, pages[i%len(pages)])
		i++
	})
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(i)
	t.Logf("%.0f allocs, %.0f bytes per page", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per page, ceiling %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f bytes per page, ceiling %d", bytes, maxBytes)
	}
}

// TestPageDocumentsWarmBuilderMatchesFresh guards what a Builder keeps
// from one page to the next — the tables it builds on first use and the
// graphs and flatteners its pool hands from page to page: for every golden
// page at all five levels, a Builder that has prepared other pages first,
// and two goroutines sharing one Builder, must produce exactly the
// documents (field names, texts and boosts, in order) that a fresh Builder
// produces for that page alone.
func TestPageDocumentsWarmBuilderMatchesFresh(t *testing.T) {
	pages := goldenPages(t)
	type job struct {
		level Level
		page  int
	}
	var jobs []job
	fresh := map[job]string{}
	for _, level := range Levels {
		for i, page := range pages {
			j := job{level, i}
			jobs = append(jobs, j)
			fresh[j] = renderDocs(NewBuilder().PageDocuments(level, page))
		}
	}
	check := func(b *Builder, order []job) error {
		for _, j := range order {
			if got := renderDocs(b.PageDocuments(j.level, pages[j.page])); got != fresh[j] {
				return fmt.Errorf("%s page %d: documents differ from a fresh Builder's", j.level, j.page)
			}
		}
		return nil
	}

	// Warm: every page after others, levels interleaved, so each page
	// follows a larger or smaller one at another level.
	warm := slices.Clone(jobs)
	slices.Reverse(warm)
	for i := 1; i < len(warm); i += 2 {
		k := (i * 37) % len(warm)
		warm[i], warm[k] = warm[k], warm[i]
	}
	b := NewBuilder()
	if err := check(b, warm); err != nil {
		t.Fatal(err)
	}

	// Shared: two goroutines on one Builder, in opposite orders.
	shared := NewBuilder()
	errs := make(chan error, 2)
	for _, order := range [][]job{jobs, warm} {
		go func() { errs <- check(shared, order) }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// renderDocs renders documents byte for byte: every field's name, text
// and boost, in document and field order.
func renderDocs(docs []*index.Document) string {
	var b strings.Builder
	for _, d := range docs {
		for _, f := range d.Fields {
			fmt.Fprintf(&b, "%s\x00%s\x00%v\x00", f.Name, f.Text, f.Boost)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

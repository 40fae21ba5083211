package index

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestBoundedHeap(t *testing.T) {
	b := bounded[int]{k: 3, worse: func(a, c int) bool { return a < c }}
	for _, v := range []int{5, 1, 9, 3, 7, 2, 8} {
		b.push(v)
	}
	got := b.sorted()
	want := []int{9, 8, 7}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sorted = %v, want %v", got, want)
	}
}

func TestBoundedHeapUnbounded(t *testing.T) {
	b := bounded[int]{k: 0, worse: func(a, c int) bool { return a < c }}
	for _, v := range []int{2, 9, 4} {
		b.push(v)
	}
	if b.full() {
		t.Error("unbounded heap reports full")
	}
	if got := b.sorted(); fmt.Sprint(got) != "[9 4 2]" {
		t.Errorf("sorted = %v", got)
	}
}

func TestHitCollectorTieBreaksOnDocID(t *testing.T) {
	// Equal scores keep the lower docID regardless of offer order.
	for _, order := range [][]int{{3, 1, 2}, {1, 2, 3}, {2, 3, 1}} {
		c := acquireCollector(2)
		for _, id := range order {
			c.collect(id, 1.0)
		}
		hits := c.results()
		c.release()
		if len(hits) != 2 || hits[0].DocID != 1 || hits[1].DocID != 2 {
			t.Errorf("offer order %v: results %v, want docs [1 2]", order, hits)
		}
	}
}

func TestHitCollectorThreshold(t *testing.T) {
	c := acquireCollector(2)
	defer c.release()
	if th := c.threshold(); th != 0 {
		t.Fatalf("empty threshold = %v", th)
	}
	c.collect(1, 5)
	if th := c.threshold(); th != 0 {
		t.Fatalf("partial threshold = %v", th)
	}
	c.collect(2, 3)
	if th := c.threshold(); th != 3 {
		t.Fatalf("full threshold = %v, want 3", th)
	}
	c.collect(3, 4)
	if th := c.threshold(); th != 4 {
		t.Fatalf("threshold after eviction = %v, want 4", th)
	}
}

func TestMoreLikeThisSameResults(t *testing.T) {
	// Satellite regression: the heap-based candidate selection must pick
	// the same terms (and therefore the same related docs) the sort-based
	// selection did — top maxTerms by IDF descending, term ascending.
	ix := buildTestIndex()
	fields := []FieldBoost{{Field: "narration", Boost: 1}}
	for docID := 0; docID < ix.NumDocs(); docID++ {
		for _, maxTerms := range []int{1, 2, 4, 8, 100} {
			q := ix.LikeThisQuery(docID, fields, maxTerms, nil)
			if q == nil {
				continue
			}
			bq, ok := q.(BooleanQuery)
			if !ok {
				t.Fatalf("LikeThisQuery returned %T", q)
			}
			// Reference selection: all candidates, sorted the old way.
			type scored struct {
				term  string
				score float64
			}
			var all []scored
			terms := ix.analyzer.Analyze(ix.Doc(docID).Get("narration"))
			slices.Sort(terms)
			for _, term := range slices.Compact(terms) {
				df := ix.DocFreq("narration", term)
				if df <= 0 || df > max(ix.NumDocs()/3, 5) {
					continue
				}
				all = append(all, scored{term, ix.termStats(nil, "narration", term).idf()})
			}
			slices.SortFunc(all, func(a, b scored) int {
				return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(a.term, b.term))
			})
			if len(all) > maxTerms {
				all = all[:maxTerms]
			}
			if len(bq.Should) != len(all) {
				t.Fatalf("doc %d maxTerms %d: %d clauses, want %d", docID, maxTerms, len(bq.Should), len(all))
			}
			for i, c := range bq.Should {
				if got := c.(TermQuery).Term; got != all[i].term {
					t.Fatalf("doc %d maxTerms %d clause %d: term %q, want %q", docID, maxTerms, i, got, all[i].term)
				}
			}
		}
	}
}

func TestMoreLikeThisEquivalence(t *testing.T) {
	ix := buildTestIndex()
	fields := []FieldBoost{{Field: "narration", Boost: 1}}
	var queries []Query
	for docID := 0; docID < ix.NumDocs(); docID++ {
		if q := ix.LikeThisQuery(docID, fields, 8, nil); q != nil {
			queries = append(queries, q)
		}
	}
	fixedKernel(t, ix, queries...)
}

// TestPhraseQueryAllocs pins the analyze-once fix: evaluating a warm
// phrase query must not pay per-term analyzer passes.
func TestPhraseQueryAllocs(t *testing.T) {
	ix := buildTestIndex()
	q := PhraseQuery{Field: "narration", Terms: []string{"close", "range"}}
	// Warm the pools.
	ix.Search(q, 10)
	allocs := testing.AllocsPerRun(200, func() { ix.Search(q, 10) })
	// One analyzer pass (token slice + strings) plus the result slice. The
	// seed path re-ran the analyzer once per term per call and built a
	// score map on top — well over 20.
	if allocs > 15 {
		t.Errorf("phrase Search allocates %.0f/op, want <= 15", allocs)
	}
}

func BenchmarkPhraseQuery(b *testing.B) {
	ix := buildTestIndex()
	q := PhraseQuery{Field: "narration", Terms: []string{"close", "range"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 10)
	}
}

func BenchmarkSearchDAATvsExhaustive(b *testing.B) {
	ix := indexOf(kernelCorpus(rand.New(rand.NewSource(7)), 5000, "narration"))
	q := MultiFieldQuery("goal messi corner", []FieldBoost{{Field: "narration", Boost: 1}})
	for _, bench := range []struct {
		name string
		run  func(limit int) []Hit
	}{
		{"DAAT", func(limit int) []Hit { return ix.Search(q, limit) }},
		{"Exhaustive", func(limit int) []Hit { return ix.ExhaustiveSearch(q, limit) }},
	} {
		for _, limit := range []int{10, 100} {
			b.Run(fmt.Sprintf("%s/limit%d", bench.name, limit), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bench.run(limit)
				}
			})
		}
	}
}

package index

import (
	"math"
	"testing"
)

func statsFixture() (*Index, *Index, *Index) {
	full := New(nil)
	a := New(nil)
	b := New(nil)
	docs := []string{
		"goal by messi",
		"yellow card for ramos",
		"messi misses a goal",
		"corner kick",
	}
	for i, text := range docs {
		d := &Document{}
		d.Add("narration", text)
		full.Add(d)
		half := &Document{}
		half.Add("narration", text)
		if i%2 == 0 {
			a.Add(half)
		} else {
			b.Add(half)
		}
	}
	return full, a, b
}

// TestLocalStatsExport checks the exported statistics against hand counts.
func TestLocalStatsExport(t *testing.T) {
	full, _, _ := statsFixture()
	cs := full.LocalStats()
	if cs.Docs != 4 {
		t.Errorf("docs = %d", cs.Docs)
	}
	fs := cs.Fields["narration"]
	if fs == nil {
		t.Fatal("no narration stats")
	}
	if fs.Docs != 4 {
		t.Errorf("field docs = %d", fs.Docs)
	}
	// "messi" appears in two documents; stemming leaves it intact.
	if df := cs.DocFreq("narration", "messi"); df != 2 {
		t.Errorf("df(messi) = %d", df)
	}
	if cs.DocFreq("narration", "absent") != 0 || cs.DocFreq("nofield", "messi") != 0 {
		t.Error("df of unknown term/field not zero")
	}
}

// TestMergeReproducesWhole: merging two disjoint partitions' statistics
// must reproduce the whole collection's, and binding a query to the merged
// view must make a partition score exactly like the whole.
func TestMergeReproducesWhole(t *testing.T) {
	full, a, b := statsFixture()
	want := full.LocalStats()
	merged := NewCorpusStats()
	merged.Merge(a.LocalStats())
	merged.Merge(b.LocalStats())
	if merged.Docs != want.Docs {
		t.Fatalf("merged docs %d, want %d", merged.Docs, want.Docs)
	}
	for field, wfs := range want.Fields {
		mfs := merged.Fields[field]
		if mfs == nil || mfs.Docs != wfs.Docs || mfs.SumLen != wfs.SumLen {
			t.Fatalf("field %q stats diverge", field)
		}
		for term, df := range wfs.DocFreq {
			if mfs.DocFreq[term] != df {
				t.Errorf("df(%s) = %d, want %d", term, mfs.DocFreq[term], df)
			}
		}
	}

	// Without the merged view partition A computes IDF from its own 2 docs...
	localIDF := a.termStats(nil, "narration", "messi").idf()
	globalIDF := a.termStats(merged, "narration", "messi").idf()
	if want := full.termStats(nil, "narration", "messi").idf(); globalIDF != want {
		t.Errorf("global IDF = %v, want %v", globalIDF, want)
	}
	if globalIDF == localIDF {
		t.Error("the merged view did not change the IDF")
	}
	// ...and scores on the partition, for a query bound to the merged view,
	// match the whole index's for the same document under both
	// similarities.
	goal := TermQuery{Field: "narration", Term: "goal"}
	for _, sim := range []Similarity{ClassicTFIDF{}, BM25{}} {
		a.SetSimilarity(sim)
		full.SetSimilarity(sim)
		ga := a.Search(AnalyzeQuery(goal, a.analyzer, merged), 0)
		// Partition A holds full docs 0 and 2 as its docs 0 and 1.
		var want []Hit
		for _, h := range full.Search(goal, 0) {
			if h.DocID%2 == 0 {
				want = append(want, Hit{DocID: h.DocID / 2, Score: h.Score})
			}
		}
		if len(ga) == 0 {
			t.Fatal("partition matched nothing")
		}
		if err := sameHits(ga, want); err != nil {
			t.Errorf("%T: partition ranking differs from the whole's: %v", sim, err)
		}
		// An unbound query scores with the partition's own counts.
		if err := sameHits(a.Search(goal, 0), want); err == nil {
			t.Errorf("%T: an unbound query ranks with the merged view", sim)
		}
	}
}

// TestAvgLenEdgeCases: empty stats answer zero, not NaN.
func TestAvgLenEdgeCases(t *testing.T) {
	cs := NewCorpusStats()
	if v := cs.Fields["nope"].AvgLen(); v != 0 || math.IsNaN(v) {
		t.Errorf("AvgLen on empty = %v", v)
	}
	var fs *FieldStats
	if v := fs.AvgLen(); v != 0 {
		t.Errorf("nil FieldStats AvgLen = %v", v)
	}
}

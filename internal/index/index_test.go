package index

import (
	"fmt"
	"testing"
	"testing/quick"
)

func buildTestIndex() *Index {
	ix := New(StandardAnalyzer{})
	docs := []*Document{
		new(Document).Add("event", "Goal").Add("narration", "Eto'o scores! Barcelona take the lead"),
		new(Document).Add("event", "Miss").Add("narration", "Ronaldo misses a goal from close range"),
		new(Document).Add("event", "Foul").Add("narration", "Ballack gives away a free-kick following a challenge on Busquets"),
		new(Document).Add("event", "Goal").Add("narration", "Messi scores a wonderful goal"),
		new(Document).Add("event", "Offside").Add("narration", "Giggs is flagged for offside"),
	}
	for _, d := range docs {
		ix.Add(d)
	}
	return ix
}

func TestIndexAddAndStats(t *testing.T) {
	ix := buildTestIndex()
	if ix.NumDocs() != 5 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
	if got := ix.FieldNames(); len(got) != 2 || got[0] != "event" || got[1] != "narration" {
		t.Errorf("FieldNames = %v", got)
	}
	if df := ix.DocFreq("event", "goal"); df != 2 {
		t.Errorf("DocFreq(event, goal) = %d, want 2", df)
	}
	if ix.Doc(0) == nil || ix.Doc(99) != nil || ix.Doc(-1) != nil {
		t.Error("Doc bounds handling wrong")
	}
	if ix.Doc(0).Get("event") != "Goal" {
		t.Errorf("stored field = %q", ix.Doc(0).Get("event"))
	}
}

func TestDocumentMultiValuedGet(t *testing.T) {
	d := new(Document).Add("event", "Foul").Add("event", "NegativeEvent")
	if got := d.Get("event"); got != "Foul NegativeEvent" {
		t.Errorf("Get = %q", got)
	}
	if got := d.Get("missing"); got != "" {
		t.Errorf("Get(missing) = %q", got)
	}
}

func TestPostingsPositions(t *testing.T) {
	ix := New(StandardAnalyzer{})
	ix.Add(new(Document).Add("narration", "goal after goal after goal"))
	pl := ix.Postings("narration", "goal")
	if len(pl) != 1 {
		t.Fatalf("postings = %v", pl)
	}
	if pl[0].Freq() != 3 {
		t.Errorf("freq = %d, want 3", pl[0].Freq())
	}
	// "after" is not in the classic stopword set, so positions are 0, 2, 4.
	want := []int{0, 2, 4}
	for i, p := range pl[0].Positions {
		if p != want[i] {
			t.Errorf("positions = %v", pl[0].Positions)
			break
		}
	}
}

func TestTermQueryRanking(t *testing.T) {
	ix := buildTestIndex()
	hits := ix.Search(TermQuery{Field: "narration", Term: "goal"}, 0)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	// Both docs 1 and 3 contain "goal" in narration once; doc 3 is shorter
	// after stopword removal? Verify scores are positive and sorted.
	if hits[0].Score < hits[1].Score {
		t.Error("hits not sorted by score")
	}
}

func TestTermQueryFieldSeparation(t *testing.T) {
	ix := buildTestIndex()
	// "goal" in event field only matches the two Goal-typed docs.
	hits := ix.Search(TermQuery{Field: "event", Term: "goal"}, 0)
	if len(hits) != 2 {
		t.Fatalf("event-field hits = %v", hits)
	}
	for _, h := range hits {
		if ix.Doc(h.DocID).Get("event") != "Goal" {
			t.Errorf("doc %d has event %q", h.DocID, ix.Doc(h.DocID).Get("event"))
		}
	}
}

func TestTermQueryStemmedMatch(t *testing.T) {
	ix := buildTestIndex()
	// Query "scores" must match "scores!" via stemming.
	hits := ix.Search(TermQuery{Field: "narration", Term: "scoring"}, 0)
	if len(hits) != 2 {
		t.Errorf("stemmed query hits = %v", hits)
	}
}

func TestTermQueryBoost(t *testing.T) {
	ix := buildTestIndex()
	base := ix.Search(TermQuery{Field: "event", Term: "goal"}, 1)[0].Score
	boosted := ix.Search(TermQuery{Field: "event", Term: "goal", Boost: 4}, 1)[0].Score
	if boosted <= base*3.9 || boosted >= base*4.1 {
		t.Errorf("boost 4 gave %f vs base %f", boosted, base)
	}
}

func TestFieldBoostAtIndexTime(t *testing.T) {
	ix := New(StandardAnalyzer{})
	ix.Add(new(Document).AddBoosted("event", "goal", 8))
	ix.Add(new(Document).Add("event", "goal"))
	hits := ix.Search(TermQuery{Field: "event", Term: "goal"}, 0)
	if len(hits) != 2 || hits[0].DocID != 0 {
		t.Fatalf("hits = %v", hits)
	}
	if ratio := hits[0].Score / hits[1].Score; ratio < 7.9 || ratio > 8.1 {
		t.Errorf("index-time boost ratio = %f, want ~8", ratio)
	}
}

func TestPhraseQuery(t *testing.T) {
	ix := New(StandardAnalyzer{})
	ix.Add(new(Document).Add("n", "foul by daniel on the wing"))
	ix.Add(new(Document).Add("n", "daniel wins a foul"))
	ix.Add(new(Document).Add("n", "by daniel a foul was made")) // "foul by daniel" not consecutive
	hits := ix.Search(PhraseQuery{Field: "n", Terms: []string{"foul", "daniel"}}, 0)
	// Analysis drops "by", so in doc 0 "foul daniel" are consecutive.
	if len(hits) != 1 || hits[0].DocID != 0 {
		t.Errorf("phrase hits = %v", hits)
	}
}

func TestPhraseQueryViaTermQueryMultiToken(t *testing.T) {
	ix := New(StandardAnalyzer{})
	ix.Add(new(Document).Add("n", "yellow card for Alex"))
	ix.Add(new(Document).Add("n", "card shown after a yellow flag incident")) // not consecutive
	hits := ix.Search(TermQuery{Field: "n", Term: "yellow card"}, 0)
	if len(hits) != 1 || hits[0].DocID != 0 {
		t.Errorf("multi-token term query hits = %v", hits)
	}
}

func TestBooleanQueryShould(t *testing.T) {
	ix := buildTestIndex()
	q := BooleanQuery{Should: []Query{
		TermQuery{Field: "narration", Term: "scores"},
		TermQuery{Field: "narration", Term: "offside"},
	}}
	hits := ix.Search(q, 0)
	if len(hits) != 3 {
		t.Errorf("hits = %v", hits)
	}
}

func TestBooleanQueryMust(t *testing.T) {
	ix := buildTestIndex()
	q := BooleanQuery{Must: []Query{
		TermQuery{Field: "narration", Term: "goal"},
		TermQuery{Field: "narration", Term: "ronaldo"},
	}}
	hits := ix.Search(q, 0)
	if len(hits) != 1 || ix.Doc(hits[0].DocID).Get("event") != "Miss" {
		t.Errorf("hits = %v", hits)
	}
}

func TestBooleanQueryMustNot(t *testing.T) {
	ix := buildTestIndex()
	q := BooleanQuery{
		Should:  []Query{TermQuery{Field: "narration", Term: "goal"}},
		MustNot: []Query{TermQuery{Field: "narration", Term: "misses"}},
	}
	hits := ix.Search(q, 0)
	if len(hits) != 1 || ix.Doc(hits[0].DocID).Get("event") != "Goal" {
		t.Errorf("hits = %v", hits)
	}
}

func TestBooleanCoord(t *testing.T) {
	ix := buildTestIndex()
	with := BooleanQuery{Should: []Query{
		TermQuery{Field: "narration", Term: "messi"},
		TermQuery{Field: "narration", Term: "nonexistentterm"},
	}}
	without := BooleanQuery{Should: []Query{
		TermQuery{Field: "narration", Term: "messi"},
		TermQuery{Field: "narration", Term: "nonexistentterm"},
	}, DisableCoord: true}
	hw := ix.Search(with, 1)
	hwo := ix.Search(without, 1)
	if len(hw) != 1 || len(hwo) != 1 {
		t.Fatal("expected one hit each")
	}
	if ratio := hw[0].Score / hwo[0].Score; ratio < 0.45 || ratio > 0.55 {
		t.Errorf("coord ratio = %f, want ~0.5", ratio)
	}
}

func TestMatchAllQuery(t *testing.T) {
	ix := buildTestIndex()
	if hits := ix.Search(MatchAllQuery{}, 0); len(hits) != 5 {
		t.Errorf("MatchAll hits = %d", len(hits))
	}
	if hits := ix.Search(MatchAllQuery{}, 2); len(hits) != 2 {
		t.Errorf("limited hits = %d", len(hits))
	}
}

func TestMultiFieldQuery(t *testing.T) {
	ix := buildTestIndex()
	q := MultiFieldQuery("goal", []FieldBoost{{"event", 4}, {"narration", 1}})
	hits := ix.Search(q, 0)
	// Docs 0 and 3 (Goal events) plus doc 1 ("misses a goal" narration).
	if len(hits) != 3 {
		t.Fatalf("hits = %v", hits)
	}
	// The Goal-typed docs must outrank the Miss false positive thanks to the
	// boosted event field — the paper's "Ronaldo misses a goal" example.
	missRank := -1
	for i, h := range hits {
		if ix.Doc(h.DocID).Get("event") == "Miss" {
			missRank = i
		}
	}
	if missRank != 2 {
		t.Errorf("Miss doc ranked %d, want last; hits=%v", missRank, hits)
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	ix := New(StandardAnalyzer{})
	for i := 0; i < 10; i++ {
		ix.Add(new(Document).Add("f", "same text"))
	}
	for trial := 0; trial < 3; trial++ {
		hits := ix.Search(TermQuery{Field: "f", Term: "same"}, 0)
		for i, h := range hits {
			if h.DocID != i {
				t.Fatalf("tie-break order broken: %v", hits)
			}
		}
	}
}

func TestEmptyAndUnknownQueries(t *testing.T) {
	ix := buildTestIndex()
	if hits := ix.Search(TermQuery{Field: "nosuchfield", Term: "goal"}, 0); len(hits) != 0 {
		t.Errorf("unknown field hits = %v", hits)
	}
	if hits := ix.Search(TermQuery{Field: "narration", Term: "the"}, 0); len(hits) != 0 {
		t.Errorf("stopword query hits = %v", hits)
	}
	if hits := ix.Search(BooleanQuery{}, 0); len(hits) != 0 {
		t.Errorf("empty boolean hits = %v", hits)
	}
	if hits := ix.Search(PhraseQuery{Field: "narration"}, 0); len(hits) != 0 {
		t.Errorf("empty phrase hits = %v", hits)
	}
}

func TestNewNilAnalyzerDefaults(t *testing.T) {
	ix := New(nil)
	ix.Add(new(Document).Add("f", "goals"))
	if hits := ix.Search(TermQuery{Field: "f", Term: "goal"}, 0); len(hits) != 1 {
		t.Error("default analyzer not applied")
	}
}

// Property: scores scale linearly with query boost.
func TestBoostLinearityProperty(t *testing.T) {
	ix := buildTestIndex()
	f := func(b uint8) bool {
		boost := float64(b%20) + 1
		base := ix.Search(TermQuery{Field: "narration", Term: "goal"}, 1)
		boosted := ix.Search(TermQuery{Field: "narration", Term: "goal", Boost: boost}, 1)
		if len(base) == 0 || len(boosted) == 0 {
			return false
		}
		ratio := boosted[0].Score / base[0].Score
		return ratio > boost*0.999 && ratio < boost*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIndexAdd(b *testing.B) {
	texts := make([]string, 100)
	for i := range texts {
		texts[i] = fmt.Sprintf("narration %d with goal and players scoring at minute %d", i, i%90)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New(StandardAnalyzer{})
		for _, tx := range texts {
			ix.Add(new(Document).Add("narration", tx))
		}
	}
}

func BenchmarkTermQuery(b *testing.B) {
	ix := New(StandardAnalyzer{})
	for i := 0; i < 5000; i++ {
		ix.Add(new(Document).Add("n", fmt.Sprintf("doc %d goal score player %d", i, i%500)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(TermQuery{Field: "n", Term: "goal"}, 10)
	}
}

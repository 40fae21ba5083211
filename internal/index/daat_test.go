package index

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// checkEquiv asserts the DAAT kernel and the exhaustive oracle agree
// exactly — same documents, byte-identical scores, identical tie order —
// at every limit in limits.
func checkEquiv(t *testing.T, ix *Index, q Query, limits ...int) {
	t.Helper()
	if len(limits) == 0 {
		limits = []int{0, 1, 2, 3, 10, 1000}
	}
	for _, limit := range limits {
		want := ix.ExhaustiveSearch(q, limit)
		got := ix.Search(q, limit)
		if len(got) != len(want) {
			t.Fatalf("limit %d: Search returned %d hits, ExhaustiveSearch %d\ngot:  %v\nwant: %v",
				limit, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].DocID != want[i].DocID {
				t.Fatalf("limit %d hit %d: docID %d, want %d\ngot:  %v\nwant: %v",
					limit, i, got[i].DocID, want[i].DocID, got, want)
			}
			if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("limit %d hit %d (doc %d): score %v (%x), want %v (%x)",
					limit, i, got[i].DocID,
					got[i].Score, math.Float64bits(got[i].Score),
					want[i].Score, math.Float64bits(want[i].Score))
			}
		}
	}
}

// equivSimilarities runs fn under both built-in similarities.
func equivSimilarities(t *testing.T, ix *Index, fn func(t *testing.T)) {
	t.Helper()
	for _, sim := range []struct {
		name string
		sim  Similarity
	}{{"ClassicTFIDF", ClassicTFIDF{}}, {"BM25", BM25{}}} {
		ix.SetSimilarity(sim.sim)
		t.Run(sim.name, fn)
	}
	ix.SetSimilarity(ClassicTFIDF{})
}

func TestDAATEquivalenceTermQuery(t *testing.T) {
	ix := buildTestIndex()
	equivSimilarities(t, ix, func(t *testing.T) {
		checkEquiv(t, ix, TermQuery{Field: "narration", Term: "goal"})
		checkEquiv(t, ix, TermQuery{Field: "narration", Term: "goal", Boost: 2.5})
		checkEquiv(t, ix, TermQuery{Field: "event", Term: "Goal"})
		checkEquiv(t, ix, TermQuery{Field: "narration", Term: "unicorn"})
		checkEquiv(t, ix, TermQuery{Field: "nosuchfield", Term: "goal"})
		// Multi-token term falls back to a phrase; stopword-only analyzes away.
		checkEquiv(t, ix, TermQuery{Field: "narration", Term: "close range"})
		checkEquiv(t, ix, TermQuery{Field: "narration", Term: "the"})
	})
}

func TestDAATEquivalencePhraseQuery(t *testing.T) {
	ix := buildTestIndex()
	equivSimilarities(t, ix, func(t *testing.T) {
		checkEquiv(t, ix, PhraseQuery{Field: "narration", Terms: []string{"close", "range"}})
		checkEquiv(t, ix, PhraseQuery{Field: "narration", Terms: []string{"scores", "a", "wonderful"}})
		checkEquiv(t, ix, PhraseQuery{Field: "narration", Terms: []string{"wonderful", "range"}})
		checkEquiv(t, ix, PhraseQuery{Field: "narration", Terms: []string{"goal"}, Boost: 3})
		checkEquiv(t, ix, PhraseQuery{Field: "narration", Terms: nil})
	})
}

func TestDAATEquivalenceBooleanQuery(t *testing.T) {
	ix := buildTestIndex()
	goal := TermQuery{Field: "narration", Term: "goal"}
	scores := TermQuery{Field: "narration", Term: "scores"}
	miss := TermQuery{Field: "event", Term: "Miss"}
	equivSimilarities(t, ix, func(t *testing.T) {
		checkEquiv(t, ix, BooleanQuery{Should: []Query{goal, scores}})
		checkEquiv(t, ix, BooleanQuery{Should: []Query{goal, scores}, DisableCoord: true})
		checkEquiv(t, ix, BooleanQuery{Must: []Query{goal}, Should: []Query{scores}})
		checkEquiv(t, ix, BooleanQuery{Must: []Query{goal, scores}})
		checkEquiv(t, ix, BooleanQuery{Should: []Query{goal}, MustNot: []Query{miss}})
		checkEquiv(t, ix, BooleanQuery{Must: []Query{goal}, MustNot: []Query{goal}})
		checkEquiv(t, ix, BooleanQuery{MustNot: []Query{goal}})
		checkEquiv(t, ix, BooleanQuery{})
		// Nested booleans, the MultiFieldQuery shape.
		checkEquiv(t, ix, BooleanQuery{Should: []Query{
			BooleanQuery{Should: []Query{goal, miss}, DisableCoord: true},
			BooleanQuery{Should: []Query{scores}, DisableCoord: true},
		}})
	})
}

func TestDAATEquivalenceMultiFieldAndMatchAll(t *testing.T) {
	ix := buildTestIndex()
	fields := []FieldBoost{{Field: "event", Boost: 4}, {Field: "narration", Boost: 1}}
	equivSimilarities(t, ix, func(t *testing.T) {
		checkEquiv(t, ix, MultiFieldQuery("goal scores", fields))
		checkEquiv(t, ix, MultiFieldQuery("ronaldo offside challenge", fields))
		checkEquiv(t, ix, MultiFieldQuery("", fields))
		checkEquiv(t, ix, MatchAllQuery{})
	})
}

func TestDAATEquivalenceFuzzyQuery(t *testing.T) {
	ix := buildTestIndex()
	equivSimilarities(t, ix, func(t *testing.T) {
		checkEquiv(t, ix, FuzzyQuery{Field: "narration", Term: "goal"})
		checkEquiv(t, ix, FuzzyQuery{Field: "narration", Term: "goap"})
		checkEquiv(t, ix, FuzzyQuery{Field: "narration", Term: "mesi", Boost: 2})
		checkEquiv(t, ix, FuzzyQuery{Field: "narration", Term: "qqqqqq"})
	})
}

func TestDAATEquivalenceNegativeBoost(t *testing.T) {
	// Negative boosts must not overprune: the kernel disables the affected
	// clause's cap instead of trusting a flipped bound.
	ix := buildTestIndex()
	pos := TermQuery{Field: "narration", Term: "goal", Boost: 2}
	neg := TermQuery{Field: "narration", Term: "scores", Boost: -1}
	checkEquiv(t, ix, BooleanQuery{Should: []Query{pos, neg}})
	checkEquiv(t, ix, PhraseQuery{Field: "narration", Terms: []string{"close", "range"}, Boost: -2})
}

func TestDAATEquivalenceParsedQueries(t *testing.T) {
	ix := buildTestIndex()
	fields := []FieldBoost{{Field: "event", Boost: 4}, {Field: "narration", Boost: 1}}
	queries := []string{
		`goal`,
		`"close range"`,
		`+goal -ronaldo`,
		`event:goal narration:scores`,
		`mesi~ goal`,
		`+narration:"a wonderful goal" offside`,
	}
	equivSimilarities(t, ix, func(t *testing.T) {
		for _, src := range queries {
			q, err := ParseQuery(src, fields)
			if err != nil {
				t.Fatalf("ParseQuery(%q): %v", src, err)
			}
			checkEquiv(t, ix, q)
		}
	})
}

// TestDAATEquivalenceProperty is the randomized oracle test: random
// corpora, random structured queries, every limit — pruned DAAT must
// reproduce the exhaustive path bit-for-bit.
func TestDAATEquivalenceProperty(t *testing.T) {
	vocab := strings.Fields(
		"goal foul corner kick save miss offside card yellow red header " +
			"shot cross pass tackle keeper striker winger messi eto ronaldo " +
			"ballack giggs busquets lead range challenge wonderful close free")
	fields := []string{"event", "narration", "players"}

	rng := rand.New(rand.NewSource(20260805))
	for round := 0; round < 40; round++ {
		ix := New(StandardAnalyzer{})
		if round%2 == 1 {
			ix.SetSimilarity(BM25{})
		}
		nDocs := 1 + rng.Intn(60)
		for d := 0; d < nDocs; d++ {
			doc := new(Document)
			for _, f := range fields {
				if rng.Intn(4) == 0 {
					continue
				}
				n := 1 + rng.Intn(15)
				words := make([]string, n)
				for i := range words {
					words[i] = vocab[rng.Intn(len(vocab))]
				}
				boost := 0.0
				if rng.Intn(3) == 0 {
					boost = 0.5 + rng.Float64()*3
				}
				doc.Fields = append(doc.Fields, Field{Name: f, Text: strings.Join(words, " "), Boost: boost})
			}
			ix.Add(doc)
		}
		for qi := 0; qi < 25; qi++ {
			q := randomQuery(rng, vocab, fields, 2)
			limit := []int{0, 1, 2, 5, 10, 100}[rng.Intn(6)]
			want := ix.ExhaustiveSearch(q, limit)
			got := ix.Search(q, limit)
			if !hitsEqual(got, want) {
				t.Fatalf("round %d query %d (%#v) limit %d:\ngot:  %v\nwant: %v",
					round, qi, q, limit, got, want)
			}
		}
	}
}

func hitsEqual(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DocID != b[i].DocID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// randomQuery builds a random structured query over the vocabulary:
// terms, phrases, fuzzies and (while depth lasts) boolean combinations.
func randomQuery(rng *rand.Rand, vocab, fields []string, depth int) Query {
	leaf := func() Query {
		f := fields[rng.Intn(len(fields))]
		boost := float64(rng.Intn(4)) // 0 = the "unset" sentinel, also covered
		switch rng.Intn(4) {
		case 0:
			terms := make([]string, 1+rng.Intn(3))
			for i := range terms {
				terms[i] = vocab[rng.Intn(len(vocab))]
			}
			return PhraseQuery{Field: f, Terms: terms, Boost: boost}
		case 1:
			return FuzzyQuery{Field: f, Term: vocab[rng.Intn(len(vocab))], Boost: boost}
		default:
			return TermQuery{Field: f, Term: vocab[rng.Intn(len(vocab))], Boost: boost}
		}
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		return leaf()
	}
	sub := func() Query { return randomQuery(rng, vocab, fields, depth-1) }
	var q BooleanQuery
	for i := 1 + rng.Intn(3); i > 0; i-- {
		q.Should = append(q.Should, sub())
	}
	for i := rng.Intn(2); i > 0; i-- {
		q.Must = append(q.Must, sub())
	}
	for i := rng.Intn(2); i > 0; i-- {
		q.MustNot = append(q.MustNot, sub())
	}
	q.DisableCoord = rng.Intn(2) == 0
	return q
}

func TestSetExhaustiveRoutesSearch(t *testing.T) {
	ix := buildTestIndex()
	q := TermQuery{Field: "narration", Term: "goal"}
	want := ix.Search(q, 2)
	ix.SetExhaustive(true)
	if got := ix.Search(q, 2); !hitsEqual(got, want) {
		t.Errorf("exhaustive-routed Search = %v, want %v", got, want)
	}
	ix.SetExhaustive(false)
}

func TestDAATEquivalenceAfterCodecRoundTrip(t *testing.T) {
	// Caps are rebuilt, not serialized: a decoded index must prune
	// identically to the one that was encoded.
	ix := buildTestIndex()
	var buf strings.Builder
	if _, err := ix.EncodeWithTOC(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(strings.NewReader(buf.String()), StandardAnalyzer{})
	if err != nil {
		t.Fatal(err)
	}
	fields := []FieldBoost{{Field: "event", Boost: 4}, {Field: "narration", Boost: 1}}
	checkEquiv(t, loaded, MultiFieldQuery("goal scores offside", fields))
	checkEquiv(t, loaded, PhraseQuery{Field: "narration", Terms: []string{"close", "range"}})
}

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
			q := ix.LikeThisQuery(docID, fields, maxTerms)
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
			seen := map[string]bool{}
			for _, term := range ix.analyzer.Analyze(ix.Doc(docID).Get("narration")) {
				if seen[term] {
					continue
				}
				seen[term] = true
				df := ix.DocFreq("narration", term)
				ceiling := ix.NumDocs() / 3
				if ceiling < 5 {
					ceiling = 5
				}
				if df <= 0 || df > ceiling {
					continue
				}
				all = append(all, scored{term, ix.IDF("narration", term)})
			}
			for i := 1; i < len(all); i++ {
				for j := i; j > 0; j-- {
					a, b := all[j], all[j-1]
					if a.score > b.score || (a.score == b.score && a.term < b.term) {
						all[j], all[j-1] = b, a
					}
				}
			}
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
	for docID := 0; docID < ix.NumDocs(); docID++ {
		if q := ix.MoreLikeThis(docID, fields, 8); q != nil {
			checkEquiv(t, ix, q)
		}
	}
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
	vocab := strings.Fields(
		"goal foul corner kick save miss offside card yellow red header " +
			"shot cross pass tackle keeper striker winger messi ronaldo")
	rng := rand.New(rand.NewSource(7))
	ix := New(StandardAnalyzer{})
	for d := 0; d < 5000; d++ {
		words := make([]string, 12)
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		ix.Add(new(Document).Add("narration", strings.Join(words, " ")))
	}
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

package index

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSearch backs the "safe for concurrent searching" claim in
// index.go under -race: after an offline build, many goroutines hammer
// every query shape — term, phrase, boolean, fuzzy, parsed, more-like-this
// — against the same index, on the heap and mapped, and must observe
// identical results. Each search builds its tree in a pooled arena, so
// an arena shared by two searches shows here.
func TestConcurrentSearch(t *testing.T) {
	heap := New(nil)
	for i := 0; i < 200; i++ {
		d := &Document{}
		d.Add("event", fmt.Sprintf("Goal Shoot event %d", i))
		d.Add("narration", fmt.Sprintf("player%d scores a wonderful goal in minute %d", i%17, i))
		heap.Add(d)
	}
	mapped, err := reopen(heap, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*Index{heap, mapped} {
		searchConcurrently(t, ix)
	}
}

func searchConcurrently(t *testing.T, ix *Index) {
	fields := []FieldBoost{{Field: "event", Boost: 2}, {Field: "narration", Boost: 1}}
	queries := []Query{
		TermQuery{Field: "narration", Term: "goal"},
		PhraseQuery{Field: "narration", Terms: []string{"wonderful", "goal"}},
		MultiFieldQuery("goal player3", fields),
		FuzzyQuery{Field: "narration", Term: "goql"},
		BooleanQuery{Must: []Query{TermQuery{Field: "event", Term: "goal"}},
			MustNot: []Query{TermQuery{Field: "narration", Term: "player5"}}},
	}
	want := make([][]Hit, len(queries))
	for i, q := range queries {
		want[i] = ix.Search(q, 10)
		if len(want[i]) == 0 {
			t.Fatalf("query %d matches nothing; bad fixture", i)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				qi := (g + i) % len(queries)
				if err := sameHits(ix.Search(queries[qi], 10), want[qi]); err != nil {
					t.Errorf("mapped %v goroutine %d query %d: %v", ix.Mapped(), g, qi, err)
					return
				}
				ix.LikeThisQuery(i%ix.NumDocs(), fields, 4, nil)
			}
		}(g)
	}
	wg.Wait()
}

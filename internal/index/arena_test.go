package index

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
)

// arenaQueries are query shapes that between them take from every slab:
// a keyword and a phrase across the traffic fields, fuzzy terms, and
// boolean trees with Musts, MustNots and nested disjunctions.
func arenaQueries() []Query {
	return []Query{
		MultiFieldQuery("goal messi save", trafficFields),
		mustParse(`"close range" +goal mesi~ -eto`, trafficFields),
		FuzzyQuery{Field: "narration", Term: "goap", Boost: 2},
		BooleanQuery{Must: []Query{TermQuery{Field: "event", Term: "goal"}},
			Should: []Query{PhraseQuery{Field: "narration", Terms: []string{"wonderful", "goal"}}, TermQuery{Field: "narration", Term: "header"}}},
		MultiFieldQuery("corner", trafficFields[:4]),
		PhraseQuery{Field: "narration", Terms: []string{"shot", "keeper", "save"}, Boost: 3},
	}
}

// arenaIndexes are one kernelCorpus index, on the heap and mapped.
func arenaIndexes(t *testing.T) map[string]*Index {
	t.Helper()
	heap := indexOf(kernelCorpus(rand.New(rand.NewSource(38)), 900))
	mapped, err := reopen(heap, true)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Index{"heap": heap, "mapped": mapped}
}

// searchIn is Search with the tree built in a, which it leaves uncleared.
func searchIn(ix *Index, a *searchArena, q Query, limit int, bar *Bar) []Hit {
	if limit <= 0 {
		bar = nil
	}
	return ix.collect(q.bind(ix.analyzer, nil).newScorer(ix, a), limit, bar)
}

// barAt is a fresh bar at half the query's best exhaustive score; nil when
// at is false.
func barAt(ix *Index, q Query, at bool) *Bar {
	if !at {
		return nil
	}
	b := new(Bar)
	if all := ix.ExhaustiveSearch(q, 1); len(all) > 0 {
		b.raise(all[0].Score / 2)
	}
	return b
}

// TestArenaClearZeroesEverySlot builds every query's tree in one arena,
// over the heap and the mapped index under both similarities, and clears
// it: every slot of every slab, up to its capacity, and the fuzzy scratch
// must be zero, so a pooled arena keeps no pointer into the indexes the
// last search read.
func TestArenaClearZeroesEverySlot(t *testing.T) {
	a := new(searchArena)
	for _, ix := range arenaIndexes(t) {
		for _, sim := range []Similarity{ClassicTFIDF{}, BM25{}} {
			ix.SetSimilarity(sim)
			for _, q := range arenaQueries() {
				searchIn(ix, a, q, 10, nil)
			}
		}
	}
	a.clear()
	v := reflect.ValueOf(a).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if f.Kind() == reflect.Struct { // a slab
			f = f.Field(0)
		}
		if f.Cap() == 0 {
			t.Errorf("%s never used: the queries no longer reach it", name)
		}
		if f.Len() != 0 {
			t.Errorf("%s holds %d slots after clear", name, f.Len())
		}
		for j, all := 0, f.Slice(0, f.Cap()); j < all.Len(); j++ {
			if !all.Index(j).IsZero() {
				t.Fatalf("%s slot %d of %d not zero after clear", name, j, all.Len())
			}
		}
	}
}

// TestArenaReuseMatchesFresh runs each query in an arena that last held
// another query's tree, pruned from a bar, and requires the hits a fresh
// arena gives: a scorer built over a reused slot starts from none of its
// predecessor's state (threshold, dead flag, MaxScore partition, windows,
// shallow probe or block bound cache).
func TestArenaReuseMatchesFresh(t *testing.T) {
	queries := arenaQueries()
	for name, ix := range arenaIndexes(t) {
		a := new(searchArena)
		for i, prev := range queries {
			for j, q := range queries {
				if i == j {
					continue
				}
				for _, limit := range []int{0, 1, 10} {
					for _, bar := range []bool{false, true} {
						searchIn(ix, a, prev, 1, barAt(ix, prev, true))
						a.clear()
						got := searchIn(ix, a, q, limit, barAt(ix, q, bar))
						a.clear()
						want := searchIn(ix, new(searchArena), q, limit, barAt(ix, q, bar))
						if err := sameHits(got, want); err != nil {
							t.Fatalf("%s: query %d after query %d, limit %d, bar %v: %v", name, j, i, limit, bar, err)
						}
					}
				}
			}
		}
	}
}

// TestSearchAllocationsFlat: a warm Search of a bound multi-field query
// allocates as much at four tokens as at one, on the heap and mapped —
// every node, child list, similarity value and block buffer of the tree
// comes from the arena. (Before the arena: 10 → 27 on the heap, 16 → 45
// mapped.)
func TestSearchAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop a random share of what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	words := strings.Fields("goal messi save corner")
	for name, ix := range arenaIndexes(t) {
		var counts []float64
		for n := 1; n <= len(words); n++ {
			q := AnalyzeQuery(MultiFieldQuery(strings.Join(words[:n], " "), trafficFields), ix.analyzer, nil)
			for range 5 {
				ix.Search(q, 10)
			}
			counts = append(counts, testing.AllocsPerRun(100, func() { ix.Search(q, 10) }))
		}
		t.Logf("%s: allocations per search at 1–%d tokens: %v", name, len(words), counts)
		for n, c := range counts {
			if c != counts[0] {
				t.Errorf("%s: %d tokens allocate %v per search, one token %v", name, n+1, c, counts[0])
			}
		}
	}
}

package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

// linearExpansions is the dictionary walk the neighbour index replaced,
// kept verbatim as the oracle: every term of the field, in either storage
// mode, filtered on byte length and then WithinEditDistance1.
func (fi *fieldIndex) linearExpansions(target string) (terms []string, weights []float64) {
	fi.eachTerm(func(term string, _ postingsSource) {
		if d := len(term) - len(target); d > utf8.UTFMax || d < -utf8.UTFMax {
			return
		}
		switch {
		case term == target:
			weights = append(weights, 1)
		case WithinEditDistance1(term, target):
			weights = append(weights, 0.5)
		default:
			return
		}
		terms = append(terms, term)
	})
	return terms, weights
}

// checkNeighbours fails unless fi's expansion of target is the linear
// scan's, term for term and weight for weight, each term once.
func checkNeighbours(t *testing.T, label string, fi *fieldIndex, target string) {
	t.Helper()
	asMap := func(terms []string, weights []float64) map[string]float64 {
		m := make(map[string]float64, len(terms))
		for i, term := range terms {
			m[term] = weights[i]
		}
		return m
	}
	gotT, gotW := fi.expansions(target, nil, nil)
	wantT, wantW := fi.linearExpansions(target)
	got, want := asMap(gotT, gotW), asMap(wantT, wantW)
	if len(gotT) != len(gotW) || len(got) != len(gotT) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: expansions(%q) = %q %v, linear scan %q %v", label, target, gotT, gotW, wantT, wantW)
	}
}

// verbatimAnalyzer indexes each space-separated word exactly as written,
// so a test chooses its dictionary byte for byte, invalid UTF-8 included.
type verbatimAnalyzer struct{}

func (verbatimAnalyzer) Analyze(text string) []string { return strings.Fields(text) }

// neighbourUnits are the runes test dictionaries are spelled with: ASCII,
// two- and three-byte runes, an invalid byte, and a lead byte and a
// continuation byte that spell "é" when adjacent and are each an invalid
// one-byte rune apart — the case where an edit moves a rune boundary.
var neighbourUnits = []string{"a", "b", "c", "é", "ü", "€", "₤", "\xff", "\xc3", "\xa9"}

func randomSpelling(rng *rand.Rand, runes int) string {
	var sb strings.Builder
	for i := 0; i < runes; i++ {
		sb.WriteString(neighbourUnits[rng.Intn(len(neighbourUnits))])
	}
	return sb.String()
}

// TestNeighboursMatchLinearScan holds the neighbour index to the walk it
// replaced on seeded dictionaries, for targets of 0–6 runes and for
// one-edit variants of dictionary terms, on the heap index as built, as
// decoded and as mapped; Index.Neighbours must return the scan's terms
// bar the target, ascending.
func TestNeighboursMatchLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := New(verbatimAnalyzer{})
		var dict []string
		for d := 0; d < 60; d++ {
			words := make([]string, 1+rng.Intn(8))
			for i := range words {
				words[i] = randomSpelling(rng, 1+rng.Intn(6))
			}
			dict = append(dict, words...)
			doc := &Document{}
			doc.Add("f", strings.Join(words, " "))
			ix.Add(doc)
		}
		var targets []string
		for runes := 0; runes <= 6; runes++ {
			for i := 0; i < 12; i++ {
				targets = append(targets, randomSpelling(rng, runes))
			}
		}
		for i := 0; i < 60; i++ {
			// Delete, insert or substitute one unit of a dictionary term, so
			// most targets have neighbours.
			term := dict[rng.Intn(len(dict))]
			at := rng.Intn(len(term) + 1)
			for at < len(term) && !utf8.RuneStart(term[at]) {
				at++
			}
			switch unit := randomSpelling(rng, 1); rng.Intn(3) {
			case 0:
				targets = append(targets, term[:at]+unit+term[at:])
			case 1:
				if at < len(term) {
					targets = append(targets, term[:at]+term[at+runeLen(term[at:]):])
				}
			default:
				if at < len(term) {
					targets = append(targets, term[:at]+unit+term[at+runeLen(term[at:]):])
				}
			}
		}
		heap, mapped, _, _ := openMappedPair(t, ix)
		for _, form := range []struct {
			name string
			ix   *Index
		}{{"built", ix}, {"decoded", heap}, {"mapped", mapped}} {
			fi := form.ix.fields["f"]
			for _, target := range targets {
				label := fmt.Sprintf("seed %d %s", seed, form.name)
				checkNeighbours(t, label, fi, target)
				want, _ := fi.linearExpansions(target)
				want = slices.DeleteFunc(want, func(term string) bool { return term == target })
				slices.Sort(want)
				if got := form.ix.Neighbours("f", target); !slices.Equal(got, want) {
					t.Fatalf("%s: Neighbours(%q) = %q, linear scan %q", label, target, got, want)
				}
			}
		}
	}
}

// TestNeighboursRebuiltAfterAdd: a heap Add that creates a term drops the
// field's neighbours, so the next fuzzy search finds the new term; an Add
// of known terms keeps them.
func TestNeighboursRebuiltAfterAdd(t *testing.T) {
	ix := New(nil)
	add := func(text string) {
		d := &Document{}
		d.Add("f", text)
		ix.Add(d)
	}
	add("messi scores")
	q := FuzzyQuery{Field: "f", Term: "mesi"}
	if hits := ix.Search(q, 10); len(hits) != 1 {
		t.Fatalf("before Add: %d hits, want 1", len(hits))
	}
	fi := ix.fields["f"]
	built := fi.nbrs.Load()
	add("scores messi")
	if fi.nbrs.Load() != built {
		t.Fatal("an Add of known terms dropped the neighbours")
	}
	add("mesa")
	if fi.nbrs.Load() != nil {
		t.Fatal("an Add creating a term kept the neighbours")
	}
	hits := ix.Search(q, 10)
	var ids []int
	for _, h := range hits {
		ids = append(ids, h.DocID)
	}
	sort.Ints(ids)
	if !reflect.DeepEqual(ids, []int{0, 1, 2}) {
		t.Fatalf("after Add: hits %v, want [0 1 2]", ids)
	}
}

// TestConcurrentFirstFuzzySearchMapped runs the first fuzzy searches of a
// mapped index from many goroutines at once, so several build the
// neighbours and race to publish them (run under -race).
func TestConcurrentFirstFuzzySearchMapped(t *testing.T) {
	ix := New(nil)
	for i := 0; i < 100; i++ {
		d := &Document{}
		d.Add("f", fmt.Sprintf("player%d scores goal against keeper%d", i%13, i))
		ix.Add(d)
	}
	_, want, _, _ := openMappedPair(t, ix)
	queries := []Query{FuzzyQuery{Field: "f", Term: "goql"}, FuzzyQuery{Field: "f", Term: "player1"}}
	wantHits := make([][]Hit, len(queries))
	for i, q := range queries {
		if wantHits[i] = want.Search(q, 10); len(wantHits[i]) == 0 {
			t.Fatalf("query %d matches nothing; bad fixture", i)
		}
	}
	_, mapped, _, _ := openMappedPair(t, ix)
	// start holds every goroutine until all exist.
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			qi := g % len(queries)
			if got := mapped.Search(queries[qi], 10); !reflect.DeepEqual(got, wantHits[qi]) {
				t.Errorf("goroutine %d query %d: %+v, want %+v", g, qi, got, wantHits[qi])
			}
		}(g)
	}
	start.Done()
	wg.Wait()
}

// FuzzNeighbours: on any dictionary (the space-separated words of dict)
// and any target, the neighbour index finds exactly what the linear scan
// finds.
func FuzzNeighbours(f *testing.F) {
	f.Add("messi mess mesa mesi amesi messy", "mesi")
	f.Add("müller mueller muller mller", "müler")
	f.Add("€a a€ €€ a ab ba", "€")
	f.Add("\xc3\xa9a \xc3a \xa9a éa \xff\xa9", "\xc3\xa9")
	f.Add("x y 0 é", "")
	f.Fuzz(func(t *testing.T, dict, target string) {
		fi := newFieldIndex()
		for _, term := range strings.Split(dict, " ") {
			fi.terms[term] = &termEntry{}
		}
		checkNeighbours(t, "fuzz", fi, target)
	})
}

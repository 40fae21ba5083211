package index

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestGroupedDisjunction is the whitebox check on inlined Shoulds: every
// shape a query token takes builds one boolean scorer over the token's
// field cursors; a document at the best case of the k weakest leaves, or
// of a window's blocks, scores exactly the bound that stands for it; and
// the MaxScore order keeps a token's leaves together.
func TestGroupedDisjunction(t *testing.T) {
	t.Run("shapes", func(t *testing.T) {
		// Only the root receives the collector's threshold, so a boolean
		// scorer among its leaves gets no pruning of its own. Every query
		// class the load generator sends (keyword, phrase, field, fuzzy)
		// builds a root boolean scorer with none.
		ix := indexOf(kernelCorpus(rand.New(rand.NewSource(41)), 600))
		isBoolean := func(sc scorer) bool {
			_, ok := sc.(*booleanScorer)
			return ok
		}
		// grouped: several tokens of several fields each, so fewer groups
		// than leaves. A fielded term is a single leaf, so the two field
		// shapes are checked for their root alone.
		for _, c := range []struct {
			q       Query
			grouped bool
		}{
			{MultiFieldQuery("goal save", trafficFields), true},
			{MultiFieldQuery("goal messi corner", trafficFields), true},
			{mustParse(`"goal save" "corner pass" keeper`, trafficFields), true},
			{mustParse(`gaal~ savr~`, trafficFields), true},
			{mustParse(`subjectPlayer:messi event:goal`, trafficFields), false},
			{mustParse(`event:foul eto`, trafficFields), false},
		} {
			q := c.q
			root, ok := q.bind(ix.analyzer, nil).newScorer(ix, new(searchArena)).(*booleanScorer)
			if !ok {
				t.Fatalf("%s: the root is not a boolean scorer", showQuery(q))
			}
			if slices.ContainsFunc(root.shoulds, isBoolean) {
				t.Errorf("%s: a token's disjunction was built as a scorer of its own", showQuery(q))
			}
			if groups := len(root.ends); c.grouped && (groups < 2 || groups >= len(root.shoulds)) {
				t.Errorf("%s: %d leaves in %d groups, want several tokens of several fields each", showQuery(q), len(root.shoulds), groups)
			}
		}
	})

	// Every value of a field is four tokens long and holds a query word
	// once, so each leaf's cap is the score of any document holding it.
	// "save" is in two of the three fields, so its group is the weaker one
	// although it comes second. The field boosts are drawn, since whether
	// a grouped and an ungrouped sum differ in their last bit depends on
	// the addends.
	r := rand.New(rand.NewSource(41))
	for draw := 0; draw < 16; draw++ {
		fields := []FieldBoost{{"a", 0.1 + 3*r.Float64()}, {"b", 0.1 + 3*r.Float64()}, {"c", 0.1 + 3*r.Float64()}}
		t.Run(fmt.Sprintf("boosts=%.3g/%.3g/%.3g", fields[0].Boost, fields[1].Boost, fields[2].Boost), func(t *testing.T) {
			groupedBounds(t, fields)
		})
	}
	t.Run("interleaved caps", func(t *testing.T) {
		// Token A's fields cap at 3 and 5, token B's at 4 and 6. By leaf
		// cap alone the two weakest leaves (3 and 4) would be two matches
		// at (3+4)·2/2 = 7; grouped, A's leaves are one match at
		// (3+5)·1/2 = 4, so a bar of 6 makes both non-essential.
		tok := func(caps ...float64) boundQuery {
			c := &boolClause{}
			for _, v := range caps {
				c.should = append(c.should, capClause(v))
			}
			return c
		}
		root := newBooleanScorer(nil, new(searchArena), &boolClause{should: []boundQuery{tok(3, 5), tok(4, 6)}, coord: true}).(*booleanScorer)
		root.setThreshold(6)
		if !slices.Equal(root.sorted, []int{0, 1, 2, 3}) || root.nonEss != 2 {
			t.Errorf("MaxScore order %v with %d non-essential, want [0 1 2 3] with token A's two", root.sorted, root.nonEss)
		}
	})
}

// groupedBounds checks, for "goal save" over fields a, b and c with
// "save" absent from c, that a document at the best case of the k weakest
// leaves scores exactly weakBound(k) (and, holding every leaf, the cap),
// and one at the best case of its window's blocks exactly the window
// bound.
func groupedBounds(t *testing.T, fields []FieldBoost) {
	q := MultiFieldQuery("goal save", fields)
	type leaf struct{ field, term string }
	var leaves []leaf
	for _, term := range []string{"goal", "save"} {
		for _, f := range fields {
			if term == "goal" || f.Field != "c" {
				leaves = append(leaves, leaf{f.Field, term})
			}
		}
	}
	// doc holds the leaves in (in every field, padded to four tokens) at
	// the index-time boost.
	doc := func(in []leaf, boost float64) *Document {
		d := new(Document)
		for _, f := range fields {
			words := []string{}
			for _, l := range in {
				if l.field == f.Field {
					words = append(words, l.term)
				}
			}
			words = append(words, "xa", "xb", "xc", "xd")[:4]
			d.AddBoosted(f.Field, strings.Join(words, " "), boost)
		}
		return d
	}
	// build indexes base documents holding every leaf, then one holding
	// the leaves in and one holding the others, so every leaf has the same
	// document frequency whatever in is. It returns the index, the root
	// scorer and the docID of the document holding in.
	build := func(in []leaf, base int, baseBoost float64) (*Index, *booleanScorer, int) {
		var docs []*Document
		for range base {
			docs = append(docs, doc(leaves, baseBoost))
		}
		docs = append(docs, doc(in, 1), doc(slices.DeleteFunc(slices.Clone(leaves), func(l leaf) bool { return slices.Contains(in, l) }), 1))
		ix := indexOf(docs)
		return ix, q.bind(ix.analyzer, nil).newScorer(ix, new(searchArena)).(*booleanScorer), base
	}
	scoreOf := func(ix *Index, d int) float64 {
		for _, h := range ix.ExhaustiveSearch(q, 0) {
			if h.DocID == d {
				return h.Score
			}
		}
		t.Fatalf("document %d is not a hit", d)
		return 0
	}
	bits := math.Float64bits

	// Every leaf's cap is its field's boost times one factor: the weaker
	// token's leaves come first, each token's by ascending boost.
	want := []int{3, 4, 0, 1, 2}
	boost := func(i int) float64 {
		return fields[slices.IndexFunc(fields, func(f FieldBoost) bool { return f.Field == leaves[i].field })].Boost
	}
	slices.SortStableFunc(want[:2], func(x, y int) int { return cmp.Compare(boost(x), boost(y)) })
	slices.SortStableFunc(want[2:], func(x, y int) int { return cmp.Compare(boost(x), boost(y)) })
	for k := 1; k <= len(leaves); k++ {
		var in []leaf
		for _, i := range want[:k] {
			in = append(in, leaves[i])
		}
		ix, root, d := build(in, 3, 1)
		if !slices.Equal(root.sorted, want) {
			t.Fatalf("MaxScore order %v, want %v", root.sorted, want)
		}
		s := scoreOf(ix, d)
		if wb := root.weakBound(k); bits(s) != bits(wb) {
			t.Errorf("a document at the best case of the %d weakest leaves %v scores %v, weakBound %v", k, in, s, wb)
		}
		if k == len(leaves) && bits(s) != bits(root.maxScore()) {
			t.Errorf("a document at the best case of every leaf scores %v, the cap is %v", s, root.maxScore())
		}
	}

	// The first block's documents are boosted, so the document in the
	// second block is at the best case of its window, not of the lists.
	ix, root, d := build(leaves, postingBlockSize, 2)
	bound, end := root.maxScoreUpTo(d)
	if s := scoreOf(ix, d); bits(s) != bits(bound) || end < d || bound >= root.maxScore() {
		t.Errorf("document %d scores %v; its window [%d, %d] is bounded by %v, the whole lists by %v", d, s, d, end, bound, root.maxScore())
	}
}

// capClause is a clause that matches nothing and bounds its score by its
// value: enough to drive a MaxScore partition.
type capClause float64

func (c capClause) bind(Analyzer, *CorpusStats) boundQuery { return c }
func (c capClause) scores(*Index) map[int]float64          { return nil }
func (c capClause) newScorer(*Index, *searchArena) scorer  { return c }
func (capClause) next() int                                { return noMoreDocs }
func (capClause) advance(int) int                          { return noMoreDocs }
func (capClause) score() float64                           { return 0 }
func (c capClause) maxScore() float64                      { return float64(c) }
func (c capClause) maxScoreUpTo(int) (float64, int)        { return float64(c), noMoreDocs }

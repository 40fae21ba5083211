package index

// The composed oracle. A pruned Search returns exactly what
// ExhaustiveSearch returns: the same documents, byte-identical scores, the
// same tie order. TestKernelMatchesExhaustive crosses every axis of that
// invariant in seeded cases: a corpus in boost stretches with tombstones;
// the index as built, decoded, mapped or merged; a query tree, parsed text
// or the traffic's multi-field shape; a similarity, a limit and a starting
// bar. Each case is held to ExhaustiveSearch on the index as built, and
// every hit's stored document to the built index's; a failing one is
// shrunk and printed with the command that replays it.

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

const (
	kernelSeeds = 400
	// kernelQueries is how many queries a seed runs over its corpus.
	kernelQueries = 20
	// kernelMinDraws is how often every axis value must come up over the seeds.
	kernelMinDraws = 20
)

// kernelVocab is the narration vocabulary, commonest first, so that early
// words' lists span several blocks. "the" and "a" are stopwords.
var kernelVocab = strings.Fields("goal save foul corner the pass shot a keeper header messi eto close range wonderful")

// kernelFields are the corpus's fields, all searched by trafficFields: the
// words a value draws from (few for the short fields, so their lists run
// long) and the most it holds (0: the stretch's narration length).
var kernelFields = []struct {
	name  string
	words []string
	size  int
}{
	{"event", []string{"goal", "foul"}, 1},
	{"subjectPlayer", []string{"messi", "eto"}, 1},
	{"fromRules", []string{"save", "corner", "goal"}, 2},
	{"narration", kernelVocab, 0},
}

// trafficFields are the nine fields the semantic levels search under the
// Section 3.6.2 boosts, plus two the corpus never carries: the per-token
// disjunction of a keyword query has a clause per field, found or not.
var trafficFields = []FieldBoost{
	{"event", 4}, {"subjectPlayer", 2.5}, {"objectPlayer", 1.6}, {"subjectTeam", 2.2},
	{"objectTeam", 1.2}, {"subjectPlayerProp", 1.8}, {"ghostField", 3}, {"objectPlayerProp", 1.1},
	{"fromRules", 1.5}, {"narration", 1}, {"anotherGhost", 0.5},
}

// kernelTypeFields are the fields only a templated document carries, as
// the semantic levels write an event's ontology classes into fields of
// their own. Each holds the template's class chain: every content word of
// kernelVocab, in an order of the template's own, so every templated
// document holds every word there in the same shape. All five are
// searched by trafficFields.
var kernelTypeFields = []string{"objectPlayer", "subjectTeam", "objectTeam", "subjectPlayerProp", "objectPlayerProp"}

// kernelCorpus draws n documents in stretches of 100–300, each giving a
// field one index-time boost (0, that is 1, 0.1, 1, 5 or -0.5; flipped in
// one document in eight) and the narration one length range, so blocks
// differ in their bounds. One stretch in three drifts instead: over its
// 300–700 documents every field shortens to one word (the narration from
// thirteen) and every boost rises from 1 to 9, so its later blocks bound
// higher than its earlier ones and a window or whole-tail bound read off
// an early block is wrong about them. One in three is templated: its
// 200–500 documents repeat 2–3 documents verbatim, with their class chains
// in kernelTypeFields, all at boost 5. So hundreds of documents tie
// exactly, a block's best-case posting exists, a bar drawn from a hit's
// score lands on a tie, and a templated document that holds a query word
// only in its class chain scores exactly the sum of its type-field
// clauses' caps. fields, when given, keeps only those fields.
func kernelCorpus(r *rand.Rand, n int, fields ...string) []*Document {
	docs, boost := make([]*Document, n), make([]float64, len(kernelFields))
	maxLen, start, end, drift := 10, 0, 0, false
	var templates []*Document
	keep := func(name string) bool { return len(fields) == 0 || slices.Contains(fields, name) }
	for d := 0; d < n; d++ {
		if d == end {
			kind := r.Intn(3)
			drift, templates = kind == 0, nil
			start, end = d, d+100+r.Intn(201)
			if drift {
				end += 200 + r.Intn(201)
			}
			if kind == 1 {
				end, templates = d+200+r.Intn(301), make([]*Document, 2+r.Intn(2))
			}
			maxLen = 4 + r.Intn(12)
			for i := range boost {
				boost[i] = []float64{0, 0.1, 1, 5, -0.5}[r.Intn(5)]
				if templates != nil {
					boost[i] = 5
				}
			}
		}
		docs[d] = new(Document)
		if templates != nil {
			t := &templates[r.Intn(len(templates))]
			if *t != nil {
				docs[d].Fields = slices.Clone((*t).Fields)
				continue
			}
			*t = docs[d]
		}
		for fi, f := range kernelFields {
			if !keep(f.name) || r.Intn(6) == 0 {
				continue
			}
			size, b := 1+r.Intn(cmp.Or(f.size, maxLen)), boost[fi]
			if drift {
				size, b = max(1, cmp.Or(f.size, 13)*(end-d)/(end-start)), float64(1+8*(d-start)/(end-start))
			}
			words := make([]string, size)
			for i := range words {
				words[i] = f.words[r.Intn(1+r.Intn(len(f.words)))]
			}
			if r.Intn(8) == 0 && templates == nil {
				b = -b
			}
			docs[d].Fields = append(docs[d].Fields, Field{Name: f.name, Text: strings.Join(words, " "), Boost: b})
		}
		if templates != nil {
			chain := slices.DeleteFunc(slices.Clone(kernelVocab), func(w string) bool { return w == "the" || w == "a" })
			r.Shuffle(len(chain), func(i, j int) { chain[i], chain[j] = chain[j], chain[i] })
			for _, name := range kernelTypeFields {
				if keep(name) {
					docs[d].Fields = append(docs[d].Fields, Field{Name: name, Text: strings.Join(chain, " "), Boost: 5})
				}
			}
		}
	}
	return docs
}

// steppedStretch is the stretch drawKernel appends to a seed's
// kernelCorpus after every other draw: 129–256 documents whose narration
// holds "goal" once, at boost 50, ending where a block of narration:goal's
// posting list does. The document at each block start holds only "goal",
// the others two to four words, so a block's first posting is its
// uniquely shortest document and the block's bound is that document's
// score, a top one for any query on narration:goal. A bound that
// over-states the length of a block's first posting drops it. It draws
// nothing.
func steppedStretch(docs []*Document) []*Document {
	a, p0 := StandardAnalyzer{}, 0
	for _, d := range docs {
		if slices.ContainsFunc(d.Fields, func(f Field) bool { return f.Name == "narration" && slices.Contains(a.Analyze(f.Text), "goal") }) {
			p0++
		}
	}
	out := make([]*Document, 2*postingBlockSize-p0%postingBlockSize)
	for i := range out {
		p, words := p0+i, []string{"goal"}
		if p%postingBlockSize > 0 {
			words = append(words, []string{"pass", "shot", "header"}[:1+p%3]...)
		}
		out[i] = new(Document).AddBoosted("narration", strings.Join(words, " "), 50)
	}
	return out
}

// indexOf builds a heap index over docs.
func indexOf(docs []*Document) *Index {
	ix := New(StandardAnalyzer{})
	for _, d := range docs {
		ix.Add(d)
	}
	return ix
}

// queryGen draws queries and records the axis values it drew: the kinds
// of node, and coordination on or off.
type queryGen struct {
	r    *rand.Rand
	axes []string
}

// words draws n query words: vocabulary words, or one no document holds,
// or one in capitals.
func (g *queryGen) words(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = queryWords[g.r.Intn(len(queryWords))]
	}
	return out
}

var queryWords = append(strings.Fields("unicorn Goal Messi"), kernelVocab...)

// typo is a vocabulary word, or one a deletion or a substitution from it.
func (g *queryGen) typo() string {
	w := kernelVocab[g.r.Intn(len(kernelVocab))]
	switch i := g.r.Intn(len(w)); g.r.Intn(3) {
	case 0:
		if len(w) > 1 {
			return w[:i] + w[i+1:]
		}
	case 1:
		return w[:i] + "x" + w[i+1:]
	}
	return w
}

// root draws a case's query: a random tree, or a shape Engine.Search sends.
func (g *queryGen) root() Query {
	switch g.r.Intn(6) {
	case 0:
		return g.parsed()
	case 1:
		return g.multiField()
	}
	return g.tree(2)
}

// tree draws term, phrase, fuzzy, match-all and multi-field leaves under
// boolean nodes; a leaf's field may be absent, its boost 0 or negative.
func (g *queryGen) tree(depth int) Query {
	r := g.r
	field := func() string {
		if r.Intn(16) == 0 {
			return "nosuchfield"
		}
		return kernelFields[r.Intn(len(kernelFields))].name
	}
	boost := func() float64 { return []float64{0, 0, 0, 1, 2.5, 0.5, 4, -1}[r.Intn(8)] }
	switch n := r.Intn(12); {
	case depth > 0 && n < 5:
		var lists [3][]Query
		for li, k := range [3]int{r.Intn(2), 1 + r.Intn(3), r.Intn(2)} {
			for ; k > 0; k-- {
				lists[li] = append(lists[li], g.tree(depth-1))
			}
		}
		q := BooleanQuery{Must: lists[0], Should: lists[1], MustNot: lists[2], DisableCoord: r.Intn(2) == 0}
		g.axes = append(g.axes, "node=boolean", map[bool]string{false: "coord=on", true: "coord=off"}[q.DisableCoord])
		return q
	case n < 6:
		return g.multiField()
	case n < 8:
		g.axes = append(g.axes, "node=phrase")
		return PhraseQuery{Field: field(), Terms: g.words(1 + r.Intn(3)), Boost: boost()}
	case n < 9:
		g.axes = append(g.axes, "node=fuzzy")
		return FuzzyQuery{Field: field(), Term: g.typo(), Boost: boost()}
	case n < 10 && r.Intn(3) == 0:
		g.axes = append(g.axes, "node=matchall")
		return MatchAllQuery{}
	}
	g.axes = append(g.axes, "node=term")
	// One term in ten is two words, which analyze to a phrase.
	return TermQuery{Field: field(), Term: strings.Join(g.words(1+r.Intn(10)/9), " "), Boost: boost()}
}

// mustFuzzy is a fuzzy clause under a Must beside one to three Shoulds at
// a twentieth of its boost: the fuzzy clause's window bound is most of the
// boolean's, so a fuzzy window bound read off an early block for the whole
// tail can end the search early.
func (g *queryGen) mustFuzzy() Query {
	g.axes = append(g.axes, "node=mustfuzzy")
	r := g.r
	boost := []float64{1, 2.5, 4}[r.Intn(3)]
	q := BooleanQuery{
		Must:         []Query{FuzzyQuery{Field: kernelFields[r.Intn(len(kernelFields))].name, Term: g.typo(), Boost: boost}},
		DisableCoord: r.Intn(2) == 0,
	}
	for k := 1 + r.Intn(3); k > 0; k-- {
		q.Should = append(q.Should, TermQuery{Field: kernelFields[r.Intn(len(kernelFields))].name, Term: g.words(1)[0], Boost: boost / 20})
	}
	return q
}

// multiField is MultiFieldQuery of 1–3 words over trafficFields, at their
// boosts or at ones where one field dominates: a coordinated disjunction of
// coordination-free disjunctions over every field, one per word.
func (g *queryGen) multiField() Query {
	g.axes = append(g.axes, "node=multifield", "coord=on")
	fields := trafficFields
	if g.r.Intn(2) == 0 {
		fields = slices.Clone(trafficFields)
		for i := range fields {
			fields[i].Boost = 0.05 + g.r.Float64()
		}
		fields[g.r.Intn(len(fields))].Boost = 2 + 8*g.r.Float64()
	}
	return MultiFieldQuery(strings.Join(g.words(1+g.r.Intn(3)), " "), fields)
}

// parsed is ParseQuery over trafficFields of 1–4 tokens mixing keywords,
// phrases, fuzzy terms, field prefixes and +/- operators.
func (g *queryGen) parsed() Query {
	g.axes = append(g.axes, "node=parsed", "coord=on")
	toks := make([]string, 1+g.r.Intn(4))
	for i := range toks {
		body := []string{`"` + strings.Join(g.words(2), " ") + `"`, g.typo() + "~", g.words(1)[0], g.words(1)[0]}[g.r.Intn(4)]
		toks[i] = []string{"", "", "+", "-"}[g.r.Intn(4)] + []string{"", "", "", "event:", "narration:"}[g.r.Intn(5)] + body
	}
	return mustParse(strings.Join(toks, " "), trafficFields)
}

// mustParse is ParseQuery of text the test wrote.
func mustParse(src string, fields []FieldBoost) Query {
	q, err := ParseQuery(src, fields)
	if err != nil {
		panic(err)
	}
	return q
}

// kernelQuery is a query, its limit and its starting bar: none, the exact
// score of one of the best 2·limit hits (a tie at the bar must be kept) or
// 0.5 to 1.2 times the best score, pick choosing the hit or the fraction.
type kernelQuery struct {
	q     Query
	axes  []string
	limit int
	bar   string
	pick  int
}

// drawQueries draws n queries from root, each at a random limit and bar.
func drawQueries(r *rand.Rand, n int, root func(*queryGen) Query) []kernelQuery {
	out := make([]kernelQuery, n)
	for i := range out {
		g := &queryGen{r: r}
		out[i] = kernelQuery{q: root(g), limit: []int{0, 1, 2, 3, 5, 10, 40, 1000}[r.Intn(8)],
			bar: []string{"none", "exact", "fraction"}[r.Intn(3)], pick: r.Intn(1 << 16)}
		out[i].axes = append(g.axes, "bar="+out[i].bar, fmt.Sprintf("limit=%d", out[i].limit))
	}
	return out
}

// kernelReps are the representations a case searches.
var kernelReps = []string{"heap", "decoded", "mapped", "merged"}

// mergeSource is a merge source: the fraction of the corpus it ends at,
// whether it is mapped, and how its dead documents die: "delete" on the
// source, "mask" in a liveness mask, "late" on the merged index.
type mergeSource struct {
	end    float64
	mapped bool
	tombs  string
}

// kernelCase is a corpus with its tombstones (nil: none), a representation
// of it, a similarity, and the queries run against them.
type kernelCase struct {
	docs    []*Document
	dead    []bool
	rep     string
	sources []mergeSource
	bm25    bool
	queries []kernelQuery
}

func (c kernelCase) isDead(d int) bool { return c.dead != nil && c.dead[d] }

var simNames = map[bool]string{false: "ClassicTFIDF", true: "BM25"}

// drawKernel draws seed's case: 200–600 documents, or 1–60 in one seed in
// three, tombstoned at a random rate in two seeds in three.
func drawKernel(seed int64) kernelCase {
	r := rand.New(rand.NewSource(seed))
	n := 200 + r.Intn(401)
	if r.Intn(3) == 0 {
		n = 1 + r.Intn(60)
	}
	c := kernelCase{docs: kernelCorpus(r, n), rep: kernelReps[r.Intn(len(kernelReps))], bm25: r.Intn(2) == 0}
	if r.Intn(3) > 0 {
		c.dead = make([]bool, n)
		for d, rate := 0, 2+r.Intn(8); d < n; d++ {
			c.dead[d] = r.Intn(rate) == 0
		}
	}
	for i := 2 + r.Intn(3); i > 0; i-- {
		c.sources = append(c.sources, mergeSource{r.Float64(), r.Intn(2) == 0, []string{"delete", "mask", "late"}[r.Intn(3)]})
	}
	slices.SortFunc(c.sources, func(a, b mergeSource) int { return cmp.Compare(a.end, b.end) })
	c.sources[len(c.sources)-1].end = 1
	c.queries = drawQueries(r, kernelQueries, (*queryGen).root)
	// Two shapes the draws above seldom reach, added last so that every
	// seed keeps the corpus and the queries it drew before them: a query
	// with a fuzzy Must, and in the larger corpora the stepped stretch.
	c.queries = append(c.queries, drawQueries(r, 1, (*queryGen).mustFuzzy)...)
	if n >= 200 {
		c.docs = append(c.docs, steppedStretch(c.docs)...)
		if c.dead != nil {
			c.dead = append(c.dead, make([]bool, len(c.docs)-n)...)
		}
	}
	return c
}

// TestKernelMatchesExhaustive runs kernelSeeds drawn cases, a subtest each,
// and fails unless every axis value came up kernelMinDraws times.
func TestKernelMatchesExhaustive(t *testing.T) {
	hist := map[string]int{}
	for seed := 1; seed <= kernelSeeds; seed++ {
		c := drawKernel(int64(seed))
		for _, a := range c.axes() {
			hist[a]++
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCase(t, c)
		})
	}
	t.Logf("axis values over %d seeds: %v", kernelSeeds, hist)
	for _, k := range []string{"rep=heap", "rep=decoded", "rep=mapped", "rep=merged", "tombstones",
		"source=heap", "source=mapped", "source=delete", "source=mask", "source=late", "sim=ClassicTFIDF", "sim=BM25",
		"node=term", "node=phrase", "node=fuzzy", "node=matchall", "node=multifield", "node=boolean", "node=parsed",
		"coord=on", "coord=off", "limit=0", "bar=none", "bar=exact", "bar=fraction"} {
		if hist[k] < kernelMinDraws {
			t.Errorf("axis value %s came up %d times over the seeds, want at least %d", k, hist[k], kernelMinDraws)
		}
	}
}

// FuzzSearchMatchesExhaustive is the oracle's fuzz entry: the fuzzer draws
// the seed and the representation. Beside one seed input per
// representation, seed 114 is a templated corpus whose tied documents
// score exactly the sum of their clauses' caps: a MaxScore prefix or a
// block bound an ulp under the score it bounds drops them.
func FuzzSearchMatchesExhaustive(f *testing.F) {
	for i := range kernelReps {
		f.Add(int64(i+1), uint8(i))
	}
	f.Add(int64(114), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, rep uint8) {
		c := drawKernel(seed)
		c.rep = kernelReps[int(rep)%len(kernelReps)]
		runCase(t, c)
	})
}

// axes lists the axis values c draws.
func (c kernelCase) axes() []string {
	axes := []string{"rep=" + c.rep, "sim=" + simNames[c.bm25]}
	if slices.Contains(c.dead, true) {
		axes = append(axes, "tombstones")
	}
	for _, s := range c.sources {
		if c.rep == "merged" {
			axes = append(axes, "source="+s.tombs, map[bool]string{false: "source=heap", true: "source=mapped"}[s.mapped])
		}
	}
	for _, kq := range c.queries {
		axes = append(axes, kq.axes...)
	}
	return axes
}

// runCase runs c and, should it fail, shrinks it to the failing query,
// then by dropping documents while it still fails, then clauses.
func runCase(t *testing.T, c kernelCase) {
	t.Helper()
	qi, err := c.run()
	if err == nil {
		return
	}
	shrunk := c
	if qi >= 0 {
		shrunk.queries = c.queries[qi : qi+1]
	}
	for size := len(c.docs) / 2; size > 0; size /= 2 {
		for lo := 0; lo < len(shrunk.docs); lo += size {
			cand, hi := shrunk, min(lo+size, len(shrunk.docs))
			cand.docs = slices.Delete(slices.Clone(cand.docs), lo, hi)
			cand.dead = slices.Delete(slices.Clone(cand.dead), min(lo, len(cand.dead)), min(hi, len(cand.dead)))
			if _, cerr := cand.run(); cerr != nil {
				shrunk, err, lo = cand, cerr, lo-size
			}
		}
	}
	for again := qi >= 0; again; {
		again = false
		for _, q := range smaller(shrunk.queries[0].q) {
			cand := shrunk
			cand.queries = []kernelQuery{shrunk.queries[0]}
			cand.queries[0].q = q
			if _, cerr := cand.run(); cerr != nil {
				shrunk, err, again = cand, cerr, true
				break
			}
		}
	}
	t.Fatalf("%v\ncase, shrunk to %d of %d documents: %s\nreplay: go test ./internal/index -run '^%s$'",
		err, len(shrunk.docs), len(c.docs), shrunk, strings.ReplaceAll(t.Name(), "/", "$/^"))
}

// smaller lists q with one clause dropped, at any depth; a multi-field
// token counts each of its fields as a clause.
func smaller(q Query) []Query {
	var out []Query
	switch q := q.(type) {
	case BooleanQuery:
		lists := [3][]Query{q.Must, q.Should, q.MustNot}
		with := func(li int, list []Query) Query {
			l := lists
			l[li] = list
			return BooleanQuery{Must: l[0], Should: l[1], MustNot: l[2], DisableCoord: q.DisableCoord}
		}
		for li, list := range lists {
			for i, sub := range list {
				out = append(out, with(li, slices.Delete(slices.Clone(list), i, i+1)))
				for _, s := range smaller(sub) {
					l := slices.Clone(list)
					l[i] = s
					out = append(out, with(li, l))
				}
			}
		}
	case *multiFieldQuery:
		for i := range q.fields {
			m := *q
			m.fields = slices.Delete(slices.Clone(q.fields), i, i+1)
			out = append(out, &m)
		}
	}
	return out
}

// run builds c's reference and representation and checks every query,
// returning the index of the query that failed (-1 when the build did).
func (c kernelCase) run() (qi int, err error) {
	qi = -1
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	ref, rep, toRef, cs, err := c.build()
	if err != nil {
		return -1, err
	}
	for qi = range c.queries { // a panic reports the query it came from
		if err := c.check(ref, rep, toRef, cs, c.queries[qi]); err != nil {
			return qi, err
		}
	}
	return -1, nil
}

// build returns the index as built with c's tombstones and c's
// representation of it; toRef maps the latter's docIDs to the former's
// (nil: the same), and cs is the statistics both are searched with (nil:
// each its own). It checks Delete's verdicts, LiveDocs, LocalStats, Stats
// (not after a merge), a merge's remaps, and that no stored document was
// decoded.
func (c kernelCase) build() (ref, rep *Index, toRef []int, cs *CorpusStats, err error) {
	ref = indexOf(c.docs)
	switch c.rep {
	case "heap":
		rep = ref
	case "decoded", "mapped":
		rep, err = reopen(ref, c.rep == "mapped")
	case "merged":
		rep, toRef, err = c.merge()
	}
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Every tombstone is deleted on the reference and, but for those the
	// merge saw, on the representation; a second Delete is refused.
	for d, dead := range c.dead {
		if dead && (!ref.Delete(d) || ref.Delete(d)) {
			return nil, nil, nil, nil, fmt.Errorf("reference Delete(%d) verdicts wrong", d)
		}
		if dead && rep != ref && toRef == nil && (!rep.Delete(d) || rep.Delete(d)) {
			return nil, nil, nil, nil, fmt.Errorf("%s Delete(%d) verdicts wrong", c.rep, d)
		}
	}
	rs, ws := rep.LocalStats(), ref.LocalStats()
	// A mapped index keeps no stored document on the heap, decoded or not.
	decoded := rep.CachedDocs() + map[bool]int{true: rep.stored.n}[rep.Mapped()]
	if rep.LiveDocs() != ref.LiveDocs() || !reflect.DeepEqual(rs, ws) || toRef == nil && rep.Stats() != ref.Stats() || decoded != 0 {
		return nil, nil, nil, nil, fmt.Errorf("%s LiveDocs %d, Stats %+v, %d documents decoded, LocalStats\n%+v\nreference LiveDocs %d, Stats %+v, LocalStats\n%+v",
			c.rep, rep.LiveDocs(), rep.Stats(), decoded, rs, ref.LiveDocs(), ref.Stats(), ws)
	}
	if c.rep == "merged" {
		// A merge drops documents, so both score from the statistics of
		// the live ones, as the engine's searches bring them.
		cs = ws
	}
	if c.bm25 {
		ref.SetSimilarity(BM25{})
		rep.SetSimilarity(BM25{})
	}
	return ref, rep, toRef, cs, nil
}

// encode is ix's codec bytes and TOC.
func encode(ix *Index, metaFields ...string) (raw, toc []byte, err error) {
	var buf bytes.Buffer
	toc, err = ix.EncodeWithTOC(&buf, metaFields...)
	return buf.Bytes(), toc, err
}

// openBytes opens codec bytes mapped or decodes them onto the heap.
func openBytes(raw, toc []byte, mapped bool) (*Index, error) {
	if mapped {
		return OpenMapped(raw, toc, StandardAnalyzer{})
	}
	return Decode(bytes.NewReader(raw), StandardAnalyzer{})
}

// reopen is ix encoded, then opened mapped or decoded onto the heap.
func reopen(ix *Index, mapped bool) (*Index, error) {
	raw, toc, err := encode(ix)
	if err != nil {
		return nil, err
	}
	return openBytes(raw, toc, mapped)
}

// merge merges c's sources, stretches of the corpus, and checks the remaps:
// dropped documents map to -1, the others in order to consecutive docIDs.
// It returns the merged index and each merged document's reference docID.
func (c kernelCase) merge() (*Index, []int, error) {
	var sources []*Index
	var masks [][]bool
	lo := 0
	for _, s := range c.sources {
		hi := max(lo, int(s.end*float64(len(c.docs))))
		src := indexOf(c.docs[lo:hi])
		if s.mapped {
			var err error
			if src, err = reopen(src, true); err != nil {
				return nil, nil, err
			}
		}
		var mask []bool
		for d := lo; d < hi && c.dead != nil; d++ {
			if s.tombs == "delete" && c.dead[d] {
				src.Delete(d - lo)
			}
		}
		if c.dead != nil && s.tombs == "mask" {
			mask = slices.Clone(c.dead[lo:hi])
		}
		sources, masks, lo = append(sources, src), append(masks, mask), hi
	}
	merged, remaps := MergeIndexes(sources, masks)
	toRef, d := []int{}, 0 // d walks the corpus, which the sources cover in order
	for si, remap := range remaps {
		for _, id := range remap {
			dropped := c.isDead(d) && c.sources[si].tombs != "late"
			if dropped && id != -1 || !dropped && id != len(toRef) {
				return nil, nil, fmt.Errorf("source %d maps document %d to %d (dropped: %v, %d kept before it)", si, d, id, dropped, len(toRef))
			}
			if !dropped {
				toRef = append(toRef, d)
			}
			if !dropped && c.isDead(d) && (!merged.Delete(id) || merged.Delete(id)) {
				return nil, nil, fmt.Errorf("merged Delete(%d) verdicts wrong", id)
			}
			d++
		}
	}
	if merged.NumDocs() != len(toRef) {
		return nil, nil, fmt.Errorf("merged index holds %d documents, remaps keep %d", merged.NumDocs(), len(toRef))
	}
	return merged, toRef, nil
}

// check runs one query, bound to cs: on the representation, Search and
// ExhaustiveSearch return the reference's exhaustive hits, and Search from
// the bar those scoring at least the bar (all at limit 0, where a bar is
// ignored); every hit's Doc is the built index's document.
func (c kernelCase) check(ref, rep *Index, toRef []int, cs *CorpusStats, kq kernelQuery) error {
	q, limit := AnalyzeQuery(kq.q, ref.analyzer, cs), kq.limit
	all := ref.ExhaustiveSearch(q, 0)
	want := all
	if limit > 0 {
		want = all[:min(limit, len(all))]
	}
	height := 0.0 // a bar of 0 is one never raised
	if len(all) > 0 && kq.bar == "exact" {
		height = all[kq.pick%min(len(all), 2*max(limit, 1))].Score
	} else if len(all) > 0 && kq.bar == "fraction" {
		height = all[0].Score * (0.5 + 0.7*float64(kq.pick%1024)/1024)
	}
	bar := new(Bar)
	bar.raise(height)
	kept := slices.DeleteFunc(slices.Clone(want), func(h Hit) bool { return limit > 0 && h.Score < height })
	for i, got := range [][]Hit{rep.Search(q, limit), rep.ExhaustiveSearch(q, limit), rep.Search(q, limit, bar)} {
		for j, h := range got {
			if toRef != nil {
				got[j].DocID = toRef[h.DocID]
			}
			if !sameDoc(rep.Doc(h.DocID), ref.Doc(got[j].DocID)) {
				return fmt.Errorf("%s Doc(%d) is %+v, the built index's Doc(%d) %+v", c.rep, h.DocID, rep.Doc(h.DocID), got[j].DocID, ref.Doc(got[j].DocID))
			}
		}
		if err := sameHits(got, [][]Hit{want, want, kept}[i]); err != nil {
			return fmt.Errorf("%s %s: %w", c.rep, []string{"Search", "ExhaustiveSearch", fmt.Sprintf("Search from a bar of %v", height)}[i], err)
		}
	}
	if tq, ok := kq.q.(TermQuery); ok {
		return c.checkTermHits(tq, all)
	}
	return nil
}

// checkTermHits compares a TermQuery's exhaustive hits with the live
// documents whose analysed field holds the term at a positive boost (only
// positive scores are hits; a posting has its first value's boost).
func (c kernelCase) checkTermHits(tq TermQuery, hits []Hit) error {
	a := StandardAnalyzer{}
	term := a.Analyze(tq.Term)
	var got, want []int
	for _, h := range hits {
		got = append(got, h.DocID)
	}
	for d, doc := range c.docs {
		if i := slices.IndexFunc(doc.Fields, func(f Field) bool {
			return f.Name == tq.Field && len(term) == 1 && slices.Contains(a.Analyze(f.Text), term[0])
		}); i >= 0 && !c.isDead(d) && orOne(doc.Fields[i].Boost)*orOne(tq.Boost) > 0 {
			want = append(want, d)
		}
	}
	if slices.Sort(got); len(term) == 1 && !slices.Equal(got, want) {
		return fmt.Errorf("ExhaustiveSearch(%s) hits documents %v, the corpus holds the term in %v", showQuery(tq), got, want)
	}
	return nil
}

// sameHits reports the first rank at which two rankings differ in
// document or score bits.
func sameHits(got, want []Hit) error {
	show := func(hits []Hit, i int) string {
		if i >= len(hits) {
			return "none"
		}
		return fmt.Sprintf("doc %d scoring %v (%#x)", hits[i].DocID, hits[i].Score, math.Float64bits(hits[i].Score))
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i].DocID != want[i].DocID ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d is %s, want %s (%d hits, want %d)", i+1, show(got, i), show(want, i), len(got), len(want))
		}
	}
	return nil
}

func (c kernelCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s (merge sources %v)", c.rep, simNames[c.bm25], c.sources)
	for i, kq := range c.queries {
		fmt.Fprintf(&b, "\n  query %d: %s limit %d bar %s/%d", i, showQuery(kq.q), kq.limit, kq.bar, kq.pick)
	}
	for d, doc := range c.docs[:min(len(c.docs), 30)] { // the rest when shrinking left more
		fmt.Fprintf(&b, "\n  doc %d%s", d, map[bool]string{true: " (dead)"}[c.isDead(d)])
		for _, f := range doc.Fields {
			fmt.Fprintf(&b, " %s:%q^%g", f.Name, f.Text, f.Boost)
		}
	}
	return b.String()
}

// showQuery renders q in the parser's syntax with boosts, (...)~nocoord for
// no coordination, and text@[field^boost ...] (@traffic) per field token.
func showQuery(q Query) string {
	switch q := q.(type) {
	case TermQuery:
		return fmt.Sprintf("%s:%q^%g", q.Field, q.Term, q.Boost)
	case PhraseQuery:
		return fmt.Sprintf("%s:%q^%g", q.Field, strings.Join(q.Terms, " "), q.Boost)
	case FuzzyQuery:
		return fmt.Sprintf("%s:%q~^%g", q.Field, q.Term, q.Boost)
	case BooleanQuery:
		var parts []string
		for i, list := range [][]Query{q.Must, q.Should, q.MustNot} {
			for _, sub := range list {
				parts = append(parts, []string{"+", "", "-"}[i]+showQuery(sub))
			}
		}
		return "(" + strings.Join(parts, " ") + ")" + map[bool]string{true: "~nocoord"}[q.DisableCoord]
	case *multiFieldQuery:
		s := map[bool]string{true: `"` + q.text + `"`, false: q.text}[q.phrase] + map[bool]string{true: "~"}[q.fuzzy]
		if slices.Equal(q.fields, trafficFields) {
			return s + "@traffic"
		}
		var fs []string
		for _, f := range q.fields {
			fs = append(fs, fmt.Sprintf("%s^%g", f.Field, f.Boost))
		}
		return s + "@[" + strings.Join(fs, " ") + "]"
	}
	return fmt.Sprintf("%#v", q)
}

// fixedKernel runs queries over ix's documents on every representation,
// under each similarity (a subtest each), at limits 0–3, 10 and 1000, with
// no bar, the limit-th hit's exact score and a fraction of the best.
func fixedKernel(t *testing.T, ix *Index, queries ...Query) {
	t.Helper()
	c := kernelCase{sources: []mergeSource{{0.4, false, "delete"}, {0.7, true, "mask"}, {1, false, "late"}}}
	for d := 0; d < ix.NumDocs(); d++ {
		c.docs, c.dead = append(c.docs, ix.Doc(d)), append(c.dead, ix.IsDeleted(d))
	}
	for _, q := range queries {
		for _, limit := range []int{0, 1, 2, 3, 10, 1000} {
			for _, bar := range []string{"none", "exact", "fraction"} {
				c.queries = append(c.queries, kernelQuery{q: q, limit: limit, bar: bar, pick: max(limit-1, 0)})
			}
		}
	}
	for _, c.bm25 = range []bool{false, true} {
		t.Run(simNames[c.bm25], func(t *testing.T) {
			for _, c.rep = range kernelReps {
				runCase(t, c)
			}
		})
	}
}

// deadEvery tombstones every step-th of n documents from the first.
func deadEvery(n, first, step int) []bool {
	dead := make([]bool, n)
	for d := first; d < n; d += step {
		dead[d] = true
	}
	return dead
}

// The tests below keep the names of those that each pinned one axis of the
// invariant before the oracle composed them, and run that axis fixed.

func TestDAATEquivalenceTermQuery(t *testing.T) {
	fixedKernel(t, buildTestIndex(),
		TermQuery{Field: "narration", Term: "goal"}, TermQuery{Field: "narration", Term: "goal", Boost: 2.5},
		TermQuery{Field: "event", Term: "Goal"}, TermQuery{Field: "narration", Term: "unicorn"},
		TermQuery{Field: "nosuchfield", Term: "goal"}, TermQuery{Field: "narration", Term: "close range"},
		TermQuery{Field: "narration", Term: "the"})
}

func TestDAATEquivalencePhraseQuery(t *testing.T) {
	fixedKernel(t, buildTestIndex(),
		PhraseQuery{Field: "narration", Terms: []string{"close", "range"}},
		PhraseQuery{Field: "narration", Terms: []string{"scores", "a", "wonderful"}},
		PhraseQuery{Field: "narration", Terms: []string{"wonderful", "range"}},
		PhraseQuery{Field: "narration", Terms: []string{"goal"}, Boost: 3}, PhraseQuery{Field: "narration"})
}

func TestDAATEquivalenceBooleanQuery(t *testing.T) {
	goal, scores, miss := TermQuery{Field: "narration", Term: "goal"}, TermQuery{Field: "narration", Term: "scores"}, TermQuery{Field: "event", Term: "Miss"}
	fixedKernel(t, buildTestIndex(),
		BooleanQuery{Should: []Query{goal, scores}}, BooleanQuery{Should: []Query{goal, scores}, DisableCoord: true},
		BooleanQuery{Must: []Query{goal}, Should: []Query{scores}}, BooleanQuery{Must: []Query{goal, scores}},
		BooleanQuery{Should: []Query{goal}, MustNot: []Query{miss}}, BooleanQuery{Must: []Query{goal}, MustNot: []Query{goal}},
		BooleanQuery{MustNot: []Query{goal}}, BooleanQuery{},
		BooleanQuery{Should: []Query{ // nested, the MultiFieldQuery shape
			BooleanQuery{Should: []Query{goal, miss}, DisableCoord: true},
			BooleanQuery{Should: []Query{scores}, DisableCoord: true}}})
}

func TestDAATEquivalenceMultiFieldAndMatchAll(t *testing.T) {
	fixedKernel(t, buildTestIndex(), MultiFieldQuery("goal scores", defaultQPFields),
		MultiFieldQuery("ronaldo offside challenge", defaultQPFields), MultiFieldQuery("", defaultQPFields), MatchAllQuery{})
}

func TestDAATEquivalenceFuzzyQuery(t *testing.T) {
	fixedKernel(t, buildTestIndex(), FuzzyQuery{Field: "narration", Term: "goal"}, FuzzyQuery{Field: "narration", Term: "goap"},
		FuzzyQuery{Field: "narration", Term: "mesi", Boost: 2}, FuzzyQuery{Field: "narration", Term: "qqqqqq"})
}

// Negative boosts must not overprune: the kernel disables the affected
// clause's cap instead of trusting a flipped bound. A fuzzy clause whose
// every expansion scores at most 0 matches nothing, Must clause or not.
func TestDAATEquivalenceNegativeBoost(t *testing.T) {
	fixedKernel(t, buildTestIndex(),
		BooleanQuery{Should: []Query{TermQuery{Field: "narration", Term: "goal", Boost: 2}, TermQuery{Field: "narration", Term: "scores", Boost: -1}}},
		PhraseQuery{Field: "narration", Terms: []string{"close", "range"}, Boost: -2},
		BooleanQuery{Must: []Query{FuzzyQuery{Field: "narration", Term: "goap", Boost: -1}}, Should: []Query{TermQuery{Field: "narration", Term: "scores"}}})
}

func TestDAATEquivalenceParsedQueries(t *testing.T) {
	var queries []Query
	for _, src := range []string{`goal`, `"close range"`, `+goal -ronaldo`, `event:goal narration:scores`, `mesi~ goal`, `+narration:"a wonderful goal" offside`} {
		queries = append(queries, mustParse(src, defaultQPFields))
	}
	fixedKernel(t, buildTestIndex(), queries...)
}

// Caps are rebuilt, not serialized: a decoded index must prune like the
// one that was encoded.
func TestDAATEquivalenceAfterCodecRoundTrip(t *testing.T) {
	fixedKernel(t, buildTestIndex(), MultiFieldQuery("goal scores offside", defaultQPFields), PhraseQuery{Field: "narration", Terms: []string{"close", "range"}})
}

// Small corpora, one posting block per list, random trees.
func TestDAATEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20260805))
	runCase(t, kernelCase{docs: kernelCorpus(r, 60), rep: "heap", queries: drawQueries(r, 40, (*queryGen).root)})
}

// The coordinated multi-field disjunction over several blocks, from a bar.
func TestDAATEquivalencePrunedTree(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	runCase(t, kernelCase{docs: kernelCorpus(r, 600), rep: "heap", bm25: true, queries: drawQueries(r, 40, (*queryGen).multiField)})
}

// Every single-term query over a corpus with tombstones: the reference's
// hits are the live documents holding the term.
func TestTermQueryCompletenessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	docs := kernelCorpus(r, 300)
	term := func(g *queryGen) Query { return TermQuery{Field: kernelFields[g.r.Intn(4)].name, Term: g.words(1)[0]} }
	runCase(t, kernelCase{docs: docs, dead: deadEvery(len(docs), 2, 5), rep: "heap", queries: drawQueries(r, 40, term)})
}

// Block-Max over multi-block lists, with the block metadata as built,
// decoded onto the heap and read from the mapped TOC and block headers.
func TestBlockMaxEquivalenceMultiBlock(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	docs, queries := kernelCorpus(r, 600), drawQueries(r, 24, (*queryGen).root)
	for i, rep := range kernelReps[:3] {
		runCase(t, kernelCase{docs: docs, rep: rep, bm25: i == 1, queries: queries})
	}
	t.Run("traffic shape", func(t *testing.T) {
		r := rand.New(rand.NewSource(20260926))
		docs := kernelCorpus(r, 600)
		queries := append(drawQueries(r, 12, (*queryGen).parsed), drawQueries(r, 12, (*queryGen).multiField)...)
		// Beside the stretches, a corpus that drifts: fields get shorter and
		// boosts higher with the docID, so late blocks carry the highest
		// bounds and a window or a whole-tail bound read off an early block
		// is wrong about them. Three of the searched fields exist, which
		// keeps the summed bounds tight enough to prune hard.
		drift := make([]*Document, 3000)
		for d := range drift {
			drift[d] = new(Document)
			for _, f := range []string{"event", "fromRules", "narration"} {
				words := make([]string, 1+r.Intn(1+12*(3000-d)/3000))
				for i := range words {
					words[i] = kernelVocab[r.Intn(len(kernelVocab))]
				}
				drift[d].Fields = append(drift[d].Fields, Field{Name: f, Text: strings.Join(words, " "), Boost: 1 + float64(d/300)})
			}
		}
		for i, rep := range append(kernelReps, kernelReps...) {
			if i == len(kernelReps) {
				docs, queries = drift, drawQueries(r, 32, (*queryGen).parsed)
			}
			runCase(t, kernelCase{docs: docs, dead: deadEvery(len(docs), 3, 7), rep: rep, bm25: i%2 == 1,
				sources: []mergeSource{{0.5, true, "late"}, {1, false, "mask"}}, queries: queries})
		}
	})
}

// Documents tombstoned after a mapped open vanish from results and
// statistics exactly as on the heap.
func TestMappedEquivalenceWithTombstones(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	docs := kernelCorpus(r, 600)
	runCase(t, kernelCase{docs: docs, dead: deadEvery(len(docs), 0, 3), rep: "mapped", queries: drawQueries(r, 20, (*queryGen).root)})
}

// Merging a mapped source drops and renumbers exactly what merging its
// heap twin does.
func TestMappedMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	docs, queries := kernelCorpus(r, 400), drawQueries(r, 15, (*queryGen).root)
	for _, mapped := range []bool{true, false} {
		runCase(t, kernelCase{docs: docs, dead: deadEvery(len(docs), 0, 7), rep: "merged",
			sources: []mergeSource{{1, mapped, "delete"}}, queries: queries})
	}
}

package shard_test

import (
	"context"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/loadgen"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// scanSuggest is Suggest by brute force: CorrectQuery over cs, each field's
// whole live vocabulary tested with WithinEditDistance1.
func scanSuggest(a index.Analyzer, cs *index.CorpusStats, q string) string {
	return semindex.CorrectQuery(a, semindex.QueryBoosts, q, cs.DocFreq, shard.ScanNeighbours(cs))
}

// TestSuggestEquivalence holds the monolith's and the engine's did-you-mean
// to the brute-force scan. A table of misspellings runs on the fixture's
// monolith and its 1- and 4-shard engines, and a tie between a base and a
// segment must go to the smaller term; loadgen's suggest, fuzzy and
// keyword pools run on a generated corpus's 4-shard engine after upserts
// (segments and tombstones), after ForceMerge and mapped after Save/Load,
// each against the monolith of the live pages.
func TestSuggestEquivalence(t *testing.T) {
	pages, mono := shard.Fixture(t)
	cs := mono.Index.LocalStats()
	one := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: 1})
	four := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: 4})
	for _, q := range []string{
		"mesi goal",
		"barcelon goal",
		"yelow card",
		"mesi barcelona gol",
		"messi goal",  // clean: no correction anywhere
		"zzzqqq goal", // hopeless token: no near neighbour
		"the of",      // pure stopwords
		"",            // empty query
	} {
		want := scanSuggest(mono.Index.Analyzer(), cs, q)
		for name, got := range map[string]string{"monolith": mono.Suggest(q), "1-shard": one.Suggest(q), "4-shard": four.Suggest(q)} {
			if got != want {
				t.Errorf("%s Suggest(%q) = %q, scan %q", name, q, got, want)
			}
		}
	}

	// A tie the engine's union must break in term order: the base holds
	// "kvarp" and a segment "kvarn", one document each.
	a, b := *pages[0], *pages[1]
	a.Narrations = []crawler.NarrationLine{{Minute: 3, Text: "Kvarp shoots wide."}}
	b.Narrations = []crawler.NarrationLine{{Minute: 3, Text: "Kvarn shoots wide."}}
	tie := shard.Build(nil, semindex.FullInf, []*crawler.MatchPage{&a}, shard.Options{Shards: 1})
	if _, err := tie.Ingest(context.Background(), []*crawler.MatchPage{&b}, shard.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	scan := scanSuggest(mono.Index.Analyzer(), tie.Stats().Global, "kvar goal")
	if got := tie.Suggest("kvar goal"); got != scan || scan != "kvarn goal" {
		t.Errorf("base and segment tie: Suggest = %q, scan %q, want %q", got, scan, "kvarn goal")
	}

	g := corpus.New(corpus.Spec{TargetDocs: 1500, Seed: 31})
	built := drainPages(t, g)
	queries := loadgen.GenerateQueries(loadgen.VocabFromUniverse(g.Universe()),
		map[loadgen.Class]int{loadgen.ClassSuggest: 1, loadgen.ClassFuzzy: 1, loadgen.ClassKeyword: 1}, 300, 20100301)
	e := shard.Build(nil, semindex.FullInf, built, shard.Options{Shards: 4})

	// Upserts in two batches: every other page of the first six emptied
	// (tombstones only), the rest halved, and pages of a second stream.
	live := map[string]*crawler.MatchPage{}
	for _, p := range built {
		live[p.ID] = p
	}
	var upserts []*crawler.MatchPage
	for i, p := range built[:6] {
		v := *p
		v.Narrations = nil
		if i%2 == 1 {
			v.Narrations = p.Narrations[:len(p.Narrations)/2]
		}
		upserts = append(upserts, &v)
	}
	upserts = append(upserts, drainPages(t, corpus.New(corpus.Spec{TargetDocs: 300, Seed: 32, NoCoverage: true}))...)
	for _, batch := range [][]*crawler.MatchPage{upserts[:4], upserts[4:]} {
		if _, err := e.Ingest(context.Background(), batch, shard.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, p := range batch {
			live[p.ID] = p
		}
	}
	var livePages []*crawler.MatchPage
	for _, p := range live {
		livePages = append(livePages, p)
	}
	ref := semindex.NewBuilder().Build(semindex.FullInf, livePages)
	liveStats := ref.Index.LocalStats()
	want := make([]string, len(queries))
	corrected := 0
	for i, q := range queries {
		want[i] = scanSuggest(ref.Index.Analyzer(), liveStats, q.Text)
		if want[i] != "" {
			corrected++
		}
		if got := ref.Suggest(q.Text); got != want[i] {
			t.Errorf("monolith Suggest(%q) = %q, scan %q", q.Text, got, want[i])
		}
	}
	if corrected < len(queries)/10 {
		t.Fatalf("the scan corrects %d of %d queries: the pools test little", corrected, len(queries))
	}
	check := func(state string, e *shard.Engine) {
		t.Helper()
		for i, q := range queries {
			if got := e.Suggest(q.Text); got != want[i] {
				t.Errorf("%s: Suggest(%q) = %q, scan %q", state, q.Text, got, want[i])
			}
		}
	}
	check("after upserts", e)
	e.ForceMerge()
	check("after ForceMerge", e)
	base := filepath.Join(t.TempDir(), "idx")
	if err := e.Save(base); err != nil {
		t.Fatal(err)
	}
	mapped, err := shard.LoadWith(base, nil, shard.LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	check("mapped after Save/Load", mapped)
}

// drainPages returns every page the generator yields.
func drainPages(t *testing.T, g *corpus.Generator) []*crawler.MatchPage {
	t.Helper()
	var pages []*crawler.MatchPage
	for {
		p, err := g.NextPage()
		if err == io.EOF {
			return pages
		}
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
}

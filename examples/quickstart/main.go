// Quickstart: the full pipeline of Fig. 1 end to end — simulate a corpus,
// serve it over HTTP, crawl it, extract and populate the ontology, run the
// reasoner and rules offline, build the semantic index, and answer keyword
// queries.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

func main() {
	// 1. A small simulated corpus stands in for uefa.com.
	corpus := soccer.Generate(soccer.Config{Matches: 4, Seed: 42, NarrationsPerMatch: 80, PaperCoverage: true})
	fmt.Println("corpus:", corpus.Stats())

	// 2. Serve it as a real site and crawl it over HTTP.
	site := httptest.NewServer(crawler.NewServer(corpus))
	defer site.Close()
	sys := core.New()
	rep, err := sys.CrawlFrom(context.Background(), site.URL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawled %d match pages from %s\n", len(sys.Pages()), site.URL)
	if rep.Degraded() {
		fmt.Println("degraded crawl:", rep)
		for _, f := range rep.Failures {
			fmt.Println("  lost", f)
		}
	}

	// 3. Offline processing happens lazily: consistency check forces
	//    extraction, population and inference for every match.
	if v := sys.CheckConsistency(); len(v) > 0 {
		log.Fatalf("inconsistent knowledge base: %v", v)
	}
	fmt.Println("knowledge base consistent;", sys.Summary())

	// 4. Keyword queries over the inferred semantic index.
	for _, q := range []string{
		"messi barcelona goal",    // extraction: scorer + team fields
		"punishment",              // inference: class hierarchy (yellow/red ⊑ punishment)
		"goal scored to casillas", // rules: concedingTeam + hasGoalkeeper
	} {
		hits := sys.Search(q, 3)
		fmt.Printf("\nquery %q -> %d hits, top results:\n", q, len(hits))
		for i, h := range hits {
			narr := h.Doc().Get(semindex.FieldNarration)
			if narr == "" {
				narr = "(basic info) " + h.Meta(semindex.MetaSubject)
			}
			fmt.Printf("  %d. [%s] %s\n", i+1, h.Meta(semindex.MetaKind), narr)
		}
	}

	// 5. The same query against the traditional index shows why semantic
	//    indexing matters: goal narrations never contain the word "goal".
	tradHits := sys.SearchLevel(semindex.Trad, "goal", 0)
	infHits := sys.SearchLevel(semindex.FullInf, "goal", 0)
	fmt.Printf("\n'goal' retrieves %d docs on TRAD vs %d on FULL_INF\n", len(tradHits), len(infHits))
}

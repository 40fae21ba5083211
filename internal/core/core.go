// Package core is the public façade of the retrieval system: it wires the
// full pipeline of Fig. 1 — crawl, information extraction, ontology
// population, inferencing and semantic indexing — behind a small API.
//
//	sys := core.New()
//	if _, err := sys.CrawlFrom(ctx, "http://site"); err != nil { ... }
//	sys.BuildIndex(semindex.FullInf)
//	hits := sys.Search("messi barcelona goal", 10)
//
// A System owns one ontology, one classified reasoner and one rule set,
// shared across all per-match models, exactly as the paper's offline
// pipeline does.
package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/crawler"
	"repro/internal/ie"
	"repro/internal/inference"
	"repro/internal/owl"
	"repro/internal/populate"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/rules"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

// System is the assembled retrieval pipeline.
type System struct {
	Ontology *owl.Ontology
	Reasoner *reasoner.Reasoner
	Rules    []*rules.Rule

	pages   []*crawler.MatchPage
	indices map[semindex.Level]*semindex.SemanticIndex
	// populated caches per-match populated models by page ID.
	populated map[string]*populate.PopulatedMatch
	// inferred caches per-match inference results by page ID.
	inferred map[string]inference.Result
}

// New assembles a system over the soccer ontology and rule set.
func New() *System {
	ont := soccer.BuildOntology()
	return &System{
		Ontology:  ont,
		Reasoner:  reasoner.New(ont),
		Rules:     soccer.Rules(),
		indices:   map[semindex.Level]*semindex.SemanticIndex{},
		populated: map[string]*populate.PopulatedMatch{},
		inferred:  map[string]inference.Result{},
	}
}

// CrawlFrom fetches every match page from a served site (Section 3.1
// step 1) and loads it into the system. It crawls with the hardened
// production crawler (retries with backoff, circuit breaker, degraded
// crawls): transient upstream faults cost retries, not the index build.
// Pages lost for good are listed in the returned report rather than
// failing the whole acquisition, beside the retry/backoff accounting the
// resilience layer spent.
func (s *System) CrawlFrom(ctx context.Context, baseURL string) (*crawler.CrawlReport, error) {
	rep, err := crawler.New().Crawl(ctx, baseURL)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.LoadPages(rep.Pages)
	return rep, nil
}

// LoadPages loads already-fetched pages (e.g. from crawler.PagesFromCorpus).
func (s *System) LoadPages(pages []*crawler.MatchPage) {
	s.pages = append(s.pages, pages...)
}

// Pages returns the loaded crawl pages.
func (s *System) Pages() []*crawler.MatchPage { return s.pages }

// Populate runs extraction and ontology population for one page, cached.
func (s *System) Populate(page *crawler.MatchPage) *populate.PopulatedMatch {
	if pm, ok := s.populated[page.ID]; ok {
		return pm
	}
	events := ie.Extractor{}.ExtractMatch(page)
	pm := (&populate.Populator{Ontology: s.Ontology}).Populate(page, events)
	s.populated[page.ID] = pm
	return pm
}

// Infer runs the offline reasoning stage for one page, cached.
func (s *System) Infer(page *crawler.MatchPage) inference.Result {
	if res, ok := s.inferred[page.ID]; ok {
		return res
	}
	pm := s.Populate(page)
	res := inference.Run(s.Reasoner, s.Rules, pm.Model)
	s.inferred[page.ID] = res
	return res
}

// CheckConsistency verifies every loaded match's inferred model and returns
// all violations (empty means the knowledge base is consistent).
func (s *System) CheckConsistency() []reasoner.Violation {
	var out []reasoner.Violation
	for _, page := range s.pages {
		out = append(out, s.Reasoner.CheckConsistency(s.Infer(page).Model)...)
	}
	return out
}

// BuildIndex constructs (and caches) the index at the given level over all
// loaded pages.
func (s *System) BuildIndex(level semindex.Level) *semindex.SemanticIndex {
	if ix, ok := s.indices[level]; ok {
		return ix
	}
	b := &semindex.Builder{Ontology: s.Ontology, Reasoner: s.Reasoner, Rules: s.Rules}
	ix := b.Build(level, s.pages)
	s.indices[level] = ix
	return ix
}

// Search queries the FULL_INF index (building it on first use), the
// system's production configuration.
func (s *System) Search(query string, limit int) []semindex.Hit {
	return s.BuildIndex(semindex.FullInf).Search(query, limit)
}

// SearchLevel queries a specific index level.
func (s *System) SearchLevel(level semindex.Level, query string, limit int) []semindex.Hit {
	return s.BuildIndex(level).Search(query, limit)
}

// WriteModel serializes one match's model as Turtle: the pre-inference
// model when inferred is false (the paper's "final OWL files" of step 5)
// or the saturated model (step 7's inferred OWLs).
func (s *System) WriteModel(w io.Writer, page *crawler.MatchPage, inferred bool) error {
	var g *rdf.Graph
	if inferred {
		g = s.Infer(page).Model.Graph
	} else {
		g = s.Populate(page).Model.Graph
	}
	return rdf.WriteTurtle(w, g)
}

// Summary describes the loaded state, for CLIs and logs.
func (s *System) Summary() string {
	events := 0
	for _, pm := range s.populated {
		events += len(pm.Events)
	}
	return fmt.Sprintf("%d pages loaded, %d populated matches (%d event records), %d indices built",
		len(s.pages), len(s.populated), events, len(s.indices))
}

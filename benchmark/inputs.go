package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/loadgen"
)

// sizes are the frozen work constants. Both sides of any comparison run the
// same numbers, so a change that claims a gain never edits them. The full
// column was sized on the 2-core sandbox so that set-up (three times) plus
// a 12 s measured phase stays inside the driver's time cap with margin.
type sizes struct {
	CorpusDocs   int `json:"corpus_docs"`   // query_cold, mapped_serve, ingest_mix base corpus
	PoolQueries  int `json:"pool_queries"`  // distinct queries the draws come from
	ProbeQueries int `json:"probe_queries"` // correctness-gate probes per run
	SetupRepeats int `json:"setup_repeats"` // set-ups per run; setup_s is their median
	MinWindows   int `json:"min_windows"`

	QueryOps      int `json:"query_ops_per_window"`
	QueryWindowMs int `json:"query_window_nominal_ms"`

	MappedFirst    int `json:"mapped_first_pass_queries"`
	MappedSteady   int `json:"mapped_steady_pass_queries"`
	MappedWindowMs int `json:"mapped_window_nominal_ms"`

	IngestPerWindow   int `json:"ingests_per_window"`
	SearchesPerIngest int `json:"searches_per_ingest"`
	HotPages          int `json:"hot_pages"`
	UpsertsPerFresh   int `json:"upserts_per_fresh_page"`
	IngestWindowMs    int `json:"ingest_window_nominal_ms"`

	BuildChunkPages int `json:"build_chunk_pages"`
	BuildChunkMs    int `json:"build_chunk_nominal_ms"`
}

var scales = map[string]sizes{
	"full": {
		CorpusDocs: 10_000, PoolQueries: 500, ProbeQueries: 50, SetupRepeats: 3, MinWindows: 8,
		QueryOps: 2000, QueryWindowMs: 300,
		MappedFirst: 80, MappedSteady: 480, MappedWindowMs: 300,
		IngestPerWindow: 6, SearchesPerIngest: 60, HotPages: 16, UpsertsPerFresh: 3, IngestWindowMs: 250,
		BuildChunkPages: 2, BuildChunkMs: 56,
	},
	// tiny exists for the smoke test: the same code paths in well under a second each.
	"tiny": {
		CorpusDocs: 500, PoolQueries: 60, ProbeQueries: 10, SetupRepeats: 1, MinWindows: 3,
		QueryOps: 40, QueryWindowMs: 1000,
		MappedFirst: 10, MappedSteady: 20, MappedWindowMs: 1000,
		IngestPerWindow: 4, SearchesPerIngest: 10, HotPages: 4, UpsertsPerFresh: 3, IngestWindowMs: 1000,
		BuildChunkPages: 1, BuildChunkMs: 330,
	},
}

const (
	// corpusSeed and freshSeed fix the page population and the query pool.
	// --seed permutes page arrival order and drives every draw, but does
	// not redraw the league, the hot pages or the first-touch subset: two
	// leagues differ by tens of percent in p95 (the head team's posting
	// lists decide it), two hot sets by a tenth in ingest p50, and the
	// driver, which gives every run another seed, would report either as
	// run-to-run spread of the machine.
	corpusSeed = 20100301
	freshSeed  = 20100302

	shards      = 2
	parallelism = 2
	searchLimit = 10
	cacheBytes  = 64 << 20
	docsPerPage = 119 // FULL_INF documents a generated page indexes to, for sizing only
)

// queryMix is keyword 5 : phrase 2 : field 2 : fuzzy 1; suggest probes go
// through another entry point and are left out.
var queryMix = map[loadgen.Class]int{
	loadgen.ClassKeyword: 5, loadgen.ClassPhrase: 2, loadgen.ClassField: 2, loadgen.ClassFuzzy: 1,
}

// windowsFor turns the run length into a fixed window count, so the work
// done is a pure function of (--seed, --seconds, --scale).
func (s sizes) windowsFor(seconds, nominalWindowMs int) int {
	n := seconds * 1000 / nominalWindowMs
	if n < s.MinWindows {
		n = s.MinWindows
	}
	return n
}

// genPages streams pages out of the generator until the spec's document
// target or maxPages (when positive) is reached, reporting how long each
// NextPage call took.
func genPages(spec corpus.Spec, maxPages int, took func(time.Duration)) ([]*crawler.MatchPage, *corpus.Generator, error) {
	g := corpus.New(spec)
	var pages []*crawler.MatchPage
	for maxPages <= 0 || len(pages) < maxPages {
		start := time.Now()
		p, err := g.NextPage()
		took(time.Since(start))
		if errors.Is(err, io.EOF) {
			return pages, g, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: next page: %w", err)
		}
		pages = append(pages, p)
	}
	return pages, g, nil
}

// basePages is the frozen page population in seed-permuted arrival order.
func basePages(docs int, seed int64, took func(time.Duration)) ([]*crawler.MatchPage, *corpus.Generator, error) {
	pages, g, err := genPages(corpus.Spec{TargetDocs: docs, Seed: corpusSeed}, 0, took)
	if err != nil {
		return nil, nil, err
	}
	shufflePages(pages, seed)
	return pages, g, nil
}

// evenly returns k indexes spread evenly over [0, n).
func evenly(n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

func shufflePages(pages []*crawler.MatchPage, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
}

// queryPool templates the frozen pool from the corpus's own vocabulary.
func queryPool(g *corpus.Generator, n int) []loadgen.Query {
	return loadgen.GenerateQueries(loadgen.VocabFromUniverse(g.Universe()), queryMix, n, corpusSeed)
}

// sliceSource feeds pre-generated pages to shard.BuildStream and tells the
// benchmark where chunk boundaries fall: BuildStream pulls chunk pages,
// commits them, then pulls again, so every chunk-th call (the io.EOF call
// included, len(pages) being a multiple of chunk) happens between two
// commits. Delivered pages are dropped so the live heap afterwards is the
// engine's alone.
type sliceSource struct {
	pages    []*crawler.MatchPage
	next     int
	chunk    int
	boundary func(delivered int) // called with the number of pages handed out so far
}

func (s *sliceSource) NextPage() (*crawler.MatchPage, error) {
	if s.boundary != nil && s.next%s.chunk == 0 {
		s.boundary(s.next)
	}
	if s.next == len(s.pages) {
		return nil, io.EOF
	}
	p := s.pages[s.next]
	s.pages[s.next] = nil
	s.next++
	return p, nil
}

package repro

// The benchmark harness regenerating the paper's evaluation (one bench per
// table plus the scalability and ablation studies DESIGN.md calls out).
// Retrieval-quality benches report mean average precision as the custom
// metric "MAP%" alongside the usual time/op, so the paper's tables and the
// performance numbers come from one run:
//
//	go test -bench=. -benchmem
//
// Benchmarks share prebuilt corpora and indices through the caches below;
// building the 10-match FULL_INF index takes ~1s and would otherwise
// dominate every measurement.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/expansion"
	"repro/internal/ie"
	"repro/internal/index"
	"repro/internal/inference"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/populate"
	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/semindex"
	"repro/internal/shard"
	"repro/internal/soccer"
	"repro/internal/sparql"
)

// extractFor and populatorFor are the bench-local shorthand for the
// extraction and population stages.
func extractFor(page *crawler.MatchPage) []ie.Event {
	return ie.Extractor{}.ExtractMatch(page)
}

func populatorFor(b *semindex.Builder) *populate.Populator {
	return &populate.Populator{Ontology: b.Ontology}
}

// corpusCache memoizes generated corpora and built indices by size.
var corpusCache sync.Map // int -> *benchEnv

type benchEnv struct {
	once    sync.Once
	corpus  *soccer.Corpus
	pages   []*crawler.MatchPage
	judge   *eval.Judge
	indices map[semindex.Level]*semindex.SemanticIndex

	// shardedMu guards sharded, the lazily-built FULL_INF engines by
	// shard count (engine builds are too expensive to repeat per bench).
	shardedMu sync.Mutex
	sharded   map[int]*shard.Engine
}

// shardedEngine returns the cached FULL_INF engine with n shards.
func (e *benchEnv) shardedEngine(n int) *shard.Engine {
	e.shardedMu.Lock()
	defer e.shardedMu.Unlock()
	if e.sharded == nil {
		e.sharded = map[int]*shard.Engine{}
	}
	if eng, ok := e.sharded[n]; ok {
		return eng
	}
	eng := shard.Build(semindex.NewBuilder(), semindex.FullInf, e.pages, shard.Options{Shards: n})
	e.sharded[n] = eng
	return eng
}

func env(matches int) *benchEnv {
	v, _ := corpusCache.LoadOrStore(matches, &benchEnv{})
	e := v.(*benchEnv)
	e.once.Do(func() {
		cfg := soccer.DefaultConfig()
		cfg.Matches = matches
		e.corpus = soccer.Generate(cfg)
		e.pages = crawler.PagesFromCorpus(e.corpus)
		e.judge = eval.NewJudge(e.corpus)
		e.indices = map[semindex.Level]*semindex.SemanticIndex{}
		b := semindex.NewBuilder()
		for _, l := range semindex.Levels {
			e.indices[l] = b.Build(l, e.pages)
		}
	})
	return e
}

// reportMAP attaches retrieval quality to a bench result.
func reportMAP(b *testing.B, j *eval.Judge, si *semindex.SemanticIndex, queries []eval.Query) {
	sum := 0.0
	for _, q := range queries {
		sum += j.Evaluate(q, si).AP
	}
	b.ReportMetric(100*sum/float64(len(queries)), "MAP%")
}

// BenchmarkTable4 measures query latency and reports MAP per index level
// over the ten paper queries — the machine-readable form of Table 4.
func BenchmarkTable4(b *testing.B) {
	e := env(10)
	queries := eval.PaperQueries()
	for _, level := range []semindex.Level{semindex.Trad, semindex.BasicExt, semindex.FullExt, semindex.FullInf} {
		b.Run(string(level), func(b *testing.B) {
			si := e.indices[level]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				si.Search(queries[i%len(queries)].Keywords, 10)
			}
			b.StopTimer()
			reportMAP(b, e.judge, si, queries)
		})
	}
}

// BenchmarkTable5QueryExpansion measures the expansion baseline: expansion
// plus search over the traditional index, reporting its MAP.
func BenchmarkTable5QueryExpansion(b *testing.B) {
	e := env(10)
	exp := expansion.New()
	queries := eval.PaperQueries()
	trad := e.indices[semindex.Trad]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		trad.Search(exp.Expand(q.Keywords), 10)
	}
	b.StopTimer()
	sum := 0.0
	for _, q := range queries {
		sum += e.judge.AveragePrecision(q, trad.Search(exp.Expand(q.Keywords), 0)).AP
	}
	b.ReportMetric(100*sum/float64(len(queries)), "MAP%")
}

// BenchmarkTable6Phrasal measures the phrasal index on the Section 6
// queries and reports their MAP (1.0 = the paper's 100% column).
func BenchmarkTable6Phrasal(b *testing.B) {
	e := env(10)
	queries := eval.PhrasalQueries()
	for _, level := range []semindex.Level{semindex.FullInf, semindex.PhrExp} {
		b.Run(string(level), func(b *testing.B) {
			si := e.indices[level]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				si.Search(queries[i%len(queries)].Keywords, 10)
			}
			b.StopTimer()
			reportMAP(b, e.judge, si, queries)
		})
	}
}

// BenchmarkIndexBuild measures full index construction per level over the
// paper-scale corpus (10 matches, ~1180 narrations).
func BenchmarkIndexBuild(b *testing.B) {
	e := env(10)
	for _, level := range semindex.Levels {
		b.Run(string(level), func(b *testing.B) {
			builder := semindex.NewBuilder()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				builder.Build(level, e.pages)
			}
		})
	}
}

// benchmarkPages is the first 30 pages of the repository benchmark's corpus
// (the pages semindex's and index's golden files are recorded on).
func benchmarkPages(b *testing.B) []*crawler.MatchPage {
	pages, _ := benchmarkCorpus(b, 30)
	return pages
}

// benchmarkCorpus is the first n pages of the repository benchmark's
// corpus with the generator that made them, whose universe the repository
// benchmark templates its queries from.
func benchmarkCorpus(b *testing.B, n int) ([]*crawler.MatchPage, *corpus.Generator) {
	gen := corpus.New(corpus.Spec{TargetDocs: 1 << 30, Seed: 20100301})
	pages := make([]*crawler.MatchPage, n)
	for i := range pages {
		p, err := gen.NextPage()
		if err != nil {
			b.Fatal(err)
		}
		pages[i] = p
	}
	return pages, gen
}

// BenchmarkQueryCold measures the read path the repository benchmark's
// query_cold workload drives: Engine.Search with the cache bypassed on a
// two-shard FULL_INF heap engine, at limit 10, one sub-benchmark per query
// class of that workload (64 queries each, templated the same way). ns/op
// and allocs/op are per search: scatter, two kernels, global merge.
func BenchmarkQueryCold(b *testing.B) {
	pages, gen := benchmarkCorpus(b, 30)
	eng := shard.Build(semindex.NewBuilder(), semindex.FullInf, pages, shard.Options{Shards: 2})
	defer eng.Close()
	benchmarkQueryClasses(b, eng, gen, false)
}

// BenchmarkLoneRoot measures the two leaf scorers that stand as a search's
// root on their own: a fielded term and a fielded phrase, each a lone
// Should the boolean scorer hands the collector's threshold. The engine is
// one FULL_INF heap shard over the first 90 pages of the repository
// benchmark's corpus (10,730 documents), searched at limit 10 with the
// cache bypassed; every query fills the limit. ns/op and allocs/op are per
// search. No query of the repository benchmark's pool builds a lone root,
// so this is the only timing of one.
func BenchmarkLoneRoot(b *testing.B) {
	pages, _ := benchmarkCorpus(b, 90)
	eng := shard.Build(semindex.NewBuilder(), semindex.FullInf, pages, shard.Options{Shards: 1})
	defer eng.Close()
	opts := shard.SearchOptions{Limit: 10, NoCache: true}
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		queries []string
	}{
		{"term", []string{"narration:goal", "narration:kick", "narration:pass", "narration:shot"}},
		{"phrase", []string{`narration:"free kick"`, `narration:"short pass"`, `narration:"through ball"`, `narration:"close range"`}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := c.queries[i%len(c.queries)]
				if res, err := eng.Search(ctx, q, opts); err != nil || len(res.Hits) < opts.Limit {
					b.Fatalf("search %q: %v, %d hits", q, err, len(res.Hits))
				}
			}
		})
	}
}

// BenchmarkQueryPhrasal is BenchmarkQueryCold at the phrasal-expression
// level (Section 6, semindex.PhrExp): 64 queries shaped "<player> <event>
// by <player>" and "<team> <event> to <player>". Their plain part has two
// or more tokens, so phrasalQuery puts a coordinated multi-field
// disjunction under its uncoordinated root beside the fused phrase term,
// the one nested shape a root threshold does not reach inside. ns/op and
// allocs/op are per search.
func BenchmarkQueryPhrasal(b *testing.B) {
	pages, gen := benchmarkCorpus(b, 30)
	eng := shard.Build(semindex.NewBuilder(), semindex.PhrExp, pages, shard.Options{Shards: 2})
	defer eng.Close()
	vocab := loadgen.VocabFromUniverse(gen.Universe())
	r := rand.New(rand.NewSource(20100301))
	// head draws a name from the popular head, as the load generator does.
	head := func(names []string) string {
		f := r.Float64()
		return strings.ToLower(names[int(f*f*float64(len(names)))])
	}
	queries := make([]string, 64)
	for i := range queries {
		event := vocab.Events[r.Intn(len(vocab.Events))]
		if i%2 == 0 {
			queries[i] = head(vocab.Players) + " " + event + " by " + head(vocab.Players)
		} else {
			queries[i] = head(vocab.Teams) + " " + event + " to " + head(vocab.Players)
		}
	}
	opts := shard.SearchOptions{Limit: 10, NoCache: true}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := eng.Search(ctx, queries[i%len(queries)], opts); err != nil || res.Report.Degraded {
			b.Fatalf("search %q: %v %+v", queries[i%len(queries)], err, res.Report)
		}
	}
}

// BenchmarkQueryMapped is BenchmarkQueryCold on the read path the
// mapped_serve workload drives: the same engine saved, then reopened with
// LoadWith(Mapped), so postings decode from the file's bytes block by
// block. One pass over a class's queries runs before the clock starts —
// the stored chunks of the hits inflate there, as in the workload's
// first-touch pass.
func BenchmarkQueryMapped(b *testing.B) {
	pages, gen := benchmarkCorpus(b, 30)
	heap := shard.Build(semindex.NewBuilder(), semindex.FullInf, pages, shard.Options{Shards: 2})
	base := filepath.Join(b.TempDir(), "idx.bin")
	err := heap.Save(base)
	heap.Close()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := shard.LoadWith(base, nil, shard.LoadOptions{Mapped: true})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	benchmarkQueryClasses(b, eng, gen, true)
}

// benchmarkQueryClasses runs one sub-benchmark per query class of the
// repository benchmark's query workloads against eng, after one untimed
// pass over the class's queries when warm is set.
func benchmarkQueryClasses(b *testing.B, eng *shard.Engine, gen *corpus.Generator, warm bool) {
	vocab := loadgen.VocabFromUniverse(gen.Universe())
	opts := shard.SearchOptions{Limit: 10, NoCache: true}
	ctx := context.Background()
	for _, class := range []loadgen.Class{loadgen.ClassKeyword, loadgen.ClassPhrase, loadgen.ClassField, loadgen.ClassFuzzy} {
		queries := loadgen.GenerateQueries(vocab, map[loadgen.Class]int{class: 1}, 64, 20100301)
		b.Run(string(class), func(b *testing.B) {
			search := func(i int) {
				res, err := eng.Search(ctx, queries[i%len(queries)].Text, opts)
				if err != nil || res.Report.Degraded {
					b.Fatalf("search %q: %v %+v", queries[i%len(queries)].Text, err, res.Report)
				}
			}
			if warm {
				for i := range queries {
					search(i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				search(i)
			}
		})
	}
}

// BenchmarkIndexAdd measures the loop every write ends in: Add of those
// pages' FULL_INF documents (3,579 of them, 14 indexed fields each) into a
// fresh index. One iteration is one whole build; us/doc is the figure the
// repository benchmark reports as index.add_us_per_doc.
func BenchmarkIndexAdd(b *testing.B) {
	builder := semindex.NewBuilder()
	var docs []*index.Document
	for _, page := range benchmarkPages(b) {
		docs = append(docs, builder.PageDocuments(semindex.FullInf, page)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := index.New(nil)
		for _, d := range docs {
			ix.Add(d)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(docs)), "us/doc")
	b.ReportMetric(float64(len(docs)), "docs/op")
}

// BenchmarkIndexMerge measures one compaction as the shard engine's
// ForceMerge runs it: a base holding 24 of those pages with two of them
// tombstoned, plus six one-page segments. Besides the time, B/op says
// whether the merged index is still allocated once at its final size. The
// heap arm's base is the index Add built, sealed as every engine base is
// (Index.Seal); the mapped arm's is that index encoded and opened mapped,
// as a loaded engine's base is, afresh and untimed before every merge: an
// engine merges a mapped base once, and one reused would come to the
// merge with whatever it cached the time before.
func BenchmarkIndexMerge(b *testing.B) {
	builder := semindex.NewBuilder()
	pages := benchmarkPages(b)
	sources := []*index.Index{index.New(nil)}
	var dead []int
	for i, page := range pages {
		ix := sources[0]
		if i >= 24 {
			ix = index.New(nil)
			sources = append(sources, ix)
		}
		for _, d := range builder.PageDocuments(semindex.FullInf, page) {
			if id := ix.Add(d); i == 3 || i == 17 {
				dead = append(dead, id)
			}
		}
	}
	sources[0].Seal()
	var payload bytes.Buffer
	toc, err := sources[0].EncodeWithTOC(&payload)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		open func() (*index.Index, error)
	}{
		{"heap", func() (*index.Index, error) { return sources[0], nil }},
		{"mapped", func() (*index.Index, error) { return index.OpenMapped(payload.Bytes(), toc, nil) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			docs := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				base, err := arm.open()
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range dead {
					base.Delete(id)
				}
				srcs := append([]*index.Index{base}, sources[1:]...)
				b.StartTimer()
				merged, _ := index.MergeIndexes(srcs, nil)
				docs = merged.NumDocs()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*docs), "us/doc")
		})
	}
}

// BenchmarkForceMerge measures the compaction the repository benchmark's
// ingest_mix workload closes each window with: Engine.ForceMerge on a
// two-shard FULL_INF engine over those pages after six one-page upserts,
// which run outside the timer. The shards compact concurrently, so -cpu 1
// against -cpu 2 shows what the second core buys.
func BenchmarkForceMerge(b *testing.B) {
	pages := benchmarkPages(b)
	eng := shard.Build(semindex.NewBuilder(), semindex.FullInf, pages, shard.Options{Shards: 2})
	defer eng.Close()
	ctx := context.Background()
	opts := shard.IngestOptions{Merge: shard.MergeNone}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 6; k++ {
			page := pages[(6*i+k)%len(pages)]
			if _, err := eng.Ingest(ctx, []*crawler.MatchPage{page}, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		eng.ForceMerge()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}

// BenchmarkEngineSave measures the checkpoint every restart and mapped
// open depends on: Engine.Save of a two-shard FULL_INF heap engine over
// those pages into a temporary directory, a new generation each time: each
// shard encoded (EncodeWithTOC), written, fsynced and renamed, then the
// manifest committed and the last generation's files removed. Nothing is
// left to compact, so one iteration is the encode and the writes alone.
func BenchmarkEngineSave(b *testing.B) {
	eng := shard.Build(semindex.NewBuilder(), semindex.FullInf, benchmarkPages(b), shard.Options{Shards: 2})
	defer eng.Close()
	base := filepath.Join(b.TempDir(), "idx.bin")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Save(base); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}

// BenchmarkStoredDoc measures Doc, the stored-document read each served
// hit makes, on those pages' FULL_INF documents, per iteration one
// document in docID order: heap/first decodes a document out of a heap
// index's stored chunk on its first touch, heap/cached returns the decode
// a first touch left, and mapped/first inflates the document's chunk of a
// mapped region to decode it. The first-touch arms reopen the index,
// untimed, each time they have touched every document.
func BenchmarkStoredDoc(b *testing.B) {
	builder := semindex.NewBuilder()
	built := index.New(nil)
	for _, page := range benchmarkPages(b) {
		for _, d := range builder.PageDocuments(semindex.FullInf, page) {
			built.Add(d)
		}
	}
	var payload bytes.Buffer
	toc, err := built.EncodeWithTOC(&payload)
	if err != nil {
		b.Fatal(err)
	}
	raw := payload.Bytes()
	n := built.NumDocs()
	for _, arm := range []struct {
		name string
		open func() (*index.Index, error)
		warm bool
	}{
		{"heap/first", func() (*index.Index, error) { return index.Decode(bytes.NewReader(raw), nil) }, false},
		{"heap/cached", func() (*index.Index, error) { return index.Decode(bytes.NewReader(raw), nil) }, true},
		{"mapped/first", func() (*index.Index, error) { return index.OpenMapped(raw, toc, nil) }, false},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var ix *index.Index
			reopen := func() {
				var err error
				if ix, err = arm.open(); err != nil {
					b.Fatal(err)
				}
				if arm.warm {
					for id := 0; id < n; id++ {
						ix.Doc(id)
					}
				}
			}
			reopen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%n == 0 && !arm.warm {
					b.StopTimer()
					reopen()
					b.StartTimer()
				}
				if ix.Doc(i%n) == nil {
					b.Fatalf("Doc(%d) = nil", i%n)
				}
			}
		})
	}
}

// BenchmarkPageDocuments measures the layer every write goes through —
// extraction, population, inference and flattening of one match page —
// per level, on the first pages of the repository benchmark's corpus.
func BenchmarkPageDocuments(b *testing.B) {
	pages := benchmarkPages(b)
	for _, level := range semindex.Levels {
		b.Run(string(level), func(b *testing.B) {
			builder := semindex.NewBuilder()
			docs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				docs += len(builder.PageDocuments(level, pages[i%len(pages)]))
			}
			b.ReportMetric(float64(docs)/float64(b.N), "docs/page")
		})
	}
}

// BenchmarkExtractMatch measures the first stage of PageDocuments alone:
// NER tagging and the two-level template analysis of one page of those
// benchmark pages per iteration.
func BenchmarkExtractMatch(b *testing.B) {
	pages := benchmarkPages(b)
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += len(extractFor(pages[i%len(pages)]))
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/page")
}

// BenchmarkPopulate measures the second stage of PageDocuments alone:
// population of one of those benchmark pages per iteration, from events
// extracted once, untimed, into a fresh per-match model.
func BenchmarkPopulate(b *testing.B) {
	pages := benchmarkPages(b)
	events := make([][]ie.Event, len(pages))
	for i, page := range pages {
		events[i] = extractFor(page)
	}
	pop := populatorFor(semindex.NewBuilder())
	triples := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		triples += pop.Populate(pages[i%len(pages)], events[i%len(pages)]).Model.Graph.Len()
	}
	b.ReportMetric(float64(triples)/float64(b.N), "triples/page")
}

// BenchmarkRulesRun measures the rule engine alone: per iteration, one
// Engine over one of those benchmark pages' models — extracted, populated
// and closed under the reasoner, as inference.Saturate hands it to the
// rules the first time — run to the rules' fixpoint. The program is
// compiled once, as a Builder does; the models are cloned untimed.
func BenchmarkRulesRun(b *testing.B) {
	builder := semindex.NewBuilder()
	prog := rules.Compile(builder.Rules)
	var models []*owl.Model
	for _, page := range benchmarkPages(b) {
		pm := populatorFor(builder).Populate(page, extractFor(page))
		models = append(models, builder.Reasoner.Materialize(pm.Model))
	}
	batch := make([]*owl.Model, len(models))
	added := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(models) == 0 {
			b.StopTimer()
			for j, m := range models {
				batch[j] = m.Clone()
			}
			b.StartTimer()
		}
		added += prog.Engine(batch[i%len(models)].Graph).Run()
	}
	b.ReportMetric(float64(added)/float64(b.N), "triples/page")
}

// BenchmarkInferencePerMatch pins the scalability claim of Section 3.5:
// per-match models keep single-game inference time independent of corpus
// size. The measured work (one match) is identical across sub-benches;
// only the surrounding corpus grows.
func BenchmarkInferencePerMatch(b *testing.B) {
	for _, matches := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("corpus=%d", matches), func(b *testing.B) {
			e := env(matches)
			sys := semindex.NewBuilder()
			page := e.pages[0]
			pm := populatorFor(sys).Populate(page, extractFor(page))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inference.Run(sys.Reasoner, sys.Rules, pm.Model)
			}
		})
	}
}

// BenchmarkQueryLatencyScale shows keyword-query latency growing only
// gently with corpus size (posting-list length), versus the SPARQL
// comparator below.
func BenchmarkQueryLatencyScale(b *testing.B) {
	for _, matches := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("matches=%d", matches), func(b *testing.B) {
			si := env(matches).indices[semindex.FullInf]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				si.Search("messi barcelona goal", 10)
			}
		})
	}
}

// BenchmarkSPARQLvsIndex contrasts the paper's two querying regimes on the
// same information need (Q-4, all punishments): formal BGP evaluation over
// the merged inferred graph versus a keyword lookup on the semantic index.
func BenchmarkSPARQLvsIndex(b *testing.B) {
	for _, matches := range []int{10, 50} {
		e := env(matches)
		merged := rdf.NewGraph()
		builder := semindex.NewBuilder()
		for _, page := range e.pages {
			pm := populatorFor(builder).Populate(page, extractFor(page))
			res := inference.Run(builder.Reasoner, builder.Rules, pm.Model)
			merged.AddAll(res.Model.Graph)
		}
		q := sparql.MustParse(`SELECT DISTINCT ?e WHERE { ?e a pre:Punishment . }`)
		b.Run(fmt.Sprintf("sparql/matches=%d", matches), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.Exec(merged)
			}
		})
		b.Run(fmt.Sprintf("index/matches=%d", matches), func(b *testing.B) {
			si := e.indices[semindex.FullInf]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				si.Search("punishment", 0)
			}
		})
	}
}

// BenchmarkAblationNoBoost disables the custom field weighting of Section
// 3.6.2 (all searched fields at weight 1) and reports the MAP damage —
// the "Ronaldo misses a goal" false positive returns.
func BenchmarkAblationNoBoost(b *testing.B) {
	e := env(10)
	queries := eval.PaperQueries()
	si := e.indices[semindex.FullInf]
	flat := make([]index.FieldBoost, 0, len(semindex.QueryBoosts))
	for _, fb := range semindex.QueryBoosts {
		flat = append(flat, index.FieldBoost{Field: fb.Field, Boost: 1})
	}
	b.Run("boosted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			si.Search(queries[i%len(queries)].Keywords, 10)
		}
		b.StopTimer()
		reportMAP(b, e.judge, si, queries)
	})
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			si.SearchWithBoosts(queries[i%len(queries)].Keywords, 10, flat)
		}
		b.StopTimer()
		sum := 0.0
		for _, q := range queries {
			sum += e.judge.AveragePrecision(q, si.SearchWithBoosts(q.Keywords, 0, flat)).AP
		}
		b.ReportMetric(100*sum/float64(len(queries)), "MAP%")
	})
}

// BenchmarkAblationNoStem rebuilds FULL_INF without Porter stemming and
// reports the MAP damage (query "goals" no longer matches type "Goal").
func BenchmarkAblationNoStem(b *testing.B) {
	e := env(10)
	queries := eval.PaperQueries()
	builder := semindex.NewBuilder()
	builder.Analyzer = index.StandardAnalyzer{NoStemming: true}
	si := builder.Build(semindex.FullInf, e.pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si.Search(queries[i%len(queries)].Keywords, 10)
	}
	b.StopTimer()
	reportMAP(b, e.judge, si, queries)
}

// BenchmarkAblationNoNarration drops the full-text field: the recall floor
// breaks on Q-8 and MAP drops accordingly.
func BenchmarkAblationNoNarration(b *testing.B) {
	e := env(10)
	queries := eval.PaperQueries()
	builder := semindex.NewBuilder()
	builder.DisableNarrationField = true
	si := builder.Build(semindex.FullInf, e.pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si.Search(queries[i%len(queries)].Keywords, 10)
	}
	b.StopTimer()
	reportMAP(b, e.judge, si, queries)
}

// BenchmarkAblationGlobalModel runs the rules over one merged corpus-wide
// graph instead of per-match models, quantifying why the paper keeps
// matches separate: the join space grows superlinearly.
func BenchmarkAblationGlobalModel(b *testing.B) {
	e := env(10)
	builder := semindex.NewBuilder()

	b.Run("per-match", func(b *testing.B) {
		models := make([]*owl.Model, 0, len(e.pages))
		for _, page := range e.pages {
			models = append(models, populatorFor(builder).Populate(page, extractFor(page)).Model)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range models {
				inference.Run(builder.Reasoner, builder.Rules, m)
			}
		}
	})
	b.Run("global", func(b *testing.B) {
		merged := owl.NewModel(builder.Ontology)
		for _, page := range e.pages {
			merged.Graph.AddAll(populatorFor(builder).Populate(page, extractFor(page)).Model.Graph)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inference.Run(builder.Reasoner, builder.Rules, merged)
		}
	})
}

// BenchmarkIndexCodec measures index persistence: serializing and loading
// the paper-scale FULL_INF index.
func BenchmarkIndexCodec(b *testing.B) {
	e := env(10)
	si := e.indices[semindex.FullInf]
	var buf bytes.Buffer
	if _, err := si.Index.EncodeWithTOC(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if _, err := si.Index.EncodeWithTOC(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := index.Decode(bytes.NewReader(data), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryFeatures measures the retrieval extensions: fuzzy terms,
// synonym expansion and phrase parsing, against the plain keyword path.
func BenchmarkQueryFeatures(b *testing.B) {
	si := env(10).indices[semindex.FullInf]
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			si.Search("messi barcelona goal", 10)
		}
	})
	b.Run("fuzzy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			si.Search("mesi~ barcelona goal", 10)
		}
	})
	b.Run("synonyms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			si.SearchWithSynonyms("keeper save", 10, semindex.SoccerSynonyms)
		}
	})
	b.Run("phrase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			si.Search(`"yellow card"`, 10)
		}
	})
}

// BenchmarkFuzzyQuery measures fuzzy expansion against the size of the
// term dictionary: per op, one FuzzyQuery search at limit 10 on a
// one-field index holding that many distinct random words (5–9 letters,
// eight to a document), for a target one edit away from one of them. The
// first search, which lays the dictionary out for expansion, runs before
// the clock starts.
func BenchmarkFuzzyQuery(b *testing.B) {
	for _, size := range []struct {
		name  string
		vocab int
	}{{"vocab=2k", 2_000}, {"vocab=20k", 20_000}, {"vocab=200k", 200_000}} {
		b.Run(size.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(20100301))
			word := func() string {
				w := make([]byte, 5+rng.Intn(5))
				for i := range w {
					w[i] = byte('a' + rng.Intn(26))
				}
				return string(w)
			}
			seen := make(map[string]bool, size.vocab)
			words := make([]string, 0, size.vocab)
			for len(words) < size.vocab {
				if w := word(); !seen[w] && len(index.StandardAnalyzer{}.Analyze(w)) > 0 {
					seen[w] = true
					words = append(words, w)
				}
			}
			ix := index.New(index.StandardAnalyzer{NoStemming: true})
			for i := 0; i < len(words); i += 8 {
				d := &index.Document{}
				d.Add("f", strings.Join(words[i:min(i+8, len(words))], " "))
				ix.Add(d)
			}
			if n := ix.Stats().Terms; n != size.vocab {
				b.Fatalf("index holds %d terms, want %d", n, size.vocab)
			}
			targets := make([]string, 64)
			for i := range targets {
				w := []byte(words[rng.Intn(len(words))])
				w[rng.Intn(len(w))] = byte('a' + rng.Intn(26))
				targets[i] = string(w)
			}
			ix.Search(index.FuzzyQuery{Field: "f", Term: targets[0]}, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Search(index.FuzzyQuery{Field: "f", Term: targets[i%len(targets)]}, 10)
			}
		})
	}
}

// BenchmarkHighlighter measures snippet generation over narration text.
func BenchmarkHighlighter(b *testing.B) {
	hl := index.Highlighter{}
	text := "Eto'o (Barcelona) scores! The crowd erupts as Barcelona take a deserved lead after sustained pressure on the edge of the box."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hl.Snippet(text, "barcelona goal scores")
	}
}

// BenchmarkAblationBM25 swaps the classic TF-IDF similarity for BM25 and
// reports the MAP difference on the paper queries.
func BenchmarkAblationBM25(b *testing.B) {
	e := env(10)
	queries := eval.PaperQueries()
	builder := semindex.NewBuilder()
	si := builder.Build(semindex.FullInf, e.pages)
	si.Index.SetSimilarity(index.BM25{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si.Search(queries[i%len(queries)].Keywords, 10)
	}
	b.StopTimer()
	reportMAP(b, e.judge, si, queries)
}

// BenchmarkShardedBuild contrasts the monolithic FULL_INF build with the
// sharded engine's streamed build at growing shard counts. On a
// multi-core runner the sharded build pulls ahead from ~4 shards: page
// preparation parallelizes identically in both, but the monolith commits
// every document on one goroutine while shards commit (analyze and post)
// concurrently, each chunk's commits overlapping the next chunk's
// preparation.
//
// The stream arm is the repository benchmark's bulk_build shape without
// its harness: 200 generated pages, 2 shards, serial preparation,
// two-page chunks. Its docs/s is the in-process rate a real stream sees,
// with no pauses at chunk boundaries for the pipeline to fill.
func BenchmarkShardedBuild(b *testing.B) {
	e := env(10)
	b.Run("monolith", func(b *testing.B) {
		builder := semindex.NewBuilder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			builder.Build(semindex.FullInf, e.pages)
		}
	})
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			builder := semindex.NewBuilder()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shard.Build(builder, semindex.FullInf, e.pages, shard.Options{Shards: n})
			}
		})
	}
	b.Run("stream", func(b *testing.B) {
		pages, _ := benchmarkCorpus(b, 200)
		builder := semindex.NewBuilder()
		docs := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := shard.Build(builder, semindex.FullInf, pages, shard.Options{Shards: 2, Parallelism: 1, ChunkPages: 2})
			docs += eng.NumDocs()
		}
		b.ReportMetric(float64(docs)/b.Elapsed().Seconds(), "docs/s")
	})
}

// BenchmarkShardedSearch sweeps query latency across corpus sizes for the
// monolith and the scatter-gather engine. Rankings are identical by
// construction (see internal/shard); this measures the fan-out/merge tax
// at small corpora and its amortization as posting lists grow.
func BenchmarkShardedSearch(b *testing.B) {
	for _, matches := range []int{10, 50} {
		e := env(matches)
		mono := e.indices[semindex.FullInf]
		b.Run(fmt.Sprintf("monolith/matches=%d", matches), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mono.Search("messi barcelona goal", 10)
			}
		})
		for _, n := range []int{4} {
			eng := e.shardedEngine(n)
			b.Run(fmt.Sprintf("shards=%d/matches=%d", n, matches), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					eng.Search(context.Background(), "messi barcelona goal", shard.SearchOptions{Limit: 10})
				}
			})
		}
	}
}

// BenchmarkObsOverhead prices the observability layer on the hottest
// path: the same sharded engine with its metrics pointed at a live
// registry versus stripped (SetMetrics(nil) makes every handle a no-op
// nil). The acceptance bar is <5% p50 overhead — a handful of atomic
// adds against a scatter-gather search. TestSearchAllocationCeiling pins
// that the instrumented arm allocates no more per search, and the
// benchmark module's trace.overhead_share prices the traced path.
func BenchmarkObsOverhead(b *testing.B) {
	e := env(10)
	eng := e.shardedEngine(4)
	b.Run("instrumented", func(b *testing.B) {
		eng.SetMetrics(obs.NewRegistry())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Search(context.Background(), "messi barcelona goal", shard.SearchOptions{Limit: 10})
		}
	})
	b.Run("uninstrumented", func(b *testing.B) {
		eng.SetMetrics(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Search(context.Background(), "messi barcelona goal", shard.SearchOptions{Limit: 10})
		}
	})
	eng.SetMetrics(obs.Default)
}

// BenchmarkShardedIngest measures incremental ingest: one new match into
// an engine (owning shard + stats refresh only) versus the page's
// documents appended to a full monolithic index.
func BenchmarkShardedIngest(b *testing.B) {
	e := env(10)
	page := e.pages[len(e.pages)-1]
	b.Run("monolith", func(b *testing.B) {
		builder := semindex.NewBuilder()
		si := builder.Build(semindex.FullInf, e.pages[:len(e.pages)-1])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range builder.PageDocuments(si.Level, page) {
				si.Index.Add(d)
			}
		}
	})
	b.Run("shards=4", func(b *testing.B) {
		eng := shard.Build(semindex.NewBuilder(), semindex.FullInf, e.pages[:len(e.pages)-1], shard.Options{Shards: 4})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Ingest(context.Background(), []*crawler.MatchPage{page}, shard.IngestOptions{})
		}
	})
}

package semindex

import (
	"runtime"
	"sort"
	"strconv"
	"sync"

	"repro/internal/crawler"
	"repro/internal/ie"
	"repro/internal/index"
	"repro/internal/inference"
	"repro/internal/owl"
	"repro/internal/populate"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/rules"
	"repro/internal/soccer"
)

// Level selects how much semantic processing goes into an index, matching
// the evaluation ladder of Section 4.
type Level string

// The five index levels.
const (
	Trad     Level = "TRAD"
	BasicExt Level = "BASIC_EXT"
	FullExt  Level = "FULL_EXT"
	FullInf  Level = "FULL_INF"
	PhrExp   Level = "PHR_EXP"
)

// Levels lists all levels in evaluation order.
var Levels = []Level{Trad, BasicExt, FullExt, FullInf, PhrExp}

// SemanticIndex is a built index of one level.
type SemanticIndex struct {
	Level Level
	Index *index.Index
	// Stats, when not nil, is the corpus-wide statistics Search and
	// Related rank with: the sharded engine's, in its view of one shard.
	// Nil, as for a monolith, ranks with the index's own counts.
	Stats *index.CorpusStats
}

// Builder constructs semantic indices from crawled pages. The zero value
// is not usable; construct with NewBuilder.
type Builder struct {
	Ontology *owl.Ontology
	Reasoner *reasoner.Reasoner
	Rules    []*rules.Rule
	// Analyzer overrides the index analyzer (nil = StandardAnalyzer), used
	// by the stemming ablation.
	Analyzer index.Analyzer
	// DisableNarrationField drops the full-text field, for the recall-floor
	// ablation.
	DisableNarrationField bool
	// EventTranslations maps ontology class local names to a second-language
	// value appended next to the original in the event field — the paper's
	// Section 7 multilinguality recipe ("as easy as adding the translated
	// value next to its original value for each field").
	EventTranslations map[string]string

	// vocab is the TBox knowledge the flattening step reads, derived from
	// Ontology and Reasoner on first use.
	vocabOnce sync.Once
	vocab     map[rdf.Term]*vocabText
	// prog is Rules compiled on first use; immutable, so every page the
	// Builder prepares, on any worker, runs the same one.
	progOnce sync.Once
	prog     *rules.Program
	// scratch holds *pageScratch: what one page's preparation leaves for
	// the next to reuse.
	scratch sync.Pool
}

// pageScratch is the per-page state a Builder reuses from one page to the
// next: the model graph, Reset between pages, and the flattener with its
// caches and buffers. Nothing the documents hold points into it.
type pageScratch struct {
	graph *rdf.Graph
	flat  flattener
}

// NewBuilder wires the default soccer pipeline.
func NewBuilder() *Builder {
	ont := soccer.BuildOntology()
	return &Builder{
		Ontology: ont,
		Reasoner: reasoner.New(ont),
		Rules:    soccer.Rules(),
	}
}

// Build constructs the index at the given level from crawled match pages.
// Games are independent (the property that makes the paper's per-match
// models scale), so each page's documents are prepared (extraction,
// population, inference) on GOMAXPROCS workers. Documents are committed to
// the index in page order, so docIDs, and therefore search tie-breaks,
// stay deterministic. The index is sealed (index.Index.Seal) before it is
// returned.
func (b *Builder) Build(level Level, pages []*crawler.MatchPage) *SemanticIndex {
	docsByPage := make([][]*index.Document, len(pages))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, page := range pages {
		wg.Add(1)
		go func(i int, page *crawler.MatchPage) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			docsByPage[i] = b.PageDocuments(level, page)
		}(i, page)
	}
	wg.Wait()
	ix := index.New(b.Analyzer)
	for _, docs := range docsByPage {
		for _, d := range docs {
			ix.Add(d)
		}
	}
	ix.Seal()
	return &SemanticIndex{Level: level, Index: ix}
}

// PageDocuments prepares one match's documents without committing them to
// any index — the hook the sharded engine (internal/shard) uses to own
// commit order, document identity and shard placement itself. Safe to call
// concurrently for different pages.
func (b *Builder) PageDocuments(level Level, page *crawler.MatchPage) []*index.Document {
	if level == Trad {
		return b.tradDocs(page)
	}
	return b.semanticDocs(level, page)
}

// tradDocs prepares each narration as a bare full-text document — the
// traditional vector-space baseline. Like the flattened levels' documents,
// the page's documents share one Document array and one Field array, each
// document's window holding exactly its four fields.
func (b *Builder) tradDocs(page *crawler.MatchPage) []*index.Document {
	const per = 4
	fields := make([]index.Field, len(page.Narrations)*per)
	docs := make([]index.Document, len(page.Narrations))
	out := make([]*index.Document, len(page.Narrations))
	for i, n := range page.Narrations {
		d := &docs[i]
		d.Fields = fields[i*per : i*per : (i+1)*per]
		d.Add(FieldNarration, n.Text)
		d.Add(MetaMatchID, page.ID)
		d.Add(MetaNarration, strconv.Itoa(i))
		d.Add(MetaMinute, strconv.Itoa(n.Minute))
		out[i] = d
	}
	return out
}

func (b *Builder) semanticDocs(level Level, page *crawler.MatchPage) []*index.Document {
	events := ie.Extractor{}.ExtractMatch(page)
	if level == BasicExt {
		// The initial OWL files of pipeline step 3 know the narrations but
		// not the extracted events: degrade every extraction to Unknown,
		// keeping only the text.
		for i := range events {
			events[i] = ie.Event{
				Kind:         soccer.KindUnknown,
				Minute:       events[i].Minute,
				NarrationIdx: events[i].NarrationIdx,
				Narration:    events[i].Narration,
			}
		}
	}
	ps, _ := b.scratch.Get().(*pageScratch)
	if ps == nil {
		ps = &pageScratch{graph: rdf.NewGraph()}
	}
	defer func() {
		ps.graph.Reset()
		b.scratch.Put(ps)
	}()
	pop := &populate.Populator{Ontology: b.Ontology}
	pm := pop.PopulateOn(ps.graph, page, events)

	// Nothing reads the pre-inference model after this point, so it is
	// saturated in place.
	model := pm.Model
	var eng *rules.Engine
	inferred := level == FullInf || level == PhrExp
	if inferred {
		eng = inference.Saturate(b.Reasoner, b.program(), model)
	}

	f := &ps.flat
	f.reset(b, level, page, model.Graph, eng)
	recs := pm.Events
	if inferred {
		// Rule-minted individuals (the Fig. 6 assists) are not in
		// pm.Events; index them too.
		recs = append(recs, f.minted(pm.Events)...)
	}
	return f.documents(recs)
}

// program returns the Builder's rule set, compiled on first use.
func (b *Builder) program() *rules.Program {
	b.progOnce.Do(func() { b.prog = rules.Compile(b.Rules) })
	return b.prog
}

// minted returns the page's rule-minted events, the Event individuals
// population did not make, ordered by mintedBefore.
func (f *flattener) minted(populated []populate.EventRecord) []populate.EventRecord {
	g := f.g
	event := g.Intern(f.b.Ontology.IRI("Event"))
	inMinute := g.Intern(f.b.Ontology.IRI("inMinute"))
	known := make([]bool, g.NumTerms()+1)
	for _, rec := range populated {
		known[rec.Individual] = true
	}
	var out []populate.EventRecord
	for c := g.Scan(0, f.typ, event); c.Next(); {
		ind := c.T.S
		if known[ind] {
			continue
		}
		rec := populate.EventRecord{Individual: ind, Kind: f.ruleKind(ind), NarrationIdx: -1}
		if v := g.FirstObjectID(ind, inMinute); v != 0 {
			if min, ok := g.Term(v).Int(); ok {
				rec.Minute = min
			}
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return mintedBefore(out[i], out[j]) })
	return out
}

// mintedBefore orders a page's rule-minted events: chronologically, then in
// mint order, which is ID order because the rule engine interns each node
// as it mints it. Blank-label string order ("b1000" < "b999") would let the
// process-wide label counter, which depends on what else the process has
// built, pick the document order.
func mintedBefore(a, b populate.EventRecord) bool {
	if a.Minute != b.Minute {
		return a.Minute < b.Minute
	}
	return a.Individual < b.Individual
}

// ruleKind picks the most specific type of a rule-minted individual.
func (f *flattener) ruleKind(ind rdf.ID) soccer.EventKind {
	if direct := f.b.Reasoner.DirectTypes(f.g, ind); len(direct) > 0 {
		return soccer.EventKind(f.g.Term(direct[0]).LocalName())
	}
	return soccer.KindUnknown
}

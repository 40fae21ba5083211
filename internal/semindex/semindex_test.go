package semindex

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/rules"
	"repro/internal/soccer"
)

func testPages(t testing.TB, matches int, seed int64) []*crawler.MatchPage {
	t.Helper()
	c := soccer.Generate(soccer.Config{Matches: matches, Seed: seed, NarrationsPerMatch: 60, PaperCoverage: matches >= 2})
	return crawler.PagesFromCorpus(c)
}

func TestCamelSplit(t *testing.T) {
	cases := map[string]string{
		"NegativeEvent":    "Negative Event",
		"YellowCard":       "Yellow Card",
		"SecondYellowCard": "Second Yellow Card",
		"Goal":             "Goal",
		"actorOfMove":      "actor Of Move",
		"":                 "",
	}
	for in, want := range cases {
		if got := CamelSplit(in); got != want {
			t.Errorf("CamelSplit(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPhrasalTokens(t *testing.T) {
	if got := PhrasalTokens("by", "Daniel Alves"); got != "bydaniel byalves" {
		t.Errorf("PhrasalTokens = %q", got)
	}
	if got := PhrasalTokens("to", "Eto'o"); got != "toeto'o" {
		t.Errorf("PhrasalTokens = %q", got)
	}
	if got := PhrasalTokens("of", ""); got != "" {
		t.Errorf("PhrasalTokens empty name = %q", got)
	}
}

func TestBuildTradIndexShape(t *testing.T) {
	pages := testPages(t, 1, 5)
	si := NewBuilder().Build(Trad, pages)
	if si.Level != Trad {
		t.Errorf("level = %s", si.Level)
	}
	if si.Index.NumDocs() != len(pages[0].Narrations) {
		t.Errorf("TRAD docs = %d, want %d", si.Index.NumDocs(), len(pages[0].Narrations))
	}
	// TRAD documents carry only narration text plus metadata.
	d := si.Index.Doc(0)
	if d.Get(FieldEvent) != "" {
		t.Error("TRAD doc has an event field")
	}
	if d.Get(FieldNarration) == "" {
		t.Error("TRAD doc lost its narration")
	}
}

func TestBuildLevelsDocCountsGrow(t *testing.T) {
	pages := testPages(t, 2, 5)
	b := NewBuilder()
	basic := b.Build(BasicExt, pages).Index.NumDocs()
	full := b.Build(FullExt, pages).Index.NumDocs()
	inf := b.Build(FullInf, pages).Index.NumDocs()
	if basic <= full-1 {
		// BASIC_EXT indexes every narration as Unknown plus the basic-info
		// events; FULL_EXT dedups extracted goal/sub narrations into the
		// basic-info documents, so it has slightly fewer docs.
		t.Errorf("BASIC_EXT %d docs vs FULL_EXT %d (dedup inverted?)", basic, full)
	}
	if inf < full {
		t.Errorf("FULL_INF %d docs < FULL_EXT %d (assists missing?)", inf, full)
	}
}

func TestTable1IndexStructure(t *testing.T) {
	// A FULL_EXT foul document must expose the Table 1 fields.
	pages := testPages(t, 1, 5)
	si := NewBuilder().Build(FullExt, pages)
	found := false
	for id := 0; id < si.Index.NumDocs(); id++ {
		d := si.Index.Doc(id)
		if d.Get(MetaKind) != "Foul" {
			continue
		}
		found = true
		if !strings.Contains(d.Get(FieldEvent), "Foul") {
			t.Errorf("event field = %q", d.Get(FieldEvent))
		}
		if d.Get(FieldSubjPlayer) == "" {
			t.Error("foul doc missing subjectPlayer")
		}
		if d.Get(FieldNarration) == "" {
			t.Error("foul doc missing narration")
		}
		if d.Get(FieldMatch) != pages[0].ID {
			t.Errorf("match field = %q", d.Get(FieldMatch))
		}
		if d.Get(FieldSubjProp) != "" {
			t.Error("FULL_EXT doc has inferred fields")
		}
		break
	}
	if !found {
		t.Fatal("no foul document")
	}
}

func TestTable2InferredIndexStructure(t *testing.T) {
	// A FULL_INF foul document gains the Table 2 fields: closure in the
	// event field ("Negative Event"), player position properties and
	// rule-derived knowledge.
	pages := testPages(t, 1, 5)
	si := NewBuilder().Build(FullInf, pages)
	checked := false
	for id := 0; id < si.Index.NumDocs(); id++ {
		d := si.Index.Doc(id)
		if d.Get(MetaKind) != "Foul" || d.Get(FieldSubjPlayer) == "" {
			continue
		}
		checked = true
		ev := d.Get(FieldEvent)
		if !strings.Contains(ev, "Negative Event") || !strings.Contains(ev, "Event") {
			t.Errorf("inferred event field = %q", ev)
		}
		if !strings.Contains(d.Get(FieldSubjProp), "Player") {
			t.Errorf("subjectPlayerProp = %q", d.Get(FieldSubjProp))
		}
		if !strings.Contains(d.Get(FieldFromRules), "Negative Move") {
			t.Errorf("fromRules = %q", d.Get(FieldFromRules))
		}
		break
	}
	if !checked {
		t.Fatal("no qualifying foul document")
	}
}

func TestGoalDocsGetKeeperThroughRules(t *testing.T) {
	// Q-6's machinery: a FULL_INF goal document should name the conceding
	// goalkeeper in its objectPlayer field via scoredToGoalkeeper.
	pages := testPages(t, 2, 5)
	si := NewBuilder().Build(FullInf, pages)
	withKeeper := 0
	for id := 0; id < si.Index.NumDocs(); id++ {
		d := si.Index.Doc(id)
		if d.Get(MetaKind) != "Goal" && !strings.HasSuffix(d.Get(MetaKind), "Goal") {
			continue
		}
		if d.Get(FieldObjPlayer) != "" {
			withKeeper++
		}
	}
	if withKeeper == 0 {
		t.Error("no goal document carries the conceding goalkeeper")
	}
}

func TestSearchEventFieldBeatsNarrationFalsePositive(t *testing.T) {
	// The paper's flagship ranking example: "Ronaldo misses a goal" must
	// not outrank real goals for the query "goal".
	pages := testPages(t, 2, 5)
	si := NewBuilder().Build(FullInf, pages)
	hits := si.Search("goal", 0)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	sawMissAboveGoal := false
	seenGoal := false
	for i := len(hits) - 1; i >= 0; i-- {
		kind := hits[i].Meta(MetaKind)
		if strings.HasSuffix(kind, "Goal") && kind != "OwnGoal" {
			seenGoal = true
		}
		if kind == "Miss" && !seenGoal {
			continue
		}
		if kind == "Miss" && seenGoal {
			// A miss ranked above some goal: iterate from bottom, so seeing
			// a goal before a miss means the miss is ranked higher.
			sawMissAboveGoal = true
		}
	}
	if sawMissAboveGoal {
		t.Error("a Miss document outranks a Goal document for query 'goal'")
	}
}

func TestPhrasalSearchDiscriminatesSubjectObject(t *testing.T) {
	pages := testPages(t, 2, 42)
	b := NewBuilder()
	si := b.Build(PhrExp, pages)

	// "foul by daniel to florent" must rank Daniel-subject fouls first.
	hits := si.Search("foul by daniel to florent", 5)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	top := hits[0]
	if !strings.Contains(top.Meta(MetaSubject), "Daniel") {
		t.Errorf("top subject = %q", top.Meta(MetaSubject))
	}
	if !strings.Contains(top.Meta(MetaObject), "Florent") {
		t.Errorf("top object = %q", top.Meta(MetaObject))
	}

	// Swapped roles must retrieve the swapped foul.
	hits = si.Search("foul by florent to daniel", 5)
	if len(hits) == 0 {
		t.Fatal("no hits for swapped query")
	}
	if !strings.Contains(hits[0].Meta(MetaSubject), "Florent") {
		t.Errorf("swapped top subject = %q", hits[0].Meta(MetaSubject))
	}
}

func TestSearchLimit(t *testing.T) {
	pages := testPages(t, 1, 5)
	si := NewBuilder().Build(FullInf, pages)
	if got := len(si.Search("foul", 3)); got != 3 {
		t.Errorf("limited search returned %d", got)
	}
}

func TestHitMeta(t *testing.T) {
	var h Hit
	if h.Meta(MetaKind) != "" {
		t.Error("nil doc Meta should be empty")
	}
}

func TestBuilderAblationFlags(t *testing.T) {
	pages := testPages(t, 1, 5)
	b := NewBuilder()
	b.DisableNarrationField = true
	si := b.Build(FullInf, pages)
	for id := 0; id < si.Index.NumDocs(); id++ {
		if si.Index.Doc(id).Get(FieldNarration) != "" {
			t.Fatal("narration field present despite ablation")
		}
	}
}

func TestUnknownEventsSearchableByNarration(t *testing.T) {
	// The recall floor: color narrations are Unknown docs but still
	// findable through full text.
	pages := testPages(t, 1, 5)
	si := NewBuilder().Build(FullInf, pages)
	hits := si.Search("atmosphere electric", 0)
	found := false
	for _, h := range hits {
		if h.Meta(MetaKind) == string(soccer.KindUnknown) {
			found = true
		}
	}
	if !found {
		t.Error("color narration not retrievable")
	}
}

func TestAdvancedQuerySyntax(t *testing.T) {
	pages := testPages(t, 2, 42)
	si := NewBuilder().Build(FullInf, pages)

	// Quoted phrase: "yellow card" only matches where the words are
	// consecutive in a field.
	phrase := si.Search(`"yellow card"`, 0)
	if len(phrase) == 0 {
		t.Error("phrase query found nothing")
	}
	for _, h := range phrase {
		kind := h.Meta(MetaKind)
		if !strings.Contains(kind, "Yellow") {
			t.Errorf("phrase matched kind %q", kind)
		}
	}

	// Exclusion: every foul except Alex's.
	excl := si.Search("foul -alex", 0)
	for _, h := range excl {
		if strings.Contains(h.Meta(MetaSubject), "Alex") && h.Meta(MetaKind) == "Foul" {
			t.Errorf("excluded subject returned: %v", h.Meta(MetaSubject))
		}
	}

	// Fuzzy: misspelled player name still retrieves.
	fuzzy := si.Search("mesi~", 5)
	found := false
	for _, h := range fuzzy {
		if strings.Contains(h.Meta(MetaSubject), "Messi") || strings.Contains(h.Meta(MetaObject), "Messi") {
			found = true
		}
	}
	if !found {
		t.Error("fuzzy query missed Messi")
	}

	// Field prefix restricts to one field.
	fielded := si.Search("event:punishment", 0)
	for _, h := range fielded {
		if !strings.Contains(h.Doc().Get(FieldEvent), "Punishment") {
			t.Errorf("event:punishment matched %q", h.Doc().Get(FieldEvent))
		}
	}
	if len(fielded) == 0 {
		t.Error("fielded query found nothing")
	}
}

func TestLevelsOrder(t *testing.T) {
	if len(Levels) != 5 || Levels[0] != Trad || Levels[4] != PhrExp {
		t.Errorf("Levels = %v", Levels)
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	pages := testPages(t, 4, 42)
	b := NewBuilder()
	ix := index.New(nil)
	for _, p := range pages {
		for _, d := range b.PageDocuments(FullInf, p) {
			ix.Add(d)
		}
	}
	serial := &SemanticIndex{Level: FullInf, Index: ix}
	par := b.Build(FullInf, pages)
	if serial.Index.NumDocs() != par.Index.NumDocs() {
		t.Fatalf("doc counts differ: %d vs %d", serial.Index.NumDocs(), par.Index.NumDocs())
	}
	for _, q := range []string{"goal", "punishment", "henry negative moves", "foul by daniel"} {
		ha := serial.Search(q, 10)
		hb := par.Search(q, 10)
		if len(ha) != len(hb) {
			t.Fatalf("query %q: %d vs %d hits", q, len(ha), len(hb))
		}
		for i := range ha {
			if ha[i].DocID != hb[i].DocID {
				t.Errorf("query %q rank %d: doc %d vs %d", q, i, ha[i].DocID, hb[i].DocID)
			}
		}
	}
}

// TestConcurrentPageDocumentsShareRules calls PageDocuments for several
// pages at once on a fresh Builder, so the first calls race to compile the
// rule set: every call must see the one compiled program and produce what a
// serial Builder does. Under -race it also checks that evaluating the shared
// program never writes to it.
func TestConcurrentPageDocumentsShareRules(t *testing.T) {
	pages := testPages(t, 4, 42)
	serial := NewBuilder()
	want := make([][]*index.Document, len(pages))
	for i, p := range pages {
		want[i] = serial.PageDocuments(FullInf, p)
	}
	b := NewBuilder()
	got := make([][]*index.Document, 3*len(pages))
	progs := make([]*rules.Program, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = b.PageDocuments(FullInf, pages[i%len(pages)])
			progs[i] = b.program()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if progs[i] != progs[0] {
			t.Errorf("call %d ran program %p, call 0 ran %p", i, progs[i], progs[0])
		}
		if !reflect.DeepEqual(got[i], want[i%len(pages)]) {
			t.Errorf("call %d (page %d): documents differ from the serial Builder's", i, i%len(pages))
		}
	}
}

// TestSaveLoadRoundTrip: a semantic index's whole persisted form is its
// index's codec stream — the level is recorded by whoever keeps the stream
// (the shard manifest) — and the index decoded onto the heap or served
// mapped from that stream ranks every query like the one that wrote it.
func TestSaveLoadRoundTrip(t *testing.T) {
	pages := testPages(t, 2, 42)
	si := NewBuilder().Build(FullInf, pages)

	var buf bytes.Buffer
	toc, err := si.Index.EncodeWithTOC(&buf)
	if err != nil {
		t.Fatalf("EncodeWithTOC: %v", err)
	}
	heap, err := index.Decode(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	mapped, err := index.OpenMapped(buf.Bytes(), toc, nil)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	for name, ix := range map[string]*index.Index{"heap": heap, "mapped": mapped} {
		back := &SemanticIndex{Level: FullInf, Index: ix}
		if back.Index.NumDocs() != si.Index.NumDocs() {
			t.Fatalf("%s: docs %d != %d", name, back.Index.NumDocs(), si.Index.NumDocs())
		}
		for _, q := range []string{"goal", "punishment", "henry negative moves"} {
			a := si.Search(q, 10)
			b := back.Search(q, 10)
			if len(a) != len(b) {
				t.Fatalf("%s: query %q: %d vs %d hits", name, q, len(a), len(b))
			}
			for i := range a {
				if a[i].DocID != b[i].DocID || a[i].Score != b[i].Score {
					t.Errorf("%s: query %q rank %d: doc %d (%v) vs %d (%v)",
						name, q, i, a[i].DocID, a[i].Score, b[i].DocID, b[i].Score)
				}
			}
		}
	}
}

func TestEventTranslations(t *testing.T) {
	pages := testPages(t, 2, 42)
	b := NewBuilder()
	b.EventTranslations = map[string]string{"Goal": "Gol", "Foul": "Faul"}
	si := b.Build(FullInf, pages)

	turkish := si.Search("gol", 0)
	if len(turkish) == 0 {
		t.Fatal("Turkish query found nothing on the bilingual index")
	}
	for _, h := range turkish {
		kind := h.Meta(MetaKind)
		if !strings.Contains(kind, "Goal") {
			t.Errorf("'gol' matched non-goal kind %q", kind)
		}
	}
	english := si.Search("goal", 0)
	if len(english) < len(turkish) {
		t.Errorf("English query weaker than Turkish: %d vs %d", len(english), len(turkish))
	}
	// The monolingual baseline cannot answer the Turkish query.
	mono := NewBuilder().Build(FullInf, pages)
	if got := mono.Search("gol", 0); len(got) != 0 {
		t.Errorf("monolingual index answered Turkish query: %d hits", len(got))
	}
}

package wsd

import (
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

func TestDisambiguateByContext(t *testing.T) {
	cases := []struct {
		token   string
		context []string
		wantID  string
	}{
		{"save", []string{"money", "tickets"}, "save/economize"},
		{"save", []string{"great", "keeper"}, "save/goalkeeping"},
		{"save", nil, "save/goalkeeping"}, // domain default
		{"goal", []string{"quarterly", "business", "target"}, "goal/objective"},
		{"goal", []string{"messi", "scores"}, "goal/score"},
		{"booked", []string{"hotel", "room"}, "booked/reserved"},
		{"booked", []string{"late", "challenge", "yellow"}, "booked/carded"},
		{"pitch", []string{"investor", "deck"}, "pitch/sales"},
	}
	for _, c := range cases {
		sense, _, ok := Disambiguate(c.token, c.context, SoccerInventory)
		if !ok {
			t.Errorf("%q not in inventory", c.token)
			continue
		}
		if sense.ID != c.wantID {
			t.Errorf("Disambiguate(%q, %v) = %s, want %s", c.token, c.context, sense.ID, c.wantID)
		}
	}
}

func TestDisambiguateUnknownToken(t *testing.T) {
	if _, _, ok := Disambiguate("messi", []string{"goal"}, SoccerInventory); ok {
		t.Error("unambiguous token reported as ambiguous")
	}
}

func TestRefineQueryDropsOutOfDomain(t *testing.T) {
	refined, decisions := RefineQuery("save money on tickets", SoccerInventory)
	if strings.Contains(refined, "save") {
		t.Errorf("out-of-domain 'save' kept: %q", refined)
	}
	dropped := false
	for _, d := range decisions {
		if d.Token == "save" && d.Dropped && d.Sense.ID == "save/economize" {
			dropped = true
		}
	}
	if !dropped {
		t.Errorf("decisions = %+v", decisions)
	}

	refined, _ = RefineQuery("great save by the keeper", SoccerInventory)
	if !strings.Contains(refined, "save") {
		t.Errorf("in-domain 'save' dropped: %q", refined)
	}
}

func TestRefineQueryPassThrough(t *testing.T) {
	refined, decisions := RefineQuery("messi barcelona", SoccerInventory)
	if refined != "messi barcelona" {
		t.Errorf("refined = %q", refined)
	}
	if len(decisions) != 0 {
		t.Errorf("decisions on unambiguous query: %+v", decisions)
	}
}

// TestWSDImprovesOutOfDomainPrecision shows the retrieval effect the paper
// expects from the module: an out-of-domain query stops pulling in
// goalkeeper saves once its false domain term is disambiguated away.
func TestWSDImprovesOutOfDomainPrecision(t *testing.T) {
	c := soccer.Generate(soccer.Config{Matches: 2, Seed: 42, NarrationsPerMatch: 60, PaperCoverage: true})
	si := semindex.NewBuilder().Build(semindex.FullInf, crawler.PagesFromCorpus(c))

	naive := si.Search("save money on tickets", 0)
	savesNaive := 0
	for _, h := range naive {
		if strings.Contains(h.Meta(semindex.MetaKind), "Save") {
			savesNaive++
		}
	}
	refined, _ := RefineQuery("save money on tickets", SoccerInventory)
	var refinedHits int
	if refined != "" {
		refinedHits = len(si.Search(refined, 0))
	}
	if savesNaive == 0 {
		t.Skip("naive query did not hit saves; nothing to improve")
	}
	if refinedHits >= len(naive) {
		t.Errorf("refined query (%q) retrieved %d >= naive %d", refined, refinedHits, len(naive))
	}
}

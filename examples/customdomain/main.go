// Custom domain (Section 2 / Section 7): the framework "can be extended to
// other domains as well by modifying the current ontology and the
// information extraction module". This example ports it to basketball:
// a small domain ontology, one inference rule, a handful of populated
// events, and a semantic index answering a hierarchy-exploiting query —
// all with the same substrate packages the soccer system uses.
//
//	go run ./examples/customdomain
package main

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/inference"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/rules"
)

func buildBasketballOntology() *owl.Ontology {
	o := owl.New(rdf.NSSoccer) // reuse the pre: prefix for rule parsing
	o.AddClass("Event")
	o.AddClass("ScoringEvent", "Event")
	o.AddClass("TwoPointer", "ScoringEvent")
	o.AddClass("ThreePointer", "ScoringEvent")
	o.AddClass("FreeThrow", "ScoringEvent")
	o.AddClass("Turnover", "Event")
	o.AddClass("Steal", "Event")
	o.AddClass("Block", "Event")
	o.AddClass("Player")
	o.AddClass("Guard", "Player")
	o.AddClass("Forward", "Player")
	o.AddClass("Center", "Player")
	o.AddObjectProperty("subjectPlayer")
	o.AddObjectProperty("scorerPlayer", "subjectPlayer")
	o.SetDomain("scorerPlayer", "ScoringEvent")
	o.SetRange("scorerPlayer", "Player")
	o.AddDataProperty("points")
	o.AddDataProperty("hasName")
	return o
}

// pointsRule assigns point values from the event class — the same
// rule-enrichment pattern as the soccer assist rule.
const pointsRule = `
[three: (?e rdf:type pre:ThreePointer) noValue(?e pre:points 3) -> (?e pre:points 3)]
[two:   (?e rdf:type pre:TwoPointer)   noValue(?e pre:points 2) -> (?e pre:points 2)]
[ft:    (?e rdf:type pre:FreeThrow)    noValue(?e pre:points 1) -> (?e pre:points 1)]
`

func main() {
	ont := buildBasketballOntology()
	if err := ont.Validate(); err != nil {
		panic(err)
	}
	r := reasoner.New(ont)
	m := owl.NewModel(ont)

	curry := m.NamedIndividual("Curry", "Guard")
	m.SetString(curry, "hasName", "Stephen Curry")
	duncan := m.NamedIndividual("Duncan", "Center")
	m.SetString(duncan, "hasName", "Tim Duncan")

	three := m.NewIndividual("ThreePointer")
	m.Set(three, "scorerPlayer", curry)
	two := m.NewIndividual("TwoPointer")
	m.Set(two, "scorerPlayer", duncan)
	m.NewIndividual("Turnover")

	res := inference.Run(r, rules.MustParse(pointsRule), m)
	g := res.Model.Graph

	// Classification lifts both shots to ScoringEvent; the rule assigned
	// point values.
	fmt.Println("inferred model:")
	for _, e := range g.Subjects(rdf.RDFType, ont.IRI("ScoringEvent")) {
		pts := g.FirstObject(e, ont.IRI("points"))
		scorer := g.FirstObject(e, ont.IRI("scorerPlayer"))
		fmt.Printf("  %s: %s points by %s\n", e.LocalName(), pts.Value, scorer.LocalName())
	}

	// Semantic indexing: one document per event, types camel-split into
	// the boosted event field — identical mechanics to the soccer index.
	ix := index.New(index.StandardAnalyzer{})
	for _, e := range g.Subjects(rdf.RDFType, ont.IRI("Event")) {
		d := &index.Document{}
		types := ""
		for _, t := range g.Objects(e, rdf.RDFType) {
			types += splitCamel(t.LocalName()) + " "
		}
		d.AddBoosted("event", types, 4)
		if s := g.FirstObject(e, ont.IRI("scorerPlayer")); !s.IsZero() {
			d.Add("subjectPlayer", g.FirstObject(s, ont.IRI("hasName")).Value)
		}
		ix.Add(d)
	}

	// The hierarchy-exploiting query: "scoring" finds both the two- and
	// three-pointer through the inferred ScoringEvent type, not the text.
	hits := ix.Search(index.MultiFieldQuery("scoring curry", []index.FieldBoost{
		{Field: "event", Boost: 4}, {Field: "subjectPlayer", Boost: 2},
	}), 0)
	fmt.Printf("\nquery \"scoring curry\": %d hits\n", len(hits))
	for i, h := range hits {
		d := ix.Doc(h.DocID)
		fmt.Printf("  %d. [%.2f] %s / %s\n", i+1, h.Score, d.Get("event"), d.Get("subjectPlayer"))
	}
}

func splitCamel(s string) string {
	out := make([]rune, 0, len(s)+4)
	for i, r := range s {
		if i > 0 && r >= 'A' && r <= 'Z' {
			out = append(out, ' ')
		}
		out = append(out, r)
	}
	return string(out)
}

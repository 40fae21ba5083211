package owl

import (
	"bytes"
	"testing"

	"repro/internal/rdf"
)

func TestFromGraphRoundTrip(t *testing.T) {
	src := tinyOntology()
	back, err := FromGraph(src.TBoxGraph(), rdf.NSSoccer)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	ss, bs := src.Stats(), back.Stats()
	if ss.Classes != bs.Classes || ss.Properties() != bs.Properties() || ss.DisjointPairs != bs.DisjointPairs {
		t.Errorf("stats differ: %+v vs %+v", ss, bs)
	}
	// Hierarchy survives.
	goal := back.ClassByIRI(back.IRI("Goal"))
	if goal == nil || len(goal.Parents) != 1 || goal.Parents[0] != back.IRI("PositiveEvent") {
		t.Errorf("Goal hierarchy lost: %+v", goal)
	}
	sp := back.Property("scorerPlayer")
	if sp == nil || len(sp.Parents) != 1 || sp.Parents[0] != back.IRI("subjectPlayer") {
		t.Errorf("scorerPlayer hierarchy lost: %+v", sp)
	}
	if sp.Domain != back.IRI("Goal") || sp.Range != back.IRI("Player") {
		t.Errorf("scorerPlayer domain/range lost: %+v", sp)
	}
	// Data property kind and datatype range survive.
	im := back.Property("inMinute")
	if im == nil || im.Kind != DataProperty || im.Range != rdf.NewIRI(rdf.XSDInteger) {
		t.Errorf("inMinute lost: %+v", im)
	}
}

func TestFromGraphThroughTurtle(t *testing.T) {
	// Full persistence loop: ontology -> TBox graph -> Turtle -> graph ->
	// ontology.
	src := tinyOntology()
	var buf bytes.Buffer
	if err := rdf.WriteTurtle(&buf, src.TBoxGraph()); err != nil {
		t.Fatal(err)
	}
	g, err := rdf.ReadTurtle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromGraph(g, rdf.NSSoccer)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats().Classes != src.Stats().Classes {
		t.Errorf("classes: %d vs %d", back.Stats().Classes, src.Stats().Classes)
	}
}

func TestFromGraphRejectsForeignNamespace(t *testing.T) {
	g := rdf.NewGraph()
	g.AddSPO(rdf.NewIRI("http://other.example/Thing"), rdf.RDFType, rdf.OWLClass)
	if _, err := FromGraph(g, rdf.NSSoccer); err == nil {
		t.Error("foreign-namespace class accepted")
	}
}

func TestFromGraphDanglingSubProperty(t *testing.T) {
	g := rdf.NewGraph()
	g.AddSPO(rdf.NewIRI(rdf.NSSoccer+"a"), rdf.RDFSSubPropertyOf, rdf.NewIRI(rdf.NSSoccer+"b"))
	if _, err := FromGraph(g, rdf.NSSoccer); err == nil {
		t.Error("dangling subPropertyOf accepted")
	}
}

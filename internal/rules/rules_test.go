package rules

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

func iri(q string) rdf.Term {
	full, ok := rdf.ExpandQName(q)
	if !ok {
		panic("bad qname " + q)
	}
	return rdf.NewIRI(full)
}

func TestParseSimpleRule(t *testing.T) {
	rs, err := Parse(`[r1: (?e rdf:type pre:Goal) -> (?e rdf:type pre:Event)]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("parsed %d rules", len(rs))
	}
	r := rs[0]
	if r.Name != "r1" {
		t.Errorf("name = %q", r.Name)
	}
	if len(r.Body) != 1 || len(r.Head) != 1 {
		t.Fatalf("body/head sizes: %d/%d", len(r.Body), len(r.Head))
	}
	p := r.Body[0].Pattern
	if p == nil || !p.S.IsVar() || p.S.Var != "e" {
		t.Errorf("subject = %+v", p)
	}
	if p.P.Term != rdf.RDFType {
		t.Errorf("predicate = %v", p.P)
	}
}

func TestParseFig6AssistRule(t *testing.T) {
	// The paper's Fig. 6 rule, verbatim modulo whitespace.
	src := `
noValue (?pass rdf:type pre:Assist)
(?pass rdf:type pre:Pass)
(?pass pre:passingPlayer ?passer)
(?pass pre:passReceiver ?receiver)
(?pass pre:inMatch ?match)
(?pass pre:inMinute ?minute)
(?goal pre:inMatch ?match)
(?goal pre:inMinute ?minute)
(?goal pre:scorerPlayer ?receiver)
makeTemp (?tmp)
-> (?tmp rdf:type pre:Assist)
   (?tmp pre:inMatch ?match)
   (?tmp pre:inMinute ?minute)
   (?tmp pre:passingPlayer ?passer)
   (?tmp pre:passReceiver ?receiver)
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("parsed %d rules", len(rs))
	}
	r := rs[0]
	if len(r.Body) != 10 {
		t.Errorf("body items = %d, want 10", len(r.Body))
	}
	if len(r.Head) != 5 {
		t.Errorf("head items = %d, want 5", len(r.Head))
	}
	// Round-trip through String and Parse.
	rs2, err := Parse(r.String())
	if err != nil {
		t.Fatalf("re-parse of String() failed: %v\n%s", err, r.String())
	}
	if rs2[0].String() != r.String() {
		t.Error("String/Parse round trip unstable")
	}
}

func TestParseMultipleRulesCommentsLiterals(t *testing.T) {
	src := `
# leading comment
[a: (?x pre:hasName "Lionel Messi") -> (?x rdf:type pre:Player)]
// another comment
[b: (?x pre:inMinute 45) -> (?x rdf:type pre:Event)]
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("parsed %d rules", len(rs))
	}
	if got := rs[0].Body[0].Pattern.O.Term; got != rdf.NewLiteral("Lionel Messi") {
		t.Errorf("string literal = %v", got)
	}
	if got := rs[1].Body[0].Pattern.O.Term; got != rdf.NewTypedLiteral("45", rdf.XSDInteger) {
		t.Errorf("integer literal = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown prefix", `[x: (?a nope:b ?c) -> (?a rdf:type pre:X)]`},
		{"unbound head var", `[x: (?a rdf:type pre:X) -> (?b rdf:type pre:Y)]`},
		{"empty head", `[x: (?a rdf:type pre:X) -> ]`},
		{"bad builtin", `[x: frobnicate(?a) (?a rdf:type pre:X) -> (?a rdf:type pre:Y)]`},
		{"noValue arity", `[x: noValue(?a) (?a rdf:type pre:X) -> (?a rdf:type pre:Y)]`},
		{"makeTemp non-var", `[x: makeTemp(pre:X) (?a rdf:type pre:X) -> (?a rdf:type pre:Y)]`},
		{"unterminated string", `[x: (?a pre:hasName "oops) -> (?a rdf:type pre:Y)]`},
		{"missing close bracket", `[x: (?a rdf:type pre:X) -> (?a rdf:type pre:Y)`},
		{"bare question mark", `[x: (? rdf:type pre:X) -> (?a rdf:type pre:Y)]`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.src); err == nil {
				t.Errorf("Parse accepted %q", c.src)
			}
		})
	}
}

func TestEngineSimpleDerivation(t *testing.T) {
	rs := MustParse(`[lift: (?e rdf:type pre:Goal) -> (?e rdf:type pre:PositiveEvent)]`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:g1"), rdf.RDFType, iri("pre:Goal"))
	e := Compile(rs).Engine(g)
	n := e.Run()
	if n != 1 {
		t.Errorf("Run added %d, want 1", n)
	}
	if !g.HasSPO(iri("pre:g1"), rdf.RDFType, iri("pre:PositiveEvent")) {
		t.Error("derived triple missing")
	}
	s, _ := g.Lookup(iri("pre:g1"))
	p, _ := g.Lookup(rdf.RDFType)
	o, _ := g.Lookup(iri("pre:PositiveEvent"))
	if e.Derived()[rdf.IDTriple{S: s, P: p, O: o}] != "lift" {
		t.Error("provenance missing")
	}
}

func TestEngineChaining(t *testing.T) {
	// Rule 2 consumes rule 1's output: requires a second pass.
	rs := MustParse(`
[r1: (?e rdf:type pre:Goal) -> (?e rdf:type pre:PositiveEvent)]
[r2: (?e rdf:type pre:PositiveEvent) -> (?e rdf:type pre:Event)]
`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:g1"), rdf.RDFType, iri("pre:Goal"))
	if n := Compile(rs).Engine(g).Run(); n != 2 {
		t.Errorf("Run added %d, want 2", n)
	}
	if !g.HasSPO(iri("pre:g1"), rdf.RDFType, iri("pre:Event")) {
		t.Error("transitive derivation missing")
	}
}

func TestEngineJoin(t *testing.T) {
	rs := MustParse(`
[teams: (?e pre:subjectPlayer ?p) (?p pre:playsFor ?t) -> (?e pre:subjectTeam ?t)]
`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:e1"), iri("pre:subjectPlayer"), iri("pre:Messi"))
	g.AddSPO(iri("pre:Messi"), iri("pre:playsFor"), iri("pre:Barcelona"))
	g.AddSPO(iri("pre:e2"), iri("pre:subjectPlayer"), iri("pre:Unknown"))
	Compile(rs).Engine(g).Run()
	if !g.HasSPO(iri("pre:e1"), iri("pre:subjectTeam"), iri("pre:Barcelona")) {
		t.Error("join derivation missing")
	}
	if len(g.Match(iri("pre:e2"), iri("pre:subjectTeam"), rdf.Wildcard)) != 0 {
		t.Error("derived team for player without club")
	}
}

func TestEngineNoValueGuard(t *testing.T) {
	rs := MustParse(`
[guarded: (?e rdf:type pre:Goal) noValue(?e pre:checked "yes") -> (?e pre:checked "yes")]
`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:g1"), rdf.RDFType, iri("pre:Goal"))
	g.AddSPO(iri("pre:g2"), rdf.RDFType, iri("pre:Goal"))
	g.AddSPO(iri("pre:g2"), iri("pre:checked"), rdf.NewLiteral("yes"))
	if n := Compile(rs).Engine(g).Run(); n != 1 {
		t.Errorf("Run added %d, want 1 (g2 already checked)", n)
	}
}

func TestEngineMakeTempOncePerBinding(t *testing.T) {
	rs := MustParse(`
[mk: (?g rdf:type pre:Goal) (?g pre:scorerPlayer ?p) makeTemp(?t)
  -> (?t rdf:type pre:Celebration) (?t pre:celebrant ?p)]
`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:g1"), rdf.RDFType, iri("pre:Goal"))
	g.AddSPO(iri("pre:g1"), iri("pre:scorerPlayer"), iri("pre:Messi"))
	g.AddSPO(iri("pre:g2"), rdf.RDFType, iri("pre:Goal"))
	g.AddSPO(iri("pre:g2"), iri("pre:scorerPlayer"), iri("pre:Eto"))
	prog := Compile(rs)
	e := prog.Engine(g)
	e.Run()
	celebs := g.Match(rdf.Wildcard, rdf.RDFType, iri("pre:Celebration"))
	if len(celebs) != 2 {
		t.Fatalf("created %d Celebration temps, want 2", len(celebs))
	}
	// Re-running must not create more temps: the engine recognizes an
	// existing node satisfying the instantiated head. This must hold for the
	// same engine and for a fresh engine over the saturated graph.
	before := g.Len()
	if n := e.Run(); n != 0 {
		t.Errorf("second Run added %d triples", n)
	}
	if n := prog.Engine(g).Run(); n != 0 {
		t.Errorf("fresh-engine Run added %d triples", n)
	}
	if g.Len() != before {
		t.Error("graph grew on re-run")
	}
}

func TestEngineRepeatedVariable(t *testing.T) {
	rs := MustParse(`[self: (?x pre:marks ?x) -> (?x rdf:type pre:SelfMarker)]`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:a"), iri("pre:marks"), iri("pre:a"))
	g.AddSPO(iri("pre:b"), iri("pre:marks"), iri("pre:c"))
	Compile(rs).Engine(g).Run()
	if !g.HasSPO(iri("pre:a"), rdf.RDFType, iri("pre:SelfMarker")) {
		t.Error("self-loop not derived")
	}
	if g.HasSPO(iri("pre:b"), rdf.RDFType, iri("pre:SelfMarker")) {
		t.Error("non-loop derived")
	}
}

func TestEngineComparisonGuards(t *testing.T) {
	rs := MustParse(`
[hw: (?m pre:homeScore ?h) (?m pre:awayScore ?a) greaterThan(?h ?a) -> (?m pre:outcome "home")]
[aw: (?m pre:homeScore ?h) (?m pre:awayScore ?a) lessThan(?h ?a) -> (?m pre:outcome "away")]
[eq: (?m pre:homeScore ?h) (?m pre:awayScore ?a) equal(?h ?a) -> (?m pre:outcome "draw")]
`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:m1"), iri("pre:homeScore"), rdf.NewInt(2))
	g.AddSPO(iri("pre:m1"), iri("pre:awayScore"), rdf.NewInt(0))
	g.AddSPO(iri("pre:m2"), iri("pre:homeScore"), rdf.NewInt(1))
	g.AddSPO(iri("pre:m2"), iri("pre:awayScore"), rdf.NewInt(1))
	g.AddSPO(iri("pre:m3"), iri("pre:homeScore"), rdf.NewInt(0))
	g.AddSPO(iri("pre:m3"), iri("pre:awayScore"), rdf.NewInt(3))
	Compile(rs).Engine(g).Run()
	for m, want := range map[string]string{"pre:m1": "home", "pre:m2": "draw", "pre:m3": "away"} {
		got := g.FirstObject(iri(m), iri("pre:outcome"))
		if got.Value != want {
			t.Errorf("outcome(%s) = %q, want %q", m, got.Value, want)
		}
		if n := len(g.Match(iri(m), iri("pre:outcome"), rdf.Wildcard)); n != 1 {
			t.Errorf("%s has %d outcomes", m, n)
		}
	}
}

func TestEngineNotEqual(t *testing.T) {
	rs := MustParse(`
[opp: (?e pre:a ?x) (?e pre:b ?y) notEqual(?x ?y) -> (?e rdf:type pre:Distinct)]
`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:e1"), iri("pre:a"), iri("pre:p1"))
	g.AddSPO(iri("pre:e1"), iri("pre:b"), iri("pre:p1"))
	g.AddSPO(iri("pre:e2"), iri("pre:a"), iri("pre:p1"))
	g.AddSPO(iri("pre:e2"), iri("pre:b"), iri("pre:p2"))
	Compile(rs).Engine(g).Run()
	if g.HasSPO(iri("pre:e1"), rdf.RDFType, iri("pre:Distinct")) {
		t.Error("notEqual passed on equal terms")
	}
	if !g.HasSPO(iri("pre:e2"), rdf.RDFType, iri("pre:Distinct")) {
		t.Error("notEqual failed on distinct terms")
	}
}

func TestEngineAssistEndToEnd(t *testing.T) {
	// The full Fig. 6 scenario: a pass and a goal in the same match and
	// minute with receiver == scorer must mint exactly one Assist.
	src := `
[assistRule:
  noValue(?pass rdf:type pre:Assist)
  (?pass rdf:type pre:Pass)
  (?pass pre:passingPlayer ?passer)
  (?pass pre:passReceiver ?receiver)
  (?pass pre:inMatch ?match)
  (?pass pre:inMinute ?minute)
  (?goal pre:inMatch ?match)
  (?goal pre:inMinute ?minute)
  (?goal pre:scorerPlayer ?receiver)
  makeTemp(?tmp)
  -> (?tmp rdf:type pre:Assist)
     (?tmp pre:inMatch ?match)
     (?tmp pre:inMinute ?minute)
     (?tmp pre:passingPlayer ?passer)
     (?tmp pre:passReceiver ?receiver)
]`
	g := rdf.NewGraph()
	match := iri("pre:Match_1")
	add := func(s, p string, o rdf.Term) { g.AddSPO(iri(s), iri(p), o) }
	g.AddSPO(iri("pre:pass1"), rdf.RDFType, iri("pre:Pass"))
	add("pre:pass1", "pre:passingPlayer", iri("pre:Iniesta"))
	add("pre:pass1", "pre:passReceiver", iri("pre:Eto"))
	add("pre:pass1", "pre:inMatch", match)
	add("pre:pass1", "pre:inMinute", rdf.NewInt(10))
	g.AddSPO(iri("pre:goal1"), rdf.RDFType, iri("pre:Goal"))
	add("pre:goal1", "pre:inMatch", match)
	add("pre:goal1", "pre:inMinute", rdf.NewInt(10))
	add("pre:goal1", "pre:scorerPlayer", iri("pre:Eto"))
	// A decoy pass in a different minute must not produce an assist.
	g.AddSPO(iri("pre:pass2"), rdf.RDFType, iri("pre:Pass"))
	add("pre:pass2", "pre:passingPlayer", iri("pre:Xavi"))
	add("pre:pass2", "pre:passReceiver", iri("pre:Eto"))
	add("pre:pass2", "pre:inMatch", match)
	add("pre:pass2", "pre:inMinute", rdf.NewInt(30))

	Compile(MustParse(src)).Engine(g).Run()
	assists := g.Match(rdf.Wildcard, rdf.RDFType, iri("pre:Assist"))
	if len(assists) != 1 {
		t.Fatalf("minted %d Assist individuals, want 1", len(assists))
	}
	a := assists[0].S
	if !a.IsBlank() {
		t.Errorf("assist node = %v, want blank temp", a)
	}
	if g.FirstObject(a, iri("pre:passingPlayer")) != iri("pre:Iniesta") {
		t.Error("assist passer wrong")
	}
}

func TestRuleStringRendersGuards(t *testing.T) {
	rs := MustParse(`[g: (?a pre:x ?b) noValue(?a pre:y ?b) greaterThan(?b 3) -> (?a pre:z ?b)]`)
	s := rs[0].String()
	for _, want := range []string{"noValue(?a pre:y ?b)", "greaterThan(?b", "->"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestCompilePanicsOnInvalidRule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compile did not panic")
		}
	}()
	Compile([]*Rule{{Name: "bad", Head: []Pattern{{S: Node{Var: "x"}, P: Node{Term: rdf.RDFType}, O: Node{Term: rdf.NewIRI(rdf.NSOWL + "Thing")}}}}})
}

// A rule with two makeTemp calls cannot be recognized by its head (there is
// no single anchor node), so what keeps it from minting again on the
// fixpoint's second pass is that the semi-naive join enumerates each binding
// once.
func TestEngineSeveralTempsOncePerBindingWithinARun(t *testing.T) {
	rs := MustParse(`
[pair: (?g rdf:type pre:Goal) makeTemp(?a) makeTemp(?b)
  -> (?a pre:celebrates ?g) (?b pre:mourns ?g)]
`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:g1"), rdf.RDFType, iri("pre:Goal"))
	g.AddSPO(iri("pre:g2"), rdf.RDFType, iri("pre:Goal"))
	if n := Compile(rs).Engine(g).Run(); n != 4 {
		t.Errorf("Run added %d triples, want 4 (two temps for each of two goals)", n)
	}
}

func TestEngineGuardOnUnboundVariable(t *testing.T) {
	// ?v is bound by no pattern: in noValue it is a wildcard, in a
	// comparison it has no value and the guard fails.
	rs := MustParse(`
[bare: (?e rdf:type pre:Goal) noValue(?e pre:inMinute ?v) -> (?e rdf:type pre:Untimed)]
[cmp:  (?e rdf:type pre:Goal) lessThan(?v 5) -> (?e rdf:type pre:Early)]
`)
	g := rdf.NewGraph()
	g.AddSPO(iri("pre:g1"), rdf.RDFType, iri("pre:Goal"))
	g.AddSPO(iri("pre:g1"), iri("pre:inMinute"), rdf.NewInt(3))
	g.AddSPO(iri("pre:g2"), rdf.RDFType, iri("pre:Goal"))
	Compile(rs).Engine(g).Run()
	if g.HasSPO(iri("pre:g1"), rdf.RDFType, iri("pre:Untimed")) || !g.HasSPO(iri("pre:g2"), rdf.RDFType, iri("pre:Untimed")) {
		t.Error("noValue with an unbound variable did not act as a wildcard")
	}
	if len(g.Match(rdf.Wildcard, rdf.RDFType, iri("pre:Early"))) != 0 {
		t.Error("comparison on an unbound variable passed")
	}
}

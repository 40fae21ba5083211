package rules_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/rules"
	"repro/internal/soccer"
)

// syntheticRules covers the rule shapes the soccer set lacks: a repeated
// variable, an unguarded single makeTemp, a double makeTemp (guarded: the
// naive reference re-mints a double-temp binding on every Run), a noValue
// over a predicate the rules themselves derive, both comparisons, and rules
// whose heads feed their own bodies (near is closed transitively, and the
// single temp adds to it).
const syntheticRules = `
[self:   (?x pre:marks ?x) -> (?x rdf:type pre:SelfMarker)]
[trans:  (?a pre:near ?b) (?b pre:near ?c) notEqual(?a ?c) -> (?a pre:near ?c)]
[one:    (?g rdf:type pre:Goal) (?g pre:scorerPlayer ?p) makeTemp(?t)
         -> (?t rdf:type pre:Celebration) (?t pre:celebrant ?p) (?t pre:near ?g)]
[two:    (?f rdf:type pre:Foul) noValue(?f pre:reviewed "yes") makeTemp(?a) makeTemp(?b)
         -> (?a pre:reviews ?f) (?b pre:appeals ?f) (?f pre:reviewed "yes")]
[oneway: (?e pre:near ?f) noValue(?f pre:near ?e) -> (?e pre:oneway ?f)]
[lead:   (?m pre:homeScore ?h) (?m pre:awayScore ?a) lessThan(?a ?h) -> (?m pre:lead ?h)]
[beats:  (?m pre:lead ?h) (?n pre:homeScore ?k) greaterThan(?k ?h) -> (?n pre:beats ?m)]
`

// randomTriple draws from a vocabulary small enough that the soccer and
// synthetic rule bodies join often: six events, five players, three teams,
// two matches, three minutes.
func randomTriple(r *rand.Rand, ont *owl.Ontology) rdf.Triple {
	pick := func(prefix string, n int) rdf.Term { return ont.IRI(fmt.Sprintf("%s%d", prefix, r.Intn(n))) }
	ev := func() rdf.Term { return pick("ev", 6) }
	pl := func() rdf.Term { return pick("pl", 5) }
	team := func() rdf.Term { return pick("team", 3) }
	match := func() rdf.Term { return pick("match", 2) }
	classes := []string{"Pass", "LongPass", "ShortPass", "Goal", "HeaderGoal", "Foul", "YellowCard", "RedCard", "Save"}
	switch r.Intn(16) {
	case 0, 1:
		return rdf.NewTriple(ev(), rdf.RDFType, ont.IRI(classes[r.Intn(len(classes))]))
	case 2:
		return rdf.NewTriple(ev(), ont.IRI("passingPlayer"), pl())
	case 3:
		return rdf.NewTriple(ev(), ont.IRI("passReceiver"), pl())
	case 4:
		return rdf.NewTriple(ev(), ont.IRI("inMatch"), match())
	case 5:
		return rdf.NewTriple(ev(), ont.IRI("inMinute"), rdf.NewInt(1+r.Intn(3)))
	case 6:
		return rdf.NewTriple(ev(), ont.IRI("scorerPlayer"), pl())
	case 7:
		return rdf.NewTriple(pl(), ont.IRI("playsFor"), team())
	case 8:
		return rdf.NewTriple(match(), ont.IRI([]string{"homeTeam", "awayTeam"}[r.Intn(2)]), team())
	case 9:
		return rdf.NewTriple(team(), ont.IRI("hasGoalkeeper"), pl())
	case 10:
		return rdf.NewTriple(ev(), ont.IRI([]string{"subjectPlayer", "objectPlayer", "punishedPlayer"}[r.Intn(3)]), pl())
	case 11:
		return rdf.NewTriple(match(), ont.IRI([]string{"homeScore", "awayScore"}[r.Intn(2)]), rdf.NewInt(r.Intn(4)))
	case 12:
		return rdf.NewTriple(ev(), ont.IRI("scoringTeam"), team())
	case 13:
		return rdf.NewTriple(ev(), ont.IRI("marks"), ev())
	default:
		return rdf.NewTriple(ev(), ont.IRI("near"), ev())
	}
}

// canonical renders triples with every blank label replaced by a digest of
// the node's own non-blank (predicate, object) pairs, then sorts — the
// normalisation saturation.golden is recorded under — so graphs that differ
// only in blank labels render identically. When suffix is set, its text
// for a triple is appended to that triple's line.
func canonical(g *rdf.Graph, ts []rdf.Triple, suffix func(rdf.Triple) string) []string {
	names := map[rdf.Term]string{}
	name := func(t rdf.Term) string {
		if !t.IsBlank() {
			return t.String()
		}
		if n, ok := names[t]; ok {
			return n
		}
		var desc []string
		for _, out := range g.Match(t, rdf.Wildcard, rdf.Wildcard) {
			if !out.O.IsBlank() {
				desc = append(desc, out.P.String()+" "+out.O.String())
			}
		}
		sort.Strings(desc)
		h := fnv.New64a()
		h.Write([]byte(strings.Join(desc, "\n")))
		names[t] = fmt.Sprintf("_:%016x", h.Sum64())
		return names[t]
	}
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = name(t.S) + " " + name(t.P) + " " + name(t.O)
		if suffix != nil {
			out[i] += " " + suffix(t)
		}
	}
	sort.Strings(out)
	return out
}

func mintedTemps(g *rdf.Graph) int {
	n := 0
	for id := 1; id <= g.NumTerms(); id++ {
		if g.Term(rdf.ID(id)).IsBlank() {
			n++
		}
	}
	return n
}

// TestSemiNaiveMatchesNaive is the oracle for semi-naive evaluation: on
// seeded random graphs, a semi-naive Engine and the naive reference driven
// through the same random schedule — triples added, Saturator runs and
// rule Runs interleaved — must leave the same triple set, the same
// provenance (triple and rule) and the same number of minted temps, and
// add the same number of triples in every Run.
func TestSemiNaiveMatchesNaive(t *testing.T) {
	ont := soccer.BuildOntology()
	rsn := reasoner.New(ont)
	for _, set := range []struct {
		name string
		src  string
	}{
		{"soccer", soccer.RuleText},
		{"synthetic", syntheticRules},
		{"both", soccer.RuleText + syntheticRules},
	} {
		t.Run(set.name, func(t *testing.T) {
			prog := rules.Compile(rules.MustParse(set.src))
			for seed := int64(1); seed <= 150; seed++ {
				r := rand.New(rand.NewSource(seed))
				a := rdf.NewGraph()
				for i := 0; i < 25; i++ {
					a.Add(randomTriple(r, ont))
				}
				b := a.Clone()
				naive, semi := rules.NewNaiveEngine(prog, a), prog.Engine(b)
				satA, satB := rsn.Saturator(a), rsn.Saturator(b)
				naiveProv := map[rdf.IDTriple]string{}
				var schedule []string
				for step := 0; step < 14; step++ {
					switch op := r.Intn(5); {
					case op == 0:
						for n := 1 + r.Intn(8); n > 0; n-- {
							tr := randomTriple(r, ont)
							a.Add(tr)
							b.Add(tr)
						}
						schedule = append(schedule, "add")
					case op == 1:
						satA.Run()
						satB.Run()
						schedule = append(schedule, "saturate")
					default:
						na := naive.Run()
						for tr, rule := range naive.Derived() {
							naiveProv[tr] = rule
						}
						if sa := semi.Run(); sa != na {
							t.Fatalf("seed %d after %v: semi-naive Run added %d, naive %d", seed, schedule, sa, na)
						}
						schedule = append(schedule, "rules")
					}
				}
				if got, want := canonical(b, b.All(), nil), canonical(a, a.All(), nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d after %v: triple sets differ (%d vs naive %d)\n%s", seed, schedule, len(got), len(want), firstDiff(got, want))
				}
				semiProv := semi.Derived()
				provLines := func(g *rdf.Graph, prov map[rdf.IDTriple]string) []string {
					keys := make([]rdf.Triple, 0, len(prov))
					rule := make(map[rdf.Triple]string, len(prov))
					for t, r := range prov {
						tr := g.Triple(t)
						keys = append(keys, tr)
						rule[tr] = r
					}
					return canonical(g, keys, func(tr rdf.Triple) string { return rule[tr] })
				}
				if got, want := provLines(b, semiProv), provLines(a, naiveProv); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d after %v: provenance differs (%d vs naive %d)\n%s", seed, schedule, len(got), len(want), firstDiff(got, want))
				}
				if got, want := mintedTemps(b), mintedTemps(a); got != want {
					t.Fatalf("seed %d after %v: %d temps minted, naive %d", seed, schedule, got, want)
				}
			}
		})
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("first difference at %d:\n got  %s\n want %s", i, g, w)
		}
	}
	return ""
}

// TestSeveralTempsOncePerBindingAcrossRuns pins the one place the
// semi-naive engine departs from the naive reference: a rule with two
// makeTemp calls mints once per binding over the engine's life, where the
// reference's per-Run memo let it mint again on every Run. It also checks
// that a binding whose triples all arrived since the last join — new in
// every body pattern — is enumerated by one delta only.
func TestSeveralTempsOncePerBindingAcrossRuns(t *testing.T) {
	ont := soccer.BuildOntology()
	prog := rules.Compile(rules.MustParse(`
[pair: (?g rdf:type pre:Goal) (?g pre:scorerPlayer ?p) makeTemp(?a) makeTemp(?b)
  -> (?a pre:celebrates ?g) (?b pre:mourns ?p)]
`))
	g := rdf.NewGraph()
	goal, scoredBy := ont.IRI("Goal"), ont.IRI("scorerPlayer")
	g.AddSPO(ont.IRI("g1"), rdf.RDFType, goal)
	g.AddSPO(ont.IRI("g1"), scoredBy, ont.IRI("p1"))
	e := prog.Engine(g)
	for _, round := range []struct {
		name string
		add  [][3]rdf.Term
	}{
		{"first Run", nil},
		{"both patterns new", [][3]rdf.Term{{ont.IRI("g2"), rdf.RDFType, goal}, {ont.IRI("g2"), scoredBy, ont.IRI("p2")}}},
		{"second pattern new", [][3]rdf.Term{{ont.IRI("g1"), scoredBy, ont.IRI("p3")}}},
		{"nothing new", nil},
	} {
		for _, tr := range round.add {
			g.AddSPO(tr[0], tr[1], tr[2])
		}
		want := 2
		if round.name == "nothing new" {
			want = 0
		}
		if n := e.Run(); n != want {
			t.Errorf("%s: Run added %d, want %d", round.name, n, want)
		}
	}
	if n := mintedTemps(g); n != 6 {
		t.Errorf("%d temps minted, want 6 (two for each of three bindings)", n)
	}
}

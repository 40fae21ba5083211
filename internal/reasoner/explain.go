package reasoner

import (
	"fmt"

	"repro/internal/owl"
	"repro/internal/rdf"
)

// Explanation describes how one triple entered the materialized model.
type Explanation struct {
	// Triple is the derived statement.
	Triple rdf.Triple
	// Rule names the inference pattern: "asserted", "subClassOf",
	// "subPropertyOf", "domain", "range" or "allValuesFrom".
	Rule string
	// Premises are the triples the step consumed.
	Premises []rdf.Triple
	// Axiom renders the schema axiom used, e.g. "HeaderGoal ⊑ Goal".
	Axiom string
}

// String renders the explanation for humans.
func (e Explanation) String() string {
	s := fmt.Sprintf("%v  [%s", e.Triple, e.Rule)
	if e.Axiom != "" {
		s += ": " + e.Axiom
	}
	return s + "]"
}

// MaterializeExplained is Materialize with a derivation record: the second
// return value explains every triple of the output that was not asserted
// in the input, by the derivation that first produced it. It exists for
// the "why is this in my results?" question a knowledge-base operator asks
// when an inferred index surprises them.
func (r *Reasoner) MaterializeExplained(m *owl.Model) (*owl.Model, map[rdf.Triple]Explanation) {
	out := m.Clone()
	g := out.Graph
	expl := map[rdf.Triple]Explanation{}
	s := r.Saturator(g)
	triple := func(t rdf.IDTriple) rdf.Triple {
		return rdf.Triple{S: g.Term(t.S), P: g.Term(t.P), O: g.Term(t.O)}
	}
	s.explain = func(d derivation) {
		name := func(i int) string { return r.schema.terms[d.axiom[i]].LocalName() }
		e := Explanation{Triple: triple(d.conclusion), Rule: d.rule}
		switch d.rule {
		case "subClassOf", "subPropertyOf":
			e.Axiom = fmt.Sprintf("%s ⊑ %s", name(0), name(1))
		case "domain", "range":
			e.Axiom = fmt.Sprintf("%s(%s) = %s", d.rule, name(0), name(1))
		case "allValuesFrom":
			e.Axiom = fmt.Sprintf("%s ⊑ ∀%s.%s", name(0), name(1), name(2))
		}
		for _, p := range d.premises {
			if p.S != 0 {
				e.Premises = append(e.Premises, triple(p))
			}
		}
		expl[e.Triple] = e
	}
	s.Run()
	return out, expl
}

// ExplainChain walks an explanation back to asserted triples, returning the
// full derivation as a list ordered from conclusion to axioms. Triples with
// no explanation are asserted facts and terminate branches.
func ExplainChain(expl map[rdf.Triple]Explanation, t rdf.Triple) []Explanation {
	var out []Explanation
	seen := map[rdf.Triple]bool{}
	var walk func(rdf.Triple)
	walk = func(cur rdf.Triple) {
		if seen[cur] {
			return
		}
		seen[cur] = true
		e, ok := expl[cur]
		if !ok {
			out = append(out, Explanation{Triple: cur, Rule: "asserted"})
			return
		}
		out = append(out, e)
		for _, p := range e.Premises {
			walk(p)
		}
	}
	walk(t)
	return out
}

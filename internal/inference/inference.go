// Package inference orchestrates the offline reasoning stage of Section
// 3.5: DL materialization (classification, realization, property closure,
// restriction and domain/range inference) interleaved with forward rule
// application, iterated to a joint fixpoint.
//
// Interleaving matters: the assist rule matches pre:Pass, which individuals
// asserted as pre:LongPass only satisfy after type closure; conversely the
// actorOf* assertions the rules produce only reach actorOfNegativeMove
// through the reasoner's property closure. Two or three rounds reach the
// fixpoint on soccer models.
package inference

import (
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/rules"
)

// Result is the inferred model plus rule provenance.
type Result struct {
	// Model is the saturated ABox.
	Model *owl.Model
	// RuleProvenance maps each rule-derived triple to the rule name.
	RuleProvenance map[rdf.Triple]string
}

// Run saturates a copy of the model under the reasoner and rule set,
// leaving the input unmodified: it is Saturate on a clone, for callers that
// still read the pre-inference model, with the provenance keyed by terms.
func Run(r *reasoner.Reasoner, ruleSet []*rules.Rule, m *owl.Model) Result {
	inf := m.Clone()
	byID := Saturate(r, rules.Compile(ruleSet), inf).Derived()
	prov := make(map[rdf.Triple]string, len(byID))
	for t, rule := range byID {
		prov[inf.Graph.Triple(t)] = rule
	}
	return Result{Model: inf, RuleProvenance: prov}
}

// Saturate saturates the model in place under the reasoner and the compiled
// rules and returns the rule engine, whose Asserted (by log offset) and
// Derived (by triple) give the rule provenance that feeds the FromRules
// index field of Table 2. The reasoner's Saturator and the rule Engine
// alternate on the model's graph, each resuming from what the other added
// since its last turn, until the rules add nothing.
func Saturate(r *reasoner.Reasoner, prog *rules.Program, m *owl.Model) *rules.Engine {
	sat := r.Saturator(m.Graph)
	eng := prog.Engine(m.Graph)
	for {
		sat.Run()
		if eng.Run() == 0 {
			return eng
		}
	}
}

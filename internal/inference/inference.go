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
	// RuleProvenance maps each rule-derived triple to the rule name, feeding
	// the FromRules index field of Table 2.
	RuleProvenance map[rdf.Triple]string
}

// Run saturates the model under the reasoner and rule set. The input model
// is not modified: reasoner and rules alternate on one private copy, the
// reasoner closing only over what the rules added since its last turn.
func Run(r *reasoner.Reasoner, ruleSet []*rules.Rule, m *owl.Model) Result {
	eng := rules.NewEngine(ruleSet)
	provenance := map[rdf.Triple]string{}
	inf := m.Clone()
	sat := r.Saturator(inf.Graph)
	for {
		sat.Run()
		added := eng.Run(inf.Graph)
		for t, rule := range eng.Derived() {
			provenance[t] = rule
		}
		if added == 0 {
			return Result{Model: inf, RuleProvenance: provenance}
		}
	}
}

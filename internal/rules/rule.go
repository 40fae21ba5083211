// Package rules implements the forward-chaining production rule engine the
// paper drives through Jena (Section 3.5, Fig. 6). Rules are written in
// Jena's text syntax — triple patterns, the noValue guard and the makeTemp
// node constructor — and evaluated bottom-up to a fixpoint over an RDF
// graph.
//
// A rule has an effect at most once per distinct binding of its body
// variables, which is Jena's forward-engine behaviour and what makes rules
// containing makeTemp terminate: re-running the engine over an already
// saturated graph adds nothing.
package rules

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// Node is one slot of a rule pattern: either a concrete RDF term or a
// variable.
type Node struct {
	// Var is the variable name (without the leading '?'); empty for a
	// concrete term.
	Var string
	// Term is the concrete term when Var is empty.
	Term rdf.Term
}

// IsVar reports whether the node is a variable.
func (n Node) IsVar() bool { return n.Var != "" }

// String renders the node in rule syntax.
func (n Node) String() string {
	if n.IsVar() {
		return "?" + n.Var
	}
	if n.Term.IsIRI() {
		return rdf.CompactIRI(n.Term.Value)
	}
	return n.Term.String()
}

// Pattern is a triple pattern.
type Pattern struct {
	S, P, O Node
}

// String renders the pattern in rule syntax.
func (p Pattern) String() string {
	return "(" + p.S.String() + " " + p.P.String() + " " + p.O.String() + ")"
}

// Builtin is a guard or constructor call in a rule body.
type Builtin struct {
	// Name is one of "noValue", "makeTemp", "equal", "notEqual", "lessThan",
	// "greaterThan".
	Name string
	// Args are the call arguments; noValue takes three nodes forming a
	// pattern, makeTemp takes one variable, comparisons take two nodes.
	Args []Node
}

// String renders the builtin in rule syntax.
func (b Builtin) String() string {
	args := make([]string, len(b.Args))
	for i, a := range b.Args {
		args[i] = a.String()
	}
	return b.Name + "(" + strings.Join(args, " ") + ")"
}

// BodyItem is either a Pattern or a Builtin.
type BodyItem struct {
	Pattern *Pattern
	Builtin *Builtin
}

// Rule is one forward rule: when every body pattern matches and every guard
// holds, the head triples are asserted.
type Rule struct {
	// Name identifies the rule in diagnostics and provenance.
	Name string
	Body []BodyItem
	Head []Pattern
}

// String renders the rule in Jena bracket syntax.
func (r *Rule) String() string {
	var b strings.Builder
	b.WriteByte('[')
	if r.Name != "" {
		b.WriteString(r.Name)
		b.WriteString(": ")
	}
	for i, item := range r.Body {
		if i > 0 {
			b.WriteByte(' ')
		}
		if item.Pattern != nil {
			b.WriteString(item.Pattern.String())
		} else {
			b.WriteString(item.Builtin.String())
		}
	}
	b.WriteString(" -> ")
	for i, p := range r.Head {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Validate checks that head variables are bound by the body (either by a
// pattern or by makeTemp) and that builtins are well-formed.
func (r *Rule) Validate() error {
	bound := map[string]bool{}
	for _, item := range r.Body {
		if item.Pattern != nil {
			for _, n := range []Node{item.Pattern.S, item.Pattern.P, item.Pattern.O} {
				if n.IsVar() {
					bound[n.Var] = true
				}
			}
			continue
		}
		b := item.Builtin
		switch b.Name {
		case "noValue":
			if len(b.Args) != 3 {
				return fmt.Errorf("rule %s: noValue takes 3 args, got %d", r.Name, len(b.Args))
			}
		case "makeTemp":
			if len(b.Args) != 1 || !b.Args[0].IsVar() {
				return fmt.Errorf("rule %s: makeTemp takes one variable", r.Name)
			}
			bound[b.Args[0].Var] = true
		case "equal", "notEqual", "lessThan", "greaterThan":
			if len(b.Args) != 2 {
				return fmt.Errorf("rule %s: %s takes 2 args", r.Name, b.Name)
			}
		default:
			return fmt.Errorf("rule %s: unknown builtin %q", r.Name, b.Name)
		}
	}
	for _, p := range r.Head {
		for _, n := range []Node{p.S, p.P, p.O} {
			if n.IsVar() && !bound[n.Var] {
				return fmt.Errorf("rule %s: head variable ?%s not bound in body", r.Name, n.Var)
			}
		}
	}
	if len(r.Head) == 0 {
		return fmt.Errorf("rule %s: empty head", r.Name)
	}
	return nil
}

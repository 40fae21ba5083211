package rules

import (
	"encoding/binary"

	"repro/internal/rdf"
)

// Engine evaluates a rule set over RDF graphs by forward chaining to a
// fixpoint.
//
// Evaluation order within a rule body differs from Jena in one deliberate
// way: triple patterns are joined first (in source order) and guard builtins
// (noValue and the comparisons) are checked once the bindings are complete.
// The paper's assist rule (Fig. 6) lists noValue first with an unbound
// variable, where literal in-order evaluation would make the guard global
// rather than per-binding; deferring guards yields the per-binding reading
// the rule obviously intends.
type Engine struct {
	rules []*Rule
	// prog is the rule set compiled by NewEngine; consts are the distinct
	// concrete terms the rules mention, which Run resolves to the graph's
	// IDs once instead of once per pattern evaluation.
	prog   []compiled
	consts []rdf.Term

	// Per-Run state. ids[i] is the graph ID of consts[i]; slots holds the
	// current binding of the rule being evaluated (0 = unbound, which a
	// Scan reads as a wildcard); matches is the flat list of complete
	// bindings of one rule, nslots IDs each.
	g       *rdf.Graph
	ids     []rdf.ID
	slots   []rdf.ID
	matches []rdf.ID
	// fired memoizes the firings of rules with several makeTemp calls, so
	// they create one set of temp nodes per distinct match within a run.
	// Every other rule is idempotent without it: re-asserting a head adds
	// nothing, and a single temp is recognized by tempFiringExists.
	fired map[string]bool
	// derived records rule provenance for every asserted triple; the
	// semantic indexer reads it to fill the FromRules field of Table 2.
	derived map[rdf.Triple]string
}

// node is one compiled pattern slot: a variable's slot number, or (slot < 0)
// an index into Engine.consts.
type node struct {
	slot, konst int32
}

type guard struct {
	name string
	args []node
}

// compiled is one rule with its body split by role and its variables
// numbered, so a binding is a slice of IDs rather than a map by name.
type compiled struct {
	name   string
	body   [][3]node
	guards []guard
	temps  []int32 // slots filled by makeTemp
	head   [][3]node
	nslots int
}

// NewEngine returns an engine over the given rules. Each rule must validate.
func NewEngine(rs []*Rule) *Engine {
	e := &Engine{rules: rs}
	constIndex := map[rdf.Term]int32{}
	for _, r := range rs {
		if err := r.Validate(); err != nil {
			panic("rules: " + err.Error())
		}
		c := compiled{name: r.Name}
		slotOf := map[string]int32{}
		compile := func(n Node) node {
			if n.IsVar() {
				s, ok := slotOf[n.Var]
				if !ok {
					s = int32(len(slotOf))
					slotOf[n.Var] = s
				}
				return node{slot: s}
			}
			k, ok := constIndex[n.Term]
			if !ok {
				k = int32(len(e.consts))
				constIndex[n.Term] = k
				e.consts = append(e.consts, n.Term)
			}
			return node{slot: -1, konst: k}
		}
		pattern := func(p Pattern) [3]node { return [3]node{compile(p.S), compile(p.P), compile(p.O)} }
		for _, item := range r.Body {
			switch {
			case item.Pattern != nil:
				c.body = append(c.body, pattern(*item.Pattern))
			case item.Builtin.Name == "makeTemp":
				c.temps = append(c.temps, compile(item.Builtin.Args[0]).slot)
			default:
				gd := guard{name: item.Builtin.Name}
				for _, a := range item.Builtin.Args {
					gd.args = append(gd.args, compile(a))
				}
				c.guards = append(c.guards, gd)
			}
		}
		for _, h := range r.Head {
			c.head = append(c.head, pattern(h))
		}
		c.nslots = len(slotOf)
		e.prog = append(e.prog, c)
	}
	return e
}

// Rules returns the engine's rule set.
func (e *Engine) Rules() []*Rule { return e.rules }

// Run saturates the graph under the rule set and returns the number of
// triples added. Derivation provenance is reset per call and readable via
// Derived afterwards.
func (e *Engine) Run(g *rdf.Graph) int {
	e.g = g
	e.fired = nil
	e.derived = make(map[rdf.Triple]string)
	e.ids = e.ids[:0]
	for _, t := range e.consts {
		e.ids = append(e.ids, g.Intern(t))
	}
	total := 0
	for {
		added := 0
		for i := range e.prog {
			added += e.applyRule(i)
		}
		total += added
		if added == 0 {
			return total
		}
	}
}

// Derived returns rule-name provenance for the triples asserted by the last
// Run call.
func (e *Engine) Derived() map[rdf.Triple]string { return e.derived }

// resolve returns the node's ID under the current binding; an unbound
// variable resolves to 0, the wildcard.
func (e *Engine) resolve(n node) rdf.ID {
	if n.slot >= 0 {
		return e.slots[n.slot]
	}
	return e.ids[n.konst]
}

func (e *Engine) applyRule(ri int) int {
	r := &e.prog[ri]
	g := e.g
	if cap(e.slots) < r.nslots {
		e.slots = make([]rdf.ID, r.nslots)
	}
	e.slots = e.slots[:r.nslots]
	clear(e.slots)

	// Enumerate every complete binding first, then assert: asserting while
	// joining would let a rule observe its own conclusions mid-pass.
	e.matches = e.matches[:0]
	e.join(r, 0)

	added := 0
	for m := 0; m < len(e.matches); m += r.nslots {
		copy(e.slots, e.matches[m:m+r.nslots])
		if !e.checkGuards(r.guards) {
			continue
		}
		switch len(r.temps) {
		case 0:
		case 1:
			if e.tempFiringExists(r) {
				// A node minted for this match — earlier in this run or by a
				// previous one — already carries the head; re-firing would
				// duplicate it. This keeps makeTemp rules idempotent across
				// engine runs, not just within one.
				continue
			}
		default:
			key := firingKey(ri, e.slots)
			if e.fired[key] {
				continue
			}
			if e.fired == nil {
				e.fired = make(map[string]bool)
			}
			e.fired[key] = true
		}
		for _, v := range r.temps {
			e.slots[v] = g.Intern(g.NewBlankNode())
		}
		for _, h := range r.head {
			s, p, o := e.resolve(h[0]), e.resolve(h[1]), e.resolve(h[2])
			if g.AddIDs(s, p, o) {
				e.derived[rdf.Triple{S: g.Term(s), P: g.Term(p), O: g.Term(o)}] = r.name
				added++
			}
		}
	}
	return added
}

// join extends the current binding over body patterns k.., in source
// order, appending each complete binding to e.matches.
func (e *Engine) join(r *compiled, k int) {
	if k == len(r.body) {
		e.matches = append(e.matches, e.slots...)
		return
	}
	pat := &r.body[k]
	for c := e.g.Scan(e.resolve(pat[0]), e.resolve(pat[1]), e.resolve(pat[2])); c.Next(); {
		// Bind the pattern's unbound variables to the triple; a repeated
		// variable, e.g. (?x p ?x) against s != o, conflicts.
		vals := [3]rdf.ID{c.T.S, c.T.P, c.T.O}
		var bound [3]int32
		n, ok := 0, true
		for i, nd := range pat {
			if nd.slot < 0 {
				continue
			}
			if cur := e.slots[nd.slot]; cur == 0 {
				e.slots[nd.slot] = vals[i]
				bound[n] = nd.slot
				n++
			} else if cur != vals[i] {
				ok = false
				break
			}
		}
		if ok {
			e.join(r, k+1)
		}
		for _, s := range bound[:n] {
			e.slots[s] = 0
		}
	}
}

// tempFiringExists reports whether some existing node could have been the
// temp of an earlier firing with the same bindings: a node t such that every
// head triple holds with the temp variable bound to t (head triples not
// mentioning the temp must hold outright). Only the single-temp case is
// recognized; rules with several temps fall back to the per-run memo.
func (e *Engine) tempFiringExists(r *compiled) bool {
	v := r.temps[0]
	// Candidates come from the first head pattern mentioning the temp.
	for _, anchor := range r.head {
		pos := -1
		for i, nd := range anchor {
			if nd.slot == v {
				pos = i
				break
			}
		}
		if pos < 0 {
			continue
		}
		found := false
		for c := e.g.Scan(e.resolve(anchor[0]), e.resolve(anchor[1]), e.resolve(anchor[2])); !found && c.Next(); {
			e.slots[v] = [3]rdf.ID{c.T.S, c.T.P, c.T.O}[pos]
			found = true
			for _, h := range r.head {
				if !e.g.HasIDs(e.resolve(h[0]), e.resolve(h[1]), e.resolve(h[2])) {
					found = false
					break
				}
			}
		}
		e.slots[v] = 0
		return found
	}
	return false
}

func (e *Engine) checkGuards(guards []guard) bool {
	for _, gd := range guards {
		switch gd.name {
		case "noValue":
			c := e.g.Scan(e.resolve(gd.args[0]), e.resolve(gd.args[1]), e.resolve(gd.args[2]))
			if c.Next() {
				return false
			}
		case "equal":
			if e.resolve(gd.args[0]) != e.resolve(gd.args[1]) {
				return false
			}
		case "notEqual":
			if e.resolve(gd.args[0]) == e.resolve(gd.args[1]) {
				return false
			}
		case "lessThan", "greaterThan":
			a, okA := e.intValue(gd.args[0])
			c, okC := e.intValue(gd.args[1])
			if !okA || !okC {
				return false
			}
			if gd.name == "lessThan" && !(a < c) {
				return false
			}
			if gd.name == "greaterThan" && !(a > c) {
				return false
			}
		}
	}
	return true
}

func (e *Engine) intValue(n node) (int, bool) {
	id := e.resolve(n)
	if id == 0 {
		return 0, false
	}
	return e.g.Term(id).Int()
}

// firingKey identifies one complete binding of one rule.
func firingKey(rule int, slots []rdf.ID) string {
	buf := make([]byte, 0, 4+4*len(slots))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rule))
	for _, id := range slots {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return string(buf)
}

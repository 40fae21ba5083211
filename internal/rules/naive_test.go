package rules

import (
	"encoding/binary"

	"repro/internal/rdf"
)

// NaiveEngine is rule evaluation as it was before Engine became
// semi-naive, kept as the reference the oracle in seminaive_test.go
// compares Engine against: every pass re-joins every rule over the whole
// graph, and a memo of the firings of rules with several makeTemp calls
// lasts one Run (so such a rule mints again in the next Run unless a guard
// blocks it). applyRule and join are the replaced code; the binding, guard
// and single-temp helpers, which did not change, are borrowed from Engine.
type NaiveEngine struct {
	*Engine
	fired map[string]bool
}

// NewNaiveEngine binds the reference evaluation of p to g.
func NewNaiveEngine(p *Program, g *rdf.Graph) *NaiveEngine {
	return &NaiveEngine{Engine: p.Engine(g)}
}

// Run saturates the graph under the rule set and returns the number of
// triples added. Derivation provenance is reset per call and readable via
// Derived afterwards.
func (e *NaiveEngine) Run() int {
	e.fired = nil
	e.derived = nil
	total := 0
	for {
		added := 0
		for i := range e.p.prog {
			added += e.applyRule(i)
		}
		total += added
		if added == 0 {
			return total
		}
	}
}

func (e *NaiveEngine) applyRule(ri int) int {
	r := &e.p.prog[ri]
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
				e.derived = append(e.derived, derivation{rdf.IDTriple{S: s, P: p, O: o}, ri})
				added++
			}
		}
	}
	return added
}

// join extends the current binding over body patterns k.., in source
// order, appending each complete binding to e.matches.
func (e *NaiveEngine) join(r *compiled, k int) {
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

// firingKey identifies one complete binding of one rule.
func firingKey(rule int, slots []rdf.ID) string {
	buf := make([]byte, 0, 4+4*len(slots))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rule))
	for _, id := range slots {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return string(buf)
}

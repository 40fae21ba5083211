package rules

import "repro/internal/rdf"

// Program is a rule set compiled for evaluation: each body split into
// patterns, guards and makeTemp slots, its variables numbered, the constant
// terms of all rules pooled. It is immutable once Compile returns, so one
// Program serves any number of graphs, concurrently; what an evaluation
// learns about one graph lives in that graph's Engine.
type Program struct {
	prog   []compiled
	consts []rdf.Term
}

// node is one compiled pattern slot: a variable's slot number, or (slot < 0)
// an index into Program.consts.
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

// Compile compiles the rules into a Program. Each rule must validate.
func Compile(rs []*Rule) *Program {
	p := &Program{}
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
				k = int32(len(p.consts))
				constIndex[n.Term] = k
				p.consts = append(p.consts, n.Term)
			}
			return node{slot: -1, konst: k}
		}
		pattern := func(pt Pattern) [3]node { return [3]node{compile(pt.S), compile(pt.P), compile(pt.O)} }
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
		p.prog = append(p.prog, c)
	}
	return p
}

// Engine evaluates a Program over one graph by semi-naive forward chaining
// to a fixpoint, and resumes: like reasoner.Saturator, each Run starts from
// what the graph's insertion log gained since the previous one, so another
// writer (the reasoner, a caller) may add triples between Runs.
//
// Evaluation order within a rule body differs from Jena in one deliberate
// way: triple patterns are joined first and guard builtins (noValue and the
// comparisons) are checked once the bindings are complete. The paper's
// assist rule (Fig. 6) lists noValue first with an unbound variable, where
// literal in-order evaluation would make the guard global rather than
// per-binding; deferring guards yields the per-binding reading the rule
// obviously intends.
type Engine struct {
	p *Program
	g *rdf.Graph
	// ids[i] is the graph ID of p.consts[i].
	ids []rdf.ID
	// marks[i] is the log length at which rule i was last joined, its
	// watermark (-1 before its first join): every binding made only of
	// triples below it has been enumerated.
	marks []int

	// The join in progress: body pattern delta is scanned over the log
	// range [w, now) — see join. slots holds the current binding of the
	// rule being evaluated (0 = unbound, which a Scan reads as a wildcard);
	// matches is the flat list of complete bindings of one rule, nslots IDs
	// each.
	delta, w, now int
	slots         []rdf.ID
	matches       []rdf.ID
	// derived lists every triple the engine asserted, in assertion order,
	// with the index of its rule; asserted has bit off set when the triple
	// at log offset off is one of them. The semantic indexer reads the
	// bits to fill the FromRules field of Table 2.
	derived  []derivation
	asserted []uint64
}

// derivation is one triple a rule asserted.
type derivation struct {
	t    rdf.IDTriple
	rule int
}

// Engine binds the program to g: the graph gains the rules' constant terms
// as dictionary entries, but no triple, until Run.
func (p *Program) Engine(g *rdf.Graph) *Engine {
	e := &Engine{
		p: p, g: g,
		ids:   make([]rdf.ID, len(p.consts)),
		marks: make([]int, len(p.prog)),
	}
	for i, t := range p.consts {
		e.ids[i] = g.Intern(t)
	}
	for i := range e.marks {
		e.marks[i] = -1
	}
	return e
}

// Run saturates the graph under the program and returns the number of
// triples added. Each pass joins every rule against only the triples logged
// since its watermark, so a binding is enumerated once: by the rule's first
// join after the binding's last triple arrived. The graph is append-only,
// so a binding once enumerated stays complete, and a noValue guard that
// failed for it keeps failing.
func (e *Engine) Run() int {
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

// Derived returns rule-name provenance for every triple the engine has
// asserted, over all its Runs, in the graph's IDs. The engine asserts a
// triple only when it is new to the graph, so each maps to one rule.
func (e *Engine) Derived() map[rdf.IDTriple]string {
	out := make(map[rdf.IDTriple]string, len(e.derived))
	for _, d := range e.derived {
		out[d.t] = e.p.prog[d.rule].name
	}
	return out
}

// Asserted reports whether the triple at log offset off was asserted by
// one of the engine's rules — the provenance Derived maps by triple, read
// in O(1) through a Cursor's Offset.
func (e *Engine) Asserted(off int) bool {
	w := off / 64
	return w < len(e.asserted) && e.asserted[w]&(1<<(off%64)) != 0
}

// resolve returns the node's ID under the current binding; an unbound
// variable resolves to 0, the wildcard.
func (e *Engine) resolve(n node) rdf.ID {
	if n.slot >= 0 {
		return e.slots[n.slot]
	}
	return e.ids[n.konst]
}

func (e *Engine) applyRule(ri int) int {
	r := &e.p.prog[ri]
	g := e.g
	w, now := e.marks[ri], g.LogLen()
	if w == now {
		return 0 // nothing logged since the rule last joined
	}
	e.marks[ri] = now
	e.w, e.now = max(w, 0), now
	if cap(e.slots) < r.nslots {
		e.slots = make([]rdf.ID, r.nslots)
	}
	e.slots = e.slots[:r.nslots]
	clear(e.slots)

	// Enumerate every new binding first, then assert: asserting while
	// joining would let a rule observe its own conclusions mid-pass. A new
	// binding has a triple at or past w; delta k finds those whose first
	// such triple matches body pattern k. From w = 0 that is always pattern
	// 0, and the join is the full one. A rule without patterns has one
	// binding, the empty one, new at its first join only.
	e.matches = e.matches[:0]
	for e.delta = range r.body {
		if e.delta > 0 && e.w == 0 {
			break
		}
		e.join(r, 0)
	}
	if len(r.body) == 0 && w < 0 {
		e.join(r, 0)
	}

	added := 0
	for m := 0; m < len(e.matches); m += r.nslots {
		copy(e.slots, e.matches[m:m+r.nslots])
		if !e.checkGuards(r.guards) {
			continue
		}
		if len(r.temps) == 1 && e.tempFiringExists(r) {
			// A node minted for a binding with this head — earlier in this
			// join or by an earlier engine over the graph — already
			// carries it; re-firing would duplicate it. Rules with several
			// temps have no single anchor and mint once per enumeration of
			// a binding.
			continue
		}
		for _, v := range r.temps {
			e.slots[v] = g.Intern(g.NewBlankNode())
		}
		for _, h := range r.head {
			s, p, o := e.resolve(h[0]), e.resolve(h[1]), e.resolve(h[2])
			if g.AddIDs(s, p, o) {
				e.derived = append(e.derived, derivation{rdf.IDTriple{S: s, P: p, O: o}, ri})
				off := g.LogLen() - 1
				for len(e.asserted) <= off/64 {
					e.asserted = append(e.asserted, 0)
				}
				e.asserted[off/64] |= 1 << (off % 64)
				added++
			}
		}
	}
	return added
}

// join extends the current binding over the rule body, one pattern per
// step, appending each complete binding to e.matches. Step 0 scans pattern
// e.delta over the log range [w, now); the later steps take the other
// patterns in source order, those before the delta pattern below w and
// those after it below now. A binding whose triples at or past w begin at
// pattern k is thereby enumerated by delta k and by no other, and a
// binding wholly below w — enumerated by an earlier join — by none.
func (e *Engine) join(r *compiled, step int) {
	if step == len(r.body) {
		e.matches = append(e.matches, e.slots...)
		return
	}
	k, from, to := step, 0, e.now
	switch {
	case step == 0:
		k, from = e.delta, e.w
	case step <= e.delta:
		k, to = step-1, e.w
	}
	pat := &r.body[k]
	for c := e.g.ScanRange(e.resolve(pat[0]), e.resolve(pat[1]), e.resolve(pat[2]), from, to); c.Next(); {
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
			e.join(r, step+1)
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
// recognized.
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

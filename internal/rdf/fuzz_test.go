package rdf

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// FuzzGraphMatchesMap drives a graph and, after a Clone, the clone too,
// through a sequence of operations decoded from the input, four bytes
// each: an operation and three term numbers (or, for Grow, three sizes).
// The terms are eight, so the triples are 512 and the table's probes
// collide. After every operation each graph must agree with a set of its
// triples (agree).
func FuzzGraphMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 2, 1, 2, 3, 0, 1, 2, 3, 3, 1, 2, 3})
	r := rand.New(rand.NewSource(1))
	for range 8 {
		in := make([]byte, 4*(16+r.Intn(maxGraphOps-16)))
		r.Read(in)
		f.Add(in)
	}
	// Fill, then probe every triple, then add each again: long probe paths
	// that end at the triple and duplicate adds that change nothing.
	var cycle []byte
	for _, op := range []byte{0, 2, 1} {
		for i := range byte(maxGraphOps / 3) {
			cycle = append(cycle, op, i&7, i>>3&7, (i*5)&7)
		}
	}
	f.Add(cycle)
	f.Fuzz(func(t *testing.T, in []byte) { graphOps(t, in) })
}

// maxGraphOps bounds the operations an input runs: enough for several
// resizes and collisions on most probe paths, few enough that the fuzzer's
// minimizer is done with an input in well under a second.
const maxGraphOps = 64

// graphOps runs the operations that in encodes, at most maxGraphOps.
// Add and AddIDs must report a change exactly when the set changes, Has
// and HasIDs read the set, and All at the end lists it.
func graphOps(t testing.TB, in []byte) {
	terms := []Term{
		soccerIRI("a"), soccerIRI("b"), soccerIRI("c"), soccerIRI("d"),
		soccerIRI("e"), NewBlank("f"), NewInt(7), NewLiteral("h"),
	}
	type side struct {
		g   *Graph
		ref map[IDTriple]bool
	}
	sides := []*side{{g: NewGraph(), ref: map[IDTriple]bool{}}}
	in = in[:min(len(in), 4*maxGraphOps)]
	for k := 0; k+4 <= len(in); k += 4 {
		op, a, b, c := in[k], in[k+1], in[k+2], in[k+3]
		sd := sides[int(op>>7)%len(sides)]
		g := sd.g
		tr := Triple{S: terms[a&7], P: terms[b&7], O: terms[c&7]}
		// it is tr's stored form, zero IDs for terms g has not seen.
		var it IDTriple
		it.S, _ = g.Lookup(tr.S)
		it.P, _ = g.Lookup(tr.P)
		it.O, _ = g.Lookup(tr.O)
		switch op & 7 {
		case 0:
			it = IDTriple{g.Intern(tr.S), g.Intern(tr.P), g.Intern(tr.O)}
			if got := g.AddIDs(it.S, it.P, it.O); got == sd.ref[it] {
				t.Fatalf("op %d: AddIDs%v = %v with the triple present: %v", k/4, it, got, sd.ref[it])
			}
			sd.ref[it] = true
		case 1:
			if got := g.Add(tr); got == sd.ref[it] {
				t.Fatalf("op %d: Add(%v) = %v with the triple present: %v", k/4, tr, got, sd.ref[it])
			}
			it, _ = g.lookup3(tr)
			sd.ref[it] = true
		case 2, 3, 4:
			if got := g.Has(tr); got != sd.ref[it] {
				t.Fatalf("op %d: Has(%v) = %v, want %v", k/4, tr, got, sd.ref[it])
			}
		case 5:
			clone := &side{g: g.Clone(), ref: maps.Clone(sd.ref)}
			sides = append(sides[:1], clone)
		case 6:
			g.Grow(int(a&15), int(b&15), int(c))
		case 7:
			// A term the graph never saw, and the zero ID, match nothing.
			if g.HasIDs(it.S, it.P, it.O) != sd.ref[it] || g.HasIDs(0, it.P, it.O) {
				t.Fatalf("op %d: HasIDs%v disagrees with the set", k/4, it)
			}
		}
		for i, sd := range sides {
			if err := agree(sd.g, sd.ref, tr.S); err != "" {
				t.Fatalf("op %d, graph %d: %s", k/4, i, err)
			}
		}
	}
	// Every triple HasIDs can be asked about, and All, which sorts.
	for i, sd := range sides {
		if err := agree(sd.g, sd.ref, terms...); err != "" {
			t.Fatalf("graph %d at the end: %s", i, err)
		}
		all := sd.g.All()
		for _, tr := range all {
			if it, ok := sd.g.lookup3(tr); !ok || !sd.ref[it] {
				t.Fatalf("graph %d: All lists %v, outside the set", i, tr)
			}
		}
		if len(all) != len(sd.ref) {
			t.Fatalf("graph %d: All lists %d triples, the set holds %d", i, len(all), len(sd.ref))
		}
	}
}

// agree reports how g differs from the set ref of its triples, or
// "": Len is the set's size, Scan lists exactly its triples, and HasIDs
// finds exactly the set's triples among those with a subject in subjects.
func agree(g *Graph, ref map[IDTriple]bool, subjects ...Term) string {
	if g.Len() != len(ref) {
		return "Len differs from the set's"
	}
	n := ID(g.NumTerms())
	for _, s := range subjects {
		sid, ok := g.Lookup(s)
		if !ok {
			continue
		}
		for p := ID(1); p <= n; p++ {
			for o := ID(1); o <= n; o++ {
				if t := (IDTriple{sid, p, o}); g.HasIDs(t.S, t.P, t.O) != ref[t] {
					return fmt.Sprintf("HasIDs%v = %v, the set says %v", t, !ref[t], ref[t])
				}
			}
		}
	}
	// Terms number at most 8, so a triple's place in seen is its three IDs
	// in base 8.
	var seen [512]bool
	listed := 0
	for c := g.Scan(0, 0, 0); c.Next(); {
		k := (c.T.S-1)*64 + (c.T.P-1)*8 + c.T.O - 1
		if !ref[c.T] || seen[k] {
			return fmt.Sprintf("Scan lists %v outside the set, or twice", c.T)
		}
		seen[k] = true
		listed++
	}
	if listed != len(ref) {
		return "Scan misses a triple of the set"
	}
	return ""
}

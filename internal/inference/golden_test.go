package inference_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ie"
	"repro/internal/inference"
	"repro/internal/populate"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/soccer"
)

// canonicalTriples renders triples with every blank label replaced by a
// digest of the node's own non-blank (predicate, object) pairs, then
// sorts: two graphs that differ only in blank labels render identically.
func canonicalTriples(g *rdf.Graph, ts []rdf.Triple) []string {
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
		n := fmt.Sprintf("_:%016x", h.Sum64())
		names[t] = n
		return n
	}
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = name(t.S) + " " + name(t.P) + " " + name(t.O)
	}
	sort.Strings(out)
	return out
}

func digest(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// saturationStream renders one line per page: size and digest of the
// saturated triple set, size and digest of the RuleProvenance key set.
func saturationStream(t testing.TB) string {
	ont := soccer.BuildOntology()
	r := reasoner.New(ont)
	ruleSet := soccer.Rules()
	gen := corpus.New(corpus.Spec{TargetDocs: 1 << 30, Seed: 20100301})
	var out strings.Builder
	for i := 0; i < 30; i++ {
		page, err := gen.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		pm := (&populate.Populator{Ontology: ont}).Populate(page, ie.Extractor{}.ExtractMatch(page))
		before := pm.Model.Graph.Len()
		res := inference.Run(r, ruleSet, pm.Model)
		if pm.Model.Graph.Len() != before {
			t.Fatalf("page %d: Run modified its input model", i)
		}
		g := res.Model.Graph
		all := canonicalTriples(g, g.All())
		keys := make([]rdf.Triple, 0, len(res.RuleProvenance))
		for tr, rule := range res.RuleProvenance {
			if rule == "" || !g.Has(tr) {
				t.Fatalf("page %d: provenance entry %v (%q) not in the model", i, tr, rule)
			}
			keys = append(keys, tr)
		}
		prov := canonicalTriples(g, keys)
		fmt.Fprintf(&out, "%d %d %016x %d %016x\n", i, len(all), digest(all), len(prov), digest(prov))
	}
	return out.String()
}

// TestGoldenSaturation pins inference.Run's output on the first 30
// benchmark pages — the saturated triple set and the RuleProvenance key
// set, blank labels normalised — to what commit f62d030 produced, before
// the graph storage, the saturation loop and the rule engine were rebuilt.
func TestGoldenSaturation(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "saturation.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(saturationStream(t), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("line %d (page triples digest provenance digest):\n got  %s\n want %v", i+1, line, wantLines[min(i, len(wantLines)-1)])
		}
	}
}

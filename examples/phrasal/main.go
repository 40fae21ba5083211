// Phrasal expressions (Section 6): resolving the structural ambiguity of
// keyword queries. "foul daniel florent" cannot say who fouled whom; the
// PHR_EXP index adds subject/object phrase fields ("by daniel" / "to
// florent") that the query parser routes explicitly.
//
//	go run ./examples/phrasal
package main

import (
	"fmt"

	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

func main() {
	// The default corpus guarantees both orientations exist: Daniel (Alves,
	// Barcelona) fouls Florent (Malouda, Chelsea) and vice versa.
	corpus := soccer.Generate(soccer.DefaultConfig())
	pages := crawler.PagesFromCorpus(corpus)
	b := semindex.NewBuilder()
	inf := b.Build(semindex.FullInf, pages)
	phr := b.Build(semindex.PhrExp, pages)

	queries := []string{
		"foul by daniel",
		"foul by daniel to florent",
		"foul by florent to daniel",
	}
	for _, q := range queries {
		fmt.Printf("query: %q\n", q)
		for _, si := range []*semindex.SemanticIndex{inf, phr} {
			hits := si.Search(q, 1)
			if len(hits) == 0 {
				fmt.Printf("  %-9s no hits\n", si.Level)
				continue
			}
			h := hits[0]
			fmt.Printf("  %-9s top: subject=%-16s object=%-16s (%s)\n",
				si.Level, h.Meta(semindex.MetaSubject), h.Meta(semindex.MetaObject),
				h.Doc().Get(semindex.FieldNarration))
		}
		fmt.Println()
	}
	fmt.Println("FULL_INF cannot tell the subject from the object; PHR_EXP can —")
	fmt.Println("the paper's Table 6, reproduced by `go run ./cmd/soceval -table 6`.")
}

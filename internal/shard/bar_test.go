package shard

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/semindex"
)

// TestSharedBarKeepsCrossShardTies pins the one place the shared top-k bar
// could lose a hit: a document of one shard scoring exactly the bar another
// shard raised. Six copies of one page, differing only in their IDs, sit on
// alternating shards in arrival order, so every document has an exact twin
// on the other shard and the global docIDs of the twins interleave. At every
// limit from 1 to 12 the engine must rank exactly like a monolith's
// ExhaustiveSearch, bit for bit: when the cut falls inside a group of twins,
// the lower global docIDs win whichever shard holds them, so a shard that
// drops a document scoring exactly the bar fails here. The engine runs the
// queries twice: in shard order on the caller's goroutine, as an engine
// this small searches, and with its slice lowered so that a helper can
// search shard 1 while shard 0 raises the bar.
func TestSharedBarKeepsCrossShardTies(t *testing.T) {
	src := oracleCorpus()[0][0]
	var pages []*crawler.MatchPage
	for i := 0; len(pages) < 6; i++ {
		id := fmt.Sprintf("tie%03d", i)
		if shardFor(id, 2) == len(pages)%2 {
			p := *src
			p.ID = id
			pages = append(pages, &p)
		}
	}
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	defer e.Close()
	o := newMonoOracle(pages)
	// The reference ranks through the exhaustive path.
	exhaustive := func(query string) (hits []semindex.Hit) {
		pq := semindex.Prepare(o.si.Level, o.si.Index.Analyzer(), o.si.Index.HasField, query, o.si.Stats)
		for _, h := range pq.ExhaustiveSearch(o.si.Index, 0) {
			hits = append(hits, semindex.NewHit(o.si.Index, h.DocID, h.Score))
		}
		return hits
	}
	shardOf := map[int]int{}
	for i, p := range pages {
		for _, gid := range o.byPage[p.ID] {
			shardOf[gid] = i % 2
		}
	}

	crossTies := 0
	for _, mode := range []string{"caller", "helpers"} {
		if mode == "helpers" {
			e.SetSliceDocs(1)
		}
		t.Run(mode, func(t *testing.T) {
			for _, q := range eval.PaperQueries() {
				all := exhaustive(q.Keywords)
				for limit := 1; limit <= 12; limit++ {
					want := all[:min(limit, len(all))]
					if limit < len(all) && all[limit-1].Score == all[limit].Score &&
						shardOf[all[limit-1].DocID] != shardOf[all[limit].DocID] {
						crossTies++
					}
					res, err := e.Search(context.Background(), q.Keywords, SearchOptions{Limit: limit, NoCache: true})
					if err == nil {
						err = sameHits(res.Hits, want)
					}
					if err != nil {
						t.Fatalf("%q at limit %d: %v", q.Keywords, limit, err)
					}
				}
			}
		})
	}
	// The premise: some cuts fall between twins on different shards.
	if crossTies == 0 {
		t.Fatal("no limit cut a group of tied documents spread over both shards")
	}
}

package shard

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/semindex"
)

// TestSearchAllocationCeiling bounds what one cold Engine.Search allocates
// on a two-shard engine at limit 10, per query class, on a heap engine and
// on the same engine saved and reopened mapped. The ceilings sit about a
// third above the measured figures. Heap: keyword 107, phrase 111, fuzzy
// 120 at the commit that introduced them; 115, 339 and 289 before it, when
// every shard re-parsed the text and every field clause re-analyzed it — so
// a change that brings back per-shard parsing, per-field analysis or a
// vocabulary copy per fuzzy clause fails here before it shows in the
// benchmark. Mapped: keyword 143, phrase 129, fuzzy 144 with two buffer
// allocations per posting cursor, docIDs and position ends (377, 409 and
// 276 at commit 5e50b69, whose cursors grew up to five buffers each by
// append) — so a cursor that goes back to growing its buffers, or to
// decoding a section into a fresh one per block, fails here.
func TestSearchAllocationCeiling(t *testing.T) {
	pages, _ := fixture(t)
	heap := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	base := filepath.Join(t.TempDir(), "idx.bin")
	if err := heap.Save(base); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	opts := SearchOptions{Limit: 10, NoCache: true}
	for _, c := range []struct {
		class, query string
		heap, mapped float64
	}{
		{"keyword", "messi barcelona goal", 140, 165},
		{"phrase", `"yellow card" barcelona`, 145, 175},
		{"fuzzy", "mesi~ goal", 160, 175},
	} {
		for _, arm := range []struct {
			name    string
			e       *Engine
			ceiling float64
		}{{"heap", heap, c.heap}, {"mapped", mapped, c.mapped}} {
			res, err := arm.e.Search(context.Background(), c.query, opts)
			if err != nil || len(res.Hits) == 0 {
				t.Fatalf("%s %s %q: %d hits, err %v", arm.name, c.class, c.query, len(res.Hits), err)
			}
			got := testing.AllocsPerRun(50, func() { arm.e.Search(context.Background(), c.query, opts) })
			t.Logf("%s %s: %v allocations per search", arm.name, c.class, got)
			if got > arm.ceiling {
				t.Errorf("%s %s %q: %v allocations per search, ceiling %v", arm.name, c.class, c.query, got, arm.ceiling)
			}
		}
	}
}

package shard_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/loadgen"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// BenchmarkScatterLadder times cold searches through the scatter's two
// claim modes on two-shard engines of 10k to 100k documents, built from
// the benchmark's frozen corpus spec, with the benchmark's 500-query pool
// (keyword 5 : phrase 2 : field 2 : fuzzy 1) at limit 10. "caller" searches
// the shards in order on the caller's goroutine, "helpers" claims them
// beside a helper goroutine; the engine picks helpers from two slices
// (sliceDocs) of live documents up. Each search is timed on its own and
// the sub-benchmark reports the p50, p95 and p99 in microseconds. Modes
// alternate within one process per size; for the ladder in EXPERIMENTS.md:
//
//	go test -run '^$' -bench ScatterLadder -benchtime 2000x -count 4 ./internal/shard
func BenchmarkScatterLadder(b *testing.B) {
	const seed = 20100301 // the benchmark's corpusSeed
	mix := map[loadgen.Class]int{loadgen.ClassKeyword: 5, loadgen.ClassPhrase: 2, loadgen.ClassField: 2, loadgen.ClassFuzzy: 1}
	ctx, opts := context.Background(), shard.SearchOptions{Limit: 10, NoCache: true}
	for _, docs := range []int{10_000, 20_000, 40_000, 70_000, 100_000} {
		g := corpus.New(corpus.Spec{TargetDocs: docs, Seed: seed})
		eng, err := shard.BuildStream(nil, semindex.FullInf, g, shard.Options{Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		pool := loadgen.GenerateQueries(loadgen.VocabFromUniverse(g.Universe()), mix, 500, seed)
		for _, mode := range []struct {
			name  string
			slice int
		}{{"caller", math.MaxInt}, {"helpers", 1}} {
			b.Run(fmt.Sprintf("docs=%dk/%s", docs/1000, mode.name), func(b *testing.B) {
				eng.SetSliceDocs(mode.slice)
				for _, q := range pool {
					eng.Search(ctx, q.Text, opts)
				}
				took := make([]time.Duration, b.N)
				b.ResetTimer()
				for i := range took {
					start := time.Now()
					eng.Search(ctx, pool[i%len(pool)].Text, opts)
					took[i] = time.Since(start)
				}
				b.StopTimer()
				slices.Sort(took)
				for _, p := range []int{50, 95, 99} {
					b.ReportMetric(float64(took[(len(took)-1)*p/100].Nanoseconds())/1e3, fmt.Sprintf("p%d-us", p))
				}
			})
		}
		eng.Close()
	}
}

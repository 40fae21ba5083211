// Command socbench is the benchmark smoke harness behind CI's BENCH_*.json
// artifacts: it builds the sharded FULL_INF engine, measures it, and
// writes one machine-readable file per mode. It is deliberately
// in-process (no `go test` exec) so one static binary run produces one
// artifact.
//
//	socbench -out BENCH_3.json
//	socbench -matches 50 -shards 8 -iters 1000 -out -
//
// The default (overhead) mode records query p50/p95, build throughput,
// and the instrumented-vs-uninstrumented p50 overhead percentage; the CI
// job fails the build if that overhead crosses the 5% acceptance bar.
//
// -mode cache switches to the query-cache sweep behind BENCH_4.json: a
// seeded Zipfian repeated-query mix runs once forced-cold (NoCache) and
// once against the cache, reporting cold/warm latency quantiles, the hit
// rate, and a singleflight coalescing burst. -min-speedup makes CI fail
// when the warm p50 stops beating the cold p50.
//
//	socbench -mode cache -out BENCH_4.json
//	socbench -mode cache -zipf-s 1.4 -cache-mb 16 -min-speedup 5
//
// -mode coldpath switches to the BENCH_5.json scoring-kernel comparison:
// the always-cold query mix runs through the pruned document-at-a-time
// kernel and the term-at-a-time exhaustive path at limits 10 and 100,
// reporting per-path latency quantiles, allocations per query, and the
// naive-vs-pruned speedup. -min-speedup makes CI fail when pruning stops
// paying at limit 10.
//
//	socbench -mode coldpath -out BENCH_5.json
//	socbench -mode coldpath -min-speedup 2
//
// -mode load switches to the BENCH_6.json scale-truth sweep: for each
// -size tier (comma-separated, e.g. 10k,100k,1M) it streams a synthetic
// corpus through the sharded build (internal/corpus — peak memory
// independent of corpus size), then drives a closed-loop Zipfian query
// mix of keyword/phrase/field/fuzzy/suggest classes against the engine
// (internal/loadgen), recording build throughput, QPS and p50/p95/p99/
// p999 latency per tier. -slo declares assertions ("p99<50ms,
// error_rate<1%") checked against every tier; any violation exits 1.
//
//	socbench -mode load -size 10k -slo 'p99<50ms,error_rate<1%' -out BENCH_6.json
//	socbench -mode load -size 10k,100k,1M -workers 8 -requests 5000
//
// -mode ingest switches to the BENCH_9.json write-firehose comparison:
// two 10k-document engines — one with scoped (per-shard epoch +
// footprint/statistics) cache invalidation, one with the legacy
// evict-on-any-write policy — each take a paced hot-page upsert stream
// at -write-rate writes/s while closed-loop Zipfian readers measure the
// warm path. The report carries each arm's hit rate, eviction counters
// and latency under fire; -min-hit-rate and -max-p99-ms gate the scoped
// arm in CI.
//
//	socbench -mode ingest -out BENCH_9.json
//	socbench -mode ingest -shards 8 -write-rate 100 -min-hit-rate 0.5 -max-p99-ms 50
//
// -mode coldstart switches to the BENCH_10.json heap-vs-mapped serving
// comparison: a -size tier corpus is built, checkpointed and dropped,
// then the snapshot is opened heap-decoded and memory-mapped, recording
// each arm's open time, warm always-cold query quantiles, and post-GC
// live heap after the warm workload. -min-open-speedup fails CI when the
// mapped open stops beating the full decode, -max-heap-ratio when the
// mapped arm's steady-state heap stops undercutting the heap arm, and
// -max-warm-slowdown when lazy block decode costs too much warm latency.
//
//	socbench -mode coldstart -size 100k -out BENCH_10.json
//	socbench -mode coldstart -size 100k -min-open-speedup 10 -max-heap-ratio 0.33 -max-warm-slowdown 1.5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/shard"
	"repro/internal/soccer"
)

// report is the BENCH_3.json schema.
type report struct {
	Config   config  `json:"config"`
	Build    build   `json:"build"`
	Query    latency `json:"query"`
	Overhead ovh     `json:"overhead"`
}

type config struct {
	Matches int `json:"matches"`
	Shards  int `json:"shards"`
	Iters   int `json:"iters"`
}

type build struct {
	Docs       int     `json:"docs"`
	Seconds    float64 `json:"seconds"`
	DocsPerSec float64 `json:"docs_per_sec"`
}

type ovh struct {
	InstrumentedP50us   float64 `json:"instrumented_p50_us"`
	UninstrumentedP50us float64 `json:"uninstrumented_p50_us"`
	P50OverheadPct      float64 `json:"p50_overhead_pct"`
}

func main() {
	fs := flag.NewFlagSet("socbench", flag.ExitOnError)
	matches := fs.Int("matches", 10, "corpus size (paper scale is 10)")
	shards := fs.Int("shards", 4, "engine shard count")
	iters := fs.Int("iters", 400, "measured queries per arm and round")
	rounds := fs.Int("rounds", 3, "alternating measurement rounds per arm (best round wins)")
	maxOverhead := fs.Float64("max-overhead", 0, "fail (exit 1) if p50 overhead exceeds this percentage (0 = report only)")
	mode := fs.String("mode", "overhead", `benchmark: "overhead" (BENCH_3, observability price), "cache" (BENCH_4, query-cache sweep), "coldpath" (BENCH_5, scoring-kernel comparison), "load" (BENCH_6, scale-truth load/SLO sweep), "ingest" (BENCH_9, scoped-vs-legacy cache invalidation under a write firehose) or "coldstart" (BENCH_10, heap-vs-mapped open time, live heap and warm latency)`)
	zipfS := fs.Float64("zipf-s", 1.2, "cache/load mode: Zipf exponent of the repeated-query mix")
	cacheMB := fs.Int("cache-mb", 64, "cache/load mode: query-cache capacity in MiB")
	minSpeedup := fs.Float64("min-speedup", 0, "cache/coldpath mode: fail (exit 1) if the p50 speedup falls below this factor (0 = report only)")
	size := fs.String("size", "10k", "load mode: comma-separated corpus tiers (e.g. 10k,100k,1M)")
	workers := fs.Int("workers", 4, "load mode: closed-loop worker concurrency")
	requests := fs.Int("requests", 2000, "load mode: measured requests per tier")
	warmup := fs.Int("warmup", 200, "load mode: warmup requests per tier (excluded from statistics)")
	slo := fs.String("slo", "", `load mode: SLO assertions, e.g. "p99<50ms,error_rate<1%" (violation = exit 1)`)
	seed := fs.Int64("seed", 42, "load mode: corpus and workload seed")
	writeRate := fs.Int("write-rate", 100, "ingest mode: hot-page upserts per second")
	window := fs.Int("seconds", 10, "ingest mode: measurement window per arm, in seconds")
	minHitRate := fs.Float64("min-hit-rate", 0, "ingest mode: fail (exit 1) if the scoped arm's warm hit rate falls below this fraction (0 = report only)")
	maxP99 := fs.Float64("max-p99-ms", 0, "ingest mode: fail (exit 1) if the scoped arm's p99 exceeds this many milliseconds (0 = report only)")
	minOpenSpeedup := fs.Float64("min-open-speedup", 0, "coldstart mode: fail (exit 1) if mapped open is not this many times faster than the heap decode (0 = report only)")
	maxHeapRatio := fs.Float64("max-heap-ratio", 0, "coldstart mode: fail (exit 1) if the mapped arm's steady-state live heap exceeds this fraction of the heap arm's (0 = report only)")
	maxWarmSlowdown := fs.Float64("max-warm-slowdown", 0, "coldstart mode: fail (exit 1) if the mapped warm p50 exceeds this multiple of the heap arm's (0 = report only)")
	out := fs.String("out", "", "output file (- = stdout; default BENCH_<n>.json by mode)")
	fs.Parse(os.Args[1:])
	if *out == "" {
		switch *mode {
		case "cache":
			*out = "BENCH_4.json"
		case "coldpath":
			*out = "BENCH_5.json"
		case "load":
			*out = "BENCH_6.json"
		case "ingest":
			*out = "BENCH_9.json"
		case "coldstart":
			*out = "BENCH_10.json"
		default:
			*out = "BENCH_3.json"
		}
	}

	// Coldstart mode builds its own tier snapshot and opens it both ways.
	if *mode == "coldstart" {
		docs, err := corpus.ParseSize(strings.SplitN(*size, ",", 2)[0])
		if err != nil {
			cli.Fatal(err)
		}
		runColdstartBench(coldstartConfig{
			Size: corpus.SizeLabel(docs), Docs: docs,
			Shards: *shards, Iters: *iters, Seed: *seed,
		}, *minOpenSpeedup, *maxHeapRatio, *maxWarmSlowdown, *out)
		return
	}

	// Ingest mode builds its own 10k engines (one per invalidation arm).
	if *mode == "ingest" {
		docs, err := corpus.ParseSize(strings.SplitN(*size, ",", 2)[0])
		if err != nil {
			cli.Fatal(err)
		}
		runIngestBench(ingestBenchConfig{
			Docs: docs, Shards: *shards, Workers: *workers,
			WriteRate: *writeRate, Seconds: *window,
			ZipfS: *zipfS, CacheMB: *cacheMB, Seed: *seed,
		}, *minHitRate, *maxP99, *out)
		return
	}

	// Load mode builds its own tiered corpora; the paper-scale engine
	// below would be wasted work.
	if *mode == "load" {
		runLoadBench(loadBenchConfig{
			Sizes: *size, Shards: *shards, Workers: *workers,
			Requests: *requests, Warmup: *warmup,
			ZipfS: *zipfS, CacheMB: *cacheMB, Seed: *seed,
		}, *slo, *out)
		return
	}

	cfg := soccer.DefaultConfig()
	cfg.Matches = *matches
	pages := crawler.PagesFromCorpus(soccer.Generate(cfg))

	buildStart := time.Now()
	eng := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: *shards})
	buildSec := time.Since(buildStart).Seconds()

	queries := make([]string, 0, len(eval.PaperQueries()))
	for _, q := range eval.PaperQueries() {
		queries = append(queries, q.Keywords)
	}

	if *mode == "cache" {
		runCacheBench(eng, queries, cacheBenchConfig{
			Matches: *matches, Shards: *shards, Iters: *iters,
			ZipfS: *zipfS, CacheMB: *cacheMB,
		}, *minSpeedup, *out)
		return
	}
	if *mode == "coldpath" {
		runColdBench(eng, queries,
			config{Matches: *matches, Shards: *shards, Iters: *iters},
			*rounds, *minSpeedup, *out)
		return
	}

	// Alternate instrumented/uninstrumented rounds so drift (thermal, GC,
	// noisy neighbours) hits both arms; keep each arm's fastest round.
	reg := obs.NewRegistry()
	instr := make([][]time.Duration, 0, *rounds)
	plain := make([][]time.Duration, 0, *rounds)
	for r := 0; r < *rounds; r++ {
		eng.SetMetrics(reg)
		instr = append(instr, measure(eng, queries, *iters))
		eng.SetMetrics(nil)
		plain = append(plain, measure(eng, queries, *iters))
	}
	eng.SetMetrics(obs.Default)

	instrP50 := bestP50(instr)
	plainP50 := bestP50(plain)
	all := flatten(instr)

	rep := report{
		Config: config{Matches: *matches, Shards: *shards, Iters: *iters},
		Build: build{
			Docs: eng.NumDocs(), Seconds: buildSec,
			DocsPerSec: float64(eng.NumDocs()) / buildSec,
		},
		Query: latency{
			Iters: len(all),
			P50us: quantile(all, 0.50), P95us: quantile(all, 0.95),
		},
		Overhead: ovh{
			InstrumentedP50us:   instrP50,
			UninstrumentedP50us: plainP50,
			P50OverheadPct:      100 * (instrP50 - plainP50) / plainP50,
		},
	}

	writeReport(*out, rep, fmt.Sprintf("query p50 %.1fµs p95 %.1fµs, build %.0f docs/s, obs overhead %+.2f%%",
		rep.Query.P50us, rep.Query.P95us, rep.Build.DocsPerSec, rep.Overhead.P50OverheadPct))
	if *maxOverhead > 0 && rep.Overhead.P50OverheadPct > *maxOverhead {
		fmt.Fprintf(os.Stderr, "observability overhead %.2f%% exceeds the %.1f%% budget\n",
			rep.Overhead.P50OverheadPct, *maxOverhead)
		os.Exit(1)
	}
}

// measure runs iters queries (cycling the paper mix) after a short warmup
// and returns each query's wall time.
func measure(eng *shard.Engine, queries []string, iters int) []time.Duration {
	opts := shard.SearchOptions{Limit: 10}
	for i := 0; i < iters/10+1; i++ {
		eng.Search(context.Background(), queries[i%len(queries)], opts)
	}
	out := make([]time.Duration, iters)
	for i := 0; i < iters; i++ {
		start := time.Now()
		eng.Search(context.Background(), queries[i%len(queries)], opts)
		out[i] = time.Since(start)
	}
	return out
}

// Coldstart mode: the BENCH_10.json heap-vs-mapped serving comparison.
// One tier-sized corpus (internal/corpus, streamed so tier size costs
// index memory only) is built, checkpointed, and dropped; then the same
// snapshot is opened twice — once heap-decoded (the pre-mapped world:
// every posting and stored field materialized before the first query)
// and once memory-mapped (LoadOptions{Mapped}: O(manifest) open, blocks
// decoded lazily as queries touch them). Each arm records its open
// time, its warm always-cold query quantiles, and its post-GC live heap
// after the warm workload — the steady-state serving footprint. Three
// CI gates ride on the ratios: mapped open must beat heap decode by
// -min-open-speedup, steady-state heap must stay under -max-heap-ratio
// of the heap arm, and warm p50 must stay within -max-warm-slowdown.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/corpus"
	"repro/internal/loadgen"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// coldstartReport is the BENCH_10.json schema.
type coldstartReport struct {
	Config coldstartConfig `json:"config"`
	// Docs and SnapshotBytes describe the checkpoint both arms open.
	Docs          int          `json:"docs"`
	SnapshotBytes int64        `json:"snapshot_bytes"`
	Heap          coldstartArm `json:"heap"`
	Mapped        coldstartArm `json:"mapped"`
	// OpenSpeedup is heap open time / mapped open time — the cold-start
	// headline and the -min-open-speedup CI floor.
	OpenSpeedup float64 `json:"open_speedup"`
	// HeapRatio is mapped live heap / heap live heap after the warm
	// workload — the -max-heap-ratio CI ceiling.
	HeapRatio float64 `json:"heap_ratio"`
	// WarmSlowdown is mapped warm p50 / heap warm p50 — the lazy-decode
	// price, gated by -max-warm-slowdown.
	WarmSlowdown float64 `json:"warm_slowdown"`
}

// coldstartArm is one serving mode's measurement.
type coldstartArm struct {
	// OpenMs is the wall time of Load/LoadWith — snapshot bytes to
	// ready-to-serve engine.
	OpenMs float64 `json:"open_ms"`
	// LiveHeapBytes is post-GC HeapAlloc growth attributable to the open
	// engine after the warm workload ran — what serving actually pins.
	LiveHeapBytes uint64 `json:"live_heap_bytes"`
	// Warm holds always-cold (NoCache) query quantiles once the engine
	// (and, mapped, the page cache) is warm.
	Warm latency `json:"warm"`
}

type coldstartConfig struct {
	Size   string `json:"size"`
	Docs   int    `json:"docs"`
	Shards int    `json:"shards"`
	Iters  int    `json:"iters"`
	Seed   int64  `json:"seed"`
}

// coldstartQueryPool sizes the warm workload's distinct-query pool.
const coldstartQueryPool = 64

// runColdstartBench builds the tier snapshot, measures both arms, writes
// the report, and enforces the three CI gates.
func runColdstartBench(cfg coldstartConfig, minOpenSpeedup, maxHeapRatio, maxWarmSlowdown float64, out string) {
	dir, err := os.MkdirTemp("", "socbench-coldstart-*")
	if err != nil {
		cli.Fatal(err)
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "idx.bin")

	// Build + checkpoint, then drop the builder engine: both arms must
	// start from bytes on disk, not from a warm heap.
	g := corpus.New(corpus.Spec{TargetDocs: cfg.Docs, Seed: cfg.Seed})
	buildStart := time.Now()
	eng, err := shard.BuildStream(nil, semindex.FullInf, g, shard.Options{Shards: cfg.Shards})
	if err != nil {
		cli.Fatal(err)
	}
	if err := eng.Save(base); err != nil {
		cli.Fatal(err)
	}
	docs := eng.NumDocs()
	fmt.Fprintf(os.Stderr, "coldstart: built and checkpointed %d docs in %.1fs\n",
		docs, time.Since(buildStart).Seconds())
	queries := coldstartQueries(g, cfg.Seed)
	if len(queries) == 0 {
		cli.Fatal(fmt.Errorf("coldstart: empty query pool"))
	}
	var snapBytes int64
	for _, f := range shard.Fsck(base).Files {
		snapBytes += f.Size
	}
	eng = nil
	g = nil

	heapArm := measureColdstartArm(base, false, queries, cfg.Iters)
	mappedArm := measureColdstartArm(base, true, queries, cfg.Iters)

	rep := coldstartReport{
		Config:        cfg,
		Docs:          docs,
		SnapshotBytes: snapBytes,
		Heap:          heapArm,
		Mapped:        mappedArm,
		OpenSpeedup:   heapArm.OpenMs / mappedArm.OpenMs,
		HeapRatio:     float64(mappedArm.LiveHeapBytes) / float64(heapArm.LiveHeapBytes),
		WarmSlowdown:  mappedArm.Warm.P50us / heapArm.Warm.P50us,
	}

	writeReport(out, rep, fmt.Sprintf("open %.0fms heap vs %.1fms mapped (%.0fx), live heap %.0f vs %.0f MiB (%.2fx), warm p50 %.0fµs vs %.0fµs (%.2fx)",
		heapArm.OpenMs, mappedArm.OpenMs, rep.OpenSpeedup,
		float64(heapArm.LiveHeapBytes)/(1<<20), float64(mappedArm.LiveHeapBytes)/(1<<20), rep.HeapRatio,
		heapArm.Warm.P50us, mappedArm.Warm.P50us, rep.WarmSlowdown))
	failBelowFloor("mapped open speedup", rep.OpenSpeedup, minOpenSpeedup)
	failAboveCeiling("mapped/heap live-heap ratio", rep.HeapRatio, maxHeapRatio)
	failAboveCeiling("mapped/heap warm p50 slowdown", rep.WarmSlowdown, maxWarmSlowdown)
}

// coldstartQueries templates the warm workload from the corpus's own
// vocabulary — scoring-path classes only (no fuzzy/suggest probes), so
// the warm quantiles measure block decode, not edit-distance expansion.
func coldstartQueries(g *corpus.Generator, seed int64) []string {
	qs := loadgen.GenerateQueries(loadgen.VocabFromUniverse(g.Universe()),
		map[loadgen.Class]int{loadgen.ClassKeyword: 3, loadgen.ClassPhrase: 1, loadgen.ClassField: 1},
		coldstartQueryPool, seed)
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Text
	}
	return out
}

// measureColdstartArm opens the snapshot one way, runs the warm
// workload, and samples the steady-state live heap. The engine is
// closed (mappings released) before returning so the arms don't overlap.
func measureColdstartArm(base string, mapped bool, queries []string, iters int) coldstartArm {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	eng, err := shard.LoadWith(base, nil, shard.LoadOptions{Mapped: mapped})
	if err != nil {
		cli.Fatal(err)
	}
	openMs := float64(time.Since(start).Microseconds()) / 1e3

	// Warm workload: always-cold searches (NoCache) so every query pays
	// the scoring path; the first pass faults mapped blocks in, the
	// measured passes see the steady state.
	ctx := context.Background()
	opts := shard.SearchOptions{Limit: 10, NoCache: true}
	for i := 0; i < len(queries); i++ {
		if _, err := eng.Search(ctx, queries[i], opts); err != nil {
			cli.Fatal(err)
		}
	}
	samples := make([]time.Duration, iters)
	for i := 0; i < iters; i++ {
		qstart := time.Now()
		if _, err := eng.Search(ctx, queries[i%len(queries)], opts); err != nil {
			cli.Fatal(err)
		}
		samples[i] = time.Since(qstart)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	live := uint64(0)
	if after.HeapAlloc > before.HeapAlloc {
		live = after.HeapAlloc - before.HeapAlloc
	}
	arm := coldstartArm{
		OpenMs:        openMs,
		LiveHeapBytes: live,
		Warm: latency{
			Iters: iters,
			P50us: quantile(samples, 0.50), P95us: quantile(samples, 0.95),
		},
	}
	if err := eng.Close(); err != nil {
		cli.Fatal(err)
	}
	return arm
}

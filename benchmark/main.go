// Command benchmark is the repository's one repeatable benchmark: four
// workloads of fixed seeded work driven in-process through the engine's
// exported functions, end-to-end timings in reference-normalised
// milliseconds, and a separate traced run that times the calls into each
// layer from outside. README.md in this directory defines every workload
// and metric; BENCHMARK.json at the repository root is the contract the
// output is checked against.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// e2eMetrics and layerMetrics are the names BENCHMARK.json lists, with
// their units. Every run prints every name of its mode; a layer that is
// idle on a workload reads 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"}, {"heap_live_mb", "MiB"}, {"op_p50_ms", "ms"}, {"op_p95_ms", "ms"}, {"ops_per_s", "1/s"},
}

var layerMetrics = []metricDef{
	{"corpus.next_page_ms", "ms"},
	{"semindex.page_documents_ms", "ms"}, {"semindex.docs_per_page", "count"},
	{"index.add_us_per_doc", "us"}, {"shard.chunk_ms_first_quarter", "ms"}, {"shard.chunk_ms_last_quarter", "ms"},
	{"shard.search_p50_ms", "ms"}, {"shard.search_self_p50_ms", "ms"},
	{"index.shard_search_slowest_p50_ms", "ms"}, {"index.shard_search_p50_ms", "ms"}, {"index.shard_search_p95_ms", "ms"},
	{"index.shard_search_p50_ms.keyword", "ms"}, {"index.shard_search_p50_ms.phrase", "ms"},
	{"index.shard_search_p50_ms.field", "ms"}, {"index.shard_search_p50_ms.fuzzy", "ms"},
	{"index.encode_ms", "ms"}, {"index.encode_bytes", "B"}, {"index.decode_ms", "ms"}, {"index.open_mapped_ms", "ms"},
	{"shard.save_ms", "ms"}, {"shard.load_heap_ms", "ms"}, {"shard.load_mapped_p50_ms", "ms"},
	{"shard.first_touch_p50_ms", "ms"}, {"shard.snapshot_bytes_per_doc", "B"},
	{"index.merge_ms", "ms"}, {"index.merge_docs", "count"}, {"shard.force_merge_p50_ms", "ms"},
	{"shard.segments_at_merge", "count"}, {"shard.tombstones", "count"}, {"shard.ingest_commit_p50_ms", "ms"},
	{"shard.mixed_search_per_s", "1/s"},
	{"qcache.hit_share", "ratio"}, {"qcache.invalidations", "count"}, {"qcache.hit_p50_us", "us"},
	{"qcache.miss_p50_ms", "ms"}, {"qcache.get_ns", "ns"}, {"qcache.put_ns", "ns"},
	{"wal.append_us", "us"}, {"wal.bytes_per_doc", "B"},
	{"socserve.envelope_p50_ms", "ms"},
	{"env.ref_ms_p50", "ms"}, {"env.ref_ms_iqr", "ms"},
	{"raw.setup_s", "s"}, {"raw.op_p50_ms", "ms"}, {"raw.op_p95_ms", "ms"}, {"raw.ops_per_s", "1/s"},
	{"diag.op_p99_ms", "ms"}, {"diag.op_max_ms", "ms"}, {"diag.rss_peak_mb", "MiB"},
	{"diag.windows", "count"}, {"diag.op_samples", "count"}, {"diag.ref_samples", "count"},
	{"trace.overhead_share", "ratio"},
}

type metricDef struct{ name, unit string }

// report is what one run of one workload produces.
type report struct {
	attempted, failed int
	metrics           map[string]float64 // every name of the run's mode
	raw               map[string]float64 // wall-clock counterparts of the normalised end-to-end timings
	counters          map[string]int64
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs cfg.workload once. Untraced: one pass over all windows,
// reporting the end-to-end metrics. Traced: an untraced pass and a traced
// pass at a quarter of the windows each; the first supplies the raw and
// diagnostic values and the untraced p50 the overhead is taken against,
// the second everything measured around a call into a layer.
func runWorkload(cfg config) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	ref := newRefKernel()
	pass := func(traced bool, share int) (*harness, error) {
		h, err := newHarness(cfg, ref, traced, share)
		if err != nil {
			return nil, err
		}
		defer h.cleanup()
		if err := w.run(h); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return h, nil
	}

	rep := &report{metrics: map[string]float64{}}
	if !cfg.trace {
		h, err := pass(false, 1)
		if err != nil {
			return nil, err
		}
		rep.attempted, rep.failed, rep.counters = h.attempted, h.failed, h.counters
		rep.raw = map[string]float64{}
		for _, m := range e2eMetrics {
			rep.metrics[m.name] = h.e2e[m.name]
			if v, ok := h.layer["raw."+m.name]; ok {
				rep.raw["raw."+m.name] = v
			}
		}
		return rep, nil
	}

	plain, err := pass(false, 4)
	if err != nil {
		return nil, err
	}
	traced, err := pass(true, 4)
	if err != nil {
		return nil, err
	}
	if err := traced.tr.write(cfg.traceOut); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.attempted, rep.failed, rep.counters = plain.attempted+traced.attempted, plain.failed+traced.failed, plain.counters
	for _, m := range layerMetrics {
		v, ok := traced.layer[m.name]
		switch {
		case strings.HasPrefix(m.name, "raw."), strings.HasPrefix(m.name, "diag."), strings.HasPrefix(m.name, "env."), !ok:
			v = plain.layer[m.name]
		}
		rep.metrics[m.name] = v
	}
	if p := plain.e2e["op_p50_ms"]; p > 0 {
		rep.metrics["trace.overhead_share"] = traced.e2e["op_p50_ms"]/p - 1
	}
	return rep, nil
}

func (r *report) line(defs []metricDef) resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		out.Metrics[m.name] = metricValue{r.metrics[m.name], m.unit}
	}
	return out
}

// envBlock makes a result self-describing.
func envBlock(cfg config) map[string]any {
	w, _ := findWorkload(cfg.workload)
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu_model": cpuModel(), "seed": cfg.seed, "seconds": cfg.seconds, "scale": cfg.scale, "trace": cfg.trace,
		"workload": cfg.workload, "op": w.op, "ref_nominal_ms": refNominalMs, "corpus_seed": corpusSeed,
		"shards": shards, "parallelism": parallelism, "sizes": scales[cfg.scale],
		"note": "ms are reference-normalised (raw.* hold wall-clock values); mapped_serve opens are process-cold with a warm OS page cache, not disk-cold",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var cfg config
	var trace int
	var selfcheck bool
	var runs int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: query_cold, mapped_serve, ingest_mix or bulk_build; without it, all four in turn, each in its own process")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation sequence")
	flag.IntVar(&cfg.seconds, "seconds", 15, "nominal length of the measured phase; fixes the window count")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.scale, "scale", "full", "full, or tiny for a smoke run")
	flag.StringVar(&cfg.tmpRoot, "tmp", filepath.Join(".bench_build", "tmp"), "directory for snapshots and logs, emptied after the run")
	flag.StringVar(&cfg.traceOut, "trace-out", filepath.Join(".bench_build", "trace.json"), "where a traced run writes its spans")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload -runs times twice over (A/A) and compare the two sets against BENCHMARK.json's bounds")
	flag.IntVar(&runs, "runs", 5, "runs per set for -selfcheck, each with its own seed starting at -seed")
	flag.Parse()
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(parallelism)

	if selfcheck {
		os.Exit(runSelfcheck(cfg, runs))
	}
	if cfg.workload == "" {
		os.Exit(runAll(cfg))
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	printReport(cfg, rep, defs)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// printReport writes the env block, the exact counters and a table for
// people, then the result line the driver parses.
func printReport(cfg config, rep *report, defs []metricDef) {
	env, _ := json.Marshal(map[string]any{"env": envBlock(cfg), "counters": rep.counters, "raw": rep.raw})
	fmt.Println(string(env))
	for _, m := range defs {
		fmt.Printf("%-40s %16.6f %s\n", m.name, rep.metrics[m.name], m.unit)
	}
	line, _ := json.Marshal(rep.line(defs))
	fmt.Println(string(line))
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// contract is the part of BENCHMARK.json the smoke test holds the code to.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 3, seconds: 1, trace: trace, scale: "tiny",
		tmpRoot: filepath.Join(dir, "tmp"), traceOut: filepath.Join(dir, "trace.json")}
}

// The names and units the code prints are exactly the ones BENCHMARK.json
// promises, for workloads, end-to-end and per-layer metrics alike.
func TestNamesMatchContract(t *testing.T) {
	c := readContract(t)
	var want, got []string
	for _, w := range c.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: code has %v, BENCHMARK.json has %v", got, want)
	}
	pairs := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit)
		}
		sort.Strings(out)
		return out
	}
	listed := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	if got, want := pairs(e2eMetrics), listed(c.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics: code has %v, BENCHMARK.json has %v", got, want)
	}
	if got, want := pairs(layerMetrics), listed(c.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics: code has %v, BENCHMARK.json has %v", got, want)
	}
}

// Every workload runs at tiny scale, passes its own correctness gate,
// reports every end-to-end metric as a positive number, and does exactly
// the same work on a second run with the same seed: same operation
// sequence, same exact counters.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, err := runWorkload(tinyConfig(t, w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if first.failed != 0 || first.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", first.attempted, first.failed)
			}
			for _, m := range e2eMetrics {
				if v, ok := first.metrics[m.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want a positive value", m.name, v)
				}
			}
			second, err := runWorkload(tinyConfig(t, w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first.counters, second.counters) {
				t.Errorf("same seed, different work:\n%v\n%v", first.counters, second.counters)
			}
			if first.metrics["heap_live_mb"] <= 0 {
				t.Error("heap_live_mb not measured")
			}
		})
	}
}

// The traced run prints every per-layer metric, and on each workload the
// layers that workload drives read non-zero.
func TestTracedRunFillsItsLayers(t *testing.T) {
	busy := map[string][]string{
		"query_cold":   {"shard.search_p50_ms", "shard.search_self_p50_ms", "index.shard_search_p50_ms.fuzzy", "corpus.next_page_ms"},
		"mapped_serve": {"index.encode_ms", "index.decode_ms", "index.open_mapped_ms", "shard.save_ms", "shard.load_heap_ms", "shard.load_mapped_p50_ms", "shard.first_touch_p50_ms", "shard.snapshot_bytes_per_doc", "index.shard_search_p50_ms"},
		"ingest_mix":   {"semindex.page_documents_ms", "shard.ingest_commit_p50_ms", "shard.force_merge_p50_ms", "index.merge_ms", "shard.tombstones", "qcache.hit_share", "qcache.invalidations", "qcache.get_ns", "wal.append_us", "wal.bytes_per_doc", "shard.mixed_search_per_s"},
		"bulk_build":   {"semindex.page_documents_ms", "semindex.docs_per_page", "index.add_us_per_doc", "shard.chunk_ms_first_quarter", "shard.chunk_ms_last_quarter"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(t, w.name, true)
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("failed %d of %d", rep.failed, rep.attempted)
			}
			line := rep.line(layerMetrics)
			if len(line.Metrics) != len(layerMetrics) {
				t.Errorf("printed %d per-layer metrics, want %d", len(line.Metrics), len(layerMetrics))
			}
			for _, name := range append(busy[w.name], "env.ref_ms_p50", "raw.op_p50_ms", "diag.windows") {
				if !(rep.metrics[name] > 0) {
					t.Errorf("%s = %v on %s, want it measured", name, rep.metrics[name], w.name)
				}
			}
			if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
				t.Errorf("no trace written: %v", err)
			}
		})
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "window", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "request", Start: 10e6, End: 40e6},
		{ID: 3, Parent: 2, Name: "search", Start: 10e6, End: 30e6},
		{ID: 4, Parent: 1, Name: "request", Start: 50e6, End: 70e6},
	}}
	got := tr.selfMs()
	want := map[string]float64{"window": 50, "request": 30, "search": 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

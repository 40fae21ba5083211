package loadgen

import (
	"context"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/shard"
)

func testVocab(t *testing.T) Vocabulary {
	t.Helper()
	return VocabFromUniverse(corpus.NewUniverse(32, 1))
}

func TestGenerateQueriesDeterministicAndWellFormed(t *testing.T) {
	v := testVocab(t)
	a := GenerateQueries(v, nil, 400, 42)
	b := GenerateQueries(v, nil, 400, 42)
	if len(a) != 400 || len(b) != 400 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs for equal seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := GenerateQueries(v, nil, 400, 43); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatalf("different seeds produced the same opening queries")
	}
	seen := map[Class]int{}
	for _, q := range a {
		seen[q.Class]++
		switch q.Class {
		case ClassPhrase:
			if !strings.Contains(q.Text, `"`) {
				t.Errorf("phrase query without quotes: %q", q.Text)
			}
		case ClassField:
			if !strings.Contains(q.Text, ":") {
				t.Errorf("field query without a field: %q", q.Text)
			}
		case ClassFuzzy:
			if !strings.Contains(q.Text, "~") {
				t.Errorf("fuzzy query without ~: %q", q.Text)
			}
		}
	}
	for _, c := range []Class{ClassKeyword, ClassPhrase, ClassField, ClassFuzzy, ClassSuggest} {
		if seen[c] == 0 {
			t.Errorf("class %s absent from a 400-query default mix", c)
		}
	}
}

func TestGenerateQueriesRespectsMix(t *testing.T) {
	v := testVocab(t)
	qs := GenerateQueries(v, map[Class]int{ClassKeyword: 1}, 50, 7)
	for _, q := range qs {
		if q.Class != ClassKeyword {
			t.Fatalf("keyword-only mix emitted %s query %q", q.Class, q.Text)
		}
	}
}

// TestRunAgainstEngine drives the full closed loop against a small real
// engine: the result must account for every measured request, stay
// error-free, touch every query class and produce ordered quantiles.
func TestRunAgainstEngine(t *testing.T) {
	g := corpus.New(corpus.Spec{TargetDocs: 1200, Seed: 3, Teams: 16})
	eng, err := shard.BuildStream(nil, semindex.FullInf, g, shard.Options{Shards: 2})
	if err != nil {
		t.Fatalf("BuildStream: %v", err)
	}
	eng.EnableCache(1<<20, obs.NewRegistry())
	queries := GenerateQueries(VocabFromUniverse(g.Universe()), nil, 200, 5)
	cfg := Config{
		Workers:  4,
		Requests: 400,
		Warmup:   50,
		Seed:     9,
		Queries:  queries,
	}
	res, err := Run(context.Background(), &EngineTarget{Eng: eng}, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests != 400 {
		t.Fatalf("measured %d requests, want 400", res.Requests)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors against an undeadlined in-process engine", res.Errors)
	}
	if res.QPS <= 0 || res.Elapsed <= 0 {
		t.Fatalf("no throughput measured: qps=%f elapsed=%v", res.QPS, res.Elapsed)
	}
	if !(res.P50 <= res.P95 && res.P95 <= res.P99 && res.P99 <= res.P999) {
		t.Fatalf("quantiles out of order: %v %v %v %v", res.P50, res.P95, res.P99, res.P999)
	}
	if res.P50 <= 0 {
		t.Fatalf("p50 is zero")
	}
	classTotal := 0
	for _, n := range res.ByClass {
		classTotal += n
	}
	if classTotal != res.Requests {
		t.Fatalf("class counts sum to %d, want %d", classTotal, res.Requests)
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	g := corpus.New(corpus.Spec{TargetDocs: 600, Seed: 4, Teams: 16})
	eng, err := shard.BuildStream(nil, semindex.Trad, g, shard.Options{Shards: 2})
	if err != nil {
		t.Fatalf("BuildStream: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, &EngineTarget{Eng: eng}, Config{
		Requests: 1_000_000, // would take minutes if cancellation were ignored
		Queries:  GenerateQueries(VocabFromUniverse(g.Universe()), nil, 50, 1),
	})
	if err == nil {
		t.Fatalf("cancelled run returned no error (result %+v)", res)
	}
}

package shard

// Compaction tests beyond the composed oracle (oracle_test.go): the
// fan-out helper the compaction passes share, and ForceMerge, Save and the
// merger running beside ingest and search.

import (
	"context"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/semindex"
)

// mergeShard compacts shard s whether or not it is due: the single-shard
// merge the oracle's merge@n step runs.
func (e *Engine) mergeShard(s int) {
	e.mergeShards(func(i int) bool { return i == s })
}

// TestFanOutRunsEverySlotOnce: every slot runs exactly once, no more than
// GOMAXPROCS calls are ever in flight, and at GOMAXPROCS 1 the calls run
// in slot order.
func TestFanOutRunsEverySlotOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 16} {
			runs := make([]atomic.Int32, n)
			var inFlight, peak atomic.Int32
			var mu sync.Mutex
			var order []int
			fanOut(n, func(i int) {
				cur := inFlight.Add(1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				runs[i].Add(1)
				runtime.Gosched()
				inFlight.Add(-1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("GOMAXPROCS %d, %d slots: slot %d ran %d times", procs, n, i, got)
				}
			}
			if got := peak.Load(); got > int32(procs) {
				t.Errorf("GOMAXPROCS %d, %d slots: %d calls in flight at once", procs, n, got)
			}
			if procs == 1 && !slices.IsSorted(order) {
				t.Errorf("GOMAXPROCS 1, %d slots: ran in order %v", n, order)
			}
		}
	}
}

// TestFanOutOverlapsCalls: with GOMAXPROCS 2, two calls run at once. Each
// waits at a barrier the other must also reach, which a serial run passes
// only by the first call giving up.
func TestFanOutOverlapsCalls(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var arrived sync.WaitGroup
	arrived.Add(2)
	met := make(chan struct{})
	go func() {
		arrived.Wait()
		close(met)
	}()
	var alone atomic.Int32
	fanOut(2, func(int) {
		arrived.Done()
		select {
		case <-met:
		case <-time.After(10 * time.Second):
			alone.Add(1)
		}
	})
	if alone.Load() != 0 {
		t.Fatal("a call waited 10s at the barrier: the two calls never ran at once")
	}
}

// TestForceMergeSaveAndMergerRaceIngest runs ForceMerge and Save in loops
// beside one ingesting goroutine, two searching ones and the started
// merger on a 4-shard mapped engine, then holds the quiesced engine to the
// monolith replaying the same ingests. Run it under -race.
func TestForceMergeSaveAndMergerRaceIngest(t *testing.T) {
	corpus := oracleCorpus()
	var build, ingests []*crawler.MatchPage
	for _, v := range corpus[:oracleInitPages] {
		build = append(build, v[0])
	}
	for i, v := range corpus {
		if i >= oracleInitPages {
			ingests = append(ingests, v[0])
		}
		ingests = append(ingests, v[1])
	}
	ingests = append(ingests, corpus[0][2], corpus[5][2], corpus[0][0])

	base := filepath.Join(t.TempDir(), "idx")
	if err := Build(nil, semindex.FullInf, build, Options{Shards: 4}).Save(base); err != nil {
		t.Fatal(err)
	}
	e, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.EnableCache(8<<20, obs.NewRegistry())
	e.SetMetrics(obs.NewRegistry())
	e.StartMerger()

	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(op func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := op(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	loop(func() error { e.ForceMerge(); return nil })
	loop(func() error { return e.Save(base) })
	for _, q := range []string{"goal", "messi barcelona goal"} {
		loop(func() error {
			_, err := e.Search(ctx, q, SearchOptions{Limit: 10})
			return err
		})
	}
	for _, p := range ingests {
		if _, err := e.Ingest(ctx, []*crawler.MatchPage{p}, IngestOptions{}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	e.StopMerger()

	r := &oracleRun{e: e, o: newMonoOracle(build)}
	r.o.update(ingests...)
	if err := r.check(true); err != nil {
		t.Fatal(err)
	}
}

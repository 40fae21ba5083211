package shard

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/semindex"
)

// TestScatterSlices pins which goroutines a scatter searches on. An engine
// under two slices of live documents searches its shards in shard order on
// the caller's goroutine: for every query class, and for Related, shard i
// starts on the caller's goroutine once shards 0 to i-1 have finished, and
// no other shard is in flight, though shard 0 holds for a millisecond in
// which a helper, had one been started, would claim shard 1. With the slice
// lowered to one document and GOMAXPROCS 2, shard 0 waits at a barrier that
// only shard 1 can reach, so the search returns only if a helper took
// shard 1. At GOMAXPROCS 1 nothing overlaps, even with the slice lowered.
func TestScatterSlices(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var pages []*crawler.MatchPage
	for _, v := range oracleCorpus() {
		pages = append(pages, v[0])
	}
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	defer e.Close()
	if e.NumDocs() >= 2*sliceDocs {
		t.Fatalf("%d live documents: not a small engine", e.NumDocs())
	}
	queries := []string{"messi barcelona goal", `"yellow card" barcelona`, "event:goal barcelona", "mesi~ goal"}

	inOrder := func(mode string) {
		t.Helper()
		caller := goroutineID()
		type visit struct {
			shard     int
			goroutine string
			finished  []string
		}
		var mu sync.Mutex
		var visits []visit
		var tr *obs.Trace
		e.SetStall(func(i int) {
			if i == 0 {
				// Long enough for any helper started to claim shard 1.
				time.Sleep(time.Millisecond)
			}
			v := visit{shard: i, goroutine: goroutineID()}
			for _, sp := range tr.Spans() {
				v.finished = append(v.finished, sp.Name)
			}
			mu.Lock()
			visits = append(visits, v)
			mu.Unlock()
		})
		defer e.SetStall(nil)
		check := func(what string) {
			t.Helper()
			if len(visits) != 2 {
				t.Errorf("%s, %s: %d shard searches, want 2", mode, what, len(visits))
			}
			for i, v := range visits {
				var want []string
				if tr != nil {
					for s := range i {
						want = append(want, fmt.Sprintf("shard%d", s))
					}
				}
				if v.shard != i || v.goroutine != caller || !slices.Equal(v.finished, want) {
					t.Errorf("%s, %s: search %d was shard %d on goroutine %s after %v; want shard %d on the caller's goroutine %s after %v",
						mode, what, i+1, v.shard, v.goroutine, v.finished, i, caller, want)
				}
			}
			visits = nil
		}
		for _, q := range queries {
			for range 5 {
				tr = obs.NewTrace(q)
				res, err := e.Search(context.Background(), q, SearchOptions{Limit: 10, NoCache: true, Trace: tr})
				if err != nil || len(res.Hits) == 0 {
					t.Fatalf("%s, %q: %d hits, err %v", mode, q, len(res.Hits), err)
				}
				check(fmt.Sprintf("%q", q))
			}
		}
		tr = nil
		if len(e.Related(0, 10)) == 0 {
			t.Fatalf("%s: Related(0) found nothing", mode)
		}
		check("Related(0)")
	}

	runtime.GOMAXPROCS(2)
	inOrder("small engine, GOMAXPROCS 2")

	e.SetSliceDocs(1)
	defer e.SetSliceDocs(sliceDocs)
	var arrived sync.WaitGroup
	arrived.Add(2)
	met := make(chan struct{})
	go func() {
		arrived.Wait()
		close(met)
	}()
	var alone atomic.Int32
	e.SetStall(func(int) {
		arrived.Done()
		select {
		case <-met:
		case <-time.After(10 * time.Second):
			alone.Add(1)
		}
	})
	_, err := e.Search(context.Background(), queries[0], SearchOptions{Limit: 10, NoCache: true})
	e.SetStall(nil)
	if err != nil {
		t.Fatal(err)
	}
	if alone.Load() != 0 {
		t.Fatal("slice lowered, GOMAXPROCS 2: a shard waited 10s at the barrier; no helper took the other shard")
	}

	runtime.GOMAXPROCS(1)
	inOrder("slice lowered, GOMAXPROCS 1")
}

// goroutineID is the calling goroutine's number, read off its stack
// header ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

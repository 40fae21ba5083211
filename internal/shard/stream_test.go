package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

// TestBuildStreamMatchesMonolith pins the streaming build contract against
// the monolithic semindex build, not against Build (which is BuildStream
// over a slice): for every shard count, chunk size (one page, two pages,
// one chunk for the whole corpus) and preparation pool, the engine must
// have the monolith's document count and integer corpus statistics and
// return its full ranking — documents, scores, tie order — for every
// paper query. A pipeline that let a chunk's commits overtake the previous
// chunk's would reorder a shard's local IDs and fail here.
func TestBuildStreamMatchesMonolith(t *testing.T) {
	pages, _ := fixture(t)
	oracle := newMonoOracle(pages)
	wantStats := oracle.si.Index.LocalStats()
	for _, shards := range []int{1, 2, 4} {
		for _, chunk := range []int{1, 2, 512} {
			for _, par := range []int{1, 0} {
				label := fmt.Sprintf("shards=%d/chunk=%d/par=%d", shards, chunk, par)
				e, err := BuildStream(nil, semindex.FullInf, &sliceSource{pages: pages},
					Options{Shards: shards, ChunkPages: chunk, Parallelism: par})
				if err != nil {
					t.Fatalf("%s: BuildStream: %v", label, err)
				}
				if got, want := e.NumDocs(), oracle.si.Index.NumDocs(); got != want {
					t.Fatalf("%s: NumDocs = %d, monolith %d", label, got, want)
				}
				if got := e.Stats().Global; !reflect.DeepEqual(got, wantStats) {
					t.Fatalf("%s: corpus statistics differ from the monolith's", label)
				}
				for _, q := range eval.PaperQueries() {
					assertSameHits(t, label+"/"+q.ID, searchN(e, q.Keywords, 0), oracle.si.Search(q.Keywords, 0))
				}
			}
		}
	}
}

// TestSealedBasesEncodeLikeUnsealed builds a three-shard engine, whose
// bases BuildStream seals side by side once the last chunk is committed,
// and requires each base to encode byte for byte like an unsealed index of
// the same documents Added in the same order.
func TestSealedBasesEncodeLikeUnsealed(t *testing.T) {
	const shards = 3
	pages, _ := fixture(t)
	e, err := BuildStream(nil, semindex.FullInf, &sliceSource{pages: pages},
		Options{Shards: shards, ChunkPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := semindex.NewBuilder()
	want := make([]*index.Index, shards)
	for s := range want {
		want[s] = index.New(b.Analyzer)
	}
	for _, page := range pages {
		for _, d := range b.PageDocuments(semindex.FullInf, page) {
			want[shardFor(page.ID, shards)].Add(d)
		}
	}
	encode := func(ix *index.Index) []byte {
		var payload bytes.Buffer
		toc, err := ix.EncodeWithTOC(&payload)
		if err != nil {
			t.Fatal(err)
		}
		return append(payload.Bytes(), toc...)
	}
	for s := range want {
		if !bytes.Equal(encode(e.base[s].ix), encode(want[s])) {
			t.Errorf("shard %d: the sealed base encodes differently from an unsealed build of its documents", s)
		}
	}
}

// failingSource errors after a few pages; the build must surface the
// error instead of committing a truncated engine.
type failingSource struct {
	pages []*crawler.MatchPage
	i     int
}

func (s *failingSource) NextPage() (*crawler.MatchPage, error) {
	if s.i >= len(s.pages) {
		return nil, fmt.Errorf("page source: connection reset")
	}
	p := s.pages[s.i]
	s.i++
	return p, nil
}

func TestBuildStreamPropagatesSourceError(t *testing.T) {
	cfg := soccer.DefaultConfig()
	cfg.Matches = 3
	pages := crawler.PagesFromCorpus(soccer.Generate(cfg))
	_, err := BuildStream(nil, semindex.Trad, &failingSource{pages: pages}, Options{Shards: 2})
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("want the source error, got %v", err)
	}
}

// gateAnalyzer is the standard analysis chain, except that the first
// text containing the sentinel parks its caller — a shard commit — until
// release is closed, announcing the park on parked.
type gateAnalyzer struct {
	index.StandardAnalyzer
	sentinel string
	parked   chan struct{}
	release  chan struct{}
}

func (a *gateAnalyzer) Analyze(text string) []string {
	if strings.Contains(text, a.sentinel) {
		select {
		case <-a.parked:
		default:
			close(a.parked)
			<-a.release
		}
	}
	return a.StandardAnalyzer.Analyze(text)
}

// TestBuildStreamSourceErrorWaitsForCommits: with one-page chunks, the
// source fails while the third page's shard commit is still running. The
// build must not return until that commit has finished — the commit is
// parked inside the analyzer, so an early return that skipped the wait
// would show up within the grace period — and then must return the
// source's error and leave no goroutine behind.
func TestBuildStreamSourceErrorWaitsForCommits(t *testing.T) {
	pages, _ := fixture(t)
	const sentinel = "zzgatezz"
	third := *pages[2]
	third.Narrations = append([]crawler.NarrationLine(nil), third.Narrations...)
	third.Narrations[0].Text += " " + sentinel
	src := &failingSource{pages: []*crawler.MatchPage{pages[0], pages[1], &third}}

	gate := &gateAnalyzer{sentinel: sentinel, parked: make(chan struct{}), release: make(chan struct{})}
	b := semindex.NewBuilder()
	b.Analyzer = gate

	start := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := BuildStream(b, semindex.FullInf, src, Options{Shards: 2, ChunkPages: 1})
		done <- err
	}()
	select {
	case <-gate.parked:
	case err := <-done:
		t.Fatalf("BuildStream returned (%v) before the third page's commit started", err)
	case <-time.After(30 * time.Second):
		t.Fatal("the third page's commit never reached the analyzer")
	}
	select {
	case err := <-done:
		t.Fatalf("BuildStream returned (%v) while a shard commit was still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate.release)
	if err := <-done; err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("want the source error, got %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed build, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

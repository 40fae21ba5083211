package shard

// LSM ingest tests: ranking equivalence across every merge state
// (including upserts and within-batch replacement), scoped cache
// invalidation, batched WAL replay, and checkpointing mid-LSM-state.

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/wal"
)

// monoOracle is a monolithic replay oracle for upsert sequences: it
// applies the same page-level operations the engine applies — tombstone
// the page's previous documents, append the new version at the end of
// the ID space — and rescoreses from tombstone-aware statistics after
// every step. Its docIDs therefore equal the engine's global IDs, and
// its ranking is what a from-scratch build over the live documents
// would produce.
type monoOracle struct {
	b      *semindex.Builder
	si     *semindex.SemanticIndex
	byPage map[string][]int
}

func newMonoOracle(pages []*crawler.MatchPage) *monoOracle {
	o := &monoOracle{b: semindex.NewBuilder(), byPage: map[string][]int{}}
	o.si = o.b.Build(semindex.FullInf, pages)
	for id := 0; id < o.si.Index.NumDocs(); id++ {
		pid := o.si.Index.Doc(id).Get(semindex.MetaMatchID)
		o.byPage[pid] = append(o.byPage[pid], id)
	}
	o.refresh()
	return o
}

func (o *monoOracle) refresh() {
	o.si.Index.SetCorpusStats(o.si.Index.LocalStats())
}

// update replays one page upsert: delete the previous version, append
// the new one.
func (o *monoOracle) update(page *crawler.MatchPage) {
	for _, id := range o.byPage[page.ID] {
		o.si.Index.Delete(id)
	}
	before := o.si.Index.NumDocs()
	o.b.AddPage(o.si, page)
	ids := make([]int, 0, o.si.Index.NumDocs()-before)
	for id := before; id < o.si.Index.NumDocs(); id++ {
		ids = append(ids, id)
	}
	o.byPage[page.ID] = ids
	o.refresh()
}

// TestLSMUpsertEquivalenceAcrossMergeStates is the extended ranking
// gate: after upserts (including a page repeated within one batch), the
// engine's full ranking — documents, scores, tie order — must equal the
// from-scratch oracle with segments unmerged, with only some shards
// merged, and fully merged.
func TestLSMUpsertEquivalenceAcrossMergeStates(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 3})
	oracle := newMonoOracle(pages)
	ctx := context.Background()

	check := func(label string) {
		t.Helper()
		for _, q := range eval.PaperQueries() {
			assertSameHits(t, q.ID+"/"+label, searchN(e, q.Keywords, 0), oracle.si.Search(q.Keywords, 0))
		}
	}

	// Batch 1: replace two pages in one atomic batch.
	if _, err := e.Ingest(ctx, []*crawler.MatchPage{pages[0], pages[3]}, IngestOptions{Merge: MergeNone}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	oracle.update(pages[0])
	oracle.update(pages[3])
	check("one-segment")

	// Batch 2: the same page twice within one batch — the second
	// occurrence must replace the first (within-batch tombstoning).
	if _, err := e.Ingest(ctx, []*crawler.MatchPage{pages[1], pages[1]}, IngestOptions{Merge: MergeNone}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	oracle.update(pages[1])
	oracle.update(pages[1])
	if st := e.Stats(); st.Segments == 0 || st.Tombstones == 0 {
		t.Fatalf("expected unmerged segments and tombstones, got %+v", st)
	}
	check("two-segments")

	// Mid-merge: compact one shard only; the others keep their segments.
	e.mergeShard(0)
	check("mid-merge")

	e.ForceMerge()
	if st := e.Stats(); st.Segments != 0 || st.Tombstones != 0 {
		t.Fatalf("ForceMerge left %d segments, %d tombstones", st.Segments, st.Tombstones)
	}
	check("merged")

	// Live doc count: every upsert replaced documents 1:1, so the count
	// must equal the oracle's live documents throughout.
	if got, want := e.NumDocs(), oracle.si.Index.LiveDocs(); got != want {
		t.Fatalf("NumDocs = %d, oracle %d", got, want)
	}
}

// TestNumDocsCountsSegmentDocs is the regression test for the
// visibility bug: documents sitting in not-yet-merged segments must be
// counted by NumDocs and Stats the moment Ingest returns.
func TestNumDocsCountsSegmentDocs(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages[:4], Options{Shards: 3})
	before := e.NumDocs()
	res, err := e.Ingest(context.Background(), []*crawler.MatchPage{pages[4], pages[5]}, IngestOptions{Merge: MergeNone})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Docs == 0 || res.Segment == 0 {
		t.Fatalf("batch committed nothing: %+v", res)
	}
	if st := e.Stats(); st.Segments == 0 {
		t.Fatal("batch produced no segment — the regression premise is gone")
	}
	if got, want := e.NumDocs(), before+res.Docs; got != want {
		t.Errorf("NumDocs = %d before merge, want %d (segment docs invisible)", got, want)
	}
	if st := e.Stats(); st.Docs != before+res.Docs {
		t.Errorf("Stats.Docs = %d before merge, want %d", st.Docs, before+res.Docs)
	}
	sum := 0
	for _, ps := range e.Stats().PerShard {
		sum += ps.Docs
	}
	if sum != before+res.Docs {
		t.Errorf("sum of PerShard docs = %d, want %d", sum, before+res.Docs)
	}
}

// scopedFixture finds a (query, page) pair where the query's statistics
// footprint has no postings on the page's owner shard — the setup where
// scoped invalidation can prove a cached answer survives the write.
func scopedFixture(t *testing.T, e *Engine, pages []*crawler.MatchPage) (string, *crawler.MatchPage) {
	t.Helper()
	var cands []string
	for _, p := range pages {
		for _, lines := range p.Lineups {
			for _, pl := range lines {
				cands = append(cands, strings.ToLower(pl.Short))
			}
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, p := range pages {
		s := shardFor(p.ID, len(e.base))
		for _, q := range cands {
			fp, ok := e.base[0].si.Prepare(q).Footprint()
			if !ok || len(fp) == 0 {
				continue
			}
			if !e.shardHasAnyLocked(s, fp) {
				return q, p
			}
		}
	}
	t.Fatal("fixture has no shard-local query term; enlarge the corpus")
	return "", nil
}

// TestScopedInvalidationKeepsDisjointEntries is the scoped-invalidation
// unit test: a write to shard S evicts exactly the cached answers whose
// shard-set or statistics it could touch. A query with no footprint on
// S stays a HIT across the write; a query matching the written page
// itself misses and recomputes; every answer equals a cold scatter.
func TestScopedInvalidationKeepsDisjointEntries(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	build := func() *Engine {
		e := Build(nil, semindex.FullInf, pages, Options{Shards: 4})
		e.EnableCache(1<<20, obs.NewRegistry())
		e.SetMetrics(obs.NewRegistry())
		return e
	}

	e := build()
	disjoint, target := scopedFixture(t, e, pages)
	// A query matching the target page itself — its shard-set contains
	// the written shard, so the write must evict it.
	var touching string
	for _, lines := range target.Lineups {
		for _, pl := range lines {
			touching = strings.ToLower(pl.Short)
			break
		}
		break
	}

	warm := func(eng *Engine, q string) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if _, err := eng.Search(ctx, q, SearchOptions{Limit: 10}); err != nil {
				t.Fatal(err)
			}
		}
	}
	status := func(eng *Engine, q string) CacheStatus {
		t.Helper()
		res, err := eng.Search(ctx, q, SearchOptions{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := eng.Search(ctx, q, SearchOptions{Limit: 10, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameHits(t, q+" vs cold", res.Hits, cold.Hits)
		return res.Cache
	}

	warm(e, disjoint)
	warm(e, touching)
	// Re-ingest the target page unchanged: only its owner shard's epoch
	// moves, and the corpus statistics net out to exactly their old
	// values.
	res, err := e.Ingest(ctx, []*crawler.MatchPage{target}, IngestOptions{Merge: MergeNone})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Tombstones == 0 {
		t.Fatalf("re-ingest tombstoned nothing: %+v", res)
	}
	if got := status(e, disjoint); got != CacheHit {
		t.Errorf("disjoint query after scoped write: %s, want %s", got, CacheHit)
	}
	if got := status(e, touching); got != CacheMiss {
		t.Errorf("touching query after scoped write: %s, want %s", got, CacheMiss)
	}
	// A second disjoint write: the entry's refreshed epochs must keep it
	// valid, not just the first time.
	if _, err := e.Ingest(ctx, []*crawler.MatchPage{target}, IngestOptions{Merge: MergeNone}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if got := status(e, disjoint); got != CacheHit {
		t.Errorf("disjoint query after second scoped write: %s, want %s", got, CacheHit)
	}
}

// TestMergeInvisibleToCache: compaction changes nothing observable, so
// cached answers survive a merge byte-identically.
func TestMergeInvisibleToCache(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	e := Build(nil, semindex.FullInf, pages[:4], Options{Shards: 3})
	e.EnableCache(1<<20, obs.NewRegistry())
	e.SetMetrics(obs.NewRegistry())
	if _, err := e.Ingest(ctx, []*crawler.MatchPage{pages[4], pages[0]}, IngestOptions{Merge: MergeNone}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	for _, q := range eval.PaperQueries() {
		if _, err := e.Search(ctx, q.Keywords, SearchOptions{Limit: 10}); err != nil {
			t.Fatal(err)
		}
	}
	e.ForceMerge()
	for _, q := range eval.PaperQueries() {
		res, err := e.Search(ctx, q.Keywords, SearchOptions{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != CacheHit {
			t.Errorf("%s after merge: %s, want %s", q.ID, res.Cache, CacheHit)
		}
		cold, err := e.Search(ctx, q.Keywords, SearchOptions{Limit: 10, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameHits(t, q.ID+" post-merge", res.Hits, cold.Hits)
	}
}

// TestIngestDurabilityAndAtomicityOptions exercises the IngestOptions
// surface: durability acknowledgement levels and the per-page WAL
// layout.
func TestIngestDurabilityAndAtomicityOptions(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	base := filepath.Join(t.TempDir(), "idx.bin")
	e := Build(nil, semindex.FullInf, pages[:3], Options{Shards: 2})
	if err := e.Save(base); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := e.AttachWAL(base, wal.Options{Policy: wal.SyncAlways}); err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	res, err := e.Ingest(ctx, []*crawler.MatchPage{pages[3]}, IngestOptions{Durability: DurSync})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Durability != "synced" {
		t.Errorf("DurSync ack = %q, want synced", res.Durability)
	}
	res, err = e.Ingest(ctx, []*crawler.MatchPage{pages[4]}, IngestOptions{Durability: DurAsync})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Durability != "buffered" {
		t.Errorf("DurAsync ack = %q, want buffered", res.Durability)
	}
	res, err = e.Ingest(ctx, []*crawler.MatchPage{pages[5], pages[0]}, IngestOptions{Atomicity: PerPage})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Pages != 2 || res.Durability != "logged" {
		t.Errorf("PerPage batch: %+v", res)
	}
	// A cancelled context refuses before committing anything.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Ingest(cctx, []*crawler.MatchPage{pages[1]}, IngestOptions{}); err == nil {
		t.Error("Ingest accepted a cancelled context")
	}

	// All three ingests (one record each for atomic + sync/async, two for
	// per-page) replay on a cold load into the same live corpus.
	e2, err := Load(base, nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got, want := e2.LoadReport().WALReplayed, 4; got != want {
		t.Errorf("replayed %d records, want %d", got, want)
	}
	if e2.NumDocs() != e.NumDocs() {
		t.Fatalf("reloaded %d docs, want %d", e2.NumDocs(), e.NumDocs())
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID+"/replayed", searchN(e2, q.Keywords, 10), searchN(e, q.Keywords, 10))
	}
}

// TestSaveLoadMidLSMState: a checkpoint taken with live segments,
// tombstones and ID-space holes compacts, records the next global ID in
// the manifest, and reloads byte-identically — with upserts continuing
// to work (pageGIDs rebuilt) and fresh IDs never reusing the holes.
func TestSaveLoadMidLSMState(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	base := filepath.Join(t.TempDir(), "idx.bin")
	e := Build(nil, semindex.FullInf, pages[:5], Options{Shards: 3})
	// An upsert and an append, left unmerged: the save must compact and
	// leave holes where pages[0]'s first version sat.
	if _, err := e.Ingest(ctx, []*crawler.MatchPage{pages[0], pages[5]}, IngestOptions{Merge: MergeNone}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	gidSpace := len(e.byGID)
	if err := e.Save(base); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if st := e.Stats(); st.Segments != 0 || st.Tombstones != 0 {
		t.Fatalf("Save left LSM state: %+v", st)
	}
	m, err := readManifest(base)
	if err != nil {
		t.Fatalf("readManifest: %v", err)
	}
	if m.NextGID != uint64(gidSpace) {
		t.Fatalf("manifest nextgid = %d, want %d", m.NextGID, gidSpace)
	}
	if rep := Fsck(base); !rep.OK() {
		t.Fatalf("fsck after mid-state save:\n%s", rep)
	}

	e2, err := Load(base, nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if e2.NumDocs() != e.NumDocs() {
		t.Fatalf("reloaded %d docs, want %d", e2.NumDocs(), e.NumDocs())
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID+"/reloaded", searchN(e2, q.Keywords, 0), searchN(e, q.Keywords, 0))
	}
	// Fresh IDs continue after the recorded space on both engines, and a
	// reloaded upsert still tombstones the page's loaded documents.
	res2, err := e2.Ingest(ctx, []*crawler.MatchPage{pages[0]}, IngestOptions{})
	if err != nil {
		t.Fatalf("Ingest after load: %v", err)
	}
	if res2.Tombstones == 0 {
		t.Fatal("reloaded engine lost the page -> documents map (no tombstones on upsert)")
	}
	if _, err := e.Ingest(ctx, []*crawler.MatchPage{pages[0]}, IngestOptions{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if got, want := len(e2.byGID), len(e.byGID); got != want {
		t.Fatalf("ID space diverged after reload: %d vs %d", got, want)
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID+"/post-reload-upsert", searchN(e2, q.Keywords, 0), searchN(e, q.Keywords, 0))
	}
}

// TestWALReplayUpsertsOntoMappedBase: batches acknowledged after a Save
// that replace already-saved pages — one atomic batch, one per-page batch
// — and are never checkpointed replay on a mapped reopen by tombstoning
// documents that live in the mapped base. The recovered engine must equal
// the monolithic oracle after the same upserts, before and after the
// replayed segments merge into a new mapped base.
func TestWALReplayUpsertsOntoMappedBase(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	base := filepath.Join(t.TempDir(), "idx.bin")
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	if err := e.Save(base); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := e.AttachWAL(base, wal.Options{Policy: wal.SyncAlways}); err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	oracle := newMonoOracle(pages)
	for _, b := range []struct {
		pages []*crawler.MatchPage
		opts  IngestOptions
	}{
		{[]*crawler.MatchPage{trimPage(pages[0]), trimPage(pages[3])}, IngestOptions{Atomicity: AtomicBatch}},
		{[]*crawler.MatchPage{trimPage(pages[1]), trimPage(pages[4])}, IngestOptions{Atomicity: PerPage}},
	} {
		res, err := e.Ingest(ctx, b.pages, b.opts)
		if err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if res.Tombstones == 0 {
			t.Fatalf("changed versions tombstoned nothing: %+v", res)
		}
		for _, p := range b.pages {
			oracle.update(p)
		}
	}
	// Crash after the acks: the log is closed, the snapshot never rewritten.
	if err := e.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	m, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatalf("LoadWith(Mapped): %v", err)
	}
	defer m.Close()
	if got, want := m.LoadReport().WALReplayed, 3; got != want {
		t.Fatalf("replayed %d records, want %d (one atomic, two per-page)", got, want)
	}
	for s := range m.base {
		if m.base[s].release == nil {
			t.Fatalf("shard %d base is not mapped", s)
		}
	}
	check := func(label string) {
		t.Helper()
		if got, want := m.NumDocs(), oracle.si.Index.LiveDocs(); got != want {
			t.Fatalf("%s: NumDocs = %d, oracle %d", label, got, want)
		}
		for _, q := range eval.PaperQueries() {
			assertSameHits(t, q.ID+"/"+label, searchN(m, q.Keywords, 0), oracle.si.Search(q.Keywords, 0))
		}
	}
	check("replayed")
	m.ForceMerge()
	if st := m.Stats(); st.Segments != 0 || st.Tombstones != 0 {
		t.Fatalf("ForceMerge left %d segments, %d tombstones", st.Segments, st.Tombstones)
	}
	check("merged")
}

// TestMergerCompactsAtSegmentThreshold: the background merger, started
// with its fixed policy, compacts a shard once ingest has stacked four
// segments on it, and the compaction leaves the ranking equal to the
// monolithic oracle.
func TestMergerCompactsAtSegmentThreshold(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	e := Build(nil, semindex.FullInf, pages[:2], Options{Shards: 1})
	e.SetMetrics(obs.NewRegistry())
	oracle := newMonoOracle(pages[:2])
	e.StartMerger()
	defer e.StopMerger()
	for _, p := range pages[2:6] {
		if _, err := e.Ingest(ctx, []*crawler.MatchPage{p}, IngestOptions{}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		oracle.update(p)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Segments >= mergeSegments {
		if time.Now().After(deadline) {
			t.Fatalf("merger left %d segments after 5s", e.Stats().Segments)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID, searchN(e, q.Keywords, 0), oracle.si.Search(q.Keywords, 0))
	}
}

// TestDocStatsRemoveExactness pins the statistics arithmetic the whole
// design rests on: removing a document's stats from a corpus view must
// leave exactly the view a from-scratch recompute over the remaining
// documents produces — term-for-term, integer-for-integer.
func TestDocStatsRemoveExactness(t *testing.T) {
	pages, _ := fixture(t)
	b := semindex.NewBuilder()
	si := b.Build(semindex.FullInf, pages[:2])
	ix := si.Index

	got := ix.LocalStats()
	for id := 0; id < ix.NumDocs(); id += 2 {
		got.Remove(ix.DocStats(id))
		ix.Delete(id)
	}
	want := ix.LocalStats() // tombstone-aware recompute

	if got.Docs != want.Docs {
		t.Fatalf("Docs = %d, want %d", got.Docs, want.Docs)
	}
	if len(got.Fields) != len(want.Fields) {
		t.Fatalf("%d fields, want %d", len(got.Fields), len(want.Fields))
	}
	for name, wfs := range want.Fields {
		gfs := got.Fields[name]
		if gfs == nil {
			t.Fatalf("field %q missing after Remove", name)
		}
		if gfs.Docs != wfs.Docs || gfs.SumLen != wfs.SumLen {
			t.Errorf("field %q: docs/sumLen %d/%d, want %d/%d", name, gfs.Docs, gfs.SumLen, wfs.Docs, wfs.SumLen)
		}
		if len(gfs.DocFreq) != len(wfs.DocFreq) {
			t.Errorf("field %q: %d terms, want %d", name, len(gfs.DocFreq), len(wfs.DocFreq))
		}
		for term, df := range wfs.DocFreq {
			if gfs.DocFreq[term] != df {
				t.Errorf("df(%s,%s) = %d, want %d", name, term, gfs.DocFreq[term], df)
			}
		}
	}
	_ = index.FieldTerm{} // keep the import honest if assertions above change
}

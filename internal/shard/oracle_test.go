package shard

// The composed oracle. The engine ranks byte-identically to a monolith
// built from scratch over the live documents; TestEngineMatchesMonolith
// pins that with seeded schedules of ingests, merges, saves, crashes with
// reopens and cache warm-ups, holding the engine to monoOracle, a monolith
// replaying the committed history, after every step. A failing schedule is
// shrunk by dropping steps and printed with the command that replays it.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/soccer"
	"repro/internal/wal"
)

const (
	oracleSeeds = 32
	oracleSteps = 8
	// oracleInitPages is how many corpus pages the engine is built over.
	oracleInitPages = 4
)

// stepKinds lists the schedule steps. A schedule draws oracleSteps of them
// without replacement, so each kind comes up in most schedules and ingest
// can come up twice. A step is written kind[@n][:pages][/flags], a page as
// its corpus index followed by ' for its trimmed version or - for its
// emptied one:
//
//	ingest:0,3'/perpage/sync  upsert a batch (flags perpage, sync, async)
//	merge@1                   mergeShard(1 mod shards)
//	force-merge               ForceMerge
//	merge-race:2'             upsert between a merge's snapshot and its install
//	save                      Save, from a heap or a mapped engine
//	crash-wal@n/mapped        cut the WAL at n mod (size+1) (no @n: none), reopen mapped
//	crash-manifest/heap       crash with the next generation's files unmanifested
//	crash-scratch@1/heap      crash after a mapped merge of shard 1, with torn compaction files
//	warm                      cache answers for player names
var stepKinds = []string{"ingest", "ingest", "merge", "force-merge", "merge-race", "save",
	"crash-wal", "crash-manifest", "crash-scratch", "warm"}

// oracleCorpus holds eight seeded matches in three versions: the first 12
// narrations (about 20 documents), trimmed by trimPage, and emptied, whose
// upsert deletes the page's documents.
var oracleCorpus = sync.OnceValue(func() [][3]*crawler.MatchPage {
	var out [][3]*crawler.MatchPage
	for _, p := range crawler.PagesFromCorpus(soccer.Generate(soccer.Config{Matches: 8, Seed: 42, PaperCoverage: true})) {
		p.Narrations = p.Narrations[:min(12, len(p.Narrations))]
		out = append(out, [3]*crawler.MatchPage{p, trimPage(p), {ID: p.ID, Home: p.Home, Away: p.Away}})
	}
	return out
})

// monoOracle applies the page-level operations the engine applies —
// tombstone the page's previous documents, append the new version at the
// end of the ID space — and rescores from tombstone-aware statistics after
// every update. Its docIDs therefore equal the engine's global IDs, and its
// ranking is what a from-scratch build over the live documents produces.
type monoOracle struct {
	si     *semindex.SemanticIndex
	byPage map[string][]int
}

// pageDocs memoises PageDocuments per page: an index keeps no reference to
// an added document, so one prepared set feeds every oracle.
var (
	pageDocs      sync.Map // *crawler.MatchPage -> []*index.Document
	oracleBuilder = semindex.NewBuilder()
)

// newMonoOracle replays batches in order, each as an atomic batch commits
// (lastCopy).
func newMonoOracle(batches ...[]*crawler.MatchPage) *monoOracle {
	ix := index.New(oracleBuilder.Analyzer)
	o := &monoOracle{si: &semindex.SemanticIndex{Level: semindex.FullInf, Index: ix}, byPage: map[string][]int{}}
	for _, b := range batches {
		o.update(lastCopy(b)...)
	}
	return o
}

// lastCopy is what an atomic batch commits: its pages in order, less every
// copy of a page that a later copy in the batch replaces.
func lastCopy(batch []*crawler.MatchPage) (kept []*crawler.MatchPage) {
	for i, p := range batch {
		if !slices.ContainsFunc(batch[i+1:], func(q *crawler.MatchPage) bool { return q.ID == p.ID }) {
			kept = append(kept, p)
		}
	}
	return kept
}

// update replays page upserts in order, returning how many documents they
// added and tombstoned.
func (o *monoOracle) update(pages ...*crawler.MatchPage) (added, removed int) {
	for _, p := range pages {
		for _, id := range o.byPage[p.ID] {
			if o.si.Index.Delete(id) {
				removed++
			}
		}
		docs, ok := pageDocs.Load(p)
		if !ok {
			docs, _ = pageDocs.LoadOrStore(p, oracleBuilder.PageDocuments(semindex.FullInf, p))
		}
		o.byPage[p.ID] = nil
		for _, d := range docs.([]*index.Document) {
			o.byPage[p.ID] = append(o.byPage[p.ID], o.si.Index.Add(d))
			added++
		}
	}
	o.si.Stats = o.si.Index.LocalStats()
	return added, removed
}

// suggest is Suggest over the live vocabulary.
func (o *monoOracle) suggest(q string) string {
	cs := o.si.Stats
	return semindex.CorrectQuery(o.si.Index.Analyzer(), semindex.QueryBoosts, q, cs.DocFreq, scanNeighbours(cs))
}

// scanNeighbours is index.Index.Neighbours by brute force: it tests every
// term of cs's live vocabulary with WithinEditDistance1, the reference
// the neighbour tables are held to.
func scanNeighbours(cs *index.CorpusStats) func(field, term string) []string {
	return func(field, term string) []string {
		var out []string
		if fs := cs.Fields[field]; fs != nil {
			for t := range fs.DocFreq {
				if t != term && index.WithinEditDistance1(t, term) {
					out = append(out, t)
				}
			}
		}
		slices.Sort(out)
		return out
	}
}

// schedule is an engine configuration and the steps run against it.
// helpers lowers the engine's slice to one document, so its scatters claim
// shards beside helper goroutines instead of on the caller's alone.
type schedule struct {
	opts    Options
	steps   []string
	helpers bool
}

func (sc schedule) String() string {
	return fmt.Sprintf("shards=%d chunk=%d par=%d claim=%s: %s", sc.opts.Shards, sc.opts.ChunkPages, sc.opts.Parallelism, sc.claim(), strings.Join(sc.steps, " "))
}

// claim names the schedule's claim mode.
func (sc schedule) claim() string {
	if sc.helpers {
		return "helpers"
	}
	return "caller"
}

// randomSchedule draws seed's schedule.
func randomSchedule(seed int64) schedule {
	r := rand.New(rand.NewSource(seed))
	pick := func(s ...string) string { return s[r.Intn(len(s))] }
	page := func(n int, versions ...string) string { return strconv.Itoa(r.Intn(n)) + pick(versions...) }
	sc := schedule{opts: Options{Shards: 1 + r.Intn(4), ChunkPages: []int{1, 2, 512}[r.Intn(3)], Parallelism: r.Intn(2)}}
	for _, k := range r.Perm(len(stepKinds))[:oracleSteps] {
		tok := stepKinds[k]
		switch tok {
		case "ingest":
			// Fresh pages, re-upserts, changed and emptied versions, and now
			// and then one page twice in a batch.
			var refs []string
			for range 1 + r.Intn(3) {
				refs = append(refs, page(len(oracleCorpus()), "", "", "", "'", "'", "-"))
			}
			if r.Intn(4) == 0 {
				refs = append(refs, strings.TrimRight(refs[0], "'-")+pick("", "'"))
			}
			tok += ":" + strings.Join(refs, ",") + pick("", "/perpage") + pick("", "/sync", "/async")
		case "merge-race":
			// An initial page is live: its upsert tombstones merge-set documents.
			tok += ":" + page(oracleInitPages, "", "'", "-")
		case "merge", "crash-scratch":
			tok += "@" + strconv.Itoa(r.Intn(4))
		case "crash-wal":
			tok += "@" + strconv.Itoa(r.Intn(1<<16))
		}
		if strings.HasPrefix(tok, "crash") {
			tok += pick("/heap", "/mapped")
		}
		sc.steps = append(sc.steps, tok)
	}
	// Drawn after every other draw, so each seed keeps its configuration
	// and steps.
	sc.helpers = r.Intn(2) == 1
	return sc
}

// parseStep splits a step into its kind, its number (-1 without one), its
// pages and its flags.
func parseStep(tok string) (kind string, n int, pages []*crawler.MatchPage, flags []string) {
	head, rest, _ := strings.Cut(tok, "/")
	head, list, _ := strings.Cut(head, ":")
	kind, num, ok := strings.Cut(head, "@")
	n = -1
	if ok {
		n, _ = strconv.Atoi(num)
	}
	for _, ref := range strings.Split(list, ",") {
		if i, err := strconv.Atoi(strings.TrimRight(ref, "'-")); err == nil {
			pages = append(pages, oracleCorpus()[i][strings.Count(ref, "'")+2*strings.Count(ref, "-")])
		}
	}
	return kind, n, pages, strings.Split(rest, "/")
}

// TestEngineMatchesMonolith runs oracleSeeds random schedules, a subtest each.
func TestEngineMatchesMonolith(t *testing.T) {
	hist := map[string]int{}
	perMode := map[string]map[string]int{"caller": {}, "helpers": {}}
	for seed := 1; seed <= oracleSeeds; seed++ {
		sc := randomSchedule(int64(seed))
		for _, tok := range sc.steps {
			kind, _, _, _ := parseStep(tok)
			hist[kind]++
			perMode[sc.claim()][kind]++
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runOracle(t, sc)
		})
	}
	t.Logf("steps over %d seeds: %v", oracleSeeds, hist)
	for _, mode := range []string{"caller", "helpers"} {
		t.Logf("steps in claim mode %s: %v", mode, perMode[mode])
	}
	for _, kind := range stepKinds {
		if hist[kind] < 20 {
			t.Errorf("step %s ran %d times over the seeds, want at least 20", kind, hist[kind])
		}
	}
}

// runOracle runs sc and, should it fail, shrinks it by dropping steps
// while it still fails.
func runOracle(t *testing.T, sc schedule) {
	t.Helper()
	err := runSchedule(sc, t.TempDir())
	if err == nil {
		return
	}
	shrunk := sc
	for i := len(sc.steps) - 1; i >= 0; i-- {
		cand := shrunk
		cand.steps = slices.Delete(slices.Clone(shrunk.steps), i, i+1)
		if cerr := runSchedule(cand, t.TempDir()); cerr != nil {
			shrunk, err = cand, cerr
		}
	}
	t.Fatalf("%v\nschedule, shrunk to %d of %d steps: %s\nreplay: go test ./internal/shard -run '^%s$'",
		err, len(shrunk.steps), len(sc.steps), shrunk, t.Name())
}

// oracleRun is one schedule in flight.
type oracleRun struct {
	e     *Engine
	o     *monoOracle
	base  string
	gen   uint64
	stepN int
	// saved lists the batches the committed snapshot holds, the build
	// first; logged the batches of the WAL records written since.
	saved, logged [][]*crawler.MatchPage
	warmed        []string
	// helpers is the schedule's claim mode, set on every engine the run
	// builds or reopens.
	helpers bool
	// abandoned holds the engines crashes left, closed when the run ends.
	abandoned []*Engine
}

// runSchedule runs sc in dir (newOracleRun), checking the engine after the
// build and after every step.
func runSchedule(sc schedule, dir string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	r, err := newOracleRun(sc, dir)
	if err != nil {
		return err
	}
	defer r.close()
	for i := 0; i <= len(sc.steps); i++ {
		changed, step := true, "build"
		if i > 0 {
			r.stepN, step = i, sc.steps[i-1]
			changed, err = r.apply(step)
		}
		if err == nil {
			err = r.check(changed)
		}
		if err != nil {
			return fmt.Errorf("step %d (%s): %w", i, step, err)
		}
	}
	return nil
}

// newOracleRun builds sc's engine in dir with the cache on, saves it and
// attaches its WAL, beside an oracle over the same build pages.
func newOracleRun(sc schedule, dir string) (_ *oracleRun, err error) {
	var build []*crawler.MatchPage
	for _, v := range oracleCorpus()[:oracleInitPages] {
		build = append(build, v[0])
	}
	r := &oracleRun{base: filepath.Join(dir, "idx"), gen: 1, o: newMonoOracle(build), saved: [][]*crawler.MatchPage{build}, helpers: sc.helpers}
	if r.e, err = BuildStream(nil, semindex.FullInf, &sliceSource{pages: build}, sc.opts); err != nil {
		return nil, err
	}
	r.claimMode(r.e)
	r.e.EnableCache(8<<20, obs.NewRegistry())
	err = r.e.Save(r.base)
	if err == nil {
		err = r.e.AttachWAL(r.base, wal.Options{Policy: wal.SyncNever})
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close closes every engine the run opened.
func (r *oracleRun) close() {
	for _, e := range append(r.abandoned, r.e) {
		e.Close()
	}
}

// claimMode applies the schedule's claim mode to e.
func (r *oracleRun) claimMode(e *Engine) {
	if r.helpers {
		e.SetSliceDocs(1)
	}
}

// apply runs one step and reports whether it may have changed the
// engine's content: a merge, a save or a warm-up changes none.
func (r *oracleRun) apply(tok string) (bool, error) {
	kind, n, pages, flags := parseStep(tok)
	opts := IngestOptions{Merge: MergeNone}
	if slices.Contains(flags, "perpage") {
		opts.Atomicity = PerPage
	}
	if slices.Contains(flags, "sync") {
		opts.Durability = DurSync
	} else if slices.Contains(flags, "async") {
		opts.Durability = DurAsync
	}
	switch kind {
	case "ingest":
		return true, r.ingest(pages, opts)
	case "merge":
		r.e.mergeShard(n % r.e.NumShards())
	case "force-merge":
		r.e.ForceMerge()
		return false, r.compacted()
	case "merge-race":
		s := shardFor(pages[0].ID, r.e.NumShards())
		r.e.mergeOpMu.Lock()
		defer r.e.mergeOpMu.Unlock()
		pm := r.e.prepareMerge(s)
		err := r.ingest(pages, IngestOptions{Merge: MergeNone})
		r.e.installMerge(s, pm)
		return true, err
	case "save":
		return false, r.save()
	case "warm":
		// Player names. Any write evicts every cached answer, so the check serves these from the cache only until the next write.
		r.warmed = nil
		for _, v := range oracleCorpus() {
			q := strings.ToLower(v[0].Lineups[v[0].Home][0].Short)
			for i := range 2 {
				res, err := r.e.Search(context.Background(), q, SearchOptions{Limit: 5})
				if err != nil || (i == 1 && res.Cache != CacheHit) {
					return false, fmt.Errorf("warming %q: %s, %v", q, res.Cache, err)
				}
			}
			r.warmed = append(r.warmed, q)
		}
	case "crash-wal", "crash-manifest", "crash-scratch":
		return true, r.crash(kind, n, slices.Contains(flags, "mapped"))
	default:
		return false, fmt.Errorf("unknown step %q", tok)
	}
	return false, nil
}

// ingest commits one batch on the engine and the oracle and checks the
// result's counts and acknowledgement, that no base changed (the LSM
// contract), and the records the WAL gained. A cancelled context must
// commit nothing.
func (r *oracleRun) ingest(pages []*crawler.MatchPage, opts IngestOptions) error {
	e, ctx := r.e, context.Background()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Ingest(cctx, pages, opts); err == nil {
		return errors.New("Ingest accepted a cancelled context")
	}
	bases := make([]int, e.NumShards())
	for s := range bases {
		bases[s] = e.Shard(s).Index.NumDocs()
	}
	res, err := e.Ingest(ctx, pages, opts)
	if err != nil {
		return err
	}
	applied := pages
	if opts.Atomicity != PerPage {
		applied = lastCopy(pages)
	}
	added, removed := r.o.update(applied...)
	perShard := make([]int, len(bases))
	for _, p := range applied {
		docs, _ := pageDocs.Load(p) // memoised by update
		perShard[shardFor(p.ID, len(bases))] += len(docs.([]*index.Document))
	}
	if res.Segment == 0 || res.Pages != len(pages) || res.Docs != added || res.Tombstones != removed || !slices.Equal(res.PerShard, perShard) {
		return fmt.Errorf("ingest result %+v, oracle added %v and tombstoned %d", res, perShard, removed)
	}
	if want := []string{"logged", "synced", "buffered"}[opts.Durability]; res.Durability != want {
		return fmt.Errorf("durability %q, want %q", res.Durability, want)
	}
	for s, n := range bases {
		if got := e.Shard(s).Index.NumDocs(); got != n {
			return fmt.Errorf("ingest changed shard %d's base: %d docs, was %d", s, got, n)
		}
	}
	if opts.Atomicity != PerPage {
		r.logged = append(r.logged, pages)
	} else {
		for i := range pages {
			r.logged = append(r.logged, pages[i:i+1])
		}
	}
	if scan, err := wal.Scan(WALPath(r.base), int64(r.gen)); err != nil || scan.Records != len(r.logged) {
		return fmt.Errorf("the WAL holds %d records after ingest, want %d (%v)", scan.Records, len(r.logged), err)
	}
	return nil
}

// save checkpoints the engine, which must come out compacted, and, when
// it serves mapped, with no scratch file left.
func (r *oracleRun) save() error {
	if err := r.e.Save(r.base); err != nil {
		return err
	}
	r.gen++
	r.saved, r.logged = append(r.saved, r.logged...), nil
	if rep := Fsck(r.base); !rep.OK() || rep.Generation != r.gen {
		return fmt.Errorf("fsck after save:\n%s", rep)
	}
	if left, _ := filepath.Glob(r.base + ".mapseg*"); r.e.mappedBase != "" && len(left) > 0 {
		return fmt.Errorf("mapped Save left scratch files %v", left)
	}
	return r.compacted()
}

// compacted fails unless no segment or tombstone is left.
func (r *oracleRun) compacted() error {
	if st := r.e.Stats(); st.Segments != 0 || st.Tombstones != 0 {
		return fmt.Errorf("%d segments and %d tombstones left", st.Segments, st.Tombstones)
	}
	return nil
}

// crash abandons the engine the way kind says a killed process leaves it,
// reopens the snapshot heap or mapped, re-attaches the WAL and rebuilds the
// oracle from the history that survived.
func (r *oracleRun) crash(kind string, n int, mapped bool) (failed error) {
	e := r.e
	r.abandoned = append(r.abandoned, e)
	switch kind {
	case "crash-manifest":
		// A Save killed before its manifest commit leaves the next
		// generation's shard files: the current state, compacted.
		e.mu.RLock()
		for s := range e.base {
			pm := &pendingMerge{subs: e.subsLocked(s)}
			pm.merge(nil)
			_, _, err := writeShardFile(shardGenPath(r.base, r.gen+1, s), pm.gids, func(w io.Writer) ([]byte, error) {
				return pm.merged.EncodeWithTOC(w, tocColumns...)
			})
			failed = errors.Join(failed, err)
		}
		e.mu.RUnlock()
	case "crash-scratch":
		// A mapped engine's merge leaves no file; a kill mid-write leaves
		// torn ones, which the reopen ignores and the next Save sweeps. A
		// heap engine crashes first, and a mapped reopen of its files does
		// the merge.
		victim := e
		if e.mappedBase == "" {
			var err error
			if victim, err = LoadWith(r.base, nil, LoadOptions{Mapped: true}); err != nil {
				return err
			}
			r.claimMode(victim)
			r.abandoned = append(r.abandoned, victim)
			victim.settle() // its replay may have started a pass too
		}
		victim.mergeShard(n % victim.NumShards())
		if left, _ := filepath.Glob(r.base + ".mapseg*"); len(left) > 0 {
			return fmt.Errorf("a merge on a mapped engine left %v", left)
		}
		for _, junk := range []string{".mapseg999998.shard001", ".mapseg999999.shard000.tmp"} {
			failed = errors.Join(failed, os.WriteFile(r.base+junk, []byte("torn scratch write"), 0o644))
		}
	}
	if err := errors.Join(failed, e.CloseWAL()); err != nil {
		return err
	}
	// The records a cut leaves whole survive; internal/wal's every-offset
	// test pins which those are, so its scanner counts them here.
	survived, torn := len(r.logged), false
	if path := WALPath(r.base); kind == "crash-wal" && n >= 0 {
		st, err := os.Stat(path)
		if err == nil {
			err = os.Truncate(path, int64(n)%(st.Size()+1))
		}
		scan, serr := wal.Scan(path, int64(r.gen))
		if err = errors.Join(err, serr); err != nil {
			return err
		}
		survived, torn = scan.Records, scan.Torn
	}
	r.logged = r.logged[:survived]
	var err error
	if r.e, err = LoadWith(r.base, nil, LoadOptions{Mapped: mapped}); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	// A replayed tail that stacked segments started a pass; the steps
	// after this one expect a base to change only when they change it.
	r.e.settle()
	r.claimMode(r.e)
	if rep := r.e.LoadReport(); rep.Generation != r.gen || rep.WALReplayed != survived || rep.WALTorn != torn ||
		len(rep.Quarantined) != 0 || r.e.NumShards() != e.NumShards() || r.e.Level() != e.Level() {
		return fmt.Errorf("reopened %d shards at %s, report %+v; want %d shards, generation %d, %d records replayed, torn %v",
			r.e.NumShards(), r.e.Level(), rep, e.NumShards(), r.gen, survived, torn)
	}
	r.e.EnableCache(8<<20, obs.NewRegistry())
	if err := r.e.AttachWAL(r.base, wal.Options{Policy: wal.SyncNever}); err != nil {
		return err
	}
	r.o = newMonoOracle(slices.Concat(r.saved, r.logged)...)
	return nil
}

// check holds the engine to the oracle: document counts, corpus
// statistics and the global ID space; the paper queries and the warmed
// ones; a degraded answer; Doc and Related on sampled IDs; Suggest.
// changed false means the step changed no content, so every cached answer
// must still be a hit.
func (r *oracleRun) check(changed bool) error {
	e, o := r.e, r.o
	live, st := o.si.Index.LiveDocs(), e.Stats()
	perShard := 0
	for _, ps := range st.PerShard {
		perShard += ps.Docs
	}
	if e.NumDocs() != live || st.Docs != live || perShard != live {
		return fmt.Errorf("NumDocs %d, Stats.Docs %d, per-shard sum %d; oracle %d", e.NumDocs(), st.Docs, perShard, live)
	}
	if !reflect.DeepEqual(st.Global, o.si.Stats) {
		return errors.New("corpus statistics differ from the oracle's")
	}
	// A mapped engine serves every base mapped, through merges and saves.
	e.mu.RLock()
	idSpace, mapped := len(e.byGID), true
	for s := range e.base {
		mapped = mapped && (e.mappedBase == "" || e.base[s].release != nil)
	}
	e.mu.RUnlock()
	if !mapped || idSpace != o.si.Index.NumDocs() {
		return fmt.Errorf("bases mapped: %v; ID space %d, oracle %d", mapped, idSpace, o.si.Index.NumDocs())
	}

	queries := eval.PaperQueries()
	for _, q := range queries {
		want := o.si.Search(q.Keywords, 0)
		if err := r.sameAnswers(q.Keywords, 0, want, changed, "cold", "cached", "deadline"); err != nil {
			return err
		}
		if err := r.sameAnswers(q.Keywords, 10, want[:min(10, len(want))], changed, "cold", "cached", "deadline"); err != nil {
			return err
		}
	}
	for _, q := range r.warmed {
		if err := r.sameAnswers(q, 5, o.si.Search(q, 5), changed, "cached"); err != nil {
			return err
		}
	}
	if err := r.checkDegraded(queries[r.stepN%len(queries)].Keywords, r.stepN%e.NumShards()); err != nil {
		return err
	}
	for _, gid := range []int{-1, idSpace, r.stepN * 7 % idSpace, (r.stepN*13 + idSpace/2) % idSpace} {
		got, deleted := e.Doc(gid), gid < 0 || gid == idSpace || o.si.Index.IsDeleted(gid)
		var want []semindex.Hit
		if deleted != (got == nil) {
			return fmt.Errorf("Doc(%d) is nil: %v, want %v", gid, got == nil, deleted)
		}
		if !deleted {
			if !reflect.DeepEqual(got.Fields, o.si.Index.Doc(gid).Fields) {
				return fmt.Errorf("Doc(%d) differs from the oracle's", gid)
			}
			want = o.si.Related(gid, 10)
		}
		if err := sameHits(e.Related(gid, 10), want); err != nil {
			return fmt.Errorf("Related(%d): %w", gid, err)
		}
	}
	for _, q := range []string{"mesi goal", "messi goal"} {
		if got, want := e.Suggest(q), o.suggest(q); got != want {
			return fmt.Errorf("Suggest(%q) = %q, oracle %q", q, got, want)
		}
	}
	return nil
}

// sameAnswers searches q at limit along each arm — cold (NoCache), cached,
// or under a deadline no shard misses — and compares with want.
func (r *oracleRun) sameAnswers(q string, limit int, want []semindex.Hit, changed bool, arms ...string) error {
	for _, arm := range arms {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if arm != "deadline" {
			ctx = context.Background()
		}
		res, err := r.e.Search(ctx, q, SearchOptions{Limit: limit, NoCache: arm != "cached"})
		cancel()
		if err == nil && res.Report.Degraded {
			err = fmt.Errorf("degraded, missing %v", res.Report.Missing)
		}
		if err == nil && arm == "cached" && !changed && res.Cache != CacheHit {
			err = fmt.Errorf("cache %s after a step that changed no content", res.Cache)
		}
		if err == nil {
			err = sameHits(res.Hits, want)
		}
		if err != nil {
			return fmt.Errorf("%q at limit %d, %s: %w", q, limit, arm, err)
		}
	}
	return nil
}

// checkDegraded holds shard s on a channel during one query and cancels
// the query once every other shard has answered: the answer must be
// degraded with s missing and equal the oracle's ranking over the shards
// not missing (the cancel may still beat another shard's answer in).
func (r *oracleRun) checkDegraded(q string, s int) error {
	n := r.e.NumShards()
	tr := obs.NewTrace(q)
	// The deadline routes the query through the deadline scatter; the
	// cancel ends its wait.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	release := make(chan struct{})
	r.e.SetStall(func(i int) {
		for i == s && len(tr.Spans()) < n-1 {
			runtime.Gosched()
		}
		if i == s {
			cancel()
			<-release
		}
	})
	res, err := r.e.Search(ctx, q, SearchOptions{Limit: 10, NoCache: true, Trace: tr})
	close(release)
	r.e.SetStall(nil) // waits for the held shard
	if err != nil {
		return err
	}
	if !res.Report.Degraded || !slices.Contains(res.Report.Missing, s) {
		return fmt.Errorf("%q with shard %d held: report %+v", q, s, res.Report)
	}
	var want []semindex.Hit
	for _, h := range r.o.si.Search(q, 0) {
		if !slices.Contains(res.Report.Missing, shardFor(h.Doc().Get(semindex.MetaMatchID), n)) && len(want) < 10 {
			want = append(want, h)
		}
	}
	if err := sameHits(res.Hits, want); err != nil {
		return fmt.Errorf("%q with shard %d held, %v missing: %w", q, s, res.Report.Missing, err)
	}
	return nil
}

// sameHits reports the first difference between two rankings in
// document, score bits or order.
func sameHits(got, want []semindex.Hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d is doc %d scoring %v, want doc %d scoring %v", i+1, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
		}
	}
	return nil
}

// fixed runs one schedule, its steps separated by spaces, on an engine of
// the given shard count. The tests below keep the names of those that each
// pinned one axis of the invariant before the oracle composed them; each
// runs its axis as a fixed schedule.
func fixed(t *testing.T, shards int, steps string) {
	t.Helper()
	runOracle(t, schedule{opts: Options{Shards: shards}, steps: strings.Fields(steps)})
}

func TestScatterGatherEquivalence(t *testing.T)     { fixed(t, 4, "") }
func TestSearchDeadlineHealthy(t *testing.T)        { fixed(t, 3, "") }
func TestGlobalStatsExchange(t *testing.T)          { fixed(t, 4, "ingest:1-,5") }
func TestIncrementalIngest(t *testing.T)            { fixed(t, 4, "ingest:7 force-merge") }
func TestSuggestAndRelated(t *testing.T)            { fixed(t, 4, "ingest:2- ingest:2'") }
func TestNumDocsCountsSegmentDocs(t *testing.T)     { fixed(t, 3, "ingest:4,5") }
func TestSearchDeadlineDegraded(t *testing.T)       { fixed(t, 3, "ingest:5,6' merge@2") }
func TestSaveLoadRoundTrip(t *testing.T)            { fixed(t, 3, "save crash-wal/heap ingest:6") }
func TestCacheInvalidationEquivalence(t *testing.T) { fixed(t, 4, "warm ingest:7 ingest:2- ingest:2") }
func TestMergeInvisibleToCache(t *testing.T)        { fixed(t, 3, "ingest:4,0 warm merge@1 force-merge") }
func TestMappedEngineDocAndMeta(t *testing.T) {
	fixed(t, 2, "ingest:6 save crash-wal/mapped ingest:1'")
}
func TestSaveLoadMidLSMState(t *testing.T) {
	fixed(t, 3, "ingest:0,5 save crash-wal/heap ingest:0 ingest:6")
}
func TestCrashMidMergeReopensMapped(t *testing.T) {
	fixed(t, 2, "crash-wal/mapped ingest:5 crash-scratch@0/mapped save")
}

func TestSearchDeadlinePartialEqualsMonolithRestricted(t *testing.T) { fixed(t, 2, "ingest:2-") }
func TestLSMUpsertEquivalenceAcrossMergeStates(t *testing.T) {
	fixed(t, 3, "ingest:0,3 ingest:1,1 merge@0 force-merge")
}
func TestWALReplayUpsertsOntoMappedBase(t *testing.T) {
	fixed(t, 2, "ingest:0',3' ingest:1',2'/perpage crash-wal/mapped force-merge")
}
func TestIngestDurabilityAndAtomicityOptions(t *testing.T) {
	fixed(t, 2, "ingest:3/sync ingest:4/async ingest:5,0/perpage crash-wal/heap")
}

// TestStalePrepare runs a ForceMerge that installs a new mapped base
// between an upsert's prepare and its write lock, through the engine's
// beforeCommit hook: it moves the page's documents but not its pageGIDs
// slice, so the removal sum the prepare took stands, and the engine must
// then hold the oracle's statistics and rankings.
func TestStalePrepare(t *testing.T) {
	t.Run("merge", func(t *testing.T) {
		r, err := newOracleRun(schedule{opts: Options{Shards: 2}}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		for _, step := range []string{"crash-wal/mapped", "ingest:1'"} {
			if _, err := r.apply(step); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
		var during error
		ran := false
		r.e.SetBeforeCommit(func() {
			r.e.SetBeforeCommit(nil)
			r.e.ForceMerge()
			ran, during = true, r.compacted()
		})
		_, _, pages, _ := parseStep("ingest:1")
		res, err := r.e.Ingest(context.Background(), pages, IngestOptions{Merge: MergeNone})
		if err != nil || !ran || during != nil {
			t.Fatalf("ingest: %v; hook ran %v: %v", err, ran, during)
		}
		added, removed := r.o.update(pages...)
		r.logged = append(r.logged, pages)
		if res.Docs != added || res.Tombstones != removed {
			t.Errorf("ingest added %d and tombstoned %d, oracle %d and %d", res.Docs, res.Tombstones, added, removed)
		}
		if err := r.check(true); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentSamePageUpserts upserts the three versions of one page of
// the build from several goroutines at once. Each upsert's removal sum
// must be the one its commit tombstones, so the oracle, applying the
// upserts in the order of their segments, must count what each one added
// and tombstoned and end with the engine's statistics and rankings.
func TestConcurrentSamePageUpserts(t *testing.T) {
	r, err := newOracleRun(schedule{opts: Options{Shards: 2}}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	upsertConcurrently(t, r, 4, 3, IngestOptions{Merge: MergeNone}, func(w, i int) *crawler.MatchPage {
		return oracleCorpus()[1][(w+i)%3]
	})
	if err := r.check(true); err != nil {
		t.Fatal(err)
	}
}

// upsertConcurrently runs writers goroutines, each upserting page(w, i)
// for i < rounds, one page per Ingest under opts, then applies the
// upserts to r's oracle in IngestResult.Segment order, the order they
// committed in, and checks each one's counts against the oracle's.
func upsertConcurrently(t *testing.T, r *oracleRun, writers, rounds int, opts IngestOptions, page func(w, i int) *crawler.MatchPage) {
	t.Helper()
	type upsert struct {
		page *crawler.MatchPage
		res  IngestResult
	}
	results := make([][]upsert, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				p := page(w, i)
				res, err := r.e.Ingest(context.Background(), []*crawler.MatchPage{p}, opts)
				if err != nil {
					errs[w] = err
					return
				}
				results[w] = append(results[w], upsert{p, res})
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	all := slices.Concat(results...)
	slices.SortFunc(all, func(a, b upsert) int { return cmp.Compare(a.res.Segment, b.res.Segment) })
	for _, u := range all {
		added, removed := r.o.update(u.page)
		r.logged = append(r.logged, []*crawler.MatchPage{u.page})
		if u.res.Docs != added || u.res.Tombstones != removed {
			t.Errorf("segment %d added %d and tombstoned %d, oracle %d and %d", u.res.Segment, u.res.Docs, u.res.Tombstones, added, removed)
		}
	}
}

// TestPerPageLiveMatchesReplay commits a three-page PerPage batch that
// repeats a page, then reopens the snapshot and replays the WAL: the live
// engine and the replayed one must hold the same segments, documents,
// tombstones and global ID space, and give the same answers, since each
// page of the batch commits as the one-page batch its record replays as.
func TestPerPageLiveMatchesReplay(t *testing.T) {
	r, err := newOracleRun(schedule{opts: Options{Shards: 2}}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	type state struct {
		segments, docs, tombstones, idSpace int
		answers                             [][]semindex.Hit
	}
	observe := func() state {
		st := r.e.Stats()
		r.e.mu.RLock()
		idSpace := len(r.e.byGID)
		r.e.mu.RUnlock()
		s := state{segments: st.Segments, docs: st.Docs, tombstones: st.Tombstones, idSpace: idSpace}
		for _, q := range eval.PaperQueries() {
			res, err := r.e.Search(context.Background(), q.Keywords, SearchOptions{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			s.answers = append(s.answers, res.Hits)
		}
		return s
	}
	var states []state
	for _, step := range []string{"ingest:1',5,1/perpage", "crash-wal/heap"} {
		changed, err := r.apply(step)
		if err == nil {
			err = r.check(changed)
		}
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		states = append(states, observe())
	}
	live, replayed := states[0], states[1]
	if live.segments != replayed.segments || live.docs != replayed.docs || live.tombstones != replayed.tombstones || live.idSpace != replayed.idSpace {
		t.Errorf("live PerPage batch: %d segments, %d docs, %d tombstones, ID space %d; replayed: %d, %d, %d, %d",
			live.segments, live.docs, live.tombstones, live.idSpace, replayed.segments, replayed.docs, replayed.tombstones, replayed.idSpace)
	}
	for i, q := range eval.PaperQueries() {
		if err := sameHits(replayed.answers[i], live.answers[i]); err != nil {
			t.Errorf("%q after the replay: %v", q.Keywords, err)
		}
	}
}

// TestPerPagePrefixCommit fails the second WAL append of a three-page
// PerPage batch, whose first page replaces a page of the build: Ingest must
// return the error with the first page committed alone, one record in the
// WAL, and statistics and rankings those of the monolith of that prefix,
// on a heap base and on a mapped one. The prepare built segments holding
// all three pages, so the commit must rebuild them from the prefix.
func TestPerPagePrefixCommit(t *testing.T) {
	for base, setup := range map[string]string{"heap": "", "mapped": "crash-wal/mapped"} {
		t.Run(base, func(t *testing.T) {
			r, err := newOracleRun(schedule{opts: Options{Shards: 2}}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			if setup != "" {
				if _, err := r.apply(setup); err != nil {
					t.Fatal(err)
				}
			}
			_, _, pages, _ := parseStep("ingest:1',5,6")
			r.e.FailWALAppend(2)
			res, err := r.e.Ingest(context.Background(), pages, IngestOptions{Merge: MergeNone, Atomicity: PerPage})
			if err == nil || res.Pages != 1 {
				t.Fatalf("Ingest committed %d pages and returned %v; want 1 page and the append's error", res.Pages, err)
			}
			added, removed := r.o.update(pages[0])
			r.logged = append(r.logged, pages[:1])
			if res.Docs != added || res.Tombstones != removed {
				t.Errorf("ingest added %d and tombstoned %d, oracle %d and %d", res.Docs, res.Tombstones, added, removed)
			}
			if scan, err := wal.Scan(WALPath(r.base), int64(r.gen)); err != nil || scan.Records != len(r.logged) {
				t.Errorf("the WAL holds %d records, want %d (%v)", scan.Records, len(r.logged), err)
			}
			if err := r.check(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRepeatedPageBatch upserts batches that carry one page twice: a page
// of the build, a fresh page, and a page whose second copy is emptied. The
// commit tombstones the first copy inside the new segment, so the segment
// statistics the prepare took before it are stale; statistics and rankings
// must be the monolith's after every batch, on a heap base and on a mapped
// one.
func TestRepeatedPageBatch(t *testing.T) {
	for base, setup := range map[string]string{"heap": "", "mapped": "crash-wal/mapped"} {
		t.Run(base, func(t *testing.T) {
			r, err := newOracleRun(schedule{opts: Options{Shards: 2}}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			steps := []string{"ingest:1',1", "ingest:5,2',5'", "ingest:6,6-,3"}
			if setup != "" {
				steps = append([]string{setup}, steps...)
			}
			for _, step := range steps {
				changed, err := r.apply(step)
				if err == nil {
					err = r.check(changed)
				}
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
		})
	}
}

// TestIngestAfterClose upserts a page a closed engine holds, on a heap base
// and on an unmapped one: the call must return an error, commit nothing and
// not fault reading the released base.
func TestIngestAfterClose(t *testing.T) {
	for base, setup := range map[string]string{"heap": "", "mapped": "crash-wal/mapped"} {
		t.Run(base, func(t *testing.T) {
			r, err := newOracleRun(schedule{opts: Options{Shards: 2}}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			if setup != "" {
				if _, err := r.apply(setup); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.e.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, pages, _ := parseStep("ingest:1'")
			if res, err := r.e.Ingest(context.Background(), pages, IngestOptions{}); err == nil || res.Docs != 0 {
				t.Fatalf("Ingest after Close committed %d documents, error %v", res.Docs, err)
			}
		})
	}
}

func TestMappedLoadEquivalenceAcrossLSMStates(t *testing.T) {
	fixed(t, 3, "crash-wal/mapped ingest:0,3 ingest:1,1 merge@0 force-merge")
}
func TestMappedMergeScratchLifecycle(t *testing.T) {
	fixed(t, 2, "crash-wal/mapped ingest:2,5 force-merge save crash-wal/mapped")
}
func TestCrashBeforeManifestKeepsOldSnapshot(t *testing.T) {
	fixed(t, 3, "ingest:3,6 crash-manifest/mapped merge-race:1' crash-manifest/heap")
}

func TestShardCountInvariance(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		fixed(t, n, "")
	}
}

func TestCrashRecoveryEveryTruncationOffset(t *testing.T) {
	for _, cut := range []string{"0", "5", "16", "17", "300", "1000", "2000", "3000", "65535"} {
		fixed(t, 3, "ingest:6' ingest:7',5'/perpage crash-wal@"+cut+"/heap")
	}
}

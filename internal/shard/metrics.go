package shard

import (
	"strconv"

	"repro/internal/obs"
)

// Metric names the engine publishes. Engines sharing a registry (the
// default: obs.Default) share series — counts aggregate across engines,
// which is what a process serving one engine wants and what tests avoid
// by wiring a fresh registry through SetMetrics.
const (
	metricSearches    = "shard_engine_searches_total"
	metricDegraded    = "shard_engine_degraded_total"
	metricMissing     = "shard_engine_missing_shards_total"
	metricSearchSec   = "shard_engine_search_seconds"
	metricBuildSec    = "shard_engine_build_seconds"
	metricIngestSec   = "shard_engine_ingest_seconds"
	metricShardSearch = "shard_search_seconds"
	// metricCacheSearch splits whole-call latency by cache outcome
	// (result="hit" vs result="miss") — the histogram pair the cache's
	// speedup claim is measured from. Bypass calls land only in
	// metricSearchSec.
	metricCacheSearch = "shard_engine_cache_search_seconds"
	// metricQuarantined counts shard snapshot files Load rejected and
	// quarantined — any nonzero value means an engine started degraded.
	metricQuarantined = "shard_engine_quarantined_shards_total"
	// LSM observability: merge throughput/latency plus the two gauges
	// that describe the live tree shape — how many unmerged segments are
	// outstanding and how many tombstones await compaction.
	metricMerges     = "shard_engine_merges_total"
	metricMergeSec   = "shard_engine_merge_seconds"
	metricSegments   = "shard_engine_segments"
	metricTombstones = "shard_engine_tombstones"
)

// engineMetrics holds the engine's resolved metric handles. Handles are
// nil (and every update a no-op) when built from a nil registry, so the
// uninstrumented engine pays a nil check per event and nothing else.
type engineMetrics struct {
	// searches counts top-level Search calls.
	searches *obs.Counter
	// degraded counts deadline searches that lost at least one shard;
	// missing counts the shards lost across them.
	degraded *obs.Counter
	missing  *obs.Counter
	// latency observes whole-query wall time, scatter through merge.
	latency *obs.Histogram
	// build and ingest time the write paths.
	build  *obs.Histogram
	ingest *obs.Histogram
	// perShard observes each shard's individual search time, labeled
	// shard="N" — the histogram that makes a straggling shard visible.
	perShard []*obs.Histogram
	// cacheHit and cacheMiss observe whole-call latency on the cached
	// path, split by outcome (coalesced calls ride the leader's miss).
	cacheHit  *obs.Histogram
	cacheMiss *obs.Histogram
	// quarantined counts corrupt snapshot files rejected at load.
	quarantined *obs.Counter
	// merges counts installed shard compactions — the merger's,
	// ForceMerge's and Save's checkpoint — and mergeLatency times each
	// shard's from its snapshot to its swap.
	merges       *obs.Counter
	mergeLatency *obs.Histogram
	// segments and tombstones gauge the engine-wide LSM state: unmerged
	// segment count and not-yet-compacted tombstone count.
	segments   *obs.Gauge
	tombstones *obs.Gauge
}

// newEngineMetrics resolves the engine's series in r (nil r means no-ops).
func newEngineMetrics(r *obs.Registry, shards int) *engineMetrics {
	r.Help(metricSearches, "Top-level engine queries.")
	r.Help(metricDegraded, "Deadline searches answered without every shard.")
	r.Help(metricMissing, "Shards missing from degraded answers, cumulative.")
	r.Help(metricSearchSec, "Whole-query latency: scatter through merge.")
	r.Help(metricBuildSec, "Full sharded build duration.")
	r.Help(metricIngestSec, "Incremental Ingest duration.")
	r.Help(metricShardSearch, "Per-shard search latency.")
	r.Help(metricCacheSearch, "Whole-call latency on the cached path, by outcome.")
	r.Help(metricQuarantined, "Corrupt shard snapshot files quarantined at load.")
	r.Help(metricMerges, "Installed shard compactions: the merger's, ForceMerge's and Save's.")
	r.Help(metricMergeSec, "Per-shard compaction duration, snapshot through swap.")
	r.Help(metricSegments, "Unmerged in-memory segments across all shards.")
	r.Help(metricTombstones, "Tombstoned documents awaiting compaction.")
	m := &engineMetrics{
		searches:     r.Counter(metricSearches),
		degraded:     r.Counter(metricDegraded),
		missing:      r.Counter(metricMissing),
		latency:      r.Histogram(metricSearchSec, nil),
		build:        r.Histogram(metricBuildSec, nil),
		ingest:       r.Histogram(metricIngestSec, nil),
		perShard:     make([]*obs.Histogram, shards),
		cacheHit:     r.Histogram(metricCacheSearch, nil, obs.L("result", "hit")),
		cacheMiss:    r.Histogram(metricCacheSearch, nil, obs.L("result", "miss")),
		quarantined:  r.Counter(metricQuarantined),
		merges:       r.Counter(metricMerges),
		mergeLatency: r.Histogram(metricMergeSec, nil),
		segments:     r.Gauge(metricSegments),
		tombstones:   r.Gauge(metricTombstones),
	}
	for i := range m.perShard {
		m.perShard[i] = r.Histogram(metricShardSearch, nil, obs.L("shard", strconv.Itoa(i)))
	}
	return m
}

// SetMetrics points the engine's instrumentation at a registry: obs.Default
// is wired by Build, a fresh registry isolates a test, and nil strips the
// instrumentation entirely (the uninstrumented arm of BenchmarkObsOverhead).
func (e *Engine) SetMetrics(r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.met = newEngineMetrics(r, len(e.base))
	e.updateLSMGaugesLocked()
}

// updateLSMGaugesLocked republishes the segment and tombstone gauges
// from the engine's current tree shape. Write lock (or build-time sole
// ownership) required.
func (e *Engine) updateLSMGaugesLocked() {
	segs, tombs := 0, 0
	for s := range e.base {
		segs += len(e.segs[s])
		if e.base[s] != nil {
			tombs += e.base[s].si.Index.NumDeleted()
		}
		for _, sub := range e.segs[s] {
			tombs += sub.si.Index.NumDeleted()
		}
	}
	e.met.segments.Set(float64(segs))
	e.met.tombstones.Set(float64(tombs))
}

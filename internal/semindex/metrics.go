package semindex

import "repro/internal/obs"

// queryCounts holds one obs.Default counter per semantic level,
// pre-registered at init so semindex_queries_total appears on /metrics
// (with zero values) before the first query. Counters count keyword
// queries, one per Prepare: a sharded engine prepares a search once and
// runs it on every shard's base and unmerged segments, so one user query
// increments its level's counter once, however many sub-indexes it reads.
var queryCounts = func() map[Level]*obs.Counter {
	obs.Default.Help("semindex_queries_total",
		"Keyword queries per semantic index level, one per user query.")
	m := make(map[Level]*obs.Counter, len(Levels))
	for _, l := range Levels {
		m[l] = obs.Default.Counter("semindex_queries_total", obs.L("level", string(l)))
	}
	return m
}()

// queryCounter returns the level's counter (nil — a no-op — for levels
// outside the evaluation ladder, e.g. hand-built test indices).
func queryCounter(l Level) *obs.Counter { return queryCounts[l] }

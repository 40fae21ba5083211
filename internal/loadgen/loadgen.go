package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Outcome is what a Target reports about one executed query.
type Outcome struct {
	// Hits is how many results came back (0 for suggest probes).
	Hits int
	// Degraded marks an answer merged without every shard.
	Degraded bool
}

// Target executes one query. Implementations must be safe for concurrent
// use: Run calls Do from every worker goroutine.
type Target interface {
	Do(ctx context.Context, q Query) (Outcome, error)
}

// EngineTarget drives the in-process sharded engine: search classes go
// through Engine.Search (the same entry point the HTTP layer uses),
// suggest probes through Engine.Suggest.
type EngineTarget struct {
	Eng *shard.Engine
	// Limit caps each answer; 0 means 10, matching the /v1 default.
	Limit int
	// Deadline, when positive, bounds each scatter — shards that miss it
	// produce a degraded (counted, not failed) answer.
	Deadline time.Duration
	// NoCache bypasses the query cache, forcing every request cold.
	NoCache bool
}

func (t *EngineTarget) Do(ctx context.Context, q Query) (Outcome, error) {
	if q.Class == ClassSuggest {
		t.Eng.Suggest(q.Text)
		return Outcome{}, nil
	}
	if t.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.Deadline)
		defer cancel()
	}
	limit := t.Limit
	if limit <= 0 {
		limit = 10
	}
	res, err := t.Eng.Search(ctx, q.Text, shard.SearchOptions{Limit: limit, NoCache: t.NoCache})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Hits: len(res.Hits), Degraded: res.Report.Degraded}, nil
}

// Config shapes one closed-loop run. Zero values select defaults, so only
// Queries is mandatory.
type Config struct {
	// Workers is the closed-loop concurrency: each worker issues its next
	// request the moment the previous one answers. <= 0 means 4.
	Workers int
	// Requests is the measured request count (across all workers);
	// <= 0 means 1000.
	Requests int
	// Warmup requests run first and are excluded from every statistic —
	// they fill caches and page the index hot. < 0 means 0.
	Warmup int
	// ZipfS is the query-popularity exponent (> 1) applied over Queries
	// by index — low indices are the hot head. <= 1 means 1.1.
	ZipfS float64
	// Seed drives query selection; worker w draws from Seed + w, so equal
	// configs replay the identical per-worker request sequence.
	Seed int64
	// Queries is the workload; GenerateQueries builds a realistic one.
	Queries []Query
	// Hist, when non-nil, also receives every measured latency — wiring
	// the run into an obs registry for Prometheus exposition.
	Hist *obs.Histogram
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	return c
}

// Result is one run's measured profile. Latency quantiles are computed
// over the raw measured samples (not histogram buckets), so p999 is exact
// for the sample size taken.
type Result struct {
	// Requests is the number of measured (post-warmup) requests.
	Requests int `json:"requests"`
	// Errors counts failed requests (transport errors, timeouts
	// surfacing as errors, non-200s).
	Errors int `json:"errors"`
	// Degraded counts answers merged without every shard.
	Degraded int `json:"degraded"`
	// Elapsed is the wall time of the measured phase.
	Elapsed time.Duration `json:"elapsedNs"`
	// QPS is Requests / Elapsed.
	QPS float64 `json:"qps"`
	// Latency quantiles over the measured samples.
	P50  time.Duration `json:"p50Ns"`
	P95  time.Duration `json:"p95Ns"`
	P99  time.Duration `json:"p99Ns"`
	P999 time.Duration `json:"p999Ns"`
	// ByClass counts measured requests per query class.
	ByClass map[Class]int `json:"byClass"`
}

// Run drives the closed loop: cfg.Workers goroutines each pull the next
// global sequence number, pick a query by Zipf rank, execute it against
// target and record the latency. The first cfg.Warmup requests are
// excluded from all statistics; the run ends when Warmup+Requests
// requests have completed or ctx is cancelled (returning ctx's error
// alongside the partial result).
func Run(ctx context.Context, target Target, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("loadgen: no queries")
	}
	total := int64(cfg.Warmup + cfg.Requests)

	type workerStats struct {
		samples  []time.Duration
		errors   int
		degraded int
		byClass  map[Class]int
	}
	var (
		seq           atomic.Int64
		measuredStart atomic.Int64 // UnixNano of the first measured request
		wg            sync.WaitGroup
		stats         = make([]workerStats, cfg.Workers)
	)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			st.byClass = map[Class]int{}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Queries)-1))
			for {
				n := seq.Add(1)
				if n > total || ctx.Err() != nil {
					return
				}
				measured := n > int64(cfg.Warmup)
				if measured {
					measuredStart.CompareAndSwap(0, time.Now().UnixNano())
				}
				q := cfg.Queries[zipf.Uint64()]
				start := time.Now()
				out, err := target.Do(ctx, q)
				d := time.Since(start)
				if !measured {
					continue
				}
				st.samples = append(st.samples, d)
				st.byClass[q.Class]++
				if err != nil {
					st.errors++
				} else if out.Degraded {
					st.degraded++
				}
				cfg.Hist.ObserveDuration(d)
			}
		}(w)
	}
	wg.Wait()

	res := &Result{ByClass: map[Class]int{}}
	var samples []time.Duration
	for i := range stats {
		samples = append(samples, stats[i].samples...)
		res.Errors += stats[i].errors
		res.Degraded += stats[i].degraded
		for c, n := range stats[i].byClass {
			res.ByClass[c] += n
		}
	}
	res.Requests = len(samples)
	if t0 := measuredStart.Load(); t0 != 0 {
		res.Elapsed = time.Since(time.Unix(0, t0))
	}
	if res.Elapsed > 0 {
		res.QPS = float64(res.Requests) / res.Elapsed.Seconds()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	res.P50 = quantileDur(samples, 0.50)
	res.P95 = quantileDur(samples, 0.95)
	res.P99 = quantileDur(samples, 0.99)
	res.P999 = quantileDur(samples, 0.999)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// quantileDur interpolates the q-quantile over sorted samples — the
// continuous (type-7) estimate, exact at the sample resolution.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + time.Duration(frac*float64(sorted[i+1]-sorted[i]))
}

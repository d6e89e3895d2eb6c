package service

import (
	"time"

	"seedblast/internal/pipeline"
	"seedblast/internal/telemetry"
)

// metrics is the service's instrument set on its registry, updated in
// place with atomics: the registry is the one store of the service's
// counts, and /metrics renders it. Only the index cache keeps its own
// counters (CacheStats), which the registry reads at scrape time.
type metrics struct {
	submitted *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	running   *telemetry.Gauge
	waiting   *telemetry.Gauge

	// Per-stage busy time of completed runs (the engine's Metrics),
	// plus engine wall time. The subject index comes from the cache
	// before the run starts, so index busy time is the query side's
	// step 1 plus every cold subject-index build or seeddb load.
	indexBusy     *telemetry.Counter
	prefilterBusy *telemetry.Counter
	step2Busy     *telemetry.Counter
	step3Busy     *telemetry.Counter
	wall          *telemetry.Counter

	alignments       *telemetry.Counter
	prefilterKept    *telemetry.Counter
	prefilterDropped *telemetry.Counter

	survivors *telemetry.Histogram            // prefilter survivors per query
	stage     map[string]*telemetry.Histogram // span name → latency
	request   *telemetry.Histogram            // whole-request latency
}

// newMetrics registers the service's families on r, the cache's as
// callbacks over its statistics.
func newMetrics(r *telemetry.Registry, cache *indexCache) *metrics {
	const p = "seedservd_"
	busy := func(stage string) *telemetry.Counter {
		return r.Counter(p+"stage_busy_seconds_total", "Per-stage busy time summed over completed runs.",
			telemetry.L("stage", stage))
	}
	m := &metrics{
		submitted: r.Counter(p+"requests_submitted_total", "Requests accepted (sync and async)."),
		completed: r.Counter(p+"requests_completed_total", "Requests finished successfully."),
		failed:    r.Counter(p+"requests_failed_total", "Requests that errored or were cancelled."),
		running:   r.Gauge(p+"requests_running", "Comparisons currently admitted."),
		waiting:   r.Gauge(p+"requests_waiting", "Requests blocked on admission or an index build."),

		indexBusy:     busy("index"),
		prefilterBusy: busy("prefilter"),
		step2Busy:     busy("step2"),
		step3Busy:     busy("step3"),
		wall:          r.Counter(p+"engine_wall_seconds_total", "Engine wall time summed over completed runs."),

		alignments:       r.Counter(p+"alignments_total", "Alignments reported across completed runs."),
		prefilterKept:    r.Counter(p+"prefilter_kept_total", "Candidate pairs kept by the prefilter's per-query top-K cut."),
		prefilterDropped: r.Counter(p+"prefilter_dropped_total", "Candidate pairs dropped at the prefilter's per-query top-K cut."),

		// Survivors per query, observed once per completed prefiltered
		// run (the run's mean): the distribution shows how often the
		// top-K cut actually binds versus passes everything through.
		survivors: r.Histogram(p+"prefilter_survivors",
			"Mean surviving subjects per query on completed prefiltered runs.",
			telemetry.ExpBuckets(1, 2, 16)),
		stage: make(map[string]*telemetry.Histogram),
		request: r.Histogram(p+"request_seconds",
			"End-to-end request latency (admission wait included).",
			telemetry.DurationBuckets),
	}
	for _, stage := range []string{"step1", "prefilter", "step2", "step3"} {
		m.stage[stage] = r.Histogram(p+"stage_seconds",
			"Per-shard stage latency, one observation per pipeline span.",
			telemetry.DurationBuckets, telemetry.L("stage", stage))
	}

	cached := func(name, help string, typ telemetry.MetricType, get func(CacheStats) float64) {
		r.Func(p+name, help, typ, func() float64 { return get(cache.snapshot()) })
	}
	cached("index_cache_hits_total", "Subject-index cache hits.", telemetry.TypeCounter,
		func(c CacheStats) float64 { return float64(c.Hits) })
	cached("index_cache_misses_total", "Subject-index cache misses.", telemetry.TypeCounter,
		func(c CacheStats) float64 { return float64(c.Misses) })
	cached("index_cache_evictions_total", "Subject indexes evicted from the LRU.", telemetry.TypeCounter,
		func(c CacheStats) float64 { return float64(c.Evictions) })
	cached("index_cache_disk_loads_total", "Cache misses served from a registered seeddb.", telemetry.TypeCounter,
		func(c CacheStats) float64 { return float64(c.DiskLoads) })
	cached("index_cache_entries", "Subject indexes resident in the cache.", telemetry.TypeGauge,
		func(c CacheStats) float64 { return float64(c.Entries) })
	cached("index_cache_hit_rate", "Cache hits over lookups since start.", telemetry.TypeGauge,
		CacheStats.HitRate)
	return m
}

// runDone accounts one completed in-process run: its engine metrics,
// the alignments it reported, and its trace's stage spans. Each job
// runs under its own trace, so the spans seen here are exactly this
// run's.
func (m *metrics) runDone(alignments int, pm *pipeline.Metrics, tr *telemetry.Trace) {
	m.indexBusy.Add(pm.Index.Busy.Seconds())
	m.prefilterBusy.Add(pm.Prefilter.Busy.Seconds())
	m.step2Busy.Add(pm.Step2.Busy.Seconds())
	m.step3Busy.Add(pm.Step3.Busy.Seconds())
	m.wall.Add(pm.Wall.Seconds())
	m.alignments.Add(float64(alignments))
	m.prefilterKept.Add(float64(pm.PrefilterKept))
	m.prefilterDropped.Add(float64(pm.PrefilterDropped))
	if q := pm.PrefilterQueries; q > 0 {
		m.survivors.Observe(float64(pm.PrefilterKept) / float64(q))
	}
	for _, sp := range tr.Spans() {
		if h, ok := m.stage[sp.Name]; ok {
			h.Observe(sp.Duration.Seconds())
		}
	}
}

// requestDone accounts a finished request: the outcome counters and,
// on success, the request span over the whole run and its latency.
func (m *metrics) requestDone(tr *telemetry.Trace, start time.Time, err error) {
	if err != nil {
		m.failed.Inc()
		return
	}
	m.completed.Inc()
	d := time.Since(start)
	tr.Record("request", start, d)
	m.request.Observe(d.Seconds())
}

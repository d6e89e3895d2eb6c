// Command loadgen drives a running seedservd or seedclusterd with a
// synthetic comparison workload and records what the daemon's own
// telemetry says about it: /metrics is scraped (and grammar-checked)
// before and after the run, every job's span trace is fetched over
// GET /v1/jobs/{id}/trace, and the result is a schema-versioned
// BENCH_*.json with cold-start latency, sustained throughput per core
// and exact per-stage p50/p95/p99.
//
// Closed mode (default) keeps -concurrency jobs in flight
// back-to-back, measuring capacity; open mode submits at a fixed
// -rate regardless of completions, measuring behaviour under offered
// load. Both speak the ordinary job API, so the same invocation works
// against a worker or a whole cluster:
//
//	loadgen -target http://127.0.0.1:8844 -duration 10s -out BENCH_0008.json
//	loadgen -target http://127.0.0.1:8844 -mode open -rate 20 -duration 30s
//	loadgen -check BENCH_0008.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/benchfmt"
	"seedblast/internal/service"
	"seedblast/internal/telemetry"
)

// StageQuantiles is one span series' exact latency quantiles, computed
// from the per-job traces (not histogram interpolation): "request" and
// step1/2/3 on a worker, partition/scatter/volume/gather plus the
// grafted worker stages on a cluster. "job" is the client-observed
// submit-to-done latency loadgen measures itself.
type StageQuantiles struct {
	Stage string  `json:"stage"`
	Count int     `json:"count"`
	P50MS float64 `json:"p50MS"`
	P95MS float64 `json:"p95MS"`
	P99MS float64 `json:"p99MS"`
}

// Record is the file layout of a loadgen BENCH_NNNN.json
// (benchfmt.SchemaLoadgen; documented in EXPERIMENTS.md).
type Record struct {
	Schema     string              `json:"schema"`
	ID         string              `json:"id"`
	Provenance benchfmt.Provenance `json:"provenance"`
	Daemon     string              `json:"daemon"` // seedservd or seedclusterd
	Mode       string              `json:"mode"`   // closed or open
	Workload   string              `json:"workload"`

	DurationS   float64 `json:"durationS"`
	Concurrency int     `json:"concurrency,omitempty"` // closed mode
	RateHz      float64 `json:"rateHz,omitempty"`      // open mode

	// ColdStartMS is the first job's submit-to-done latency against the
	// freshly started daemon — subject index build included. Every later
	// job hits the shared index cache.
	ColdStartMS float64 `json:"coldStartMS"`
	Jobs        int     `json:"jobs"` // completed during the timed window
	Failures    int     `json:"failures"`
	JobsPerSec  float64 `json:"jobsPerSec"`
	// JobsPerSecPerCore normalizes throughput by the client host's core
	// count (loadgen and daemon share the host in the CI smoke).
	JobsPerSecPerCore float64 `json:"jobsPerSecPerCore"`
	// CompletedCounterDelta is the daemon's own completed-requests
	// counter movement across the run (scraped from /metrics), a
	// cross-check against Jobs as the daemon counted them.
	CompletedCounterDelta float64 `json:"completedCounterDelta"`

	Stages []StageQuantiles `json:"stages"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	var (
		target      = flag.String("target", "http://127.0.0.1:8844", "daemon base URL (seedservd or seedclusterd)")
		mode        = flag.String("mode", "closed", "closed (fixed concurrency, back-to-back) or open (fixed submit rate)")
		concurrency = flag.Int("concurrency", 4, "closed mode: jobs in flight")
		rate        = flag.Float64("rate", 8, "open mode: submissions per second")
		duration    = flag.Duration("duration", 10*time.Second, "timed window length")
		queries     = flag.Int("queries", 4, "query sequences per job")
		queryLen    = flag.Int("query-len", 120, "query length")
		subjects    = flag.Int("subjects", 64, "subject sequences per job")
		subjectLen  = flag.Int("subject-len", 300, "subject length")
		seedV       = flag.Int64("seed", 42, "workload RNG seed")
		out         = flag.String("out", "", "write the record here (empty: print to stdout)")
		id          = flag.String("id", "BENCH_0008", "record identifier")
		check       = flag.String("check", "", "validate an existing record file and exit")
	)
	flag.Parse()

	if *check != "" {
		if err := checkRecord(*check); err != nil {
			log.Fatal(err)
		}
		log.Printf("%s: ok", *check)
		return
	}

	req := buildRequest(*seedV, *queries, *queryLen, *subjects, *subjectLen)
	rec := Record{
		Schema:     benchfmt.SchemaLoadgen,
		ID:         *id,
		Provenance: benchfmt.Collect(),
		Mode:       *mode,
		Workload: fmt.Sprintf("%d×%daa queries vs %d×%daa subjects per job, defaults otherwise",
			*queries, *queryLen, *subjects, *subjectLen),
	}

	ctx := context.Background()
	cl := service.NewClient(*target, service.ClientConfig{})
	hctx, hcancel := context.WithTimeout(ctx, 10*time.Second)
	err := cl.WaitHealthy(hctx)
	hcancel()
	if err != nil {
		log.Fatal(err)
	}

	before, err := scrape(ctx, *target)
	if err != nil {
		log.Fatalf("metrics before: %v", err)
	}
	rec.Daemon, err = daemonKind(before)
	if err != nil {
		log.Fatal(err)
	}
	if rec.Daemon == "seedservd" {
		if err := checkWorkerFamilies(before); err != nil {
			log.Fatal(err)
		}
	}

	col := newCollector()

	// Cold start: one job alone against the fresh daemon, index build
	// and all. It is deliberately outside the timed window — mixing the
	// one-off build into a 10 s throughput number would misstate both.
	coldMS, err := col.runJob(ctx, cl, req)
	if err != nil {
		log.Fatalf("cold-start job: %v", err)
	}
	rec.ColdStartMS = round3(coldMS)
	log.Printf("cold start: %.1f ms", coldMS)
	col.reset() // keep the timed window's quantiles pure

	start := time.Now()
	switch *mode {
	case "closed":
		rec.Concurrency = *concurrency
		runClosed(ctx, cl, req, col, *concurrency, *duration)
	case "open":
		rec.RateHz = *rate
		runOpen(ctx, cl, req, col, *rate, *duration)
	default:
		log.Fatalf("unknown -mode %q (closed, open)", *mode)
	}
	elapsed := time.Since(start)

	after, err := scrape(ctx, *target)
	if err != nil {
		log.Fatalf("metrics after: %v", err)
	}
	rec.CompletedCounterDelta = completedDelta(rec.Daemon, before, after)

	rec.DurationS = round3(elapsed.Seconds())
	rec.Jobs = col.jobs
	rec.Failures = col.failures
	rec.JobsPerSec = round3(float64(col.jobs) / elapsed.Seconds())
	rec.JobsPerSecPerCore = round3(rec.JobsPerSec / float64(runtime.NumCPU()))
	rec.Stages = col.quantiles()

	log.Printf("%s %s: %d jobs in %.1fs (%.2f jobs/s, %.3f per core), %d failures",
		rec.Daemon, rec.Mode, rec.Jobs, rec.DurationS, rec.JobsPerSec, rec.JobsPerSecPerCore, rec.Failures)
	for _, sq := range rec.Stages {
		log.Printf("  %-10s n=%-5d p50=%.2fms p95=%.2fms p99=%.2fms", sq.Stage, sq.Count, sq.P50MS, sq.P95MS, sq.P99MS)
	}

	buf, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// buildRequest generates the per-job wire request: deterministic
// random banks, every job identical so all but the first hit the
// daemon's subject-index cache (the steady-state serving regime).
func buildRequest(seed int64, n0, l0, n1, l1 int) *service.JobRequestJSON {
	rng := bank.NewRNG(seed)
	req := &service.JobRequestJSON{}
	for i := 0; i < n0; i++ {
		req.Query = append(req.Query, service.SequenceJSON{
			ID: fmt.Sprintf("q%d", i), Seq: alphabet.DecodeProtein(bank.RandomProtein(rng, l0)),
		})
	}
	for i := 0; i < n1; i++ {
		req.Subject = append(req.Subject, service.SequenceJSON{
			ID: fmt.Sprintf("s%d", i), Seq: alphabet.DecodeProtein(bank.RandomProtein(rng, l1)),
		})
	}
	return req
}

// collector accumulates per-job outcomes and span durations across the
// worker goroutines.
type collector struct {
	mu       sync.Mutex
	jobs     int
	failures int
	spans    map[string][]float64 // span name → durations (ms)
}

func newCollector() *collector {
	return &collector{spans: make(map[string][]float64)}
}

func (c *collector) reset() {
	c.mu.Lock()
	c.jobs, c.failures = 0, 0
	c.spans = make(map[string][]float64)
	c.mu.Unlock()
}

// runJob submits one job, waits it out, fetches its trace and folds
// everything into the collector. Returns the client-observed
// submit-to-done latency in ms.
func (c *collector) runJob(ctx context.Context, cl *service.Client, req *service.JobRequestJSON) (float64, error) {
	start := time.Now()
	id, err := cl.Submit(ctx, req)
	if err != nil {
		return 0, err
	}
	st, err := cl.Wait(ctx, id, 5*time.Millisecond)
	if err != nil {
		return 0, err
	}
	if st.State != string(service.JobDone) {
		return 0, fmt.Errorf("job %s: %s: %s", id, st.State, st.Error)
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)

	c.mu.Lock()
	c.jobs++
	c.spans["job"] = append(c.spans["job"], ms)
	c.mu.Unlock()

	// The trace is the daemon's own per-stage account of the job; a
	// fetch failure costs quantile samples, not the job.
	if tj, err := cl.Trace(ctx, id); err == nil {
		c.mu.Lock()
		for _, sp := range tj.Spans {
			c.spans[sp.Name] = append(c.spans[sp.Name], sp.DurationMS)
		}
		c.mu.Unlock()
	}
	return ms, nil
}

func (c *collector) fail() {
	c.mu.Lock()
	c.failures++
	c.mu.Unlock()
}

// quantiles computes exact per-stage p50/p95/p99 from the collected
// span durations, stages sorted by name for a stable record.
func (c *collector) quantiles() []StageQuantiles {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.spans))
	for name := range c.spans {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]StageQuantiles, 0, len(names))
	for _, name := range names {
		ds := c.spans[name]
		sort.Float64s(ds)
		out = append(out, StageQuantiles{
			Stage: name,
			Count: len(ds),
			P50MS: round3(quantile(ds, 0.50)),
			P95MS: round3(quantile(ds, 0.95)),
			P99MS: round3(quantile(ds, 0.99)),
		})
	}
	return out
}

// quantile returns the q-th quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// runClosed keeps `concurrency` jobs in flight back-to-back until the
// window closes: the classic capacity measurement.
func runClosed(ctx context.Context, cl *service.Client, req *service.JobRequestJSON,
	col *collector, concurrency int, d time.Duration) {
	dctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dctx.Err() == nil {
				if _, err := col.runJob(dctx, cl, req); err != nil {
					if dctx.Err() != nil {
						return // window closed mid-job, not a failure
					}
					col.fail()
				}
			}
		}()
	}
	wg.Wait()
}

// runOpen submits at a fixed rate whatever the completions do —
// offered load, not capacity. In-flight jobs are capped generously so
// a stalled daemon degrades the measurement instead of the client.
func runOpen(ctx context.Context, cl *service.Client, req *service.JobRequestJSON,
	col *collector, rate float64, d time.Duration) {
	if rate <= 0 {
		log.Fatal("-rate must be positive in open mode")
	}
	dctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer tick.Stop()
	sem := make(chan struct{}, 256)
	var wg sync.WaitGroup
	for {
		select {
		case <-dctx.Done():
			wg.Wait()
			return
		case <-tick.C:
		}
		select {
		case sem <- struct{}{}:
		default:
			col.fail() // in-flight cap hit: the daemon is not keeping up
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// Jobs submitted inside the window may finish after it; they
			// still count — open mode measures offered load.
			jctx, jcancel := context.WithTimeout(ctx, d)
			defer jcancel()
			if _, err := col.runJob(jctx, cl, req); err != nil {
				col.fail()
			}
		}()
	}
}

// scrape fetches and strictly parses a daemon's /metrics — every run
// of loadgen doubles as a grammar check of the exposition.
func scrape(ctx context.Context, target string) (telemetry.Families, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	fams, err := telemetry.ParseText(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", target, err)
	}
	return fams, nil
}

// daemonKind tells a worker from a coordinator by which metric
// families its /metrics serves.
func daemonKind(fams telemetry.Families) (string, error) {
	if _, ok := fams.Value("seedservd_requests_submitted_total"); ok {
		return "seedservd", nil
	}
	if _, ok := fams.Value("seedclusterd_requests_total"); ok {
		return "seedclusterd", nil
	}
	return "", fmt.Errorf("target serves neither seedservd nor seedclusterd metrics")
}

// workerFamilies is the metric surface a seedservd is expected to
// serve; a scrape missing any of them fails the run. The list is the
// contract the dashboards are built on, so a renamed or dropped family
// breaks here — in CI's loadgen smoke — instead of in production.
var workerFamilies = []string{
	"seedservd_requests_submitted_total",
	"seedservd_requests_completed_total",
	"seedservd_requests_failed_total",
	"seedservd_requests_running",
	"seedservd_requests_waiting",
	"seedservd_stage_busy_seconds_total",
	"seedservd_engine_wall_seconds_total",
	"seedservd_alignments_total",
	"seedservd_prefilter_kept_total",
	"seedservd_prefilter_dropped_total",
	"seedservd_prefilter_survivors",
	"seedservd_index_cache_hits_total",
	"seedservd_index_cache_misses_total",
	"seedservd_index_cache_evictions_total",
	"seedservd_index_cache_disk_loads_total",
	"seedservd_index_cache_entries",
	"seedservd_index_cache_hit_rate",
	"seedservd_stage_seconds",
	"seedservd_request_seconds",
}

// checkWorkerFamilies verifies the worker serves its full expected
// metric surface (families are keyed by base name, so histograms are
// matched by their family name, not their _bucket/_count series).
func checkWorkerFamilies(fams telemetry.Families) error {
	var missing []string
	for _, name := range workerFamilies {
		if fams[name] == nil {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("worker /metrics is missing expected families: %v", missing)
	}
	return nil
}

// completedDelta reads how far the daemon's completed-requests counter
// moved across the run.
func completedDelta(daemon string, before, after telemetry.Families) float64 {
	name := daemon + "_requests_completed_total"
	b, _ := before.Value(name)
	a, _ := after.Value(name)
	return a - b
}

// checkRecord validates a loadgen record file: schema, provenance and
// the measurement invariants the CI smoke gate relies on.
func checkRecord(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != benchfmt.SchemaLoadgen {
		return fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, benchfmt.SchemaLoadgen)
	}
	if rec.ID == "" {
		return fmt.Errorf("%s: missing id", path)
	}
	if err := rec.Provenance.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rec.Daemon != "seedservd" && rec.Daemon != "seedclusterd" {
		return fmt.Errorf("%s: daemon %q", path, rec.Daemon)
	}
	if rec.Mode != "closed" && rec.Mode != "open" {
		return fmt.Errorf("%s: mode %q", path, rec.Mode)
	}
	if rec.Jobs <= 0 || rec.JobsPerSec <= 0 || rec.DurationS <= 0 {
		return fmt.Errorf("%s: empty measurement (jobs=%d jobsPerSec=%g durationS=%g)",
			path, rec.Jobs, rec.JobsPerSec, rec.DurationS)
	}
	if rec.ColdStartMS <= 0 {
		return fmt.Errorf("%s: missing cold-start sample", path)
	}
	if len(rec.Stages) == 0 {
		return fmt.Errorf("%s: no stage quantiles", path)
	}
	for _, sq := range rec.Stages {
		if sq.Count <= 0 {
			return fmt.Errorf("%s: stage %q has no samples", path, sq.Stage)
		}
		if sq.P50MS > sq.P95MS || sq.P95MS > sq.P99MS {
			return fmt.Errorf("%s: stage %q quantiles not monotonic (%g/%g/%g)",
				path, sq.Stage, sq.P50MS, sq.P95MS, sq.P99MS)
		}
	}
	return nil
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

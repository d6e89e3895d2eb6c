// Package service is the comparison-as-a-service layer: a long-lived,
// concurrency-safe front end over the streaming shard engine (package
// pipeline, driven through package core). The paper's host/accelerator
// split assumes one batch job; a production deployment instead sees
// many concurrent query banks against a small set of hot subject
// banks. The service exploits that regime three ways:
//
//   - Shared subject indexes. Step 1 of the paper's algorithm is pure
//     preprocessing of the subject bank, so its product is cached in an
//     LRU keyed by (bank fingerprint, seed model, N) and shared across
//     requests. Singleflight build semantics mean a burst of requests
//     against a cold subject pays for exactly one build.
//   - Bounded admission. A semaphore caps how many comparisons run
//     simultaneously, so K requests stream through the engine without
//     oversubscribing the step-2 backend or the host; the rest queue.
//   - Async jobs. Submit returns immediately with a pollable Job;
//     the synchronous Search wraps the same path.
//
// Every request runs through its core.Searcher against a per-request
// Target that adopts the cached index, so results are bit-identical to
// a standalone Searcher.Search with the same options. cmd/seedservd
// exposes the service over HTTP+JSON; with a Config.Run hook the same
// job API fronts the cluster coordinator instead of the engine.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/index"
	"seedblast/internal/telemetry"
)

// Config tunes the service. The zero value gets sensible defaults.
type Config struct {
	// MaxConcurrent is the admission bound: how many comparisons may
	// run at once. Requests beyond it queue (FIFO over a semaphore).
	// Zero or negative means 2.
	MaxConcurrent int
	// CacheEntries is the subject-index LRU capacity in indexes.
	// Zero or negative means 8.
	CacheEntries int
	// MaxJobsRetained caps how many finished jobs stay pollable; once
	// exceeded, the oldest finished jobs are dropped (queued and
	// running jobs are never dropped). Bounds a long-lived daemon's
	// memory. Zero or negative means 256.
	MaxJobsRetained int
	// JobTTL caps how long a finished job (and its result) stays
	// pollable; finished jobs older than it are evicted on the next
	// store access, whichever of TTL and MaxJobsRetained bites first.
	// Queued and running jobs never expire. Zero means 15 minutes;
	// negative disables TTL eviction.
	JobTTL time.Duration
	// MaxQueued caps async jobs admitted but not yet finished. Pending
	// jobs hold their full request (banks included) and are never
	// evicted, so without a cap a submit burst grows daemon memory
	// without bound no matter what the finished-job eviction does.
	// Submit rejects beyond it. Zero means 1024; negative disables.
	MaxQueued int
	// SweepInterval is the cadence of the background job-store sweep
	// that evicts expired jobs on an idle daemon (access-time pruning
	// alone would retain dead jobs and their alignments until the next
	// request). Zero means JobTTL/2, clamped to [1s, 1min]; negative
	// disables the sweeper (pruning still happens on access).
	SweepInterval time.Duration
	// Logger, when set, receives operational events the service cannot
	// surface through a request's error — e.g. a failed munmap while
	// discarding a stale disk-registry index. Nil discards them;
	// daemons wire it to their structured logger.
	Logger *slog.Logger
	// Run, when set, runs every submitted job in place of the
	// in-process search (seedservd -workers: the cluster coordinator).
	// Jobs then carry their wire body (Request.Body), must be
	// bank-vs-bank without a searchSpace, and read no index.
	Run RunFunc
}

// RunFunc runs one job to completion. started fires once, when the job
// stops waiting for admission and starts comparing.
type RunFunc func(ctx context.Context, req *Request, started func()) (*Result, error)

// Result is a finished job's outcome as the API reports it.
type Result struct {
	Alignments []AlignmentJSON // in rank order
	Hits       int
	Pairs      int64
	WallMS     float64        // engine wall time; a clustered job sums its volumes'
	Shards     map[string]int // shards per step-2 backend; nil for a clustered job
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 8
	}
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 256
	}
	if c.JobTTL == 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 1024
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = defaultSweepInterval(c.JobTTL)
	}
	return c
}

// log returns the configured structured logger (a discard logger when
// none is set), so call sites never nil-check.
func (s *Service) log() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// defaultSweepInterval derives a job-store sweep cadence from a TTL:
// half the TTL bounds staleness at 1.5× the configured age, clamped so
// tiny test TTLs don't spin and huge TTLs still sweep every minute.
func defaultSweepInterval(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return -1 // no TTL: access-time count pruning suffices
	}
	iv := ttl / 2
	if iv < time.Second {
		iv = time.Second
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}

// Request describes one comparison. Exactly one of Subject (bank vs
// bank) or Genome (protein bank vs genome, tblastn-style) must be set.
type Request struct {
	Query   *bank.Bank
	Subject *bank.Bank
	Genome  []byte // encoded DNA (alphabet.EncodeDNA)
	// Searcher runs the comparison, so its options were validated when
	// it was built; one Searcher may serve any number of requests. Nil
	// means the pipeline defaults (core.NewSearcher with no options).
	Searcher *core.Searcher
	// TraceID, when set, names the job's trace — the cluster coordinator
	// propagates its trace ID here (via the Seedblast-Trace-Id header) so
	// worker spans correlate with the coordinator's. Empty means a fresh
	// random ID.
	TraceID string
	// Body is the request as it arrived over the wire, set instead of
	// the banks when the service forwards its jobs (Config.Run).
	Body *JobRequestJSON
}

// JobState is a job's lifecycle position.
type JobState string

// Job states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one asynchronous comparison. All accessors are safe for
// concurrent use.
type Job struct {
	id     string
	req    *Request
	trace  *telemetry.Trace
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	snap JobSnapshot
}

// JobSnapshot is a job's mutable state as of one instant: the
// lifecycle position, its timestamps (zero until the phase is reached)
// and, once finished, either the failure or the outcome. Result is set
// together with State == JobDone and Finished, so a reader never sees
// a done job without it.
type JobSnapshot struct {
	State     JobState
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Err       error // nil unless State is JobFailed
	Result    *Result
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Trace returns the job's span trace. It is live: the pipeline appends
// spans while the job runs, and Trace().Spans() snapshots safely.
func (j *Job) Trace() *telemetry.Trace { return j.trace }

// Snapshot returns the job's state read under one lock acquisition —
// the only way to see state, timestamps and outcome consistent with
// each other.
func (j *Job) Snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap
}

// State returns the current lifecycle state.
func (j *Job) State() JobState { return j.Snapshot().State }

// Err returns the job's failure, nil unless State is JobFailed.
func (j *Job) Err() error { return j.Snapshot().Err }

// Done returns a channel closed when the job finishes (done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel stops the job; a queued job fails without running, a running
// one is cancelled through its context.
func (j *Job) Cancel() { j.cancel() }

// Wait blocks until the job finishes or ctx is cancelled.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// MetricsSnapshot is a point-in-time view of the service's counters.
type MetricsSnapshot struct {
	Submitted int64 // requests accepted (sync + async)
	Completed int64
	Failed    int64
	Running   int // comparisons currently admitted
	Waiting   int // requests blocked on admission or on a shared index build

	Cache        CacheStats
	CacheHitRate float64

	// Per-stage busy time summed over all completed runs (the engine's
	// Metrics accounting), plus total engine wall time. IndexBusy only
	// grows when an index is actually built, so its ratio to Step2Busy
	// shrinks as the cache gets hotter.
	IndexBusy     time.Duration
	PrefilterBusy time.Duration
	Step2Busy     time.Duration
	Step3Busy     time.Duration
	Wall          time.Duration

	Alignments int64 // alignments reported across completed runs

	// Prefilter pair accounting summed over completed runs: candidate
	// (query, subject) pairs kept by and dropped at the per-query
	// top-K cut. Both stay zero while no request enables
	// maxCandidates.
	PrefilterKept    int64
	PrefilterDropped int64
}

// Service is the comparison service. Create with New; all methods are
// safe for concurrent use.
type Service struct {
	cfg      Config
	sem      chan struct{}
	buildSem chan struct{} // bounds concurrent cold index builds
	cache    *indexCache
	disk     diskRegistry // fingerprint → seeddb path (RegisterDB)

	store *JobStore
	run   RunFunc // Config.Run, or the in-process runLocal

	reg           *telemetry.Registry
	stageHist     map[string]*telemetry.Histogram // span name → latency histogram
	reqHist       *telemetry.Histogram            // whole-request latency
	survivorsHist *telemetry.Histogram            // prefilter survivors per query

	mu      sync.Mutex
	seq     int
	pending int // async jobs admitted but not finished
	closed  bool
	running int
	waiting int

	submitted        int64
	completed        int64
	failed           int64
	indexBusy        time.Duration
	prefilterBusy    time.Duration
	step2Busy        time.Duration
	step3Busy        time.Duration
	wall             time.Duration
	alignments       int64
	prefilterKept    int64
	prefilterDropped int64

	wg sync.WaitGroup // outstanding async jobs
}

// New returns a ready service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		buildSem: make(chan struct{}, cfg.MaxConcurrent),
		cache:    newIndexCache(cfg.CacheEntries),
		store:    NewJobStore(cfg.MaxJobsRetained, cfg.JobTTL),
		reg:      telemetry.NewRegistry(),
		run:      cfg.Run,
	}
	if s.run == nil {
		s.run = s.runLocal
	}
	s.registerMetrics()
	s.store.StartSweeper(cfg.SweepInterval)
	return s
}

// Registry returns the metrics registry the service reports on; the
// HTTP layer serves it on /metrics.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// registerMetrics puts the service's counters on the registry. The
// historical /metrics names are kept verbatim as callback-backed
// metrics over the MetricsSnapshot counters — one source of truth, now
// with HELP/TYPE lines — and per-shard stage latencies gain real
// histograms fed from each finished run's trace spans.
func (s *Service) registerMetrics() {
	r := s.reg
	cnt := func(name, help string, get func(MetricsSnapshot) float64) {
		r.Func("seedservd_"+name, help, telemetry.TypeCounter, func() float64 { return get(s.Metrics()) })
	}
	gau := func(name, help string, get func(MetricsSnapshot) float64) {
		r.Func("seedservd_"+name, help, telemetry.TypeGauge, func() float64 { return get(s.Metrics()) })
	}
	cnt("requests_submitted_total", "Requests accepted (sync and async).",
		func(m MetricsSnapshot) float64 { return float64(m.Submitted) })
	cnt("requests_completed_total", "Requests finished successfully.",
		func(m MetricsSnapshot) float64 { return float64(m.Completed) })
	cnt("requests_failed_total", "Requests that errored or were cancelled.",
		func(m MetricsSnapshot) float64 { return float64(m.Failed) })
	gau("requests_running", "Comparisons currently admitted.",
		func(m MetricsSnapshot) float64 { return float64(m.Running) })
	gau("requests_waiting", "Requests blocked on admission or an index build.",
		func(m MetricsSnapshot) float64 { return float64(m.Waiting) })
	cnt("index_cache_hits_total", "Subject-index cache hits.",
		func(m MetricsSnapshot) float64 { return float64(m.Cache.Hits) })
	cnt("index_cache_misses_total", "Subject-index cache misses.",
		func(m MetricsSnapshot) float64 { return float64(m.Cache.Misses) })
	cnt("index_cache_evictions_total", "Subject indexes evicted from the LRU.",
		func(m MetricsSnapshot) float64 { return float64(m.Cache.Evictions) })
	cnt("index_cache_disk_loads_total", "Cache misses served from a registered seeddb.",
		func(m MetricsSnapshot) float64 { return float64(m.Cache.DiskLoads) })
	gau("index_cache_entries", "Subject indexes resident in the cache.",
		func(m MetricsSnapshot) float64 { return float64(m.Cache.Entries) })
	gau("index_cache_hit_rate", "Cache hits over lookups since start.",
		func(m MetricsSnapshot) float64 { return m.CacheHitRate })
	// Registration order fixes the exposition order (index first —
	// scrapers reading the family without labels see a live series),
	// so this stays a slice, not a map.
	for _, sc := range []struct {
		stage string
		get   func(MetricsSnapshot) time.Duration
	}{
		{"index", func(m MetricsSnapshot) time.Duration { return m.IndexBusy }},
		{"prefilter", func(m MetricsSnapshot) time.Duration { return m.PrefilterBusy }},
		{"step2", func(m MetricsSnapshot) time.Duration { return m.Step2Busy }},
		{"step3", func(m MetricsSnapshot) time.Duration { return m.Step3Busy }},
	} {
		stage, get := sc.stage, sc.get
		r.Func("seedservd_stage_busy_seconds_total",
			"Per-stage busy time summed over completed runs.",
			telemetry.TypeCounter,
			func() float64 { return get(s.Metrics()).Seconds() },
			telemetry.L("stage", stage))
	}
	cnt("engine_wall_seconds_total", "Engine wall time summed over completed runs.",
		func(m MetricsSnapshot) float64 { return m.Wall.Seconds() })
	cnt("alignments_total", "Alignments reported across completed runs.",
		func(m MetricsSnapshot) float64 { return float64(m.Alignments) })
	cnt("prefilter_kept_total", "Candidate pairs kept by the prefilter's per-query top-K cut.",
		func(m MetricsSnapshot) float64 { return float64(m.PrefilterKept) })
	cnt("prefilter_dropped_total", "Candidate pairs dropped at the prefilter's per-query top-K cut.",
		func(m MetricsSnapshot) float64 { return float64(m.PrefilterDropped) })

	// Survivors per query, observed once per completed prefiltered run
	// (the run's mean): the distribution shows how often the top-K cut
	// actually binds versus passes everything through.
	s.survivorsHist = r.Histogram("seedservd_prefilter_survivors",
		"Mean surviving subjects per query on completed prefiltered runs.",
		telemetry.ExpBuckets(1, 2, 16))

	s.stageHist = make(map[string]*telemetry.Histogram)
	for _, stage := range []string{"step1", "prefilter", "step2", "step3"} {
		s.stageHist[stage] = r.Histogram("seedservd_stage_seconds",
			"Per-shard stage latency, one observation per pipeline span.",
			telemetry.DurationBuckets, telemetry.L("stage", stage))
	}
	s.reqHist = r.Histogram("seedservd_request_seconds",
		"End-to-end request latency (admission wait included).",
		telemetry.DurationBuckets)
}

// observeTrace feeds one finished run's stage spans into the latency
// histograms. Each job and each sync call runs under its own trace, so
// the spans seen here are exactly this run's.
func (s *Service) observeTrace(tr *telemetry.Trace) {
	for _, sp := range tr.Spans() {
		if h, ok := s.stageHist[sp.Name]; ok {
			h.Observe(sp.Duration.Seconds())
		}
	}
}

// Search runs a request synchronously in process, whatever Config.Run
// says. Results are bit-identical to the request's Searcher run
// standalone. A genome's six-frame index is cached like any subject
// bank, keyed by genome digest, genetic code, seed and N.
func (s *Service) Search(ctx context.Context, req *Request) ([]core.Match, *core.Summary, error) {
	if err := validate(req); err != nil {
		return nil, nil, err
	}
	tr := telemetry.TraceFromContext(ctx)
	if tr == nil {
		tr = telemetry.NewTrace(telemetry.NewTraceID())
		ctx = telemetry.ContextWithTrace(ctx, tr)
	}
	start := s.begin()
	ms, sum, err := s.compare(ctx, req, nil)
	s.end(tr, start, err)
	return ms, sum, err
}

// Submit accepts a request for asynchronous execution and returns its
// Job immediately. The job runs as soon as admission allows.
func (s *Service) Submit(req *Request) (*Job, error) {
	if s.cfg.Run == nil {
		if err := validate(req); err != nil {
			return nil, err
		}
	} else if req == nil || req.Body == nil {
		return nil, fmt.Errorf("service: a forwarded request needs its wire body")
	}
	// The job's trace: the submitter's ID when one came over the wire
	// (the cluster coordinator correlating worker spans with its own),
	// fresh otherwise. It rides the job context so the pipeline finds it.
	tid := req.TraceID
	if tid == "" {
		tid = telemetry.NewTraceID()
	}
	tr := telemetry.NewTrace(tid)
	ctx, cancel := context.WithCancel(telemetry.ContextWithTrace(context.Background(), tr))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("service: closed")
	}
	if s.cfg.MaxQueued > 0 && s.pending >= s.cfg.MaxQueued {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("service: %d jobs pending, queue full", s.cfg.MaxQueued)
	}
	s.pending++
	s.seq++
	j := &Job{
		id:     fmt.Sprintf("job-%d", s.seq),
		req:    req,
		trace:  tr,
		cancel: cancel,
		done:   make(chan struct{}),
		snap:   JobSnapshot{State: JobQueued, Submitted: time.Now()},
	}
	s.wg.Add(1)
	// Added under s.mu so concurrent submits land in the store in id
	// order — Jobs() ordering and oldest-first eviction both rely on it.
	s.store.Add(j.id, j)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		defer cancel()
		start := s.begin()
		res, err := s.run(ctx, req, func() {
			j.mu.Lock()
			j.snap.State = JobRunning
			j.snap.Started = time.Now()
			j.mu.Unlock()
		})
		s.end(tr, start, err)
		j.mu.Lock()
		j.snap.Finished = time.Now()
		if err != nil {
			j.snap.State = JobFailed
			j.snap.Err = err
		} else {
			j.snap.State = JobDone
			j.snap.Result = res
		}
		j.mu.Unlock()
		close(j.done)
		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
		s.store.Prune()
	}()
	return j, nil
}

// Job returns the job with the given id. A finished job past its TTL
// is gone: expiry is enforced on every lookup.
func (s *Service) Job(id string) (*Job, bool) { return s.store.Get(id) }

// Jobs returns all retained jobs in submission order.
func (s *Service) Jobs() []*Job { return s.store.All() }

// Close stops accepting new jobs, cancels the outstanding ones (a
// forwarded job may hang on a worker that never answers), waits for
// them to end and shuts the job-store sweeper down.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for _, j := range s.store.All() { // unfinished jobs are never evicted
		j.Cancel()
	}
	s.wg.Wait()
	s.store.StopSweeper()
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() MetricsSnapshot {
	cs := s.cache.snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	return MetricsSnapshot{
		Submitted:        s.submitted,
		Completed:        s.completed,
		Failed:           s.failed,
		Running:          s.running,
		Waiting:          s.waiting,
		Cache:            cs,
		CacheHitRate:     cs.HitRate(),
		IndexBusy:        s.indexBusy,
		PrefilterBusy:    s.prefilterBusy,
		Step2Busy:        s.step2Busy,
		Step3Busy:        s.step3Busy,
		Wall:             s.wall,
		Alignments:       s.alignments,
		PrefilterKept:    s.prefilterKept,
		PrefilterDropped: s.prefilterDropped,
	}
}

func validate(req *Request) error {
	if req == nil || req.Query == nil {
		return fmt.Errorf("service: request needs a query bank")
	}
	if (req.Subject == nil) == (req.Genome == nil) {
		return fmt.Errorf("service: request needs exactly one of Subject or Genome")
	}
	return nil
}

// subjectTarget is a search target that can adopt the cached index.
type subjectTarget interface {
	core.Target
	Adopt(*index.Index)
}

// subject builds the request's search target and the cache key of its
// step-1 index. A genome is translated exactly once, here: the index
// is built from — and later adopted by — this same target's frame
// bank, so a cached genome index cannot mismatch its target.
func subject(req *Request, opt *core.Options) (subjectTarget, string) {
	if req.Genome != nil {
		tgt := core.NewGenomeTarget(req.Genome, opt.GeneticCode)
		sum := sha256.Sum256(req.Genome)
		return tgt, fmt.Sprintf("genome/%s/%s/%s",
			hex.EncodeToString(sum[:]), tgt.Code().Name(),
			index.ModelIdentity(opt.Seed, opt.N))
	}
	return core.NewProteinTarget(req.Subject), index.Fingerprint(req.Subject, opt.Seed, opt.N)
}

// begin counts a request in and returns its start.
func (s *Service) begin() time.Time {
	s.mu.Lock()
	s.submitted++
	s.mu.Unlock()
	return time.Now()
}

// end accounts a finished request: the outcome counters and, on
// success, the request span over the whole run and its latency.
func (s *Service) end(tr *telemetry.Trace, start time.Time, err error) {
	d := time.Since(start)
	s.mu.Lock()
	if err != nil {
		s.failed++
	} else {
		s.completed++
	}
	s.mu.Unlock()
	if err == nil {
		tr.Record("request", start, d)
		s.reqHist.Observe(d.Seconds())
	}
}

// runLocal is the in-process RunFunc: compare, with the matches put in
// wire form.
func (s *Service) runLocal(ctx context.Context, req *Request, started func()) (*Result, error) {
	ms, sum, err := s.compare(ctx, req, started)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Alignments: make([]AlignmentJSON, len(ms)),
		Hits:       sum.Hits,
		Pairs:      sum.Pairs,
		WallMS:     float64(sum.Pipeline.Wall) / float64(time.Millisecond),
		Shards:     sum.Pipeline.ShardsByBackend,
	}
	for i := range ms {
		res.Alignments[i] = MatchJSON(&ms[i])
	}
	return res, nil
}

// compare is the in-process execution path of a validated request:
// obtain the shared subject index (cache + singleflight), pass
// admission, run the engine, record the engine's metrics. onStart,
// when non-nil, fires once the request passes admission and actually
// starts comparing.
func (s *Service) compare(ctx context.Context, req *Request, onStart func()) ([]core.Match, *core.Summary, error) {
	searcher := req.Searcher
	if searcher == nil {
		var err error
		if searcher, err = core.NewSearcher(); err != nil {
			return nil, nil, err
		}
	}
	opt := searcher.Options()

	// The pipeline records per-shard stage spans into the run's trace
	// (Submit and Search put one in ctx); on success they feed the
	// stage-latency histograms.
	tr := telemetry.TraceFromContext(ctx)

	s.mu.Lock()
	s.waiting++
	s.mu.Unlock()

	finish := func(ms []core.Match, sum *core.Summary, err error) ([]core.Match, *core.Summary, error) {
		if err != nil {
			return nil, nil, err
		}
		s.mu.Lock()
		pm := &sum.Pipeline
		s.indexBusy += pm.Index.Busy
		s.prefilterBusy += pm.Prefilter.Busy
		s.step2Busy += pm.Step2.Busy
		s.step3Busy += pm.Step3.Busy
		s.wall += pm.Wall
		s.alignments += int64(len(ms))
		s.prefilterKept += pm.PrefilterKept
		s.prefilterDropped += pm.PrefilterDropped
		s.mu.Unlock()
		if q := pm.PrefilterQueries; q > 0 {
			s.survivorsHist.Observe(float64(pm.PrefilterKept) / float64(q))
		}
		s.observeTrace(tr)
		return ms, sum, nil
	}

	// The index build/lookup happens outside the admission gate: a
	// build is one-off per subject (singleflight), and keeping waiters
	// out of the semaphore means a slow build never pins a compare
	// slot. Cold builds have their own bound of the same size, so a
	// burst against many distinct cold subjects cannot oversubscribe
	// the host with parallel builds. The build itself deliberately
	// ignores the requester's context: concurrent waiters share its
	// result, so cancelling the request that happened to arrive first
	// must not poison everyone else — ctx only bounds this caller's
	// wait (inside cache.get).
	tgt, key := subject(req, &opt)
	gatedBuild := func() (*index.Index, error) {
		s.buildSem <- struct{}{}
		defer func() { <-s.buildSem }()
		// Second tier before rebuild: a registered seeddb with this
		// fingerprint is loaded from disk (mmap, no step-1 pass). A
		// failed or stale disk load silently falls back to building —
		// the rebuild path is always correct.
		if ix, ok := s.loadFromDisk(key); ok {
			return ix, nil
		}
		return index.BuildParallel(tgt.Bank(), opt.Seed, opt.N, opt.Workers)
	}
	ix, err := s.cache.get(ctx, key, gatedBuild)
	if err != nil {
		s.mu.Lock()
		s.waiting--
		s.mu.Unlock()
		return finish(nil, nil, fmt.Errorf("service: subject index: %w", err))
	}
	tgt.Adopt(ix)

	// Admission: at most MaxConcurrent comparisons in flight.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.mu.Lock()
		s.waiting--
		s.mu.Unlock()
		return finish(nil, nil, ctx.Err())
	}
	s.mu.Lock()
	s.waiting--
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		<-s.sem
	}()
	if onStart != nil {
		onStart()
	}

	res := searcher.Search(ctx, core.NewProteinTarget(req.Query), tgt)
	ms, err := res.Collect()
	if err != nil {
		return finish(nil, nil, err)
	}
	sum, err := res.Summary()
	return finish(ms, sum, err)
}

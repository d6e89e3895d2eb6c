// Package service is the comparison-as-a-service layer: a long-lived,
// concurrency-safe front end over the shard engine (package
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
//   - Async jobs. Submit returns immediately with a pollable Job.
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
	// NDJSON holds the alignments in rank order, one appendAlignment
	// line each: the body of the ?stream=1 fetch.
	NDJSON []byte
	Count  int // alignments, one per NDJSON line
	Hits   int
	Pairs  int64
	WallMS float64 // engine wall time; a clustered job sums its volumes'
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

// Done returns a channel closed when the job finishes (done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel stops the job; a queued job fails without running, a running
// one is cancelled through its context.
func (j *Job) Cancel() { j.cancel() }

// MetricsSnapshot is a point-in-time view of the subject-index
// cache's counters. Every other count of the service lives on its
// registry (Registry, served on /metrics). This view is kept only
// because the benchmark harness reads the cache's hits and misses
// through it; it goes when that harness reads the registry (ROADMAP
// item 7).
type MetricsSnapshot struct {
	Cache CacheStats
}

// Service is the comparison service. Create with New; all methods are
// safe for concurrent use.
type Service struct {
	cfg      Config
	sem      chan struct{}
	buildSem chan struct{} // bounds concurrent cold index builds
	cache    *indexCache
	disk     diskRegistry // fingerprint → seeddb path (PreloadDB)

	store *JobStore
	run   RunFunc // Config.Run, or the in-process runLocal

	reg *telemetry.Registry
	met *metrics

	mu      sync.Mutex
	seq     int
	pending int // async jobs admitted but not finished
	closed  bool

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
	s.met = newMetrics(s.reg, s.cache)
	s.store.StartSweeper(cfg.SweepInterval)
	return s
}

// Registry returns the metrics registry the service reports on; the
// HTTP layer serves it on /metrics.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

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
		s.met.submitted.Inc()
		start := time.Now()
		res, err := s.run(ctx, req, func() {
			j.mu.Lock()
			j.snap.State = JobRunning
			j.snap.Started = time.Now()
			j.mu.Unlock()
		})
		s.met.requestDone(tr, start, err)
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

// Metrics returns a snapshot of the cache counters.
func (s *Service) Metrics() MetricsSnapshot { return MetricsSnapshot{Cache: s.cache.snapshot()} }

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

// runLocal is the in-process RunFunc: compare, with the matches
// encoded once into the job's NDJSON body.
func (s *Service) runLocal(ctx context.Context, req *Request, started func()) (*Result, error) {
	ms, sum, err := s.compare(ctx, req, started)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	nd, err := encodeMatches(ms)
	if err != nil {
		return nil, err
	}
	telemetry.TraceFromContext(ctx).Record("encode", t0, time.Since(t0), telemetry.Int("alignments", len(ms)))
	return &Result{
		NDJSON: nd,
		Count:  len(ms),
		Hits:   sum.Hits,
		Pairs:  sum.Pairs,
		WallMS: float64(sum.Pipeline.Wall) / float64(time.Millisecond),
	}, nil
}

// encodeMatches writes ms as NDJSON into one buffer sized for them.
func encodeMatches(ms []core.Match) ([]byte, error) {
	n := 0
	for i := range ms {
		n += LineBytes + len(ms[i].Query.ID) + len(ms[i].Subject.ID)
	}
	buf := make([]byte, 0, n)
	for i := range ms {
		a := MatchJSON(&ms[i])
		var err error
		if buf, err = appendAlignment(buf, &a); err != nil {
			return nil, fmt.Errorf("service: alignment %d of %s against %s: %w", i, a.Query, a.Subject, err)
		}
		buf = append(buf, '\n')
	}
	return buf, nil
}

// compare is the in-process execution path of a validated request:
// obtain the shared subject index (cache + singleflight), pass
// admission, run the engine, record the engine's metrics. onStart
// fires once the request passes admission and actually starts
// comparing.
func (s *Service) compare(ctx context.Context, req *Request, onStart func()) ([]core.Match, *core.Summary, error) {
	searcher := req.Searcher
	if searcher == nil {
		var err error
		if searcher, err = core.NewSearcher(); err != nil {
			return nil, nil, err
		}
	}
	opt := searcher.Options()

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
		// The build or load is index busy time, and a span of the job
		// that ran it, whether or not it succeeds.
		t0 := time.Now()
		defer func() {
			d := time.Since(t0)
			s.met.indexBusy.Add(d.Seconds())
			telemetry.TraceFromContext(ctx).Record("index", t0, d)
		}()
		// Second tier before rebuild: a registered seeddb with this
		// fingerprint is loaded from disk (mmap, no step-1 pass). A
		// failed or stale disk load silently falls back to building —
		// the rebuild path is always correct.
		if ix, ok := s.loadFromDisk(key); ok {
			return ix, nil
		}
		return index.BuildParallel(tgt.Bank(), opt.Seed, opt.N, opt.Workers)
	}
	s.met.waiting.Add(1)
	ix, err := s.cache.get(ctx, key, gatedBuild)
	if err != nil {
		err = fmt.Errorf("service: subject index: %w", err)
	} else {
		// Admission: at most MaxConcurrent comparisons in flight.
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.met.waiting.Add(-1)
	if err != nil {
		return nil, nil, err
	}
	s.met.running.Add(1)
	defer func() {
		s.met.running.Add(-1)
		<-s.sem
	}()
	tgt.Adopt(ix)
	onStart()

	res := searcher.Search(ctx, core.NewProteinTarget(req.Query), tgt)
	ms, err := res.Collect()
	if err != nil {
		return nil, nil, err
	}
	sum, err := res.Summary()
	if err != nil {
		return nil, nil, err
	}
	// The pipeline recorded per-shard stage spans into the run's trace
	// (Submit puts one in ctx); they feed the stage-latency histograms.
	s.met.runDone(len(ms), &sum.Pipeline, telemetry.TraceFromContext(ctx))
	return ms, sum, nil
}

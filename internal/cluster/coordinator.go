package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"seedblast/internal/service"
	"seedblast/internal/telemetry"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers are the seedservd base URLs the coordinator scatters
	// over. At least one is required.
	Workers []string
	// Partitioner cuts the subject bank into volumes. Nil means
	// SizeBalanced.
	Partitioner Partitioner
	// Volumes is how many volumes each request is cut into. Zero means
	// one per worker. A request keeps one volume per worker in flight,
	// so more volumes than workers is useful when worker capacity is
	// uneven: volumes queue and fast workers take more of them — at the
	// cost of more per-volume overhead.
	Volumes int
	// Client tunes the per-worker HTTP clients (timeouts, retry
	// backoff for idempotent calls).
	Client service.ClientConfig
}

func (c Config) withDefaults() Config {
	if c.Partitioner == nil {
		c.Partitioner = SizeBalanced{}
	}
	if c.Volumes <= 0 {
		c.Volumes = len(c.Workers)
	}
	return c
}

// Coordinator scatters comparison requests across seedservd workers
// volume by volume and gathers the merged report. It is safe for
// concurrent use; all state beyond configuration lives in the
// per-request call frames and the registry's instruments.
type Coordinator struct {
	cfg     Config
	clients []*service.Client
	met     *metrics
	reg     *telemetry.Registry
}

// New validates the configuration and returns a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: at least one worker URL is required")
	}
	cfg = cfg.withDefaults()
	clients := make([]*service.Client, len(cfg.Workers))
	for i, u := range cfg.Workers {
		clients[i] = service.NewClient(u, cfg.Client)
	}
	reg := telemetry.NewRegistry()
	return &Coordinator{cfg: cfg, clients: clients, met: newMetrics(reg, cfg.Workers), reg: reg}, nil
}

// Registry returns the metrics registry the coordinator reports on;
// a coordinating service includes it in the registry it serves on
// /metrics.
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// WaitHealthy blocks until every worker answers its health probe or
// ctx is cancelled.
func (c *Coordinator) WaitHealthy(ctx context.Context) error {
	for _, cl := range c.clients {
		if err := cl.WaitHealthy(ctx); err != nil {
			return err
		}
	}
	return nil
}

// VolumeReport describes how one volume of a request was served.
type VolumeReport struct {
	Volume     int // volume number
	Worker     string
	Seqs       int
	Residues   int
	Attempts   int // 1 = no retries
	Latency    time.Duration
	Alignments int
}

// Report is the gathered result of one scatter-gather comparison: the
// merged, globally re-ranked alignments plus per-volume accounting.
// Hits/Pairs/WallMS sum the workers' per-volume summaries (aggregate
// work, not elapsed time).
type Report struct {
	service.Result
	Alignments []service.AlignmentJSON // Result.NDJSON decoded
	Volumes    int
	Retries    int // volume attempts beyond the first, summed
	PerVolume  []VolumeReport
}

// Run is the service.RunFunc of a coordinating service: it compares
// the job's wire body as it arrived, with no admission wait of its
// own, and holds the merged lines undecoded for the job's fetches.
func (c *Coordinator) Run(ctx context.Context, req *service.Request, started func()) (*service.Result, error) {
	started()
	rep, err := c.compare(ctx, req.Body.Query, req.Body.Subject, req.Body.Options)
	if err != nil {
		return nil, err
	}
	return &rep.Result, nil
}

// Compare scatters one comparison across the workers and gathers the
// merged report. The query goes to every worker; the subject bank is
// partitioned into volumes, and each volume job carries the full
// bank's search-space geometry so worker E-values are computed
// against the whole database. Alignments in the report are
// bit-identical (values and ranking) to submitting the unpartitioned
// request to a single worker.
//
// Options travel to the workers verbatim, which gives maxCandidates
// per-volume semantics: each worker applies the top-K cut within its
// own volume, so across V volumes a query can keep up to V×K
// subjects. Because a volume's candidate ranking is a sub-ranking of
// the whole bank's, partitioning tends to add sensitivity under the
// prefilter rather than remove it (modulo the stage's hashed scoring:
// volume-local sequence numbering shifts which accumulator cells
// collide, so scores — and near-tie cut decisions — can differ
// slightly from an unpartitioned run). The gather-side re-ranking and
// E-values are unaffected either way (the geometry is the full
// bank's), and with maxCandidates large enough that no volume cuts
// anything the gathered result is bit-identical to the unfiltered
// run. With maxCandidates absent or 0 the bit-identity guarantee
// above holds exactly.
//
// On the first volume failure (after the volume was tried once on
// every worker) the whole request fails and every
// outstanding worker job is cancelled; cancelling ctx does the same.
func (c *Coordinator) Compare(ctx context.Context, query, subject []service.SequenceJSON, opt service.OptionsJSON) (*Report, error) {
	rep, err := c.compare(ctx, query, subject, opt)
	if err != nil {
		return nil, err
	}
	if rep.Alignments, err = service.DecodeAlignments(rep.NDJSON); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return rep, nil
}

// compare is Compare with the merged alignments left as NDJSON.
func (c *Coordinator) compare(ctx context.Context, query, subject []service.SequenceJSON, opt service.OptionsJSON) (*Report, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("cluster: request needs a query bank")
	}
	if len(subject) == 0 {
		return nil, fmt.Errorf("cluster: request needs a subject bank")
	}
	query = normalizeIDs("query", query)
	subject = normalizeIDs("subject", subject)
	// The gather maps wire ids back to global sequence numbers, so ids
	// must be unique — a duplicate would silently remap alignments onto
	// the wrong sequence and break the bit-identical ordering guarantee.
	// (A single worker tolerates duplicates; the cluster rejects them
	// loudly rather than return a subtly misordered merge.)
	if err := checkUniqueIDs("query", query); err != nil {
		return nil, err
	}
	if err := checkUniqueIDs("subject", subject); err != nil {
		return nil, err
	}

	lens := make([]int, len(subject))
	dbLen := 0
	for i, s := range subject {
		lens[i] = len(s.Seq)
		dbLen += lens[i]
	}
	tr := telemetry.TraceFromContext(ctx)
	t0 := time.Now()
	vols := c.cfg.Partitioner.Partition(lens, c.cfg.Volumes)
	tr.Record("partition", t0, time.Since(t0),
		telemetry.Int("volumes", len(vols)), telemetry.String("partitioner", c.cfg.Partitioner.Name()))
	if err := checkPartition(lens, vols); err != nil {
		return nil, fmt.Errorf("%w (partitioner %q)", err, c.cfg.Partitioner.Name())
	}
	// The volume context: every worker computes significance against
	// the full bank, not its slice.
	opt.SearchSpace = &service.SearchSpaceJSON{DBLen: dbLen, DBSeqs: len(subject)}

	c.met.requestStarted(vols)
	rep, err := c.scatterGather(ctx, query, subject, opt, vols)
	c.met.requestDone(err)
	return rep, err
}

// volumeResult is one scattered volume's completed job with its
// fetched lines, ready for the gather.
type volumeResult struct {
	status   *service.JobStatusJSON
	lines    volumeLines
	worker   int
	attempts int
	latency  time.Duration
}

func (c *Coordinator) scatterGather(pctx context.Context, query, subject []service.SequenceJSON,
	opt service.OptionsJSON, vols []Volume) (*Report, error) {
	ctx, cancel := context.WithCancel(pctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel() // a lost volume sinks the request: stop scattering
	}

	rk := newRanker(vols, query, subject)
	sem := make(chan struct{}, len(c.clients)) // one volume per worker in flight
	results := make([]volumeResult, len(vols))
	tr := telemetry.TraceFromContext(pctx)
	scatterStart := time.Now()
	var wg sync.WaitGroup
	for vi := range vols {
		wg.Add(1)
		go func(vi int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			res, err := c.runVolume(ctx, vi, vols[vi], query, subject, opt, rk)
			if err != nil {
				fail(err)
				return
			}
			results[vi] = res
		}(vi)
	}
	wg.Wait()
	tr.Record("scatter", scatterStart, time.Since(scatterStart), telemetry.Int("volumes", len(vols)))

	if perr := pctx.Err(); perr != nil {
		return nil, perr
	}
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}

	// Gather: k-way merge the per-volume lines, each volume already in
	// the global order, into the global ranking — no sort and no
	// decode. The merged output is materialized: the async job API has
	// to hold it for later fetches.
	rep := &Report{Volumes: len(vols)}
	lines := make([]volumeLines, len(vols))
	for vi := range results {
		lines[vi] = results[vi].lines
		rep.Count += len(lines[vi].keys)
	}
	gatherStart := time.Now()
	rep.NDJSON = mergeLines(lines)
	tr.Record("gather", gatherStart, time.Since(gatherStart), telemetry.Int("alignments", rep.Count))

	for vi := range vols {
		r := &results[vi]
		st := r.status
		if st.Hits != nil {
			rep.Hits += *st.Hits
		}
		if st.Pairs != nil {
			rep.Pairs += *st.Pairs
		}
		if st.WallMS != nil {
			rep.WallMS += *st.WallMS
		}
		rep.Retries += r.attempts - 1
		rep.PerVolume = append(rep.PerVolume, VolumeReport{
			Volume:     vi,
			Worker:     c.cfg.Workers[r.worker],
			Seqs:       len(vols[vi].Seqs),
			Residues:   vols[vi].Residues,
			Attempts:   r.attempts,
			Latency:    r.latency,
			Alignments: len(r.lines.keys),
		})
	}
	return rep, nil
}

// ranker resolves the wire ids of a volume's alignments to the global
// sequence numbers the gather ranks by. Ids are unique (checkUniqueIDs).
type ranker struct {
	query     map[string]int   // query id → bank position
	subject   []map[string]int // per volume: subject id → global number
	lineBytes int              // a line's expected size, from the mean id lengths
}

func newRanker(vols []Volume, query, subject []service.SequenceJSON) *ranker {
	r := &ranker{query: make(map[string]int, len(query)), subject: make([]map[string]int, len(vols))}
	qb, sb := 0, 0
	for i, q := range query {
		r.query[q.ID] = i
		qb += len(q.ID)
	}
	for vi, v := range vols {
		r.subject[vi] = make(map[string]int, len(v.Seqs))
		for _, gi := range v.Seqs {
			r.subject[vi][subject[gi].ID] = gi
			sb += len(subject[gi].ID)
		}
	}
	r.lineBytes = service.LineBytes + qb/len(query) + sb/len(subject)
	return r
}

// runVolume tries one volume on each worker at most once, starting at
// the volume's preferred worker (volumes spread round-robin).
func (c *Coordinator) runVolume(ctx context.Context, vi int, vol Volume,
	query, subject []service.SequenceJSON, opt service.OptionsJSON, rk *ranker) (volumeResult, error) {
	sub := make([]service.SequenceJSON, len(vol.Seqs))
	for local, gi := range vol.Seqs {
		sub[local] = subject[gi]
	}
	req := &service.JobRequestJSON{Query: query, Subject: sub, Options: opt}

	var lastErr error
	for try := range len(c.clients) {
		// Round-robin from the preferred worker; every retry lands on a
		// worker this volume has not failed on yet.
		wi := (vi + try) % len(c.clients)
		attempts := try + 1
		start := time.Now()
		st, lines, err := c.runVolumeOn(ctx, c.clients[wi], req, vi, rk)
		if err == nil {
			latency := time.Since(start)
			c.met.volumeDone(wi, latency)
			telemetry.TraceFromContext(ctx).Record("volume", start, latency,
				telemetry.Int("volume", vi), telemetry.String("worker", c.cfg.Workers[wi]))
			return volumeResult{status: st, lines: lines, worker: wi, attempts: attempts, latency: latency}, nil
		}
		if ctx.Err() != nil {
			// Cancellation, not worker failure: don't charge the worker.
			return volumeResult{}, ctx.Err()
		}
		if errors.As(err, new(*permanentError)) {
			// The request is at fault, not the worker: every worker would
			// reject or fail it the same way, so rotating workers only
			// multiplies the damage. Fail fast, charge nobody.
			return volumeResult{}, fmt.Errorf("cluster: volume %d on %s: %w",
				vi, c.cfg.Workers[wi], err)
		}
		c.met.volumeFailed(wi, attempts < len(c.clients))
		lastErr = fmt.Errorf("cluster: volume %d on %s (attempt %d): %w",
			vi, c.cfg.Workers[wi], attempts, err)
	}
	return volumeResult{}, lastErr
}

// permanentError marks a volume failure no other worker can fix: the
// worker rejected the request as invalid (4xx) or ran the comparison
// and it failed deterministically. Transport errors and 5xx stay
// retryable.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// runVolumeOn executes one volume job on one worker: submit → long-poll
// to completion → stream the result's lines off the worker, reading
// each one's rank key, and count them. The
// fetch follows the job's end at once, so the result cannot be evicted
// from the worker's job store (max-jobs / job-ttl) while slower volumes
// finish, and it happens here rather than in the gather so that a
// stream that fails, ends cleanly short of the alignment count the
// job's status reports, or names a sequence outside the volume, is this
// worker's failure — the caller retries the volume on another worker —
// and never a short or misordered merge. When the wait
// or the fetch is abandoned (context cancelled or worker unreachable)
// the job is best-effort cancelled on the worker over a detached
// context, so an abandoned volume does not keep burning a worker's
// admission slot.
func (c *Coordinator) runVolumeOn(ctx context.Context, cl *service.Client,
	req *service.JobRequestJSON, vi int, rk *ranker) (*service.JobStatusJSON, volumeLines, error) {
	id, err := cl.Submit(ctx, req)
	if err != nil {
		var ae *service.APIError
		if errors.As(err, &ae) && ae.StatusCode >= 400 && ae.StatusCode < 500 {
			return nil, volumeLines{}, &permanentError{fmt.Errorf("submit rejected: %w", err)}
		}
		return nil, volumeLines{}, fmt.Errorf("submit: %w", err)
	}
	abandon := func() {
		dctx, dcancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		defer dcancel()
		_ = cl.Cancel(dctx, id)
	}
	st, err := cl.Wait(ctx, id, 0)
	if err != nil {
		abandon()
		return nil, volumeLines{}, fmt.Errorf("wait: %w", err)
	}
	if st.State != string(service.JobDone) {
		return nil, volumeLines{}, &permanentError{fmt.Errorf("worker job %s: %s", st.State, st.Error)}
	}
	want := -1 // a done status without its summary matches no stream
	if st.Alignments != nil {
		want = *st.Alignments
	}
	// The status count sizes the buffers.
	n := max(want, 0)
	vl := volumeLines{keys: make([]lineKey, 0, n)}
	end := 0
	fetchStart := time.Now()
	vl.buf, err = cl.AlignmentLines(ctx, id, make([]byte, 0, n*rk.lineBytes),
		func(line, q, s []byte, e float64) error {
			qi, okq := rk.query[string(q)]
			si, oks := rk.subject[vi][string(s)]
			if !okq || !oks {
				return fmt.Errorf("alignment of %q against %q names a sequence outside the volume", q, s)
			}
			start := end
			end += len(line) + 1
			vl.keys = append(vl.keys, lineKey{q: qi, s: si, e: e, start: start, end: end})
			return nil
		})
	if err != nil {
		abandon()
		return nil, volumeLines{}, fmt.Errorf("fetch: %w", err)
	}
	if len(vl.keys) != want {
		return nil, volumeLines{}, fmt.Errorf("fetch: stream ended after %d alignments, job status reports %d", len(vl.keys), want)
	}
	telemetry.TraceFromContext(ctx).Record("fetch", fetchStart, time.Since(fetchStart),
		telemetry.Int("volume", vi), telemetry.String("worker", cl.BaseURL()), telemetry.Int("bytes", len(vl.buf)))
	// Stitch the worker's spans into the request trace, stamped with
	// where they ran. The worker recorded them under the same trace ID
	// (Submit propagated it in the Seedblast-Trace-Id header). Strictly
	// best-effort: a trace fetch failure never fails the volume.
	if tr := telemetry.TraceFromContext(ctx); tr != nil {
		if wtj, terr := cl.Trace(ctx, id); terr == nil {
			tr.Graft(telemetry.SpansFromJSON(wtj.Spans),
				telemetry.String("worker", cl.BaseURL()), telemetry.Int("volume", vi))
		}
	}
	return st, vl, nil
}

// normalizeIDs fills empty sequence ids with the same positional
// naming the worker's decoder would use on the unpartitioned request,
// so a scattered volume job reports the exact ids a single-node run
// would — the merge and the equivalence guarantee both key on ids.
func normalizeIDs(name string, seqs []service.SequenceJSON) []service.SequenceJSON {
	out := make([]service.SequenceJSON, len(seqs))
	for i, s := range seqs {
		if s.ID == "" {
			s.ID = fmt.Sprintf("%s%d", name, i)
		}
		out[i] = s
	}
	return out
}

// checkUniqueIDs rejects duplicate ids after normalization (which can
// itself manufacture a clash: an explicit "subject1" next to a blank
// id at position 1).
func checkUniqueIDs(name string, seqs []service.SequenceJSON) error {
	seen := make(map[string]int, len(seqs))
	for i, s := range seqs {
		if prev, dup := seen[s.ID]; dup {
			return fmt.Errorf("cluster: duplicate %s id %q (sequences %d and %d); ids must be unique for an exact gather",
				name, s.ID, prev, i)
		}
		seen[s.ID] = i
	}
	return nil
}

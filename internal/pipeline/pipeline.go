// Package pipeline implements a streaming, stage-based execution
// engine for the paper's bank-vs-bank comparison. The monolithic batch
// driver runs step 1 (indexing), step 2 (ungapped extension) and
// step 3 (gapped extension) strictly in sequence, so the host sits
// idle while the accelerator works and vice versa — exactly the
// host/FPGA overlap opportunity the paper's closing discussion raises.
//
// The engine shards the query bank (bank 0) into batches of sequences
// and flows each shard through the three steps over bounded channels:
//
//	sharder ──shardCh──▶ step-2 backend pool ──step2Ch──▶ step-3 pool
//
// Channel capacities bound the number of shards in flight, providing
// backpressure; a context cancels the whole dataflow promptly and
// leak-free. Where step 2 runs is abstracted behind Backend: the CPU
// engine (package ungapped), the simulated RASC-100 accelerator
// (package hwsim), or a MultiBackend that fans shards out across
// several backends — the paper's multicore-plus-FPGA dispatch
// question, answered in code.
//
// Sharding by query sequence preserves bit-identical results: every
// (seq0, seq1) pair's hits land in exactly one shard, so step 3's
// per-pair containment and dedup rules see the same hit groups in the
// same order as the batch path, and the engine's final stable sort
// reproduces the batch output ordering for the single-shard case.
package pipeline

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/gapped"
	"seedblast/internal/hwsim"
	"seedblast/internal/index"
	"seedblast/internal/prefilter"
	"seedblast/internal/seed"
	"seedblast/internal/telemetry"
	"seedblast/internal/ungapped"
)

// Config tunes the engine. The zero value processes bank 0 as a single
// shard with one shard in flight per stage — batch-equivalent
// behaviour with batch-identical results.
type Config struct {
	// ShardSize is the number of bank-0 sequences per shard. Zero or
	// negative processes the whole bank as one shard.
	ShardSize int
	// InFlight is the capacity of the bounded queues between stages;
	// it caps how many finished shards can wait for the next stage
	// before backpressure stalls the producer. Zero or negative means 1.
	InFlight int
	// Step2Workers is the number of shards extended concurrently in
	// step 2 (each call may use further internal parallelism, e.g. the
	// CPU backend's workers). Zero or negative means 1.
	Step2Workers int
	// Step3Workers is the number of shards gapped-extended concurrently
	// in step 3. Zero or negative means 1.
	Step3Workers int
}

func (c Config) withDefaults() Config {
	if c.InFlight <= 0 {
		c.InFlight = 1
	}
	if c.Step2Workers <= 0 {
		c.Step2Workers = 1
	}
	if c.Step3Workers <= 0 {
		c.Step3Workers = 1
	}
	return c
}

// Shard is one unit of streaming work: a contiguous run of bank-0
// sequences with its own step-1 index. Sequence numbers inside Index
// are shard-local; the engine remaps step-2 hits into bank numbering
// (by adding Start) before step 3.
type Shard struct {
	ID    int
	Start int // first bank-0 sequence number in the shard
	End   int // one past the last
	Bank  *bank.Bank
	Index *index.Index
}

// Request describes one comparison run.
type Request struct {
	Bank0 *bank.Bank // query bank, sharded by the engine
	Bank1 *bank.Bank // subject bank, indexed once
	Seed  seed.Model
	N     int // neighbourhood extension; windows are W+2N

	// Workers is the per-shard index-build parallelism (0 = GOMAXPROCS).
	Workers int

	// Gapped parameterises step 3; it is passed to gapped.RunWithStats
	// unchanged and validated there.
	Gapped gapped.Config

	// Index1 optionally provides a prebuilt subject index (it must
	// match Seed and N); experiments reuse one genome index across many
	// banks this way. When nil the engine builds and times it.
	Index1 *index.Index

	// Index0 optionally provides a prebuilt whole-bank query index. It
	// is only usable when the run is a single shard (Config.ShardSize
	// disabled or >= the bank length) — a sharded run cuts bank 0
	// itself — and must match Seed and N. Callers that already hold the
	// index (e.g. for estimator sweeps) avoid a rebuild this way.
	Index0 *index.Index

	// KeepHits retains the step-2 hits in Output.UngappedHits
	// (concatenated in shard order). Off by default: hit lists are the
	// engine's largest intermediate and are normally consumed by step 3
	// shard by shard.
	KeepHits bool

	// Prefilter enables the candidate-selection stage between step 1
	// and step 2: each shard's queries are diagonal-scored against the
	// subject index and only the top MaxCandidates subjects per query
	// flow into ungapped extension (the backend sees a filtered
	// subject index, and hits from non-surviving pairs are dropped
	// before step 3). The zero value is disabled and bypasses the
	// stage entirely — bit-identical to an engine without it. E-value
	// statistics are unaffected either way: Gapped's search space
	// still describes the full subject bank.
	Prefilter prefilter.Config
}

// StageMetrics describes one stage's work.
type StageMetrics struct {
	Shards int           // shards the stage completed
	Busy   time.Duration // summed host wall time spent processing
}

// Metrics is the engine's per-run accounting. Busy times are host wall
// durations and can exceed Wall when stages overlap — that surplus is
// the overlap the streaming design exists to win.
type Metrics struct {
	Shards          int           // shards planned
	Wall            time.Duration // end-to-end engine wall time
	Index           StageMetrics  // step 1: bank-1 index + shard index builds
	Prefilter       StageMetrics  // candidate selection (zero when disabled)
	Step2           StageMetrics
	Step3           StageMetrics
	ShardsByBackend map[string]int // step-2 dispatch split (MultiBackend)
	// PrefilterKept and PrefilterDropped count candidate
	// (query, subject) pairs — pairs sharing at least one seed hit —
	// that survived and fell to the prefilter's per-query top-K cut.
	// Both stay zero when the stage is disabled; their sum is the
	// unfiltered candidate pair count, so kept/(kept+dropped) is the
	// stage's selectivity. PrefilterQueries counts the queries scored.
	PrefilterKept    int64
	PrefilterDropped int64
	PrefilterQueries int64
	// MaxBufferedMatches is the peak number of alignments resident in
	// the engine's shard buffers at any instant. On a materialized Run
	// every shard's alignments stay buffered until assembly, so the peak
	// equals the total output; on a RunStream run a shard's alignments
	// are released to the consumer as soon as every earlier shard has
	// been emitted, and at most Step2Workers + Step3Workers shards are
	// dispatched but not yet emitted, so the peak is at most that many
	// consecutive shards' output — the memory the streaming result path
	// exists to save.
	MaxBufferedMatches int
}

// Merge folds another run's accounting into m: shard counts and busy
// times add up, and the backend dispatch split is summed per backend.
// Wall also sums, so on concurrent runs (one engine per volume in the
// cluster's local mode, or the service's admission pool) the merged
// Wall is aggregate engine time, not elapsed time — the same semantics
// the service's /metrics counters use.
func (m *Metrics) Merge(o *Metrics) {
	m.Shards += o.Shards
	m.Wall += o.Wall
	m.Index.Shards += o.Index.Shards
	m.Index.Busy += o.Index.Busy
	m.Prefilter.Shards += o.Prefilter.Shards
	m.Prefilter.Busy += o.Prefilter.Busy
	m.PrefilterKept += o.PrefilterKept
	m.PrefilterDropped += o.PrefilterDropped
	m.PrefilterQueries += o.PrefilterQueries
	m.Step2.Shards += o.Step2.Shards
	m.Step2.Busy += o.Step2.Busy
	m.Step3.Shards += o.Step3.Shards
	m.Step3.Busy += o.Step3.Busy
	// Peaks across runs are not additive; keep the worst single run.
	m.MaxBufferedMatches = max(m.MaxBufferedMatches, o.MaxBufferedMatches)
	for k, v := range o.ShardsByBackend {
		if m.ShardsByBackend == nil {
			m.ShardsByBackend = make(map[string]int)
		}
		m.ShardsByBackend[k] += v
	}
}

// Output is the engine's result.
type Output struct {
	// Alignments is the materialized result, sorted by
	// (Seq0, EValue, Seq1) stably. Nil on a RunStream run, where the
	// same alignments in the same order went to emit instead.
	Alignments []gapped.Alignment
	Hits       int   // step-2 survivors
	Pairs      int64 // step-2 scorings performed
	GappedWork gapped.Stats

	// Step durations under the batch StepTimes semantics: IndexTime
	// sums the subject-index and shard-index builds; Step2Time sums the
	// backends' Elapsed (simulated seconds for the RASC backend, host
	// wall for the CPU backend); Step3Time sums the gapped stage. On an
	// overlapped run their sum exceeds Metrics.Wall.
	IndexTime time.Duration
	Step2Time time.Duration
	Step3Time time.Duration

	// Device aggregates the per-shard accelerator reports when the
	// backend attached any (cycle and DMA totals summed, utilization
	// cycle-weighted). With a single reporting shard it is that shard's
	// report verbatim; aggregated multi-shard reports carry a nil Hits
	// slice.
	Device *hwsim.Step2Report

	// UngappedHits holds the step-2 hits in shard order when
	// Request.KeepHits is set.
	UngappedHits []ungapped.Hit

	Metrics Metrics
}

// Engine is a streaming shard-pipeline executor. An Engine holds no
// per-run state — only the immutable Config and the Backend — so it is
// safe for concurrent Run calls from multiple goroutines provided its
// Backend is safe for concurrent Step2 calls. All backends in this
// package are: CPUBackend and RASCBackend keep per-call state on the
// stack (hwsim.Device is configuration-only), and MultiBackend
// serialises access to each inner backend through its free list. Note
// that concurrent runs multiply memory and worker usage; callers
// wanting bounded admission should gate Run with a semaphore (package
// service does).
type Engine struct {
	cfg     Config
	backend Backend
}

// New validates the configuration and returns an engine.
func New(cfg Config, backend Backend) (*Engine, error) {
	if backend == nil {
		return nil, fmt.Errorf("pipeline: backend is required")
	}
	return &Engine{cfg: cfg.withDefaults(), backend: backend}, nil
}

// Backend returns the engine's step-2 backend.
func (e *Engine) Backend() Backend { return e.backend }

// Run executes the request. On cancellation it returns the context's
// error after every stage goroutine has shut down — no goroutines
// outlive the call. Run is safe to call concurrently from multiple
// goroutines (see Engine). When a run fails after the dataflow has
// started, the returned Output is non-nil and carries the Metrics
// accumulated up to the failure (all other fields zero) so callers can
// still account for the work done; early validation errors return a
// nil Output.
func (e *Engine) Run(pctx context.Context, req *Request) (*Output, error) {
	return e.run(pctx, req, nil)
}

// RunStream is Run with streaming results: instead of materializing
// Output.Alignments, the engine hands each shard's step-3 alignments to
// emit as soon as the shard — and every shard before it — has finished
// final ranking. Emission is strictly in shard order from a single
// goroutine, so the concatenation of emitted batches is element-for-
// element identical to Run's Output.Alignments: shards cover disjoint,
// ascending bank-0 ranges and each batch arrives already sorted by
// (Seq0, EValue, Seq1), which is exactly the engine's global order.
// Ownership of each batch transfers to emit; the engine drops its
// reference, and the sharder dispatches a shard only while fewer than
// Step2Workers + Step3Workers shards await emission — one per worker,
// enough to keep every worker busy — so a straggler or a slow consumer
// stalls dispatch instead of letting later shards' alignments pile up.
// Peak resident match memory is bounded by that many consecutive
// shards' output instead of the whole result (see
// Metrics.MaxBufferedMatches). An emit error fails the run. The
// returned Output has a nil Alignments slice; all counters, statistics
// and timings are reported as in Run.
func (e *Engine) RunStream(pctx context.Context, req *Request, emit func([]gapped.Alignment) error) (*Output, error) {
	if emit == nil {
		return nil, fmt.Errorf("pipeline: RunStream needs an emit function (use Run)")
	}
	return e.run(pctx, req, emit)
}

func (e *Engine) run(pctx context.Context, req *Request, emit func([]gapped.Alignment) error) (*Output, error) {
	if req == nil || req.Bank0 == nil || req.Bank1 == nil {
		return nil, fmt.Errorf("pipeline: request needs both banks")
	}
	if req.Seed == nil {
		return nil, fmt.Errorf("pipeline: seed model is required")
	}
	if req.N < 0 {
		return nil, fmt.Errorf("pipeline: negative neighbourhood %d", req.N)
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(pctx)
	defer cancel()

	// Per-stage spans land on the request's trace when the caller put
	// one in ctx (the service does, per job). Every stage timing the
	// engine already takes for Metrics is mirrored as a span, so one
	// trace shows where each shard's wall time went — the paper's
	// per-stage breakdown, per production request. A nil trace records
	// nothing and costs nothing.
	tr := telemetry.TraceFromContext(pctx)

	var (
		mu       sync.Mutex
		firstErr error
		met      Metrics
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// Subject index: built once and shared by every shard (or provided
	// by the caller and reused across runs).
	ix1 := req.Index1
	if ix1 == nil {
		t0 := time.Now()
		var err error
		ix1, err = index.BuildParallel(req.Bank1, req.Seed, req.N, req.Workers)
		if err != nil {
			return nil, fmt.Errorf("pipeline: indexing bank 1: %w", err)
		}
		d := time.Since(t0)
		met.Index.Busy += d
		tr.Record("step1", t0, d, telemetry.String("part", "bank1"))
	} else if err := MatchesRequest(ix1, req.Bank1, req.Seed, req.N); err != nil {
		return nil, fmt.Errorf("pipeline: provided bank-1 index %w", err)
	}

	shards := planShards(req.Bank0.Len(), e.cfg.ShardSize)
	met.Shards = len(shards)
	if req.Index0 != nil {
		if len(shards) > 1 {
			return nil, fmt.Errorf("pipeline: provided bank-0 index is unusable on a sharded run (%d shards)", len(shards))
		}
		if err := MatchesRequest(req.Index0, req.Bank0, req.Seed, req.N); err != nil {
			return nil, fmt.Errorf("pipeline: provided bank-0 index %w", err)
		}
	}

	shardCh := make(chan *Shard, e.cfg.InFlight)
	step2Ch := make(chan *Step2Output, e.cfg.InFlight)
	// Streaming runs only: one slot per shard between dispatch and
	// emission. Slots are taken in shard order, so the oldest unemitted
	// shard always holds one and the run cannot stall on itself.
	var window chan struct{}
	if emit != nil {
		window = make(chan struct{}, e.cfg.Step2Workers+e.cfg.Step3Workers)
	}

	// Stage 1 — sharder: cut bank 0 into shards and build each shard's
	// index. Bounded shardCh stalls this stage once the step-2 pool
	// falls behind.
	go func() {
		defer close(shardCh)
		for id, rg := range shards {
			if ctx.Err() != nil {
				return
			}
			t0 := time.Now()
			sh, err := buildShard(req, id, rg[0], rg[1])
			d := time.Since(t0)
			mu.Lock()
			met.Index.Busy += d
			if err == nil {
				// Only completed builds count as stage-1 shards; the
				// busy time above still records what the failure cost.
				met.Index.Shards++
			}
			mu.Unlock()
			if err != nil {
				fail(fmt.Errorf("pipeline: shard %d index: %w", id, err))
				return
			}
			tr.Record("step1", t0, d, telemetry.Int("shard", id))
			if window != nil {
				select {
				case window <- struct{}{}:
				case <-ctx.Done():
					return
				}
			}
			select {
			case shardCh <- sh:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Stage 2 — backend pool: ungapped extension on the CPU engine, the
	// simulated accelerator, or a fan-out across both.
	var wg2 sync.WaitGroup
	for w := 0; w < e.cfg.Step2Workers; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for sh := range shardCh {
				if ctx.Err() != nil {
					continue // drain so the sharder can exit
				}
				// Candidate selection: diagonal-score the shard's
				// queries against the full subject index, then hand the
				// backend an index filtered to the survivor union. The
				// backend is unchanged — CPU kernels and the simulated
				// accelerator all just see a smaller ix1 — and the
				// union filter is tightened to exact per-query
				// semantics by dropping non-surviving pairs' hits
				// below.
				ixSub := ix1
				var pf *prefilter.Result
				if req.Prefilter.Enabled() {
					tp := time.Now()
					pfr, err := prefilter.Run(sh.Bank, req.Seed, ix1, req.Prefilter)
					if err != nil {
						fail(fmt.Errorf("pipeline: prefilter, shard %d: %w", sh.ID, err))
						continue
					}
					pf = pfr
					ixSub = ix1.FilterSeqs(pf.Union)
					dp := time.Since(tp)
					mu.Lock()
					met.Prefilter.Shards++
					met.Prefilter.Busy += dp
					met.PrefilterKept += pf.Kept
					met.PrefilterDropped += pf.Dropped
					met.PrefilterQueries += int64(pf.Queries)
					mu.Unlock()
					tr.Record("prefilter", tp, dp,
						telemetry.Int("shard", sh.ID),
						telemetry.Int("kept", int(pf.Kept)),
						telemetry.Int("dropped", int(pf.Dropped)))
				}
				t0 := time.Now()
				r, err := e.backend.Step2(ctx, sh, ixSub)
				d := time.Since(t0)
				if err != nil {
					fail(fmt.Errorf("pipeline: step 2, shard %d (%s): %w", sh.ID, e.backend.Name(), err))
					continue
				}
				if pf != nil {
					// Exact top-K semantics: the union index may pair a
					// query with a subject only another query kept.
					kept := r.Hits[:0]
					for i := range r.Hits {
						if pf.Keeps(int(r.Hits[i].E0.Seq), r.Hits[i].E1.Seq) {
							kept = append(kept, r.Hits[i])
						}
					}
					r.Hits = kept
				}
				// Remap shard-local sequence numbers to bank-0 numbering.
				if sh.Start != 0 {
					for i := range r.Hits {
						r.Hits[i].E0.Seq += uint32(sh.Start)
					}
				}
				mu.Lock()
				met.Step2.Shards++
				met.Step2.Busy += d
				if r.Backend != "" {
					if met.ShardsByBackend == nil {
						met.ShardsByBackend = make(map[string]int)
					}
					met.ShardsByBackend[r.Backend]++
				}
				mu.Unlock()
				tr.Record("step2", t0, d, telemetry.Int("shard", sh.ID), telemetry.String("backend", e.backend.Name()))
				select {
				case step2Ch <- r:
				case <-ctx.Done():
				}
			}
		}()
	}
	go func() { wg2.Wait(); close(step2Ch) }()

	// Stage 3 — gapped extension on the host. Because every (seq0,
	// seq1) pair's hits live in exactly one shard, per-pair containment
	// and dedup behave exactly as in the batch path.
	type shardOut struct {
		aligns []gapped.Alignment
		gstats gapped.Stats
		hits   []ungapped.Hit
		nHits  int
		pairs  int64
		device *hwsim.Step2Report
		step2  time.Duration
		step3  time.Duration
	}
	outs := make([]shardOut, len(shards))

	// Ordered emitter (streaming runs only): step-3 workers finish
	// shards in any order; this goroutine releases each shard's
	// alignments to the caller as soon as every earlier shard has been
	// emitted, so the stream is in shard order — the engine's exact
	// output order — while only the backlog inside the window stays
	// resident. Emitting a shard frees its window slot.
	var buffered int // alignments currently resident in outs (under mu)
	emitCh := make(chan int, len(shards))
	emitDone := make(chan struct{})
	go func() {
		defer close(emitDone)
		next := 0
		ready := make(map[int]bool)
		for id := range emitCh {
			ready[id] = true
			for ready[next] {
				delete(ready, next)
				so := &outs[next]
				aligns := so.aligns
				so.aligns = nil
				mu.Lock()
				buffered -= len(aligns)
				mu.Unlock()
				if ctx.Err() == nil {
					if err := emit(aligns); err != nil {
						fail(fmt.Errorf("pipeline: emitting shard %d: %w", next, err))
					}
				}
				<-window
				next++
			}
		}
	}()

	var wg3 sync.WaitGroup
	for w := 0; w < e.cfg.Step3Workers; w++ {
		wg3.Add(1)
		go func() {
			defer wg3.Done()
			for r := range step2Ch {
				if ctx.Err() != nil {
					continue
				}
				t0 := time.Now()
				as, gs, err := gapped.RunWithStats(req.Bank0, req.Bank1, r.Hits, req.Gapped)
				d := time.Since(t0)
				if err != nil {
					fail(fmt.Errorf("pipeline: step 3, shard %d: %w", r.Shard.ID, err))
					continue
				}
				mu.Lock()
				met.Step3.Shards++
				met.Step3.Busy += d
				buffered += len(as)
				met.MaxBufferedMatches = max(met.MaxBufferedMatches, buffered)
				mu.Unlock()
				tr.Record("step3", t0, d, telemetry.Int("shard", r.Shard.ID))
				so := &outs[r.Shard.ID]
				so.aligns, so.gstats = as, gs
				so.nHits, so.pairs = len(r.Hits), r.Pairs
				so.device = r.Device
				so.step2, so.step3 = r.Elapsed, d
				if req.KeepHits {
					so.hits = r.Hits
				}
				if emit != nil {
					// The stores above happen before this send, which the
					// emitter receives before touching outs[id].
					emitCh <- r.Shard.ID
				}
			}
		}()
	}
	// All stage goroutines form a chain of channel closes, so waiting
	// for stage 3 waits for everything.
	wg3.Wait()
	close(emitCh)
	<-emitDone

	if perr := pctx.Err(); perr != nil {
		met.Wall = time.Since(start)
		return &Output{Metrics: met}, perr
	}
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		met.Wall = time.Since(start)
		return &Output{Metrics: met}, err
	}

	// Assemble in shard order so the output is deterministic for any
	// worker and in-flight configuration.
	out := &Output{}
	var dev deviceAggregator
	for i := range outs {
		so := &outs[i]
		out.Alignments = append(out.Alignments, so.aligns...)
		out.Hits += so.nHits
		out.Pairs += so.pairs
		addGappedStats(&out.GappedWork, &so.gstats)
		out.Step2Time += so.step2
		out.Step3Time += so.step3
		if req.KeepHits {
			out.UngappedHits = append(out.UngappedHits, so.hits...)
		}
		dev.add(so.device)
	}
	out.Device = dev.report()
	out.IndexTime = met.Index.Busy
	// Stable sort under the gapped stage's ordering: a single-shard run
	// arrives already sorted and keeps the batch path's exact order.
	sort.SliceStable(out.Alignments, func(i, j int) bool {
		a, b := &out.Alignments[i], &out.Alignments[j]
		if a.Seq0 != b.Seq0 {
			return a.Seq0 < b.Seq0
		}
		if a.EValue != b.EValue {
			return a.EValue < b.EValue
		}
		return a.Seq1 < b.Seq1
	})
	met.Wall = time.Since(start)
	out.Metrics = met
	return out, nil
}

// MatchesRequest checks a caller-provided prebuilt index against a
// request: seed key space and N must agree, and the indexed bank must
// have the request bank's shape (sequence count and total residues —
// a cheap stand-in for content equality that catches an index built
// from a different bank; full content identity remains the caller's
// responsibility, which the service guarantees by fingerprint-keying
// its cache). Exported so the batch reference path applies the exact
// same acceptance rule as the engine. The error reads as a clause
// ("(keys=…) does not match …"); callers prefix the index's role.
func MatchesRequest(ix *index.Index, b *bank.Bank, model seed.Model, n int) error {
	if ix.Model().KeySpace() != model.KeySpace() || ix.N() != n {
		return fmt.Errorf("(keys=%d N=%d) does not match request (keys=%d N=%d)",
			ix.Model().KeySpace(), ix.N(), model.KeySpace(), n)
	}
	if ix.Bank().Len() != b.Len() || ix.Bank().TotalResidues() != b.TotalResidues() {
		return fmt.Errorf("was built from a different bank (%d seqs/%d aa vs %d seqs/%d aa)",
			ix.Bank().Len(), ix.Bank().TotalResidues(), b.Len(), b.TotalResidues())
	}
	return nil
}

// planShards cuts [0, n) into contiguous ranges of at most size
// sequences. Size <= 0 (or >= n) yields a single shard; n == 0 yields
// none.
func planShards(n, size int) [][2]int {
	if n == 0 {
		return nil
	}
	if size <= 0 || size >= n {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// buildShard materialises one shard: a sub-bank view of bank 0 (the
// whole bank when the shard covers it) and its step-1 index.
func buildShard(req *Request, id, lo, hi int) (*Shard, error) {
	b := req.Bank0
	if req.Index0 != nil {
		// Validated single-shard case: reuse the caller's index.
		return &Shard{ID: id, Start: lo, End: hi, Bank: b, Index: req.Index0}, nil
	}
	if lo != 0 || hi != b.Len() {
		sub := bank.New(fmt.Sprintf("%s[%d:%d)", b.Name(), lo, hi))
		for s := lo; s < hi; s++ {
			sub.Add(b.ID(s), b.Seq(s))
		}
		b = sub
	}
	ix, err := index.BuildParallel(b, req.Seed, req.N, req.Workers)
	if err != nil {
		return nil, err
	}
	return &Shard{ID: id, Start: lo, End: hi, Bank: b, Index: ix}, nil
}

func addGappedStats(dst, src *gapped.Stats) {
	dst.Hits += src.Hits
	dst.Contained += src.Contained
	dst.PreFiltered += src.PreFiltered
	dst.Extended += src.Extended
	dst.DPRows += src.DPRows
	dst.DPCells += src.DPCells
}

// deviceAggregator folds per-shard accelerator reports into one.
type deviceAggregator struct {
	reports          int
	first            *hwsim.Step2Report
	agg              hwsim.Step2Report
	utilNum, utilDen float64
}

func (a *deviceAggregator) add(rep *hwsim.Step2Report) {
	if rep == nil {
		return
	}
	a.reports++
	if a.reports == 1 {
		a.first = rep
	}
	a.agg.Pairs += rep.Pairs
	a.agg.Records += rep.Records
	for i, c := range rep.CyclesPerFPGA {
		if i >= len(a.agg.CyclesPerFPGA) {
			a.agg.CyclesPerFPGA = append(a.agg.CyclesPerFPGA, 0)
		}
		a.agg.CyclesPerFPGA[i] += c
	}
	a.agg.BytesToDevice += rep.BytesToDevice
	a.agg.BytesFromDev += rep.BytesFromDev
	a.agg.Transfers += rep.Transfers
	a.agg.ComputeSeconds += rep.ComputeSeconds
	a.agg.DMASeconds += rep.DMASeconds
	a.agg.Seconds += rep.Seconds
	var cycles float64
	for _, c := range rep.CyclesPerFPGA {
		cycles += float64(c)
	}
	a.utilNum += rep.Utilization * cycles
	a.utilDen += cycles
}

func (a *deviceAggregator) report() *hwsim.Step2Report {
	switch a.reports {
	case 0:
		return nil
	case 1:
		return a.first
	default:
		r := a.agg
		if a.utilDen > 0 {
			r.Utilization = a.utilNum / a.utilDen
		}
		return &r
	}
}

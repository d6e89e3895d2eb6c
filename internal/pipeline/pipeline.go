// Package pipeline runs the paper's bank-vs-bank comparison as a loop
// over shards of the query bank (bank 0). The subject index is built,
// or checked, once; then each shard in order builds its step-1 index,
// runs step 2 through a Backend (the CPU engine, package ungapped, or
// the simulated RASC-100 accelerator, package hwsim), has its hits
// remapped to bank numbering, and runs step 3 on the caller's
// goroutine. Each step is parallel inside. A one-shard run, the
// default, runs the steps one after another on the caller, as in the
// paper, whose Table 7 splits a run into step shares that sum to the
// whole; on a sharded run one look-ahead goroutine runs steps 1 and 2
// of the next shard while the caller runs step 3.
//
// Sharding bounds memory, not time: at most two shards' hits are alive
// at once, and on RunStream one shard's alignments. Results are
// bit-identical for any shard size: every (seq0, seq1) pair's hits
// land in one shard, so step 3's containment and dedup see the same
// hit groups, and each shard's alignments leave step 3 sorted by
// (Seq0, EValue, Seq1) over ascending bank-0 ranges, so their
// concatenation is the one-shard run's output.
package pipeline

import (
	"context"
	"fmt"
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
// shard, with batch-identical results.
type Config struct {
	// ShardSize is the number of bank-0 sequences per shard. Zero or
	// negative processes the whole bank as one shard. It bounds the
	// memory of one shard's hits on a large query bank.
	ShardSize int
}

// Shard is one unit of work: a contiguous run of bank-0 sequences with
// its own step-1 index. Sequence numbers inside Index are shard-local;
// the engine adds Start to step-2 hits before step 3.
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

	// Index0 optionally provides a prebuilt whole-bank query index,
	// usable only when the run is a single shard; it must match Seed
	// and N. Callers that already hold it avoid a rebuild this way.
	Index0 *index.Index

	// KeepHits retains the step-2 hits in Output.UngappedHits
	// (concatenated in shard order). Off by default: hit lists are the
	// engine's largest intermediate and are normally dropped once step
	// 3 has consumed them.
	KeepHits bool

	// Prefilter enables the candidate-selection stage between step 1
	// and step 2 (see Engine.step2). The zero value bypasses it, and
	// E-values are unaffected either way: Gapped's search space still
	// describes the full subject bank.
	Prefilter prefilter.Config
}

// StageMetrics describes one stage's work.
type StageMetrics struct {
	Shards int           // shards the stage completed
	Busy   time.Duration // summed host wall time spent processing
}

// Metrics is the engine's per-run accounting. Busy times are host wall
// durations. On a one-shard run they sum to within the loop's own
// overhead of Wall; on a sharded run the look-ahead's steps 1 and 2
// overlap step 3, so the sum can exceed Wall.
type Metrics struct {
	Shards    int           // shards planned
	Wall      time.Duration // end-to-end engine wall time
	Index     StageMetrics  // step 1: bank-1 index + shard index builds
	Prefilter StageMetrics  // candidate selection (zero when disabled)
	Step2     StageMetrics
	Step3     StageMetrics
	// PrefilterKept and PrefilterDropped count candidate
	// (query, subject) pairs — pairs sharing at least one seed hit —
	// that survived and fell to the prefilter's per-query top-K cut.
	// Both stay zero when the stage is disabled; their sum is the
	// unfiltered candidate pair count, so kept/(kept+dropped) is the
	// stage's selectivity. PrefilterQueries counts the queries scored.
	PrefilterKept    int64
	PrefilterDropped int64
	PrefilterQueries int64
	// MaxBufferedMatches is the peak number of alignments the engine
	// holds. A materialized Run keeps every shard's alignments until it
	// returns, so the peak is the whole output; RunStream hands each
	// shard's alignments to emit before the next shard starts, so the
	// peak is the largest shard's — the memory the streaming result
	// path exists to save.
	MaxBufferedMatches int
}

// Output is the engine's result.
type Output struct {
	// Alignments is the materialized result, sorted by
	// (Seq0, EValue, Seq1). Nil on a RunStream run, where the same
	// alignments in the same order went to emit instead.
	Alignments []gapped.Alignment
	Hits       int   // step-2 survivors
	Pairs      int64 // step-2 scorings performed
	GappedWork gapped.Stats

	// Step durations under the batch StepTimes semantics: IndexTime
	// sums the subject-index and shard-index builds; Step2Time sums the
	// backends' Elapsed (simulated seconds for the RASC backend, host
	// wall for the CPU backend); Step3Time sums the gapped stage.
	IndexTime time.Duration
	Step2Time time.Duration
	Step3Time time.Duration

	// Device sums the per-shard accelerator reports when the backend
	// attached any (see sumReports).
	Device *hwsim.Step2Report

	// UngappedHits holds the step-2 hits in shard order when
	// Request.KeepHits is set.
	UngappedHits []ungapped.Hit

	Metrics Metrics
}

// Engine runs the shard loop. It holds no per-run state, so it is safe
// for concurrent Run calls when its Backend is safe for concurrent
// Step2 calls, as both backends in this package are. Concurrent runs
// multiply memory and worker usage; package service gates them.
type Engine struct {
	cfg     Config
	backend Backend
}

// New returns an engine over the given step-2 backend.
func New(cfg Config, backend Backend) (*Engine, error) {
	if backend == nil {
		return nil, fmt.Errorf("pipeline: backend is required")
	}
	return &Engine{cfg: cfg, backend: backend}, nil
}

// Run executes the request; step 3 and emission run on the calling
// goroutine. On cancellation it returns the context's error, after the
// look-ahead (if any) has stopped; the context is checked between
// stages and by the backends. A run that fails after validation
// returns an Output carrying only the Metrics gathered up to the
// failure, so callers can still account for the work done.
func (e *Engine) Run(ctx context.Context, req *Request) (*Output, error) {
	return e.run(ctx, req, nil)
}

// RunStream is Run with streaming results: instead of materializing
// Output.Alignments, the engine hands each shard's step-3 alignments to
// emit before it starts the next shard. The concatenation of emitted
// batches is element-for-element identical to Run's
// Output.Alignments. Ownership of each batch transfers to emit. Peak
// resident match memory is the largest shard's output instead of the
// whole result (see Metrics.MaxBufferedMatches). An emit error fails
// the run. The returned Output has a nil Alignments slice; all
// counters, statistics and timings are reported as in Run.
func (e *Engine) RunStream(ctx context.Context, req *Request, emit func([]gapped.Alignment) error) (*Output, error) {
	if emit == nil {
		return nil, fmt.Errorf("pipeline: RunStream needs an emit function (use Run)")
	}
	return e.run(ctx, req, emit)
}

func (e *Engine) run(ctx context.Context, req *Request, emit func([]gapped.Alignment) error) (*Output, error) {
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
	// Per-stage spans land on the request's trace when the caller put
	// one in ctx (the service does, per job), so one trace shows where
	// each shard's wall time went. A nil trace records nothing.
	tr := telemetry.TraceFromContext(ctx)
	out := &Output{}
	met := &out.Metrics

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

	// While the caller runs step 3 of shard k, one look-ahead goroutine
	// builds shard k+1's index and runs its step 2. Step 3 of a small
	// shard leaves cores idle, and without the look-ahead an 8-shard
	// homolog search ran 1.24x slower (EXPERIMENTS.md, "Shards run in
	// order"). A one-shard run starts no goroutine. The look-ahead
	// writes only met.Index, met.Prefilter and met.Step2.
	actx, cancel := ctx, context.CancelFunc(func() {})
	if len(shards) > 1 {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	var reports []*hwsim.Step2Report
	// step3 runs one shard's gapped extension on the caller and hands
	// its alignments on. Every (seq0, seq1) pair's hits live in this
	// one shard, so per-pair containment and dedup behave exactly as
	// in the batch path.
	step3 := func(id int, r *Step2Output) error {
		t0 := time.Now()
		as, gs, err := gapped.RunWithStats(req.Bank0, req.Bank1, r.Hits, req.Gapped)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("pipeline: step 3, shard %d: %w", id, err)
		}
		met.Step3.Shards++
		met.Step3.Busy += d
		tr.Record("step3", t0, d, telemetry.Int("shard", id))
		out.Hits += len(r.Hits)
		out.Pairs += r.Pairs
		addGappedStats(&out.GappedWork, &gs)
		out.Step2Time += r.Elapsed
		out.Step3Time += d
		if r.Device != nil {
			reports = append(reports, r.Device)
		}
		if req.KeepHits {
			out.UngappedHits = append(out.UngappedHits, r.Hits...)
		}
		if emit == nil {
			out.Alignments = append(out.Alignments, as...)
			met.MaxBufferedMatches = len(out.Alignments)
			return nil
		}
		met.MaxBufferedMatches = max(met.MaxBufferedMatches, len(as))
		if err := emit(as); err != nil {
			return fmt.Errorf("pipeline: emitting shard %d: %w", id, err)
		}
		return nil
	}
	var cur frontResult
	if len(shards) > 0 {
		cur = e.front(actx, req, ix1, 0, shards[0], met, tr)
	}
	for id := range shards {
		var next chan frontResult
		if cur.err == nil && id+1 < len(shards) {
			next = make(chan frontResult, 1)
			go func() {
				defer close(next)
				next <- e.front(actx, req, ix1, id+1, shards[id+1], met, tr)
			}()
		}
		err := cur.err
		if err == nil {
			err = ctx.Err() // no step 3 on a cancelled run
		}
		if err == nil {
			err = step3(id, cur.r)
		}
		if next != nil {
			if err != nil {
				cancel()
			}
			cur = <-next
		}
		if err != nil {
			// The look-ahead has stopped: hand back the metrics so far,
			// with the context's error when the run was cancelled.
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
			met.Wall = time.Since(start)
			return &Output{Metrics: *met}, err
		}
	}
	out.Device = sumReports(reports)
	out.IndexTime = met.Index.Busy
	met.Wall = time.Since(start)
	return out, nil
}

// MatchesRequest checks a caller-provided prebuilt index against a
// request: seed key space and N must agree, and the indexed bank must
// have the request bank's sequence count and total residues, a cheap
// stand-in for content equality (the service keys its cache by
// fingerprint for the rest). The batch reference path applies it too.
// The error reads as a clause; callers prefix the index's role.
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
	if size <= 0 {
		size = n
	}
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		out = append(out, [2]int{lo, min(lo+size, n)})
	}
	return out
}

func addGappedStats(dst, src *gapped.Stats) {
	dst.Hits += src.Hits
	dst.Contained += src.Contained
	dst.PreFiltered += src.PreFiltered
	dst.Extended += src.Extended
	dst.DPRows += src.DPRows
	dst.DPCells += src.DPCells
}

package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
	"time"

	"seedblast/internal/gapped"
	"seedblast/internal/hwsim"
	"seedblast/internal/matrix"
	"seedblast/internal/pipeline"
	"seedblast/internal/prefilter"
	"seedblast/internal/seed"
	"seedblast/internal/stats"
	"seedblast/internal/translate"
)

// This file is the search API: one Searcher, constructed once from
// functional options, searching any query against any Target through
// one entry point with streaming results.

// Option configures a Searcher. Options apply in order over
// DefaultOptions, so later options win.
type Option func(*Options) error

// WithSeed selects the seed model (step 1).
func WithSeed(m seed.Model) Option {
	return func(o *Options) error {
		if m == nil {
			return fmt.Errorf("core: WithSeed(nil)")
		}
		o.Seed = m
		return nil
	}
}

// WithNeighborhood sets the neighbourhood extension N; step 2 scores
// windows of W+2N residues.
func WithNeighborhood(n int) Option {
	return func(o *Options) error {
		if n < 0 {
			return fmt.Errorf("core: negative neighbourhood %d", n)
		}
		o.N = n
		return nil
	}
}

// WithMatrix sets the scoring matrix.
func WithMatrix(m *matrix.Matrix) Option {
	return func(o *Options) error {
		if m == nil {
			return fmt.Errorf("core: WithMatrix(nil)")
		}
		o.Matrix = m
		return nil
	}
}

// WithUngappedThreshold sets the step-2 score threshold.
func WithUngappedThreshold(threshold int) Option {
	return func(o *Options) error { o.UngappedThreshold = threshold; return nil }
}

// WithEngine selects where step 2 runs (CPU or simulated RASC).
func WithEngine(e Engine) Option {
	return func(o *Options) error { o.Engine = e; return nil }
}

// WithRASC configures the simulated accelerator (used by EngineRASC).
func WithRASC(r RASCOptions) Option {
	return func(o *Options) error { o.RASC = r; return nil }
}

// WithWorkers sets the host parallelism (0 = GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(o *Options) error { o.Workers = n; return nil }
}

// WithPipeline tunes the shard engine (its shard size).
func WithPipeline(cfg pipeline.Config) Option {
	return func(o *Options) error { o.Pipeline = cfg; return nil }
}

// WithMaxCandidates enables the two-stage prefilter: before step 2,
// each query's subject sequences are ranked by a cheap hashed-seed
// diagonal-band score and only the top k survive into ungapped and
// gapped extension. k = 0 disables the stage (the default) and the
// search is bit-identical to one without it; reported E-values are
// unchanged for any k because the statistics keep the full subject
// bank's geometry. See Options.MaxCandidates.
func WithMaxCandidates(k int) Option {
	return func(o *Options) error {
		if k < 0 {
			return fmt.Errorf("core: negative MaxCandidates %d", k)
		}
		o.MaxCandidates = k
		return nil
	}
}

// WithGapped replaces the step-3 configuration wholesale; unset fields
// with no meaningful zero are still filled from the defaults.
func WithGapped(cfg gapped.Config) Option {
	return func(o *Options) error { o.Gapped = cfg; return nil }
}

// WithMaxEValue sets the step-3 significance cutoff.
func WithMaxEValue(ev float64) Option {
	return func(o *Options) error {
		if ev <= 0 {
			return fmt.Errorf("core: MaxEValue must be positive, got %g", ev)
		}
		o.Gapped.MaxEValue = ev
		return nil
	}
}

// WithTraceback keeps each match's alignment operations (Ops) for
// reporting. They are the path the banded search found, recovered
// for reported matches only; the matches are the same either way.
func WithTraceback(on bool) Option {
	return func(o *Options) error { o.Gapped.Traceback = on; return nil }
}

// WithSearchSpace fixes the database geometry used for E-value
// statistics — the cluster layer's volume context (see
// Options.SearchSpaceOverride).
func WithSearchSpace(sp stats.SearchSpace) Option {
	return func(o *Options) error {
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		o.SearchSpaceOverride = sp
		return nil
	}
}

// WithGeneticCode selects the translation table applied when DNA and
// genome targets built without an explicit code are translated into
// their reading frames (Options.GeneticCode; nil means the standard
// code).
func WithGeneticCode(code *translate.Code) Option {
	return func(o *Options) error {
		o.GeneticCode = code
		return nil
	}
}

// Searcher runs seed-based comparisons. It is built once — options
// resolved, step-2 backend and shard engine constructed — and reused
// across any number of Search calls; a Searcher is safe for concurrent
// use (the engine and all backends are, see pipeline.Engine).
type Searcher struct {
	opt  Options
	gcfg gapped.Config
	eng  *pipeline.Engine
}

// NewSearcher builds a Searcher from DefaultOptions with the given
// options applied in order.
func NewSearcher(opts ...Option) (*Searcher, error) {
	o := DefaultOptions()
	for _, apply := range opts {
		if err := apply(&o); err != nil {
			return nil, err
		}
	}
	// The setters reject nil; this guards a hand-written Option.
	if o.Seed == nil || o.Matrix == nil {
		return nil, fmt.Errorf("core: Seed and Matrix are required")
	}
	backend, err := backendFor(&o)
	if err != nil {
		return nil, err
	}
	eng, err := pipeline.New(o.Pipeline, backend)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Searcher{opt: o, gcfg: o.gappedConfig(), eng: eng}, nil
}

// Options returns a copy of the searcher's resolved options.
func (s *Searcher) Options() Options { return s.opt }

// Match is one reported similarity region, in both engine coordinates
// (the embedded alignment: effective-bank sequence numbers and residue
// spans) and source coordinates (the two loci: origin sequence, frame
// and nucleotide span for translated sides).
type Match struct {
	gapped.Alignment
	Query   Locus
	Subject Locus
}

// Summary is the non-match part of a search outcome: work counters,
// per-step timings, device reports and engine accounting. It is
// available from Results.Summary once the match stream has been fully
// consumed.
type Summary struct {
	Hits       int   // step-2 survivors
	Pairs      int64 // step-2 scorings performed
	Times      StepTimes
	Device     *hwsim.Step2Report // non-nil when shards ran on the accelerator
	GapDevice  *hwsim.GapOpReport // non-nil when RASC.OffloadGapped
	GappedWork gapped.Stats
	// Pipeline reports the streaming engine's per-stage accounting,
	// including MaxBufferedMatches — the peak resident match buffer,
	// which streaming consumption keeps far below the full result size.
	Pipeline pipeline.Metrics
}

// Search runs the three-step pipeline on a query side against a
// target. Both sides are Targets, which covers the whole BLAST family:
//
//	blastp   Search(ctx, NewProteinTarget(q), NewProteinTarget(s))
//	tblastn  Search(ctx, NewProteinTarget(q), NewGenomeTarget(g, code))
//	blastx   Search(ctx, NewDNATarget(qs, code), NewProteinTarget(s))
//	tblastx  Search(ctx, NewGenomeTarget(g0, code), NewGenomeTarget(g1, code))
//
// The target's step-1 index for the searcher's (seed, N) is built on
// first use and reused by every later search against it. Search itself
// does no work: the returned Results drives the engine when its match
// stream is consumed.
func (s *Searcher) Search(ctx context.Context, query, target Target) *Results {
	return &Results{s: s, ctx: ctx, query: query, target: target}
}

// Results is a streaming search outcome. The match stream (Matches or
// Collect) is single-use and drives the shard engine as it is
// consumed: matches are yielded shard by shard as final ranking
// completes, in exactly the order Collect's slice has — bank-0 order,
// then E-value, then bank-1 order. Summary data becomes
// available once the stream has been fully drained.
type Results struct {
	s             *Searcher
	ctx           context.Context
	query, target Target

	mu      sync.Mutex
	started bool
	sum     *Summary
	err     error
}

func (r *Results) begin() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return fmt.Errorf("core: Results is a single-use stream (already consumed)")
	}
	r.started = true
	return nil
}

func (r *Results) finish(sum *Summary, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
	if err == nil {
		r.sum = sum
	}
}

// Matches returns the match stream. Iteration runs the engine, its
// step 3 on the iterating goroutine; an early break ends the run
// before the next shard's step 3. A failure is yielded as the final
// element's non-nil error. The sequence can be ranged over once; a
// second call yields an error.
func (r *Results) Matches() iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		if err := r.begin(); err != nil {
			yield(Match{}, err)
			return
		}
		if r.query == nil || r.target == nil {
			err := fmt.Errorf("core: Search needs both a query and a target")
			r.finish(nil, err)
			yield(Match{}, err)
			return
		}
		// Resolve the target's index, timing the resolution: a cold
		// target pays the build here, a warm one costs ~nothing — so
		// step-1 index time only grows when an index is actually built.
		t0 := time.Now()
		ix1, err := r.target.index(r.s.opt.Seed, r.s.opt.N, r.s.opt.Workers)
		ixDur := time.Since(t0)
		if err != nil {
			err = fmt.Errorf("core: indexing %s target: %w", r.target.Kind(), err)
			r.finish(nil, err)
			yield(Match{}, err)
			return
		}
		req := &pipeline.Request{
			Bank0:     r.query.Bank(),
			Bank1:     r.target.Bank(),
			Seed:      r.s.opt.Seed,
			N:         r.s.opt.N,
			Workers:   r.s.opt.Workers,
			Gapped:    r.s.gcfg,
			Index1:    ix1,
			Prefilter: prefilter.Config{MaxCandidates: r.s.opt.MaxCandidates},
		}
		// A query-side index is only usable when the engine will not cut
		// bank 0; reuse one the query target happens to have built.
		if size := r.s.opt.Pipeline.ShardSize; size <= 0 || size >= req.Bank0.Len() {
			req.Index0 = r.query.cached(r.s.opt.Seed, r.s.opt.N)
		}

		// The engine runs step 3 on this goroutine and hands each
		// shard's matches straight to the consumer; a consumer that
		// stops ends the run through errStopped. yield must not be
		// called again after it returned false, whatever error the run
		// reports.
		stopped := false
		out, runErr := r.s.eng.RunStream(r.ctx, req, func(as []gapped.Alignment) error {
			for i := range as {
				m := Match{
					Alignment: as[i],
					Query:     r.query.locus(as[i].Seq0, as[i].Q),
					Subject:   r.target.locus(as[i].Seq1, as[i].S),
				}
				if !yield(m, nil) {
					stopped = true
					return errStopped
				}
			}
			return nil
		})
		if stopped {
			r.finish(nil, fmt.Errorf("core: search abandoned before the stream was drained"))
			return
		}
		if runErr != nil {
			err := fmt.Errorf("core: %w", runErr)
			r.finish(nil, err)
			yield(Match{}, err)
			return
		}
		out.Metrics.Index.Busy += ixDur
		sum, err := summarize(out, &r.s.opt, r.s.gcfg)
		r.finish(sum, err)
		if err != nil {
			yield(Match{}, err)
		}
	}
}

// errStopped is what the engine's emit returns when the consumer
// breaks out of Matches.
var errStopped = errors.New("core: match consumer stopped")

// Collect drains the stream into a slice.
func (r *Results) Collect() ([]Match, error) {
	var ms []Match
	for m, err := range r.Matches() {
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// Summary returns the search's work counters and timings. It is
// available once the match stream has been fully consumed; before
// that, or after a failed or abandoned stream, it returns an error.
func (r *Results) Summary() (*Summary, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	if r.sum == nil {
		return nil, fmt.Errorf("core: Summary is available after the match stream is fully consumed")
	}
	return r.sum, nil
}

// summarize maps the engine output onto the StepTimes semantics, the
// one place Summary.Times is derived: Index is the engine's step-1
// busy time; Ungapped is the simulated device seconds on the RASC
// engine and step-2 busy time on the CPU; Gapped is the simulated gap
// operator's seconds in the future-work configuration and step-3 busy
// time otherwise.
func summarize(out *pipeline.Output, opt *Options, gcfg gapped.Config) (*Summary, error) {
	pm := &out.Metrics
	sum := &Summary{
		Hits:       out.Hits,
		Pairs:      out.Pairs,
		Times:      StepTimes{Index: pm.Index.Busy, Ungapped: pm.Step2.Busy, Gapped: pm.Step3.Busy},
		Device:     out.Device,
		GappedWork: out.GappedWork,
		Pipeline:   *pm,
	}
	if opt.Engine != EngineRASC {
		return sum, nil
	}
	if out.Device != nil {
		sum.Times.Ungapped = time.Duration(out.Device.Seconds * float64(time.Second))
	}
	if opt.RASC.OffloadGapped {
		gop := hwsim.DefaultGapOp(gcfg.Band)
		if opt.RASC.ClockHz != 0 {
			gop.ClockHz = opt.RASC.ClockHz
		}
		rep, err := gop.EstimateStep3(out.GappedWork)
		if err != nil {
			return nil, fmt.Errorf("core: step 3 (gap operator): %w", err)
		}
		sum.GapDevice = rep
		sum.Times.Gapped = time.Duration(rep.Seconds * float64(time.Second))
	}
	return sum, nil
}

package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/gapped"
	"seedblast/internal/hwsim"
	"seedblast/internal/index"
	"seedblast/internal/ungapped"
)

// This file holds the test oracle and the helpers that let one Options
// value configure both it and a Searcher. None of it is shipped.

// Result is a materialized outcome: the engine alignments plus the
// search Summary, whose fields are promoted. CompareBatch returns it
// and collect reshapes a drained Searcher run into it, so every
// equivalence suite compares like with like.
type Result struct {
	Alignments []gapped.Alignment
	Matches    []Match // nil for CompareBatch, which knows no loci
	Summary
}

// CompareBatch is the historical monolithic driver: both indexes built
// up front, all of step 2 run to completion, then all of step 3. It
// shares no code with the shard engine above the step packages, which
// is what makes it the reference the streaming Searcher is
// equivalence-tested against. It never prefilters (MaxCandidates is
// ignored), so it stays the exhaustive reference.
func CompareBatch(b0, b1 *bank.Bank, opt Options) (*Result, error) {
	if opt.Seed == nil || opt.Matrix == nil {
		return nil, fmt.Errorf("core: Seed and Matrix are required (use DefaultOptions)")
	}
	if opt.N < 0 {
		return nil, fmt.Errorf("core: negative neighbourhood %d", opt.N)
	}

	// Step 1: index both banks (parallel build unless the caller pinned
	// Workers to 1 for sequential-profile measurements).
	t0 := time.Now()
	ix0, err := index.BuildParallel(b0, opt.Seed, opt.N, opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: indexing bank 0: %w", err)
	}
	ix1, err := index.BuildParallel(b1, opt.Seed, opt.N, opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: indexing bank 1: %w", err)
	}
	res := &Result{}
	res.Times.Index = time.Since(t0)

	// Step 2: ungapped extension on the selected engine.
	var hits []ungapped.Hit
	switch opt.Engine {
	case EngineCPU:
		t1 := time.Now()
		r, err := ungapped.Run(ix0, ix1, ungapped.Config{
			Matrix:    opt.Matrix,
			Threshold: opt.UngappedThreshold,
			Workers:   opt.Workers,
			Kernel:    opt.Step2Kernel,
		})
		if err != nil {
			return nil, fmt.Errorf("core: step 2: %w", err)
		}
		res.Times.Ungapped = time.Since(t1)
		hits = r.Hits
		res.Pairs = r.Pairs
	case EngineRASC:
		dev, err := buildDevice(&opt, ix0.SubLen())
		if err != nil {
			return nil, err
		}
		rep, err := dev.RunStep2(ix0, ix1)
		if err != nil {
			return nil, fmt.Errorf("core: step 2 (rasc): %w", err)
		}
		res.Device = rep
		res.Times.Ungapped = time.Duration(rep.Seconds * float64(time.Second))
		hits = rep.Hits
		res.Pairs = rep.Pairs
	default:
		return nil, fmt.Errorf("core: engine %v not supported by the batch path", opt.Engine)
	}
	res.Hits = len(hits)

	// Step 3: gapped extension on the host (or, in the future-work
	// configuration, timed as if on the second FPGA's gap operator).
	t2 := time.Now()
	gcfg := opt.gappedConfig()
	as, gstats, err := gapped.RunWithStats(b0, b1, hits, gcfg)
	if err != nil {
		return nil, fmt.Errorf("core: step 3: %w", err)
	}
	res.Times.Gapped = time.Since(t2)
	res.Alignments = as
	res.GappedWork = gstats
	if opt.Engine == EngineRASC && opt.RASC.OffloadGapped {
		gop := hwsim.DefaultGapOp(gcfg.Band)
		if opt.RASC.ClockHz != 0 {
			gop.ClockHz = opt.RASC.ClockHz
		}
		rep, err := gop.EstimateStep3(gstats)
		if err != nil {
			return nil, fmt.Errorf("core: step 3 (gap operator): %w", err)
		}
		res.GapDevice = rep
		res.Times.Gapped = time.Duration(rep.Seconds * float64(time.Second))
	}
	return res, nil
}

// fromOptions replaces the whole option set, so a test that hands
// CompareBatch an Options value builds its Searcher from the same one.
func fromOptions(o Options) Option {
	return func(dst *Options) error { *dst = o; return nil }
}

// newSearcher builds a Searcher from an Options value or fails the
// test.
func newSearcher(tb testing.TB, opt Options) *Searcher {
	tb.Helper()
	s, err := NewSearcher(fromOptions(opt))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// collect drains one search into a Result.
func collect(ctx context.Context, s *Searcher, query, target Target) (*Result, error) {
	res := s.Search(ctx, query, target)
	ms, err := res.Collect()
	if err != nil {
		return nil, err
	}
	sum, err := res.Summary()
	if err != nil {
		return nil, err
	}
	out := &Result{Matches: ms, Summary: *sum}
	if len(ms) > 0 {
		out.Alignments = make([]gapped.Alignment, len(ms))
		for i := range ms {
			out.Alignments[i] = ms[i].Alignment
		}
	}
	return out, nil
}

// search runs opt over any two targets through a fresh Searcher.
func search(query, target Target, opt Options) (*Result, error) {
	s, err := NewSearcher(fromOptions(opt))
	if err != nil {
		return nil, err
	}
	return collect(context.Background(), s, query, target)
}

// searchBanks is the blastp call the suites use: two protein banks.
func searchBanks(b0, b1 *bank.Bank, opt Options) (*Result, error) {
	return search(NewProteinTarget(b0), NewProteinTarget(b1), opt)
}

// searchGenome is the tblastn call: a protein bank against a genome
// translated under opt's genetic code.
func searchGenome(proteins *bank.Bank, genome []byte, opt Options) (*Result, error) {
	return search(NewProteinTarget(proteins), NewGenomeTarget(genome, opt.GeneticCode), opt)
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"seedblast/internal/core"
	"seedblast/internal/gapped"
	"seedblast/internal/index"
	"seedblast/internal/prefilter"
	"seedblast/internal/service"
	"seedblast/internal/telemetry"
	"seedblast/internal/ungapped"
)

// system is one started instance of the program under test, ready to
// run ops. op is safe for concurrent callers.
type system struct {
	op    func(ctx context.Context) (*opResult, error)
	close func()
}

// search runs one library Search, drains it through Matches() into
// wire records and reads the summary.
func search(ctx context.Context, s *core.Searcher, query, target core.Target) (*opResult, *core.Summary, error) {
	res := s.Search(ctx, query, target)
	out := &opResult{}
	for m, err := range res.Matches() {
		if err != nil {
			return nil, nil, err
		}
		out.aligns = append(out.aligns, service.MatchJSON(&m))
	}
	sum, err := res.Summary()
	if err != nil {
		return nil, nil, err
	}
	out.pairs, out.hits = sum.Pairs, sum.Hits
	return out, sum, nil
}

// startLibrary is the library's cold start: a Searcher and a subject
// target whose index the first Search will build.
func startLibrary(w workload, in *inputs) (*system, error) {
	s, err := core.NewSearcher(w.options()...)
	if err != nil {
		return nil, err
	}
	query, target := core.NewProteinTarget(in.queries), core.NewProteinTarget(in.subjects)
	return &system{
		op: func(ctx context.Context) (*opResult, error) {
			r, _, err := search(ctx, s, query, target)
			return r, err
		},
		close: func() {},
	}, nil
}

// reference is the result every workload is checked against: one
// unfiltered CPU library search of the inputs.
func reference(ctx context.Context, in *inputs) (*opResult, error) {
	sys, err := startLibrary(workload{}, in)
	if err != nil {
		return nil, err
	}
	return sys.op(ctx)
}

// tracedLibrary is the per-layer pass over the library path of w's
// inputs. Each round replays the funnel by hand — one public call per
// layer, each inside a bench-owned span, with the Searcher's resolved
// options — then runs one spanned Search with a telemetry trace in its
// context, whose Summary supplies the counters and busy times. The
// replayed hit and alignment counts must equal the Search's, or the
// replay is not measuring what Search does.
//
// On scan_rasc step 2 cannot be replayed from outside (the device is
// built inside core), so its host and simulated times come from the
// Search's Summary and the replay obtains the identical hits from the
// CPU kernel, untimed.
func tracedLibrary(ctx context.Context, cfg config, w workload, in *inputs, budget time.Duration, tr *tracer, obs series) (first *opResult, ops, failed int, err error) {
	s, err := core.NewSearcher(w.options()...)
	if err != nil {
		return nil, 0, 0, err
	}
	query, target := core.NewProteinTarget(in.queries), core.NewProteinTarget(in.subjects)
	if first, _, err = search(ctx, s, query, target); err != nil { // builds the target's index
		return nil, 0, 0, err
	}
	want := first.digest()
	start := time.Now()
	for round := 0; round < cfg.minRounds || time.Since(start) < budget; round++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		hits, aligns, err := replayFunnel(in, s.Options(), round, tr, obs)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("replay: %w", err)
		}

		// The spanned Search. Allocation counters bracket it outside
		// the timed interval; nothing else runs in this process.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		trace := telemetry.NewTrace(telemetry.NewTraceID())
		end := tr.begin("core.search", "", round)
		got, sum, err := search(telemetry.ContextWithTrace(ctx, trace), s, query, target)
		d := end()
		runtime.ReadMemStats(&after)
		ops++
		if err != nil {
			return nil, 0, 0, err
		}
		if got.digest() != want {
			failed++
		}
		tr.graft("core.search", round, trace.Spans())
		if sum.Hits != hits || len(got.aligns) != aligns {
			return nil, 0, 0, fmt.Errorf("replay diverged from Search: %d hits / %d alignments replayed, Search had %d / %d",
				hits, aligns, sum.Hits, len(got.aligns))
		}
		obs.add("core.search_traced_ms", ms(d))
		obs.add("core.matches", float64(len(got.aligns)))
		obs.add("core.alloc_mb_per_search", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		obs.add("core.allocs_per_search", float64(after.Mallocs-before.Mallocs))
		p := &sum.Pipeline
		obs.add("pipeline.step1_busy_ms", ms(p.Index.Busy))
		obs.add("pipeline.step2_busy_ms", ms(p.Step2.Busy))
		obs.add("pipeline.step3_busy_ms", ms(p.Step3.Busy))
		obs.add("pipeline.max_buffered_matches", float64(p.MaxBufferedMatches))
		if w.maxCandidates > 0 {
			obs.add("pipeline.prefilter_busy_ms", ms(p.Prefilter.Busy))
		}
		if w.engine == core.EngineRASC {
			if sum.Device == nil {
				return nil, 0, 0, fmt.Errorf("rasc search returned no device report")
			}
			obs.add("hwsim.host_ms", ms(p.Step2.Busy))
			obs.add("hwsim.host_ns_per_pair", ratio(float64(p.Step2.Busy.Nanoseconds()), float64(sum.Pairs)))
			obs.add("hwsim.sim_step2_ms", sum.Device.Seconds*1e3)
			obs.add("hwsim.utilization", sum.Device.Utilization)
		}
	}
	return first, ops, failed, nil
}

// replayFunnel runs the funnel once from outside, layer by layer, and
// returns the hit and alignment counts it ended with.
func replayFunnel(in *inputs, opt core.Options, round int, tr *tracer, obs series) (nHits, nAligns int, err error) {
	defer tr.begin("replay", "", round)()
	end := tr.begin("index.build_subject", "replay", round)
	ix1, err := index.BuildParallel(in.subjects, opt.Seed, opt.N, opt.Workers)
	d := end()
	if err != nil {
		return 0, 0, err
	}
	obs.add("index.build_subject_ms", ms(d))
	obs.add("index.subject_entries", float64(ix1.NumEntries()))
	// A warm Search never builds the subject index. Collect what the
	// build left behind now, or the collector runs beside the layers
	// below and is billed to them.
	runtime.GC()

	end = tr.begin("index.build_query", "replay", round)
	ix0, err := index.BuildParallel(in.queries, opt.Seed, opt.N, opt.Workers)
	d = end()
	if err != nil {
		return 0, 0, err
	}
	obs.add("index.build_query_ms", ms(d))

	ixSub := ix1
	var pf *prefilter.Result
	if opt.MaxCandidates > 0 {
		end = tr.begin("prefilter.run", "replay", round)
		pf, err = prefilter.Run(in.queries, opt.Seed, ix1, prefilter.Config{MaxCandidates: opt.MaxCandidates})
		d = end()
		if err != nil {
			return 0, 0, err
		}
		obs.add("prefilter.run_ms", ms(d))
		obs.add("prefilter.kept_pairs", float64(pf.Kept))
		obs.add("prefilter.dropped_pairs", float64(pf.Dropped))
		obs.add("prefilter.keep_ratio", ratio(float64(pf.Kept), float64(pf.Kept+pf.Dropped)))
		obs.add("prefilter.union_cover", ratio(float64(len(pf.Union)), float64(in.subjects.Len())))

		end = tr.begin("index.filter", "replay", round)
		ixSub = ix1.FilterSeqs(pf.Union)
		obs.add("index.filter_ms", ms(end()))
	}

	rasc := opt.Engine == core.EngineRASC
	stepName := "ungapped.run"
	if rasc {
		stepName = "hwsim.cpu_stand_in" // supplies the device's hits; its time is not reported
	}
	end = tr.begin(stepName, "replay", round)
	step2, err := ungapped.Run(ix0, ixSub, ungapped.Config{
		Matrix: opt.Matrix, Threshold: opt.UngappedThreshold, Workers: opt.Workers, Kernel: opt.Step2Kernel,
	})
	d = end()
	if err != nil {
		return 0, 0, err
	}
	hits := step2.Hits
	if !rasc {
		obs.add("ungapped.run_ms", ms(d))
		obs.add("ungapped.pairs", float64(step2.Pairs))
		obs.add("ungapped.hits", float64(len(hits)))
		obs.add("ungapped.ns_per_pair", ratio(float64(d.Nanoseconds()), float64(step2.Pairs)))
		obs.add("ungapped.pass_ratio", ratio(float64(len(hits)), float64(step2.Pairs)))
	}
	if pf != nil {
		// The union index pairs a query with subjects only another
		// query kept; the pipeline drops those hits before step 3.
		kept := hits[:0]
		for i := range hits {
			if pf.Keeps(int(hits[i].E0.Seq), hits[i].E1.Seq) {
				kept = append(kept, hits[i])
			}
		}
		hits = kept
	}

	end = tr.begin("gapped.run", "replay", round)
	aligns, gstats, err := gapped.RunWithStats(in.queries, in.subjects, hits, opt.Gapped)
	d = end()
	if err != nil {
		return 0, 0, err
	}
	obs.add("gapped.run_ms", ms(d))
	obs.add("gapped.hits_in", float64(gstats.Hits))
	obs.add("gapped.extended", float64(gstats.Extended))
	obs.add("gapped.dp_cells", float64(gstats.DPCells))
	obs.add("gapped.ns_per_cell", ratio(float64(d.Nanoseconds()), float64(gstats.DPCells)))
	obs.add("gapped.alignments", float64(len(aligns)))
	obs.add("gapped.useful_ratio", ratio(float64(len(aligns)), float64(gstats.Extended)))
	return len(hits), len(aligns), nil
}

// replayedLayers are the layer times whose sum, subtracted from the
// traced Search's wall, leaves pipeline.unattributed_ms: sharding,
// channels, ordered emit, the final sort, locus mapping and goroutine
// start-up. The subject index build is not among them: a warm Search
// does not pay it.
var replayedLayers = []string{
	"index.build_query_ms", "prefilter.run_ms", "index.filter_ms",
	"ungapped.run_ms", "hwsim.host_ms", "gapped.run_ms",
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

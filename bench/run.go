package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"seedblast/internal/core"
	"seedblast/internal/index"
)

// config is one invocation's settings. Measured runs use defaultConfig
// with the flags applied; the smoke test shrinks everything.
type config struct {
	seed     int64
	window   time.Duration // timed window, and the traced pass's time box
	untraced bool          // measure the end-to-end metrics
	traced   bool          // measure the per-layer metrics
	sizes    sizes
	// clients is the number of closed-loop callers of a serving
	// workload: each sends its next job when the previous one's
	// alignments are decoded, which is how the coordinator and seedcmp
	// use the job API. Library workloads always have one caller.
	clients   int
	setupReps int // cold starts behind setup_s
	minRounds int // traced library and cluster rounds, at least
	minJobs   int // traced serve_hot jobs, at least
}

func defaultConfig() config {
	return config{
		seed: 1, window: 10 * time.Second, untraced: true, traced: true,
		sizes: fullSizes, clients: 2, setupReps: 7, minRounds: 5, minJobs: 200,
	}
}

// p90MinOps is the fewest completed ops a window must hold before its
// 90th percentile is reported: ten samples beyond the percentile.
const p90MinOps = 100

// tailLatency is reported, stored and compared like an end-to-end
// metric, but only where a window completed p90MinOps ops. It is not
// in BENCHMARK.json, whose metrics must exist on every workload: the
// ~150 ms ops of the homolog workloads do not reach 100 in a window.
var tailLatency = metricDef{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest"` // of the first op; every later op must repeat it
	Matches   int               `json:"matches"`
	Problems  []string          `json:"problems,omitempty"` // correctness violations
	EndToEnd  map[string]sample `json:"end_to_end,omitempty"`
	PerLayer  map[string]sample `json:"per_layer,omitempty"`

	trace *tracer
}

func (r *workloadResult) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

func start(w workload, in *inputs) (*system, error) {
	if w.kind == library {
		return startLibrary(w, in)
	}
	return startServing(w, in)
}

// runWorkload generates w's inputs from the seed, measures what cfg
// asks for and checks the result.
func runWorkload(ctx context.Context, cfg config, w workload) (*workloadResult, error) {
	in := w.bank(cfg.seed, cfg.sizes)
	ref, err := reference(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("reference search: %w", err)
	}
	res := &workloadResult{Name: w.name}
	var first *opResult
	if cfg.untraced {
		if first, err = measureEndToEnd(ctx, cfg, w, in, res); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		tfirst, err := measureLayers(ctx, cfg, w, in, res)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = tfirst
		} else if first.digest() != tfirst.digest() {
			res.Problems = append(res.Problems, "the traced pass's result differs from the untraced window's")
		}
	}
	res.Digest, res.Matches = first.digest(), len(first.aligns)
	res.Problems = append(res.Problems, checkResult(w, in, first, ref)...)
	return res, nil
}

// measureEndToEnd takes setup_s from cfg.setupReps cold starts, then
// runs the closed loop on one more started system for the window. It
// returns the result of that system's first op, which every later op
// must reproduce.
func measureEndToEnd(ctx context.Context, cfg config, w workload, in *inputs, res *workloadResult) (*opResult, error) {
	obs := series{}
	var sys *system
	var first *opResult
	// The last started system stays up for the window.
	for rep := 0; rep < cfg.setupReps; rep++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC() // the previous start's index is garbage; collect it outside the timing
		t0 := time.Now()
		var err error
		if sys, err = start(w, in); err != nil {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		if first, err = sys.op(ctx); err != nil {
			sys.close()
			return nil, fmt.Errorf("first op: %w", err)
		}
		obs.add("setup_s", time.Since(t0).Seconds())
	}
	defer sys.close()
	want := first.digest()

	callers := 1
	if w.kind != library {
		callers = cfg.clients
	}
	var (
		mu        sync.Mutex
		latencies []float64
		opErr     error
		wg        sync.WaitGroup
	)
	runtime.GC()
	begun := time.Now()
	deadline := begun.Add(cfg.window)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			attempted, failed := 0, 0
			for time.Now().Before(deadline) && ctx.Err() == nil {
				t0 := time.Now()
				got, err := sys.op(ctx)
				d := time.Since(t0)
				attempted++
				switch {
				case err != nil:
					failed++
					mu.Lock()
					if opErr == nil {
						opErr = err
					}
					mu.Unlock()
				case got.digest() != want:
					failed++
				default:
					mine = append(mine, ms(d))
				}
			}
			mu.Lock()
			latencies = append(latencies, mine...)
			res.Attempted += attempted
			res.Failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(begun)
	if len(latencies) == 0 {
		return nil, fmt.Errorf("no op completed in the window: %v", opErr)
	}
	if opErr != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("an op failed: %v", opErr))
	}

	res.EndToEnd = obs.medians(endToEnd)
	n := len(latencies)
	res.EndToEnd["op_ms_p50"] = sample{Value: quantile(latencies, 0.5), Unit: "ms", N: n}
	res.EndToEnd["ops_per_s"] = sample{Value: float64(n) / elapsed.Seconds(), Unit: "1/s", N: n}
	if n >= p90MinOps {
		res.EndToEnd[tailLatency.Name] = sample{Value: quantile(latencies, 0.9), Unit: tailLatency.Unit, N: n}
	}
	return first, nil
}

// measureLayers runs the traced pass: the library funnel of w's
// inputs, then — on serving workloads — the daemons.
func measureLayers(ctx context.Context, cfg config, w workload, in *inputs, res *workloadResult) (*opResult, error) {
	obs := series{}
	res.trace = newTracer()
	budget := cfg.window
	if w.kind != library {
		budget /= 4 // the rest of the time box goes to the jobs
	}
	first, ops, failed, err := tracedLibrary(ctx, cfg, w, in, budget, res.trace, obs)
	if err != nil {
		return nil, fmt.Errorf("traced library pass: %w", err)
	}
	res.Attempted += ops
	res.Failed += failed
	if w.kind != library {
		opt := core.DefaultOptions()
		for i := 0; i < cfg.minRounds; i++ {
			end := res.trace.begin("index.fingerprint", "", i)
			_ = index.Fingerprint(in.subjects, opt.Seed, opt.N)
			obs.add("index.fingerprint_ms", ms(end()))
		}
		traced := tracedServing
		if w.kind == clustered {
			traced = tracedCluster
		}
		if first, ops, failed, err = traced(ctx, cfg, w, in, cfg.window-budget, res.trace, obs); err != nil {
			return nil, fmt.Errorf("traced %s pass: %w", w.name, err)
		}
		res.Attempted += ops
		res.Failed += failed
	}

	res.PerLayer = obs.medians(perLayer)
	searchMS := res.PerLayer["core.search_traced_ms"]
	rest := searchMS.Value
	for _, name := range replayedLayers {
		rest -= res.PerLayer[name].Value
	}
	res.PerLayer["pipeline.unattributed_ms"] = sample{Value: rest, Unit: "ms", N: searchMS.N}
	if w.kind == clustered {
		res.PerLayer["cluster.overhead_ratio"] = sample{
			Value: ratio(quantile(obs["cluster.compare_ms"], 0.5), searchMS.Value),
			Unit:  "ratio", N: len(obs["cluster.compare_ms"]),
		}
	}
	return first, nil
}

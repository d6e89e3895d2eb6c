package pipeline

import (
	"context"
	"fmt"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/hwsim"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/prefilter"
	"seedblast/internal/telemetry"
	"seedblast/internal/ungapped"
)

// Step2Output is one shard's ungapped-extension result.
type Step2Output struct {
	// Hits are the surviving seed pairs. Backends return them in
	// shard-local sequence numbering; the engine remaps them to bank
	// numbering before step 3.
	Hits  []ungapped.Hit
	Pairs int64
	// Elapsed is the stage's cost under StepTimes semantics: host wall
	// time for the CPU backend, simulated device seconds for the RASC
	// backend.
	Elapsed time.Duration
	// Device is the accelerator report when the shard ran on hardware.
	Device *hwsim.Step2Report
}

// Backend abstracts where step 2 (ungapped extension) runs. A backend
// shared by concurrent runs must be safe for concurrent Step2 calls.
type Backend interface {
	Name() string
	Step2(ctx context.Context, shard *Shard, ix1 *index.Index) (*Step2Output, error)
}

// CPUBackend runs step 2 on the host with the parallel software engine
// (package ungapped).
type CPUBackend struct {
	Matrix    *matrix.Matrix
	Threshold int
	Workers   int // per-shard parallelism; 0 = GOMAXPROCS
}

// Name implements Backend.
func (b *CPUBackend) Name() string { return "cpu" }

// Step2 implements Backend.
func (b *CPUBackend) Step2(ctx context.Context, shard *Shard, ix1 *index.Index) (*Step2Output, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	r, err := ungapped.Run(shard.Index, ix1, ungapped.Config{
		Matrix:    b.Matrix,
		Threshold: b.Threshold,
		Workers:   b.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Step2Output{
		Hits:    r.Hits,
		Pairs:   r.Pairs,
		Elapsed: time.Since(t0),
	}, nil
}

// RASCBackend runs step 2 on the simulated RASC-100 accelerator.
// Elapsed is the simulated device time (cycles at the configured clock
// plus DMA), not host wall time, matching the batch path's StepTimes
// semantics for the RASC engine.
type RASCBackend struct {
	Device *hwsim.Device
}

// Name implements Backend.
func (b *RASCBackend) Name() string { return "rasc" }

// Step2 implements Backend.
func (b *RASCBackend) Step2(ctx context.Context, shard *Shard, ix1 *index.Index) (*Step2Output, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep, err := b.Device.RunStep2(shard.Index, ix1)
	if err != nil {
		return nil, err
	}
	return &Step2Output{
		Hits:    rep.Hits,
		Pairs:   rep.Pairs,
		Elapsed: time.Duration(rep.Seconds * float64(time.Second)),
		Device:  rep,
	}, nil
}

// frontResult is one shard after steps 1 and 2: its hits in bank-0
// numbering, or the error that stopped it.
type frontResult struct {
	r   *Step2Output
	err error
}

// front builds shard id's index and runs its step 2.
func (e *Engine) front(ctx context.Context, req *Request, ix1 *index.Index, id int, rg [2]int, met *Metrics, tr *telemetry.Trace) frontResult {
	t0 := time.Now()
	sh, err := buildShard(req, id, rg[0], rg[1])
	d := time.Since(t0)
	met.Index.Busy += d // a failed build's time counts, the shard does not
	if err != nil {
		return frontResult{err: fmt.Errorf("pipeline: shard %d index: %w", id, err)}
	}
	met.Index.Shards++
	tr.Record("step1", t0, d, telemetry.Int("shard", id))
	r, err := e.step2(ctx, req, sh, ix1, met, tr)
	return frontResult{r, err}
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

// step2 runs one shard's ungapped extension and returns its hits in
// bank-0 numbering. With the prefilter enabled, the shard's queries
// are first diagonal-scored against the full subject index and the
// backend sees an index filtered to the survivor union; the backend is
// unchanged — CPU kernels and the simulated accelerator just see a
// smaller ix1 — and hits of pairs no query kept are dropped after it,
// which tightens the union to exact per-query semantics.
func (e *Engine) step2(ctx context.Context, req *Request, sh *Shard, ix1 *index.Index, met *Metrics, tr *telemetry.Trace) (*Step2Output, error) {
	ixSub := ix1
	var pf *prefilter.Result
	if req.Prefilter.Enabled() {
		tp := time.Now()
		var err error
		if pf, err = prefilter.Run(sh.Bank, req.Seed, ix1, req.Prefilter); err != nil {
			return nil, fmt.Errorf("pipeline: prefilter, shard %d: %w", sh.ID, err)
		}
		ixSub = ix1.FilterSeqs(pf.Union)
		dp := time.Since(tp)
		met.Prefilter.Shards++
		met.Prefilter.Busy += dp
		met.PrefilterKept += pf.Kept
		met.PrefilterDropped += pf.Dropped
		met.PrefilterQueries += int64(pf.Queries)
		tr.Record("prefilter", tp, dp,
			telemetry.Int("shard", sh.ID),
			telemetry.Int("kept", int(pf.Kept)),
			telemetry.Int("dropped", int(pf.Dropped)))
	}
	t0 := time.Now()
	r, err := e.backend.Step2(ctx, sh, ixSub)
	d := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("pipeline: step 2, shard %d (%s): %w", sh.ID, e.backend.Name(), err)
	}
	if pf != nil {
		kept := r.Hits[:0]
		for i := range r.Hits {
			if pf.Keeps(int(r.Hits[i].E0.Seq), r.Hits[i].E1.Seq) {
				kept = append(kept, r.Hits[i])
			}
		}
		r.Hits = kept
	}
	if sh.Start != 0 {
		for i := range r.Hits {
			r.Hits[i].E0.Seq += uint32(sh.Start)
		}
	}
	met.Step2.Shards++
	met.Step2.Busy += d
	tr.Record("step2", t0, d, telemetry.Int("shard", sh.ID), telemetry.String("backend", e.backend.Name()))
	return r, nil
}

// sumReports folds per-shard accelerator reports into one: cycle,
// byte and time totals add up and utilization is cycle-weighted. A
// single report is returned verbatim; a sum carries no Hits.
func sumReports(reps []*hwsim.Step2Report) *hwsim.Step2Report {
	switch len(reps) {
	case 0:
		return nil
	case 1:
		return reps[0]
	}
	var sum hwsim.Step2Report
	var utilNum, utilDen float64
	for _, rep := range reps {
		sum.Pairs += rep.Pairs
		sum.Records += rep.Records
		var cycles float64
		for i, c := range rep.CyclesPerFPGA {
			if i == len(sum.CyclesPerFPGA) {
				sum.CyclesPerFPGA = append(sum.CyclesPerFPGA, 0)
			}
			sum.CyclesPerFPGA[i] += c
			cycles += float64(c)
		}
		sum.BytesToDevice += rep.BytesToDevice
		sum.BytesFromDev += rep.BytesFromDev
		sum.Transfers += rep.Transfers
		sum.ComputeSeconds += rep.ComputeSeconds
		sum.DMASeconds += rep.DMASeconds
		sum.Seconds += rep.Seconds
		utilNum += rep.Utilization * cycles
		utilDen += cycles
	}
	if utilDen > 0 {
		sum.Utilization = utilNum / utilDen
	}
	return &sum
}

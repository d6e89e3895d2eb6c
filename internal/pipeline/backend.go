package pipeline

import (
	"context"
	"fmt"
	"strings"
	"time"

	"seedblast/internal/hwsim"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/ungapped"
)

// Step2Output is one shard's ungapped-extension result, handed from
// the step-2 pool to the step-3 pool.
type Step2Output struct {
	Shard *Shard
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
	// Backend names the backend that processed the shard, so fan-out
	// dispatch is observable in Metrics.ShardsByBackend.
	Backend string
}

// Backend abstracts where step 2 (ungapped extension) runs. Backends
// must be safe for concurrent Step2 calls: the engine invokes one call
// per in-flight shard.
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
		Shard:   shard,
		Hits:    r.Hits,
		Pairs:   r.Pairs,
		Elapsed: time.Since(t0),
		Backend: b.Name(),
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
		Shard:   shard,
		Hits:    rep.Hits,
		Pairs:   rep.Pairs,
		Elapsed: time.Duration(rep.Seconds * float64(time.Second)),
		Device:  rep,
		Backend: b.Name(),
	}, nil
}

// MultiBackend fans shards out across several backends: each Step2
// call claims the first free backend and releases it when the shard
// completes. With a CPU and a RASC backend this is the paper's closing
// question — how to dispatch the computation between cores and FPGA —
// answered greedily: whichever resource is idle takes the next shard.
type MultiBackend struct {
	name string
	free chan Backend
}

// NewMultiBackend builds a fan-out over the given backends.
func NewMultiBackend(backends ...Backend) (*MultiBackend, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("pipeline: MultiBackend needs at least one backend")
	}
	names := make([]string, len(backends))
	free := make(chan Backend, len(backends))
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("pipeline: MultiBackend given a nil backend")
		}
		names[i] = b.Name()
		free <- b
	}
	return &MultiBackend{
		name: "multi(" + strings.Join(names, "+") + ")",
		free: free,
	}, nil
}

// Name implements Backend.
func (m *MultiBackend) Name() string { return m.name }

// Step2 implements Backend.
func (m *MultiBackend) Step2(ctx context.Context, shard *Shard, ix1 *index.Index) (*Step2Output, error) {
	select {
	case b := <-m.free:
		defer func() { m.free <- b }()
		return b.Step2(ctx, shard, ix1)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

package experiments

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"seedblast/internal/core"
	"seedblast/internal/hwsim"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/pipeline"
)

// HostDispatchRow answers the paper's closing question — "when such
// processors [4, 8 or more cores] will be linked to reconfigurable
// resources, the question will be how to dispatch the overall
// computation between cores and FPGA" — for one worker count: the
// multicore host's step-2 time against the simulated accelerator's.
type HostDispatchRow struct {
	Workers   int
	HostSec   float64
	DeviceSec float64
	Ratio     float64 // HostSec / DeviceSec (>1: FPGA wins)
}

// RunHostDispatch measures step 2 on the host at several worker counts
// and compares against the 192-PE device. The host side runs through
// the pipeline engine's CPU backend — the same code path the streaming
// engine dispatches shards to.
func RunHostDispatch(w *Workload, bankIdx int, workerCounts []int) ([]HostDispatchRow, error) {
	if bankIdx < 0 || bankIdx >= len(w.Banks) {
		return nil, fmt.Errorf("experiments: bank index %d out of range", bankIdx)
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	b := w.Banks[bankIdx]
	ixB, err := index.Build(b, w.Scale.SeedModel, w.Scale.N)
	if err != nil {
		return nil, err
	}
	ixG, err := index.Build(w.Frames, w.Scale.SeedModel, w.Scale.N)
	if err != nil {
		return nil, err
	}
	shard := &pipeline.Shard{ID: 0, Start: 0, End: b.Len(), Bank: b, Index: ixB}

	// Device side once: hits are worker-independent.
	psc := hwsim.DefaultPSC(matrix.BLOSUM62, ixB.SubLen(), w.Scale.Threshold)
	dev, err := hwsim.NewDevice(hwsim.DefaultDevice(psc))
	if err != nil {
		return nil, err
	}
	ref, err := (&pipeline.CPUBackend{
		Matrix: matrix.BLOSUM62, Threshold: w.Scale.Threshold, Workers: 1,
	}).Step2(context.Background(), shard, ixG)
	if err != nil {
		return nil, err
	}
	devRep, err := dev.EstimateStep2(ixB, ixG, len(ref.Hits))
	if err != nil {
		return nil, err
	}

	var rows []HostDispatchRow
	for _, workers := range workerCounts {
		cpu := &pipeline.CPUBackend{
			Matrix: matrix.BLOSUM62, Threshold: w.Scale.Threshold, Workers: workers,
		}
		out, err := cpu.Step2(context.Background(), shard, ixG)
		if err != nil {
			return nil, err
		}
		row := HostDispatchRow{
			Workers:   workers,
			HostSec:   out.Elapsed.Seconds(),
			DeviceSec: devRep.Seconds,
		}
		if devRep.Seconds > 0 {
			row.Ratio = row.HostSec / devRep.Seconds
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatHostDispatch renders the host-vs-FPGA dispatch table.
func FormatHostDispatch(rows []HostDispatchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Host dispatch (paper §5): multicore step 2 vs 192-PE accelerator\n")
	fmt.Fprintf(&b, "%8s %12s %12s %10s\n", "workers", "host (s)", "device (s)", "host/dev")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %12.3f %12.3f %10.2f\n",
			r.Workers, r.HostSec, r.DeviceSec, r.Ratio)
	}
	return b.String()
}

// OverlapRow compares the single-shard run (the whole bank as one
// shard, so the steps run strictly one after another — the batch
// schedule) against the streaming shard engine at one shard count: the
// overlap the paper's closing discussion points at, exploited rather
// than merely measured.
type OverlapRow struct {
	Shards    int
	ShardSize int
	BatchSec  float64
	StreamSec float64
	Gain      float64 // BatchSec / StreamSec (>1: overlap wins)
}

// scaleOptions builds single-threaded pipeline options matching the
// workload's scale, so batch and streamed runs move identical work.
func scaleOptions(w *Workload, extra ...core.Option) []core.Option {
	return append([]core.Option{
		core.WithSeed(w.Scale.SeedModel),
		core.WithNeighborhood(w.Scale.N),
		core.WithUngappedThreshold(w.Scale.Threshold),
		core.WithWorkers(1),
	}, extra...)
}

// search builds a Searcher from opts and drains one search.
func search(query, target core.Target, opts ...core.Option) ([]core.Match, *core.Summary, error) {
	s, err := core.NewSearcher(opts...)
	if err != nil {
		return nil, nil, err
	}
	res := s.Search(context.Background(), query, target)
	ms, err := res.Collect()
	if err != nil {
		return nil, nil, err
	}
	sum, err := res.Summary()
	return ms, sum, err
}

// RunOverlap measures the bank-vs-genome comparison as one shard (the
// batch baseline: core's TestSingleShardOrderIdentical pins that run
// element-for-element to the historical batch driver) and then
// streamed at each shard count (one shard in flight per stage, so the
// win is pure stage overlap, not intra-stage parallelism). Every run
// uses fresh targets, so each pays its own subject-index build.
func RunOverlap(w *Workload, bankIdx int, shardCounts []int) ([]OverlapRow, error) {
	if bankIdx < 0 || bankIdx >= len(w.Banks) {
		return nil, fmt.Errorf("experiments: bank index %d out of range", bankIdx)
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{2, 4}
	}
	for _, n := range shardCounts {
		if n <= 0 {
			return nil, fmt.Errorf("experiments: non-positive shard count %d", n)
		}
	}
	b := w.Banks[bankIdx]

	t0 := time.Now()
	_, batch, err := search(core.NewProteinTarget(b), core.NewProteinTarget(w.Frames), scaleOptions(w)...)
	if err != nil {
		return nil, err
	}
	batchSec := time.Since(t0).Seconds()

	var rows []OverlapRow
	for _, n := range shardCounts {
		size := (b.Len() + n - 1) / n
		t := time.Now()
		_, res, err := search(core.NewProteinTarget(b), core.NewProteinTarget(w.Frames),
			scaleOptions(w, core.WithPipeline(pipeline.Config{
				ShardSize:    size,
				InFlight:     2,
				Step2Workers: 1,
				Step3Workers: 1,
			}))...)
		if err != nil {
			return nil, err
		}
		streamSec := time.Since(t).Seconds()
		if res.Hits != batch.Hits || res.Pairs != batch.Pairs {
			return nil, fmt.Errorf("experiments: streamed run diverged (hits %d/%d, pairs %d/%d)",
				res.Hits, batch.Hits, res.Pairs, batch.Pairs)
		}
		row := OverlapRow{
			Shards:    res.Pipeline.Shards,
			ShardSize: size,
			BatchSec:  batchSec,
			StreamSec: streamSec,
		}
		if streamSec > 0 {
			row.Gain = batchSec / streamSec
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatOverlap renders the batch-vs-streaming table.
func FormatOverlap(rows []OverlapRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Streaming overlap: single-shard (batch) run vs shard engine (1 shard in flight per stage)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s %8s\n", "shards", "shard size", "batch (s)", "stream (s)", "gain")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %12d %12.3f %12.3f %8.2f\n",
			r.Shards, r.ShardSize, r.BatchSec, r.StreamSec, r.Gain)
	}
	return b.String()
}

// MultiDispatchResult reports how the MultiBackend split shards
// between the host CPU and the simulated accelerator — the dispatch
// question answered greedily by whichever resource frees up first.
type MultiDispatchResult struct {
	Shards  int
	WallSec float64
	Split   map[string]int // backend name -> shards processed
}

// RunMultiDispatch streams one bank through the EngineMulti fan-out.
func RunMultiDispatch(w *Workload, bankIdx, shards int) (*MultiDispatchResult, error) {
	if bankIdx < 0 || bankIdx >= len(w.Banks) {
		return nil, fmt.Errorf("experiments: bank index %d out of range", bankIdx)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("experiments: non-positive shard count %d", shards)
	}
	b := w.Banks[bankIdx]
	_, res, err := search(core.NewProteinTarget(b), core.NewProteinTarget(w.Frames),
		scaleOptions(w, core.WithEngine(core.EngineMulti), core.WithPipeline(pipeline.Config{
			ShardSize:    (b.Len() + shards - 1) / shards,
			InFlight:     2,
			Step2Workers: 2, // one in-flight shard per backend
			Step3Workers: 1,
		}))...)
	if err != nil {
		return nil, err
	}
	return &MultiDispatchResult{
		Shards:  res.Pipeline.Shards,
		WallSec: res.Pipeline.Wall.Seconds(),
		Split:   res.Pipeline.ShardsByBackend,
	}, nil
}

// FormatMultiDispatch renders the fan-out split.
func FormatMultiDispatch(r *MultiDispatchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-backend dispatch: %d shards in %.3fs wall\n", r.Shards, r.WallSec)
	for _, name := range slices.Sorted(maps.Keys(r.Split)) {
		fmt.Fprintf(&b, "%10s: %d shards\n", name, r.Split[name])
	}
	return b.String()
}

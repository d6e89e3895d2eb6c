package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/gapped"
	"seedblast/internal/pipeline"
	"seedblast/internal/stats"
)

// LocalConfig tunes the in-process scatter-gather.
type LocalConfig struct {
	// Partitioner cuts the subject bank into volumes. Nil means
	// SizeBalanced.
	Partitioner Partitioner
	// Volumes is how many volumes to cut. Zero means GOMAXPROCS
	// (capped at the subject sequence count by the partitioner).
	Volumes int
	// Parallel bounds how many volumes are compared at once. Zero
	// means all of them.
	Parallel int
}

// Local runs the cluster's scatter-gather inside one process: the
// subject bank is partitioned exactly like the distributed
// coordinator's, but each volume is searched by one shared
// core.Searcher instead of a remote worker — the single-binary
// multi-socket deployment, and the reference
// implementation the HTTP path is equivalence-tested against. A Local
// is safe for concurrent use.
type Local struct {
	cfg LocalConfig
}

// NewLocal returns an in-process scatter-gather runner.
func NewLocal(cfg LocalConfig) *Local {
	if cfg.Partitioner == nil {
		cfg.Partitioner = SizeBalanced{}
	}
	if cfg.Volumes <= 0 {
		cfg.Volumes = runtime.GOMAXPROCS(0)
	}
	return &Local{cfg: cfg}
}

// LocalResult is the merged outcome of an in-process scatter-gather
// run.
type LocalResult struct {
	// Alignments are globally numbered and ranked exactly as a
	// single-node search over the unpartitioned bank.
	Alignments []gapped.Alignment
	Hits       int
	Pairs      int64
	GappedWork gapped.Stats

	// Volumes is the partition used; PerVolume[i] is volume i's engine
	// accounting (its skew across volumes is the load-balance signal),
	// and Metrics merges them (aggregate work, not elapsed time).
	Volumes   []Volume
	PerVolume []pipeline.Metrics
	Metrics   pipeline.Metrics
}

// Compare partitions the subject bank and searches every volume with
// one Searcher built from opts plus the full bank's search-space
// geometry, then merges.
func (l *Local) Compare(pctx context.Context, query, subject *bank.Bank, opts ...core.Option) (*LocalResult, error) {
	if query == nil || subject == nil {
		return nil, fmt.Errorf("cluster: Compare needs both banks")
	}
	lens := make([]int, subject.Len())
	for i := range lens {
		lens[i] = len(subject.Seq(i))
	}
	vols := l.cfg.Partitioner.Partition(lens, l.cfg.Volumes)
	if err := checkPartition(lens, vols); err != nil {
		return nil, fmt.Errorf("%w (partitioner %q)", err, l.cfg.Partitioner.Name())
	}
	// Appended last so the full-bank geometry wins over any caller value;
	// the full slice expression keeps append off the caller's array.
	searcher, err := core.NewSearcher(append(opts[:len(opts):len(opts)],
		core.WithSearchSpace(stats.SearchSpace{DBLen: subject.TotalResidues(), DBSeqs: subject.Len()}))...)
	if err != nil {
		return nil, err
	}
	qt := core.NewProteinTarget(query)

	parallel := l.cfg.Parallel
	if parallel <= 0 || parallel > len(vols) {
		parallel = len(vols)
	}

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
		cancel()
	}

	aligns := make([][]gapped.Alignment, len(vols))
	sums := make([]*core.Summary, len(vols))
	sem := make(chan struct{}, parallel)
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
			sub := bank.New(fmt.Sprintf("%s/vol%d", subject.Name(), vi))
			for _, gi := range vols[vi].Seqs {
				sub.Add(subject.ID(gi), subject.Seq(gi))
			}
			res := searcher.Search(ctx, qt, core.NewProteinTarget(sub))
			ms, err := res.Collect()
			if err == nil {
				sums[vi], err = res.Summary()
			}
			if err != nil {
				fail(fmt.Errorf("cluster: volume %d: %w", vi, err))
				return
			}
			aligns[vi] = make([]gapped.Alignment, len(ms))
			for i := range ms {
				aligns[vi][i] = ms[i].Alignment
			}
		}(vi)
	}
	wg.Wait()
	if perr := pctx.Err(); perr != nil {
		return nil, perr
	}
	if firstErr != nil {
		return nil, firstErr
	}

	out := &LocalResult{Volumes: vols, PerVolume: make([]pipeline.Metrics, len(vols))}
	for vi, res := range sums {
		out.Hits += res.Hits
		out.Pairs += res.Pairs
		out.GappedWork.Hits += res.GappedWork.Hits
		out.GappedWork.Contained += res.GappedWork.Contained
		out.GappedWork.PreFiltered += res.GappedWork.PreFiltered
		out.GappedWork.Extended += res.GappedWork.Extended
		out.GappedWork.DPRows += res.GappedWork.DPRows
		out.GappedWork.DPCells += res.GappedWork.DPCells
		out.PerVolume[vi] = res.Pipeline
		out.Metrics.Merge(&res.Pipeline)
	}
	out.Alignments = MergeAlignments(vols, aligns)
	return out, nil
}

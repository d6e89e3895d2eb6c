package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/gapped"
	"seedblast/internal/stats"
)

// testOptions is the option set the in-process tests run: one worker,
// E ≤ 10.
func testOptions() []core.Option {
	return []core.Option{core.WithWorkers(1), core.WithMaxEValue(10)}
}

// singleNode is the reference: one Searcher over the unpartitioned
// bank, alignments and summary.
func singleNode(t *testing.T, b0, b1 *bank.Bank) ([]gapped.Alignment, *core.Summary) {
	t.Helper()
	s, err := core.NewSearcher(testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Search(context.Background(), core.NewProteinTarget(b0), core.NewProteinTarget(b1))
	ms, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := res.Summary()
	if err != nil {
		t.Fatal(err)
	}
	var as []gapped.Alignment
	for i := range ms {
		as = append(as, ms[i].Alignment)
	}
	return as, sum
}

// scatterLocal is the coordinator's scatter-gather without the wire:
// the subject bank is cut into volumes by p, each volume is searched
// in process against the full bank's search space, and the per-volume
// alignments are mapped back to global subject numbers and re-ranked
// under the engine's (Seq0, EValue, Seq1) order. It returns the merged
// alignments and every volume's summary.
func scatterLocal(t *testing.T, p Partitioner, volumes int, b0, b1 *bank.Bank) ([]gapped.Alignment, []*core.Summary) {
	t.Helper()
	lens := make([]int, b1.Len())
	for i := range lens {
		lens[i] = len(b1.Seq(i))
	}
	vols := p.Partition(lens, volumes)
	if err := checkPartition(lens, vols); err != nil {
		t.Fatalf("partitioner %q: %v", p.Name(), err)
	}
	s, err := core.NewSearcher(append(testOptions(),
		core.WithSearchSpace(stats.SearchSpace{DBLen: b1.TotalResidues(), DBSeqs: b1.Len()}))...)
	if err != nil {
		t.Fatal(err)
	}
	qt := core.NewProteinTarget(b0)
	var out []gapped.Alignment
	sums := make([]*core.Summary, len(vols))
	for vi, v := range vols {
		sub := bank.New(fmt.Sprintf("%s/vol%d", b1.Name(), vi))
		for _, gi := range v.Seqs {
			sub.Add(b1.ID(gi), b1.Seq(gi))
		}
		res := s.Search(context.Background(), qt, core.NewProteinTarget(sub))
		ms, err := res.Collect()
		if err != nil {
			t.Fatalf("volume %d: %v", vi, err)
		}
		if sums[vi], err = res.Summary(); err != nil {
			t.Fatalf("volume %d: %v", vi, err)
		}
		for _, m := range ms {
			a := m.Alignment
			a.Seq1 = v.Seqs[a.Seq1]
			out = append(out, a)
		}
	}
	// Equal keys can only come from the same pair, hence the same
	// volume, so the stable sort keeps that volume's own order.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Seq0 != b.Seq0 {
			return a.Seq0 < b.Seq0
		}
		if a.EValue != b.EValue {
			return a.EValue < b.EValue
		}
		return a.Seq1 < b.Seq1
	})
	return out, sums
}

// TestLocalEquivalence: partitioning the subject bank, searching every
// volume against the full bank's search space and re-ranking must give
// alignments, E-values and ranking bit-identical to a single search
// over the unpartitioned bank, with the same hits, pairs and gapped
// work — for both partitioning strategies and several volume counts.
// This is the engine-side property the coordinator's wire merge
// (TestCoordinatorEquivalence) relies on.
func TestLocalEquivalence(t *testing.T) {
	b0, b1 := testWorkload(t, 10, 41)
	wantAligns, want := singleNode(t, b0, b1)
	if len(wantAligns) == 0 {
		t.Fatal("workload produced no alignments; the equivalence test would be vacuous")
	}

	for _, p := range partitioners() {
		for _, volumes := range []int{2, 3, 5, 7} {
			t.Run(fmt.Sprintf("%s/%dvol", p.Name(), volumes), func(t *testing.T) {
				got, sums := scatterLocal(t, p, volumes, b0, b1)
				if !reflect.DeepEqual(got, wantAligns) {
					t.Fatalf("merged alignments differ from single-node run:\n got %d: %+v\nwant %d: %+v",
						len(got), head(got), len(wantAligns), head(wantAligns))
				}
				var (
					hits  int
					pairs int64
					work  gapped.Stats
				)
				for vi, s := range sums {
					hits += s.Hits
					pairs += s.Pairs
					work.Hits += s.GappedWork.Hits
					work.Contained += s.GappedWork.Contained
					work.PreFiltered += s.GappedWork.PreFiltered
					work.Extended += s.GappedWork.Extended
					work.DPRows += s.GappedWork.DPRows
					work.DPCells += s.GappedWork.DPCells
					if s.Pipeline.Shards == 0 {
						t.Errorf("volume %d ran no shards", vi)
					}
				}
				if hits != want.Hits || pairs != want.Pairs {
					t.Errorf("hits/pairs differ: got %d/%d, want %d/%d", hits, pairs, want.Hits, want.Pairs)
				}
				if work != want.GappedWork {
					t.Errorf("gapped work differs: got %+v, want %+v", work, want.GappedWork)
				}
			})
		}
	}
}

func head(as []gapped.Alignment) []gapped.Alignment {
	if len(as) > 4 {
		return as[:4]
	}
	return as
}

package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/gapped"
)

// testWorkload returns a query bank and a subject bank holding mutated
// copies of the queries plus unrelated decoys, so the pipeline finds
// real alignments against a length-diverse bank.
func testWorkload(t testing.TB, n int, seed int64) (*bank.Bank, *bank.Bank) {
	t.Helper()
	b0 := bank.GenerateProteins(bank.ProteinConfig{N: n, MeanLen: 100, LenJitter: 40, Seed: seed})
	rng := bank.NewRNG(seed + 1000)
	decoys := bank.GenerateProteins(bank.ProteinConfig{N: n, MeanLen: 140, LenJitter: 60, Seed: seed + 2000})
	b1 := bank.New("subjects")
	for i := 0; i < b0.Len(); i++ {
		b1.Add(fmt.Sprintf("s%d", 2*i), bank.MutateProtein(rng, b0.Seq(i), 0.15))
		b1.Add(fmt.Sprintf("s%d", 2*i+1), decoys.Seq(i))
	}
	return b0, b1
}

// testOptions is the option set every Local test runs: one worker,
// E ≤ 10, then any extra options.
func testOptions(extra ...core.Option) []core.Option {
	return append([]core.Option{core.WithWorkers(1), core.WithMaxEValue(10)}, extra...)
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

// TestLocalEquivalence is the subsystem's acceptance criterion: the
// merged scatter-gather output — alignments, E-values, and ranking —
// must be bit-identical to a single-node search over the
// unpartitioned bank, for multiple partitioning strategies and volume
// counts.
func TestLocalEquivalence(t *testing.T) {
	b0, b1 := testWorkload(t, 10, 41)
	wantAligns, want := singleNode(t, b0, b1)
	if len(wantAligns) == 0 {
		t.Fatal("workload produced no alignments; the equivalence test would be vacuous")
	}

	for _, p := range partitioners() {
		for _, volumes := range []int{2, 3, 5, 7} {
			t.Run(fmt.Sprintf("%s/%dvol", p.Name(), volumes), func(t *testing.T) {
				l := NewLocal(LocalConfig{Partitioner: p, Volumes: volumes})
				got, err := l.Compare(context.Background(), b0, b1, testOptions()...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Alignments, wantAligns) {
					t.Fatalf("merged alignments differ from single-node run:\n got %d: %+v\nwant %d: %+v",
						len(got.Alignments), head(got.Alignments), len(wantAligns), head(wantAligns))
				}
				if got.Hits != want.Hits || got.Pairs != want.Pairs {
					t.Errorf("hits/pairs differ: got %d/%d, want %d/%d", got.Hits, got.Pairs, want.Hits, want.Pairs)
				}
				if got.GappedWork != want.GappedWork {
					t.Errorf("gapped work differs: got %+v, want %+v", got.GappedWork, want.GappedWork)
				}
				if len(got.Volumes) != len(got.PerVolume) {
					t.Fatalf("%d volumes but %d per-volume metrics", len(got.Volumes), len(got.PerVolume))
				}
				shards := 0
				for _, pm := range got.PerVolume {
					shards += pm.Shards
				}
				if shards != got.Metrics.Shards || shards == 0 {
					t.Errorf("merged metrics shards %d, per-volume sum %d", got.Metrics.Shards, shards)
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

func TestLocalCancellation(t *testing.T) {
	b0, b1 := testWorkload(t, 12, 43)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every volume must abort promptly
	l := NewLocal(LocalConfig{Volumes: 4})
	start := time.Now()
	_, err := l.Compare(ctx, b0, b1, testOptions()...)
	if err == nil {
		t.Fatal("cancelled Compare returned no error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancelled Compare took %v", time.Since(start))
	}
}

package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/pipeline"
)

// openWorkload builds a query bank, a related subject bank (mutated
// copies of the queries plus background noise, so the search actually
// finds alignments), and the subject's seeddb file.
func openWorkload(t testing.TB, nSubjects int) (*bank.Bank, *bank.Bank, string) {
	t.Helper()
	rng := bank.NewRNG(77)
	query := bank.GenerateProteins(bank.ProteinConfig{N: 8, MeanLen: 150, Seed: 11})
	subject := bank.New("subjects")
	for i := 0; i < nSubjects; i++ {
		var seq []byte
		if i < query.Len() {
			seq = bank.MutateProtein(rng, query.Seq(i), 0.2)
		} else {
			seq = bank.RandomProtein(rng, 120)
		}
		subject.Add(fmt.Sprintf("s%03d", i), seq)
	}

	opt := DefaultOptions()
	ix, err := index.BuildParallel(subject, opt.Seed, opt.N, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "subject.seeddb")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return query, subject, path
}

// TestOpenTargetSearchEquivalent is the acceptance gate for the disk
// path: a Search over a seeddb-loaded target must be bit-identical —
// values and order — to the same Search over an in-memory bank with a
// freshly built index, on every engine and with sharding enabled.
func TestOpenTargetSearchEquivalent(t *testing.T) {
	query, subject, path := openWorkload(t, 24)

	type cfg struct {
		name string
		opts []Option
	}
	cfgs := []cfg{
		{"cpu", []Option{WithEngine(EngineCPU)}},
		{"rasc", []Option{WithEngine(EngineRASC)}},
		{"cpu-sharded", []Option{
			WithEngine(EngineCPU),
			WithPipeline(pipeline.Config{ShardSize: 3}),
		}},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSearcher(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := s.Search(context.Background(), NewProteinTarget(query), NewProteinTarget(subject)).Collect()
			if err != nil {
				t.Fatal(err)
			}
			if len(ref) == 0 {
				t.Fatal("degenerate workload: no matches")
			}

			tgt, err := OpenTarget(path)
			if err != nil {
				t.Fatal(err)
			}
			defer tgt.Close()
			got, err := s.Search(context.Background(), NewProteinTarget(query), tgt).Collect()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("disk-loaded search diverged: %d vs %d matches", len(got), len(ref))
			}
		})
	}
}

// TestOpenTargetSkipsIndexBuild pins the point of the disk path: a
// search over an opened target reports (almost) no index-build time,
// because the adopted index satisfies the (seed, N) lookup.
func TestOpenTargetSkipsIndexBuild(t *testing.T) {
	query, _, path := openWorkload(t, 24)
	tgt, err := OpenTarget(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	if tgt.cached(DefaultOptions().Seed, DefaultOptions().N) == nil {
		t.Fatal("opened target has no cached index under the default (seed, N)")
	}
	s, err := NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	res := s.Search(context.Background(), NewProteinTarget(query), tgt)
	if _, err := res.Collect(); err != nil {
		t.Fatal(err)
	}
	sum, err := res.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs == 0 {
		t.Error("search on the opened index scored no pairs")
	}
}

// TestOpenTargetOtherSeedStillBuilds pins the fallback: a searcher
// with a different N than the stored index builds its own index from
// the loaded bank instead of failing or serving the wrong windows.
func TestOpenTargetOtherSeedStillBuilds(t *testing.T) {
	query, subject, path := openWorkload(t, 12)
	tgt, err := OpenTarget(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	s, err := NewSearcher(WithNeighborhood(10))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Search(context.Background(), NewProteinTarget(query), tgt).Collect()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Search(context.Background(), NewProteinTarget(query), NewProteinTarget(subject)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("N=10 search over an N=14 seeddb target diverged from the in-memory run")
	}
}

func TestOpenTargetErrors(t *testing.T) {
	if _, err := OpenTarget(filepath.Join(t.TempDir(), "missing.seeddb")); err == nil {
		t.Error("OpenTarget accepted a missing file")
	}
	junk := filepath.Join(t.TempDir(), "junk.seeddb")
	if err := os.WriteFile(junk, []byte("definitely not a seeddb file, long enough to pass size checks"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTarget(junk); err == nil {
		t.Error("OpenTarget accepted a non-seeddb file")
	}
}

// coldStartBank is the benchmark workload: big enough that step-1
// rebuild cost dominates any fixed overhead.
func coldStartBank() *bank.Bank {
	return bank.GenerateProteins(bank.ProteinConfig{N: 600, MeanLen: 350, Seed: 3})
}

// TestColdStartLoadBeatsRebuild asserts the direction of the tentpole
// claim without benchmark-grade precision: opening the seeddb must be
// faster than rebuilding the index (the benchmark below quantifies the
// gap, ≥5× on this workload).
func TestColdStartLoadBeatsRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-start timing in -short mode")
	}
	b := coldStartBank()
	opt := DefaultOptions()
	ix, err := index.BuildParallel(b, opt.Seed, opt.N, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cold.seeddb")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// Warm the page cache so the comparison is compute vs compute, not
	// compute vs disk spin-up.
	if tgt, err := OpenTarget(path); err != nil {
		t.Fatal(err)
	} else {
		tgt.Close()
	}

	t0 := time.Now()
	tgt, err := OpenTarget(path)
	if err != nil {
		t.Fatal(err)
	}
	load := time.Since(t0)
	tgt.Close()

	t1 := time.Now()
	if _, err := index.BuildParallel(b, opt.Seed, opt.N, 0); err != nil {
		t.Fatal(err)
	}
	build := time.Since(t1)

	if load*2 > build {
		t.Errorf("cold start: load %v not clearly faster than rebuild %v", load, build)
	}
	t.Logf("cold start: load %v vs rebuild %v (%.1fx)", load, build, float64(build)/float64(load))
}

// BenchmarkColdStartLoadVsBuild quantifies the tentpole: cold-start a
// subject target from its seeddb versus rebuilding the index from the
// bank. Run with -benchtime and compare Load vs Build ns/op; the
// acceptance bar is Load at least 5× faster on this bank.
func BenchmarkColdStartLoadVsBuild(b *testing.B) {
	bk := coldStartBank()
	opt := DefaultOptions()
	ix, err := index.BuildParallel(bk, opt.Seed, opt.N, 0)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "seeddb-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.seeddb")
	if err := ix.WriteFile(path); err != nil {
		b.Fatal(err)
	}

	b.Run("Load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tgt, err := OpenTarget(path)
			if err != nil {
				b.Fatal(err)
			}
			tgt.Close()
		}
	})
	b.Run("Build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := index.BuildParallel(bk, opt.Seed, opt.N, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package index

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/seed"
)

// oracleIndex is step 1 written from its definition, sharing no code
// with build: every (key, seq, off) triple of the bank stably sorted
// by key, and each entry's window read one position at a time.
func oracleIndex(b *bank.Bank, model seed.Model, n int) *Index {
	type triple struct {
		key uint32
		e   Entry
	}
	w := model.Width()
	var ts []triple
	for s := 0; s < b.Len(); s++ {
		seq := b.Seq(s)
		for off := 0; off+w <= len(seq); off++ {
			if key, ok := model.Key(seq[off : off+w]); ok {
				ts = append(ts, triple{key, Entry{Seq: uint32(s), Off: uint32(off)}})
			}
		}
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].key < ts[j].key })

	ix := &Index{bank: b, model: model, n: n, subLen: w + 2*n, bucketStart: make([]uint32, model.KeySpace()+1)}
	for i, t := range ts {
		if i == 0 || ts[i-1].key != t.key {
			ix.keys = append(ix.keys, t.key)
		}
		ix.bucketStart[t.key+1]++
		ix.entries = append(ix.entries, t.e)
		seq := b.Seq(int(t.e.Seq))
		for j := 0; j < ix.subLen; j++ {
			c := alphabet.Xaa
			if p := int(t.e.Off) - n + j; p >= 0 && p < len(seq) {
				c = seq[p]
			}
			ix.neighborhoods = append(ix.neighborhoods, c)
		}
	}
	for k := 1; k < len(ix.bucketStart); k++ {
		ix.bucketStart[k] += ix.bucketStart[k-1]
	}
	return ix
}

// checkSameIndex fails unless got and want agree on every field a
// build sets.
func checkSameIndex(t *testing.T, name string, got, want *Index) {
	t.Helper()
	switch {
	case got.bank != want.bank || got.model != want.model || got.n != want.n || got.subLen != want.subLen:
		t.Fatalf("%s: bank, model, N or SubLen differ", name)
	case !slices.Equal(got.bucketStart, want.bucketStart):
		t.Fatalf("%s: bucketStart differs", name)
	case !slices.Equal(got.keys, want.keys):
		t.Fatalf("%s: %d occupied keys, want %d", name, len(got.keys), len(want.keys))
	case !slices.Equal(got.entries, want.entries):
		t.Fatalf("%s: %d entries differ from the oracle's %d", name, len(got.entries), len(want.entries))
	case !bytes.Equal(got.neighborhoods, want.neighborhoods):
		t.Fatalf("%s: neighbourhood storage differs", name)
	}
}

// edgeBank holds sequences of every awkward length — empty, shorter
// than W, exactly W, shorter than W+2N for each N tested, long —
// with ambiguous residues on their first and last positions, inside
// them, or nowhere, until it reaches residues residues.
func edgeBank(name string, seed int64, residues int) *bank.Bank {
	rng := bank.NewRNG(seed)
	lengths := []int{0, 1, 3, 4, 5, 7, 11, 31, 32, 33, 90, 150, 240}
	b := bank.New(name)
	for i := 0; b.TotalResidues() < residues || i < len(lengths); i++ {
		seq := bank.RandomProtein(rng, lengths[i%len(lengths)])
		if len(seq) > 0 {
			switch i % 4 {
			case 0:
				seq[0] = alphabet.Xaa
			case 1:
				seq[len(seq)-1] = alphabet.Asx
			case 2:
				seq[0], seq[len(seq)-1], seq[len(seq)/2] = alphabet.Glx, alphabet.Xaa, alphabet.Xaa
			}
		}
		b.Add(fmt.Sprintf("%s%d", name, i), seq)
	}
	return b
}

// TestBuildMatchesOracle checks Build and BuildParallel at every worker
// count against oracleIndex, on banks on both sides of
// parallelBuildMinResidues and one with fewer sequences than workers.
// Below the threshold it also runs the passes themselves on those
// workers, where BuildParallel would use one.
func TestBuildMatchesOracle(t *testing.T) {
	small := edgeBank("small", 5, parallelBuildMinResidues/3)
	large := edgeBank("large", 6, parallelBuildMinResidues+parallelBuildMinResidues/4)
	if small.TotalResidues() >= parallelBuildMinResidues || large.TotalResidues() < parallelBuildMinResidues {
		t.Fatal("banks on the wrong side of the serial fallback")
	}
	banks := []*bank.Bank{small, large, edgeBank("tiny", 7, 0), bank.New("empty")}
	for _, model := range []seed.Model{seed.Default(), seed.Exact(3)} {
		for _, b := range banks {
			for _, n := range []int{0, 1, 6, 14} {
				want := oracleIndex(b, model, n)
				name := fmt.Sprintf("%s/W=%d/N=%d", b.Name(), model.Width(), n)
				ix, err := Build(b, model, n)
				if err != nil {
					t.Fatal(err)
				}
				checkSameIndex(t, name+"/Build", ix, want)
				if cap(ix.keys) != len(ix.keys) {
					t.Fatalf("%s/Build: room for %d occupied keys, holds %d", name, cap(ix.keys), len(ix.keys))
				}
				for _, workers := range []int{1, 2, 3, 5, 8, 32} {
					if ix, err = BuildParallel(b, model, n, workers); err != nil {
						t.Fatal(err)
					}
					checkSameIndex(t, fmt.Sprintf("%s/BuildParallel(%d)", name, workers), ix, want)
					if b.TotalResidues() >= parallelBuildMinResidues {
						continue // BuildParallel ran these workers
					}
					if ix, err = build(b, model, n, max(1, min(workers, b.Len()))); err != nil {
						t.Fatal(err)
					}
					checkSameIndex(t, fmt.Sprintf("%s/build(%d)", name, workers), ix, want)
				}
			}
		}
	}
}

// BenchmarkBuild times step 1 at one and two workers on the bench
// workloads' banks with the default seed model and N = 14: the
// scan_cpu subjects (2000 × 600 aa), the homolog_full subjects (5000
// homologs of 16 queries of 90..150 aa), the scan_cpu queries
// (64 × 200 aa) and the serve_hot queries (4 × 105..135 aa), which
// every search of that workload builds. It runs the passes directly,
// so the query banks are built on two workers too, where
// BuildParallel would use one.
func BenchmarkBuild(b *testing.B) {
	rng := bank.NewRNG(3)
	scan, queries, homolog := bank.New("scan_subjects"), bank.New("scan_queries"), bank.New("homolog_subjects")
	serve := bank.New("serve_queries")
	for i := range 4 {
		serve.Add("q", bank.RandomProtein(rng, 105+10*i))
	}
	for range 2000 {
		scan.Add("s", bank.RandomProtein(rng, 600))
	}
	for range 64 {
		queries.Add("q", bank.RandomProtein(rng, 200))
	}
	homologQueries := make([][]byte, 16)
	for i := range homologQueries {
		homologQueries[i] = bank.RandomProtein(rng, 90+4*i)
	}
	for i := range 5000 {
		homolog.Add("h", bank.MutateProtein(rng, homologQueries[i%16], 0.1+0.1*float64((i/16)%5)))
	}
	for _, bk := range []*bank.Bank{scan, homolog, queries, serve} {
		benchBuild(b, bk.Name(), bk)
	}
}

// BenchmarkBuildCrossover places parallelBuildMinResidues: banks of
// 120 aa sequences from 8 000 to 64 000 residues at one and two
// workers.
func BenchmarkBuildCrossover(b *testing.B) {
	for _, residues := range []int{8_000, 16_000, 24_000, 32_000, 40_000, 48_000, 64_000} {
		rng := bank.NewRNG(int64(residues))
		bk := bank.New("crossover")
		for bk.TotalResidues() < residues {
			bk.Add("c", bank.RandomProtein(rng, 120))
		}
		benchBuild(b, fmt.Sprintf("residues=%d", residues), bk)
	}
}

func benchBuild(b *testing.B, name string, bk *bank.Bank) {
	model := seed.Default()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := build(bk, model, 14, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

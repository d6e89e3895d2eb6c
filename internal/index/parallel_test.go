package index

import (
	"slices"
	"testing"

	"seedblast/internal/bank"
	"seedblast/internal/seed"
)

func TestBuildParallelBitIdentical(t *testing.T) {
	// 17 sequences build at one worker; 17·23 take the parallel path.
	for _, nseq := range []int{17, 17 * 23} { // odd counts: uneven worker ranges
		rng := bank.NewRNG(71)
		b := bank.New("p")
		for i := 0; i < nseq; i++ {
			b.Add(string(rune('a'+i%26)), bank.RandomProtein(rng, 80+i%17*7))
		}
		if (b.TotalResidues() >= parallelBuildMinResidues) != (nseq > 17) {
			t.Fatalf("%d sequences, %d residues: wrong side of the serial fallback", nseq, b.TotalResidues())
		}
		checkBuildParallelBitIdentical(t, b)
	}
}

func checkBuildParallelBitIdentical(t *testing.T, b *bank.Bank) {
	t.Helper()
	model := seed.Default()
	ref, err := Build(b, model, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 5, 8, 32} {
		par, err := BuildParallel(b, model, 6, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.NumEntries() != ref.NumEntries() {
			t.Fatalf("workers=%d: %d entries, want %d",
				workers, par.NumEntries(), ref.NumEntries())
		}
		for i := range ref.entries {
			if par.entries[i] != ref.entries[i] {
				t.Fatalf("workers=%d: entry %d = %+v, want %+v",
					workers, i, par.entries[i], ref.entries[i])
			}
		}
		if string(par.neighborhoods) != string(ref.neighborhoods) {
			t.Fatalf("workers=%d: neighbourhood storage differs", workers)
		}
		for k := 0; k <= model.KeySpace(); k++ {
			if par.bucketStart[k] != ref.bucketStart[k] {
				t.Fatalf("workers=%d: bucketStart[%d] differs", workers, k)
			}
		}
		if !slices.Equal(par.keys, ref.keys) {
			t.Fatalf("workers=%d: occupied keys differ", workers)
		}
	}
}

func TestBuildParallelEmptyBank(t *testing.T) {
	b := bank.New("empty")
	ix, err := BuildParallel(b, seed.Exact(3), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumEntries() != 0 {
		t.Error("entries from empty bank")
	}
}

func TestBuildParallelRejectsNegativeN(t *testing.T) {
	b := bank.New("b")
	if _, err := BuildParallel(b, seed.Exact(2), -1, 2); err == nil {
		t.Error("negative N accepted")
	}
}

package ungapped

import (
	"fmt"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/seed"
)

// PairCount is the number of neighbourhood scorings step 2 must
// perform for the two indexes — Σk |IL0k|·|IL1k| — counted without
// running them: the reference Result.Pairs is checked against.
func PairCount(ix0, ix1 *index.Index) int64 {
	var n int64
	for _, k := range ix0.Keys() {
		n += int64(ix0.BucketLen(k)) * int64(ix1.BucketLen(k))
	}
	return n
}

// keySpaceOracle is step 2 as it was before Run walked occupied keys:
// every key of the model, both bucket lengths probed, the scalar
// reference loop inside. It is kept here, not shipped, as the
// reference Run's occupied-key walk must reproduce.
func keySpaceOracle(ix0, ix1 *index.Index, cfg Config) *Result {
	res := &Result{}
	subLen := ix0.SubLen()
	for k := uint32(0); k < uint32(ix0.Model().KeySpace()); k++ {
		if ix0.BucketLen(k) == 0 || ix1.BucketLen(k) == 0 {
			continue
		}
		il0, hood0 := ix0.Bucket(k)
		il1, hood1 := ix1.Bucket(k)
		res.Pairs += int64(len(il0)) * int64(len(il1))
		for i := range il0 {
			w0 := hood0[i*subLen : (i+1)*subLen]
			for j := range il1 {
				score := align.WindowScore(w0, hood1[j*subLen:(j+1)*subLen], cfg.Matrix)
				if score >= cfg.Threshold {
					res.Hits = append(res.Hits, Hit{il0[i], il1[j]})
				}
			}
		}
	}
	return res
}

// oracleBanks returns the three bank shapes the oracle test covers:
// random against random, queries against mutated homologs (most pairs
// pass), and a single query (few occupied keys, fewer than workers on
// some ranges).
func oracleBanks() map[string][2]*bank.Bank {
	rng := bank.NewRNG(91)
	random0, random1 := bank.New("r0"), bank.New("r1")
	for i := 0; i < 10; i++ {
		random0.Add(fmt.Sprintf("q%d", i), bank.RandomProtein(rng, 180))
		random1.Add(fmt.Sprintf("s%d", i), bank.RandomProtein(rng, 240))
	}
	homolog0, homolog1 := bank.New("h0"), bank.New("h1")
	for i := 0; i < 6; i++ {
		homolog0.Add(fmt.Sprintf("q%d", i), bank.RandomProtein(rng, 150))
	}
	for i := 0; i < 24; i++ {
		homolog1.Add(fmt.Sprintf("s%d", i), bank.MutateProtein(rng, homolog0.Seq(i%6), 0.15))
	}
	one := bank.New("one")
	one.Add("q", homolog0.Seq(2)[:40])
	return map[string][2]*bank.Bank{
		"random":  {random0, random1},
		"homolog": {homolog0, homolog1},
		"one":     {one, homolog1},
	}
}

// TestRunMatchesKeySpaceOracle pins the occupied-key walk to the full
// key-space loop it replaced: identical Hits, in order, and Pairs, for
// every bank shape, worker count and kernel.
func TestRunMatchesKeySpaceOracle(t *testing.T) {
	model := seed.Default()
	for name, banks := range oracleBanks() {
		ix0, err := index.Build(banks[0], model, 8)
		if err != nil {
			t.Fatal(err)
		}
		ix1, err := index.Build(banks[1], model, 8)
		if err != nil {
			t.Fatal(err)
		}
		ref := keySpaceOracle(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 18})
		if len(ref.Hits) == 0 {
			t.Fatalf("%s: no hits; test is vacuous", name)
		}
		if got := PairCount(ix0, ix1); got != ref.Pairs {
			t.Fatalf("%s: PairCount %d, want %d", name, got, ref.Pairs)
		}
		for _, kernel := range []Kernel{KernelScalar, KernelBlocked} {
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 18, Workers: workers, Kernel: kernel})
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, ref, got, fmt.Sprintf("%s/%v/workers=%d", name, kernel, workers))
			}
		}
	}
}

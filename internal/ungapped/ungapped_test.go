package ungapped

import (
	"fmt"
	"testing"
	"unsafe"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/seed"
)

func buildPair(t *testing.T, seqs0, seqs1 []string, n int) (*index.Index, *index.Index) {
	t.Helper()
	b0 := bank.New("b0")
	for i, s := range seqs0 {
		b0.Add(string(rune('a'+i)), alphabet.MustEncodeProtein(s))
	}
	b1 := bank.New("b1")
	for i, s := range seqs1 {
		b1.Add(string(rune('A'+i)), alphabet.MustEncodeProtein(s))
	}
	model := seed.Exact(3)
	ix0, err := index.Build(b0, model, n)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, model, n)
	if err != nil {
		t.Fatal(err)
	}
	return ix0, ix1
}

func TestRunFindsPlantedSimilarity(t *testing.T) {
	// Identical 12-mer shared between the banks must produce hits.
	common := "WCWHMWYWFWCW" // rare residues: no background collisions
	ix0, ix1 := buildPair(t,
		[]string{"AAAA" + common + "GGGG"},
		[]string{"KKKKKK" + common + "SSSS"},
		4)
	res, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits for planted identity")
	}
	subLen := ix0.SubLen()
	for _, h := range res.Hits {
		if score := align.WindowScore(windowOf(ix0, h.E0, subLen), windowOf(ix1, h.E1, subLen), matrix.BLOSUM62); score < 30 {
			t.Errorf("hit below threshold: %+v scores %d", h, score)
		}
	}
}

func TestRunNoHitsBelowThreshold(t *testing.T) {
	ix0, ix1 := buildPair(t,
		[]string{"ARNDARNDARND"},
		[]string{"ARNDARNDARND"},
		2)
	// Absurdly high threshold: everything filtered, pairs still counted.
	res, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Errorf("hits above impossible threshold: %d", len(res.Hits))
	}
	if res.Pairs == 0 {
		t.Error("pair count should be non-zero for identical banks")
	}
}

func TestRunPairsMatchesPairCount(t *testing.T) {
	ix0, ix1 := buildPair(t,
		[]string{"ARNDCQEGHILKARNDCQ", "MKVLILACMKVLILAC"},
		[]string{"ARNDCQEGHILK", "MKVLILACWWWW", "DDDDDDDD"},
		3)
	res, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != PairCount(ix0, ix1) {
		t.Errorf("Pairs = %d, PairCount = %d", res.Pairs, PairCount(ix0, ix1))
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := bank.NewRNG(99)
	b0 := bank.New("r0")
	b1 := bank.New("r1")
	for i := 0; i < 8; i++ {
		b0.Add(string(rune('a'+i)), bank.RandomProtein(rng, 150))
		b1.Add(string(rune('A'+i)), bank.RandomProtein(rng, 150))
	}
	model := seed.Default()
	ix0, _ := index.Build(b0, model, 6)
	ix1, _ := index.Build(b1, model, 6)

	var ref *Result
	for _, workers := range []int{1, 2, 3, 7, 16} {
		res, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 18, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.Hits) != len(ref.Hits) || res.Pairs != ref.Pairs {
			t.Fatalf("workers=%d: %d hits / %d pairs, want %d / %d",
				workers, len(res.Hits), res.Pairs, len(ref.Hits), ref.Pairs)
		}
		for i := range res.Hits {
			if res.Hits[i] != ref.Hits[i] {
				t.Fatalf("workers=%d: hit %d differs: %+v vs %+v",
					workers, i, res.Hits[i], ref.Hits[i])
			}
		}
	}
}

// TestRunHitsAreExactlyPassingWindows checks step 2 against a brute
// force over every (IL0, IL1) pair of each key, scored with
// align.WindowScore on windows cut from the raw sequences rather than
// the index's neighbourhood copies: the hits must be exactly the pairs
// at or above the threshold, in (key, i, j) order, for both kernels and
// several worker counts.
func TestRunHitsAreExactlyPassingWindows(t *testing.T) {
	small0, small1 := buildPair(t,
		[]string{"MKVLILACDEFGMKVLILAC"},
		[]string{"MKVLILACDEFGWWWWWWWW"},
		4)
	homolog := oracleBanks()["homolog"]
	hom0, err := index.Build(homolog[0], seed.Default(), 8)
	if err != nil {
		t.Fatal(err)
	}
	hom1, err := index.Build(homolog[1], seed.Default(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		ix0, ix1  *index.Index
		threshold int
	}{
		{"small", small0, small1, 10},
		{"homolog", hom0, hom1, 18},
		{"homolog-raised", hom0, hom1, 36},
	} {
		subLen := c.ix0.SubLen()
		var want []Hit
		for k := uint32(0); k < uint32(c.ix0.Model().KeySpace()); k++ {
			il0, _ := c.ix0.Bucket(k)
			il1, _ := c.ix1.Bucket(k)
			for _, e0 := range il0 {
				for _, e1 := range il1 {
					if align.WindowScore(windowOf(c.ix0, e0, subLen), windowOf(c.ix1, e1, subLen), matrix.BLOSUM62) >= c.threshold {
						want = append(want, Hit{e0, e1})
					}
				}
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: no pair reaches %d; test is vacuous", c.name, c.threshold)
		}
		for _, kernel := range []Kernel{KernelScalar, KernelBlocked} {
			for _, workers := range []int{1, 3} {
				res, err := Run(c.ix0, c.ix1, Config{Matrix: matrix.BLOSUM62, Threshold: c.threshold, Workers: workers, Kernel: kernel})
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, &Result{Hits: want, Pairs: PairCount(c.ix0, c.ix1)}, res,
					fmt.Sprintf("%s/%v/workers=%d", c.name, kernel, workers))
			}
		}
	}
}

// TestHitIs16Bytes pins the step-2 record to the two entries step 3
// reads.
func TestHitIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Hit{}); got != 16 {
		t.Errorf("Hit is %d bytes, want 16", got)
	}
}

func windowOf(ix *index.Index, e index.Entry, subLen int) []byte {
	seq := ix.Bank().Seq(int(e.Seq))
	n := ix.N()
	w := make([]byte, subLen)
	for i := range w {
		p := int(e.Off) - n + i
		if p < 0 || p >= len(seq) {
			w[i] = alphabet.Xaa
		} else {
			w[i] = seq[p]
		}
	}
	return w
}

func TestRunValidation(t *testing.T) {
	b := bank.New("b")
	b.Add("s", alphabet.MustEncodeProtein("ARNDARND"))
	ixA, _ := index.Build(b, seed.Exact(3), 2)
	ixB, _ := index.Build(b, seed.Exact(4), 2)
	ixC, _ := index.Build(b, seed.Exact(3), 3)

	if _, err := Run(ixA, ixB, Config{Matrix: matrix.BLOSUM62, Threshold: 10}); err == nil {
		t.Error("mismatched models accepted")
	}
	if _, err := Run(ixA, ixC, Config{Matrix: matrix.BLOSUM62, Threshold: 10}); err == nil {
		t.Error("mismatched neighbourhoods accepted")
	}
	if _, err := Run(ixA, ixA, Config{Threshold: 10}); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := Run(ixA, ixA, Config{Matrix: matrix.BLOSUM62}); err == nil {
		t.Error("zero threshold accepted")
	}
}

// TestRunEmptyBank covers bank-0 indexes with no occupied key — an
// empty bank and an all-ambiguous one: an empty Result naming the
// resolved kernel, at any worker count.
func TestRunEmptyBank(t *testing.T) {
	allX := bank.New("all-X")
	allX.Add("x", alphabet.MustEncodeProtein("XXXXXXXXXXXX"))
	b1 := bank.New("full")
	b1.Add("s", alphabet.MustEncodeProtein("ARNDCQEGHILK"))
	model := seed.Exact(3)
	ix1, _ := index.Build(b1, model, 2)
	for _, b0 := range []*bank.Bank{bank.New("empty"), allX} {
		ix0, _ := index.Build(b0, model, 2)
		for _, kernel := range []Kernel{KernelScalar, KernelBlocked, KernelAuto} {
			res, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 10, Workers: 4, Kernel: kernel})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Hits) != 0 || res.Pairs != 0 || res.Kernel != kernel.resolve(matrix.BLOSUM62, ix0.SubLen()) {
				t.Errorf("%s/%v: produced work or lost the kernel: %+v", b0.Name(), kernel, res)
			}
		}
	}
}

func TestPairCountMatchesBruteForce(t *testing.T) {
	// Independent check of PairCount against direct enumeration.
	ix0, ix1 := buildPair(t,
		[]string{"ARNDCQEGHILKMFPSTWYV", "MKVLILACMKVLILAC"},
		[]string{"ARNDCQEGHILK", "WWWWMKVLILAC"},
		2)
	var brute int64
	space := ix0.Model().KeySpace()
	for k := 0; k < space; k++ {
		e0, _ := ix0.Bucket(uint32(k))
		e1, _ := ix1.Bucket(uint32(k))
		brute += int64(len(e0)) * int64(len(e1))
	}
	if got := PairCount(ix0, ix1); got != brute {
		t.Errorf("PairCount = %d, brute force = %d", got, brute)
	}
}

func TestRunSymmetricThresholdOne(t *testing.T) {
	// With a symmetric matrix, swapping the banks must give the same
	// number of hits (pairs mirror).
	ix0, ix1 := buildPair(t,
		[]string{"MKVLILACDEFG"},
		[]string{"MKVLILACWWWW", "DEFGMKVLILAC"},
		3)
	fwd, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 12})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Run(ix1, ix0, Config{Matrix: matrix.BLOSUM62, Threshold: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd.Hits) != len(rev.Hits) || fwd.Pairs != rev.Pairs {
		t.Errorf("asymmetry: %d/%d hits, %d/%d pairs",
			len(fwd.Hits), len(rev.Hits), fwd.Pairs, rev.Pairs)
	}
}

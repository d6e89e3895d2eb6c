package ungapped

import (
	"testing"

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
	for _, h := range res.Hits {
		if h.Score < 30 {
			t.Errorf("hit below threshold: %+v", h)
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

func TestRunHitScoresMatchWindowScore(t *testing.T) {
	ix0, ix1 := buildPair(t,
		[]string{"MKVLILACDEFGMKVLILAC"},
		[]string{"MKVLILACDEFGWWWWWWWW"},
		4)
	res, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("expected hits")
	}
	subLen := ix0.SubLen()
	for _, h := range res.Hits {
		// Recompute the window score from the raw sequences.
		w0 := windowOf(ix0, h.E0, subLen)
		w1 := windowOf(ix1, h.E1, subLen)
		want := align.WindowScore(w0, w1, matrix.BLOSUM62)
		if int(h.Score) != want {
			t.Errorf("hit score %d, recomputed %d", h.Score, want)
		}
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

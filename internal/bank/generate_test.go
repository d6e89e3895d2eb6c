package bank

import (
	"math"
	"testing"

	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
	"seedblast/internal/translate"
)

func TestRandomProteinComposition(t *testing.T) {
	rng := NewRNG(1)
	seq := RandomProtein(rng, 200_000)
	var counts [alphabet.NumStandardAA]int
	for _, c := range seq {
		if !alphabet.IsStandardAA(c) {
			t.Fatalf("non-standard residue %d generated", c)
		}
		counts[c]++
	}
	freqs := matrix.RobinsonFrequencies()
	for aa, want := range freqs {
		got := float64(counts[aa]) / float64(len(seq))
		if math.Abs(got-want) > 0.01 {
			t.Errorf("residue %c frequency %.4f, want %.4f",
				alphabet.ProteinLetter(byte(aa)), got, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateProteins(ProteinConfig{N: 10, Seed: 42})
	b := GenerateProteins(ProteinConfig{N: 10, Seed: 42})
	c := GenerateProteins(ProteinConfig{N: 10, Seed: 43})
	for i := 0; i < 10; i++ {
		if string(a.Seq(i)) != string(b.Seq(i)) {
			t.Fatal("same seed produced different banks")
		}
	}
	same := true
	for i := 0; i < 10; i++ {
		if string(a.Seq(i)) != string(c.Seq(i)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical banks")
	}
}

func TestGenerateProteinsSizes(t *testing.T) {
	cfg := ProteinConfig{N: 50, MeanLen: 100, LenJitter: 20, Seed: 7}
	b := GenerateProteins(cfg)
	if b.Len() != 50 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		l := len(b.Seq(i))
		if l < 80 || l > 120 {
			t.Errorf("sequence %d length %d outside jitter range", i, l)
		}
	}
}

func TestMutateProteinRate(t *testing.T) {
	rng := NewRNG(3)
	orig := RandomProtein(rng, 50_000)
	mut := MutateProtein(rng, orig, 0.3)
	if len(mut) != len(orig) {
		t.Fatal("MutateProtein changed length")
	}
	diff := 0
	for i := range orig {
		if orig[i] != mut[i] {
			diff++
		}
	}
	// Expected observed difference ≈ rate × (1 − 1/20 backgound re-draws).
	rate := float64(diff) / float64(len(orig))
	if rate < 0.22 || rate > 0.32 {
		t.Errorf("observed mutation rate %.3f for requested 0.3", rate)
	}
	// Zero rate changes nothing.
	same := MutateProtein(rng, orig, 0)
	for i := range orig {
		if same[i] != orig[i] {
			t.Fatal("zero-rate mutation altered sequence")
		}
	}
}

func TestReverseTranslateRoundTrip(t *testing.T) {
	rng := NewRNG(5)
	protein := RandomProtein(rng, 300)
	dna, err := ReverseTranslate(rng, protein)
	if err != nil {
		t.Fatal(err)
	}
	if len(dna) != 3*len(protein) {
		t.Fatalf("dna length %d, want %d", len(dna), 3*len(protein))
	}
	back := translate.Translate(dna)
	if string(back) != string(protein) {
		t.Error("translation of reverse translation differs from original")
	}
}

func TestReverseTranslateRejectsAmbiguous(t *testing.T) {
	rng := NewRNG(6)
	if _, err := ReverseTranslate(rng, []byte{alphabet.Xaa}); err == nil {
		t.Error("X accepted for reverse translation")
	}
}

func TestGenerateGenomePlainBackground(t *testing.T) {
	dna, genes, err := GenerateGenome(GenomeConfig{Length: 10_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dna) != 10_000 || genes != nil {
		t.Fatalf("len=%d genes=%v", len(dna), genes)
	}
	for _, c := range dna {
		if c >= 4 {
			t.Fatal("invalid nucleotide in background")
		}
	}
}

func TestGenerateGenomeErrors(t *testing.T) {
	if _, _, err := GenerateGenome(GenomeConfig{Length: 0}); err == nil {
		t.Error("zero length accepted")
	}
	if _, _, err := GenerateGenome(GenomeConfig{Length: 100, PlantCount: 1}); err == nil {
		t.Error("planting without source accepted")
	}
}

func TestGenerateGenomePlantsTranslatableGenes(t *testing.T) {
	source := GenerateProteins(ProteinConfig{N: 5, MeanLen: 60, LenJitter: 5, Seed: 9})
	dna, genes, err := GenerateGenome(GenomeConfig{
		Length:     50_000,
		Source:     source,
		PlantCount: 8,
		Seed:       10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(genes) == 0 {
		t.Fatal("no genes planted")
	}
	frames := translate.SixFrames(dna)
	frameProt := map[translate.Frame][]byte{}
	for _, ft := range frames {
		frameProt[ft.Frame] = ft.Protein
	}
	for gi, g := range genes {
		protein := source.Seq(g.ProteinIdx)
		if g.NucLen != 3*len(protein) {
			t.Errorf("gene %d NucLen %d, want %d", gi, g.NucLen, 3*len(protein))
		}
		// The planted gene must read back exactly in its declared frame.
		aaPos := translate.ProteinPos(g.Frame, geneCodonStart(g), len(dna))
		if aaPos < 0 {
			t.Fatalf("gene %d: start %d is not a codon start in frame %s", gi, g.Start, g.Frame)
		}
		got := frameProt[g.Frame][aaPos : aaPos+len(protein)]
		if string(got) != string(protein) {
			t.Errorf("gene %d does not read back in frame %s", gi, g.Frame)
		}
	}
}

// geneCodonStart returns the forward-strand coordinate of the first
// codon of the gene in its frame: for forward frames it is Start; for
// reverse frames the first codon is at the right end of the interval.
func geneCodonStart(g PlantedGene) int {
	if g.Frame > 0 {
		return g.Start
	}
	return g.Start + g.NucLen - 3
}

func TestGenerateGenomeGenesDoNotOverlap(t *testing.T) {
	source := GenerateProteins(ProteinConfig{N: 3, MeanLen: 50, LenJitter: 0, Seed: 11})
	_, genes, err := GenerateGenome(GenomeConfig{
		Length:     20_000,
		Source:     source,
		PlantCount: 20,
		Seed:       12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(genes); i++ {
		if genes[i-1].Start+genes[i-1].NucLen > genes[i].Start {
			t.Fatalf("genes %d and %d overlap", i-1, i)
		}
	}
}

func TestFrameOfMatchesProteinPos(t *testing.T) {
	// frameOf must be consistent with translate.ProteinPos for both strands.
	for _, genomeLen := range []int{3000, 3001, 3002} {
		for start := 0; start < 30; start++ {
			nucLen := 300
			for _, reverse := range []bool{false, true} {
				f := frameOf(start, nucLen, genomeLen, reverse)
				if !f.Valid() {
					t.Fatalf("invalid frame %d", f)
				}
				var codonStart int
				if !reverse {
					codonStart = start
				} else {
					codonStart = start + nucLen - 3
				}
				if translate.ProteinPos(f, codonStart, genomeLen) < 0 {
					t.Fatalf("frameOf(%d,%d,%d,%v)=%s disagrees with ProteinPos",
						start, nucLen, genomeLen, reverse, f)
				}
			}
		}
	}
}

package bank

import (
	"fmt"
	"math/rand"
	"sort"

	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
	"seedblast/internal/translate"
)

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// sampler draws amino acids from the Robinson & Robinson background
// distribution by inverse CDF.
type sampler struct {
	cdf [alphabet.NumStandardAA]float64
}

func newSampler() *sampler {
	s := &sampler{}
	freqs := matrix.RobinsonFrequencies()
	var cum float64
	for i, p := range freqs {
		cum += p
		s.cdf[i] = cum
	}
	s.cdf[alphabet.NumStandardAA-1] = 1 // absorb rounding
	return s
}

func (s *sampler) draw(rng *rand.Rand) byte {
	u := rng.Float64()
	// 20 entries: linear scan is faster than binary search here.
	for i, c := range s.cdf {
		if u <= c {
			return byte(i)
		}
	}
	return alphabet.NumStandardAA - 1
}

// RandomProtein generates a protein of the given length with Robinson
// background composition.
func RandomProtein(rng *rand.Rand, length int) []byte {
	s := newSampler()
	out := make([]byte, length)
	for i := range out {
		out[i] = s.draw(rng)
	}
	return out
}

// MutateProtein returns a copy of seq where each residue is replaced by
// a background-distributed residue with probability subRate. The result
// has the same length (no indels), which suits ungapped-stage workloads;
// gapped workloads add indels separately.
func MutateProtein(rng *rand.Rand, seq []byte, subRate float64) []byte {
	s := newSampler()
	out := append([]byte(nil), seq...)
	for i := range out {
		if rng.Float64() < subRate {
			out[i] = s.draw(rng)
		}
	}
	return out
}

// ProteinConfig parameterises GenerateProteins.
type ProteinConfig struct {
	N         int   // number of proteins
	MeanLen   int   // mean protein length; the paper's banks average ≈335 aa
	LenJitter int   // uniform ± jitter on length
	Seed      int64 // RNG seed
}

// withDefaults fills zero fields with defaults.
func (c ProteinConfig) withDefaults() ProteinConfig {
	if c.MeanLen == 0 {
		c.MeanLen = 330
	}
	if c.LenJitter == 0 {
		c.LenJitter = c.MeanLen / 3
	}
	return c
}

// GenerateProteins creates a synthetic protein bank with background
// composition. It stands in for the paper's NR-derived banks; bank size
// N is the experiments' sweep variable.
func GenerateProteins(cfg ProteinConfig) *Bank {
	cfg = cfg.withDefaults()
	rng := NewRNG(cfg.Seed)
	s := newSampler()
	b := New(fmt.Sprintf("proteins-%d", cfg.N))
	for i := 0; i < cfg.N; i++ {
		length := cfg.MeanLen
		if cfg.LenJitter > 0 {
			length += rng.Intn(2*cfg.LenJitter+1) - cfg.LenJitter
		}
		if length < 20 {
			length = 20
		}
		seq := make([]byte, length)
		for j := range seq {
			seq[j] = s.draw(rng)
		}
		b.Add(fmt.Sprintf("prot%06d", i), seq)
	}
	return b
}

// aaCodons maps each standard amino acid to its codons (as 3-byte
// nucleotide code arrays), built once from the genetic code.
var aaCodons [alphabet.NumStandardAA][][3]byte

func init() {
	for n0 := byte(0); n0 < 4; n0++ {
		for n1 := byte(0); n1 < 4; n1++ {
			for n2 := byte(0); n2 < 4; n2++ {
				aa := translate.Codon(n0, n1, n2)
				if alphabet.IsStandardAA(aa) {
					aaCodons[aa] = append(aaCodons[aa], [3]byte{n0, n1, n2})
				}
			}
		}
	}
}

// ReverseTranslate encodes a protein as DNA, choosing uniformly among
// synonymous codons.
func ReverseTranslate(rng *rand.Rand, protein []byte) ([]byte, error) {
	out := make([]byte, 0, 3*len(protein))
	for i, aa := range protein {
		if !alphabet.IsStandardAA(aa) {
			return nil, fmt.Errorf("bank: cannot reverse-translate residue %c at %d",
				alphabet.ProteinLetter(aa), i)
		}
		cs := aaCodons[aa]
		c := cs[rng.Intn(len(cs))]
		out = append(out, c[0], c[1], c[2])
	}
	return out, nil
}

// PlantedGene records where a protein was planted in a synthetic genome.
type PlantedGene struct {
	ProteinIdx int             // index into the source bank
	Start      int             // forward-strand nucleotide offset of the gene
	NucLen     int             // nucleotide length (3 × amino acids)
	Frame      translate.Frame // reading frame the gene occupies
}

// GenomeConfig parameterises GenerateGenome.
type GenomeConfig struct {
	Length       int     // total nucleotides
	Source       *Bank   // proteins to plant (required if PlantCount > 0)
	PlantCount   int     // number of genes to plant
	PlantSubRate float64 // per-residue substitution rate applied before planting
	Seed         int64
}

// GenerateGenome creates a synthetic genome: background DNA with
// PlantCount mutated, reverse-translated genes from Source inserted at
// non-overlapping positions on both strands. It stands in for the
// paper's Human chromosome 1, guaranteeing that bank-vs-genome
// comparison finds similarity regions. The returned genes are sorted by
// Start.
func GenerateGenome(cfg GenomeConfig) ([]byte, []PlantedGene, error) {
	if cfg.Length <= 0 {
		return nil, nil, fmt.Errorf("bank: genome length must be positive")
	}
	rng := NewRNG(cfg.Seed)
	dna := make([]byte, cfg.Length)
	for i := range dna {
		dna[i] = byte(rng.Intn(4))
	}
	if cfg.PlantCount == 0 {
		return dna, nil, nil
	}
	if cfg.Source == nil || cfg.Source.Len() == 0 {
		return nil, nil, fmt.Errorf("bank: PlantCount %d requires a non-empty Source", cfg.PlantCount)
	}
	var genes []PlantedGene
	occupied := make([]bool, cfg.Length)
	for g := 0; g < cfg.PlantCount; g++ {
		idx := rng.Intn(cfg.Source.Len())
		protein := cfg.Source.Seq(idx)
		if cfg.PlantSubRate > 0 {
			protein = MutateProtein(rng, protein, cfg.PlantSubRate)
		}
		coding, err := ReverseTranslate(rng, protein)
		if err != nil {
			return nil, nil, err
		}
		if len(coding) > cfg.Length {
			continue // gene longer than genome: skip
		}
		start, ok := findSlot(rng, occupied, len(coding))
		if !ok {
			continue // genome too crowded: plant fewer genes
		}
		reverse := rng.Intn(2) == 1
		placed := coding
		if reverse {
			placed = alphabet.ReverseComplement(coding)
		}
		copy(dna[start:], placed)
		for i := start; i < start+len(placed); i++ {
			occupied[i] = true
		}
		frame := frameOf(start, len(placed), cfg.Length, reverse)
		genes = append(genes, PlantedGene{
			ProteinIdx: idx,
			Start:      start,
			NucLen:     len(placed),
			Frame:      frame,
		})
	}
	sort.Slice(genes, func(i, j int) bool { return genes[i].Start < genes[j].Start })
	return dna, genes, nil
}

// findSlot picks a random unoccupied interval of the given length,
// retrying a bounded number of times.
func findSlot(rng *rand.Rand, occupied []bool, length int) (int, bool) {
	if length > len(occupied) {
		return 0, false
	}
	for attempt := 0; attempt < 64; attempt++ {
		start := rng.Intn(len(occupied) - length + 1)
		free := true
		for i := start; i < start+length; i++ {
			if occupied[i] {
				free = false
				break
			}
		}
		if free {
			return start, true
		}
	}
	return 0, false
}

// frameOf computes the reading frame a gene planted at the given
// forward-strand interval occupies.
func frameOf(start, nucLen, genomeLen int, reverse bool) translate.Frame {
	if !reverse {
		return translate.Frame(start%3 + 1)
	}
	// On the reverse strand the frame is determined by the distance of
	// the gene's end from the genome's end.
	offset := (genomeLen - (start + nucLen)) % 3
	return translate.Frame(-(offset + 1))
}

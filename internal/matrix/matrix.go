// Package matrix provides amino-acid substitution matrices and the
// background residue frequencies needed by the scoring statistics.
//
// The matrix the paper uses is BLOSUM62 (Henikoff & Henikoff 1992,
// reference [8]); it is embedded exactly as distributed by NCBI, over the
// 24-letter alphabet ARNDCQEGHILKMFPSTWYVBZX*. Parametrised
// match/mismatch matrices are provided for tests and ablations.
package matrix

import (
	"fmt"

	"seedblast/internal/alphabet"
)

// Matrix is a substitution score matrix over the protein alphabet.
// Scores are small integers (int8 storage) indexed by a pair of protein
// codes. The zero value is unusable; construct with New or use BLOSUM62.
type Matrix struct {
	name   string
	scores [alphabet.NumAA * alphabet.NumAA]int8
}

// New builds a Matrix from a dense row-major table of
// alphabet.NumAA × alphabet.NumAA scores.
func New(name string, table []int8) (*Matrix, error) {
	if len(table) != alphabet.NumAA*alphabet.NumAA {
		return nil, fmt.Errorf("matrix: table for %s has %d entries, want %d",
			name, len(table), alphabet.NumAA*alphabet.NumAA)
	}
	m := &Matrix{name: name}
	copy(m.scores[:], table)
	return m, nil
}

// Name returns the matrix name (e.g. "BLOSUM62").
func (m *Matrix) Name() string { return m.name }

// Score returns the substitution score for the residue pair (a, b).
// Both arguments must be valid protein codes; out-of-range codes panic
// via the bounds check, which indicates a bug upstream of scoring.
func (m *Matrix) Score(a, b byte) int {
	return int(m.scores[int(a)*alphabet.NumAA+int(b)])
}

// Row returns the scores of residue a against every residue, in code
// order. The returned slice aliases the matrix; callers must not modify it.
func (m *Matrix) Row(a byte) []int8 {
	off := int(a) * alphabet.NumAA
	return m.scores[off : off+alphabet.NumAA]
}

// Table returns the full row-major score table. The returned slice
// aliases the matrix; callers must not modify it. The hardware simulator
// uses this as the contents of each processing element's score ROM.
func (m *Matrix) Table() []int8 { return m.scores[:] }

// MaxScore returns the largest score in the matrix.
func (m *Matrix) MaxScore() int {
	best := int(m.scores[0])
	for _, s := range m.scores {
		if int(s) > best {
			best = int(s)
		}
	}
	return best
}

// NewMatchMismatch builds a simple matrix scoring match for identical
// standard residues and mismatch otherwise. X and * score mismatch
// against everything (including themselves). Useful in tests where exact
// hand-computable scores are needed.
func NewMatchMismatch(match, mismatch int8) *Matrix {
	m := &Matrix{name: fmt.Sprintf("match%d/mismatch%d", match, mismatch)}
	for a := 0; a < alphabet.NumAA; a++ {
		for b := 0; b < alphabet.NumAA; b++ {
			s := mismatch
			if a == b && a < alphabet.NumStandardAA {
				s = match
			}
			m.scores[a*alphabet.NumAA+b] = s
		}
	}
	return m
}

// RobinsonFrequencies returns the Robinson & Robinson (1991) background
// amino-acid frequencies used by NCBI BLAST for protein statistics and by
// the synthetic workload generator. Indexed by protein code; the 20
// entries sum to 1 within rounding.
func RobinsonFrequencies() *[alphabet.NumStandardAA]float64 {
	f := robinson // copy
	return &f
}

var robinson = [alphabet.NumStandardAA]float64{
	alphabet.Ala: 0.07805,
	alphabet.Arg: 0.05129,
	alphabet.Asn: 0.04487,
	alphabet.Asp: 0.05364,
	alphabet.Cys: 0.01925,
	alphabet.Gln: 0.04264,
	alphabet.Glu: 0.06295,
	alphabet.Gly: 0.07377,
	alphabet.His: 0.02199,
	alphabet.Ile: 0.05142,
	alphabet.Leu: 0.09019,
	alphabet.Lys: 0.05744,
	alphabet.Met: 0.02243,
	alphabet.Phe: 0.03856,
	alphabet.Pro: 0.05203,
	alphabet.Ser: 0.07120,
	alphabet.Thr: 0.05841,
	alphabet.Trp: 0.01330,
	alphabet.Tyr: 0.03216,
	alphabet.Val: 0.06441,
}

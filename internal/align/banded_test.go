package align

import (
	"math/rand"
	"testing"

	"seedblast/internal/matrix"
)

// bandedCase is one input of the banded DP. The generators below aim
// at what distinguishes implementations of it: ties (small alphabets,
// match/mismatch matrices), bands clipped by each matrix edge or lying
// wholly outside it, gaps that pay (planted indels, cheap gap costs),
// and shapes around the kernel's vector and fallback boundaries.
type bandedCase struct {
	a, b       []byte
	diag, band int
}

var sweepBands = []int{0, 1, 7, 16, 40}

func randomResidues(rng *rand.Rand, n, letters int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(letters))
	}
	return s
}

// mutate copies s with substitutions at rate sub and single-residue
// insertions and deletions at rate indel each.
func mutate(rng *rand.Rand, s []byte, letters int, sub, indel float64) []byte {
	out := make([]byte, 0, len(s)+8)
	for _, c := range s {
		switch r := rng.Float64(); {
		case r < indel: // deletion
		case r < 2*indel:
			out = append(out, c, byte(rng.Intn(letters)))
		case r < 2*indel+sub:
			out = append(out, byte(rng.Intn(letters)))
		default:
			out = append(out, c)
		}
	}
	return out
}

// drawBandedCase draws a case over an alphabet of the given size.
// Half the cases plant a mutated copy of a in b at a known offset and
// put the band near it; the rest are unrelated sequences with the
// diagonal anywhere from left of the matrix to right of it.
func drawBandedCase(rng *rand.Rand, letters int) bandedCase {
	la := rng.Intn(70)
	if rng.Intn(8) == 0 {
		la = 100 + rng.Intn(500)
	}
	c := bandedCase{a: randomResidues(rng, la, letters), band: sweepBands[rng.Intn(len(sweepBands))]}
	if rng.Intn(2) == 0 {
		left := rng.Intn(30)
		c.b = append(randomResidues(rng, left, letters), mutate(rng, c.a, letters, 0.2, 0.03)...)
		c.b = append(c.b, randomResidues(rng, rng.Intn(30), letters)...)
		c.diag = left + rng.Intn(2*c.band+5) - c.band - 2
	} else {
		c.b = randomResidues(rng, rng.Intn(90), letters)
		c.diag = rng.Intn(len(c.a)+len(c.b)+2*c.band+8) - len(c.a) - c.band - 4
	}
	return c
}

// sweepAligners are the scoring systems the sweeps run: BLAST's own,
// cheap and free-to-open gaps (the gap states matter in most cells),
// and a match/mismatch matrix whose scores tie constantly.
func sweepAligners() []*Aligner {
	return []*Aligner{
		NewAligner(matrix.BLOSUM62, DefaultGaps),
		NewAligner(matrix.BLOSUM62, GapParams{Open: 2, Extend: 1}),
		NewAligner(matrix.NewMatchMismatch(2, -1), GapParams{Open: 0, Extend: 1}),
		NewAligner(matrix.NewMatchMismatch(5, -4), GapParams{Open: 3, Extend: 2}),
	}
}

// TestLocalBandedMatchesReference pins the shipped path — score pass,
// then a reverse pass on scratch buffers that stops at the first cell
// reaching the forward score — to LocalBandedReference, which runs the
// scalar loop over fresh copies to completion.
func TestLocalBandedMatchesReference(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	rng := rand.New(rand.NewSource(42))
	aligners := sweepAligners()
	scored := 0
	for n := 0; n < cases; n++ {
		letters := []int{2, 3, 4, 20}[n%4]
		c := drawBandedCase(rng, letters)
		al := aligners[rng.Intn(len(aligners))]
		got := al.LocalBanded(c.a, c.b, c.diag, c.band)
		want := al.LocalBandedReference(c.a, c.b, c.diag, c.band)
		if got != want {
			t.Fatalf("case %d (letters=%d len(a)=%d len(b)=%d diag=%d band=%d gaps=%+v):\n got %+v\nwant %+v",
				n, letters, len(c.a), len(c.b), c.diag, c.band, al.gap, got, want)
		}
		if want.Score > 0 {
			scored++
		}
	}
	if scored < cases/3 {
		t.Errorf("only %d of %d cases scored above zero: the generator no longer reaches the DP", scored, cases)
	}
}

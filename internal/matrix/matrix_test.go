package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"seedblast/internal/alphabet"
)

// MinScore returns the smallest score in the matrix.
func (m *Matrix) MinScore() int {
	worst := int(m.scores[0])
	for _, s := range m.scores {
		if int(s) < worst {
			worst = int(s)
		}
	}
	return worst
}

// IsSymmetric reports whether Score(a,b) == Score(b,a) for all pairs.
// All distributed substitution matrices are symmetric.
func (m *Matrix) IsSymmetric() bool {
	for a := 0; a < alphabet.NumAA; a++ {
		for b := a + 1; b < alphabet.NumAA; b++ {
			if m.scores[a*alphabet.NumAA+b] != m.scores[b*alphabet.NumAA+a] {
				return false
			}
		}
	}
	return true
}

// ExpectedScore returns the expected per-position score
// Σ p(a)·p(b)·s(a,b) over the 20 standard amino acids under the given
// background frequencies. For a matrix usable with local alignment
// statistics this must be negative.
func (m *Matrix) ExpectedScore(freqs *[alphabet.NumStandardAA]float64) float64 {
	var e float64
	for a := 0; a < alphabet.NumStandardAA; a++ {
		row := m.Row(byte(a))
		for b := 0; b < alphabet.NumStandardAA; b++ {
			e += freqs[a] * freqs[b] * float64(row[b])
		}
	}
	return e
}

func scoreOf(t *testing.T, m *Matrix, a, b string) int {
	t.Helper()
	ca := alphabet.MustEncodeProtein(a)[0]
	cb := alphabet.MustEncodeProtein(b)[0]
	return m.Score(ca, cb)
}

func TestBLOSUM62KnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"A", "A", 4},
		{"W", "W", 11},
		{"C", "C", 9},
		{"P", "P", 7},
		{"A", "R", -1},
		{"W", "P", -4},
		{"I", "V", 3},
		{"I", "L", 2},
		{"E", "Z", 4},
		{"N", "B", 3},
		{"D", "B", 4},
		{"X", "X", -1},
		{"*", "*", 1},
		{"A", "*", -4},
		{"X", "A", 0},
		{"S", "T", 1},
		{"H", "Y", 2},
		{"F", "Y", 3},
	}
	for _, c := range cases {
		if got := scoreOf(t, BLOSUM62, c.a, c.b); got != c.want {
			t.Errorf("BLOSUM62(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBLOSUM62Symmetric(t *testing.T) {
	if !BLOSUM62.IsSymmetric() {
		t.Fatal("BLOSUM62 is not symmetric")
	}
}

func TestBLOSUM62Extremes(t *testing.T) {
	if got := BLOSUM62.MaxScore(); got != 11 {
		t.Errorf("MaxScore = %d, want 11 (W/W)", got)
	}
	if got := BLOSUM62.MinScore(); got != -4 {
		t.Errorf("MinScore = %d, want -4", got)
	}
}

func TestBLOSUM62DiagonalPositive(t *testing.T) {
	// Every standard residue must score positively against itself.
	for a := byte(0); a < alphabet.NumStandardAA; a++ {
		if BLOSUM62.Score(a, a) <= 0 {
			t.Errorf("BLOSUM62 diagonal for %c = %d, want > 0",
				alphabet.ProteinLetter(a), BLOSUM62.Score(a, a))
		}
	}
}

func TestBLOSUM62ExpectedScoreNegative(t *testing.T) {
	// A matrix valid for local alignment statistics must have negative
	// expected score. Under Robinson background frequencies BLOSUM62's
	// expected score is about -0.95 (it is -0.52 under the matrix's own
	// implied frequencies).
	e := BLOSUM62.ExpectedScore(RobinsonFrequencies())
	if e >= 0 {
		t.Fatalf("expected score = %f, want negative", e)
	}
	if e < -1.1 || e > -0.8 {
		t.Errorf("expected score = %f, want about -0.95", e)
	}
}

func TestRobinsonFrequenciesSumToOne(t *testing.T) {
	f := RobinsonFrequencies()
	var sum float64
	for _, p := range f {
		if p <= 0 {
			t.Fatal("non-positive background frequency")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("frequencies sum to %f, want 1", sum)
	}
}

func TestRobinsonFrequenciesIsACopy(t *testing.T) {
	f := RobinsonFrequencies()
	f[0] = 99
	if RobinsonFrequencies()[0] == 99 {
		t.Error("RobinsonFrequencies returned shared state")
	}
}

func TestNewRejectsWrongSize(t *testing.T) {
	if _, err := New("bad", make([]int8, 10)); err == nil {
		t.Error("New accepted a 10-entry table")
	}
}

func TestNewCopiesTable(t *testing.T) {
	table := make([]int8, alphabet.NumAA*alphabet.NumAA)
	m, err := New("copy", table)
	if err != nil {
		t.Fatal(err)
	}
	table[0] = 42
	if m.Score(0, 0) == 42 {
		t.Error("New aliased the caller's table")
	}
}

func TestMatchMismatch(t *testing.T) {
	m := NewMatchMismatch(5, -4)
	if got := scoreOf(t, m, "A", "A"); got != 5 {
		t.Errorf("match = %d, want 5", got)
	}
	if got := scoreOf(t, m, "A", "R"); got != -4 {
		t.Errorf("mismatch = %d, want -4", got)
	}
	if got := scoreOf(t, m, "X", "X"); got != -4 {
		t.Errorf("X/X = %d, want mismatch", got)
	}
	if !m.IsSymmetric() {
		t.Error("match/mismatch matrix must be symmetric")
	}
}

func TestRowMatchesScore(t *testing.T) {
	f := func(a, b byte) bool {
		a %= alphabet.NumAA
		b %= alphabet.NumAA
		return int(BLOSUM62.Row(a)[b]) == BLOSUM62.Score(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableMatchesScore(t *testing.T) {
	tab := BLOSUM62.Table()
	for a := 0; a < alphabet.NumAA; a++ {
		for b := 0; b < alphabet.NumAA; b++ {
			if int(tab[a*alphabet.NumAA+b]) != BLOSUM62.Score(byte(a), byte(b)) {
				t.Fatalf("Table()[%d,%d] disagrees with Score", a, b)
			}
		}
	}
}

func TestName(t *testing.T) {
	if BLOSUM62.Name() != "BLOSUM62" {
		t.Errorf("Name = %q", BLOSUM62.Name())
	}
}

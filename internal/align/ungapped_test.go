package align

import (
	"testing"
	"testing/quick"

	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
)

// maxPrefixScore is the running-sum window score without the zero
// clamp: the maximum over prefix sums of the window, the most literal
// reading of the PE datapath ("the result is added to the current
// score and a maximum value is computed"). WindowScore, which the
// pipeline runs, must never score below it.
func maxPrefixScore(s0, s1 []byte, m *matrix.Matrix) int {
	table := m.Table()
	score, best := 0, 0
	for k := 0; k < len(s0); k++ {
		score += int(table[int(s0[k])*alphabet.NumAA+int(s1[k])])
		if score > best {
			best = score
		}
	}
	return best
}

func TestWindowScoreIdentical(t *testing.T) {
	m := matrix.NewMatchMismatch(2, -1)
	w := alphabet.MustEncodeProtein("ARNDAR")
	if got := WindowScore(w, w, m); got != 12 {
		t.Errorf("identical window score = %d, want 12", got)
	}
}

func TestWindowScoreBestSegment(t *testing.T) {
	m := matrix.NewMatchMismatch(1, -1)
	a := alphabet.MustEncodeProtein("AAAARRRR")
	b := alphabet.MustEncodeProtein("AAAAAAAA")
	// Best segment: the 4 leading matches.
	if got := WindowScore(a, b, m); got != 4 {
		t.Errorf("score = %d, want 4", got)
	}
	// Segment in the middle must be found despite bad flanks.
	a2 := alphabet.MustEncodeProtein("RRAAAARR")
	b2 := alphabet.MustEncodeProtein("AAAAAAAA")
	if got := WindowScore(a2, b2, m); got != 4 {
		t.Errorf("middle segment score = %d, want 4", got)
	}
}

func TestWindowScoreAllNegative(t *testing.T) {
	m := matrix.NewMatchMismatch(1, -1)
	a := alphabet.MustEncodeProtein("AAAA")
	b := alphabet.MustEncodeProtein("RRRR")
	if got := WindowScore(a, b, m); got != 0 {
		t.Errorf("all-mismatch score = %d, want 0", got)
	}
}

// bruteBestSegment computes max over all contiguous segments of the
// pair-score sum — the independent O(n²) definition of WindowScore.
func bruteBestSegment(a, b []byte, m *matrix.Matrix) int {
	best := 0
	for i := 0; i < len(a); i++ {
		sum := 0
		for j := i; j < len(a); j++ {
			sum += m.Score(a[j], b[j])
			if sum > best {
				best = sum
			}
		}
	}
	return best
}

func TestWindowScoreMatchesBruteForce(t *testing.T) {
	m := matrix.BLOSUM62
	f := func(raw0, raw1 [24]byte) bool {
		a := make([]byte, 24)
		b := make([]byte, 24)
		for i := 0; i < 24; i++ {
			a[i] = raw0[i] % alphabet.NumStandardAA
			b[i] = raw1[i] % alphabet.NumStandardAA
		}
		return WindowScore(a, b, m) == bruteBestSegment(a, b, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxPrefixScoreMatchesBruteForce(t *testing.T) {
	m := matrix.BLOSUM62
	f := func(raw0, raw1 [16]byte) bool {
		a := make([]byte, 16)
		b := make([]byte, 16)
		for i := 0; i < 16; i++ {
			a[i] = raw0[i] % alphabet.NumStandardAA
			b[i] = raw1[i] % alphabet.NumStandardAA
		}
		best, sum := 0, 0
		for k := 0; k < 16; k++ {
			sum += m.Score(a[k], b[k])
			if sum > best {
				best = sum
			}
		}
		return maxPrefixScore(a, b, m) == best
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowScoreDominatesMaxPrefix(t *testing.T) {
	// The clamped variant can only be larger or equal: dropping a
	// negative prefix never hurts.
	m := matrix.BLOSUM62
	f := func(raw0, raw1 [32]byte) bool {
		a := make([]byte, 32)
		b := make([]byte, 32)
		for i := 0; i < 32; i++ {
			a[i] = raw0[i] % alphabet.NumStandardAA
			b[i] = raw1[i] % alphabet.NumStandardAA
		}
		return WindowScore(a, b, m) >= maxPrefixScore(a, b, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowScoreSymmetric(t *testing.T) {
	m := matrix.BLOSUM62 // symmetric matrix ⇒ symmetric window score
	f := func(raw0, raw1 [12]byte) bool {
		a := make([]byte, 12)
		b := make([]byte, 12)
		for i := 0; i < 12; i++ {
			a[i] = raw0[i] % alphabet.NumAA
			b[i] = raw1[i] % alphabet.NumAA
		}
		return WindowScore(a, b, m) == WindowScore(b, a, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtendUngappedIdentical(t *testing.T) {
	m := matrix.NewMatchMismatch(1, -2)
	s := alphabet.MustEncodeProtein("ARNDCQEGHILK")
	got := ExtendUngapped(s, s, 4, 4, 3, 10, m)
	if got.Score != len(s) {
		t.Errorf("score = %d, want %d", got.Score, len(s))
	}
	if got.QStart != 0 || got.QEnd != len(s) || got.SStart != 0 || got.SEnd != len(s) {
		t.Errorf("extension did not cover the identity: %+v", got)
	}
}

func TestExtendUngappedStopsAtXDrop(t *testing.T) {
	m := matrix.NewMatchMismatch(1, -5)
	// Identical core of 6, then garbage on both sides.
	q := alphabet.MustEncodeProtein("RRRRAAAAAARRRR")
	s := alphabet.MustEncodeProtein("DDDDAAAAAADDDD")
	got := ExtendUngapped(q, s, 4, 4, 6, 4, m)
	if got.Score != 6 {
		t.Errorf("score = %d, want 6 (the core)", got.Score)
	}
	if got.QStart != 4 || got.QEnd != 10 {
		t.Errorf("interval = [%d,%d), want [4,10)", got.QStart, got.QEnd)
	}
}

func TestExtendUngappedAsymmetricSeedPos(t *testing.T) {
	m := matrix.NewMatchMismatch(2, -3)
	q := alphabet.MustEncodeProtein("AAAAWWWW")
	s := alphabet.MustEncodeProtein("RRAAWWWW")
	// Seed at q[4:8]=WWWW, s[4:8]=WWWW; left extension picks up AA at 2,3.
	got := ExtendUngapped(q, s, 4, 4, 4, 20, m)
	want := 4*2 + 2*2 - 0 // 4 W matches + 2 A matches; stops before RR/AA mismatches?
	// Left: positions 3,2 match (A/A: +2 each, best=4), positions 1,0 are
	// A vs R (-3 each) → running drops, best stays 4.
	if got.Score != want {
		t.Errorf("score = %d, want %d", got.Score, want)
	}
	if got.QStart != 2 {
		t.Errorf("QStart = %d, want 2", got.QStart)
	}
}

func TestExtendUngappedAtBoundaries(t *testing.T) {
	m := matrix.NewMatchMismatch(1, -1)
	q := alphabet.MustEncodeProtein("AAAA")
	s := alphabet.MustEncodeProtein("AAAA")
	got := ExtendUngapped(q, s, 0, 0, 4, 10, m)
	if got.Score != 4 || got.QStart != 0 || got.QEnd != 4 {
		t.Errorf("boundary seed: %+v", got)
	}
}

func TestScoringUsesMatrixTableLayout(t *testing.T) {
	// Regression test for the table stride: scoring must index the dense
	// table as row*alphabet.NumAA+col for every residue pair, including
	// the non-standard codes (B, Z, X, *) in rows ≥ 20 where a wrong
	// stride silently reads a neighbouring row. Build a matrix where
	// every pair has a unique positive score so any stride error changes
	// the result.
	table := make([]int8, alphabet.NumAA*alphabet.NumAA)
	for a := 0; a < alphabet.NumAA; a++ {
		for b := 0; b < alphabet.NumAA; b++ {
			table[a*alphabet.NumAA+b] = int8(a*5 + b%5 + 1)
		}
	}
	m, err := matrix.New("layout", table)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < alphabet.NumAA; a++ {
		for b := 0; b < alphabet.NumAA; b++ {
			want := m.Score(byte(a), byte(b))
			if got := WindowScore([]byte{byte(a)}, []byte{byte(b)}, m); got != want {
				t.Fatalf("WindowScore(%d,%d) = %d, want %d (table stride broken)", a, b, got, want)
			}
			if got := maxPrefixScore([]byte{byte(a)}, []byte{byte(b)}, m); got != want {
				t.Fatalf("maxPrefixScore(%d,%d) = %d, want %d (table stride broken)", a, b, got, want)
			}
			ext := ExtendUngapped([]byte{byte(a)}, []byte{byte(b)}, 0, 0, 1, 10, m)
			if ext.Score != want {
				t.Fatalf("ExtendUngapped(%d,%d) = %d, want %d (table stride broken)", a, b, ext.Score, want)
			}
		}
	}
}

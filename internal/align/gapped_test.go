package align

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
)

// naiveAffine is an independent full three-matrix affine local
// alignment used as the reference implementation in tests.
func naiveAffine(a, b []byte, m *matrix.Matrix, gap GapParams) int {
	n0, n1 := len(a), len(b)
	const ninf = -1 << 28
	H := mkMat(n0+1, n1+1, 0)
	E := mkMat(n0+1, n1+1, ninf) // gap in a (horizontal)
	F := mkMat(n0+1, n1+1, ninf) // gap in b (vertical)
	best := 0
	for i := 1; i <= n0; i++ {
		for j := 1; j <= n1; j++ {
			E[i][j] = maxInt(H[i][j-1]-gap.Open-gap.Extend, E[i][j-1]-gap.Extend)
			F[i][j] = maxInt(H[i-1][j]-gap.Open-gap.Extend, F[i-1][j]-gap.Extend)
			h := H[i-1][j-1] + m.Score(a[i-1], b[j-1])
			h = maxInt(h, E[i][j])
			h = maxInt(h, F[i][j])
			h = maxInt(h, 0)
			H[i][j] = h
			best = maxInt(best, h)
		}
	}
	return best
}

func mkMat(r, c, fill int) [][]int {
	m := make([][]int, r)
	for i := range m {
		m[i] = make([]int, c)
		for j := range m[i] {
			m[i][j] = fill
		}
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func randSeqs(raw0, raw1 []byte) (a, b []byte) {
	a = make([]byte, len(raw0))
	b = make([]byte, len(raw1))
	for i, r := range raw0 {
		a[i] = r % alphabet.NumStandardAA
	}
	for i, r := range raw1 {
		b[i] = r % alphabet.NumStandardAA
	}
	return a, b
}

func TestLocalMatchesNaive(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	f := func(raw0, raw1 [20]byte) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		return al.Local(a, b).Score == naiveAffine(a, b, matrix.BLOSUM62, DefaultGaps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalMatchesNaiveCheapGaps(t *testing.T) {
	gaps := GapParams{Open: 2, Extend: 1}
	al := NewAligner(matrix.BLOSUM62, gaps)
	f := func(raw0, raw1 [16]byte) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		return al.Local(a, b).Score == naiveAffine(a, b, matrix.BLOSUM62, gaps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalIdentity(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(3, -2), GapParams{Open: 5, Extend: 1})
	s := alphabet.MustEncodeProtein("ARNDCQEGH")
	loc := al.Local(s, s)
	if loc.Score != 27 {
		t.Errorf("identity score = %d, want 27", loc.Score)
	}
	if loc.AStart != 0 || loc.AEnd != 9 || loc.BStart != 0 || loc.BEnd != 9 {
		t.Errorf("identity span = %+v", loc)
	}
}

func TestLocalEmptyAndNoMatch(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(1, -1), DefaultGaps)
	if loc := al.Local(nil, nil); loc.Score != 0 {
		t.Error("empty alignment nonzero")
	}
	a := alphabet.MustEncodeProtein("AAAA")
	b := alphabet.MustEncodeProtein("RRRR")
	if loc := al.Local(a, b); loc.Score != 0 {
		t.Errorf("all-mismatch score = %d", loc.Score)
	}
}

func TestLocalFindsGappedAlignment(t *testing.T) {
	// Two identical halves with an insertion in b: score must beat the
	// ungapped alternative by paying one gap.
	al := NewAligner(matrix.NewMatchMismatch(2, -2), GapParams{Open: 3, Extend: 1})
	a := alphabet.MustEncodeProtein("WWWWWWKKKKKK")
	b := alphabet.MustEncodeProtein("WWWWWWAAAKKKKKK")
	loc := al.Local(a, b)
	want := 12*2 - (3 + 3*1) // 12 matches, one gap of length 3
	if loc.Score != want {
		t.Errorf("gapped score = %d, want %d", loc.Score, want)
	}
}

func TestLocalStartRecovery(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(2, -3), DefaultGaps)
	a := alphabet.MustEncodeProtein("DDDDWWWWWW")
	b := alphabet.MustEncodeProtein("RRRRRWWWWWW")
	loc := al.Local(a, b)
	if loc.AStart != 4 || loc.BStart != 5 {
		t.Errorf("start = (%d,%d), want (4,5)", loc.AStart, loc.BStart)
	}
	if loc.AEnd != 10 || loc.BEnd != 11 {
		t.Errorf("end = (%d,%d), want (10,11)", loc.AEnd, loc.BEnd)
	}
}

func TestLocalBandedWideBandEqualsLocal(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	f := func(raw0, raw1 [18]byte) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		full := al.Local(a, b)
		banded := al.LocalBanded(a, b, 0, len(a)+len(b))
		return full.Score == banded.Score
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalBandedRespectsBand(t *testing.T) {
	// With band 0 around diagonal 0 only the main diagonal is reachable:
	// the score equals the best clamped segment of pairwise scores.
	al := NewAligner(matrix.NewMatchMismatch(3, -3), GapParams{Open: 1, Extend: 1})
	a := alphabet.MustEncodeProtein("AAAAAA")
	b := alphabet.MustEncodeProtein("AAARAA")
	loc := al.LocalBandedEnd(a, b, 0, 0)
	// Best diagonal segment: all six pairs, 5 matches − 1 mismatch = 12.
	if loc.Score != 12 {
		t.Errorf("band-0 score = %d, want 12", loc.Score)
	}
	// Skipping the R with a cheap gap scores 5·3 − 2 = 13 but needs to
	// leave the diagonal, which band 0 forbids.
	wide := al.LocalBanded(a, b, 0, 3)
	if wide.Score != 13 {
		t.Errorf("wider band score = %d, want 13", wide.Score)
	}
}

func TestLocalBandedOffsetDiagonal(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(2, -2), DefaultGaps)
	// Match lies on diagonal +3.
	a := alphabet.MustEncodeProtein("WWWWW")
	b := alphabet.MustEncodeProtein("RRRWWWWW")
	loc := al.LocalBanded(a, b, 3, 1)
	if loc.Score != 10 {
		t.Errorf("offset-diag score = %d, want 10", loc.Score)
	}
	if loc.AStart != 0 || loc.BStart != 3 {
		t.Errorf("start = (%d,%d), want (0,3)", loc.AStart, loc.BStart)
	}
}

func TestLocalBandedStartRecoveryProperty(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	f := func(raw0, raw1 [22]byte, bandRaw uint8) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		band := int(bandRaw%10) + 1
		loc := al.LocalBanded(a, b, 0, band)
		if loc.Score == 0 {
			return true
		}
		// Realigning the recovered sub-ranges must reproduce the score.
		sub := al.LocalBanded(a[loc.AStart:loc.AEnd], b[loc.BStart:loc.BEnd],
			loc.BStart-loc.AStart+ /*shift to window*/ loc.AStart-loc.BStart, band)
		return sub.Score >= loc.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTracebackScoreMatchesLocal(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	f := func(raw0, raw1 [20]byte) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		full := al.Local(a, b)
		loc, ops := al.Traceback(a, b)
		if loc.Score != full.Score {
			return false
		}
		if loc.Score == 0 {
			return ops == nil
		}
		return opsScore(a, b, loc, ops, matrix.BLOSUM62, DefaultGaps) == loc.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// opsScore recomputes an alignment's score from its operations; -1<<30
// if the ops do not span the Local ranges exactly.
func opsScore(a, b []byte, loc Local, ops []Op, m *matrix.Matrix, gap GapParams) int {
	i, j, score := loc.AStart, loc.BStart, 0
	for _, op := range ops {
		switch op.Kind {
		case OpAligned:
			for k := 0; k < op.Len; k++ {
				score += m.Score(a[i], b[j])
				i++
				j++
			}
		case OpInsB:
			score -= gap.Open + gap.Extend*op.Len
			j += op.Len
		case OpDelB:
			score -= gap.Open + gap.Extend*op.Len
			i += op.Len
		}
	}
	if i != loc.AEnd || j != loc.BEnd {
		return -1 << 30
	}
	return score
}

func TestTracebackGappedOps(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(2, -2), GapParams{Open: 3, Extend: 1})
	a := alphabet.MustEncodeProtein("WWWWWWKKKKKK")
	b := alphabet.MustEncodeProtein("WWWWWWAAAKKKKKK")
	loc, ops := al.Traceback(a, b)
	if got := opsScore(a, b, loc, ops, al.m, al.gap); got != loc.Score {
		t.Errorf("ops score %d != loc score %d", got, loc.Score)
	}
	// Must contain exactly one insertion run of length 3.
	var ins int
	for _, op := range ops {
		if op.Kind == OpInsB {
			ins += op.Len
		}
	}
	if ins != 3 {
		t.Errorf("insertion length = %d, want 3", ins)
	}
}

func TestFormatAlignment(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	a := alphabet.MustEncodeProtein("MKVLILAC")
	b := alphabet.MustEncodeProtein("MKVLVLAC")
	loc, ops := al.Traceback(a, b)
	out := FormatAlignment(a, b, loc, ops, matrix.BLOSUM62)
	if !strings.Contains(out, "MKVLILAC") || !strings.Contains(out, "MKVLVLAC") {
		t.Errorf("alignment text missing sequences:\n%s", out)
	}
	if !strings.Contains(out, "MKVL") {
		t.Errorf("midline missing identities:\n%s", out)
	}
	if !strings.Contains(out, "+") {
		t.Errorf("midline should mark positive I/V substitution:\n%s", out)
	}
}

func TestAlignerScratchReuse(t *testing.T) {
	// Repeated calls with shrinking/growing sizes must not corrupt results.
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	a := alphabet.MustEncodeProtein("MKVLILACDEFGHIKLMN")
	b := alphabet.MustEncodeProtein("MKVLVLACDEFGHIKLMN")
	first := al.Local(a, b).Score
	al.Local(a[:4], b[:4])
	al.LocalBanded(a, b, 0, 3)
	second := al.Local(a, b).Score
	if first != second {
		t.Errorf("scratch reuse changed result: %d vs %d", first, second)
	}
}

func TestTracebackScratchReuse(t *testing.T) {
	// One Aligner tracing pairs of changing size must answer each as a
	// fresh Aligner does: the direction matrix is |=-written, so a
	// stale cell from a larger earlier call would corrupt the walk.
	rng := rand.New(rand.NewSource(11))
	reused := NewAligner(matrix.BLOSUM62, GapParams{Open: 3, Extend: 1})
	var kept [][]Op
	var want [][]Op
	for n := 0; n < 200; n++ {
		a := randomResidues(rng, 1+rng.Intn(60), 4)
		b := mutate(rng, a, 4, 0.2, 0.1)
		if len(b) == 0 {
			continue
		}
		loc, ops := reused.Traceback(a, b)
		wantLoc, wantOps := NewAligner(matrix.BLOSUM62, GapParams{Open: 3, Extend: 1}).Traceback(a, b)
		if loc != wantLoc || !reflect.DeepEqual(ops, wantOps) {
			t.Fatalf("call %d: reused aligner %+v %v, fresh aligner %+v %v", n, loc, ops, wantLoc, wantOps)
		}
		kept, want = append(kept, ops), append(want, wantOps)
	}
	// Returned operations must not alias the scratch later calls reuse.
	if !reflect.DeepEqual(kept, want) {
		t.Error("operations returned by earlier calls changed under later ones")
	}
}

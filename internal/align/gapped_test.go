package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
)

// Local is LocalBanded with a band as wide as the sequences: the
// unbanded affine local alignment the naive oracles score.
func (al *Aligner) Local(a, b []byte) Local {
	return al.LocalBanded(a, b, 0, max(len(a), len(b)))
}

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
		banded := al.LocalBanded(a, b, 0, len(a)+len(b))
		return banded.Score == naiveAffine(a, b, matrix.BLOSUM62, DefaultGaps)
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
		// Diagonal 0 of the full matrices is diagonal AStart-BStart of
		// the sub-ranges.
		sub := al.LocalBanded(a[loc.AStart:loc.AEnd], b[loc.BStart:loc.BEnd],
			loc.AStart-loc.BStart, band)
		return sub.Score >= loc.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// opsError re-scores ops under m and gap, walking them from loc's
// start, and returns what is wrong with them: a cell outside the band
// |(j - i) - diag| ≤ band or the matrix, spans they do not consume
// exactly, or a score other than loc.Score. Cells are counted as the
// DP counts them, 1-based, so an aligned pair at (i, j) is cell
// (i+1, j+1).
func opsError(a, b []byte, loc Local, ops []Op, m *matrix.Matrix, gap GapParams, diag, band int) error {
	if len(ops) == 0 || ops[0].Kind != OpAligned || ops[len(ops)-1].Kind != OpAligned {
		return fmt.Errorf("ops %v do not begin and end with an aligned pair", ops)
	}
	i, j, score := loc.AStart, loc.BStart, 0
	for _, op := range ops {
		if op.Len < 1 {
			return fmt.Errorf("empty run in %v", ops)
		}
		if op.Kind != OpAligned {
			score -= gap.Open
		}
		for n := 0; n < op.Len; n++ {
			switch op.Kind {
			case OpAligned:
				if i >= len(a) || j >= len(b) {
					return fmt.Errorf("pair (%d,%d) outside the matrix", i, j)
				}
				score += m.Score(a[i], b[j])
				i, j = i+1, j+1
			case OpDelB:
				score -= gap.Extend
				i++
			case OpInsB:
				score -= gap.Extend
				j++
			default:
				return fmt.Errorf("unknown op %q", op.Kind)
			}
			if d := j - i - diag; d < -max(band, 0) || d > max(band, 0) {
				return fmt.Errorf("cell (%d,%d) outside the band", i, j)
			}
		}
	}
	if i != loc.AEnd || j != loc.BEnd {
		return fmt.Errorf("ops end at (%d,%d), the alignment at (%d,%d)", i, j, loc.AEnd, loc.BEnd)
	}
	if score != loc.Score {
		return fmt.Errorf("ops score %d, the alignment %d", score, loc.Score)
	}
	return nil
}

// TestLocalBandedOpsRescoreInBand pins LocalBandedOps on the sweep of
// TestLocalBandedMatchesReference: the operations of every scored
// alignment re-score to its Score, stay in the band and consume its
// spans, and a lane the kernel scored (walked over its kept rows)
// gets the operations a fresh Aligner's scalar pass gives. With a band
// as wide as the sequences the score is naiveAffine's.
func TestLocalBandedOpsRescoreInBand(t *testing.T) {
	cases := 6000
	if testing.Short() {
		cases = 600
	}
	rng := rand.New(rand.NewSource(23))
	aligners := sweepAligners()
	walked := 0
	for n := 0; n < cases; n++ {
		letters := []int{2, 3, 4, 20}[n%4]
		c := drawBandedCase(rng, letters)
		al := aligners[n%len(aligners)]
		wide := n%5 == 0
		if wide {
			c.diag, c.band = 0, len(c.a)+len(c.b)
		}
		loc := al.LocalBanded(c.a, c.b, c.diag, c.band)
		kernel := al.kern.lane(c.a, c.b, Local{Score: loc.Score, AEnd: loc.AEnd, BEnd: loc.BEnd}, c.diag, c.band) >= 0
		ops := al.LocalBandedOps(c.a, c.b, loc, c.diag, c.band)
		if loc.Score == 0 {
			if ops != nil {
				t.Fatalf("case %d: ops %v for an alignment scoring 0", n, ops)
			}
			continue
		}
		if err := opsError(c.a, c.b, loc, ops, al.m, al.gap, c.diag, c.band); err != nil {
			t.Fatalf("case %d (letters=%d len(a)=%d len(b)=%d diag=%d band=%d gaps=%+v, kernel lane %v) %+v: %v",
				n, letters, len(c.a), len(c.b), c.diag, c.band, al.gap, kernel, loc, err)
		}
		if scalar := NewAligner(al.m, al.gap).LocalBandedOps(c.a, c.b, loc, c.diag, c.band); !reflect.DeepEqual(ops, scalar) {
			t.Fatalf("case %d (kernel lane %v): ops %v, scalar pass %v", n, kernel, ops, scalar)
		}
		if wide && loc.Score != naiveAffine(c.a, c.b, al.m, al.gap) {
			t.Fatalf("case %d: wide band scores %d, naiveAffine %d", n, loc.Score, naiveAffine(c.a, c.b, al.m, al.gap))
		}
		if kernel {
			walked++
		}
	}
	if HasAVX2 && walked < cases/4 {
		t.Errorf("only %d of %d cases walked kernel rows", walked, cases)
	}
}

// TestLocalBandedOpsGappedRun: two identical halves with an insertion
// in b align with one gap of three, and the tie order puts the
// operations of a free choice where it says.
func TestLocalBandedOpsGappedRun(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(2, -2), GapParams{Open: 3, Extend: 1})
	a := alphabet.MustEncodeProtein("WWWWWWKKKKKK")
	b := alphabet.MustEncodeProtein("WWWWWWAAAKKKKKK")
	band := len(a) + len(b)
	loc := al.LocalBanded(a, b, 0, band)
	ops := al.LocalBandedOps(a, b, loc, 0, band)
	want := []Op{{OpAligned, 6}, {OpInsB, 3}, {OpAligned, 6}}
	if loc.Score != 12*2-(3+3*1) || !reflect.DeepEqual(ops, want) {
		t.Errorf("%+v %v, want score 18 and %v", loc, ops, want)
	}
	// K against KK: the gap can sit before or after the pair, and at H
	// the diagonal comes first, so the walk back takes the pair first
	// and the gap goes in front of it.
	al = NewAligner(matrix.NewMatchMismatch(5, -4), GapParams{Open: 1, Extend: 1})
	a, b = alphabet.MustEncodeProtein("WKW"), alphabet.MustEncodeProtein("WKKW")
	loc = al.LocalBanded(a, b, 0, 4)
	ops = al.LocalBandedOps(a, b, loc, 0, 4)
	want = []Op{{OpAligned, 1}, {OpInsB, 1}, {OpAligned, 2}}
	if loc.Score != 13 || !reflect.DeepEqual(ops, want) {
		t.Errorf("%+v %v, want score 13 and %v", loc, ops, want)
	}
}

// TestLocalBandedOpsDeclines pins the nil results: an alignment
// scoring 0, a loc that is not LocalBanded's, one whose start or end
// lies outside the band, and gap costs under which a gap pays.
func TestLocalBandedOpsDeclines(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	a := alphabet.MustEncodeProtein("MKVLILACDEFGHIKLMN")
	b := alphabet.MustEncodeProtein("PPMKVLVLACDEFGHIKLMNPP")
	loc := al.LocalBanded(a, b, 2, 3)
	if err := opsError(a, b, loc, al.LocalBandedOps(a, b, loc, 2, 3), al.m, al.gap, 2, 3); err != nil {
		t.Fatal(err)
	}
	bad := []Local{{}, loc, loc, loc, loc, loc}
	bad[1].Score++
	bad[2].BEnd--
	bad[3].AStart, bad[3].BStart = loc.AStart+2, loc.BStart+2
	bad[4].BStart = loc.AStart + 2 - 4
	bad[5].AEnd = len(a) + 1
	for i, l := range bad {
		for _, fresh := range []bool{false, true} {
			x := al
			if fresh {
				x = NewAligner(al.m, al.gap)
			} else {
				al.LocalBandedEnd(a, b, 2, 3)
			}
			if ops := x.LocalBandedOps(a, b, l, 2, 3); ops != nil {
				t.Errorf("loc %d %+v (fresh Aligner %v): ops %v", i, l, fresh, ops)
			}
		}
	}
	for _, gap := range []GapParams{{Open: -1, Extend: 1}, {Open: 3, Extend: -1}} {
		pay := NewAligner(matrix.BLOSUM62, gap)
		if l := pay.LocalBanded(a, b, 2, 3); l.Score == 0 || pay.LocalBandedOps(a, b, l, 2, 3) != nil {
			t.Errorf("gap costs %+v: %+v with ops", gap, l)
		}
	}
}

func TestFormatAlignment(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	a := alphabet.MustEncodeProtein("MKVLILAC")
	b := alphabet.MustEncodeProtein("MKVLVLAC")
	loc := al.LocalBanded(a, b, 0, len(a)+len(b))
	out := FormatAlignment(a, b, loc, al.LocalBandedOps(a, b, loc, 0, len(a)+len(b)), matrix.BLOSUM62)
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

func TestLocalBandedOpsScratchReuse(t *testing.T) {
	// One Aligner taking the operations of pairs of changing size must
	// answer each as a fresh Aligner does, and the operations it
	// returned must not alias the scratch later calls reuse.
	rng := rand.New(rand.NewSource(11))
	reused := NewAligner(matrix.BLOSUM62, GapParams{Open: 3, Extend: 1})
	var kept [][]Op
	var want [][]Op
	for n := 0; n < 200; n++ {
		a := randomResidues(rng, 1+rng.Intn(60), 4)
		b := mutate(rng, a, 4, 0.2, 0.1)
		band := 1 + rng.Intn(12)
		loc := reused.LocalBanded(a, b, 0, band)
		ops := reused.LocalBandedOps(a, b, loc, 0, band)
		fresh := NewAligner(matrix.BLOSUM62, GapParams{Open: 3, Extend: 1})
		wantOps := fresh.LocalBandedOps(a, b, fresh.LocalBanded(a, b, 0, band), 0, band)
		if !reflect.DeepEqual(ops, wantOps) {
			t.Fatalf("call %d: reused aligner %+v %v, fresh aligner %v", n, loc, ops, wantOps)
		}
		kept, want = append(kept, ops), append(want, wantOps)
	}
	if !reflect.DeepEqual(kept, want) {
		t.Error("operations returned by earlier calls changed under later ones")
	}
}

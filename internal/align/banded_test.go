package align

import (
	"fmt"
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
// then the walk over the kept rows, or where the kernel declined the
// reverse pass on scratch buffers that stops at the first cell
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

// reverseStart is the start the scalar reverse pass returns for end,
// on fresh copies of the reversed prefixes: the first cell reaching
// end.Score, as in LocalBandedStart's fallback.
func reverseStart(al *Aligner, a, b []byte, end Local, diag, band int) (aStart, bStart int) {
	sub := al.bandedEndScalar(reverse(a[:end.AEnd]), reverse(b[:end.BEnd]), end.BEnd-end.AEnd-diag, band, end.Score)
	return end.AEnd - sub.AEnd, end.BEnd - sub.BEnd
}

// checkKernelCase compares the kernel path with the scalar loop on
// one case: the score pass, then the start the walk over the kept
// rows recovers against LocalBandedReference's. It reports whether
// the kernel took the case; every case it takes must be answered by
// the walk.
func checkKernelCase(t *testing.T, al *Aligner, c bandedCase) bool {
	t.Helper()
	want := al.bandedEndScalar(c.a, c.b, c.diag, c.band, noStop)
	ref := al.LocalBandedReference(c.a, c.b, c.diag, c.band)
	got, ok := al.bandedEndKernel(c.a, c.b, c.diag, c.band)
	if !ok {
		return false
	}
	if got != want {
		t.Fatalf("forward (len(a)=%d len(b)=%d diag=%d band=%d gaps=%+v):\nkernel %+v\nscalar %+v\na=%v\nb=%v",
			len(c.a), len(c.b), c.diag, c.band, al.gap, got, want, c.a, c.b)
	}
	if want.Score == 0 {
		return true
	}
	aStart, bStart, ok := al.walkStart(c.a, c.b, got, c.diag, c.band)
	if !ok || aStart != ref.AStart || bStart != ref.BStart {
		t.Fatalf("walk (len(a)=%d len(b)=%d diag=%d band=%d gaps=%+v):\nwalk %d,%d ok=%v\nreference %+v\na=%v\nb=%v",
			len(c.a), len(c.b), c.diag, c.band, al.gap, aStart, bStart, ok, ref, c.a, c.b)
	}
	return true
}

// scalarGapStates runs bandedEndScalar's recurrences over the whole
// matrix and returns the E and F of every cell, indexed [i][j]
// (1-based), negInf outside the band.
func scalarGapStates(al *Aligner, c bandedCase) (e, f [][]int32) {
	band := max(c.band, 0)
	oe, ext := int32(al.gap.Open+al.gap.Extend), int32(al.gap.Extend)
	la, lb := len(c.a), len(c.b)
	h := make([][]int32, la+1)
	e, f = make([][]int32, la+1), make([][]int32, la+1)
	for i := range h {
		h[i], e[i], f[i] = make([]int32, lb+2), make([]int32, lb+2), make([]int32, lb+2)
		for j := range e[i] {
			e[i][j], f[i][j] = negInf, negInf
		}
	}
	for i := 1; i <= la; i++ {
		lo, hi := max(1, i+c.diag-band), min(lb, i+c.diag+band)
		for j := lo; j <= hi; j++ {
			e[i][j] = maxI32(h[i-1][j]-oe, e[i-1][j]-ext)
			if j > lo {
				f[i][j] = maxI32(h[i][j-1]-oe, f[i][j-1]-ext)
			}
			h[i][j] = max(0, h[i-1][j-1]+int32(al.m.Score(c.a[i-1], c.b[j-1])), e[i][j], f[i][j])
		}
	}
	return e, f
}

// TestKernelKeptGapStates pins the E and F lanes the kernel keeps to
// the scalar loop's: for every in-band, in-matrix cell, the value when
// it is positive and 0 otherwise. The walk relies on nothing else.
func TestKernelKeptGapStates(t *testing.T) {
	if !hasBandedKernel {
		t.Skip("no banded kernel on this platform")
	}
	cases := 4000
	if testing.Short() {
		cases = 400
	}
	rng := rand.New(rand.NewSource(11))
	aligners := sweepAligners()
	for n := 0; n < cases; n++ {
		c := drawBandedCase(rng, []int{2, 3, 4, 20}[n%4])
		al := aligners[n%len(aligners)]
		if _, ok := al.bandedEndKernel(c.a, c.b, c.diag, c.band); !ok {
			t.Fatalf("case %d: kernel declined a case that fits it", n)
		}
		k := &al.kern
		e, f := scalarGapStates(al, c)
		band := max(c.band, 0)
		for i := 1; i <= len(c.a); i++ {
			for j := max(1, i+c.diag-band); j <= min(len(c.b), i+c.diag+band); j++ {
				p := (i-k.i0+1)*k.stride + j - i - k.dlo
				for _, s := range []struct {
					name      string
					kept      int16
					reference int32
				}{{"E", k.e[p], e[i][j]}, {"F", k.f[p], f[i][j]}} {
					if int32(s.kept) != max(s.reference, 0) {
						t.Fatalf("case %d (gaps=%+v len(a)=%d len(b)=%d diag=%d band=%d): %s at (%d,%d) kept %d, scalar %d",
							n, al.gap, len(c.a), len(c.b), c.diag, c.band, s.name, i, j, s.kept, s.reference)
					}
				}
			}
		}
	}
}

// TestLocalBandedStartFallsBack pins the walk's precondition: a
// LocalBandedStart that does not directly follow its own score pass —
// another pass in between, another diagonal or band, or equal contents
// in other slices — is not walked, and the reverse pass still returns
// the reference start.
func TestLocalBandedStartFallsBack(t *testing.T) {
	if !hasBandedKernel {
		t.Skip("no banded kernel on this platform")
	}
	rng := rand.New(rand.NewSource(5))
	aligners := sweepAligners()
	checked := 0
	for n := 0; n < 2000; n++ {
		al := aligners[n%len(aligners)]
		letters := []int{2, 3, 4, 20}[n%4]
		c, other := drawBandedCase(rng, letters), drawBandedCase(rng, letters)
		end := al.LocalBandedEnd(c.a, c.b, c.diag, c.band)
		if end.Score == 0 {
			continue
		}
		checked++
		bCopy := append([]byte(nil), c.b...)
		for _, stale := range []struct {
			name       string
			a, b       []byte
			diag, band int
			between    func()
		}{
			{"pass between", c.a, c.b, c.diag, c.band, func() { al.LocalBandedEnd(other.a, other.b, other.diag, other.band) }},
			{"copied subject", c.a, bCopy, c.diag, c.band, func() {}},
			{"other diagonal", c.a, c.b, c.diag + 1, c.band, func() {}},
			{"other band", c.a, c.b, c.diag, c.band + 1, func() {}},
		} {
			wa, wb := reverseStart(al, c.a, c.b, end, stale.diag, stale.band)
			al.LocalBandedEnd(c.a, c.b, c.diag, c.band)
			stale.between()
			if _, _, ok := al.walkStart(stale.a, stale.b, end, stale.diag, stale.band); ok {
				t.Fatalf("case %d, %s: walked rows of another pass", n, stale.name)
			}
			if a, b := al.LocalBandedStart(stale.a, stale.b, end, stale.diag, stale.band); a != wa || b != wb {
				t.Fatalf("case %d, %s: start %d,%d, reverse pass %d,%d", n, stale.name, a, b, wa, wb)
			}
		}
	}
	if checked < 500 {
		t.Errorf("only %d cases scored above zero", checked)
	}
}

// TestBandedKernelMatchesScalar is the deterministic sweep behind
// FuzzLocalBandedKernel: random and planted cases over every alphabet
// size, band and scoring system of the sweep, then the shapes a random
// draw rarely produces.
func TestBandedKernelMatchesScalar(t *testing.T) {
	if !hasBandedKernel {
		t.Skip("no banded kernel on this platform")
	}
	cases := 40000
	if testing.Short() {
		cases = 4000
	}
	rng := rand.New(rand.NewSource(7))
	aligners := sweepAligners()
	for n := 0; n < cases; n++ {
		c := drawBandedCase(rng, []int{2, 3, 4, 20}[n%4])
		if !checkKernelCase(t, aligners[n%len(aligners)], c) {
			t.Fatalf("case %d: kernel declined a case that fits it (len(a)=%d len(b)=%d band=%d)", n, len(c.a), len(c.b), c.band)
		}
	}

	al := aligners[0]
	// Every diagonal from wholly left of the matrix to wholly right
	// of it, for each band: the band clipped at all four edges.
	for _, shape := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {5, 23}, {23, 5}, {17, 17}, {40, 64}} {
		a, b := randomResidues(rng, shape[0], 3), randomResidues(rng, shape[1], 3)
		for _, band := range sweepBands {
			for diag := -shape[0] - band - 2; diag <= shape[1]+band+2; diag++ {
				for _, al := range aligners {
					if !checkKernelCase(t, al, bandedCase{a, b, diag, band}) {
						t.Fatalf("kernel declined shape %v diag %d band %d", shape, diag, band)
					}
				}
			}
		}
	}
	// Band widths around the 8-lane vector boundaries, on identical
	// sequences (one long diagonal of ties in a 2-letter alphabet).
	s := randomResidues(rng, 90, 2)
	for band := 0; band <= 20; band++ {
		for _, diag := range []int{-3, 0, 2} {
			checkKernelCase(t, aligners[2], bandedCase{s, s, diag, band})
		}
	}
	// Empty inputs.
	for _, c := range []bandedCase{{nil, nil, 0, 3}, {s, nil, 0, 3}, {nil, s, 0, 3}} {
		if got, ok := al.bandedEndKernel(c.a, c.b, c.diag, c.band); !ok || got != (Local{}) {
			t.Errorf("empty input: kernel returned %+v ok=%v", got, ok)
		}
	}
}

// TestBandedKernelFallback pins the calls the kernel must decline,
// and that LocalBanded still answers them exactly.
func TestBandedKernelFallback(t *testing.T) {
	if !hasBandedKernel {
		t.Skip("no banded kernel on this platform")
	}
	rng := rand.New(rand.NewSource(3))
	// 3000 identical residues at BLOSUM62's W-W score of 11 would
	// reach 33000 > MaxInt16.
	long := make([]byte, 3000)
	for i := range long {
		long[i] = 17 // Trp
	}
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	if _, ok := al.bandedEndKernel(long, long, 0, 4); ok {
		t.Error("kernel took a call whose scores can exceed int16")
	}
	if got, want := al.LocalBanded(long, long, 0, 4), al.LocalBandedReference(long, long, 0, 4); got != want || got.Score != 33000 {
		t.Errorf("int16 fallback: got %+v, reference %+v, want score 33000", got, want)
	}
	// The same length is fine when the other side is short.
	if _, ok := al.bandedEndKernel(long, long[:100], 0, 4); !ok {
		t.Error("kernel declined a long query against a short subject")
	}
	a, b := randomResidues(rng, 50, 20), randomResidues(rng, 60, 20)
	for _, gap := range []GapParams{{Open: -1, Extend: 2}, {Open: 3, Extend: 0}, {Open: 11, Extend: -1}, {Open: 5000, Extend: 1}} {
		al := NewAligner(matrix.BLOSUM62, gap)
		if _, ok := al.bandedEndKernel(a, b, 0, 8); ok {
			t.Errorf("kernel took gap costs %+v", gap)
		}
	}
	// A band wider than the kernel's scratch bound.
	wide := randomResidues(rng, 2000, 20)
	if _, ok := al.bandedEndKernel(wide, wide, 0, 2000); ok {
		t.Error("kernel took a 4001-lane band")
	}
	// Residues outside the alphabet, in either sequence: declined, so
	// that the scalar loop reports them.
	for _, code := range []byte{24, 31, 32, 127, 128, 255} {
		for _, pos := range []int{0, 7, 8, 49} {
			bad := append([]byte(nil), a...)
			bad[pos] = code
			if _, ok := al.bandedEndKernel(bad, b, 0, 8); ok {
				t.Errorf("kernel took query residue %d at %d", code, pos)
			}
			if _, ok := al.bandedEndKernel(b, bad, 0, 8); ok {
				t.Errorf("kernel took subject residue %d at %d", code, pos)
			}
		}
	}
}

// FuzzLocalBandedKernel fuzzes the kernel against the scalar loop:
// sequences, diagonal, band, gap costs and a matrix all derived from
// the fuzzed arguments.
func FuzzLocalBandedKernel(f *testing.F) {
	f.Add(int64(1), 120, 150, 10, 16, 11, 1, int8(5), int8(-4), 20)
	f.Add(int64(2), 1, 1, 0, 0, 0, 1, int8(1), int8(-1), 2)
	f.Add(int64(3), 64, 9, -70, 40, 2, 1, int8(127), int8(-128), 3)
	f.Add(int64(4), 33, 200, 150, 7, 3, 2, int8(0), int8(0), 4)
	f.Add(int64(5), 300, 300, 0, 1, 100, 50, int8(11), int8(-128), 2)
	// Found by the fuzzer: a negative extension cost, under which the
	// reverse pass exceeds the forward score and must not stop early.
	f.Add(int64(18), 17, 156, 113, 58, 3, -20, int8(91), int8(0), 4)
	f.Fuzz(func(t *testing.T, rngSeed int64, la, lb, diag, band, open, extend int, match, mismatch int8, letters int) {
		if !hasBandedKernel {
			t.Skip()
		}
		if la < 0 || la > 400 || lb < 0 || lb > 400 || band < -2 || band > 500 ||
			diag < -1000 || diag > 1000 || letters < 1 || letters > 24 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(rngSeed))
		// A full random matrix built from the two fuzzed scores, as in
		// FuzzWindowScoreKernel: asymmetric and extreme tables included.
		table := make([]int8, 24*24)
		for i := range table {
			switch rng.Intn(3) {
			case 0:
				table[i] = match
			case 1:
				table[i] = mismatch
			default:
				table[i] = int8(rng.Intn(256) - 128)
			}
		}
		m, err := matrix.New("fuzz", table)
		if err != nil {
			t.Fatal(err)
		}
		al := NewAligner(m, GapParams{Open: open, Extend: extend})
		c := bandedCase{a: randomResidues(rng, la, letters), diag: diag, band: band}
		if rng.Intn(2) == 0 {
			c.b = randomResidues(rng, lb, letters)
		} else {
			c.b = mutate(rng, c.a, letters, 0.2, 0.05)
		}
		// Whether the kernel takes the case or declines it, the
		// shipped entry point must agree with the reference.
		checkKernelCase(t, al, c)
		if got, want := al.LocalBanded(c.a, c.b, c.diag, c.band), al.LocalBandedReference(c.a, c.b, c.diag, c.band); got != want {
			t.Fatalf("LocalBanded %+v, reference %+v", got, want)
		}
	})
}

// BenchmarkStep3Kernel times the banded score pass on a homolog pair
// at the gapped stage's band, kernel against scalar loop, in ns per
// nominal DP cell (rows × 33), the unit of the benchmark's
// gapped.ns_per_cell. The kernel+start row is what a survivor of the
// E-value cut costs: the score pass, then LocalBandedStart.
func BenchmarkStep3Kernel(b *testing.B) {
	const band = 16
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	for _, rows := range []int{120, 600} {
		rng := rand.New(rand.NewSource(int64(rows)))
		q := randomResidues(rng, rows, 20)
		s := append(randomResidues(rng, band+8, 20), mutate(rng, q, 20, 0.3, 0.02)...)
		s = append(s, randomResidues(rng, band+8, 20)...)
		want := al.LocalBandedReference(q, s, band+8, band)
		run := func(name string, want Local, pass func() Local) {
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if got := pass(); got != want {
						b.Fatalf("got %+v, want %+v", got, want)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*(2*band+1)), "ns/cell")
			})
		}
		end := want
		end.AStart, end.BStart = 0, 0
		run("scalar", end, func() Local { return al.bandedEndScalar(q, s, band+8, band, noStop) })
		if hasBandedKernel {
			run("kernel", end, func() Local {
				got, _ := al.bandedEndKernel(q, s, band+8, band)
				return got
			})
		}
		run("kernel+start", want, func() Local { return al.LocalBanded(q, s, band+8, band) })
	}
}

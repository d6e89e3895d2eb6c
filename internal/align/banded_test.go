package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

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
	sub := al.bandedEndScalar(reverseInto(nil, a[:end.AEnd]), reverseInto(nil, b[:end.BEnd]), end.BEnd-end.AEnd-diag, band, end.Score, nil)
	return end.AEnd - sub.AEnd, end.BEnd - sub.BEnd
}

// kernelBatch is one LocalBandedEnds pass: one query, one band, a
// subject window and a diagonal per lane.
type kernelBatch struct {
	a     []byte
	bs    [][]byte
	diags []int
	band  int
}

func (kb kernelBatch) lane(l int) bandedCase {
	return bandedCase{kb.a, kb.bs[l], kb.diags[l], kb.band}
}

// drawBatch draws a pass of 1..BatchLanes lanes over one query, as the
// gapped stage builds them and beyond: windows of mixed lengths,
// planted mutated copies of the query (the band near them or not),
// unrelated subjects, and diagonals from left of the matrix to right
// of it, so that lanes are clipped at both subject ends or lie wholly
// outside the matrix.
func drawBatch(rng *rand.Rand, letters int) kernelBatch {
	first := drawBandedCase(rng, letters)
	kb := kernelBatch{a: first.a, band: first.band}
	n := 1 + rng.Intn(BatchLanes)
	for l := 0; l < n; l++ {
		c := first
		if l > 0 {
			c = drawBandedCase(rng, letters)
			c.a = kb.a
			if rng.Intn(2) == 0 {
				left := rng.Intn(30)
				c.b = append(randomResidues(rng, left, letters), mutate(rng, kb.a, letters, 0.2, 0.03)...)
				c.b = append(c.b, randomResidues(rng, rng.Intn(30), letters)...)
				c.diag = left + rng.Intn(2*kb.band+5) - kb.band - 2
			} else {
				c.diag = rng.Intn(len(kb.a)+len(c.b)+2*kb.band+8) - len(kb.a) - kb.band - 4
			}
		}
		kb.bs, kb.diags = append(kb.bs, c.b), append(kb.diags, c.diag)
	}
	return kb
}

// checkBatch runs kb through the kernel and checks every lane it took
// against the scalar loop, then every scored lane's walked start
// against LocalBandedReference and its operations, walked over the
// kept rows, against those of a scalar pass (opsError checks those),
// walking the lanes in reverse so that each walk reads rows of the
// pass, not of its own lane alone. It returns the lanes the kernel
// took.
func checkBatch(t *testing.T, al *Aligner, kb kernelBatch) uint32 {
	t.Helper()
	out := make([]Local, len(kb.bs))
	done := al.bandedEndsKernel(kb.a, kb.bs, kb.diags, kb.band, out)
	for l := range kb.bs {
		if done&(1<<l) == 0 {
			continue
		}
		c := kb.lane(l)
		if want := al.bandedEndScalar(c.a, c.b, c.diag, c.band, noStop, nil); out[l] != want {
			t.Fatalf("lane %d of %d (len(a)=%d len(b)=%d diag=%d band=%d gaps=%+v):\nkernel %+v\nscalar %+v\na=%v\nb=%v",
				l, len(kb.bs), len(c.a), len(c.b), c.diag, c.band, al.gap, out[l], want, c.a, c.b)
		}
	}
	// The reference passes run the scalar loop, which leaves the kept
	// rows alone; scalar has run no kernel pass.
	scalar := NewAligner(al.m, al.gap)
	for l := len(kb.bs) - 1; l >= 0; l-- {
		if done&(1<<l) == 0 || out[l].Score == 0 {
			continue
		}
		c := kb.lane(l)
		ref := al.LocalBandedReference(c.a, c.b, c.diag, c.band)
		aStart, bStart, ok := al.walkStart(c.a, c.b, out[l], c.diag, c.band)
		if !ok || aStart != ref.AStart || bStart != ref.BStart {
			t.Fatalf("walk, lane %d of %d (len(a)=%d len(b)=%d diag=%d band=%d gaps=%+v):\nwalk %d,%d ok=%v\nreference %+v\na=%v\nb=%v",
				l, len(kb.bs), len(c.a), len(c.b), c.diag, c.band, al.gap, aStart, bStart, ok, ref, c.a, c.b)
		}
		ops, want := al.LocalBandedOps(c.a, c.b, ref, c.diag, c.band), scalar.LocalBandedOps(c.a, c.b, ref, c.diag, c.band)
		if err := opsError(c.a, c.b, ref, ops, al.m, al.gap, c.diag, c.band); err != nil || !reflect.DeepEqual(ops, want) {
			t.Fatalf("ops, lane %d of %d (len(a)=%d len(b)=%d diag=%d band=%d gaps=%+v) %+v: %v\nkernel %v\nscalar %v\na=%v\nb=%v",
				l, len(kb.bs), len(c.a), len(c.b), c.diag, c.band, al.gap, ref, err, ops, want, c.a, c.b)
		}
	}
	return done
}

// allLanes is the done set of a pass that fits the kernel: every
// lane, unless the query is empty and the scalar loop answers.
func allLanes(kb kernelBatch) uint32 {
	if len(kb.a) == 0 {
		return 0
	}
	return 1<<len(kb.bs) - 1
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

// TestKernelKeptGapStates pins the E and F the kernel keeps, in the
// interleaved rows of a pass, to the scalar loop's: for every lane and
// every in-band, in-matrix cell, the value when it is positive and 0
// otherwise. The walk relies on nothing else.
func TestKernelKeptGapStates(t *testing.T) {
	if !HasAVX2 {
		t.Skip("no banded kernel on this host")
	}
	cases := 1500
	if testing.Short() {
		cases = 150
	}
	rng := rand.New(rand.NewSource(11))
	aligners := sweepAligners()
	for n := 0; n < cases; n++ {
		kb := drawBatch(rng, []int{2, 3, 4, 20}[n%4])
		al := aligners[n%len(aligners)]
		out := make([]Local, len(kb.bs))
		if done := al.bandedEndsKernel(kb.a, kb.bs, kb.diags, kb.band, out); done != allLanes(kb) {
			t.Fatalf("case %d: kernel took lanes %b of a pass that fits it", n, done)
		}
		k := &al.kern
		band := max(kb.band, 0)
		for l := range kb.bs {
			c := kb.lane(l)
			e, f := scalarGapStates(al, c)
			for i := 1; i <= len(c.a); i++ {
				for j := max(1, i+c.diag-band); j <= min(len(c.b), i+c.diag+band); j++ {
					p := (i*k.stride+j-i-c.diag+band)*kernelCell + l
					for _, s := range []struct {
						name      string
						kept      int16
						reference int32
					}{{"E", k.rows[p+BatchLanes], e[i][j]}, {"F", k.rows[p+2*BatchLanes], f[i][j]}} {
						if int32(s.kept) != max(s.reference, 0) {
							t.Fatalf("case %d lane %d of %d (gaps=%+v len(a)=%d len(b)=%d diag=%d band=%d): %s at (%d,%d) kept %d, scalar %d",
								n, l, len(kb.bs), al.gap, len(c.a), len(c.b), c.diag, c.band, s.name, i, j, s.kept, s.reference)
						}
					}
				}
			}
		}
	}
}

// TestLocalBandedStartFallsBack pins the walk's precondition: a
// LocalBandedStart for no lane of the last pass — another pass in
// between, another diagonal or band, or equal contents in other
// slices — is not walked, and the reverse pass still returns the
// reference start.
func TestLocalBandedStartFallsBack(t *testing.T) {
	if !HasAVX2 {
		t.Skip("no banded kernel on this host")
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
			{"forgotten", c.a, c.b, c.diag, c.band, al.Forget},
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

// TestBatchKernelMatchesScalar is the deterministic sweep behind
// FuzzLocalBandedKernel: random passes of 1 to 16 lanes over every
// alphabet size, band and scoring system of the sweep, passes with
// lanes the kernel must leave to the scalar loop beside lanes it
// takes, then the shapes a random draw rarely produces.
func TestBatchKernelMatchesScalar(t *testing.T) {
	if !HasAVX2 {
		t.Skip("no banded kernel on this host")
	}
	cases := 6000
	if testing.Short() {
		cases = 600
	}
	rng := rand.New(rand.NewSource(7))
	aligners := sweepAligners()
	lanes := 0
	for n := 0; n < cases; n++ {
		kb := drawBatch(rng, []int{2, 3, 4, 20}[n%4])
		if done := checkBatch(t, aligners[n%len(aligners)], kb); done != allLanes(kb) {
			t.Fatalf("case %d: kernel took lanes %b of a pass that fits it (len(a)=%d band=%d)", n, done, len(kb.a), kb.band)
		}
		lanes += len(kb.bs)
	}
	if lanes < 6*cases {
		t.Errorf("%d lanes in %d passes: the generator no longer fills passes", lanes, cases)
	}

	// Fallback lanes beside kernel lanes: a subject with a code outside
	// the alphabet, and one long enough that its scores can pass int16,
	// in the middle and at both ends of a pass.
	al := aligners[0]
	a := randomResidues(rng, 3000, 20)
	long := mutate(rng, a, 20, 0.05, 0)
	for _, at := range []int{0, 7, 15} {
		kb := kernelBatch{a: a, band: 16}
		for l := 0; l < BatchLanes; l++ {
			b := append(randomResidues(rng, 20, 20), mutate(rng, a[100*l:100*l+150], 20, 0.2, 0.02)...)
			kb.bs, kb.diags = append(kb.bs, b), append(kb.diags, 20-100*l)
		}
		good := kb.bs[at]
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] = 24
		kb.bs[at] = bad
		kb.bs[(at+5)%BatchLanes], kb.diags[(at+5)%BatchLanes] = long, 0
		want := allLanes(kb) &^ (1<<at | 1<<((at+5)%BatchLanes))
		if done := checkBatch(t, al, kb); done != want {
			t.Fatalf("fallback lanes at %d: kernel took %b, want %b", at, done, want)
		}
		out := make([]Local, BatchLanes)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fallback lanes at %d: a non-protein code did not reach the scalar loop's panic", at)
				}
			}()
			al.LocalBandedEnds(kb.a, kb.bs, kb.diags, kb.band, out)
		}()
		kb.bs[at] = good
		al.LocalBandedEnds(kb.a, kb.bs, kb.diags, kb.band, out)
		for l := range kb.bs {
			if c := kb.lane(l); out[l] != al.bandedEndScalar(c.a, c.b, c.diag, c.band, noStop, nil) {
				t.Fatalf("fallback lanes at %d: LocalBandedEnds lane %d differs from the scalar loop", at, l)
			}
		}
	}

	// Every diagonal from wholly left of the matrix to wholly right
	// of it, sixteen to a pass, for each band: windows clipped at both
	// subject ends.
	for _, shape := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {5, 23}, {23, 5}, {17, 17}, {40, 64}} {
		a, b := randomResidues(rng, shape[0], 3), randomResidues(rng, shape[1], 3)
		for _, band := range sweepBands {
			kb := kernelBatch{a: a, band: band}
			flush := func() {
				for _, al := range aligners {
					if done := checkBatch(t, al, kb); done != allLanes(kb) {
						t.Fatalf("kernel declined shape %v diags %v band %d", shape, kb.diags, band)
					}
				}
				kb.bs, kb.diags = nil, nil
			}
			for diag := -shape[0] - band - 2; diag <= shape[1]+band+2; diag++ {
				kb.bs, kb.diags = append(kb.bs, b), append(kb.diags, diag)
				if len(kb.bs) == BatchLanes {
					flush()
				}
			}
			if len(kb.bs) > 0 {
				flush()
			}
		}
	}
	// Empty inputs.
	s := randomResidues(rng, 90, 2)
	for _, kb := range []kernelBatch{{nil, [][]byte{nil}, []int{0}, 3}, {s, [][]byte{nil, s}, []int{0, 5}, 3}, {nil, [][]byte{s}, []int{0}, 3}} {
		out := make([]Local, len(kb.bs))
		al.bandedEndsKernel(kb.a, kb.bs, kb.diags, kb.band, out)
		for l := range kb.bs {
			if c := kb.lane(l); out[l] != al.bandedEndScalar(c.a, c.b, c.diag, c.band, noStop, nil) {
				t.Errorf("empty input lane %d: kernel returned %+v", l, out[l])
			}
		}
	}
}

// TestBandedKernelFallback pins the calls the kernel must decline,
// and that LocalBanded still answers them exactly.
func TestBandedKernelFallback(t *testing.T) {
	if !HasAVX2 {
		t.Skip("no banded kernel on this host")
	}
	rng := rand.New(rand.NewSource(3))
	took := func(al *Aligner, a, b []byte, diag, band int) bool {
		var out [1]Local
		return al.bandedEndsKernel(a, [][]byte{b}, []int{diag}, band, out[:]) != 0
	}
	// 3000 identical residues at BLOSUM62's W-W score of 11 would
	// reach 33000 > MaxInt16.
	long := make([]byte, 3000)
	for i := range long {
		long[i] = 17 // Trp
	}
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	if took(al, long, long, 0, 4) {
		t.Error("kernel took a call whose scores can exceed int16")
	}
	if got, want := al.LocalBanded(long, long, 0, 4), al.LocalBandedReference(long, long, 0, 4); got != want || got.Score != 33000 {
		t.Errorf("int16 fallback: got %+v, reference %+v, want score 33000", got, want)
	}
	// The same length is fine when the other side is short.
	if !took(al, long, long[:100], 0, 4) {
		t.Error("kernel declined a long query against a short subject")
	}
	a, b := randomResidues(rng, 50, 20), randomResidues(rng, 60, 20)
	for _, gap := range []GapParams{{Open: -1, Extend: 2}, {Open: 3, Extend: 0}, {Open: 11, Extend: -1}, {Open: 40000, Extend: 1}} {
		al := NewAligner(matrix.BLOSUM62, gap)
		if took(al, a, b, 0, 8) || al.BatchKernel() {
			t.Errorf("kernel took gap costs %+v", gap)
		}
	}
	// Passes past the kept rows' bound, by rows and by band.
	wide := randomResidues(rng, 2000, 20)
	if took(al, wide, wide, 0, 2000) {
		t.Error("kernel took a 4001-cell band")
	}
	tall := randomResidues(rng, kernelMaxCells/34, 20)
	if took(al, tall, tall[:200], 0, 16) {
		t.Errorf("kernel took a %d-row pass at band 16", len(tall))
	}
	// Residues outside the alphabet, in either sequence: declined, so
	// that the scalar loop reports them.
	for _, code := range []byte{24, 31, 32, 127, 128, 255} {
		for _, pos := range []int{0, 7, 8, 49} {
			bad := append([]byte(nil), a...)
			bad[pos] = code
			if took(al, bad, b, 0, 8) {
				t.Errorf("kernel took query residue %d at %d", code, pos)
			}
			if took(al, b, bad, 0, 8) {
				t.Errorf("kernel took subject residue %d at %d", code, pos)
			}
		}
	}
}

// TestReserveKeepsRows pins the kept rows' lifetime: Reserve maps
// them once, passes within the reserved size (fewer rows, a narrower
// band) reuse them, and a longer query maps larger ones, after which
// passes still match the scalar loop.
func TestReserveKeepsRows(t *testing.T) {
	if !HasAVX2 {
		t.Skip("no banded kernel on this host")
	}
	rng := rand.New(rand.NewSource(9))
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	al.Reserve(150, 16)
	rows := unsafe.SliceData(al.kern.rows)
	if rows == nil {
		t.Fatal("Reserve mapped no rows")
	}
	check := func(la, band int) {
		t.Helper()
		a := randomResidues(rng, la, 20)
		kb := kernelBatch{a: a, band: band}
		for l := 0; l < BatchLanes; l++ {
			kb.bs, kb.diags = append(kb.bs, mutate(rng, a, 20, 0.2, 0.02)), append(kb.diags, rng.Intn(9)-4)
		}
		if done := checkBatch(t, al, kb); done != allLanes(kb) {
			t.Fatalf("kernel took lanes %b of a %d-row pass", done, la)
		}
	}
	for _, shape := range [][2]int{{150, 16}, {20, 16}, {150, 3}, {300, 7}} {
		check(shape[0], shape[1])
		if got := unsafe.SliceData(al.kern.rows); got != rows {
			t.Fatalf("a pass of %d rows at band %d mapped new rows inside the reserved size", shape[0], shape[1])
		}
	}
	check(600, 16)
	if unsafe.SliceData(al.kern.rows) == rows {
		t.Fatal("a 600-row pass ran in rows reserved for 150")
	}
	rows = unsafe.SliceData(al.kern.rows)
	al.Reserve(100, 16)
	check(100, 16)
	if unsafe.SliceData(al.kern.rows) != rows {
		t.Fatal("a smaller Reserve mapped new rows")
	}
}

// FuzzLocalBandedKernel fuzzes the kernel against the scalar loop:
// passes of up to sixteen lanes over one query, with sequences,
// diagonals, band, gap costs and a matrix all derived from the fuzzed
// arguments.
func FuzzLocalBandedKernel(f *testing.F) {
	f.Add(int64(1), 120, 150, 10, 16, 11, 1, int8(5), int8(-4), 20, uint8(16))
	f.Add(int64(2), 1, 1, 0, 0, 0, 1, int8(1), int8(-1), 2, uint8(1))
	f.Add(int64(3), 64, 9, -70, 40, 2, 1, int8(127), int8(-128), 3, uint8(5))
	f.Add(int64(4), 33, 200, 150, 7, 3, 2, int8(0), int8(0), 4, uint8(9))
	f.Add(int64(5), 300, 300, 0, 1, 100, 50, int8(11), int8(-128), 2, uint8(16))
	// Found by the fuzzer: a negative extension cost, under which the
	// reverse pass exceeds the forward score and must not stop early.
	f.Add(int64(18), 17, 156, 113, 58, 3, -20, int8(91), int8(0), 4, uint8(2))
	// Found by the fuzzer: a negative open cost, under which closing a
	// gap and opening the next at once beats extending it.
	f.Add(int64(-133), 120, 150, 10, 83, -2, 97, int8(-71), int8(25), 22, uint8(16))
	f.Fuzz(func(t *testing.T, rngSeed int64, la, lb, diag, band, open, extend int, match, mismatch int8, letters int, lanes uint8) {
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
		kb := kernelBatch{a: randomResidues(rng, la, letters), band: band}
		for l := 0; l < 1+int(lanes)%BatchLanes; l++ {
			d := diag + rng.Intn(2*max(band, 0)+9) - max(band, 0) - 4
			switch rng.Intn(3) {
			case 0:
				kb.bs = append(kb.bs, randomResidues(rng, lb, letters))
			case 1:
				kb.bs = append(kb.bs, mutate(rng, kb.a, letters, 0.2, 0.05))
			default:
				kb.bs = append(kb.bs, randomResidues(rng, rng.Intn(lb+1), letters))
				d = rng.Intn(la+lb+2*max(band, 0)+9) - la - max(band, 0) - 4
			}
			kb.diags = append(kb.diags, d)
		}
		// Whether the kernel takes a lane or declines it, the shipped
		// entry points must agree with the reference.
		checkBatch(t, al, kb)
		out := make([]Local, len(kb.bs))
		al.LocalBandedEnds(kb.a, kb.bs, kb.diags, kb.band, out)
		for l := range kb.bs {
			c := kb.lane(l)
			want := al.LocalBandedReference(c.a, c.b, c.diag, c.band)
			if got := out[l]; got.Score != want.Score || got.AEnd != want.AEnd || got.BEnd != want.BEnd {
				t.Fatalf("LocalBandedEnds lane %d: %+v, reference %+v", l, got, want)
			}
			if got := al.LocalBanded(c.a, c.b, c.diag, c.band); got != want {
				t.Fatalf("LocalBanded lane %d: %+v, reference %+v", l, got, want)
			}
			// Operations, under the gap costs that admit them.
			ops := al.LocalBandedOps(c.a, c.b, want, c.diag, c.band)
			if open >= 0 && extend >= 0 && open+extend >= 1 && want.Score > 0 {
				if err := opsError(c.a, c.b, want, ops, m, al.gap, c.diag, c.band); err != nil {
					t.Fatalf("LocalBandedOps lane %d %+v: %v", l, want, err)
				}
			} else if ops != nil {
				t.Fatalf("LocalBandedOps lane %d %+v under gap costs %+v: %v", l, want, al.gap, ops)
			}
		}
	})
}

// BenchmarkStep3Kernel times the banded score pass on homolog windows
// at the gapped stage's band, in ns per nominal DP cell (rows × 33 per
// extension), the unit of the benchmark's gapped.ns_per_cell: the
// scalar loop, a full pass of sixteen lanes, a pass of one lane, and
// a full pass followed by every lane's LocalBandedStart, which is
// what sixteen survivors of the E-value cut cost.
func BenchmarkStep3Kernel(b *testing.B) {
	const band = 16
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	for _, rows := range []int{120, 600} {
		rng := rand.New(rand.NewSource(int64(rows)))
		q := randomResidues(rng, rows, 20)
		var bs [][]byte
		var diags []int
		var want []Local
		for l := 0; l < BatchLanes; l++ {
			s := append(randomResidues(rng, band+8, 20), mutate(rng, q, 20, 0.3, 0.02)...)
			s = append(s, randomResidues(rng, band+8, 20)...)
			bs, diags = append(bs, s), append(diags, band+8)
			want = append(want, al.LocalBandedReference(q, s, band+8, band))
		}
		ends := make([]Local, BatchLanes)
		for l, w := range want {
			ends[l] = Local{Score: w.Score, AEnd: w.AEnd, BEnd: w.BEnd}
		}
		out := make([]Local, BatchLanes)
		run := func(name string, lanes int, pass func()) {
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lanes*rows*(2*band+1)), "ns/cell")
				if out[0] != want[0] && out[0] != ends[0] {
					b.Fatalf("got %+v, want %+v", out[0], want[0])
				}
			})
		}
		run("scalar", 1, func() { out[0] = al.bandedEndScalar(q, bs[0], band+8, band, noStop, nil) })
		run("batch16", BatchLanes, func() { al.LocalBandedEnds(q, bs, diags, band, out) })
		run("batch1", 1, func() { al.LocalBandedEnds(q, bs[:1], diags[:1], band, out[:1]) })
		run("batch16+start", BatchLanes, func() {
			al.LocalBandedEnds(q, bs, diags, band, out)
			for l := range out {
				out[l].AStart, out[l].BStart = al.LocalBandedStart(q, bs[l], out[l], diags[l], band)
			}
		})
	}
}

package ungapped

import (
	"fmt"
	"math/rand"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/seed"
)

// blockedOnHost is what a fitting workload resolves to here: the
// blocked kernel where the SSSE3 scanner runs, the scalar reference
// elsewhere.
func blockedOnHost() Kernel {
	if hasSSSE3 {
		return KernelBlocked
	}
	return KernelScalar
}

func TestKernelResolve(t *testing.T) {
	if got := KernelScalar.resolve(matrix.BLOSUM62, 32); got != KernelScalar {
		t.Errorf("scalar resolved to %v", got)
	}
	if got := KernelAuto.resolve(matrix.BLOSUM62, 32); got != blockedOnHost() {
		t.Errorf("auto resolved to %v for BLOSUM62/32", got)
	}
	if got := KernelBlocked.resolve(matrix.BLOSUM62, 32); got != blockedOnHost() {
		t.Errorf("blocked resolved to %v", got)
	}
	// A workload whose max window score overflows the int16 lanes must
	// fall back to scalar even when blocked is requested.
	big := matrix.NewMatchMismatch(127, -1)
	if got := KernelBlocked.resolve(big, 1000); got != KernelScalar {
		t.Errorf("overflowing workload resolved to %v, want scalar fallback", got)
	}
	if got := KernelAuto.resolve(big, 1000); got != KernelScalar {
		t.Errorf("auto on overflowing workload resolved to %v, want scalar", got)
	}
}

// randomIndexes builds a moderately dense random workload so buckets
// have multi-window IL1 lists and the blocked path actually engages.
func randomIndexes(t testing.TB, seedVal int64, nSeqs, seqLen, n int) (*index.Index, *index.Index) {
	rng := bank.NewRNG(seedVal)
	b0 := bank.New("k0")
	b1 := bank.New("k1")
	for i := 0; i < nSeqs; i++ {
		b0.Add(fmt.Sprintf("q%d", i), bank.RandomProtein(rng, seqLen))
		b1.Add(fmt.Sprintf("s%d", i), bank.RandomProtein(rng, seqLen))
	}
	model := seed.Default()
	ix0, err := index.Build(b0, model, n)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, model, n)
	if err != nil {
		t.Fatal(err)
	}
	return ix0, ix1
}

// benchIndexes builds the asymmetric workload shape of the paper —
// n0 query sequences of length l0 against a much larger subject bank
// of n1 sequences of length l1 — giving dense IL1 lists.
func benchIndexes(t testing.TB, n0, l0, n1, l1, n int) (*index.Index, *index.Index) {
	rng := bank.NewRNG(42)
	b0 := bank.New("q")
	for i := 0; i < n0; i++ {
		b0.Add(fmt.Sprintf("q%d", i), bank.RandomProtein(rng, l0))
	}
	b1 := bank.New("s")
	for i := 0; i < n1; i++ {
		b1.Add(fmt.Sprintf("s%d", i), bank.RandomProtein(rng, l1))
	}
	model := seed.Default()
	ix0, err := index.Build(b0, model, n)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, model, n)
	if err != nil {
		t.Fatal(err)
	}
	return ix0, ix1
}

func requireIdentical(t *testing.T, ref, got *Result, label string) {
	t.Helper()
	if got.Pairs != ref.Pairs {
		t.Fatalf("%s: pairs = %d, want %d", label, got.Pairs, ref.Pairs)
	}
	if len(got.Hits) != len(ref.Hits) {
		t.Fatalf("%s: %d hits, want %d", label, len(got.Hits), len(ref.Hits))
	}
	for i := range got.Hits {
		if got.Hits[i] != ref.Hits[i] {
			t.Fatalf("%s: hit %d differs:\n  got  %+v\n  want %+v", label, i, got.Hits[i], ref.Hits[i])
		}
	}
}

func TestBlockedKernelMatchesScalar(t *testing.T) {
	// Dense enough that many buckets exceed blockedMinIL1 and several
	// cache blocks are traversed; low threshold so hits are plentiful.
	ix0, ix1 := randomIndexes(t, 7, 24, 260, 8)
	for _, thr := range []int{12, 18, 25, 38} {
		ref, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: thr, Workers: 1, Kernel: KernelScalar})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: thr, Workers: 1, Kernel: KernelBlocked})
		if err != nil {
			t.Fatal(err)
		}
		if got.Kernel != blockedOnHost() {
			t.Fatalf("thr=%d: resolved kernel %v, want %v", thr, got.Kernel, blockedOnHost())
		}
		if ref.Kernel != KernelScalar {
			t.Fatalf("thr=%d: reference kernel %v, want scalar", thr, ref.Kernel)
		}
		if thr <= 18 && len(ref.Hits) == 0 {
			t.Fatalf("thr=%d: workload produced no hits; test is vacuous", thr)
		}
		requireIdentical(t, ref, got, fmt.Sprintf("thr=%d", thr))
	}
}

func TestBlockedKernelMatchesScalarSmallNeighbourhood(t *testing.T) {
	// N=4 is the smallest window the acceptance criteria name; also
	// covers buckets straddling the blockedMinIL1 boundary.
	ix0, ix1 := randomIndexes(t, 11, 16, 150, 4)
	ref, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 13, Workers: 1, Kernel: KernelScalar})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: 13, Workers: 1, Kernel: KernelBlocked})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Hits) == 0 {
		t.Fatal("no hits; test is vacuous")
	}
	requireIdentical(t, ref, got, "N=4")
}

func TestKernelDeterministicAcrossWorkersAndKernels(t *testing.T) {
	// The satellite's deterministic-order matrix: every worker count ×
	// every kernel must produce the identical hit stream.
	ix0, ix1 := randomIndexes(t, 23, 12, 200, 6)
	var ref *Result
	for _, kernel := range []Kernel{KernelScalar, KernelBlocked, KernelAuto} {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			res, err := Run(ix0, ix1, Config{
				Matrix: matrix.BLOSUM62, Threshold: 16,
				Workers: workers, Kernel: kernel,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				if len(ref.Hits) == 0 {
					t.Fatal("no hits; test is vacuous")
				}
				continue
			}
			requireIdentical(t, ref, res, fmt.Sprintf("kernel=%v workers=%d", kernel, workers))
		}
	}
}

func TestBlockedKernelMatchMismatchMatrix(t *testing.T) {
	// A second matrix shape: uniform match/mismatch, where long exact
	// repeats drive scores near the window maximum.
	rng := bank.NewRNG(5)
	b0 := bank.New("m0")
	b1 := bank.New("m1")
	motif := bank.RandomProtein(rng, 40)
	for i := 0; i < 6; i++ {
		s0 := append(append([]byte{}, bank.RandomProtein(rng, 60)...), motif...)
		s1 := append(append([]byte{}, motif...), bank.RandomProtein(rng, 60)...)
		b0.Add(fmt.Sprintf("q%d", i), s0)
		b1.Add(fmt.Sprintf("s%d", i), s1)
	}
	model := seed.Default()
	ix0, _ := index.Build(b0, model, 10)
	ix1, _ := index.Build(b1, model, 10)
	m := matrix.NewMatchMismatch(5, -4)
	ref, err := Run(ix0, ix1, Config{Matrix: m, Threshold: 20, Workers: 1, Kernel: KernelScalar})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(ix0, ix1, Config{Matrix: m, Threshold: 20, Workers: 1, Kernel: KernelBlocked})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Hits) == 0 {
		t.Fatal("no hits; test is vacuous")
	}
	requireIdentical(t, ref, got, "match/mismatch")
}

// asmGroupTrial builds one random group-scan workload: a query window
// and lanes consecutive subject windows backed by one hood slice.
func asmGroupTrial(rng *rand.Rand, subLen, lanes int) (w0 []byte, windows [][]byte, hood []byte) {
	w0 = make([]byte, subLen)
	for k := range w0 {
		w0[k] = byte(rng.Intn(alphabet.NumAA))
	}
	windows = make([][]byte, lanes)
	hood = make([]byte, subLen*lanes)
	for l := range windows {
		w := hood[l*subLen : (l+1)*subLen]
		for k := range w {
			w[k] = byte(rng.Intn(alphabet.NumAA))
		}
		windows[l] = w
	}
	return w0, windows, hood
}

// TestAsmScanGroupsExact pins the SSSE3 scanner to align.WindowScore
// exactly, lane by lane. Window lengths sweep its three internal
// phases (8-wide tiles, the 4-wide half tile, byte-gathered
// remainders).
func TestAsmScanGroupsExact(t *testing.T) {
	if !hasSSSE3 {
		t.Skip("no SSSE3 scanner on this host")
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 400; trial++ {
		subLen := 1 + rng.Intn(67)
		m := matrix.BLOSUM62
		if trial%3 == 1 {
			m = matrix.NewMatchMismatch(int8(1+rng.Intn(11)), int8(-1-rng.Intn(11)))
		}
		ks := newBlockedScratch(m, subLen, 1)

		w0, windows, hood := asmGroupTrial(rng, subLen, ssse3Lanes)
		want := scoreGroupRef(w0, windows, m)

		var best [ssse3Lanes]int16
		scanGroup16SSSE3(&ks.btab[0], &w0[0], &hood[0], subLen, &best)
		for l := 0; l < ssse3Lanes; l++ {
			if int(best[l]) != want[l] {
				t.Fatalf("trial %d (subLen=%d): ssse3 lane %d = %d, want %d",
					trial, subLen, l, best[l], want[l])
			}
		}
	}
}

// scoreGroupRef scores the lanes of one group with the scalar reference.
func scoreGroupRef(w0 []byte, windows [][]byte, m *matrix.Matrix) []int {
	out := make([]int, len(windows))
	for i, w1 := range windows {
		out[i] = align.WindowScore(w0, w1, m)
	}
	return out
}

// FuzzWindowScoreKernel fuzzes random windows and matrices through the
// SSSE3 group scanner against the align.WindowScore reference. The
// threshold argument is unused: the scanner returns exact scores, so
// the comparison is strict whatever the threshold.
func FuzzWindowScoreKernel(f *testing.F) {
	f.Add(int64(1), 14, int8(11), int8(-4), 38)
	f.Add(int64(2), 1, int8(1), int8(-1), 1)
	f.Add(int64(3), 64, int8(127), int8(-128), 100)
	f.Add(int64(4), 7, int8(0), int8(0), 5)
	f.Fuzz(func(t *testing.T, rngSeed int64, subLen int, match, mismatch int8, _ int) {
		if !hasSSSE3 || subLen < 1 || subLen > 256 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(rngSeed))
		// A full random matrix (not just match/mismatch): every pair
		// gets an arbitrary int8 score derived from the two fuzzed
		// scores, exercising asymmetric and extreme tables.
		table := make([]int8, alphabet.NumAA*alphabet.NumAA)
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
		if !blockedFits(m, subLen) {
			// Out of the blocked kernel's arithmetic bounds; Run would
			// fall back to scalar, so there is nothing to compare.
			t.Skip()
		}

		w0, windows, hood := asmGroupTrial(rng, subLen, ssse3Lanes)
		want := scoreGroupRef(w0, windows, m)

		ks := newBlockedScratch(m, subLen, 1)
		var best [ssse3Lanes]int16
		scanGroup16SSSE3(&ks.btab[0], &w0[0], &hood[0], subLen, &best)
		for l := 0; l < ssse3Lanes; l++ {
			if int(best[l]) != want[l] {
				t.Fatalf("ssse3 lane %d = %d, want %d (subLen=%d)", l, best[l], want[l], subLen)
			}
		}
	})
}

// BenchmarkStep2Kernel is the acceptance benchmark: single-core step-2
// throughput by kernel and neighbourhood length. The blocked kernel
// must reach ≥4x the scalar pairs/sec for N≥4. The workload is the
// paper's shape — a small query bank against a large subject bank
// (their chromosome-scale database), which is what makes IL1 lists
// long enough for the lanes to fill.
func BenchmarkStep2Kernel(b *testing.B) {
	for _, n := range []int{4, 8, 14} {
		ix0, ix1 := benchIndexes(b, 8, 200, 2000, 600, n)
		pairs := PairCount(ix0, ix1)
		for _, kernel := range []Kernel{KernelScalar, KernelBlocked} {
			b.Run(fmt.Sprintf("N=%d/%s", n, kernel), func(b *testing.B) {
				if kernel.resolve(matrix.BLOSUM62, ix0.SubLen()) != kernel {
					b.Skip("kernel does not run on this host")
				}
				cfg := Config{Matrix: matrix.BLOSUM62, Threshold: 38, Workers: 1, Kernel: kernel}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Run(ix0, ix1, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if res.Kernel != kernel {
						b.Fatalf("resolved kernel %v, want %v", res.Kernel, kernel)
					}
				}
				b.StopTimer()
				nsPerPair := float64(b.Elapsed().Nanoseconds()) / float64(pairs*int64(b.N))
				b.ReportMetric(nsPerPair, "ns/pair")
				b.ReportMetric(1e9/nsPerPair, "pairs/s")
			})
		}
	}
}

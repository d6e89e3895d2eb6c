package ungapped

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/seed"
)

// blockedOnHost is what a fitting workload resolves to here: the
// blocked kernel where the AVX2 scanner runs, the scalar reference
// elsewhere.
// String returns the kernel's name.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	case KernelBlocked:
		return "blocked"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

func blockedOnHost() Kernel {
	if hasAVX2 {
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

// flank returns n random standard residues other than Ala and Val, so
// no seed.Default() word that starts inside it has the model's first
// or last key (see edgeIndexes).
func flank(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(1 + rng.Intn(alphabet.NumStandardAA-2))
	}
	return s
}

// planted returns copies of each word, every one between fresh flanks.
func planted(rng *rand.Rand, copies int, words ...[]byte) []byte {
	s := flank(rng, 5)
	for c := 0; c < copies; c++ {
		for _, w := range words {
			s = append(append(s, w...), flank(rng, 5)...)
		}
	}
	return s
}

// edgeWords are seed.Default()'s first key (Ala, LVIM, LVIM, Ala) and
// last key (Val, His, His, Val). Flanks hold neither Ala nor Val, so
// only planted copies carry these keys.
var edgeWords = [2][]byte{
	{alphabet.Ala, alphabet.Leu, alphabet.Leu, alphabet.Ala},
	{alphabet.Val, alphabet.His, alphabet.His, alphabet.Val},
}

// edgeIndexes builds a query index and four subject indexes — built,
// parallel-built, filtered and seeddb-loaded — whose first and last
// occupied keys hold exactly n windows each. The first bucket has the
// whole window array behind it; the last ends it (in the loaded index,
// the file's next section follows).
func edgeIndexes(t *testing.T, rng *rand.Rand, n, nExt int) (*index.Index, map[string]*index.Index) {
	t.Helper()
	model := seed.Default()
	b0, b1 := bank.New("q"), bank.New("s")
	b0.Add("q0", planted(rng, 3, edgeWords[0], edgeWords[1]))
	b0.Add("q1", flank(rng, 120))
	// Filler on both sides takes the bank past the parallel-build
	// threshold; FilterSeqs drops the first one.
	b1.Add("s0", flank(rng, 20000))
	b1.Add("s1", planted(rng, n, edgeWords[0], edgeWords[1]))
	b1.Add("s2", flank(rng, 20000))
	ix0, err := index.Build(b0, model, nExt)
	if err != nil {
		t.Fatal(err)
	}
	built, err := index.Build(b1, model, nExt)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := index.BuildParallel(b1, model, nExt, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "subject.seeddb")
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = loaded.Close() })
	subjects := map[string]*index.Index{
		"built": built, "parallel": parallel,
		"filtered": built.FilterSeqs([]uint32{1, 2}), "seeddb": loaded,
	}
	first, _ := model.Key(edgeWords[0])
	last, _ := model.Key(edgeWords[1])
	for name, ix := range subjects {
		keys := ix.Keys()
		if keys[0] != first || keys[len(keys)-1] != last || ix.BucketLen(first) != n || ix.BucketLen(last) != n {
			t.Fatalf("%s n=%d: edge buckets %d:%d and %d:%d, want %d:%d and %d:%d", name, n,
				keys[0], ix.BucketLen(keys[0]), keys[len(keys)-1], ix.BucketLen(keys[len(keys)-1]), first, n, last, n)
		}
	}
	return ix0, subjects
}

// TestBlockedKernelEdgeBuckets runs buckets of 1–70 windows at the
// first and last keys of every subject index shape through the resolved
// kernel and requires the scalar reference's hits. Window lengths 6, 12
// and 18 take every tile height of the scanner.
func TestBlockedKernelEdgeBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	hits := 0
	for n := 1; n <= 70; n++ {
		nExt := []int{1, 4, 7}[n%3]
		ix0, subjects := edgeIndexes(t, rng, n, nExt)
		for name, ix1 := range subjects {
			// The first bucket has later keys' windows behind it, so even
			// a short one must have room for a full group and take the
			// vector path rather than fall back to scalar.
			if _, hood := ix1.Bucket(ix1.Keys()[0]); cap(hood) < avx2Lanes*ix1.SubLen() {
				t.Fatalf("%s n=%d: first bucket has room for %d windows, want at least %d",
					name, n, cap(hood)/ix1.SubLen(), avx2Lanes)
			}
			cfg := Config{Matrix: matrix.BLOSUM62, Threshold: 14, Workers: 1, Kernel: KernelScalar}
			ref, err := Run(ix0, ix1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Kernel = KernelBlocked
			got, err := Run(ix0, ix1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, ref, got, fmt.Sprintf("%s n=%d N=%d", name, n, nExt))
			hits += len(ref.Hits)
		}
	}
	if hits == 0 {
		t.Fatal("no hits; test is vacuous")
	}
}

// TestBlockedKernelMatchesScalarWideBucket covers a bucket wider than
// one cache block, whose rows' hits interleave across blocks before the
// per-row flush puts them back in (i, j) order.
func TestBlockedKernelMatchesScalarWideBucket(t *testing.T) {
	const nExt = 14
	rng := rand.New(rand.NewSource(17))
	jBlock := newBlockedScratch(matrix.BLOSUM62, 4+2*nExt, 1).jBlock
	b0, b1 := bank.New("q"), bank.New("s")
	b0.Add("q0", planted(rng, 5, edgeWords[0]))
	b1.Add("s0", planted(rng, jBlock+77, edgeWords[0]))
	model := seed.Default()
	ix0, err := index.Build(b0, model, nExt)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, model, nExt)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := model.Key(edgeWords[0]); ix1.BucketLen(k) <= jBlock {
		t.Fatalf("widest bucket holds %d windows, want more than jBlock = %d", ix1.BucketLen(k), jBlock)
	}
	for _, thr := range []int{20, 30, 45} {
		ref, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: thr, Workers: 1, Kernel: KernelScalar})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(ix0, ix1, Config{Matrix: matrix.BLOSUM62, Threshold: thr, Workers: 1, Kernel: KernelBlocked})
		if err != nil {
			t.Fatal(err)
		}
		if thr == 20 && len(ref.Hits) == 0 {
			t.Fatal("no hits; test is vacuous")
		}
		requireIdentical(t, ref, got, fmt.Sprintf("thr=%d", thr))
	}
}

// TestSmallBucketsBuildNoScratch runs a bank whose buckets all sit
// below vectorMinIL1 at a threshold nothing reaches: every bucket takes
// the scalar sub-path, so the blocked kernel's scan must allocate
// nothing — no kernel scratch, no hit storage.
func TestSmallBucketsBuildNoScratch(t *testing.T) {
	ix0, ix1 := benchIndexes(t, 40, 200, 1, 80, 4)
	for _, k := range ix1.Keys() {
		if ix1.BucketLen(k) >= vectorMinIL1 {
			t.Fatalf("key %d holds %d windows; the bank must have small buckets only", k, ix1.BucketLen(k))
		}
	}
	cfg := Config{Matrix: matrix.BLOSUM62, Threshold: 1000}
	space := uint32(ix0.Model().KeySpace())
	c := Chunk{Counts: make([]uint32, ix0.Bank().Len())}
	allocs := testing.AllocsPerRun(20, func() {
		if pairs := scanKeys(ix0, ix1, 0, space, &cfg, KernelBlocked, &c); pairs == 0 {
			t.Fatal("no pairs scored; test is vacuous")
		}
	})
	if allocs != 0 {
		t.Fatalf("blocked scan of small buckets allocates %v times per run, want 0", allocs)
	}
}

// TestKernelsVEXOnly fails on a legacy-SSE instruction in an assembly
// function that uses YMM registers, or in an assembly macro: after a
// VEX.256 instruction a legacy one pays an upper-state transition on
// many cores, and one such MOVQ made the step-2 group scan 2.1 times
// slower. Every instruction there that names an X or Y register
// must be VEX-encoded (V-prefixed).
func TestKernelsVEXOnly(t *testing.T) {
	for _, path := range []string{"kernel_amd64.s", filepath.Join("..", "align", "kernel_amd64.s")} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bad := legacySSE(string(src)); len(bad) > 0 {
			t.Errorf("%s: legacy-SSE instructions beside AVX2 code: %q", path, bad)
		}
	}
	// The guard itself: a legacy MOVQ, MOVOU or PXOR beside a YMM
	// instruction is caught, in a TEXT block and in a macro.
	const sample = "#define M \\\n\tPXOR X1, X1\nTEXT ·f(SB), NOSPLIT, $0\n\tVPXOR Y1, Y1, Y1\n\tMOVQ R12, X13 // legacy\n\tMOVOU X1, (AX)\n\tRET\n"
	if bad := legacySSE(sample); len(bad) != 3 {
		t.Errorf("guard found %q in the sample, want its three legacy instructions", bad)
	}
}

var (
	vecReg = regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	ymmReg = regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
)

// legacySSE returns the statements of an assembly file that name an X
// or Y register without a V-prefixed mnemonic, taken from TEXT blocks
// that use a Y register and from every macro body.
func legacySSE(src string) []string {
	var bad []string
	for i, block := range strings.Split(src, "\nTEXT ") {
		var stmts, macros []string
		inDefine := false
		for _, line := range strings.Split(block, "\n") {
			code, _, _ := strings.Cut(line, "//")
			code = strings.TrimSpace(code)
			macro := inDefine || strings.HasPrefix(code, "#define")
			inDefine = macro && strings.HasSuffix(code, `\`)
			if strings.HasPrefix(code, "#define") {
				_, code, _ = strings.Cut(code, ")") // drop the macro head
			}
			for _, st := range strings.Split(strings.TrimSuffix(code, `\`), ";") {
				st = strings.TrimSpace(st)
				// Skip blanks, labels, directives, the TEXT line and
				// macro calls (their bodies are checked as macros).
				if st == "" || strings.HasSuffix(st, ":") || st[0] == '#' || strings.Contains(strings.Fields(st)[0], "(") {
					continue
				}
				if macro {
					macros = append(macros, st)
				} else {
					stmts = append(stmts, st)
				}
			}
		}
		if i == 0 || !ymmReg.MatchString(strings.Join(stmts, "\n")) {
			stmts = nil
		}
		for _, st := range append(stmts, macros...) {
			if vecReg.MatchString(st) && st[0] != 'V' {
				bad = append(bad, st)
			}
		}
	}
	return bad
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

// TestAsmScanGroupsExact pins the AVX2 scanner to align.WindowScore
// exactly, lane by lane, and its pass mask to score >= threshold.
// Window lengths sweep its three tile heights (8 positions, 4 and 1).
func TestAsmScanGroupsExact(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 scanner on this host")
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 400; trial++ {
		subLen := 1 + rng.Intn(67)
		m := matrix.BLOSUM62
		if trial%3 == 1 {
			m = matrix.NewMatchMismatch(int8(1+rng.Intn(11)), int8(-1-rng.Intn(11)))
		}
		checkScanGroup(t, rng, m, subLen, 1+rng.Intn(40))
	}
}

// checkScanGroup scores one random group of avx2Lanes windows through
// the scanner and requires every lane's score to be align.WindowScore's
// and the mask to hold exactly the lanes whose score reaches the
// threshold — for thr, thresholds ≤ 0, one equal to a lane's score, the
// top score, one above every score and one above the int16 lanes.
func checkScanGroup(t *testing.T, rng *rand.Rand, m *matrix.Matrix, subLen, thr int) {
	t.Helper()
	w0, windows, hood := asmGroupTrial(rng, subLen, avx2Lanes)
	want := scoreGroupRef(w0, windows, m)
	top := slices.Max(want)
	for _, thr := range []int{thr, -5, 0, want[rng.Intn(avx2Lanes)], top, top + 1, 1 << 16} {
		ks := newBlockedScratch(m, subLen, thr)
		mask := ks.group(w0, hood, 0, 0, avx2Lanes)
		for l, w := range want {
			if int(ks.best[l]) != w {
				t.Fatalf("subLen=%d: lane %d = %d, want %d", subLen, l, ks.best[l], w)
			}
			if pass := mask>>l&1 == 1; pass != (w >= thr) {
				t.Fatalf("subLen=%d thr=%d: lane %d (score %d) pass bit %v", subLen, thr, l, w, pass)
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

// FuzzWindowScoreKernel fuzzes random windows, matrices and thresholds
// through the AVX2 group scanner against the align.WindowScore
// reference, scores and pass mask both.
func FuzzWindowScoreKernel(f *testing.F) {
	f.Add(int64(1), 14, int8(11), int8(-4), 38)
	f.Add(int64(2), 1, int8(1), int8(-1), 1)
	f.Add(int64(3), 64, int8(127), int8(-128), 100)
	f.Add(int64(4), 7, int8(0), int8(0), 5)
	f.Add(int64(5), 3, int8(5), int8(-2), -7)
	f.Fuzz(func(t *testing.T, rngSeed int64, subLen int, match, mismatch int8, thr int) {
		if !hasAVX2 || subLen < 1 || subLen > 256 {
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
		checkScanGroup(t, rng, m, subLen, thr)
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

// checkCounts checks a hand-off's per-query counts against a recount
// of each chunk's hits over the indexed bank's n0 sequences.
func checkCounts(t *testing.T, label string, out *Output, n0 int) {
	t.Helper()
	if out.Base != 0 {
		t.Fatalf("%s: Base %d, want 0 before any renumbering", label, out.Base)
	}
	for c, ch := range out.Chunks {
		recount := make([]uint32, n0)
		for _, h := range ch.Hits {
			recount[h.E0.Seq]++
		}
		if !slices.Equal(ch.Counts, recount) {
			t.Fatalf("%s: chunk %d counts %v, its hits %v", label, c, ch.Counts, recount)
		}
	}
}

// TestScanCountsMatchRecount checks step 2's hand-off for both kernels
// at 1, 2, 3 and 8 workers: one chunk per worker, each chunk's
// per-query counts equal a recount of its hits, and the chunks
// concatenated are Run's hits and pairs.
func TestScanCountsMatchRecount(t *testing.T) {
	ix0, ix1 := randomIndexes(t, 23, 12, 200, 6)
	for _, kernel := range []Kernel{KernelScalar, KernelBlocked} {
		for _, workers := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("kernel=%v workers=%d", kernel, workers)
			cfg := Config{Matrix: matrix.BLOSUM62, Threshold: 16, Workers: workers, Kernel: kernel}
			out, err := Scan(ix0, ix1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Chunks) != workers {
				t.Fatalf("%s: %d chunks", label, len(out.Chunks))
			}
			checkCounts(t, label, out, ix0.Bank().Len())
			res, err := Run(ix0, ix1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Hits) == 0 {
				t.Fatalf("%s: no hits; the test is vacuous", label)
			}
			if !slices.Equal(out.Hits(), res.Hits) || out.Pairs != res.Pairs {
				t.Fatalf("%s: the chunks hold %d hits / %d pairs, Run %d / %d", label, out.Len(), out.Pairs, len(res.Hits), res.Pairs)
			}
			out.Release()
		}
	}
}

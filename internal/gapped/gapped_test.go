package gapped

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/seed"
	"seedblast/internal/ungapped"
)

// runPipelineUpTo2 indexes two banks and runs step 2, returning
// everything step 3 needs.
func runPipelineUpTo2(t testing.TB, b0, b1 *bank.Bank, threshold int) []ungapped.Hit {
	t.Helper()
	model := seed.Default()
	ix0, err := index.Build(b0, model, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, model, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ungapped.Run(ix0, ix1, ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return res.Hits
}

func homologPair(t *testing.T) (*bank.Bank, *bank.Bank) {
	t.Helper()
	rng := bank.NewRNG(7)
	ancestor := bank.RandomProtein(rng, 180)
	b0 := bank.New("q")
	b0.Add("query", ancestor)
	b0.Add("noise", bank.RandomProtein(rng, 180))
	b1 := bank.New("s")
	b1.Add("subject", bank.MutateProtein(rng, ancestor, 0.2))
	b1.Add("decoy", bank.RandomProtein(rng, 180))
	return b0, b1
}

func TestRunFindsHomolog(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	if len(hits) == 0 {
		t.Fatal("step 2 produced no hits for a 80%-identical pair")
	}
	cfg := DefaultConfig()
	as, _, err := RunWithStats(b0, b1, hits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("no gapped alignments")
	}
	top := as[0]
	if top.Seq0 != 0 || top.Seq1 != 0 {
		t.Errorf("top alignment is %d vs %d, want the homolog pair 0/0", top.Seq0, top.Seq1)
	}
	if top.EValue > 1e-3 {
		t.Errorf("homolog E-value %g too weak", top.EValue)
	}
	if top.Q.Len() < 100 {
		t.Errorf("alignment covers only %d residues", top.Q.Len())
	}
}

func TestRunRespectsEValueCutoff(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	cfg := DefaultConfig()
	cfg.MaxEValue = 1e-300 // impossible
	as, _, err := RunWithStats(b0, b1, hits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 0 {
		t.Errorf("%d alignments passed an impossible cutoff", len(as))
	}
}

func TestRunDedupsPerPair(t *testing.T) {
	// A long shared region yields many seed hits; the pair must still be
	// reported a bounded number of times (not once per seed).
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	if len(hits) < 3 {
		t.Skip("not enough hits to test dedup")
	}
	as, _, err := RunWithStats(b0, b1, hits, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, a := range as {
		if a.Seq0 == 0 && a.Seq1 == 0 {
			count++
		}
	}
	if count > 2 {
		t.Errorf("homolog pair reported %d times (hits: %d)", count, len(hits))
	}
}

func TestRunTracebackOps(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	cfg := DefaultConfig()
	cfg.Traceback = true
	as, _, err := RunWithStats(b0, b1, hits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("no alignments")
	}
	// Ops must consume exactly the reported spans and score Score.
	checkOps(t, "homolog pair", b0, b1, as, cfg)
	off, _, err := RunWithStats(b0, b1, hits, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutOps(as), off) {
		t.Errorf("traceback changed the alignments:\n got %+v\nwant %+v", withoutOps(as), off)
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	// Enough groups (one per subject) that every worker count below
	// claims many chunks, so the claim order really varies between
	// runs; run under -race in CI. The skewed bank gives one query most
	// of the hits, so its chunks are spread over every worker.
	h0, h1 := homologBank(400)
	s0, s1 := skewedBank(400)
	for _, bk := range []struct {
		name   string
		b0, b1 *bank.Bank
	}{{"homolog", h0, h1}, {"skewed", s0, s1}} {
		hits := runPipelineUpTo2(t, bk.b0, bk.b1, 22)
		if bk.name == "skewed" {
			if n := countQuery(hits, 0); 2*n < len(hits) {
				t.Fatalf("skewed: query 0 has %d of %d hits, want most", n, len(hits))
			}
		}
		var ref []Alignment
		var refStats Stats
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			as, st, err := RunWithStats(bk.b0, bk.b1, hits, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				if len(as) < 300 {
					t.Fatalf("%s: only %d alignments: the bank no longer exercises the dispatch", bk.name, len(as))
				}
				ref, refStats = as, st
				continue
			}
			if st != refStats {
				t.Errorf("%s/workers=%d: stats %+v, want %+v", bk.name, workers, st, refStats)
			}
			if !reflect.DeepEqual(as, ref) {
				t.Fatalf("%s/workers=%d: alignments differ from the one-worker run", bk.name, workers)
			}
		}
	}
}

// countQuery is the number of hits on query q.
func countQuery(hits []ungapped.Hit, q uint32) int {
	n := 0
	for _, h := range hits {
		if h.E0.Seq == q {
			n++
		}
	}
	return n
}

// TestRunInvariantToCrossQueryOrder reorders hits between queries,
// each query's own hits kept in order: the query runs rotated, and a
// random riffle of them. Alignments and Stats must not change, so the
// order of hits across queries never reaches the output. The hit list
// is long enough that partition runs on every worker.
func TestRunInvariantToCrossQueryOrder(t *testing.T) {
	b0, b1 := homologBank(400)
	hits := runPipelineUpTo2(t, b0, b1, 22)
	if len(hits) < 2*inlineHits {
		t.Fatalf("%d hits: the parallel partition does not run", len(hits))
	}
	runs := make([][]ungapped.Hit, b0.Len()) // each query's hits in order
	for _, h := range hits {
		runs[h.E0.Seq] = append(runs[h.E0.Seq], h)
	}
	var rotated, riffled []ungapped.Hit
	for k := range runs {
		rotated = append(rotated, runs[(k+5)%len(runs)]...)
	}
	rng := rand.New(rand.NewSource(5))
	next := make([]int, len(runs))
	for len(riffled) < len(hits) {
		if q := rng.Intn(len(runs)); next[q] < len(runs[q]) {
			riffled = append(riffled, runs[q][next[q]])
			next[q]++
		}
	}
	cfg := DefaultConfig()
	want, wantStats, err := RunWithStats(b0, b1, hits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, reordered := range map[string][]ungapped.Hit{"rotated": rotated, "riffled": riffled} {
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			got, st, err := RunWithStats(b0, b1, reordered, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st != wantStats || !reflect.DeepEqual(got, want) {
				t.Errorf("%s/workers=%d: %d alignments and %+v, in input order %d and %+v", name, workers, len(got), st, len(want), wantStats)
			}
		}
	}
}

// TestSortAlignmentsStable: a query's alignments, gathered from its
// chunks, come out by (EValue, Seq1), and alignments tied on both keep
// their order across the chunks, as sort.SliceStable keeps it.
func TestSortAlignmentsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var chunks [][]Alignment
	var all []Alignment
	for c := 0; c < 5; c++ {
		var as []Alignment
		for i := 0; i < 40; i++ {
			// Q.Start numbers the input; 12 (EValue, Seq1) keys, many ties.
			as = append(as, Alignment{Seq1: rng.Intn(4), EValue: float64(rng.Intn(3)), Q: Span{len(all) + i, 0}})
		}
		chunks, all = append(chunks, as), append(all, as...)
	}
	want := append([]Alignment(nil), all...)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].EValue != want[j].EValue {
			return want[i].EValue < want[j].EValue
		}
		return want[i].Seq1 < want[j].Seq1
	})
	got := make([]Alignment, len(all))
	if sortAlignments(got, chunks, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("sorted %v, want %v", got, want)
	}
}

func TestRunValidation(t *testing.T) {
	b := bank.New("b")
	b.Add("s", alphabet.MustEncodeProtein("ARND"))
	cfg := DefaultConfig()
	cfg.Matrix = nil
	if _, _, err := RunWithStats(b, b, nil, cfg); err == nil {
		t.Error("nil matrix accepted")
	}
	cfg = DefaultConfig()
	cfg.Band = 0
	if _, _, err := RunWithStats(b, b, nil, cfg); err == nil {
		t.Error("zero band accepted")
	}
	cfg = DefaultConfig()
	cfg.MaxEValue = 0
	if _, _, err := RunWithStats(b, b, nil, cfg); err == nil {
		t.Error("zero cutoff accepted")
	}
}

func TestRunEmptyHits(t *testing.T) {
	b := bank.New("b")
	b.Add("s", alphabet.MustEncodeProtein("ARND"))
	as, _, err := RunWithStats(b, b, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 0 {
		t.Error("alignments from no hits")
	}
}

func TestSpanLen(t *testing.T) {
	if (Span{3, 10}).Len() != 7 {
		t.Error("Span.Len wrong")
	}
}

func TestRandomBanksFewFalsePositives(t *testing.T) {
	// Unrelated random banks at the default cutoff: chance alignments at
	// E ≤ 10⁻³ should essentially never appear at this scale.
	rng := bank.NewRNG(1234)
	b0 := bank.New("r0")
	b1 := bank.New("r1")
	for i := 0; i < 5; i++ {
		b0.Add(string(rune('a'+i)), bank.RandomProtein(rng, 200))
		b1.Add(string(rune('A'+i)), bank.RandomProtein(rng, 200))
	}
	hits := runPipelineUpTo2(t, b0, b1, 25)
	as, _, err := RunWithStats(b0, b1, hits, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(as) > 1 {
		t.Errorf("%d chance alignments passed E ≤ 1e-3", len(as))
	}
}

func TestDedupRemovesContainedAlignments(t *testing.T) {
	as := []Alignment{
		{Seq0: 0, Seq1: 0, Score: 100, Q: Span{0, 100}, S: Span{0, 100}},
		{Seq0: 0, Seq1: 0, Score: 40, Q: Span{10, 50}, S: Span{10, 50}},     // contained
		{Seq0: 0, Seq1: 0, Score: 60, Q: Span{150, 220}, S: Span{150, 220}}, // disjoint
	}
	out := dedup(as)
	if len(out) != 2 {
		t.Fatalf("dedup kept %d alignments, want 2", len(out))
	}
	if out[0].Score != 100 || out[1].Score != 60 {
		t.Errorf("wrong survivors: %+v", out)
	}
}

func TestDedupKeepsPartialOverlaps(t *testing.T) {
	as := []Alignment{
		{Score: 100, Q: Span{0, 100}, S: Span{0, 100}},
		{Score: 80, Q: Span{50, 150}, S: Span{50, 150}}, // overlaps but not contained
	}
	if out := dedup(as); len(out) != 2 {
		t.Fatalf("partial overlap wrongly removed: %d", len(out))
	}
}

func TestDedupSingleton(t *testing.T) {
	as := []Alignment{{Score: 10}}
	if len(dedup(as)) != 1 || len(dedup(nil)) != 0 {
		t.Error("trivial dedup cases wrong")
	}
}

func TestGapTriggerDisabledExtendsEverything(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	on := DefaultConfig()
	off := DefaultConfig()
	off.GapTrigger = 0
	asOn, stOn, err := RunWithStats(b0, b1, hits, on)
	if err != nil {
		t.Fatal(err)
	}
	asOff, stOff, err := RunWithStats(b0, b1, hits, off)
	if err != nil {
		t.Fatal(err)
	}
	if stOff.PreFiltered != 0 {
		t.Error("disabled trigger still pre-filtered")
	}
	if stOff.Extended < stOn.Extended {
		t.Error("disabled trigger should extend at least as many hits")
	}
	// The homolog must be found either way.
	if len(asOn) == 0 || len(asOff) == 0 {
		t.Error("homolog lost")
	}
	if asOn[0].Score != asOff[0].Score {
		t.Errorf("top score differs with/without trigger: %d vs %d",
			asOn[0].Score, asOff[0].Score)
	}
}

func TestStatsAccounting(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	_, st, err := RunWithStats(b0, b1, hits, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != len(hits) {
		t.Errorf("Hits = %d, want %d", st.Hits, len(hits))
	}
	if st.Extended+st.PreFiltered+st.Contained > st.Hits {
		t.Errorf("categories exceed hits: %+v", st)
	}
	if st.Extended > 0 && st.DPCells <= st.DPRows {
		t.Errorf("DP volume inconsistent: %+v", st)
	}
}

// skewedBank is homologBank with three of every four subjects copies
// of query 0, so that query owns most of the hits.
func skewedBank(subjects int) (*bank.Bank, *bank.Bank) {
	rng := bank.NewRNG(11)
	b0, b1 := bank.New("q"), bank.New("s")
	for i := 0; i < 16; i++ {
		b0.Add("q", bank.RandomProtein(rng, 90+4*i))
	}
	for i := 0; i < subjects; i++ {
		q := 0
		if i%4 == 3 {
			q = i % 16
		}
		b1.Add("h", bank.MutateProtein(rng, b0.Seq(q), 0.1+0.1*float64((i/16)%5)))
	}
	return b0, b1
}

// homologBank mirrors the benchmark's homolog_full inputs at a chosen
// size: 16 queries of 90..150 aa and subjects that are copies of
// query i%16 mutated at 10..50 %, so almost every (query, subject)
// pair of a family is a group of ~40 hits ending in one alignment.
func homologBank(subjects int) (*bank.Bank, *bank.Bank) {
	rng := bank.NewRNG(3)
	b0, b1 := bank.New("q"), bank.New("s")
	for i := 0; i < 16; i++ {
		b0.Add("q", bank.RandomProtein(rng, 90+4*i))
	}
	for i := 0; i < subjects; i++ {
		b1.Add("h", bank.MutateProtein(rng, b0.Seq(i%16), 0.1+0.1*float64((i/16)%5)))
	}
	return b0, b1
}

// TestWarmRunReusesAligners pins the kernel scratch to the Aligner
// store: on the serve_hot shape (four 105-135 aa queries, 64 subjects
// of 300 aa, 16 of them carrying a mutated query) a run after a
// garbage collection takes the Aligners, and with them the kept rows,
// that the previous run stored, and allocates less than one kept row
// set on the heap. (align's TestReserveKeepsRows pins that passes
// within an Aligner's reserved size map no rows.)
func TestWarmRunReusesAligners(t *testing.T) {
	rng := bank.NewRNG(83)
	b0, b1 := bank.New("q"), bank.New("s")
	for i := 0; i < 4; i++ {
		b0.Add("q", bank.RandomProtein(rng, 105+10*i))
	}
	for j := 0; j < 64; j++ {
		s := bank.RandomProtein(rng, 300)
		if j < 16 {
			hom := bank.MutateProtein(rng, b0.Seq(j%4), 0.20)
			copy(s[(300-len(hom))/2:], hom)
		}
		b1.Add("s", s)
	}
	hits := runPipelineUpTo2(t, b0, b1, 38)
	cfg := DefaultConfig()
	cfg.Workers = 1
	// Gap costs no other test uses, so the first run finds no stored
	// Aligner.
	cfg.Gaps = align.GapParams{Open: 10, Extend: 2}
	stored := func() map[*align.Aligner]bool {
		alignerStore.Lock()
		defer alignerStore.Unlock()
		out := map[*align.Aligner]bool{}
		for _, s := range alignerStore.free {
			if s.m == cfg.Matrix && s.gap == cfg.Gaps {
				out[s.al] = true
			}
		}
		return out
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := RunWithStats(b0, b1, hits, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	cold := stored()
	if len(cold) != 1 {
		t.Fatalf("a one-worker run stored %d Aligners for its gap costs, want 1", len(cold))
	}
	runtime.GC()
	runtime.GC()
	warm := run()
	if got := stored(); !reflect.DeepEqual(got, cold) {
		t.Errorf("the warm run did not take the stored Aligner back: stored %v, then %v", cold, got)
	}
	if kept := uint64((135 + 1) * (2*cfg.Band + 2) * 3 * align.BatchLanes * 2); warm >= kept/2 {
		t.Errorf("warm run allocates %d bytes, want below %d", warm, kept/2)
	}
}

// benchmarkRun times the whole stage on the hits of b0 against b1 at
// 1 and 2 workers, and with traceback at 1 worker when traceback is
// set, and reports ns per nominal DP cell as the benchmark does. It
// first checks that traceback changes nothing but Ops on this bank.
func benchmarkRun(b *testing.B, b0, b1 *bank.Bank, traceback bool) {
	model := seed.Default()
	ix0, err := index.Build(b0, model, 14)
	if err != nil {
		b.Fatal(err)
	}
	ix1, err := index.Build(b1, model, 14)
	if err != nil {
		b.Fatal(err)
	}
	res, err := ungapped.Run(ix0, ix1, ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: 38})
	if err != nil {
		b.Fatal(err)
	}
	in, err := ungapped.Scan(ix0, ix1, ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: 38})
	if err != nil {
		b.Fatal(err)
	}
	var runs [2][]Alignment
	var sts [2]Stats
	for i := range runs {
		cfg := DefaultConfig()
		cfg.Traceback = i == 1
		if runs[i], sts[i], err = RunWithStats(b0, b1, res.Hits, cfg); err != nil {
			b.Fatal(err)
		}
	}
	if sts[0] != sts[1] || !reflect.DeepEqual(withoutOps(runs[1]), runs[0]) {
		b.Fatalf("traceback changed the alignments or the stats: %+v, %+v", sts[1], sts[0])
	}
	type runCase struct {
		name      string
		workers   int
		traceback bool
	}
	cases := []runCase{{"workers=1", 1, false}, {"workers=2", 2, false}}
	if traceback {
		cases = append(cases, runCase{"workers=1,traceback", 1, true})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers, cfg.Traceback = c.workers, c.traceback
			b.ReportAllocs()
			var cells int64
			var fl fill
			for i := 0; i < b.N; i++ {
				_, st, f, err := run(b0, b1, in, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cells, fl = st.DPCells, f
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			b.ReportMetric(float64(fl.lanes)/float64(align.BatchLanes*max(fl.passes, 1)), "fill")
		})
	}
}

// BenchmarkRunHomolog times the stage on a homolog_full-shaped hit
// list (EXPERIMENTS.md quotes it): many groups per query, so kernel
// passes are full without speculation. Its traceback run is what
// keeping every alignment's operations costs.
func BenchmarkRunHomolog(b *testing.B) {
	b0, b1 := homologBank(5000)
	benchmarkRun(b, b0, b1, true)
}

// BenchmarkRunScanShape times the stage on a scan_cpu-shaped hit list:
// 64 random 200 aa queries against 2000 random 600 aa subjects, the
// first 64 carrying a 25 % mutated copy of their query. Most groups
// are a few chance hits, so passes are sparse and speculation fills
// them: the low-fill case.
func BenchmarkRunScanShape(b *testing.B) {
	rng := bank.NewRNG(1)
	b0, b1 := bank.New("q"), bank.New("s")
	for i := 0; i < 64; i++ {
		b0.Add("q", bank.RandomProtein(rng, 200))
	}
	for j := 0; j < 2000; j++ {
		s := bank.RandomProtein(rng, 600)
		if j < 64 {
			hom := bank.MutateProtein(rng, b0.Seq(j), 0.25)
			copy(s[(600-len(hom))/2:], hom)
		}
		b1.Add("s", s)
	}
	benchmarkRun(b, b0, b1, false)
}

// outOfBankCases are hits no index over b0 and b1 can produce, each
// made from a valid hit h: a sequence number past either bank, and a
// query or subject offset past its sequence.
func outOfBankCases(b0, b1 *bank.Bank) map[string]func(h *ungapped.Hit) {
	return map[string]func(h *ungapped.Hit){
		"bank-0 sequence": func(h *ungapped.Hit) { h.E0.Seq = uint32(b0.Len()) },
		"bank-1 sequence": func(h *ungapped.Hit) { h.E1.Seq = uint32(b1.Len()) + 7 },
		"subject offset":  func(h *ungapped.Hit) { h.E1.Off = uint32(len(b1.Seq(int(h.E1.Seq)))) },
		"query offset":    func(h *ungapped.Hit) { h.E0.Off = ^uint32(0) },
	}
}

// TestRunRejectsHitsOutsideBanks: a hit outside the banks is an error
// from step 3, not an index-out-of-range panic, at any worker count,
// on a short hit list (partitioned inline) and on one long enough that
// every worker partitions.
func TestRunRejectsHitsOutsideBanks(t *testing.T) {
	p0, p1 := homologPair(t)
	h0, h1 := homologBank(400)
	for _, bk := range []struct {
		name   string
		b0, b1 *bank.Bank
		hits   []ungapped.Hit
	}{{"short", p0, p1, runPipelineUpTo2(t, p0, p1, 25)}, {"long", h0, h1, runPipelineUpTo2(t, h0, h1, 22)}} {
		if len(bk.hits) < 2 || (bk.name == "long") != (len(bk.hits) >= 2*inlineHits) {
			t.Fatalf("%s: %d hits; the test no longer covers its partition path", bk.name, len(bk.hits))
		}
		cfg := DefaultConfig()
		if _, _, err := RunWithStats(bk.b0, bk.b1, bk.hits, cfg); err != nil {
			t.Fatalf("%s: valid hits rejected: %v", bk.name, err)
		}
		for name, corrupt := range outOfBankCases(bk.b0, bk.b1) {
			bad := append([]ungapped.Hit(nil), bk.hits...)
			corrupt(&bad[len(bad)/2])
			for _, workers := range []int{1, 2, 3, 8} {
				cfg.Workers = workers
				if as, _, err := RunWithStats(bk.b0, bk.b1, bad, cfg); err == nil {
					t.Errorf("%s/%s/workers=%d: accepted, %d alignments", bk.name, name, workers, len(as))
				}
			}
		}
	}
}

// TestEachInlineAllocatesNothing: at one worker each is a plain loop,
// with no cursor, error slice or goroutine closure to allocate, that
// still visits every index in order and stops at the first error.
func TestEachInlineAllocatesNothing(t *testing.T) {
	var seen []int
	stop := errors.New("stop")
	do := func(w, i int) error {
		if w != 0 {
			t.Fatalf("worker %d of one", w)
		}
		seen = append(seen, i)
		if i == 5 {
			return stop
		}
		return nil
	}
	if err := each(1, 9, do); err != stop || !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("each(1, 9) = %v after %v, want stop after 0..5", err, seen)
	}
	noop := func(_, _ int) error { return nil }
	if allocs := testing.AllocsPerRun(100, func() { each(1, 64, noop) }); allocs != 0 {
		t.Errorf("each at one worker allocates %v times", allocs)
	}
}

// BenchmarkBookkeeping times partition and per-query grouping, the
// passes run runs inline below inlineHits hits, on prefixes of a
// homolog_full-shaped hit list cut into one counted chunk per worker,
// as step 2 hands them over, at one and two workers: the crossover
// where two workers start to pay is where inlineHits sits.
func BenchmarkBookkeeping(b *testing.B) {
	b0, b1 := homologBank(5000)
	model := seed.Default()
	ix0, err := index.Build(b0, model, 14)
	if err != nil {
		b.Fatal(err)
	}
	ix1, err := index.Build(b1, model, 14)
	if err != nil {
		b.Fatal(err)
	}
	res, err := ungapped.Run(ix0, ix1, ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: 38})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1 << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 15, len(res.Hits)} {
		hits := res.Hits[:n]
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("hits=%d/workers=%d", n, workers), func(b *testing.B) {
				in := chunked(hits, b0.Len(), workers) // counted chunks, as step 2 hands them over
				for i := 0; i < b.N; i++ {
					qs, seeds, err := partition(in, b0.Len(), workers)
					if err != nil {
						b.Fatal(err)
					}
					grs := make([]grouper, workers)
					if err := each(min(workers, len(qs)), len(qs), func(w, i int) error {
						return grs[w].groupHits(&qs[i], seeds, b1.Len())
					}); err != nil {
						b.Fatal(err)
					}
					kept.Put(seeds)
				}
			})
		}
	}
}

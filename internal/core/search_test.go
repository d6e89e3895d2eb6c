package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/gapped"
	"seedblast/internal/pipeline"
	"seedblast/internal/translate"
)

// searchWorkload is the shared Searcher-vs-oracle equivalence workload.
func searchWorkload(t testing.TB) (*bank.Bank, []byte) {
	t.Helper()
	proteins := bank.GenerateProteins(bank.ProteinConfig{
		N: 12, MeanLen: 120, LenJitter: 20, Seed: 51,
	})
	genome, _, err := bank.GenerateGenome(bank.GenomeConfig{
		Length: 50_000, Source: proteins, PlantCount: 6, PlantSubRate: 0.15, Seed: 52,
	})
	if err != nil {
		t.Fatal(err)
	}
	return proteins, genome
}

// wantLocus re-derives a translated locus from first principles — the
// frame of the effective-bank sequence and the codon arithmetic — so
// the loci a Search reports are checked against something other than
// the target code that produced them.
func wantLocus(frames [6]translate.FrameTranslation, seq int, span gapped.Span, nucLen int) (translate.Frame, int, int) {
	f := frames[seq%6].Frame
	first := translate.CodonStart(f, span.Start, nucLen)
	last := translate.CodonStart(f, span.End-1, nucLen)
	if f > 0 {
		return f, first, last + 3
	}
	return f, last, first + 3
}

// TestSearchEquivalentToCompare is the Searcher's acceptance gate: for
// CPU and simulated-RASC engines, single-shard and sharded, the
// streaming Search must reproduce the CompareBatch oracle
// bit-identically — matches AND order — plus the summary counters,
// for a genome target (tblastn) and a protein target (blastp) alike.
func TestSearchEquivalentToCompare(t *testing.T) {
	proteins, genome := searchWorkload(t)
	frames := translate.SixFrames(genome)
	fb := NewGenomeTarget(genome, nil).Bank()

	for _, eng := range []Engine{EngineCPU, EngineRASC} {
		for _, ss := range []int{0, 3, 5} {
			name := fmt.Sprintf("%s/shard=%d", eng, ss)
			opt := DefaultOptions()
			opt.Engine = eng
			opt.Pipeline = pipeline.Config{ShardSize: ss}

			want, err := CompareBatch(proteins, fb, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Alignments) == 0 {
				t.Fatalf("%s: degenerate reference", name)
			}

			// tblastn: Search over a GenomeTarget.
			s := newSearcher(t, opt)
			res := s.Search(context.Background(), NewProteinTarget(proteins), NewGenomeTarget(genome, nil))

			// Stream element by element against the oracle so an ordering
			// bug cannot hide behind a set comparison.
			i := 0
			for m, err := range res.Matches() {
				if err != nil {
					t.Fatal(err)
				}
				if i >= len(want.Alignments) {
					t.Fatalf("%s: stream yielded more than %d matches", name, len(want.Alignments))
				}
				ref := want.Alignments[i]
				if !reflect.DeepEqual(m.Alignment, ref) {
					t.Fatalf("%s: match %d alignment differs:\n got %+v\nwant %+v", name, i, m.Alignment, ref)
				}
				frame, nucStart, nucEnd := wantLocus(frames, ref.Seq1, ref.S, len(genome))
				if m.Subject.Frame != frame || m.Subject.NucStart != nucStart ||
					m.Subject.NucEnd != nucEnd || m.Query.Seq != ref.Seq0 {
					t.Fatalf("%s: match %d locus differs:\n got %+v\nwant %s [%d,%d) query %d",
						name, i, m, frame, nucStart, nucEnd, ref.Seq0)
				}
				i++
			}
			if i != len(want.Alignments) {
				t.Fatalf("%s: stream yielded %d matches, want %d", name, i, len(want.Alignments))
			}
			sum, err := res.Summary()
			if err != nil {
				t.Fatal(err)
			}
			if sum.Hits != want.Hits || sum.Pairs != want.Pairs ||
				sum.GappedWork != want.GappedWork {
				t.Errorf("%s: summary diverges from the oracle", name)
			}
			if eng == EngineRASC {
				if sum.Device == nil || want.Device == nil {
					t.Fatalf("%s: missing device report", name)
				}
				// Step 2 is timed as simulated device seconds; a single
				// shard is the oracle's one device run verbatim (sharded
				// runs aggregate one report per shard).
				if sum.Times.Ungapped != time.Duration(sum.Device.Seconds*float64(time.Second)) ||
					(ss == 0 && (sum.Device.Seconds != want.Device.Seconds || sum.Times.Ungapped != want.Times.Ungapped)) {
					t.Errorf("%s: device timing semantics diverge", name)
				}
			}

			// blastp: Search over two ProteinTargets.
			resP, err := collect(context.Background(), s, NewProteinTarget(proteins), NewProteinTarget(fb))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resP.Alignments, want.Alignments) {
				t.Errorf("%s: protein-target search diverges from the oracle", name)
			}
		}
	}
}

// TestTracebackKeepsMatches pins WithTraceback to "keep the
// operations": on a protein bank whose subjects carry insertions (some
// matches must have gaps) and on a GenomeTarget, the matches with it on are those with it off,
// values and order, Ops aside, with the same work counters, and every
// match then carries operations.
func TestTracebackKeepsMatches(t *testing.T) {
	proteins, genome := searchWorkload(t)
	rng := bank.NewRNG(53)
	subjects := bank.New("s")
	for i := 0; i < proteins.Len(); i++ {
		m := bank.MutateProtein(rng, proteins.Seq(i), 0.2)
		s := append(append(append(bank.RandomProtein(rng, 20), m[:len(m)/2]...), bank.RandomProtein(rng, 3+i%4)...), m[len(m)/2:]...)
		subjects.Add("s", append(s, bank.RandomProtein(rng, 20)...))
	}
	for _, tc := range []struct {
		name   string
		target func() Target
	}{
		{"protein bank", func() Target { return NewProteinTarget(subjects) }},
		{"genome", func() Target { return NewGenomeTarget(genome, nil) }},
	} {
		var runs [2]*Result
		for i, traceback := range []bool{false, true} {
			opt := DefaultOptions()
			opt.Gapped.Traceback = traceback
			res, err := collect(context.Background(), newSearcher(t, opt), NewProteinTarget(proteins), tc.target())
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = res
		}
		off, on := runs[0], runs[1]
		if len(off.Matches) == 0 {
			t.Fatalf("%s: no matches; the test is vacuous", tc.name)
		}
		if on.Hits != off.Hits || on.Pairs != off.Pairs || on.GappedWork != off.GappedWork {
			t.Errorf("%s: traceback changed the work counters", tc.name)
		}
		stripped, gaps := make([]Match, len(on.Matches)), 0
		for i, m := range on.Matches {
			if len(m.Ops) == 0 {
				t.Fatalf("%s: match %d has no operations", tc.name, i)
			}
			if len(m.Ops) > 1 {
				gaps++
			}
			m.Ops = nil
			stripped[i] = m
		}
		if tc.name == "protein bank" && gaps == 0 {
			t.Errorf("%s: no match has a gap", tc.name)
		}
		if !reflect.DeepEqual(stripped, off.Matches) {
			t.Errorf("%s: traceback changed the matches", tc.name)
		}
	}
}

// TestSearchModesEquivalent pins the blastx / tblastx target shapes
// against the CompareBatch oracle run over hand-built frame banks,
// loci re-derived independently.
func TestSearchModesEquivalent(t *testing.T) {
	proteins, genome := searchWorkload(t)
	opt := DefaultOptions()
	s := newSearcher(t, opt)

	// blastx: DNA queries (the genome, twice, so query numbering > 0 is
	// exercised) against the protein bank.
	queries := [][]byte{genome[:20_000], genome[20_000:]}
	qbank := bank.New("dna-query-frames")
	var qframes [][6]translate.FrameTranslation
	for qi, dna := range queries {
		fr := translate.SixFrames(dna)
		qframes = append(qframes, fr)
		for _, ft := range fr {
			qbank.Add(fmt.Sprintf("q%d%s", qi, ft.Frame), ft.Protein)
		}
	}
	want, err := CompareBatch(qbank, proteins, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Alignments) == 0 {
		t.Fatal("degenerate blastx reference")
	}
	ms, err := s.Search(context.Background(), NewDNATarget(queries, nil), NewProteinTarget(proteins)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(want.Alignments) {
		t.Fatalf("blastx: %d matches, want %d", len(ms), len(want.Alignments))
	}
	for i := range ms {
		m, ref := &ms[i], want.Alignments[i]
		qi := ref.Seq0 / 6
		frame, nucStart, nucEnd := wantLocus(qframes[qi], ref.Seq0, ref.Q, len(queries[qi]))
		if !reflect.DeepEqual(m.Alignment, ref) ||
			m.Query.Seq != qi || m.Query.Frame != frame ||
			m.Query.NucStart != nucStart || m.Query.NucEnd != nucEnd {
			t.Fatalf("blastx match %d differs:\n got %+v\nwant %+v query %d %s [%d,%d)",
				i, m, ref, qi, frame, nucStart, nucEnd)
		}
	}

	// tblastx: genome vs itself.
	frames := translate.SixFrames(genome)
	fb := NewGenomeTarget(genome, nil).Bank()
	wantG, err := CompareBatch(fb, fb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantG.Alignments) == 0 {
		t.Fatal("degenerate tblastx reference")
	}
	msG, err := s.Search(context.Background(), NewGenomeTarget(genome, nil), NewGenomeTarget(genome, nil)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(msG) != len(wantG.Alignments) {
		t.Fatalf("tblastx: %d matches, want %d", len(msG), len(wantG.Alignments))
	}
	for i := range msG {
		m, ref := &msG[i], wantG.Alignments[i]
		f0, s0, e0 := wantLocus(frames, ref.Seq0, ref.Q, len(genome))
		f1, s1, e1 := wantLocus(frames, ref.Seq1, ref.S, len(genome))
		if !reflect.DeepEqual(m.Alignment, ref) ||
			m.Query.Frame != f0 || m.Query.NucStart != s0 || m.Query.NucEnd != e0 ||
			m.Subject.Frame != f1 || m.Subject.NucStart != s1 || m.Subject.NucEnd != e1 {
			t.Fatalf("tblastx match %d differs:\n got %+v\nwant %+v", i, m, ref)
		}
	}
}

// TestTargetIndexReuse pins the reusable-index contract: the second
// search against a target spends no time building the subject index,
// and its results are bit-identical.
func TestTargetIndexReuse(t *testing.T) {
	proteins, genome := searchWorkload(t)
	s := newSearcher(t, DefaultOptions())
	tgt := NewGenomeTarget(genome, nil)
	if tgt.cached(s.opt.Seed, s.opt.N) != nil {
		t.Fatal("index built before any search")
	}

	first, err := s.Search(context.Background(), NewProteinTarget(proteins), tgt).Collect()
	if err != nil {
		t.Fatal(err)
	}
	ix := tgt.cached(s.opt.Seed, s.opt.N)
	if ix == nil {
		t.Fatal("first search did not cache the target index")
	}

	res2 := s.Search(context.Background(), NewProteinTarget(proteins), tgt)
	second, err := res2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if tgt.cached(s.opt.Seed, s.opt.N) != ix {
		t.Error("second search rebuilt the target index")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("index reuse changed results")
	}
	// The engine's step-1 accounting must show only the query-shard
	// build (the subject index arrived prebuilt).
	sum, err := res2.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs == 0 {
		t.Error("search on the reused index scored no pairs")
	}
}

// TestSearchEarlyBreak pins stream abandonment: breaking out of the
// iteration ends the engine's run at once, and Summary reports the
// stream as abandoned.
func TestSearchEarlyBreak(t *testing.T) {
	proteins, genome := searchWorkload(t)
	opt := DefaultOptions()
	opt.Pipeline = pipeline.Config{ShardSize: 2}
	s := newSearcher(t, opt)
	res := s.Search(context.Background(), NewProteinTarget(proteins), NewGenomeTarget(genome, nil))
	for _, err := range res.Matches() {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if _, err := res.Summary(); err == nil {
		t.Error("Summary succeeded on an abandoned stream")
	}
	// The stream is single-use.
	for _, err := range res.Matches() {
		if err == nil {
			t.Error("second iteration of a consumed stream yielded data")
		}
	}
}

// TestSearcherOptionErrors pins option validation.
func TestSearcherOptionErrors(t *testing.T) {
	cases := []Option{
		WithSeed(nil),
		WithMatrix(nil),
		WithNeighborhood(-1),
		WithMaxEValue(0),
	}
	for i, o := range cases {
		if _, err := NewSearcher(o); err == nil {
			t.Errorf("option case %d accepted", i)
		}
	}
	if _, err := NewSearcher(); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
	// Search with a nil side fails through the stream, not a panic.
	s, err := NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(context.Background(), nil, nil).Collect(); err == nil {
		t.Error("nil targets accepted")
	}
}

// TestSearchCancellation pins ctx cancellation through Search.
func TestSearchCancellation(t *testing.T) {
	proteins, genome := searchWorkload(t)
	s := newSearcher(t, DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Search(ctx, NewProteinTarget(proteins), NewGenomeTarget(genome, nil)).Collect(); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// benchSearch builds a sharded searcher and workload big enough that
// the peak-buffer difference between streaming and collecting is
// visible.
func benchSearch(b *testing.B) (*Searcher, *ProteinTarget, *GenomeTarget) {
	b.Helper()
	proteins := bank.GenerateProteins(bank.ProteinConfig{
		N: 48, MeanLen: 150, LenJitter: 30, Seed: 61,
	})
	genome, _, err := bank.GenerateGenome(bank.GenomeConfig{
		Length: 120_000, Source: proteins, PlantCount: 24, PlantSubRate: 0.1, Seed: 62,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Pipeline = pipeline.Config{ShardSize: 4}
	s := newSearcher(b, opt)
	return s, NewProteinTarget(proteins), NewGenomeTarget(genome, nil)
}

// BenchmarkSearchStream measures the streaming result path: the
// genome sub-benchmark is the multi-shard tblastn run (peak-matches is
// the engine's peak resident match buffer — compare with
// BenchmarkSearchMaterialized, where it equals the whole result), and
// the bank5k sub-benchmarks sweep the candidate prefilter on a
// 5000-sequence subject bank, where k=100 extends 2% of the subjects
// and the end-to-end run should speed up severalfold.
func BenchmarkSearchStream(b *testing.B) {
	b.Run("genome", func(b *testing.B) {
		s, q, tgt := benchSearch(b)
		var peak, total int
		for b.Loop() {
			res := s.Search(context.Background(), q, tgt)
			total = 0
			for m, err := range res.Matches() {
				if err != nil {
					b.Fatal(err)
				}
				_ = m
				total++
			}
			sum, err := res.Summary()
			if err != nil {
				b.Fatal(err)
			}
			peak = sum.Pipeline.MaxBufferedMatches
		}
		b.ReportMetric(float64(peak), "peak-matches")
		b.ReportMetric(float64(total), "total-matches")
	})
	for _, k := range []int{0, 100} {
		b.Run(fmt.Sprintf("bank5k/k=%d", k), func(b *testing.B) {
			benchStreamBank(b, k)
		})
	}
}

// benchStreamBank drives the streaming path over a large protein bank
// with the prefilter at k (0 = off). The subject index is built once
// through the target cache, so iterations measure prefilter + step 2/3
// + assembly — the stages the top-K cut is supposed to shrink.
func benchStreamBank(b *testing.B, k int) {
	queries := bank.GenerateProteins(bank.ProteinConfig{
		N: 16, MeanLen: 120, LenJitter: 30, Seed: 71,
	})
	// A redundant NR-style bank: every subject is a mutated relative of
	// some query, at divergence rates from near-duplicate to twilight.
	// Unfiltered, nearly every (query, subject) pair reaches the
	// extension stages; the top-100 cut keeps each query's closest
	// relatives and skips the rest — the prefilter's target workload.
	rng := bank.NewRNG(73)
	rates := []float64{0.10, 0.20, 0.30, 0.40, 0.50}
	subjects := bank.New("subjects")
	for i := 0; i < 5000; i++ {
		q := queries.Seq(i % queries.Len())
		rate := rates[(i/queries.Len())%len(rates)]
		subjects.Add(fmt.Sprintf("h%d", i), bank.MutateProtein(rng, q, rate))
	}
	opt := DefaultOptions()
	opt.MaxCandidates = k
	s := newSearcher(b, opt)
	q, tgt := NewProteinTarget(queries), NewProteinTarget(subjects)
	// Warm the target's cached subject index so iterations measure the
	// per-request stages, not the one-time step-1 build.
	if n := countMatches(b, s, q, tgt); n == 0 {
		b.Fatal("benchmark workload yields no matches")
	}
	var total int
	b.ResetTimer()
	for b.Loop() {
		total = countMatches(b, s, q, tgt)
	}
	b.ReportMetric(float64(total), "total-matches")
}

func countMatches(b *testing.B, s *Searcher, q *ProteinTarget, tgt *ProteinTarget) int {
	b.Helper()
	total := 0
	for m, err := range s.Search(context.Background(), q, tgt).Matches() {
		if err != nil {
			b.Fatal(err)
		}
		_ = m
		total++
	}
	return total
}

// materializedRequest rebuilds the engine request a materialized
// run would issue for the benchmark workload, so the same engine can
// be driven through Run (full slice resident) as the reference.
func materializedRequest(tb testing.TB, s *Searcher, q *ProteinTarget, tgt *GenomeTarget) *pipeline.Request {
	tb.Helper()
	ix1, err := tgt.index(s.opt.Seed, s.opt.N, s.opt.Workers)
	if err != nil {
		tb.Fatal(err)
	}
	return &pipeline.Request{
		Bank0:   q.Bank(),
		Bank1:   tgt.Bank(),
		Seed:    s.opt.Seed,
		N:       s.opt.N,
		Workers: s.opt.Workers,
		Gapped:  s.gcfg,
		Index1:  ix1,
	}
}

// BenchmarkSearchMaterialized is the materialized-slice path
// over the same workload and engine: every shard's alignments stay
// resident until assembly, so peak-matches equals the full result.
func BenchmarkSearchMaterialized(b *testing.B) {
	s, q, tgt := benchSearch(b)
	req := materializedRequest(b, s, q, tgt)
	var peak, total int
	for b.Loop() {
		out, err := s.eng.Run(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		peak = out.Metrics.MaxBufferedMatches
		total = len(out.Alignments)
	}
	b.ReportMetric(float64(peak), "peak-matches")
	b.ReportMetric(float64(total), "total-matches")
}

// TestStreamPeakBelowMaterialized is the asserted form of the two
// benchmarks: on a multi-shard run the streaming path's peak
// resident match buffer must be strictly below the materialized
// path's, whose peak is the whole result. The engine hands each
// shard's matches on before it starts the next, so the peak is
// exactly the largest shard's match count.
func TestStreamPeakBelowMaterialized(t *testing.T) {
	proteins, genome := searchWorkload(t)
	opt := DefaultOptions()
	opt.Pipeline = pipeline.Config{ShardSize: 2}
	s := newSearcher(t, opt)
	tgt := NewGenomeTarget(genome, nil)
	q := NewProteinTarget(proteins)

	out, err := s.eng.Run(context.Background(), materializedRequest(t, s, q, tgt))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Alignments) < 4 {
		t.Skipf("workload too small to compare peaks (%d matches)", len(out.Alignments))
	}
	if out.Metrics.MaxBufferedMatches != len(out.Alignments) {
		t.Fatalf("materialized peak %d, want the whole result %d",
			out.Metrics.MaxBufferedMatches, len(out.Alignments))
	}

	res := s.Search(context.Background(), q, tgt)
	n := 0
	for _, err := range res.Matches() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	sum, err := res.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out.Alignments) {
		t.Fatalf("stream yielded %d matches, materialized %d", n, len(out.Alignments))
	}
	if sum.Pipeline.MaxBufferedMatches >= out.Metrics.MaxBufferedMatches {
		t.Errorf("streaming peak %d not below materialized peak %d",
			sum.Pipeline.MaxBufferedMatches, out.Metrics.MaxBufferedMatches)
	}
	perShard := make([]int, (proteins.Len()+opt.Pipeline.ShardSize-1)/opt.Pipeline.ShardSize)
	for _, a := range out.Alignments {
		perShard[int(a.Seq0)/opt.Pipeline.ShardSize]++
	}
	if want := slices.Max(perShard); sum.Pipeline.MaxBufferedMatches != want {
		t.Errorf("streaming peak %d, want the largest shard's %d", sum.Pipeline.MaxBufferedMatches, want)
	}
}

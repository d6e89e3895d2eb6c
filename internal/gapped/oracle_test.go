package gapped

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/stats"
	"seedblast/internal/ungapped"
)

// oracleGroups is the map-based grouping RunWithStats used before the
// flat table: pairs in order of first appearance, each with its hits
// in input order. Kept as the reference partition and groupHits are
// pinned to: per query, groupHits' groups are its pairs in this order.
func oracleGroups(hits []ungapped.Hit) (order [][2]uint32, groups map[[2]uint32][]ungapped.Hit) {
	groups = make(map[[2]uint32][]ungapped.Hit)
	for _, h := range hits {
		k := [2]uint32{h.E0.Seq, h.E1.Seq}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], h)
	}
	return order, groups
}

// oracleQueries is the filter oracle of partition: for each query of
// n0 in bank order, its hits in input order.
func oracleQueries(hits []ungapped.Hit, n0 int) [][]ungapped.Hit {
	out := make([][]ungapped.Hit, n0)
	for _, h := range hits {
		out[h.E0.Seq] = append(out[h.E0.Seq], h)
	}
	return out
}

// checkPartition checks partition's queries and their hits against
// oracleQueries.
func checkPartition(t *testing.T, name string, hits []ungapped.Hit, n0, workers int) ([]query, []seedPos) {
	t.Helper()
	qs, seeds, err := partition(hits, n0, workers)
	if err != nil {
		t.Fatalf("%s/workers=%d: %v", name, workers, err)
	}
	if len(seeds) != len(hits) {
		t.Fatalf("%s/workers=%d: %d seeds for %d hits", name, workers, len(seeds), len(hits))
	}
	var want []query
	end := 0
	for q, hs := range oracleQueries(hits, n0) {
		if len(hs) == 0 {
			continue
		}
		want = append(want, query{seq0: uint32(q), start: end, end: end + len(hs)})
		for i, h := range hs {
			if seeds[end+i] != (seedPos{h.E0.Off, h.E1.Off, h.E1.Seq}) {
				t.Fatalf("%s/workers=%d: query %d hit %d is %+v, oracle %+v", name, workers, q, i, seeds[end+i], h)
			}
		}
		end += len(hs)
	}
	if len(qs) != len(want) {
		t.Fatalf("%s/workers=%d: %d queries with hits, oracle has %d", name, workers, len(qs), len(want))
	}
	for i := range want {
		if qs[i].seq0 != want[i].seq0 || qs[i].start != want[i].start || qs[i].end != want[i].end {
			t.Fatalf("%s/workers=%d: query %d is (%d, %d:%d), oracle (%d, %d:%d)", name, workers, i,
				qs[i].seq0, qs[i].start, qs[i].end, want[i].seq0, want[i].start, want[i].end)
		}
	}
	return qs, seeds
}

// checkGrouping partitions hits and groups every query with one
// grouper, in reverse bank order so that its table and buffers are
// reused across queries of different sizes, and checks the groups
// against oracleGroups.
func checkGrouping(t *testing.T, name string, hits []ungapped.Hit) {
	t.Helper()
	n0 := 0
	for _, h := range hits {
		n0 = max(n0, int(h.E0.Seq)+1)
	}
	qs, seeds := checkPartition(t, name, hits, n0, 2)
	var gr grouper
	for i := len(qs) - 1; i >= 0; i-- {
		// No bank-1 bound here: TestRunRejectsHitsOutsideBanks covers it.
		if err := gr.groupHits(&qs[i], seeds, math.MaxInt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	order, want := oracleGroups(hits)
	pairs := map[uint32][][2]uint32{} // each query's pairs in first-appearance order
	for _, k := range order {
		pairs[k[0]] = append(pairs[k[0]], k)
	}
	groups := 0
	for _, qu := range qs {
		if len(qu.groups) != len(pairs[qu.seq0]) {
			t.Fatalf("%s: query %d has %d groups, oracle %d", name, qu.seq0, len(qu.groups), len(pairs[qu.seq0]))
		}
		start := uint32(qu.start)
		for gi, g := range qu.groups {
			k := pairs[qu.seq0][gi]
			if g.seq1 != k[1] {
				t.Fatalf("%s: query %d group %d is subject %d, oracle order has %d", name, qu.seq0, gi, g.seq1, k[1])
			}
			var wantOffs []seedPos
			for _, h := range want[k] {
				wantOffs = append(wantOffs, seedPos{h.E0.Off, h.E1.Off, h.E1.Seq})
			}
			if got := seeds[start:g.end]; !reflect.DeepEqual(got, wantOffs) {
				t.Fatalf("%s: group %d (%d,%d) seeds %v, oracle %v", name, gi, k[0], k[1], got, wantOffs)
			}
			start = g.end
		}
		if int(start) != qu.end {
			t.Fatalf("%s: query %d's groups end at %d, its hits at %d", name, qu.seq0, start, qu.end)
		}
		groups += len(qu.groups)
	}
	if groups != len(order) {
		t.Fatalf("%s: %d groups, oracle has %d", name, groups, len(order))
	}
}

func TestGroupHitsMatchesMapOracle(t *testing.T) {
	hit := func(s0, s1, q, s uint32) ungapped.Hit {
		return ungapped.Hit{E0: index.Entry{Seq: s0, Off: q}, E1: index.Entry{Seq: s1, Off: s}}
	}
	rng := rand.New(rand.NewSource(17))

	checkGrouping(t, "empty", nil)
	checkGrouping(t, "single", []ungapped.Hit{hit(3, 9, 1, 2)})

	var giant, singletons, interleaved, swapped, wide, grows []ungapped.Hit
	for i := uint32(0); i < 5000; i++ {
		giant = append(giant, hit(7, 7, rng.Uint32(), rng.Uint32()))
		singletons = append(singletons, hit(i, 4999-i, i, i))
		// Two pairs alternating, then a third arriving late: in-group
		// order and first-appearance order both matter here.
		interleaved = append(interleaved, hit(i%2, 1-i%2, i, 2*i))
		// (a,b) and (b,a) must not collide into one group.
		swapped = append(swapped, hit(i%7, i%5, i, i), hit(i%5, i%7, i, i))
		// Subject numbers far beyond the table size, including the
		// all-ones extreme. (A query number past bank 0 is partition's
		// error: TestPartitionMatchesFilterOracle.)
		wide = append(wide, hit(i%3, ^uint32(0)-i%4, i, i), hit(i%3, uint32(1)<<31+i%5, i, i))
		// 2500 subjects each for queries 0 and 1: the table outgrows
		// its starting size twice, starting the query over each time.
		grows = append(grows, hit(i%2, 7*(i/2)+i%2, i, i))
	}
	interleaved = append(interleaved, hit(9, 9, 0, 0), hit(0, 1, 1, 1))
	checkGrouping(t, "giant", giant)
	checkGrouping(t, "singletons", singletons)
	checkGrouping(t, "interleaved", interleaved)
	checkGrouping(t, "swapped", swapped)
	checkGrouping(t, "wide", wide)
	checkGrouping(t, "grows", grows)

	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		n0, n1 := 1+rng.Intn(12), 1+rng.Intn(12)
		hits := make([]ungapped.Hit, n)
		for i := range hits {
			hits[i] = hit(uint32(rng.Intn(n0)), uint32(rng.Intn(n1)), uint32(rng.Intn(50)), uint32(rng.Intn(50)))
		}
		checkGrouping(t, "random", hits)
	}
}

// TestPartitionMatchesFilterOracle pins partition to oracleQueries at
// 1, 2, 3 and 8 workers: no hits, one query holding every hit, most
// queries without hits, runs of one query that worker slices begin and
// end inside, and random lists; a query past bank 0 is an error.
func TestPartitionMatchesFilterOracle(t *testing.T) {
	hit := func(s0, s1 uint32) ungapped.Hit {
		return ungapped.Hit{E0: index.Entry{Seq: s0, Off: s1 * 3}, E1: index.Entry{Seq: s1, Off: s0}}
	}
	rng := rand.New(rand.NewSource(23))
	var one, sparse, runs []ungapped.Hit
	for i := uint32(0); i < 1000; i++ {
		one = append(one, hit(5, i))
		sparse = append(sparse, hit(97*(i%3), i))
		// Runs of seven hits of one query: every worker slice of the
		// 1000 hits begins and ends inside a run.
		runs = append(runs, hit(i/7%5, i))
	}
	for _, workers := range []int{1, 2, 3, 8} {
		checkPartition(t, "empty", nil, 4, workers)
		checkPartition(t, "one query", one, 9, workers)
		checkPartition(t, "sparse", sparse, 300, workers)
		checkPartition(t, "runs", runs, 5, workers)
		for trial := 0; trial < 50; trial++ {
			n0 := 1 + rng.Intn(20)
			hits := make([]ungapped.Hit, rng.Intn(300))
			for i := range hits {
				hits[i] = hit(uint32(rng.Intn(n0)), rng.Uint32())
			}
			checkPartition(t, "random", hits, n0, workers)
		}
		bad := append([]ungapped.Hit(nil), runs...)
		bad[len(bad)-1].E0.Seq = 5
		if _, _, err := partition(bad, 5, workers); err == nil {
			t.Errorf("workers=%d: a hit past bank 0 was partitioned", workers)
		}
	}
}

// oracleRun is RunWithStats as it was before the stage was rebuilt:
// map grouping, one goroutine, and per hit the full forward + reverse
// scalar banded DP (align.LocalBandedReference) before the E-value
// cut; under Traceback, a survivor's operations come from a fresh
// Aligner, which has run no kernel pass and so takes the scalar path.
// It shares only contained and dedup with the shipped path: its final
// sort is its own global sort.Slice over every alignment, with the
// comparator the stage's per-query stable sort uses.
func oracleRun(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, Stats) {
	space := cfg.SearchSpace
	if space.IsZero() {
		space = stats.SearchSpace{DBLen: b1.TotalResidues(), DBSeqs: b1.Len()}
	}
	al := align.NewAligner(cfg.Matrix, cfg.Gaps)
	order, groups := oracleGroups(hits)
	var out []Alignment
	st := Stats{Hits: len(hits)}
	for _, k := range order {
		q, s := b0.Seq(int(k[0])), b1.Seq(int(k[1]))
		var found []Alignment
		for _, h := range groups[k] {
			qPos, sPos := int(h.E0.Off), int(h.E1.Off)
			if contained(found, qPos, sPos, cfg.Band) {
				st.Contained++
				continue
			}
			if cfg.GapTrigger > 0 {
				ext := align.ExtendUngapped(q, s, qPos, sPos, 1, cfg.XDrop, cfg.Matrix)
				if ext.Score < cfg.GapTrigger {
					st.PreFiltered++
					continue
				}
			}
			st.Extended++
			st.DPRows += int64(len(q))
			st.DPCells += int64(len(q)) * int64(2*cfg.Band+1)

			slack := cfg.Band + 8
			winStart := max(0, sPos-qPos-slack)
			winEnd := min(len(s), sPos+(len(q)-qPos)+slack)
			window, diag := s[winStart:winEnd], (sPos-winStart)-qPos
			loc := al.LocalBandedReference(q, window, diag, cfg.Band)
			if loc.Score <= 0 {
				continue
			}
			ev := cfg.Params.EValueIn(loc.Score, len(q), space)
			if ev > cfg.MaxEValue {
				continue
			}
			var ops []align.Op
			if cfg.Traceback {
				ops = align.NewAligner(cfg.Matrix, cfg.Gaps).LocalBandedOps(q, window, loc, diag, cfg.Band)
			}
			loc.BStart += winStart
			loc.BEnd += winStart
			found = append(found, Alignment{
				Seq0: int(k[0]), Seq1: int(k[1]),
				Score:    loc.Score,
				BitScore: cfg.Params.BitScore(loc.Score),
				EValue:   ev,
				Q:        Span{loc.AStart, loc.AEnd},
				S:        Span{loc.BStart, loc.BEnd},
				Ops:      ops,
			})
		}
		out = append(out, dedup(found)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq0 != out[j].Seq0 {
			return out[i].Seq0 < out[j].Seq0
		}
		if out[i].EValue != out[j].EValue {
			return out[i].EValue < out[j].EValue
		}
		return out[i].Seq1 < out[j].Seq1
	})
	return out, st
}

// oracleBank is one bank pair of the oracle suite with its step-2
// hits.
type oracleBank struct {
	name   string
	b0, b1 *bank.Bank
	hits   []ungapped.Hit
}

// oracleBanks are the bank pairs the stage is pinned to oracleRun on:
//   - homolog: the benchmark's homolog shape, full kernel passes;
//   - split: subjects with two or three similarity regions per pair,
//     on diagonals further apart than the band (a homolog split by a
//     40-residue insertion, and a tandem repeat of the query), where
//     containment against an earlier alignment's recovered start and
//     the per-pair dedup decide the result;
//   - random: threshold 20 lets a thousand chance hits through, so
//     most extensions die at the E-value cut (the score-only path);
//   - speculate: one near-identical subject per query, so a pass has
//     one group and fifteen lanes to speculate with, and the
//     speculated hits lie inside the first alignment: their lanes
//     resolve as Contained (with the gap trigger on, the first lane
//     is sure to report an alignment, and speculation stops at the
//     hits along its diagonal instead).
func oracleBanks(t *testing.T) []oracleBank {
	h0, h1 := homologBank(48)
	srng := bank.NewRNG(5)
	s1 := bank.New("split")
	for i := 0; i < 32; i++ {
		q := h0.Seq(i % h0.Len())
		m := bank.MutateProtein(srng, q, 0.15)
		var s []byte
		if i%2 == 0 {
			s = append(append(append(s, m[:len(m)/2]...), bank.RandomProtein(srng, 40)...), m[len(m)/2:]...)
		} else {
			s = append(append(s, m...), bank.MutateProtein(srng, q, 0.3)...)
		}
		s1.Add("s", s)
	}
	rng := bank.NewRNG(99)
	r0, r1 := bank.New("r0"), bank.New("r1")
	for i := 0; i < 10; i++ {
		r0.Add("q", bank.RandomProtein(rng, 150+10*i))
	}
	for i := 0; i < 40; i++ {
		r1.Add("s", bank.RandomProtein(rng, 300+7*i))
	}
	p1 := bank.New("near")
	for i := 0; i < h0.Len(); i++ {
		s := append(bank.RandomProtein(srng, 30), bank.MutateProtein(srng, h0.Seq(i), 0.05)...)
		p1.Add("s", append(s, bank.RandomProtein(srng, 30)...))
	}
	var out []oracleBank
	for _, bk := range []struct {
		name      string
		b0, b1    *bank.Bank
		threshold int
	}{{"homolog", h0, h1, 38}, {"split", h0, s1, 38}, {"random", r0, r1, 20}, {"speculate", h0, p1, 38}} {
		hits := runPipelineUpTo2(t, bk.b0, bk.b1, bk.threshold)
		if len(hits) < 500 {
			t.Fatalf("%s: only %d hits", bk.name, len(hits))
		}
		out = append(out, oracleBank{bk.name, bk.b0, bk.b1, hits})
	}
	return out
}

// TestRunMatchesOracle pins the rebuilt stage — flat grouping, chunked
// dispatch, kernel passes across a query's groups with speculation,
// score-first extension, operations walked over the kept rows — to
// oracleRun: identical alignments (values and order) and identical
// Stats. With Traceback on, the alignments are those of Traceback off
// but for their Ops, which re-score to their Score (checkOps).
func TestRunMatchesOracle(t *testing.T) {
	for _, bk := range oracleBanks(t) {
		for _, trigger := range []int{0, 41} {
			for _, maxE := range []float64{1e-3, 10} {
				var off []Alignment
				var offStats Stats
				for _, traceback := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.Traceback = traceback
					cfg.GapTrigger = trigger
					cfg.MaxEValue = maxE
					cfg.Workers = 3
					got, gotStats, fl, err := run(bk.b0, bk.b1, bk.hits, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats := oracleRun(bk.b0, bk.b1, bk.hits, cfg)
					name := fmt.Sprintf("%s traceback=%v trigger=%d maxE=%g", bk.name, traceback, trigger, maxE)
					if gotStats != wantStats {
						t.Errorf("%s: stats %+v, oracle %+v", name, gotStats, wantStats)
					}
					if gotStats.Extended == 0 {
						t.Errorf("%s: nothing was extended", name)
					}
					if bk.name == "split" && len(got) < 3*bk.b1.Len()/2 {
						t.Errorf("%s: %d alignments, want about two per subject", name, len(got))
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %d alignments differ from the oracle's %d", name, len(got), len(want))
					}
					if traceback {
						checkOps(t, name, bk.b0, bk.b1, got, cfg)
						if gotStats != offStats || !reflect.DeepEqual(withoutOps(got), off) {
							t.Errorf("%s: %d alignments and stats %+v, traceback off %d and %+v", name, len(got), gotStats, len(off), offStats)
						}
					} else {
						off, offStats = got, gotStats
					}
					speculates := align.NewAligner(cfg.Matrix, cfg.Gaps).BatchKernel()
					if !speculates && fl.speculated != 0 {
						t.Errorf("%s: %d lanes speculated without the kernel", name, fl.speculated)
					}
					// With the gap trigger off no lane is known to
					// report an alignment before it runs, so nothing
					// stops speculation along the homolog's diagonal.
					if speculates && bk.name == "speculate" && trigger == 0 && fl.dropped < fl.passes {
						t.Errorf("%s: %d speculated lanes, %d resolved as contained in %d passes: the bank no longer exercises speculation",
							name, fl.speculated, fl.dropped, fl.passes)
					}
				}
			}
		}
	}
}

// withoutOps returns a copy of as with every Ops nil.
func withoutOps(as []Alignment) []Alignment {
	out := append([]Alignment(nil), as...)
	for i := range out {
		out[i].Ops = nil
	}
	return out
}

// checkOps re-scores every alignment's operations under cfg's scoring
// system, walking them from the alignment's start: they must consume
// exactly its spans and score its Score.
func checkOps(t *testing.T, name string, b0, b1 *bank.Bank, as []Alignment, cfg Config) {
	t.Helper()
	for n, a := range as {
		q, s := b0.Seq(a.Seq0), b1.Seq(a.Seq1)
		i, j, score := a.Q.Start, a.S.Start, 0
		for _, op := range a.Ops {
			switch op.Kind {
			case align.OpAligned:
				for k := 0; k < op.Len; k++ {
					score += cfg.Matrix.Score(q[i+k], s[j+k])
				}
				i, j = i+op.Len, j+op.Len
			case align.OpDelB:
				score -= cfg.Gaps.Open + cfg.Gaps.Extend*op.Len
				i += op.Len
			case align.OpInsB:
				score -= cfg.Gaps.Open + cfg.Gaps.Extend*op.Len
				j += op.Len
			}
		}
		if len(a.Ops) == 0 || i != a.Q.End || j != a.S.End || score != a.Score {
			t.Fatalf("%s: alignment %d %+v: ops %v end at (%d,%d) and score %d", name, n, a, a.Ops, i, j, score)
		}
	}
}

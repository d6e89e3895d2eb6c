package gapped

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
)

// polyL is one poly-L query of nq residues and one poly-L subject of
// ns: every seed pair is a hit and every diagonal an alignment.
func polyL(nq, ns int) (*bank.Bank, *bank.Bank) {
	b0, b1 := bank.New("q"), bank.New("s")
	b0.Add("polyL", alphabet.MustEncodeProtein(string(bytes.Repeat([]byte("L"), nq))))
	b1.Add("polyL", alphabet.MustEncodeProtein(string(bytes.Repeat([]byte("L"), ns))))
	return b0, b1
}

// tandemRepeat is a query holding 10 copies of an 11-residue unit and
// a subject holding 40 copies at 15 % divergence, each between random
// flanks, beside a random decoy subject. With long set the subject
// holds two such runs 40 000 random residues apart, as a translated
// genome frame would: more diagonals than a group's 1 024 buckets
// cover at one bucket per 32.
func tandemRepeat(long bool) (*bank.Bank, *bank.Bank) {
	rng := bank.NewRNG(11)
	unit := bank.RandomProtein(rng, 11)
	repeat := func(n int) []byte { return bytes.Repeat(unit, n) }
	flanked := func(core []byte) []byte {
		return append(append(bank.RandomProtein(rng, 30), core...), bank.RandomProtein(rng, 30)...)
	}
	b0, b1 := bank.New("q"), bank.New("s")
	b0.Add("tandem", flanked(repeat(10)))
	s := flanked(bank.MutateProtein(rng, repeat(40), 0.15))
	if long {
		s = append(append(s, bank.RandomProtein(rng, 40000)...), flanked(bank.MutateProtein(rng, repeat(40), 0.15))...)
	}
	b1.Add("tandem", s)
	b1.Add("decoy", bank.RandomProtein(rng, 500))
	return b0, b1
}

// TestRepeatsMatchOracle pins step 3 on repetitive pairs, where one
// group finds many alignments and containment looks them up by
// diagonal, to oracleRun, which checks every found alignment: identical
// alignments and Stats at one and three workers.
func TestRepeatsMatchOracle(t *testing.T) {
	p0, p1 := polyL(60, 600)
	r0, r1 := tandemRepeat(false)
	l0, l1 := tandemRepeat(true)
	for _, bk := range []struct {
		name   string
		b0, b1 *bank.Bank
	}{{"poly-L", p0, p1}, {"tandem", r0, r1}, {"long-subject", l0, l1}} {
		hits := runPipelineUpTo2(t, bk.b0, bk.b1, 38)
		cfg := DefaultConfig()
		want, wantStats := oracleRun(bk.b0, bk.b1, hits, cfg)
		perPair, most := map[[2]int]int{}, 0
		for _, a := range want {
			perPair[[2]int{a.Seq0, a.Seq1}]++
			most = max(most, perPair[[2]int{a.Seq0, a.Seq1}])
		}
		if most < 10 {
			t.Fatalf("%s: at most %d alignments per pair from %d hits; the bank no longer makes a group find many", bk.name, most, len(hits))
		}
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			got, st, err := RunWithStats(bk.b0, bk.b1, hits, cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/workers=%d", bk.name, workers)
			if st != wantStats {
				t.Errorf("%s: stats %+v, oracle %+v", name, st, wantStats)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d alignments differ from the oracle's %d", name, len(got), len(want))
			}
		}
	}
}

// BenchmarkRunRepeats times step 3 on poly-L pairs whose lengths double
// from one case to the next: with containment by diagonal each case
// costs about four times the one before, as its hits do.
func BenchmarkRunRepeats(b *testing.B) {
	for _, n := range []int{100, 200} {
		b0, b1 := polyL(n, 10*n)
		hits := runPipelineUpTo2(b, b0, b1, 38)
		b.Run(fmt.Sprintf("polyL=%dx%d", n, 10*n), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = 1
			for i := 0; i < b.N; i++ {
				if _, _, err := RunWithStats(b0, b1, hits, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(hits)), "hits")
		})
	}
}

package gapped

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/seed"
	"seedblast/internal/ungapped"
)

// TestExtendMatchesRunWithStats runs step 3 on step 2's hand-off, read
// in place at 1, 2 and 3 step-2 workers, and on its hits concatenated
// through RunWithStats, at 1 and 2 step-3 workers: alignments and Stats
// must be identical on the homolog, scan and serve shapes.
func TestExtendMatchesRunWithStats(t *testing.T) {
	rng := bank.NewRNG(41)
	planted := func(queries, qlen, subjects, slen, homologs int) (*bank.Bank, *bank.Bank) {
		b0, b1 := bank.New("q"), bank.New("s")
		for i := 0; i < queries; i++ {
			b0.Add("q", bank.RandomProtein(rng, qlen+5*i%40))
		}
		for j := 0; j < subjects; j++ {
			s := bank.RandomProtein(rng, slen)
			if j < homologs {
				hom := bank.MutateProtein(rng, b0.Seq(j%queries), 0.2)
				copy(s[(slen-len(hom))/2:], hom)
			}
			b1.Add("s", s)
		}
		return b0, b1
	}
	type shape struct {
		name   string
		b0, b1 *bank.Bank
	}
	hb0, hb1 := homologBank(400)
	sb0, sb1 := planted(16, 200, 300, 600, 16)
	vb0, vb1 := planted(4, 105, 64, 300, 16)
	for _, sh := range []shape{{"homolog", hb0, hb1}, {"scan", sb0, sb1}, {"serve", vb0, vb1}} {
		model := seed.Default()
		ix0, err := index.Build(sh.b0, model, 14)
		if err != nil {
			t.Fatal(err)
		}
		ix1, err := index.Build(sh.b1, model, 14)
		if err != nil {
			t.Fatal(err)
		}
		for _, w2 := range []int{1, 2, 3} {
			in, err := ungapped.Scan(ix0, ix1, ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: 38, Workers: w2})
			if err != nil {
				t.Fatal(err)
			}
			hits := slices.Clone(in.Hits())
			if len(hits) == 0 {
				t.Fatalf("%s: no hits; the test is vacuous", sh.name)
			}
			for _, w3 := range []int{1, 2} {
				label := fmt.Sprintf("%s/step2=%d/step3=%d", sh.name, w2, w3)
				cfg := DefaultConfig()
				cfg.Workers = w3
				got, gotSt, err := Extend(sh.b0, sh.b1, in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, wantSt, err := RunWithStats(sh.b0, sh.b1, hits, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatalf("%s: no alignments; the test is vacuous", label)
				}
				if !reflect.DeepEqual(got, want) || gotSt != wantSt {
					t.Fatalf("%s: Extend gave %d alignments, %+v; RunWithStats %d, %+v", label, len(got), gotSt, len(want), wantSt)
				}
			}
			in.Release()
		}
	}
}

package gapped

import (
	"fmt"
	"reflect"
	"testing"

	"seedblast/internal/align"
)

// TestScalarFallbackWithoutAVX2 runs the path non-amd64 builds and
// hosts without AVX2 take: with align.HasAVX2 false every lane runs
// the scalar loop and nothing is speculated, and the stage returns the
// same alignments, operations included under Traceback, and Stats on
// the oracle banks.
func TestScalarFallbackWithoutAVX2(t *testing.T) {
	if !align.HasAVX2 {
		t.Skip("this host takes the scalar path already")
	}
	banks := oracleBanks(t)
	type result struct {
		name string
		as   []Alignment
		st   Stats
		fl   fill
	}
	runAll := func() []result {
		var out []result
		for _, traceback := range []bool{false, true} {
			for _, trigger := range []int{0, 41} {
				cfg := DefaultConfig()
				cfg.Traceback = traceback
				cfg.GapTrigger = trigger
				cfg.Workers = 2
				for _, bk := range banks {
					as, st, fl, err := run(bk.b0, bk.b1, bk.hits, cfg)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, result{fmt.Sprintf("%s traceback=%v trigger=%d", bk.name, traceback, trigger), as, st, fl})
				}
			}
		}
		return out
	}
	kernel := runAll()
	defer func(old bool) { align.HasAVX2 = old }(align.HasAVX2)
	align.HasAVX2 = false
	if align.NewAligner(DefaultConfig().Matrix, align.DefaultGaps).BatchKernel() {
		t.Fatal("BatchKernel reports the kernel without AVX2")
	}
	speculated := 0
	for i, got := range runAll() {
		name := got.name
		speculated += kernel[i].fl.speculated
		if got.fl.speculated != 0 {
			t.Errorf("%s: %d lanes speculated on the scalar path", name, got.fl.speculated)
		}
		if got.st != kernel[i].st {
			t.Errorf("%s: stats %+v, kernel %+v", name, got.st, kernel[i].st)
		}
		if !reflect.DeepEqual(got.as, kernel[i].as) {
			t.Errorf("%s: %d alignments differ from the kernel's %d", name, len(got.as), len(kernel[i].as))
		}
	}
	if speculated == 0 {
		t.Error("the kernel runs speculated nothing: the comparison no longer covers speculation")
	}
}

package core

import (
	"reflect"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/bank"
	"seedblast/internal/gapped"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/stats"
	"seedblast/internal/translate"
)

// Regression for the options bug where a nil Gapped.Matrix replaced
// the caller's entire gapped.Config with the defaults, silently
// discarding user-set fields like Band and MaxEValue, and
// Gapped.Workers was unconditionally clobbered by Options.Workers.
func TestGappedConfigPreservesUserFields(t *testing.T) {
	opt := DefaultOptions()
	opt.Workers = 8
	opt.Gapped = gapped.Config{ // Matrix deliberately nil
		Band:      7,
		MaxEValue: 0.5,
		Workers:   3,
	}
	g := opt.gappedConfig()
	if g.Matrix != matrix.BLOSUM62 {
		t.Errorf("missing matrix not filled with the default")
	}
	if g.Band != 7 {
		t.Errorf("user Band discarded: got %d, want 7", g.Band)
	}
	if g.MaxEValue != 0.5 {
		t.Errorf("user MaxEValue discarded: got %g, want 0.5", g.MaxEValue)
	}
	if g.Workers != 3 {
		t.Errorf("explicit Gapped.Workers clobbered: got %d, want 3", g.Workers)
	}
	if g.GapTrigger != 0 {
		t.Errorf("GapTrigger 0 (pre-filter disabled) overwritten: got %d", g.GapTrigger)
	}
	def := gapped.DefaultConfig()
	if g.Params != def.Params {
		t.Errorf("unset Params not filled with the defaults")
	}
	if g.Gaps != def.Gaps {
		t.Errorf("unset Gaps not filled with the defaults")
	}
}

func TestGappedConfigZeroValueGetsDefaults(t *testing.T) {
	opt := DefaultOptions()
	opt.Gapped = gapped.Config{}
	opt.Workers = 2
	g := opt.gappedConfig()
	def := gapped.DefaultConfig()
	if g.Matrix != def.Matrix || g.Band != def.Band || g.MaxEValue != def.MaxEValue ||
		g.Params != def.Params || g.Gaps != def.Gaps {
		t.Errorf("zero Gapped config not filled with defaults: %+v", g)
	}
	if g.Workers != 2 {
		t.Errorf("unset Gapped.Workers should inherit Options.Workers: got %d", g.Workers)
	}
}

func TestGappedConfigExplicitUntouched(t *testing.T) {
	opt := DefaultOptions()
	want := gapped.Config{
		Matrix:     matrix.BLOSUM62,
		Gaps:       align.GapParams{Open: 9, Extend: 2},
		Band:       5,
		GapTrigger: 20,
		XDrop:      9,
		Params:     gapped.DefaultConfig().Params,
		MaxEValue:  2.5,
		Traceback:  true,
		Workers:    4,
	}
	opt.Gapped = want
	opt.Workers = 16
	if got := opt.gappedConfig(); got != want {
		t.Errorf("fully explicit Gapped config modified:\n got %+v\nwant %+v", got, want)
	}
}

func TestGappedConfigSearchSpaceOverride(t *testing.T) {
	opt := DefaultOptions()
	opt.SearchSpaceOverride = stats.SearchSpace{DBLen: 123456, DBSeqs: 42}
	if g := opt.gappedConfig(); g.SearchSpace != opt.SearchSpaceOverride {
		t.Errorf("SearchSpaceOverride not plumbed into the gapped config: %+v", g.SearchSpace)
	}
	// And it must win over a conflicting Gapped.SearchSpace.
	opt.Gapped.SearchSpace = stats.SearchSpace{DBLen: 7}
	if g := opt.gappedConfig(); g.SearchSpace != opt.SearchSpaceOverride {
		t.Errorf("SearchSpaceOverride lost to Gapped.SearchSpace: %+v", g.SearchSpace)
	}
}

// A volume comparison with the full bank's search space must report
// the same E-values as the unpartitioned run: this is the statistical
// invariant the cluster layer's scatter-gather depends on.
func TestCompareSearchSpaceOverrideMatchesFullBank(t *testing.T) {
	b0 := bank.GenerateProteins(bank.ProteinConfig{N: 6, MeanLen: 110, LenJitter: 10, Seed: 11})
	b1 := bank.GenerateProteins(bank.ProteinConfig{N: 10, MeanLen: 110, LenJitter: 10, Seed: 12})

	opt := DefaultOptions()
	opt.UngappedThreshold = 22
	opt.Gapped.MaxEValue = 10 // loose enough that chance hits survive
	full, err := searchBanks(b0, b1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Alignments) == 0 {
		t.Skip("workload produced no alignments; nothing to pin")
	}

	// Rebuild the first volume: subject sequences [0, 5).
	vol := bank.New("vol0")
	for i := 0; i < 5; i++ {
		vol.Add(b1.ID(i), b1.Seq(i))
	}
	vopt := opt
	vopt.SearchSpaceOverride = stats.SearchSpace{DBLen: b1.TotalResidues(), DBSeqs: b1.Len()}
	vres, err := searchBanks(b0, vol, vopt)
	if err != nil {
		t.Fatal(err)
	}
	// The volume is the first five subjects, so volume-local Seq1 equals
	// the global number and filtering the full run to Seq1 < 5 preserves
	// the (Seq0, EValue, Seq1) order: the two lists must match exactly.
	var want []gapped.Alignment
	for _, a := range full.Alignments {
		if a.Seq1 < 5 {
			want = append(want, a)
		}
	}
	if !reflect.DeepEqual(vres.Alignments, want) {
		t.Errorf("volume run with full-bank search space differs from the full run's volume slice:\n got %+v\nwant %+v",
			vres.Alignments, want)
	}
}

// End-to-end: a user-set MaxEValue with a nil Matrix must actually
// reach the gapped stage instead of being replaced by the default.
func TestCompareHonorsGappedEValueWithNilMatrix(t *testing.T) {
	// Unrelated banks: chance similarities only, which survive a loose
	// E-value cutoff but not the strict default.
	b0 := bank.GenerateProteins(bank.ProteinConfig{N: 20, MeanLen: 120, LenJitter: 15, Seed: 7})
	b1 := bank.GenerateProteins(bank.ProteinConfig{N: 20, MeanLen: 120, LenJitter: 15, Seed: 8})

	loose := DefaultOptions()
	loose.UngappedThreshold = 20
	loose.Gapped = gapped.Config{MaxEValue: 1e6} // Matrix nil: fill it, keep the cutoff
	rl, err := searchBanks(b0, b1, loose)
	if err != nil {
		t.Fatal(err)
	}

	strict := DefaultOptions() // default E ≤ 1e-3
	strict.UngappedThreshold = 20
	rs, err := searchBanks(b0, b1, strict)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl.Alignments) <= len(rs.Alignments) {
		t.Errorf("loose cutoff (1e6) reported %d alignments, strict (1e-3) %d; the user cutoff was discarded",
			len(rl.Alignments), len(rs.Alignments))
	}
	for _, a := range rl.Alignments {
		if a.EValue > 1e6 {
			t.Fatalf("alignment with E=%g exceeds the user cutoff", a.EValue)
		}
	}
}

// A prebuilt index handed to a target with Adopt must be bit-identical
// to a fresh build, and a mismatched one rejected loudly.
func TestCompareWithPrebuiltSubjectIndex(t *testing.T) {
	b0 := bank.GenerateProteins(bank.ProteinConfig{N: 8, MeanLen: 100, LenJitter: 10, Seed: 3})
	b1 := bank.GenerateProteins(bank.ProteinConfig{N: 8, MeanLen: 100, LenJitter: 10, Seed: 4})

	opt := DefaultOptions()
	fresh, err := searchBanks(b0, b1, opt)
	if err != nil {
		t.Fatal(err)
	}

	ix1, err := index.BuildParallel(b1, opt.Seed, opt.N, 0)
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewProteinTarget(b1)
	tgt.Adopt(ix1)
	if tgt.cached(opt.Seed, opt.N) != ix1 {
		t.Fatal("adopted index not installed")
	}
	reused, err := search(NewProteinTarget(b0), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(reused.Alignments) != len(fresh.Alignments) {
		t.Fatalf("prebuilt subject index changed results: %d vs %d alignments",
			len(reused.Alignments), len(fresh.Alignments))
	}
	for i := range fresh.Alignments {
		if fresh.Alignments[i].Score != reused.Alignments[i].Score ||
			fresh.Alignments[i].Seq0 != reused.Alignments[i].Seq0 ||
			fresh.Alignments[i].Seq1 != reused.Alignments[i].Seq1 ||
			fresh.Alignments[i].EValue != reused.Alignments[i].EValue {
			t.Fatalf("alignment %d differs with prebuilt subject index", i)
		}
	}

	// A mismatched index — built from another bank — must be rejected,
	// not silently used or rebuilt.
	bad := NewProteinTarget(b0)
	bad.Adopt(ix1)
	if _, err := search(NewProteinTarget(b0), bad, opt); err == nil {
		t.Fatal("index of a different bank accepted")
	}
}

// Regression: the geneticCode wire option once reached
// Options.GeneticCode with no With* setter managing the field, so the
// functional-option API could not express it at all.
func TestWithGeneticCodeSetsTranslationTable(t *testing.T) {
	opt := DefaultOptions()
	if err := WithGeneticCode(translate.VertebrateMitoCode)(&opt); err != nil {
		t.Fatalf("WithGeneticCode: %v", err)
	}
	if opt.GeneticCode != translate.VertebrateMitoCode {
		t.Fatalf("GeneticCode not applied: got %p", opt.GeneticCode)
	}
	if err := WithGeneticCode(nil)(&opt); err != nil {
		t.Fatalf("WithGeneticCode(nil): %v", err)
	}
	if opt.GeneticCode != nil {
		t.Fatal("WithGeneticCode(nil) did not reset to the standard code")
	}
}

// sharedOptionTables are the Options fields that may hold a pointer or
// an interface: immutable tables shared by every copy of Options.
var sharedOptionTables = map[string]bool{
	"Matrix":        true,
	"GeneticCode":   true,
	"Seed":          true,
	"Gapped.Matrix": true,
}

// Options is copied by value into every Searcher and every job, so a
// copy must share nothing a setter could write through: no map, slice,
// chan or func anywhere its struct and array fields reach, and
// pointers or interfaces only to the shared immutable tables.
func TestOptionsHoldOnlyValues(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				p := f.Name
				if path != "" {
					p = path + "." + f.Name
				}
				walk(p, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
			t.Errorf("Options.%s is a %s: copies of Options would share it", path, typ)
		case reflect.Pointer, reflect.Interface, reflect.UnsafePointer:
			if !sharedOptionTables[path] {
				t.Errorf("Options.%s is a %s outside the shared immutable tables", path, typ)
			}
		}
	}
	walk("", reflect.TypeOf(Options{}))
}

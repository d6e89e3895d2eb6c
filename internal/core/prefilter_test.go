package core

import (
	"fmt"
	"testing"

	"seedblast/internal/gapped"
	"seedblast/internal/pipeline"
)

// prefilterConfigs is the engine × shard-size grid the prefilter
// equivalence contract is pinned over.
func prefilterConfigs(n int) []struct {
	name  string
	eng   Engine
	shard int
} {
	return []struct {
		name  string
		eng   Engine
		shard int
	}{
		{"cpu/shard=0", EngineCPU, 0},
		{"cpu/shard=5", EngineCPU, 5},
		{"rasc/shard=0", EngineRASC, 0},
		{"rasc/shard=5", EngineRASC, 5},
		{"cpu/shard=big", EngineCPU, n + 9},
	}
}

func prefilterOpts(c struct {
	name  string
	eng   Engine
	shard int
}, maxCand int) Options {
	opt := DefaultOptions()
	opt.Engine = c.eng
	opt.MaxCandidates = maxCand
	if c.shard > 0 {
		opt.Pipeline = pipeline.Config{ShardSize: c.shard}
	}
	return opt
}

func sameAlignment(a, b gapped.Alignment) bool {
	return a.Seq0 == b.Seq0 && a.Seq1 == b.Seq1 && a.Score == b.Score &&
		a.BitScore == b.BitScore && a.EValue == b.EValue &&
		a.Q == b.Q && a.S == b.S
}

// TestPrefilterOffBitIdentical pins the k=0 bypass: WithMaxCandidates(0)
// must leave every engine's result bit-identical — values AND emission
// order — to the same run without the option ever mentioned.
func TestPrefilterOffBitIdentical(t *testing.T) {
	proteins, fbank := equivWorkload(t)
	for _, c := range prefilterConfigs(proteins.Len()) {
		ref, err := searchBanks(proteins, fbank, prefilterOpts(c, 0))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		opt := prefilterOpts(c, 0)
		opt.MaxCandidates = 0 // explicit zero via the documented off switch
		res, err := searchBanks(proteins, fbank, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertIdenticalResults(t, c.name, res, ref)
		if res.Pipeline.PrefilterKept != 0 || res.Pipeline.PrefilterDropped != 0 ||
			res.Pipeline.Prefilter.Shards != 0 {
			t.Fatalf("%s: disabled prefilter recorded work: %+v", c.name, res.Pipeline.Prefilter)
		}
	}
}

// TestPrefilterWideOpenBitIdentical is the monotonicity gate: with
// MaxCandidates at least the subject-bank size no candidate is ever
// cut, so the filtered pipeline must reproduce the unfiltered result
// bit-for-bit — same Hits, Pairs, stats, and alignments in the same
// order — on every engine and shard size.
func TestPrefilterWideOpenBitIdentical(t *testing.T) {
	proteins, fbank := equivWorkload(t)
	for _, c := range prefilterConfigs(proteins.Len()) {
		ref, err := searchBanks(proteins, fbank, prefilterOpts(c, 0))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ref.Hits == 0 || len(ref.Alignments) == 0 {
			t.Fatalf("%s: degenerate reference", c.name)
		}
		res, err := searchBanks(proteins, fbank, prefilterOpts(c, fbank.Len()))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertIdenticalResults(t, c.name, res, ref)
		if res.Pipeline.PrefilterDropped != 0 {
			t.Fatalf("%s: wide-open prefilter dropped %d pairs",
				c.name, res.Pipeline.PrefilterDropped)
		}
		if res.Pipeline.PrefilterKept == 0 || res.Pipeline.Prefilter.Shards == 0 {
			t.Fatalf("%s: prefilter ran but recorded no work: kept=%d shards=%d",
				c.name, res.Pipeline.PrefilterKept, res.Pipeline.Prefilter.Shards)
		}
	}
}

func assertIdenticalResults(t *testing.T, name string, res, ref *Result) {
	t.Helper()
	if res.Hits != ref.Hits || res.Pairs != ref.Pairs {
		t.Fatalf("%s: hits/pairs %d/%d, want %d/%d",
			name, res.Hits, res.Pairs, ref.Hits, ref.Pairs)
	}
	if res.GappedWork != ref.GappedWork {
		t.Fatalf("%s: gapped work %+v, want %+v", name, res.GappedWork, ref.GappedWork)
	}
	if len(res.Alignments) != len(ref.Alignments) {
		t.Fatalf("%s: %d alignments, want %d", name, len(res.Alignments), len(ref.Alignments))
	}
	for i := range res.Alignments {
		if !sameAlignment(res.Alignments[i], ref.Alignments[i]) {
			t.Fatalf("%s: alignment %d differs (value or order):\n%+v\nvs\n%+v",
				name, i, res.Alignments[i], ref.Alignments[i])
		}
	}
}

// TestPrefilterSmallKSubsetInvariantEValues checks the lossy regime:
// a tight cut may drop alignments but must never invent one, and every
// surviving alignment keeps the exact score, bit score and E-value of
// its unfiltered counterpart — the E-value-invariance contract
// (search-space geometry still describes the full bank).
func TestPrefilterSmallKSubsetInvariantEValues(t *testing.T) {
	proteins, fbank := equivWorkload(t)
	ref, err := searchBanks(proteins, fbank, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		for _, eng := range []Engine{EngineCPU, EngineRASC} {
			name := fmt.Sprintf("%s/k=%d", eng, k)
			opt := DefaultOptions()
			opt.Engine = eng
			opt.MaxCandidates = k
			res, err := searchBanks(proteins, fbank, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Pairs > ref.Pairs || res.Hits > ref.Hits {
				t.Fatalf("%s: filtered run found MORE work: hits/pairs %d/%d vs %d/%d",
					name, res.Hits, res.Pairs, ref.Hits, ref.Pairs)
			}
			for i, a := range res.Alignments {
				found := false
				for _, b := range ref.Alignments {
					if sameAlignment(a, b) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: alignment %d %+v absent from the unfiltered result", name, i, a)
				}
			}
			if res.Pipeline.PrefilterDropped == 0 {
				t.Fatalf("%s: tight cut dropped nothing on a %d-subject bank", name, fbank.Len())
			}
		}
	}
}

// TestWithMaxCandidatesOption pins option-level validation.
func TestWithMaxCandidatesOption(t *testing.T) {
	if _, err := NewSearcher(WithMaxCandidates(-1)); err == nil {
		t.Fatal("negative MaxCandidates accepted")
	}
	s, err := NewSearcher(WithMaxCandidates(7))
	if err != nil {
		t.Fatal(err)
	}
	if s.opt.MaxCandidates != 7 {
		t.Fatalf("MaxCandidates = %d, want 7", s.opt.MaxCandidates)
	}
}

package seedblast_test

import (
	"context"
	"reflect"
	"testing"

	"seedblast"
	"seedblast/internal/core"
	"seedblast/internal/gapped"
	"seedblast/internal/stats"
	"seedblast/internal/translate"
	"seedblast/internal/ungapped"
)

// Compile-time exhaustiveness gate for the search facade: every
// exported search symbol must round-trip through its internal counterpart. A facade
// alias that drifts from its core type, or a constructor whose
// signature no longer matches, fails this file at build time — before
// any test runs. (The apidiff CI gate guards the other direction:
// accidental breaking changes to this surface.)
var (
	// Type aliases: assignability in both directions proves identity.
	_ core.Match        = seedblast.Match{}
	_ seedblast.Match   = core.Match{}
	_ core.Locus        = seedblast.Locus{}
	_ seedblast.Locus   = core.Locus{}
	_ core.Summary      = seedblast.Summary{}
	_ seedblast.Summary = core.Summary{}
	_ *core.Searcher    = (*seedblast.Searcher)(nil)
	_ *core.Results     = (*seedblast.Results)(nil)
	_ core.Option       = seedblast.Option(nil)

	_ core.Target      = (*seedblast.ProteinTarget)(nil)
	_ core.Target      = (*seedblast.GenomeTarget)(nil)
	_ core.Target      = (*seedblast.DNATarget)(nil)
	_ seedblast.Target = core.Target(nil)

	_ gapped.Alignment  = seedblast.Alignment{}
	_ gapped.Span       = seedblast.Span{}
	_ translate.Frame   = seedblast.Frame(0)
	_ stats.SearchSpace = seedblast.SearchSpace{}
	_ gapped.Config     = seedblast.GappedConfig{}

	// Constructors and option setters: exact signature matches.
	_ func(...seedblast.Option) (*seedblast.Searcher, error)       = seedblast.NewSearcher
	_ func(*seedblast.Bank) *seedblast.ProteinTarget               = seedblast.NewProteinTarget
	_ func([]byte, *seedblast.GeneticCode) *seedblast.GenomeTarget = seedblast.NewGenomeTarget
	_ func([][]byte, *seedblast.GeneticCode) *seedblast.DNATarget  = seedblast.NewDNATarget

	_ func(seedblast.SeedModel) seedblast.Option      = seedblast.WithSeed
	_ func(int) seedblast.Option                      = seedblast.WithNeighborhood
	_ func(*seedblast.Matrix) seedblast.Option        = seedblast.WithMatrix
	_ func(int) seedblast.Option                      = seedblast.WithUngappedThreshold
	_ func(seedblast.Engine) seedblast.Option         = seedblast.WithEngine
	_ func(seedblast.RASCOptions) seedblast.Option    = seedblast.WithRASC
	_ func(int) seedblast.Option                      = seedblast.WithWorkers
	_ func(seedblast.Kernel) seedblast.Option         = seedblast.WithStep2Kernel
	_ ungapped.Kernel                                 = seedblast.KernelBlocked
	_ seedblast.Kernel                                = ungapped.KernelScalar
	_ func(string) (seedblast.Kernel, error)          = seedblast.ParseKernel
	_ func(seedblast.PipelineConfig) seedblast.Option = seedblast.WithPipeline
	_ func(seedblast.GappedConfig) seedblast.Option   = seedblast.WithGapped
	_ func(float64) seedblast.Option                  = seedblast.WithMaxEValue
	_ func(bool) seedblast.Option                     = seedblast.WithTraceback
	_ func(seedblast.SearchSpace) seedblast.Option    = seedblast.WithSearchSpace
	_ func(*seedblast.GeneticCode) seedblast.Option   = seedblast.WithGeneticCode
)

// The Search entry point and the streaming result surface, asserted
// by use (method sets cannot be asserted by assignment alone).
func TestV2FacadeSearchSurface(t *testing.T) {
	proteins := seedblast.GenerateProteins(seedblast.ProteinConfig{N: 4, MeanLen: 80, Seed: 71})
	genome, _, err := seedblast.GenerateGenome(seedblast.GenomeConfig{
		Length: 15_000, Source: proteins, PlantCount: 2, Seed: 72,
	})
	if err != nil {
		t.Fatal(err)
	}

	searcher, err := seedblast.NewSearcher(seedblast.WithMaxEValue(10))
	if err != nil {
		t.Fatal(err)
	}
	target := seedblast.NewGenomeTarget(genome, nil)
	results := searcher.Search(context.Background(), seedblast.NewProteinTarget(proteins), target)

	var streamed []seedblast.Match
	for m, err := range results.Matches() {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, m)
	}
	if len(streamed) == 0 {
		t.Fatal("v2 facade search found nothing")
	}
	sum, err := results.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs == 0 || sum.Hits == 0 {
		t.Errorf("summary counters empty: %+v", sum)
	}

	// Collect on a fresh Results must equal the streamed sequence, and
	// both must match the engine reached without the facade bit-for-bit
	// (internal/core's suites pin that engine to the CompareBatch
	// oracle, which lives in its test files).
	collected, err := searcher.Search(context.Background(), seedblast.NewProteinTarget(proteins), target).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(collected) != len(streamed) {
		t.Fatalf("Collect returned %d matches, stream %d", len(collected), len(streamed))
	}
	direct, err := core.NewSearcher(core.WithMaxEValue(10))
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Search(context.Background(), core.NewProteinTarget(proteins), core.NewGenomeTarget(genome, nil)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(streamed) {
		t.Fatalf("internal/core returned %d matches, the facade %d", len(want), len(streamed))
	}
	for i := range streamed {
		if !reflect.DeepEqual(streamed[i], collected[i]) || !reflect.DeepEqual(streamed[i], want[i]) {
			t.Fatalf("match %d diverges between stream, Collect and internal/core:\n%+v\n%+v\n%+v",
				i, streamed[i], collected[i], want[i])
		}
	}
}

package seedblast

// This file is the public search API: a Searcher constructed once
// from functional options, reusable indexed Targets for every
// comparison shape, and a single Search entry point with end-to-end
// streaming results.
//
//	searcher, err := seedblast.NewSearcher(
//		seedblast.WithEngine(seedblast.EngineRASC),
//		seedblast.WithMaxEValue(1e-3),
//	)
//	target := seedblast.NewGenomeTarget(genome, nil) // indexed once, reused
//	for m, err := range searcher.Search(ctx, seedblast.NewProteinTarget(bank), target).Matches() {
//		...
//	}

import (
	"seedblast/internal/core"
	"seedblast/internal/gapped"
	"seedblast/internal/matrix"
	"seedblast/internal/stats"
	"seedblast/internal/translate"
)

// Search types, re-exported.
type (
	// Searcher runs seed-based comparisons; build it once with
	// NewSearcher and reuse it (safe for concurrent use).
	Searcher = core.Searcher
	// Option configures a Searcher (see the With* constructors).
	Option = core.Option
	// Target is one side of a comparison: sequences plus their
	// prebuilt, reusable step-1 indexes. Implemented by ProteinTarget,
	// GenomeTarget and DNATarget.
	Target = core.Target
	// ProteinTarget is a protein bank as a search side.
	ProteinTarget = core.ProteinTarget
	// GenomeTarget is a six-frame-translated genome as a search side.
	GenomeTarget = core.GenomeTarget
	// DNATarget is a set of six-frame-translated DNA sequences as a
	// search side (the blastx query).
	DNATarget = core.DNATarget
	// Results is a streaming search outcome: Matches() streams, while
	// Collect() materializes; Summary() reports counters and timings
	// once the stream is drained.
	Results = core.Results
	// Match is one reported similarity region with both engine and
	// source coordinates.
	Match = core.Match
	// Locus is one side of a Match in source coordinates (sequence,
	// frame, nucleotide span).
	Locus = core.Locus
	// Summary is the non-match part of a search outcome.
	Summary = core.Summary
	// Alignment is one engine alignment (the coordinate core of every
	// match).
	Alignment = gapped.Alignment
	// Span is a half-open residue range within a sequence.
	Span = gapped.Span
	// Frame identifies a reading frame (+1..+3, -1..-3) of a
	// translated search side.
	Frame = translate.Frame
	// SearchSpace fixes the database geometry used for E-value
	// statistics (see WithSearchSpace).
	SearchSpace = stats.SearchSpace
	// GappedConfig parameterises step 3 (see WithGapped).
	GappedConfig = gapped.Config
	// Matrix is a residue scoring matrix (see WithMatrix).
	Matrix = matrix.Matrix
)

// NewSearcher builds a Searcher from the pipeline defaults with the
// given options applied in order.
func NewSearcher(opts ...Option) (*Searcher, error) { return core.NewSearcher(opts...) }

// NewProteinTarget wraps a protein bank as a reusable search side.
func NewProteinTarget(b *Bank) *ProteinTarget { return core.NewProteinTarget(b) }

// NewGenomeTarget translates an encoded genome (EncodeDNA) into its
// six reading frames under code (nil = standard) and wraps it as a
// reusable search side. Its step-1 index is built on first use and
// shared by every later search with the same seed model and N.
func NewGenomeTarget(genome []byte, code *GeneticCode) *GenomeTarget {
	return core.NewGenomeTarget(genome, code)
}

// NewDNATarget translates each encoded DNA sequence into its six
// reading frames under code (nil = standard) and wraps the combined
// frame set as a reusable search side.
func NewDNATarget(queries [][]byte, code *GeneticCode) *DNATarget {
	return core.NewDNATarget(queries, code)
}

// OpenTarget loads a seeddb file (cmd/seeddb, or an Index written with
// WriteTo) as a ready protein search target: the bank and its prebuilt
// step-1 index are mapped from disk, so a Searcher with the matching
// seed configuration skips indexing entirely. Search results are
// bit-identical to an in-memory build of the same bank. Call Close on
// the returned target to release the file mapping.
func OpenTarget(path string) (*ProteinTarget, error) { return core.OpenTarget(path) }

// Functional options, re-exported.

// WithSeed selects the seed model (step 1).
func WithSeed(m SeedModel) Option { return core.WithSeed(m) }

// WithNeighborhood sets the neighbourhood extension N (windows are
// W+2N).
func WithNeighborhood(n int) Option { return core.WithNeighborhood(n) }

// WithMatrix sets the scoring matrix.
func WithMatrix(m *Matrix) Option { return core.WithMatrix(m) }

// WithUngappedThreshold sets the step-2 score threshold.
func WithUngappedThreshold(threshold int) Option { return core.WithUngappedThreshold(threshold) }

// WithEngine selects where step 2 runs: EngineCPU, EngineRASC or
// EngineMulti.
func WithEngine(e Engine) Option { return core.WithEngine(e) }

// WithRASC configures the simulated accelerator.
func WithRASC(r RASCOptions) Option { return core.WithRASC(r) }

// WithWorkers sets the host parallelism (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// WithPipeline tunes the streaming shard engine.
func WithPipeline(cfg PipelineConfig) Option { return core.WithPipeline(cfg) }

// WithMaxCandidates enables the two-stage prefilter: each query's
// subjects are ranked by a cheap hashed-seed diagonal-band score and
// only the top k survive into ungapped and gapped extension. k = 0
// (the default) disables the stage and the search is bit-identical to
// one without it; E-values are unchanged for any k because the
// statistics keep the full subject bank's geometry.
func WithMaxCandidates(k int) Option { return core.WithMaxCandidates(k) }

// WithGapped replaces the step-3 configuration.
func WithGapped(cfg GappedConfig) Option { return core.WithGapped(cfg) }

// WithMaxEValue sets the significance cutoff.
func WithMaxEValue(ev float64) Option { return core.WithMaxEValue(ev) }

// WithTraceback records alignment operations for reporting.
func WithTraceback(on bool) Option { return core.WithTraceback(on) }

// WithSearchSpace fixes the database geometry for E-value statistics
// (the scatter-gather volume context).
func WithSearchSpace(sp SearchSpace) Option { return core.WithSearchSpace(sp) }

// WithGeneticCode selects the translation table for DNA and genome
// targets built without an explicit code (nil means the standard code).
func WithGeneticCode(code *GeneticCode) Option { return core.WithGeneticCode(code) }

// Package seedblast is a Go reproduction of "Implementing Protein
// Seed-Based Comparison Algorithm on the SGI RASC-100 Platform"
// (Nguyen, Cornu, Lavenier — RAW/IPDPS 2009): a tblastn-class
// bank-vs-bank protein/genome comparison pipeline whose critical
// section (seed-pair ungapped extension) can execute either on a
// parallel CPU engine or on a cycle-level simulation of the paper's
// PSC operator on the SGI RASC-100 FPGA accelerator.
//
// The package is a facade over the internal packages. The one entry
// point is the search API (search.go): a Searcher built once from
// functional options, reusable indexed Targets for every comparison
// shape (protein bank, genome, DNA queries), and one Search call with
// streaming results. The facade also exposes the workload generators
// the experiments use, FASTA I/O helpers and the sequential
// BLAST-style baseline. See DESIGN.md for the system inventory
// (including the v1→v2 upgrade table for code written against the
// retired Compare* functions) and EXPERIMENTS.md for the
// paper-vs-measured record.
package seedblast

import (
	"fmt"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/blast"
	"seedblast/internal/core"
	"seedblast/internal/pipeline"
	"seedblast/internal/seed"
	"seedblast/internal/seqio"
	"seedblast/internal/translate"
)

// Core pipeline types, re-exported.
type (
	// Options is a Searcher's resolved parameter set, as returned by
	// Searcher.Options; configure a search with the With* options.
	Options = core.Options
	// RASCOptions configures the simulated accelerator.
	RASCOptions = core.RASCOptions
	// StepTimes records per-step durations.
	StepTimes = core.StepTimes
	// Engine selects where step 2 runs.
	Engine = core.Engine
	// Bank is an ordered set of protein sequences.
	Bank = bank.Bank
	// PipelineConfig tunes the shard engine (its shard size); see
	// Options.Pipeline.
	PipelineConfig = pipeline.Config
	// PipelineMetrics is the streaming engine's per-run accounting,
	// reported in Summary.Pipeline.
	PipelineMetrics = pipeline.Metrics
)

// Engine values.
const (
	// EngineCPU runs step 2 on the parallel software engine.
	EngineCPU = core.EngineCPU
	// EngineRASC runs step 2 on the simulated RASC-100 accelerator.
	EngineRASC = core.EngineRASC
)

// DefaultOptions returns the paper's defaults: W=4 subset seed, N=14,
// BLOSUM62, ungapped threshold 38, gapped stage at E ≤ 10⁻³.
func DefaultOptions() Options { return core.DefaultOptions() }

// Workload generation, re-exported for examples and experiments.
type (
	// ProteinConfig parameterises GenerateProteins.
	ProteinConfig = bank.ProteinConfig
	// GenomeConfig parameterises GenerateGenome.
	GenomeConfig = bank.GenomeConfig
	// PlantedGene records where a gene was planted in a synthetic genome.
	PlantedGene = bank.PlantedGene
	// FamilyConfig parameterises GenerateFamilyBenchmark.
	FamilyConfig = bank.FamilyConfig
	// FamilyBenchmark is the sensitivity/selectivity workload.
	FamilyBenchmark = bank.FamilyBenchmark
)

// GenerateProteins creates a synthetic protein bank (Robinson
// background composition), standing in for the paper's NR subsets.
func GenerateProteins(cfg ProteinConfig) *Bank { return bank.GenerateProteins(cfg) }

// GenerateGenome creates a synthetic genome with planted mutated
// genes, standing in for the paper's Human chromosome 1.
func GenerateGenome(cfg GenomeConfig) ([]byte, []PlantedGene, error) {
	return bank.GenerateGenome(cfg)
}

// GenerateFamilyBenchmark creates the family workload behind the
// paper's ROC50/AP evaluation (Table 6).
func GenerateFamilyBenchmark(cfg FamilyConfig) (*FamilyBenchmark, error) {
	return bank.GenerateFamilyBenchmark(cfg)
}

// NewBank returns an empty protein bank.
func NewBank(name string) *Bank { return bank.New(name) }

// LoadProteinFASTA reads a protein bank from a FASTA file.
func LoadProteinFASTA(name, path string) (*Bank, error) {
	return bank.LoadFASTA(name, path)
}

// LoadGenomeFASTA reads a genome from a FASTA file, concatenating all
// records into one encoded nucleotide sequence.
func LoadGenomeFASTA(path string) ([]byte, error) {
	recs, err := seqio.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var genome []byte
	for _, r := range recs {
		dna, err := alphabet.EncodeDNA(string(r.Seq))
		if err != nil {
			return nil, fmt.Errorf("seedblast: record %s: %w", r.ID, err)
		}
		genome = append(genome, dna...)
	}
	return genome, nil
}

// WriteProteinFASTA writes a protein bank to a FASTA file.
func WriteProteinFASTA(path string, b *Bank) error {
	return seqio.WriteFile(path, b.Records()...)
}

// Baseline, re-exported.
type (
	// BaselineConfig holds the sequential BLAST-style baseline's
	// parameters.
	BaselineConfig = blast.Config
	// BaselineMatch is one baseline alignment.
	BaselineMatch = blast.Match
	// BaselineGenomeMatch is a baseline alignment in genome coordinates.
	BaselineGenomeMatch = blast.GenomeMatch
)

// DefaultBaselineConfig returns tblastn-like defaults.
func DefaultBaselineConfig() BaselineConfig { return blast.DefaultConfig() }

// Baseline runs the sequential BLAST-style search over protein banks.
func Baseline(queries, subjects *Bank, cfg BaselineConfig) ([]BaselineMatch, error) {
	return blast.Search(queries, subjects, cfg)
}

// BaselineGenome runs the baseline tblastn over a genome.
func BaselineGenome(queries *Bank, genome []byte, cfg BaselineConfig) ([]BaselineGenomeMatch, error) {
	return blast.SearchGenome(queries, genome, cfg)
}

// GeneticCode is a codon translation table; see Options.GeneticCode.
type GeneticCode = translate.Code

// GeneticCodeByName resolves a genetic code by name or NCBI table
// number: "standard"/"1", "bacterial"/"11",
// "vertebrate-mitochondrial"/"mito"/"2".
func GeneticCodeByName(name string) (*GeneticCode, error) {
	return translate.CodeByName(name)
}

// SeedModel maps fixed-width residue windows to index keys; see
// Options.Seed.
type SeedModel = seed.Model

// ExactSeed returns the classic BLAST-style exact word seed of width w
// (key space 20^w).
func ExactSeed(w int) SeedModel { return seed.Exact(w) }

// SubsetSeed builds a subset seed (Peterlongo et al.) from per-position
// partition specs. Each spec is either the keyword "exact" (identity),
// "murphy10" (the Murphy-Wallqvist-Levy 10-class reduction), "any"
// (one class: position is a don't-care), or an explicit comma-separated
// partition such as "LVIM,C,A,G,ST,P,FYW,EDNQ,KR,H".
func SubsetSeed(name string, specs ...string) (SeedModel, error) {
	parts := make([]seed.Partition, len(specs))
	for i, s := range specs {
		switch s {
		case "exact":
			parts[i] = seed.Identity()
		case "murphy10":
			parts[i] = seed.Murphy10()
		case "any":
			p, err := seed.NewPartition("ARNDCQEGHILKMFPSTWYV")
			if err != nil {
				return nil, err
			}
			p.Label = "any"
			parts[i] = p
		default:
			p, err := seed.NewPartition(s)
			if err != nil {
				return nil, err
			}
			parts[i] = p
		}
	}
	return seed.NewSubset(name, parts...)
}

// EncodeProtein converts amino-acid letters to the internal encoding.
func EncodeProtein(s string) ([]byte, error) { return alphabet.EncodeProtein(s) }

// EncodeDNA converts nucleotide letters to the internal encoding.
func EncodeDNA(s string) ([]byte, error) { return alphabet.EncodeDNA(s) }

// DecodeProtein converts encoded residues back to letters.
func DecodeProtein(codes []byte) string { return alphabet.DecodeProtein(codes) }

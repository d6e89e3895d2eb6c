// Command seedcmp compares a protein bank against a genome with the
// seed-based pipeline, printing matches in genome coordinates and the
// per-step timing profile. It is the reproduction's equivalent of
// running tblastn: either real FASTA inputs or a synthetic workload.
// It drives the search API: a Searcher built once from options, a
// GenomeTarget owning the six-frame translation and its index, and a
// streaming result — with -format json|tsv matches are written as they
// leave the pipeline, before the run has finished.
//
// Examples:
//
//	seedcmp -proteins bank.fa -genome chr1.fa
//	seedcmp -synthetic 100 -genome-len 1000000 -plant 10 -engine rasc -pes 192
//	seedcmp -synthetic 20 -report   # full BLAST-style report with alignments
//	seedcmp -synthetic 100 -shard-size 16 -engine rasc
//	seedcmp -synthetic 100 -format json | jq .eValue   # streaming NDJSON
//	seedcmp -synthetic 100 -format tsv  | cut -f1,5    # streaming TSV
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"seedblast"
	"seedblast/internal/matrix"
	"seedblast/internal/report"
	"seedblast/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("seedcmp: ")

	var (
		proteinsPath = flag.String("proteins", "", "protein bank FASTA file")
		genomePath   = flag.String("genome", "", "genome FASTA file")
		synthetic    = flag.Int("synthetic", 0, "generate a synthetic bank of this many proteins instead of -proteins")
		genomeLen    = flag.Int("genome-len", 500_000, "synthetic genome length in nucleotides (with -synthetic)")
		plant        = flag.Int("plant", 10, "genes planted in the synthetic genome")
		seed         = flag.Int64("seed", 1, "synthetic workload RNG seed")
		engine       = flag.String("engine", "cpu", "step-2 engine: cpu or rasc")
		shardSize    = flag.Int("shard-size", 0, "run the bank through the pipeline in shards of this many proteins, one after another (0 = one shard)")
		pes          = flag.Int("pes", 192, "PE array size (rasc engine)")
		fpgas        = flag.Int("fpgas", 1, "FPGAs used (rasc engine, 1 or 2)")
		offloadGap   = flag.Bool("offload-gapped", false, "simulate the future-work gap operator on the second FPGA")
		maxCand      = flag.Int("max-candidates", 0, "prefilter: extend only the top K subjects per query by diagonal seed score (0 = off, exhaustive; E-values unchanged)")
		threshold    = flag.Int("threshold", 38, "ungapped score threshold")
		evalue       = flag.Float64("evalue", 1e-3, "maximum E-value")
		top          = flag.Int("top", 20, "matches to print in the human report (0 = all; machine formats always stream all)")
		full         = flag.Bool("report", false, "print a full BLAST-style report with alignment blocks")
		format       = flag.String("format", "", "machine-readable match output: json (NDJSON, the service's alignment encoding) or tsv; matches stream to stdout, the summary goes to stderr")
		codeName     = flag.String("code", "standard", "genetic code: standard/1, bacterial/11, mito/2")
	)
	flag.Parse()

	if *format != "" && *format != "json" && *format != "tsv" {
		log.Fatalf("unknown format %q (json, tsv)", *format)
	}
	if *format != "" && *full {
		log.Fatal("-format and -report are mutually exclusive")
	}

	bank, genome, err := loadInputs(*proteinsPath, *genomePath, *synthetic, *genomeLen, *plant, *seed)
	if err != nil {
		log.Fatal(err)
	}

	// The knobs the service also exposes go through its wire-option
	// translation, so a flag and a JSON field mean — and fail — the same.
	opts, err := service.OptionsJSON{
		Engine:        *engine,
		Threshold:     threshold,
		MaxCandidates: maxCand,
		MaxEValue:     evalue,
		ShardSize:     *shardSize,
		GeneticCode:   *codeName,
	}.CoreOptions()
	if err != nil {
		log.Fatal(err)
	}
	opts = append(opts, seedblast.WithRASC(seedblast.RASCOptions{NumPEs: *pes, NumFPGAs: *fpgas, OffloadGapped: *offloadGap}),
		seedblast.WithTraceback(*full)) // the report's alignment blocks

	searcher, err := seedblast.NewSearcher(opts...)
	if err != nil {
		log.Fatal(err)
	}
	results := searcher.Search(context.Background(),
		seedblast.NewProteinTarget(bank), seedblast.NewGenomeTarget(genome, searcher.Options().GeneticCode))

	if *format != "" {
		sum, n := streamMatches(results, *format)
		fmt.Fprintf(os.Stderr, "seedcmp: %d matches; pairs scored %d; hits %d\n", n, sum.Pairs, sum.Hits)
		fmt.Fprintf(os.Stderr, "seedcmp: timing: step1 %v, step2 %v, step3 %v\n",
			sum.Times.Index, sum.Times.Ungapped, sum.Times.Gapped)
		if pm := sum.Pipeline; pm.Prefilter.Shards > 0 {
			fmt.Fprintf(os.Stderr, "seedcmp: prefilter: kept %d / dropped %d candidate pairs in %v\n",
				pm.PrefilterKept, pm.PrefilterDropped, pm.Prefilter.Busy)
		}
		return
	}

	ms, err := results.Collect()
	if err != nil {
		log.Fatal(err)
	}
	sum, err := results.Summary()
	if err != nil {
		log.Fatal(err)
	}

	if *full {
		if err := report.WriteGenomeReport(os.Stdout, bank, genome, ms, sum, matrix.BLOSUM62); err != nil {
			log.Fatal(err)
		}
		printTiming(sum)
		return
	}

	fmt.Printf("bank: %d proteins, %d aa; genome: %d nt\n",
		bank.Len(), bank.TotalResidues(), len(genome))
	fmt.Printf("pairs scored: %d; hits: %d; matches: %d\n",
		sum.Pairs, sum.Hits, len(ms))
	printTiming(sum)

	n := len(ms)
	if *top > 0 && *top < n {
		n = *top
	}
	fmt.Printf("\n%-14s %-8s %8s %10s %12s  %s\n",
		"protein", "frame", "score", "bits", "E-value", "genome interval")
	for _, m := range ms[:n] {
		fmt.Printf("%-14s %-8s %8d %10.1f %12.2e  [%d, %d)\n",
			m.Query.ID, m.Subject.Frame, m.Score, m.BitScore, m.EValue,
			m.Subject.NucStart, m.Subject.NucEnd)
	}
	if n < len(ms) {
		fmt.Printf("... and %d more\n", len(ms)-n)
	}
}

// streamMatches writes every match to stdout as it leaves the
// pipeline — json is NDJSON in the service's AlignmentJSON encoding,
// tsv is tab-separated with a header — and returns the summary once
// the stream is drained.
func streamMatches(results *seedblast.Results, format string) (*seedblast.Summary, int) {
	enc := json.NewEncoder(os.Stdout)
	if format == "tsv" {
		fmt.Println("query\tframe\tscore\tbits\teValue\tqStart\tqEnd\tnucStart\tnucEnd")
	}
	n := 0
	for m, err := range results.Matches() {
		if err != nil {
			log.Fatal(err)
		}
		n++
		switch format {
		case "json":
			aj := service.MatchJSON(&m)
			if err := enc.Encode(aj); err != nil {
				log.Fatal(err)
			}
		case "tsv":
			fmt.Printf("%s\t%s\t%d\t%.1f\t%.2e\t%d\t%d\t%d\t%d\n",
				m.Query.ID, m.Subject.Frame, m.Score, m.BitScore, m.EValue,
				m.Q.Start, m.Q.End, m.Subject.NucStart, m.Subject.NucEnd)
		}
	}
	sum, err := results.Summary()
	if err != nil {
		log.Fatal(err)
	}
	return sum, n
}

func printTiming(res *seedblast.Summary) {
	fr := res.Times.Fractions()
	fmt.Printf("timing: step1 %v, step2 %v, step3 %v (%.1f%% / %.1f%% / %.1f%%)\n",
		res.Times.Index, res.Times.Ungapped, res.Times.Gapped,
		100*fr[0], 100*fr[1], 100*fr[2])
	if res.Device != nil {
		fmt.Printf("device: utilization %.1f%%, %.4fs simulated step 2 (compute %.4fs, DMA %.4fs)\n",
			100*res.Device.Utilization,
			res.Device.Seconds, res.Device.ComputeSeconds, res.Device.DMASeconds)
	}
	if res.GapDevice != nil {
		fmt.Printf("gap operator: %d tasks, %.4fs simulated step 3\n",
			res.GapDevice.Tasks, res.GapDevice.Seconds)
	}
	if pm := res.Pipeline; pm.Shards > 1 {
		fmt.Printf("pipeline: %d shards, wall %v (busy: step1 %v, step2 %v, step3 %v)\n",
			pm.Shards, pm.Wall, pm.Index.Busy, pm.Step2.Busy, pm.Step3.Busy)
	}
	printPrefilter(&res.Pipeline)
}

// printPrefilter reports the candidate-selection cut when the stage
// ran. The counters come from pipeline.Metrics, so a merged
// (multi-run) Metrics prints its fold-up the same way.
func printPrefilter(pm *seedblast.PipelineMetrics) {
	if pm.Prefilter.Shards == 0 {
		return
	}
	total := pm.PrefilterKept + pm.PrefilterDropped
	sel := 0.0
	if total > 0 {
		sel = 100 * float64(pm.PrefilterKept) / float64(total)
	}
	fmt.Printf("prefilter: %d shards in %v; kept %d / dropped %d candidate pairs (%.1f%% extended)\n",
		pm.Prefilter.Shards, pm.Prefilter.Busy, pm.PrefilterKept, pm.PrefilterDropped, sel)
}

func loadInputs(proteinsPath, genomePath string, synthetic, genomeLen, plant int, seed int64) (*seedblast.Bank, []byte, error) {
	var bank *seedblast.Bank
	var genome []byte
	var err error
	switch {
	case proteinsPath != "":
		bank, err = seedblast.LoadProteinFASTA("bank", proteinsPath)
		if err != nil {
			return nil, nil, err
		}
	case synthetic > 0:
		bank = seedblast.GenerateProteins(seedblast.ProteinConfig{N: synthetic, Seed: seed})
	default:
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case genomePath != "":
		genome, err = seedblast.LoadGenomeFASTA(genomePath)
		if err != nil {
			return nil, nil, err
		}
	default:
		genome, _, err = seedblast.GenerateGenome(seedblast.GenomeConfig{
			Length:       genomeLen,
			Source:       bank,
			PlantCount:   plant,
			PlantSubRate: 0.2,
			Seed:         seed + 1,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return bank, genome, nil
}

// Command benchrec measures the step-2 kernel and the streaming
// pipeline on the paper's asymmetric workload shape and writes a
// machine-readable benchmark record (BENCH_NNNN.json). The checked-in
// record pins the measured scalar-vs-blocked speedup next to the
// EXPERIMENTS.md narrative so regressions are diffable.
//
// Example:
//
//	benchrec -out BENCH_0006.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/benchfmt"
	"seedblast/internal/core"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/pipeline"
	"seedblast/internal/seed"
	"seedblast/internal/ungapped"
)

// KernelSample is one (N, kernel) cell of the step-2 measurement.
type KernelSample struct {
	N           int     `json:"n"`      // neighbourhood extension; windows are W+2N
	Kernel      string  `json:"kernel"` // "scalar" or "blocked"
	Pairs       int64   `json:"pairs"`  // pairs scored per run
	NsPerPair   float64 `json:"nsPerPair"`
	PairsPerSec float64 `json:"pairsPerSec"`
}

// Speedup is the blocked/scalar single-core throughput ratio at one N.
type Speedup struct {
	N     int     `json:"n"`
	Ratio float64 `json:"ratio"`
}

// StreamSample is the end-to-end streaming-engine measurement: the
// full three-step pipeline with sharding, auto kernel, one host.
type StreamSample struct {
	ShardSize      int     `json:"shardSize"`
	Shards         int     `json:"shards"`
	Pairs          int64   `json:"pairs"`
	Residues       int     `json:"residues"` // subject residues processed
	WallMS         float64 `json:"wallMS"`
	PairsPerSec    float64 `json:"pairsPerSec"`
	ResiduesPerSec float64 `json:"residuesPerSec"`
	Kernel         string  `json:"kernel"` // kernel the CPU shards resolved to
}

// PrefilterSample is one maxCandidates cell of the end-to-end
// prefilter sweep: the full streaming pipeline over a redundant
// homolog-rich bank with the top-K candidate cut at k (0 = off).
type PrefilterSample struct {
	MaxCandidates int     `json:"maxCandidates"`
	WallMS        float64 `json:"wallMS"`
	Matches       int     `json:"matches"`
	Kept          int64   `json:"kept"`
	Dropped       int64   `json:"dropped"`
	SpeedupVsOff  float64 `json:"speedupVsOff"`
}

// Record is the file layout of a benchrec BENCH_NNNN.json
// (benchfmt.SchemaBench; the schema is documented in EXPERIMENTS.md).
type Record struct {
	Schema     string              `json:"schema"`
	ID         string              `json:"id"`
	Provenance benchfmt.Provenance `json:"provenance"`
	Workload   string              `json:"workload"`
	Kernels    []KernelSample      `json:"kernels"`
	Speedups   []Speedup           `json:"speedups"`
	Stream     StreamSample        `json:"stream"`
	// Prefilter is present when the -prefilter sweep ran; the workload
	// is described in PrefilterWorkload.
	Prefilter         []PrefilterSample `json:"prefilter,omitempty"`
	PrefilterWorkload string            `json:"prefilterWorkload,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrec: ")

	// testing.Init registers the test.* flags testing.Benchmark reads
	// (test.benchtime); it must run before this binary's flag.Parse.
	testing.Init()
	var (
		out       = flag.String("out", "BENCH_0006.json", "output record path")
		id        = flag.String("id", "BENCH_0006", "record identifier")
		n0        = flag.Int("queries", 8, "query sequences")
		l0        = flag.Int("query-len", 200, "query length")
		n1        = flag.Int("subjects", 2000, "subject sequences")
		l1        = flag.Int("subject-len", 600, "subject length")
		benchtime = flag.Duration("benchtime", time.Second, "minimum measuring time per cell")
		prefilter = flag.Bool("prefilter", false, "sweep the candidate prefilter (k=0,50,100,500) on a 5000-subject homolog bank")
	)
	flag.Parse()

	rec := Record{
		Schema:     benchfmt.SchemaBench,
		ID:         *id,
		Provenance: benchfmt.Collect(),
		Workload: fmt.Sprintf("%d×%daa queries vs %d×%daa subjects, W=4 subset seed, BLOSUM62, T=38",
			*n0, *l0, *n1, *l1),
	}

	for _, n := range []int{4, 8, 14} {
		ix0, ix1, err := buildIndexes(*n0, *l0, *n1, *l1, n)
		if err != nil {
			log.Fatal(err)
		}
		pairs := ungapped.PairCount(ix0, ix1)
		byKernel := map[ungapped.Kernel]float64{}
		for _, kernel := range []ungapped.Kernel{ungapped.KernelScalar, ungapped.KernelBlocked} {
			ns := measureKernel(ix0, ix1, kernel, pairs, *benchtime)
			byKernel[kernel] = ns
			rec.Kernels = append(rec.Kernels, KernelSample{
				N:           n,
				Kernel:      kernel.String(),
				Pairs:       pairs,
				NsPerPair:   round3(ns),
				PairsPerSec: round3(1e9 / ns),
			})
			log.Printf("N=%d %s: %.3f ns/pair (%.0f pairs/s)", n, kernel, ns, 1e9/ns)
		}
		ratio := byKernel[ungapped.KernelScalar] / byKernel[ungapped.KernelBlocked]
		rec.Speedups = append(rec.Speedups, Speedup{N: n, Ratio: round3(ratio)})
		log.Printf("N=%d: blocked %.2fx scalar", n, ratio)
	}

	stream, err := measureStream(*n0, *l0, *n1, *l1)
	if err != nil {
		log.Fatal(err)
	}
	rec.Stream = *stream
	log.Printf("stream: %d shards of %d, %.1f ms wall, %.0f pairs/s, %.0f residues/s (kernel %s)",
		stream.Shards, stream.ShardSize, stream.WallMS, stream.PairsPerSec, stream.ResiduesPerSec, stream.Kernel)

	if *prefilter {
		samples, desc, err := measurePrefilter()
		if err != nil {
			log.Fatal(err)
		}
		rec.Prefilter = samples
		rec.PrefilterWorkload = desc
		for _, s := range samples {
			log.Printf("prefilter k=%d: %.1f ms wall, %d matches, %.2fx vs off",
				s.MaxCandidates, s.WallMS, s.Matches, s.SpeedupVsOff)
		}
	}

	buf, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// buildIndexes reproduces BenchmarkStep2Kernel's workload: a small
// query bank against a much larger subject bank, giving the dense IL1
// lists step 2 spends its time in.
func buildIndexes(n0, l0, n1, l1, n int) (*index.Index, *index.Index, error) {
	rng := bank.NewRNG(42)
	b0 := bank.New("q")
	for i := 0; i < n0; i++ {
		b0.Add(fmt.Sprintf("q%d", i), bank.RandomProtein(rng, l0))
	}
	b1 := bank.New("s")
	for i := 0; i < n1; i++ {
		b1.Add(fmt.Sprintf("s%d", i), bank.RandomProtein(rng, l1))
	}
	model := seed.Default()
	ix0, err := index.Build(b0, model, n)
	if err != nil {
		return nil, nil, err
	}
	ix1, err := index.Build(b1, model, n)
	if err != nil {
		return nil, nil, err
	}
	return ix0, ix1, nil
}

// measureKernel times single-core ungapped.Run with the given kernel
// under the standard benchmark harness and returns ns per scored pair.
func measureKernel(ix0, ix1 *index.Index, kernel ungapped.Kernel, pairs int64, benchtime time.Duration) float64 {
	cfg := ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: 38, Workers: 1, Kernel: kernel}
	// testing.Benchmark honours -test.benchtime; flags are not parsed
	// in this binary, so set it explicitly before the run.
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		log.Fatal(err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ungapped.Run(ix0, ix1, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Kernel != kernel {
				b.Fatalf("kernel %v resolved to %v on this workload", kernel, res.Kernel)
			}
		}
	})
	return float64(r.T.Nanoseconds()) / float64(pairs*int64(r.N))
}

// measureStream runs the full streaming pipeline (steps 1–3, sharded,
// auto kernel) once and reports its end-to-end throughput.
func measureStream(n0, l0, n1, l1 int) (*StreamSample, error) {
	rng := bank.NewRNG(42)
	b0 := bank.New("q")
	for i := 0; i < n0; i++ {
		b0.Add(fmt.Sprintf("q%d", i), bank.RandomProtein(rng, l0))
	}
	b1 := bank.New("s")
	residues := 0
	for i := 0; i < n1; i++ {
		p := bank.RandomProtein(rng, l1)
		residues += len(p)
		b1.Add(fmt.Sprintf("s%d", i), p)
	}
	// Shard the small query side, stream the pipeline.
	_, res, err := search(core.NewProteinTarget(b0), core.NewProteinTarget(b1),
		core.WithPipeline(pipeline.Config{ShardSize: 2, InFlight: 2}))
	if err != nil {
		return nil, err
	}
	wall := res.Pipeline.Wall
	kernel := "scalar"
	if res.Pipeline.ShardsByKernel["blocked"] > 0 {
		kernel = "blocked"
	}
	return &StreamSample{
		ShardSize:      2,
		Shards:         res.Pipeline.Shards,
		Pairs:          res.Pairs,
		Residues:       residues,
		WallMS:         round3(float64(wall.Nanoseconds()) / 1e6),
		PairsPerSec:    round3(float64(res.Pairs) / wall.Seconds()),
		ResiduesPerSec: round3(float64(residues) / wall.Seconds()),
		Kernel:         kernel,
	}, nil
}

// measurePrefilter sweeps maxCandidates over a redundant bank — every
// subject a mutated relative of some query at divergence 10–50% — the
// workload class the prefilter targets (NR-style databases where most
// pairs reach extension). Each cell takes the best of three runs.
func measurePrefilter() ([]PrefilterSample, string, error) {
	const (
		nQueries  = 16
		nSubjects = 5000
	)
	queries := bank.GenerateProteins(bank.ProteinConfig{
		N: nQueries, MeanLen: 120, LenJitter: 30, Seed: 71,
	})
	rng := bank.NewRNG(73)
	rates := []float64{0.10, 0.20, 0.30, 0.40, 0.50}
	subjects := bank.New("subjects")
	for i := 0; i < nSubjects; i++ {
		q := queries.Seq(i % queries.Len())
		rate := rates[(i/queries.Len())%len(rates)]
		subjects.Add(fmt.Sprintf("h%d", i), bank.MutateProtein(rng, q, rate))
	}
	desc := fmt.Sprintf("%d×~120aa queries vs %d mutated homologs (10–50%% divergence), single shard",
		nQueries, nSubjects)

	// One subject target serves every cell: its index is built by the
	// first search and reused, and engine wall time never includes the
	// build, so cells measure the per-request stages, as a warm server
	// would.
	qt, st := core.NewProteinTarget(queries), core.NewProteinTarget(subjects)

	var out []PrefilterSample
	var offWall float64
	for _, k := range []int{0, 50, 100, 500} {
		var best *core.Summary
		var matches int
		var bestWall time.Duration
		for rep := 0; rep < 3; rep++ {
			ms, res, err := search(qt, st, core.WithMaxCandidates(k))
			if err != nil {
				return nil, "", err
			}
			if best == nil || res.Pipeline.Wall < bestWall {
				best, matches, bestWall = res, len(ms), res.Pipeline.Wall
			}
		}
		wallMS := float64(bestWall.Nanoseconds()) / 1e6
		if k == 0 {
			offWall = wallMS
		}
		out = append(out, PrefilterSample{
			MaxCandidates: k,
			WallMS:        round3(wallMS),
			Matches:       matches,
			Kept:          best.Pipeline.PrefilterKept,
			Dropped:       best.Pipeline.PrefilterDropped,
			SpeedupVsOff:  round3(offWall / wallMS),
		})
	}
	return out, desc, nil
}

// search builds a Searcher from opts and drains one search.
func search(query, target core.Target, opts ...core.Option) ([]core.Match, *core.Summary, error) {
	s, err := core.NewSearcher(opts...)
	if err != nil {
		return nil, nil, err
	}
	res := s.Search(context.Background(), query, target)
	ms, err := res.Collect()
	if err != nil {
		return nil, nil, err
	}
	sum, err := res.Summary()
	return ms, sum, err
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

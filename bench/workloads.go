package main

import (
	"fmt"
	"math/rand"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/matrix"
	"seedblast/internal/service"
)

// kind says which surface a workload drives: the library
// (Searcher.Search), one seedservd, or a seedclusterd over two workers.
type kind int

const (
	library kind = iota
	serving
	clustered
)

// workload is one set of inputs plus the way the system is asked to
// process them. Inputs come from the seed alone (see the bank
// functions); options are library defaults unless a field says
// otherwise.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text
	kind kind
	bank func(seed int64, sz sizes) *inputs
	// engine and maxCandidates are the only options any workload sets.
	engine        core.Engine
	maxCandidates int
}

var workloads = []workload{
	{
		name: "scan_cpu", kind: library, bank: scanBank,
		why: "random 64x200aa vs 2000x600aa bank: query index build and the CPU step-2 kernel have their largest share, working set far beyond cache",
	},
	{
		name: "scan_rasc", kind: library, bank: scanBank, engine: core.EngineRASC,
		why: "same banks on the simulated RASC-100: the cycle-level simulator dominates host time and the CPU step-2 kernel is bypassed",
	},
	{
		name: "homolog_full", kind: library, bank: homologBank,
		why: "16 queries vs 5000 mutated homologs, prefilter off: gapped extension is ~90% of the search",
	},
	{
		name: "homolog_top100", kind: library, bank: homologBank, maxCandidates: 100,
		why: "same banks, top-100 prefilter: the case where the prefilter pays and step 3 shrinks",
	},
	{
		name: "homolog_top500", kind: library, bank: homologBank, maxCandidates: 500,
		why: "same banks, top-500 prefilter: survivor union covers the bank, so the prefilter is pure overhead",
	},
	{
		name: "serve_hot", kind: serving, bank: serveBank,
		why: "2 clients, small jobs on a cached subject index through seedservd: decode, cache, admission, polling and NDJSON outweigh the three steps",
	},
	{
		name: "cluster_homolog", kind: clustered, bank: homologBank,
		why: "homolog_full inputs through seedclusterd over 2 workers: partition, scatter, polling, two NDJSON hops and the k-way merge on top of the same compute",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the functional options a library search of w uses.
func (w workload) options() []core.Option {
	return []core.Option{core.WithEngine(w.engine), core.WithMaxCandidates(w.maxCandidates)}
}

// sizes scales the generated banks. Every measured run uses fullSizes;
// the smoke test shrinks them so all seven workloads run in seconds.
type sizes struct {
	scanQueries     int // scan_*: 200 aa queries, each planted in one subject
	scanSubjects    int // scan_*: 600 aa subjects
	homologSubjects int // homolog_*, cluster_homolog: mutated copies of 16 queries
	serveRandom     int // serve_hot: unrelated 300 aa subjects beside the 16 planted
}

var (
	fullSizes  = sizes{scanQueries: 64, scanSubjects: 2000, homologSubjects: 5000, serveRandom: 48}
	smokeSizes = sizes{scanQueries: 8, scanSubjects: 120, homologSubjects: 320, serveRandom: 12}
)

// inputs is what the program under test receives: two banks. planted
// lists the (query id, subject id) pairs that are true homologs at 30%
// divergence or less; the correctness check requires 95% of them in
// every unfiltered result.
type inputs struct {
	queries, subjects *bank.Bank
	planted           [][2]string
}

// scanBank is BENCH_0006's bank shape with 8x the queries: random
// queries against random subjects, where subject j < scanQueries
// carries a 25%-diverged copy of query j between two random 200 aa
// flanks, so the result is one real match per query instead of an
// empty list.
func scanBank(seed int64, sz sizes) *inputs {
	rng := bank.NewRNG(seed)
	in := &inputs{queries: bank.New("queries"), subjects: bank.New("subjects")}
	for i := 0; i < sz.scanQueries; i++ {
		in.queries.Add(fmt.Sprintf("q%d", i), background(rng, 200))
	}
	for j := 0; j < sz.scanSubjects; j++ {
		id := fmt.Sprintf("s%d", j)
		if j < sz.scanQueries {
			in.subjects.Add(id, embed(rng, bank.MutateProtein(rng, in.queries.Seq(j), 0.25), 600))
			in.planted = append(in.planted, [2]string{in.queries.ID(j), id})
		} else {
			in.subjects.Add(id, background(rng, 600))
		}
	}
	return in
}

// homologRates are the substitution rates of BENCH_0009's redundant
// bank: subject i is query i%16 mutated at homologRates[(i/16)%5].
var homologRates = []float64{0.10, 0.20, 0.30, 0.40, 0.50}

// homologBank is BENCH_0009's bank with one change: query lengths are
// fixed at 90, 94, ... 150 aa (mean 120) instead of drawn from the
// seed, because step-3 work is proportional to total query length and
// seed-drawn lengths alone moved it by ~5% between seeds.
func homologBank(seed int64, sz sizes) *inputs {
	const nQueries = 16
	rng := bank.NewRNG(seed)
	in := &inputs{queries: bank.New("queries"), subjects: bank.New("subjects")}
	for i := 0; i < nQueries; i++ {
		in.queries.Add(fmt.Sprintf("q%d", i), background(rng, 90+4*i))
	}
	for i := 0; i < sz.homologSubjects; i++ {
		q := i % nQueries
		rate := homologRates[(i/nQueries)%len(homologRates)]
		id := fmt.Sprintf("h%d", i)
		in.subjects.Add(id, bank.MutateProtein(rng, in.queries.Seq(q), rate))
		if rate <= 0.30 {
			in.planted = append(in.planted, [2]string{in.queries.ID(q), id})
		}
	}
	return in
}

// serveBank is the small serving job: 4 queries of 105..135 aa against
// 16 planted homologs (4 per query, 20% divergence, inside 300 aa of
// random flank) and serveRandom unrelated 300 aa subjects. Every job
// of a run submits these same banks, so the subject index is a cache
// hit from the second job on.
func serveBank(seed int64, sz sizes) *inputs {
	const nQueries, nPlanted = 4, 16
	rng := bank.NewRNG(seed)
	in := &inputs{queries: bank.New("queries"), subjects: bank.New("subjects")}
	for i := 0; i < nQueries; i++ {
		in.queries.Add(fmt.Sprintf("q%d", i), background(rng, 105+10*i))
	}
	for j := 0; j < nPlanted+sz.serveRandom; j++ {
		id := fmt.Sprintf("s%d", j)
		if j < nPlanted {
			q := j % nQueries
			in.subjects.Add(id, embed(rng, bank.MutateProtein(rng, in.queries.Seq(q), 0.20), 300))
			in.planted = append(in.planted, [2]string{in.queries.ID(q), id})
		} else {
			in.subjects.Add(id, background(rng, 300))
		}
	}
	return in
}

// embed centres core inside random flanks so the whole is total long.
func embed(rng *rand.Rand, core []byte, total int) []byte {
	left := (total - len(core)) / 2
	out := append(background(rng, left), core...)
	return append(out, background(rng, total-len(out))...)
}

// background returns an unrelated protein: exactly the Robinson
// background composition for its length (largest remainders fill the
// rounding gap), in an order drawn from rng. bank.RandomProtein draws
// every residue independently instead, and on the scan banks the
// resulting composition differences between seeds — how many
// tryptophans 64 queries happen to hold — moved step-3 work by 17%
// from seed to seed; with the composition fixed only the Poisson noise
// of chance hits is left (about 7%).
func background(rng *rand.Rand, length int) []byte {
	freqs := matrix.RobinsonFrequencies()
	out := make([]byte, 0, length)
	short := make([]float64, len(freqs)) // how far each residue's count was rounded down
	for aa, f := range freqs {
		n := int(f * float64(length))
		short[aa] = f*float64(length) - float64(n)
		for ; n > 0; n-- {
			out = append(out, byte(aa))
		}
	}
	for len(out) < length {
		most := 0
		for aa := range short {
			if short[aa] > short[most] {
				most = aa
			}
		}
		out = append(out, byte(most))
		short[most] = -1
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// jobRequest is the wire form of in, as a client of the job API sends
// it: default options, banks inline.
func jobRequest(in *inputs) *service.JobRequestJSON {
	return &service.JobRequestJSON{Query: wireBank(in.queries), Subject: wireBank(in.subjects)}
}

func wireBank(b *bank.Bank) []service.SequenceJSON {
	out := make([]service.SequenceJSON, b.Len())
	for i := range out {
		out[i] = service.SequenceJSON{ID: b.ID(i), Seq: alphabet.DecodeProtein(b.Seq(i))}
	}
	return out
}

// Benchmarks regenerating the paper's tables (1-7) and probing the
// design choices DESIGN.md calls out. Table benches report the same
// headline quantities the paper's tables do via b.ReportMetric
// (speedups, step shares, KaaMnt/s); run with
//
//	go test -bench=Table -benchmem
//
// Absolute times are host-dependent; the reproduced quantity is the
// shape (who wins, by what factor, where it saturates).
package seedblast_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"seedblast/internal/align"
	"seedblast/internal/bank"
	"seedblast/internal/blast"
	"seedblast/internal/core"
	"seedblast/internal/experiments"
	"seedblast/internal/gapped"
	"seedblast/internal/hwsim"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/pipeline"
	"seedblast/internal/seed"
	"seedblast/internal/ungapped"
)

// testingClock returns a monotonic timestamp in seconds, used to carve
// step times out of a single benchmark iteration.
func testingClock() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}

// ---- shared workload -------------------------------------------------

var (
	wlOnce sync.Once
	wl     *experiments.Workload
	wlIxG  *index.Index // genome-side index, shared by all banks
	wlIxB  []*index.Index
	wlErr  error
)

func workload(b *testing.B) (*experiments.Workload, *index.Index, []*index.Index) {
	b.Helper()
	wlOnce.Do(func() {
		wl, wlErr = experiments.NewWorkload(experiments.Tiny())
		if wlErr != nil {
			return
		}
		s := wl.Scale
		wlIxG, wlErr = index.Build(wl.Frames, s.SeedModel, s.N)
		if wlErr != nil {
			return
		}
		for _, bk := range wl.Banks {
			ix, err := index.Build(bk, s.SeedModel, s.N)
			if err != nil {
				wlErr = err
				return
			}
			wlIxB = append(wlIxB, ix)
		}
	})
	if wlErr != nil {
		b.Fatal(wlErr)
	}
	return wl, wlIxG, wlIxB
}

func step2Seq(b *testing.B, ixB *index.Index, threshold int) *ungapped.Result {
	b.Helper()
	res, err := ungapped.Run(ixB, wlIxG, ungapped.Config{
		Matrix: matrix.BLOSUM62, Threshold: threshold, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func deviceEstimate(b *testing.B, ixB *index.Index, pes, fpgas, threshold, records int) *hwsim.Step2Report {
	b.Helper()
	psc := hwsim.DefaultPSC(matrix.BLOSUM62, ixB.SubLen(), threshold)
	psc.NumPEs = pes
	cfg := hwsim.DefaultDevice(psc)
	cfg.NumFPGAs = fpgas
	dev, err := hwsim.NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := dev.EstimateStep2(ixB, wlIxG, records)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// ---- Table 1: software profile ---------------------------------------

func BenchmarkTable1StepBreakdown(b *testing.B) {
	w, _, ixs := workload(b)
	bk := w.Banks[len(w.Banks)-1]
	ixB := ixs[len(ixs)-1]
	var fr [3]float64
	for i := 0; i < b.N; i++ {
		t0 := testingClock()
		ix2, err := index.Build(bk, w.Scale.SeedModel, w.Scale.N)
		if err != nil {
			b.Fatal(err)
		}
		_ = ix2
		t1 := testingClock()
		res := step2Seq(b, ixB, w.Scale.Threshold)
		t2 := testingClock()
		if _, _, err := gapped.RunWithStats(bk, w.Frames, res.Hits, seqGapped()); err != nil {
			b.Fatal(err)
		}
		t3 := testingClock()
		tot := t3 - t0
		fr = [3]float64{(t1 - t0) / tot, (t2 - t1) / tot, (t3 - t2) / tot}
	}
	b.ReportMetric(100*fr[0], "step1_%")
	b.ReportMetric(100*fr[1], "step2_%")
	b.ReportMetric(100*fr[2], "step3_%")
}

func seqGapped() gapped.Config {
	cfg := gapped.DefaultConfig()
	cfg.Workers = 1
	return cfg
}

// ---- Table 2: overall vs baseline ------------------------------------

func BenchmarkTable2Overall(b *testing.B) {
	w, _, ixs := workload(b)
	for bi, bk := range w.Banks {
		bi, bk := bi, bk
		b.Run(fmt.Sprintf("bank=%d", bk.Len()), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				tb0 := testingClock()
				if _, err := blast.SearchGenome(bk, w.Genome, blast.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
				blastSec := testingClock() - tb0

				// RASC pipeline time = measured host steps 1 and 3 plus
				// the simulated device step 2.
				res := step2Seq(b, ixs[bi], w.Scale.Threshold)
				rep := deviceEstimate(b, ixs[bi], 192, 1, w.Scale.Threshold, len(res.Hits))
				rascSec := rep.Seconds + hostOverheadSec(b, w, bk, ixs[bi], res)
				speedup = blastSec / rascSec
			}
			b.ReportMetric(speedup, "speedup_192PE")
		})
	}
}

// hostOverheadSec measures steps 1 and 3 (the parts that stay on the
// host when step 2 is offloaded).
func hostOverheadSec(b *testing.B, w *experiments.Workload, bk *bank.Bank,
	ixB *index.Index, res *ungapped.Result) float64 {
	b.Helper()
	t0 := testingClock()
	if _, err := index.Build(bk, w.Scale.SeedModel, w.Scale.N); err != nil {
		b.Fatal(err)
	}
	if _, _, err := gapped.RunWithStats(bk, w.Frames, res.Hits, seqGapped()); err != nil {
		b.Fatal(err)
	}
	return testingClock() - t0
}

// ---- Table 3: 1 vs 2 FPGAs -------------------------------------------

func BenchmarkTable3TwoFPGAs(b *testing.B) {
	w, _, ixs := workload(b)
	raised := w.Scale.Threshold * 2
	for bi, bk := range w.Banks {
		bi := bi
		b.Run(fmt.Sprintf("bank=%d", bk.Len()), func(b *testing.B) {
			// The raised-threshold records are a step-2 run at that
			// threshold, as in experiments.Measure.
			records := len(step2Seq(b, ixs[bi], raised).Hits)
			b.ResetTimer()
			var speedup float64
			for i := 0; i < b.N; i++ {
				one := deviceEstimate(b, ixs[bi], 192, 1, w.Scale.Threshold, records)
				two := deviceEstimate(b, ixs[bi], 192, 2, w.Scale.Threshold, records)
				speedup = one.Seconds / two.Seconds
			}
			b.ReportMetric(speedup, "speedup_2FPGA")
		})
	}
}

// ---- Table 4: step 2 only ---------------------------------------------

func BenchmarkTable4Step2(b *testing.B) {
	w, _, ixs := workload(b)
	for bi, bk := range w.Banks {
		for _, pes := range []int{64, 128, 192} {
			bi, pes := bi, pes
			b.Run(fmt.Sprintf("bank=%d/pes=%d", bk.Len(), pes), func(b *testing.B) {
				var speedup float64
				for i := 0; i < b.N; i++ {
					t0 := testingClock()
					res := step2Seq(b, ixs[bi], w.Scale.Threshold)
					seqSec := testingClock() - t0
					rep := deviceEstimate(b, ixs[bi], pes, 1, w.Scale.Threshold, len(res.Hits))
					speedup = seqSec / rep.Seconds
				}
				b.ReportMetric(speedup, "speedup")
			})
		}
	}
}

// ---- Table 5: throughput ----------------------------------------------

func BenchmarkTable5Throughput(b *testing.B) {
	w, _, ixs := workload(b)
	bi := len(w.Banks) - 1
	bk := w.Banks[bi]
	var kaamnt float64
	for i := 0; i < b.N; i++ {
		res := step2Seq(b, ixs[bi], w.Scale.Threshold)
		host := hostOverheadSec(b, w, bk, ixs[bi], res)
		rep := deviceEstimate(b, ixs[bi], 192, 1, w.Scale.Threshold, len(res.Hits))
		total := host + rep.Seconds
		kaa := float64(bk.TotalResidues()) / 1e3
		mnt := float64(len(w.Genome)) / 1e6
		kaamnt = kaa * mnt / total
	}
	b.ReportMetric(kaamnt, "KaaMnt/s")
}

// ---- Table 6: sensitivity (quality, not time) --------------------------

func BenchmarkTable6Sensitivity(b *testing.B) {
	cfg := experiments.DefaultTable6Config()
	cfg.Family.Families = 6
	cfg.Family.DecoyGenes = 30
	var res *experiments.Table6
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunTable6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RASCROC50, "roc50_rasc")
	b.ReportMetric(res.BlastROC50, "roc50_baseline")
	b.ReportMetric(res.RASCAPMean, "ap_rasc")
	b.ReportMetric(res.BlastAPMean, "ap_baseline")
}

// ---- Table 7: RASC profile ---------------------------------------------

func BenchmarkTable7RASCBreakdown(b *testing.B) {
	w, _, ixs := workload(b)
	bi := len(w.Banks) - 1
	bk := w.Banks[bi]
	var fr [3]float64
	for i := 0; i < b.N; i++ {
		t0 := testingClock()
		if _, err := index.Build(bk, w.Scale.SeedModel, w.Scale.N); err != nil {
			b.Fatal(err)
		}
		t1 := testingClock()
		res := step2Seq(b, ixs[bi], w.Scale.Threshold) // hits needed for step 3
		rep := deviceEstimate(b, ixs[bi], 192, 1, w.Scale.Threshold, len(res.Hits))
		t2 := testingClock()
		if _, _, err := gapped.RunWithStats(bk, w.Frames, res.Hits, seqGapped()); err != nil {
			b.Fatal(err)
		}
		t3 := testingClock()
		_ = t2
		step1 := t1 - t0
		step2 := rep.Seconds // simulated device time replaces host step 2
		step3 := t3 - t2
		tot := step1 + step2 + step3
		fr = [3]float64{step1 / tot, step2 / tot, step3 / tot}
	}
	b.ReportMetric(100*fr[0], "step1_%")
	b.ReportMetric(100*fr[1], "step2_%")
	b.ReportMetric(100*fr[2], "step3_%")
}

// ---- ablations ---------------------------------------------------------

// BenchmarkAblationSeedModel probes the index seed design: exact words
// vs the default subset seed vs the coarse Murphy reduction (key-space
// size vs bucket occupancy trade-off).
func BenchmarkAblationSeedModel(b *testing.B) {
	w, _, _ := workload(b)
	bk := w.Banks[len(w.Banks)-1]
	models := map[string]seed.Model{
		"exact4":    seed.Exact(4),
		"subset4":   seed.Default(),
		"murphy-1k": w.Scale.SeedModel,
	}
	for name, model := range models {
		name, model := name, model
		b.Run(name, func(b *testing.B) {
			ixB, err := index.Build(bk, model, w.Scale.N)
			if err != nil {
				b.Fatal(err)
			}
			ixG, err := index.Build(w.Frames, model, w.Scale.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var hits int
			var pairs int64
			for i := 0; i < b.N; i++ {
				res, err := ungapped.Run(ixB, ixG, ungapped.Config{
					Matrix: matrix.BLOSUM62, Threshold: w.Scale.Threshold, Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				hits = len(res.Hits)
				pairs = res.Pairs
			}
			b.ReportMetric(float64(pairs), "pairs")
			b.ReportMetric(float64(hits), "hits")
		})
	}
}

// BenchmarkAblationNeighborhood sweeps the window extension N: longer
// windows cost more PE cycles per pair but filter more sharply.
func BenchmarkAblationNeighborhood(b *testing.B) {
	w, _, _ := workload(b)
	bk := w.Banks[len(w.Banks)-1]
	for _, n := range []int{8, 14, 20} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			ixB, err := index.Build(bk, w.Scale.SeedModel, n)
			if err != nil {
				b.Fatal(err)
			}
			ixG, err := index.Build(w.Frames, w.Scale.SeedModel, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var hits int
			for i := 0; i < b.N; i++ {
				res, err := ungapped.Run(ixB, ixG, ungapped.Config{
					Matrix: matrix.BLOSUM62, Threshold: w.Scale.Threshold, Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				hits = len(res.Hits)
			}
			b.ReportMetric(float64(hits), "hits")
		})
	}
}

// BenchmarkAblationThreshold sweeps the ungapped threshold — the
// paper's Table 3 mitigation trades recall for result traffic.
func BenchmarkAblationThreshold(b *testing.B) {
	_, _, ixs := workload(b)
	ixB := ixs[len(ixs)-1]
	for _, thr := range []int{25, 38, 50, 76} {
		thr := thr
		b.Run(fmt.Sprintf("T=%d", thr), func(b *testing.B) {
			var hits int
			for i := 0; i < b.N; i++ {
				res := step2Seq(b, ixB, thr)
				hits = len(res.Hits)
			}
			b.ReportMetric(float64(hits), "records")
		})
	}
}

// BenchmarkAblationSlotSize probes the PSC pipeline structure: smaller
// slots add register barriers (latency), larger slots lengthen the
// combinational paths the paper's barriers exist to avoid. The cycle
// model only sees the latency side.
func BenchmarkAblationSlotSize(b *testing.B) {
	rng := bank.NewRNG(99)
	const subLen = 32
	il0 := make([][]byte, 192)
	for i := range il0 {
		il0[i] = bank.RandomProtein(rng, subLen)
	}
	il1 := make([]byte, 256*subLen)
	copy(il1, bank.RandomProtein(rng, len(il1)))
	for _, slot := range []int{4, 8, 16, 32} {
		slot := slot
		b.Run(fmt.Sprintf("slot=%d", slot), func(b *testing.B) {
			cfg := hwsim.PSCConfig{
				NumPEs: 192, SlotSize: slot, FIFODepth: 64,
				SubLen: subLen, Threshold: 1000, Matrix: matrix.BLOSUM62,
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				op, err := hwsim.NewOperator(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := op.LoadIL0(il0); err != nil {
					b.Fatal(err)
				}
				if _, err := op.StreamIL1(il1, 256); err != nil {
					b.Fatal(err)
				}
				cycles = op.Cycles()
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// ---- microbenchmarks of the primitives ---------------------------------

func BenchmarkWindowScore32(b *testing.B) {
	rng := bank.NewRNG(7)
	w0 := bank.RandomProtein(rng, 32)
	w1 := bank.RandomProtein(rng, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.WindowScore(w0, w1, matrix.BLOSUM62)
	}
	b.SetBytes(32)
}

func BenchmarkBandedAlign(b *testing.B) {
	rng := bank.NewRNG(8)
	q := bank.RandomProtein(rng, 330)
	s := bank.MutateProtein(rng, q, 0.3)
	al := align.NewAligner(matrix.BLOSUM62, align.DefaultGaps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.LocalBanded(q, s, 0, 16)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	w, _, _ := workload(b)
	bk := w.Banks[len(w.Banks)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(bk, w.Scale.SeedModel, w.Scale.N); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(bk.TotalResidues()))
}

func BenchmarkPSCMicroEngine(b *testing.B) {
	rng := bank.NewRNG(9)
	const subLen = 32
	il0 := make([][]byte, 64)
	for i := range il0 {
		il0[i] = bank.RandomProtein(rng, subLen)
	}
	il1 := bank.RandomProtein(rng, 64*subLen)
	cfg := hwsim.PSCConfig{
		NumPEs: 64, SlotSize: 8, FIFODepth: 64,
		SubLen: subLen, Threshold: 45, Matrix: matrix.BLOSUM62,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := hwsim.NewOperator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := op.LoadIL0(il0); err != nil {
			b.Fatal(err)
		}
		if _, err := op.StreamIL1(il1, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- streaming shard engine vs batch -----------------------------------

// BenchmarkStreamingOverlap compares the one-shard search against
// the same search cut into 8 shards, at default workers. The shards
// run one after another, each step parallel inside, so the reported
// shard_cost (8-shard time over one-shard time) is what sharding adds:
// eight query-index builds and step-2 and step-3 calls instead of one.
func BenchmarkStreamingOverlap(b *testing.B) {
	w, _, _ := workload(b)
	bk := w.Banks[len(w.Banks)-1]
	opts := []core.Option{
		core.WithSeed(w.Scale.SeedModel),
		core.WithNeighborhood(w.Scale.N),
		core.WithUngappedThreshold(w.Scale.Threshold),
	}
	// run times one search against fresh targets, so every
	// configuration pays its own subject-index build.
	run := func(b *testing.B, opts ...core.Option) float64 {
		s, err := core.NewSearcher(opts...)
		if err != nil {
			b.Fatal(err)
		}
		t0 := testingClock()
		if _, err := s.Search(context.Background(), core.NewProteinTarget(bk), core.NewProteinTarget(w.Frames)).Collect(); err != nil {
			b.Fatal(err)
		}
		return testingClock() - t0
	}

	var oneSec float64
	b.Run("shards=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oneSec = run(b, opts...)
		}
	})
	b.Run("shards=8", func(b *testing.B) {
		sopts := append(opts[:len(opts):len(opts)], core.WithPipeline(pipeline.Config{ShardSize: (bk.Len() + 7) / 8}))
		var sec float64
		for i := 0; i < b.N; i++ {
			sec = run(b, sopts...)
		}
		if oneSec > 0 && sec > 0 {
			b.ReportMetric(sec/oneSec, "shard_cost")
		}
	})
}

// BenchmarkAblationHostParallel probes the paper's closing question:
// with multicore hosts, where is the host/FPGA dispatch break-even?
func BenchmarkAblationHostParallel(b *testing.B) {
	w, _, ixs := workload(b)
	ixB := ixs[len(ixs)-1]
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				t0 := testingClock()
				res, err := ungapped.Run(ixB, wlIxG, ungapped.Config{
					Matrix: matrix.BLOSUM62, Threshold: w.Scale.Threshold, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				hostSec := testingClock() - t0
				rep := deviceEstimate(b, ixB, 192, 1, w.Scale.Threshold, len(res.Hits))
				ratio = hostSec / rep.Seconds
			}
			b.ReportMetric(ratio, "host/device")
		})
	}
}

package experiments

import (
	"context"
	"fmt"
	"time"

	"seedblast/internal/blast"
	"seedblast/internal/gapped"
	"seedblast/internal/hwsim"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/pipeline"
	"seedblast/internal/ungapped"
)

// DeviceTiming is the simulated accelerator timing for one
// configuration.
type DeviceTiming struct {
	Seconds        float64
	ComputeSeconds float64
	DMASeconds     float64
	Utilization    float64
}

// BankMeasurement collects everything the tables need for one protein
// bank against the workload genome.
type BankMeasurement struct {
	BankIdx  int
	Proteins int
	Residues int

	// Software pipeline (sequential, one core — as the paper runs it).
	Step1Sec    float64
	Step2SeqSec float64
	Step3Sec    float64
	Hits        int
	Pairs       int64

	// Baseline.
	BlastSec     float64
	BlastMatches int

	// Gapped-stage work profile (for the future-work gap operator).
	GapStats gapped.Stats

	// Simulated accelerator timings, keyed by PE count.
	Device map[int]DeviceTiming
	// Two-FPGA timings at the raised threshold (Table 3), keyed by PE
	// count; OneFPGARaised is the 1-FPGA counterpart.
	TwoFPGA       map[int]DeviceTiming
	OneFPGARaised map[int]DeviceTiming
}

// Measurements is the full dataset behind Tables 1-5 and 7.
type Measurements struct {
	Workload *Workload
	PECounts []int
	Banks    []BankMeasurement
}

// MeasureOptions tunes what Measure runs.
type MeasureOptions struct {
	PECounts        []int // default {64, 128, 192}
	WithBlast       bool  // run the sequential baseline (Table 2)
	RaisedThreshold int   // Table 3's lightened-traffic threshold; default 2× base
	Progress        func(format string, args ...any)
}

func (o MeasureOptions) withDefaults(base int) MeasureOptions {
	if len(o.PECounts) == 0 {
		o.PECounts = []int{64, 128, 192}
	}
	if o.RaisedThreshold == 0 {
		o.RaisedThreshold = base * 2
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	return o
}

// scalarBackend runs step 2 on one core with the scalar reference
// kernel. The paper's software baseline is that sequential scalar
// loop, so pinning it keeps the measured profile (Tables 1, 7) in the
// paper's shape whatever kernel KernelAuto would pick. The blocked
// kernel's speedup is recorded separately (EXPERIMENTS.md "Step-2
// blocked kernel").
type scalarBackend struct{ threshold int }

func (scalarBackend) Name() string { return "cpu" }

func (b scalarBackend) Step2(ctx context.Context, shard *pipeline.Shard, ix1 *index.Index) (*pipeline.Step2Output, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out, err := ungapped.Scan(shard.Index, ix1, ungapped.Config{
		Matrix:    matrix.BLOSUM62,
		Threshold: b.threshold,
		Workers:   1,
		Kernel:    ungapped.KernelScalar,
	})
	if err != nil {
		return nil, err
	}
	return &pipeline.Step2Output{Hits: out}, nil
}

// Measure runs the pipeline over every bank of the workload and
// collects the raw numbers behind the tables. The software pipeline is
// driven through the shard engine pinned to one shard and one worker
// per step (Workers=1), matching the paper's single-core
// methodology; accelerator timings come from the validated cycle model.
func Measure(w *Workload, opt MeasureOptions) (*Measurements, error) {
	opt = opt.withDefaults(w.Scale.Threshold)
	ms := &Measurements{Workload: w, PECounts: opt.PECounts}

	// The genome-side index does not depend on the bank: build once,
	// hand it to the engine via Request.Index1, and charge the measured
	// build time to each bank's step 1 the way the paper's pipeline
	// does.
	tGenome := time.Now()
	ixG, err := index.Build(w.Frames, w.Scale.SeedModel, w.Scale.N)
	if err != nil {
		return nil, err
	}
	genomeIndexSec := time.Since(tGenome).Seconds()

	eng, err := pipeline.New(pipeline.Config{}, scalarBackend{threshold: w.Scale.Threshold})
	if err != nil {
		return nil, err
	}

	for bi, b := range w.Banks {
		opt.Progress("bank %s (%d proteins)", b.Name(), b.Len())
		m := BankMeasurement{
			BankIdx:       bi,
			Proteins:      b.Len(),
			Residues:      b.TotalResidues(),
			Device:        map[int]DeviceTiming{},
			TwoFPGA:       map[int]DeviceTiming{},
			OneFPGARaised: map[int]DeviceTiming{},
		}

		// Step 1: the bank-side index, built once — the engine reuses it
		// (Request.Index0) and the estimator sweeps below reuse it again.
		t0 := time.Now()
		ixB, err := index.Build(b, w.Scale.SeedModel, w.Scale.N)
		if err != nil {
			return nil, err
		}
		m.Step1Sec = time.Since(t0).Seconds() + genomeIndexSec

		// Steps 2-3 through the engine; per-stage durations come from
		// the engine's accounting.
		gcfg := gapped.DefaultConfig()
		gcfg.Workers = 1
		out, err := eng.Run(context.Background(), &pipeline.Request{
			Bank0:   b,
			Bank1:   w.Frames,
			Seed:    w.Scale.SeedModel,
			N:       w.Scale.N,
			Workers: 1,
			Gapped:  gcfg,
			Index0:  ixB,
			Index1:  ixG,
		})
		if err != nil {
			return nil, err
		}
		m.Step2SeqSec = out.Metrics.Step2.Busy.Seconds()
		m.Step3Sec = out.Metrics.Step3.Busy.Seconds()
		m.Hits = out.Hits
		m.Pairs = out.Pairs
		m.GapStats = out.GappedWork

		// Accelerator timings for every PE count (1 FPGA, base threshold).
		for _, pes := range opt.PECounts {
			dt, err := estimate(ixB, ixG, w, pes, 1, m.Hits)
			if err != nil {
				return nil, err
			}
			m.Device[pes] = dt
		}
		// Table 3: raised threshold, 1 vs 2 FPGAs, largest PE count.
		// The records are those of a step-2 run at the raised threshold
		// on the same indexes: a window's score does not depend on the
		// threshold, so they are the base run's hits that score at
		// least as high.
		raised, err := ungapped.Run(ixB, ixG, ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: opt.RaisedThreshold})
		if err != nil {
			return nil, err
		}
		raisedRecords := len(raised.Hits)
		bigPE := opt.PECounts[len(opt.PECounts)-1]
		one, err := estimate(ixB, ixG, w, bigPE, 1, raisedRecords)
		if err != nil {
			return nil, err
		}
		two, err := estimate(ixB, ixG, w, bigPE, 2, raisedRecords)
		if err != nil {
			return nil, err
		}
		m.OneFPGARaised[bigPE] = one
		m.TwoFPGA[bigPE] = two

		// Baseline.
		if opt.WithBlast {
			t3 := time.Now()
			bms, err := blast.SearchGenome(b, w.Genome, blast.DefaultConfig())
			if err != nil {
				return nil, err
			}
			m.BlastSec = time.Since(t3).Seconds()
			m.BlastMatches = len(bms)
		}
		ms.Banks = append(ms.Banks, m)
	}
	return ms, nil
}

// estimate runs the device timing model for one configuration.
func estimate(ixB, ixG *index.Index, w *Workload, pes, fpgas, records int) (DeviceTiming, error) {
	psc := hwsim.DefaultPSC(matrix.BLOSUM62, ixB.SubLen(), w.Scale.Threshold)
	psc.NumPEs = pes
	cfg := hwsim.DefaultDevice(psc)
	cfg.NumFPGAs = fpgas
	dev, err := hwsim.NewDevice(cfg)
	if err != nil {
		return DeviceTiming{}, err
	}
	rep, err := dev.EstimateStep2(ixB, ixG, records)
	if err != nil {
		return DeviceTiming{}, err
	}
	return DeviceTiming{
		Seconds:        rep.Seconds,
		ComputeSeconds: rep.ComputeSeconds,
		DMASeconds:     rep.DMASeconds,
		Utilization:    rep.Utilization,
	}, nil
}

// RASCTotalSec returns the simulated end-to-end pipeline time for one
// bank at the given PE count: measured steps 1 and 3 plus the simulated
// step 2.
func (m *BankMeasurement) RASCTotalSec(pes int) float64 {
	return m.Step1Sec + m.Device[pes].Seconds + m.Step3Sec
}

// SoftwareTotalSec returns the all-software sequential pipeline time.
func (m *BankMeasurement) SoftwareTotalSec() float64 {
	return m.Step1Sec + m.Step2SeqSec + m.Step3Sec
}

// BankName formats the bank label used in tables.
func (m *BankMeasurement) BankName() string {
	return fmt.Sprintf("%d prot", m.Proteins)
}

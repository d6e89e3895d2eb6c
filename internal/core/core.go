// Package core implements the paper's primary contribution: a
// bank-vs-bank protein comparison pipeline structured so that the
// dominant computation is a small critical section suitable for
// hardware acceleration. The pipeline has three steps (§2.1):
//
//	step 1  indexing           — both banks indexed by subset seed
//	step 2  ungapped extension — all seed pairs scored over W+2N windows
//	step 3  gapped extension   — surviving pairs aligned with gaps
//
// Step 2 runs either on the CPU engine (package ungapped) or on the
// simulated RASC-100 accelerator (package hwsim); results are
// bit-identical between engines.
//
// The one entry point is Searcher.Search (search.go): a Searcher built
// once by NewSearcher from functional options runs any query Target
// against any subject Target through the shard engine (package
// pipeline), which runs the three steps on bank 0 one shard after
// another, step 3 on the consuming goroutine. The zero Options.Pipeline
// runs one shard and reproduces the historical batch driver bit-identically;
// that driver survives only as the test oracle (CompareBatch in
// oracle_test.go). Translated
// targets (GenomeTarget, DNATarget) carry the six-frame translation
// and map alignments back to nucleotide coordinates, which covers
// tblastn, blastx and tblastx with the same call.
package core

import (
	"fmt"
	"time"

	"seedblast/internal/align"
	"seedblast/internal/gapped"
	"seedblast/internal/hwsim"
	"seedblast/internal/matrix"
	"seedblast/internal/pipeline"
	"seedblast/internal/seed"
	"seedblast/internal/stats"
	"seedblast/internal/translate"
	"seedblast/internal/ungapped"
)

// Engine selects where step 2 runs.
type Engine int

// Engines.
const (
	EngineCPU  Engine = iota // parallel software engine
	EngineRASC               // simulated RASC-100 accelerator
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineCPU:
		return "cpu"
	case EngineRASC:
		return "rasc"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParseEngine resolves an engine name — the inverse of Engine.String,
// shared by the service's wire options and the CLI flags; the empty
// string means cpu.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "cpu":
		return EngineCPU, nil
	case "rasc":
		return EngineRASC, nil
	}
	return EngineCPU, fmt.Errorf("core: unknown engine %q (want cpu or rasc)", s)
}

// RASCOptions configures the simulated accelerator when Engine is
// EngineRASC. Zero values take the paper's defaults.
type RASCOptions struct {
	NumPEs       int     // default 192
	NumFPGAs     int     // default 1 (the paper's main tables use one FPGA)
	SlotSize     int     // default 8
	FIFODepth    int     // default 64
	ClockHz      float64 // default 100 MHz
	DMABandwidth float64 // default 3.2 GB/s
	DMALatency   float64 // default 2 µs
	// OffloadGapped enables the paper's future-work configuration
	// (§5): the second FPGA carries a gap-extension operator, so step 3
	// is also simulated in hardware. Requires NumFPGAs == 1 for step 2
	// (the other FPGA is busy with gapped extension).
	OffloadGapped bool
}

func (r RASCOptions) withDefaults() RASCOptions {
	if r.NumPEs == 0 {
		r.NumPEs = 192
	}
	if r.NumFPGAs == 0 {
		r.NumFPGAs = 1
	}
	if r.SlotSize == 0 {
		r.SlotSize = 8
	}
	if r.FIFODepth == 0 {
		r.FIFODepth = 64
	}
	if r.ClockHz == 0 {
		r.ClockHz = 100e6
	}
	if r.DMABandwidth == 0 {
		r.DMABandwidth = 3.2e9
	}
	if r.DMALatency == 0 {
		r.DMALatency = 2e-6
	}
	return r
}

// Options is the resolved parameter set of a Searcher: NewSearcher
// starts from DefaultOptions, applies the With* options in order, and
// Searcher.Options returns the outcome as a read-only view. The zero
// value is not a valid configuration.
type Options struct {
	Seed              seed.Model
	N                 int // neighbourhood extension; windows are W+2N
	Matrix            *matrix.Matrix
	UngappedThreshold int
	Gapped            gapped.Config
	Engine            Engine
	RASC              RASCOptions
	Workers           int // CPU engine parallelism; 0 = GOMAXPROCS
	// Step2Kernel is always ungapped.KernelAuto: no option sets it and
	// the search runs the kernel ungapped.Run resolves. It is kept only
	// because the benchmark harness reads it when it runs step 2 on
	// its own; it goes when that harness is next changed.
	Step2Kernel ungapped.Kernel
	// Pipeline tunes the shard engine: its shard size. The zero value
	// processes bank 0 as one shard, reproducing the batch path
	// bit-identically.
	Pipeline pipeline.Config
	// MaxCandidates enables the two-stage prefilter: before step 2,
	// each query's subjects are ranked by hashed-seed diagonal-band
	// score and only the top MaxCandidates survive into ungapped and
	// gapped extension. Zero (the default) disables the stage and the
	// pipeline is bit-identical to one without it. E-values are
	// unaffected either way — the statistics still use the full
	// subject bank's geometry — so enabling it trades sensitivity
	// (pairs beyond the top K are never extended) for throughput.
	MaxCandidates int
	// GeneticCode selects the translation table for genome modes
	// (tblastn/blastx/tblastx); nil means the standard code. Bacterial
	// and vertebrate-mitochondrial codes are provided by package
	// translate.
	GeneticCode *translate.Code
	// SearchSpaceOverride fixes the database geometry used for E-value
	// statistics instead of deriving it from the subject bank. The
	// cluster layer sets it to the full bank's geometry when this run
	// compares against one volume of a partitioned bank, so reported
	// E-values — and the Gapped.MaxEValue significance cut — are
	// bit-identical to an unpartitioned run. The zero value keeps the
	// historical behaviour (n = subject bank total residues). It takes
	// precedence over any Gapped.SearchSpace already set.
	SearchSpaceOverride stats.SearchSpace
}

// gappedConfig resolves the step-3 configuration. Fields the caller
// set are preserved; only unset (zero) fields that have no meaningful
// zero value are filled from gapped.DefaultConfig: the matrix, the
// band, the E-value cutoff, the gap costs and the statistical
// parameters. GapTrigger, XDrop and Traceback keep their zero values
// because zero is meaningful there (pre-filter disabled, no
// traceback). An explicit Gapped.Workers wins over Options.Workers.
func (o *Options) gappedConfig() gapped.Config {
	g := o.Gapped
	def := gapped.DefaultConfig()
	if g.Matrix == nil {
		g.Matrix = def.Matrix
	}
	if g.Band == 0 {
		g.Band = def.Band
	}
	if g.MaxEValue == 0 {
		g.MaxEValue = def.MaxEValue
	}
	if g.Params == (stats.Params{}) {
		g.Params = def.Params
	}
	if g.Gaps == (align.GapParams{}) {
		g.Gaps = def.Gaps
	}
	if g.Workers == 0 {
		g.Workers = o.Workers
	}
	if !o.SearchSpaceOverride.IsZero() {
		g.SearchSpace = o.SearchSpaceOverride
	}
	return g
}

// DefaultOptions returns the pipeline defaults: the W=4 subset seed,
// N=14 (32-residue windows), BLOSUM62, ungapped threshold 38 and the
// gapped stage at E ≤ 10⁻³.
func DefaultOptions() Options {
	return Options{
		Seed:              seed.Default(),
		N:                 14,
		Matrix:            matrix.BLOSUM62,
		UngappedThreshold: 38,
		Gapped:            gapped.DefaultConfig(),
	}
}

// StepTimes records per-step durations, each summed over shards. For
// the RASC engine, Ungapped is the simulated accelerator time (cycles
// at the configured clock plus DMA), not host wall time. On a
// one-shard CPU run the steps run one after another, so their sum is
// within the engine's overhead of Summary.Pipeline.Wall.
type StepTimes struct {
	Index    time.Duration
	Ungapped time.Duration
	Gapped   time.Duration
}

// Total sums the three steps.
func (st StepTimes) Total() time.Duration {
	return st.Index + st.Ungapped + st.Gapped
}

// Fractions returns each step's share of the total, in step order
// (the quantity Tables 1 and 7 report).
func (st StepTimes) Fractions() [3]float64 {
	tot := st.Total().Seconds()
	if tot == 0 {
		return [3]float64{}
	}
	return [3]float64{
		st.Index.Seconds() / tot,
		st.Ungapped.Seconds() / tot,
		st.Gapped.Seconds() / tot,
	}
}

// backendFor builds the step-2 backend for the selected engine.
func backendFor(opt *Options) (pipeline.Backend, error) {
	switch opt.Engine {
	case EngineCPU:
		return &pipeline.CPUBackend{Matrix: opt.Matrix, Threshold: opt.UngappedThreshold, Workers: opt.Workers}, nil
	case EngineRASC:
		dev, err := buildDevice(opt, opt.Seed.Width()+2*opt.N)
		if err != nil {
			return nil, err
		}
		return &pipeline.RASCBackend{Device: dev}, nil
	default:
		return nil, fmt.Errorf("core: unknown engine %v", opt.Engine)
	}
}

func buildDevice(opt *Options, subLen int) (*hwsim.Device, error) {
	r := opt.RASC.withDefaults()
	psc := hwsim.PSCConfig{
		NumPEs:    r.NumPEs,
		SlotSize:  r.SlotSize,
		FIFODepth: r.FIFODepth,
		SubLen:    subLen,
		Threshold: opt.UngappedThreshold,
		Matrix:    opt.Matrix,
	}
	cfg := hwsim.DeviceConfig{
		PSC:          psc,
		NumFPGAs:     r.NumFPGAs,
		ClockHz:      r.ClockHz,
		DMABandwidth: r.DMABandwidth,
		DMALatency:   r.DMALatency,
		SharedLink:   true,
	}
	return hwsim.NewDevice(cfg)
}

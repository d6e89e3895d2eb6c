// Package hwsim simulates the paper's hardware: the Parallel Sequence
// Comparison (PSC) operator — a SIMD array of processing elements that
// scores one IL0 sub-sequence against a stream of IL1 sub-sequences —
// and the SGI RASC-100 accelerator it runs on (two Virtex-4 FPGAs
// behind a NUMAlink-attached DMA engine).
//
// The simulator has two layers:
//
//   - a cycle-accurate micro-engine (PE shift registers, score ROMs,
//     slot register barriers, cascaded result FIFOs, input/output
//     controllers) mirroring Figures 1 and 2 of the paper, used on
//     small workloads and as the test oracle of the timing model; and
//   - a batch-level device model (Device) fast enough for the paper's
//     table-scale experiments. The operator changes where step 2 runs,
//     not what it returns, so the model delegates the functional
//     results to the CPU ungapped engine — the same hits in the same
//     deterministic order — and accounts time in closed form: per-pass
//     cycle formulas plus a DMA/host-link model, without scoring.
package hwsim

import (
	"fmt"

	"seedblast/internal/matrix"
)

// PSCConfig describes one PSC operator instance (one FPGA design).
type PSCConfig struct {
	NumPEs    int // size of the PE array (the paper builds 64/128/192)
	SlotSize  int // PEs per slot; slots are separated by register barriers
	FIFODepth int // result FIFO depth per slot
	SubLen    int // sub-sequence length W + 2N handled by each PE
	Threshold int // ungapped score threshold applied by result management
	Matrix    *matrix.Matrix
}

// DefaultPSC returns the paper's largest configuration: 192 PEs in
// slots of 8 at sub-sequence length 32.
func DefaultPSC(m *matrix.Matrix, subLen, threshold int) PSCConfig {
	return PSCConfig{
		NumPEs:    192,
		SlotSize:  8,
		FIFODepth: 64,
		SubLen:    subLen,
		Threshold: threshold,
		Matrix:    m,
	}
}

// Validate checks configuration invariants.
func (c *PSCConfig) Validate() error {
	switch {
	case c.NumPEs <= 0:
		return fmt.Errorf("hwsim: NumPEs must be positive, got %d", c.NumPEs)
	case c.SlotSize <= 0:
		return fmt.Errorf("hwsim: SlotSize must be positive, got %d", c.SlotSize)
	case c.FIFODepth <= 0:
		return fmt.Errorf("hwsim: FIFODepth must be positive, got %d", c.FIFODepth)
	case c.SubLen <= 0:
		return fmt.Errorf("hwsim: SubLen must be positive, got %d", c.SubLen)
	case c.Threshold <= 0:
		return fmt.Errorf("hwsim: Threshold must be positive, got %d", c.Threshold)
	case c.Matrix == nil:
		return fmt.Errorf("hwsim: Matrix is required")
	}
	return nil
}

// NumSlots returns the number of PE slots (the last may be partial).
func (c *PSCConfig) NumSlots() int {
	return (c.NumPEs + c.SlotSize - 1) / c.SlotSize
}

// peDelay returns the pipeline latency, in cycles, from the IL1 input
// port to PE p: one register per PE plus one extra register per slot
// barrier crossed. This is the "short and parallel data paths" pipeline
// of §3.1.
func (c *PSCConfig) peDelay(p int) int {
	return p + p/c.SlotSize
}

// DeviceConfig describes a RASC-100 style accelerator.
type DeviceConfig struct {
	PSC          PSCConfig
	NumFPGAs     int     // the RASC-100 carries two Virtex-4 FPGAs
	ClockHz      float64 // PE array clock; the paper runs at 100 MHz
	DMABandwidth float64 // host link bytes/s (NUMAlink-class)
	DMALatency   float64 // seconds of fixed cost per DMA transfer
	SharedLink   bool    // both FPGAs share one host link (contention)
	// SRAMBytes models the board SRAM (Figure 3): an IL1 stream staged
	// in SRAM replays across the passes of a multi-pass bucket without
	// being re-sent over the host link. Zero disables staging.
	SRAMBytes int
}

// DefaultDevice returns a RASC-100-like device: 100 MHz, 3.2 GB/s
// shared host link with 2 µs per-transfer latency and 16 MB of board
// SRAM for IL1 staging.
func DefaultDevice(psc PSCConfig) DeviceConfig {
	return DeviceConfig{
		PSC:          psc,
		NumFPGAs:     1,
		ClockHz:      100e6,
		DMABandwidth: 3.2e9,
		DMALatency:   2e-6,
		SharedLink:   true,
		SRAMBytes:    16 << 20,
	}
}

// Validate checks device invariants.
func (c *DeviceConfig) Validate() error {
	if err := c.PSC.Validate(); err != nil {
		return err
	}
	switch {
	case c.NumFPGAs < 1 || c.NumFPGAs > 2:
		return fmt.Errorf("hwsim: NumFPGAs must be 1 or 2 (RASC-100 has two), got %d", c.NumFPGAs)
	case c.ClockHz <= 0:
		return fmt.Errorf("hwsim: ClockHz must be positive")
	case c.DMABandwidth <= 0:
		return fmt.Errorf("hwsim: DMABandwidth must be positive")
	case c.DMALatency < 0:
		return fmt.Errorf("hwsim: DMALatency must be non-negative")
	case c.SRAMBytes < 0:
		return fmt.Errorf("hwsim: SRAMBytes must be non-negative")
	}
	return nil
}

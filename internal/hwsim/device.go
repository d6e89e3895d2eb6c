package hwsim

import (
	"fmt"

	"seedblast/internal/index"
	"seedblast/internal/ungapped"
)

// Device models a RASC-100 style accelerator: one or two FPGAs, each
// carrying one PSC operator, fed by DMA over a (possibly shared) host
// link, as in Figure 3. Scan executes the paper's step 2 on the device
// model: the functional results are the CPU engine's (ungapped.Scan),
// while time is accounted from the cycle model at the configured clock
// plus the DMA model.
type Device struct {
	cfg DeviceConfig
}

// NewDevice validates the configuration and returns a device.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{cfg: cfg}, nil
}

// Step2Report is the device's account of running step 2.
type Step2Report struct {
	Pairs   int64 // neighbourhood scorings performed
	Records int   // results crossing the host link

	CyclesPerFPGA  []uint64
	BytesToDevice  uint64
	BytesFromDev   uint64
	Transfers      uint64
	ComputeSeconds float64 // slowest FPGA's cycle time
	DMASeconds     float64 // slowest FPGA's link time (with contention)
	Seconds        float64 // simulated step-2 wall time
	Utilization    float64 // useful PE-cycles / provisioned PE-cycles
}

// Scan runs the ungapped stage for two indexes on the device. The PSC
// operator changes where step 2 runs, not what it returns, so the hits
// and the pair count come from the CPU engine (ungapped.Scan), handed
// over as it hands them to step 3, and the cycles, DMA traffic and
// simulated time from EstimateStep2.
func (d *Device) Scan(ix0, ix1 *index.Index) (*Step2Report, *ungapped.Output, error) {
	if err := d.check(ix0, ix1); err != nil {
		return nil, nil, err
	}
	out, err := ungapped.Scan(ix0, ix1, ungapped.Config{Matrix: d.cfg.PSC.Matrix, Threshold: d.cfg.PSC.Threshold})
	if err != nil {
		return nil, nil, err
	}
	rep, err := d.report(ix0, ix1, out)
	if err != nil {
		return nil, nil, err
	}
	return rep, out, nil
}

// report accounts the device time of out, the functional step 2 of ix0
// against ix1. The engine and the accounting count the same K0×K1
// products; if their pair counts differ, one of the two walks has
// broken that contract.
func (d *Device) report(ix0, ix1 *index.Index, out *ungapped.Output) (*Step2Report, error) {
	rep, err := d.EstimateStep2(ix0, ix1, out.Len())
	if err != nil {
		return nil, err
	}
	if rep.Pairs != out.Pairs {
		return nil, fmt.Errorf("hwsim: step 2 scored %d pairs but the device accounts for %d", out.Pairs, rep.Pairs)
	}
	return rep, nil
}

// check rejects indexes the configured PSC operator cannot process.
func (d *Device) check(ix0, ix1 *index.Index) error {
	if ix0.SubLen() != d.cfg.PSC.SubLen || ix1.SubLen() != d.cfg.PSC.SubLen {
		return fmt.Errorf("hwsim: index SubLen %d/%d does not match PSC SubLen %d",
			ix0.SubLen(), ix1.SubLen(), d.cfg.PSC.SubLen)
	}
	if ix0.Model().KeySpace() != ix1.Model().KeySpace() {
		return fmt.Errorf("hwsim: indexes built with different seed models")
	}
	return nil
}

// splitByWork partitions the key space into numFPGAs contiguous ranges
// with approximately equal pair workload. Only keys occupied in bank 0
// carry work, so the cut is found walking those.
func splitByWork(ix0, ix1 *index.Index, space, numFPGAs int) [][2]uint32 {
	if numFPGAs == 1 {
		return [][2]uint32{{0, uint32(space)}}
	}
	var total int64
	for _, k := range ix0.Keys() {
		total += int64(ix0.BucketLen(k)) * int64(ix1.BucketLen(k))
	}
	half := total / 2
	var acc int64
	cut := 1 // with under two pairs the half is zero, met at key 0
	if half > 0 {
		for _, k := range ix0.Keys() {
			acc += int64(ix0.BucketLen(k)) * int64(ix1.BucketLen(k))
			if acc >= half {
				cut = int(k) + 1
				break
			}
		}
	}
	if cut >= space {
		cut = space - 1
	}
	return [][2]uint32{{0, uint32(cut)}, {uint32(cut), uint32(space)}}
}

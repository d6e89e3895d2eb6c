package hwsim

import (
	"fmt"
	"sync"

	"seedblast/internal/align"
	"seedblast/internal/index"
	"seedblast/internal/ungapped"
)

// Device models a RASC-100 style accelerator: one or two FPGAs, each
// carrying one PSC operator, fed by DMA over a (possibly shared) host
// link, as in Figure 3. RunStep2 executes the paper's step 2 on the
// device model: functional results are bit-identical to the CPU engine
// (ungapped.Run) while time is accounted from the cycle model at the
// configured clock plus the DMA model.
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

// Config returns the device configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

// Step2Report is the outcome of running step 2 on the device.
type Step2Report struct {
	Hits    []ungapped.Hit
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

// RunStep2 runs the ungapped stage for two indexes on the device.
// The key space is split between FPGAs by balancing the pair workload;
// each FPGA processes its keys in passes of up to NumPEs IL0
// sub-sequences, streaming the key's IL1 list past the array.
func (d *Device) RunStep2(ix0, ix1 *index.Index) (*Step2Report, error) {
	cfg := &d.cfg
	if ix0.SubLen() != cfg.PSC.SubLen || ix1.SubLen() != cfg.PSC.SubLen {
		return nil, fmt.Errorf("hwsim: index SubLen %d/%d does not match PSC SubLen %d",
			ix0.SubLen(), ix1.SubLen(), cfg.PSC.SubLen)
	}
	if ix0.Model().KeySpace() != ix1.Model().KeySpace() {
		return nil, fmt.Errorf("hwsim: indexes built with different seed models")
	}

	space := ix0.Model().KeySpace()
	ranges := splitByWork(ix0, ix1, space, cfg.NumFPGAs)

	type fpgaResult struct {
		hits    []ungapped.Hit
		pairs   int64
		cycles  uint64
		inBytes uint64
		xfers   uint64
	}
	results := make([]fpgaResult, len(ranges))
	var wg sync.WaitGroup
	for f := range ranges {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			r := &results[f]
			r.hits, r.pairs, r.cycles, r.inBytes, r.xfers =
				runKeyRange(ix0, ix1, ranges[f][0], ranges[f][1], &cfg.PSC, cfg.SRAMBytes)
		}(f)
	}
	wg.Wait()

	rep := &Step2Report{}
	var slowestCycles uint64
	var totBytesIn uint64
	var totXfers uint64
	for _, r := range results {
		rep.Hits = append(rep.Hits, r.hits...)
		rep.Pairs += r.pairs
		rep.CyclesPerFPGA = append(rep.CyclesPerFPGA, r.cycles)
		totBytesIn += r.inBytes
		totXfers += r.xfers
		if r.cycles > slowestCycles {
			slowestCycles = r.cycles
		}
	}
	rep.Records = len(rep.Hits)
	rep.BytesToDevice = totBytesIn
	rep.BytesFromDev = uint64(rep.Records) * recordBytes
	rep.Transfers = totXfers

	rep.ComputeSeconds = float64(slowestCycles) / cfg.ClockHz
	bandwidth := cfg.DMABandwidth
	if cfg.SharedLink && len(ranges) > 1 {
		// Both FPGAs contend for the one NUMAlink attachment.
		bandwidth /= float64(len(ranges))
	}
	// Per-FPGA link time; transfers and bytes split across FPGAs.
	perFPGABytes := (totBytesIn + rep.BytesFromDev) / uint64(len(ranges))
	perFPGAXfers := totXfers / uint64(len(ranges))
	rep.DMASeconds = dmaCost(perFPGABytes, perFPGAXfers, bandwidth, cfg.DMALatency)
	// Streaming DMA overlaps compute; the wall time is the slower of
	// the two plus a fixed device setup cost per run.
	rep.Seconds = maxF(rep.ComputeSeconds, rep.DMASeconds) + cfg.DMALatency
	if slowestCycles > 0 {
		useful := float64(rep.Pairs) * float64(cfg.PSC.SubLen)
		var provisioned float64
		for _, c := range rep.CyclesPerFPGA {
			provisioned += float64(c) * float64(cfg.PSC.NumPEs)
		}
		rep.Utilization = useful / provisioned
	}
	return rep, nil
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

// runKeyRange processes the occupied bank-0 keys in [lo, hi) on one
// FPGA: for each key, IL0 is loaded in passes of up to NumPEs
// sub-sequences and the full IL1 stream is sent past the array per
// pass. Functional scoring uses the same WindowScore as the CPU
// engine; cycles follow the validated closed-form model; DMA bytes
// count IL0 loads, IL1 streams (replayed from SRAM across passes when
// the stream fits) and result records.
func runKeyRange(ix0, ix1 *index.Index, lo, hi uint32, psc *PSCConfig, sramBytes int) (
	hits []ungapped.Hit, pairs int64, cycles, bytesIn, xfers uint64) {
	subLen := psc.SubLen
	for _, k := range ix0.KeysIn(lo, hi) {
		il0, hood0 := ix0.Bucket(k)
		il1, hood1 := ix1.Bucket(k)
		if len(il1) == 0 {
			continue
		}
		pairs += int64(len(il0)) * int64(len(il1))
		il1Bytes := uint64(len(il1) * subLen)
		staged := sramBytes > 0 && il1Bytes <= uint64(sramBytes)
		for base := 0; base < len(il0); base += psc.NumPEs {
			n := min(psc.NumPEs, len(il0)-base)
			cycles += psc.PassCycles(n, len(il1))
			bytesIn += uint64(n * subLen)
			xfers++ // IL0 load burst
			if base == 0 || !staged {
				bytesIn += il1Bytes
				xfers++ // IL1 stream over the host link
			}
			for i := base; i < base+n; i++ {
				w0 := hood0[i*subLen : (i+1)*subLen]
				for j := range il1 {
					w1 := hood1[j*subLen : (j+1)*subLen]
					score := align.WindowScore(w0, w1, psc.Matrix)
					if score >= psc.Threshold {
						hits = append(hits, ungapped.Hit{
							Key:    k,
							E0:     il0[i],
							E1:     il1[j],
							Score:  int32(score),
							SubLen: int32(subLen),
						})
					}
				}
			}
		}
	}
	return hits, pairs, cycles, bytesIn, xfers
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

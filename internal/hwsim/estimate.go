package hwsim

import (
	"fmt"

	"seedblast/internal/index"
)

// EstimateStep2 computes the timing side of RunStep2 — cycles, DMA
// traffic and the derived simulated seconds — without scoring any
// pairs. The key space is split between FPGAs by balancing the pair
// workload; each FPGA processes its keys in passes of up to NumPEs IL0
// sub-sequences, streaming the key's IL1 list past the array per pass
// (replayed from SRAM across passes when the stream fits). The
// functional results of step 2 do not depend on the PE count, so
// experiments run the scoring once and sweep array sizes with this
// estimator; tests pin it to the micro-engine and to a key-space
// reference that scores every pair.
//
// records is the number of result records crossing the host link,
// taken from a functional run at the same threshold.
func (d *Device) EstimateStep2(ix0, ix1 *index.Index, records int) (*Step2Report, error) {
	if err := d.check(ix0, ix1); err != nil {
		return nil, err
	}
	if records < 0 {
		return nil, fmt.Errorf("hwsim: negative record count %d", records)
	}

	cfg := &d.cfg
	space := ix0.Model().KeySpace()
	ranges := splitByWork(ix0, ix1, space, cfg.NumFPGAs)
	rep := &Step2Report{Records: records}
	var slowestCycles uint64
	subLen := cfg.PSC.SubLen
	for _, rg := range ranges {
		var cycles, bytesIn, xfers uint64
		var pairs int64
		for _, k := range ix0.KeysIn(rg[0], rg[1]) {
			k0 := ix0.BucketLen(k)
			k1 := ix1.BucketLen(k)
			if k1 == 0 {
				continue
			}
			pairs += int64(k0) * int64(k1)
			il1Bytes := uint64(k1 * subLen)
			staged := cfg.SRAMBytes > 0 && il1Bytes <= uint64(cfg.SRAMBytes)
			for base := 0; base < k0; base += cfg.PSC.NumPEs {
				n := min(cfg.PSC.NumPEs, k0-base)
				cycles += cfg.PSC.PassCycles(n, k1)
				bytesIn += uint64(n * subLen)
				xfers++
				if base == 0 || !staged {
					bytesIn += il1Bytes
					xfers++
				}
			}
		}
		rep.Pairs += pairs
		rep.CyclesPerFPGA = append(rep.CyclesPerFPGA, cycles)
		rep.BytesToDevice += bytesIn
		rep.Transfers += xfers
		if cycles > slowestCycles {
			slowestCycles = cycles
		}
	}
	rep.BytesFromDev = uint64(records) * recordBytes

	rep.ComputeSeconds = float64(slowestCycles) / cfg.ClockHz
	bandwidth := cfg.DMABandwidth
	if cfg.SharedLink && len(ranges) > 1 {
		// Both FPGAs contend for the one NUMAlink attachment.
		bandwidth /= float64(len(ranges))
	}
	perFPGABytes := (rep.BytesToDevice + rep.BytesFromDev) / uint64(len(ranges))
	perFPGAXfers := rep.Transfers / uint64(len(ranges))
	rep.DMASeconds = dmaCost(perFPGABytes, perFPGAXfers, bandwidth, cfg.DMALatency)
	// Streaming DMA overlaps compute; the wall time is the slower of
	// the two plus a fixed device setup cost per run.
	rep.Seconds = max(rep.ComputeSeconds, rep.DMASeconds) + cfg.DMALatency
	if slowestCycles > 0 {
		useful := float64(rep.Pairs) * float64(subLen)
		var provisioned float64
		for _, c := range rep.CyclesPerFPGA {
			provisioned += float64(c) * float64(cfg.PSC.NumPEs)
		}
		rep.Utilization = useful / provisioned
	}
	return rep, nil
}

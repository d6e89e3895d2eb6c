package hwsim

import (
	"fmt"
	"reflect"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/seed"
	"seedblast/internal/ungapped"
)

// keySpaceReference is RunStep2 as it was before the device walked
// occupied keys: the work split and every FPGA's pass loop run over
// all keys of the model. It is kept here, not shipped, as the reference
// the occupied-key walk must reproduce bit for bit.
func keySpaceReference(cfg *DeviceConfig, ix0, ix1 *index.Index) *Step2Report {
	space := ix0.Model().KeySpace()
	ranges := [][2]uint32{{0, uint32(space)}}
	if cfg.NumFPGAs == 2 {
		var total int64
		for k := 0; k < space; k++ {
			total += int64(ix0.BucketLen(uint32(k))) * int64(ix1.BucketLen(uint32(k)))
		}
		var acc int64
		cut := space / 2
		for k := 0; k < space; k++ {
			acc += int64(ix0.BucketLen(uint32(k))) * int64(ix1.BucketLen(uint32(k)))
			if acc >= total/2 {
				cut = k + 1
				break
			}
		}
		cut = min(max(cut, 1), space-1)
		ranges = [][2]uint32{{0, uint32(cut)}, {uint32(cut), uint32(space)}}
	}
	psc := &cfg.PSC
	subLen := psc.SubLen
	rep := &Step2Report{}
	var slowest, bytesIn, xfers uint64
	for _, rg := range ranges {
		var cycles uint64
		for k := rg[0]; k < rg[1]; k++ {
			il0, hood0 := ix0.Bucket(k)
			il1, hood1 := ix1.Bucket(k)
			if len(il0) == 0 || len(il1) == 0 {
				continue
			}
			rep.Pairs += int64(len(il0)) * int64(len(il1))
			il1Bytes := uint64(len(il1) * subLen)
			staged := cfg.SRAMBytes > 0 && il1Bytes <= uint64(cfg.SRAMBytes)
			for base := 0; base < len(il0); base += psc.NumPEs {
				n := min(psc.NumPEs, len(il0)-base)
				cycles += psc.PassCycles(n, len(il1))
				bytesIn += uint64(n * subLen)
				xfers++
				if base == 0 || !staged {
					bytesIn += il1Bytes
					xfers++
				}
				for i := base; i < base+n; i++ {
					for j := range il1 {
						score := align.WindowScore(hood0[i*subLen:(i+1)*subLen], hood1[j*subLen:(j+1)*subLen], psc.Matrix)
						if score >= psc.Threshold {
							rep.Hits = append(rep.Hits, ungapped.Hit{Key: k, E0: il0[i], E1: il1[j], Score: int32(score), SubLen: int32(subLen)})
						}
					}
				}
			}
		}
		rep.CyclesPerFPGA = append(rep.CyclesPerFPGA, cycles)
		slowest = max(slowest, cycles)
	}
	rep.Records = len(rep.Hits)
	rep.BytesToDevice = bytesIn
	rep.BytesFromDev = uint64(rep.Records) * recordBytes
	rep.Transfers = xfers
	rep.ComputeSeconds = float64(slowest) / cfg.ClockHz
	bandwidth := cfg.DMABandwidth
	if cfg.SharedLink && len(ranges) > 1 {
		bandwidth /= float64(len(ranges))
	}
	n := uint64(len(ranges))
	rep.DMASeconds = dmaCost((bytesIn+rep.BytesFromDev)/n, xfers/n, bandwidth, cfg.DMALatency)
	rep.Seconds = maxF(rep.ComputeSeconds, rep.DMASeconds) + cfg.DMALatency
	if slowest > 0 {
		var provisioned float64
		for _, c := range rep.CyclesPerFPGA {
			provisioned += float64(c) * float64(psc.NumPEs)
		}
		rep.Utilization = float64(rep.Pairs) * float64(subLen) / provisioned
	}
	return rep
}

// TestDeviceMatchesKeySpaceOracle pins RunStep2 and EstimateStep2 to
// the full key-space reference on 1 and 2 FPGAs, shared link on and
// off: hits, cycles per FPGA, bytes, transfers, seconds and
// utilization. The shapes include a one-pair bank, whose zero
// half-workload puts the 2-FPGA cut at key 1, and an empty one.
func TestDeviceMatchesKeySpaceOracle(t *testing.T) {
	sparse0, sparse1 := testIndexes(t, 5, 7, 140, 6)
	dense0, dense1 := denseIndexes(t, 12, 6, 200, 6)
	word := alphabet.MustEncodeProtein("WCHMYF")
	one0, one1 := bank.New("one0"), bank.New("one1")
	one0.Add("q", word[:4])
	one1.Add("s", word)
	empty := bank.New("empty")
	build := func(b *bank.Bank) *index.Index {
		ix, err := index.Build(b, seed.Default(), 6)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	cases := []struct {
		name     string
		ix0, ix1 *index.Index
		pes      int
	}{
		{"sparse", sparse0, sparse1, 64},
		{"dense", dense0, dense1, 8},
		{"one-pair", build(one0), build(one1), 64},
		{"empty", build(empty), sparse1, 64},
	}
	for _, c := range cases {
		for _, fpgas := range []int{1, 2} {
			for _, shared := range []bool{true, false} {
				label := fmt.Sprintf("%s/fpgas=%d/shared=%v", c.name, fpgas, shared)
				d := deviceFor(t, c.ix0, c.pes, fpgas, 20)
				d.cfg.SharedLink = shared
				want := keySpaceReference(&d.cfg, c.ix0, c.ix1)
				got, err := d.RunStep2(c.ix0, c.ix1)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: RunStep2\n got  %+v\n want %+v", label, got, want)
				}
				est, err := d.EstimateStep2(c.ix0, c.ix1, want.Records)
				if err != nil {
					t.Fatal(err)
				}
				want.Hits = nil
				if !reflect.DeepEqual(est, want) {
					t.Fatalf("%s: EstimateStep2\n got  %+v\n want %+v", label, est, want)
				}
			}
		}
	}
	if p := keySpaceReference(&deviceFor(t, sparse0, 64, 1, 20).cfg, sparse0, sparse1).Pairs; p == 0 {
		t.Fatal("sparse case scores no pairs; test is vacuous")
	}
}

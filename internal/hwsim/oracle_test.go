package hwsim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/seed"
	"seedblast/internal/ungapped"
)

// flatReport is a device report with the hits of its step 2
// concatenated, in ungapped.Run's order.
type flatReport struct {
	*Step2Report
	Hits []ungapped.Hit
}

// RunStep2 is Scan with the hand-off's hits concatenated: the form the
// tests compare with the CPU engine's hits and the key-space oracle's.
func (d *Device) RunStep2(ix0, ix1 *index.Index) (*flatReport, error) {
	rep, out, err := d.Scan(ix0, ix1)
	if err != nil {
		return nil, err
	}
	return &flatReport{rep, out.Hits()}, nil
}

// keySpaceReference is the independent reference RunStep2 must
// reproduce bit for bit: the work split and every FPGA's pass loop run
// over all keys of the model, and every pair is scored with the scalar
// align.WindowScore inside that loop. It shares nothing with the CPU
// engine and only PassCycles and dmaCost with EstimateStep2.
func keySpaceReference(cfg *DeviceConfig, ix0, ix1 *index.Index) *flatReport {
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
	rep := &flatReport{Step2Report: &Step2Report{}}
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
							rep.Hits = append(rep.Hits, ungapped.Hit{E0: il0[i], E1: il1[j]})
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
	rep.Seconds = max(rep.ComputeSeconds, rep.DMASeconds) + cfg.DMALatency
	if slowest > 0 {
		var provisioned float64
		for _, c := range rep.CyclesPerFPGA {
			provisioned += float64(c) * float64(psc.NumPEs)
		}
		rep.Utilization = float64(rep.Pairs) * float64(subLen) / provisioned
	}
	return rep
}

// homologIndexes builds a query bank of nq random proteins and a
// subject bank of nSubj copies of them at 10-30 % divergence, so most
// shared seeds carry hits and the hits spread over the whole key space.
func homologIndexes(t testing.TB, nq, nSubj, seqLen, n int) (*index.Index, *index.Index) {
	t.Helper()
	rng := bank.NewRNG(33)
	b0, b1 := bank.New("h0"), bank.New("h1")
	for i := 0; i < nq; i++ {
		b0.Add(fmt.Sprintf("q%d", i), bank.RandomProtein(rng, seqLen))
	}
	for j := 0; j < nSubj; j++ {
		rate := []float64{0.1, 0.2, 0.3}[j%3]
		b1.Add(fmt.Sprintf("s%d", j), bank.MutateProtein(rng, b0.Seq(j%nq), rate))
	}
	ix0, err := index.Build(b0, seed.Default(), n)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, seed.Default(), n)
	if err != nil {
		t.Fatal(err)
	}
	return ix0, ix1
}

// TestDeviceMatchesKeySpaceOracle pins RunStep2 and EstimateStep2 to
// the full key-space reference on 1 and 2 FPGAs, shared link on and
// off, at several PE counts: hits, cycles per FPGA, bytes, transfers,
// seconds and utilization. The shapes include a one-pair bank, whose
// zero half-workload puts the 2-FPGA cut at key 1, an empty one, and a
// homolog bank with many hits on both sides of the cut. The whole test
// runs at GOMAXPROCS 1 and 3, so the CPU engine's hits come from one
// worker and from three merged chunks.
func TestDeviceMatchesKeySpaceOracle(t *testing.T) {
	sparse0, sparse1 := testIndexes(t, 5, 7, 140, 6)
	mid0, mid1 := testIndexes(t, 6, 8, 150, 8)
	dense0, dense1 := denseIndexes(t, 12, 6, 200, 6)
	homolog0, homolog1 := homologIndexes(t, 6, 60, 150, 6)
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
		pes      []int
	}{
		{"sparse", sparse0, sparse1, []int{64}},
		{"mid", mid0, mid1, []int{16, 64, 192}},
		{"dense", dense0, dense1, []int{8, 64, 192}},
		{"homolog", homolog0, homolog1, []int{64}},
		{"one-pair", build(one0), build(one1), []int{64}},
		{"empty", build(empty), sparse1, []int{64}},
	}
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			for _, pes := range c.pes {
				for _, fpgas := range []int{1, 2} {
					for _, shared := range []bool{true, false} {
						label := fmt.Sprintf("%s/procs=%d/pes=%d/fpgas=%d/shared=%v", c.name, procs, pes, fpgas, shared)
						d := deviceFor(t, c.ix0, pes, fpgas, 20)
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
						if !reflect.DeepEqual(est, want.Step2Report) {
							t.Fatalf("%s: EstimateStep2\n got  %+v\n want %+v", label, est, want)
						}
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if p := keySpaceReference(&deviceFor(t, sparse0, 64, 1, 20).cfg, sparse0, sparse1).Pairs; p == 0 {
		t.Fatal("sparse case scores no pairs; test is vacuous")
	}
	// The homolog case must put many hits, from several occupied keys,
	// on each side of the 2-FPGA cut.
	ref := keySpaceReference(&deviceFor(t, homolog0, 64, 2, 20).cfg, homolog0, homolog1)
	cut := splitByWork(homolog0, homolog1, homolog0.Model().KeySpace(), 2)[0][1]
	// A hit's key is the model's key of its bank-0 seed word.
	model, width := homolog0.Model(), homolog0.Model().Width()
	var hits, keys [2]int
	last := [2]uint32{^uint32(0), ^uint32(0)}
	for _, h := range ref.Hits {
		off := int(h.E0.Off)
		key, ok := model.Key(homolog0.Bank().Seq(int(h.E0.Seq))[off : off+width])
		if !ok {
			t.Fatalf("hit %+v: bank-0 seed word has no key", h)
		}
		side := 0
		if key >= cut {
			side = 1
		}
		hits[side]++
		if key != last[side] {
			keys[side]++
			last[side] = key
		}
	}
	if min(hits[0], hits[1]) < 500 || min(keys[0], keys[1]) < 50 {
		t.Fatalf("homolog case too thin around the cut at key %d: hits %v, keys with hits %v", cut, hits, keys)
	}
}

// TestRunStep2RejectsPairMismatch feeds report a functional result
// whose pair count the device's accounting cannot reproduce, as if the
// engine's key walk and the device's had drifted apart.
func TestRunStep2RejectsPairMismatch(t *testing.T) {
	ix0, ix1 := testIndexes(t, 4, 6, 120, 6)
	other0, other1 := testIndexes(t, 2, 3, 120, 6)
	d := deviceFor(t, ix0, 64, 1, 20)
	cfg := ungapped.Config{Matrix: d.cfg.PSC.Matrix, Threshold: 20}
	res, err := ungapped.Scan(other0, other1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	own, err := ungapped.Scan(ix0, ix1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs == own.Pairs {
		t.Fatal("test banks have equal pair counts; the mismatch is not exercised")
	}
	if _, err := d.report(ix0, ix1, res); err == nil {
		t.Error("a pair count the device does not account for was accepted")
	}
	res.Pairs = own.Pairs
	if _, err := d.report(ix0, ix1, res); err != nil {
		t.Errorf("matching pair count rejected: %v", err)
	}
}

// BenchmarkDeviceRunStep2 measures the host cost of one simulated step
// 2 on buckets that overfill the PE array.
func BenchmarkDeviceRunStep2(b *testing.B) {
	ix0, ix1 := denseIndexes(b, 12, 6, 200, 6)
	d := deviceFor(b, ix0, 64, 2, 20)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := d.RunStep2(ix0, ix1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanShapeLoadsOneOrTwoPEs explains the PE utilization the
// scan_rasc benchmark workload reports. Its bank 0 is 64 random 200 aa
// queries, bank 1 2000 random 600 aa subjects, at the library defaults
// (seed.Default, N = 14, 192 PEs). Over 40 000 keys, bank 0's ~12 000
// seeds leave almost every occupied IL0 bucket with one or two entries,
// so a pass loads one or two of the 192 PEs and utilization is about
// that over 192. Run with -v for the IL0 bucket-length histogram.
func TestScanShapeLoadsOneOrTwoPEs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1.2 M-entry subject index")
	}
	rng := bank.NewRNG(1)
	b0, b1 := bank.New("queries"), bank.New("subjects")
	for i := 0; i < 64; i++ {
		b0.Add(fmt.Sprintf("q%d", i), bank.RandomProtein(rng, 200))
	}
	for j := 0; j < 2000; j++ {
		b1.Add(fmt.Sprintf("s%d", j), bank.RandomProtein(rng, 600))
	}
	ix0, err := index.Build(b0, seed.Default(), 14)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, seed.Default(), 14)
	if err != nil {
		t.Fatal(err)
	}
	d := deviceFor(t, ix0, 192, 1, 38)
	rep, err := d.EstimateStep2(ix0, ix1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hist := map[int]int{}
	var keys, loaded, il1 int
	for _, k := range ix0.Keys() {
		if k1 := ix1.BucketLen(k); k1 > 0 {
			hist[ix0.BucketLen(k)]++
			keys++
			loaded += ix0.BucketLen(k)
			il1 += k1
		}
	}
	t.Logf("%d IL0 entries, %d of %d keys occupied in both banks, mean IL1 bucket %.1f",
		ix0.NumEntries(), keys, ix0.Model().KeySpace(), float64(il1)/float64(keys))
	for n := 1; n <= 8; n++ {
		t.Logf("IL0 bucket length %d: %5d keys (%.1f %%)", n, hist[n], 100*float64(hist[n])/float64(keys))
	}
	// Every bucket fits one pass. Utilization × 192 is the number of
	// PEs scoring in an average cycle: more than the per-pass mean,
	// because common seeds fill both banks' buckets and stream longest.
	mean, busy := float64(loaded)/float64(keys), 192*rep.Utilization
	t.Logf("PEs loaded per pass %.2f; scoring per cycle %.2f of 192 (utilization %.2f %%)",
		mean, busy, 100*rep.Utilization)
	if mean < 1 || mean > 2 || busy < 1 || busy > 2 {
		t.Errorf("scan shape loads %.2f PEs per pass, %.2f per cycle; want one or two", mean, busy)
	}
}

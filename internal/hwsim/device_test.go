package hwsim

import (
	"testing"

	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/seed"
	"seedblast/internal/ungapped"
)

// testIndexes builds a pair of small indexes with guaranteed overlap.
func testIndexes(t testing.TB, n0Seqs, n1Seqs, seqLen, n int) (*index.Index, *index.Index) {
	t.Helper()
	rng := bank.NewRNG(31)
	b0 := bank.New("b0")
	b1 := bank.New("b1")
	shared := bank.RandomProtein(rng, seqLen)
	for i := 0; i < n0Seqs; i++ {
		s := bank.MutateProtein(rng, shared, 0.4)
		b0.Add(string(rune('a'+i)), s)
	}
	for i := 0; i < n1Seqs; i++ {
		s := bank.MutateProtein(rng, shared, 0.4)
		b1.Add(string(rune('A'+i)), s)
	}
	model := seed.Default()
	ix0, err := index.Build(b0, model, n)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, model, n)
	if err != nil {
		t.Fatal(err)
	}
	return ix0, ix1
}

func deviceFor(t testing.TB, ix *index.Index, numPEs, numFPGAs, threshold int) *Device {
	t.Helper()
	psc := DefaultPSC(matrix.BLOSUM62, ix.SubLen(), threshold)
	psc.NumPEs = numPEs
	cfg := DefaultDevice(psc)
	cfg.NumFPGAs = numFPGAs
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceMatchesCPUEngine(t *testing.T) {
	ix0, ix1 := testIndexes(t, 4, 6, 120, 6)
	const threshold = 20
	cpu, err := ungapped.Run(ix0, ix1, ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	for _, fpgas := range []int{1, 2} {
		d := deviceFor(t, ix0, 64, fpgas, threshold)
		rep, err := d.RunStep2(ix0, ix1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pairs != cpu.Pairs {
			t.Errorf("fpgas=%d: pairs %d, want %d", fpgas, rep.Pairs, cpu.Pairs)
		}
		if len(rep.Hits) != len(cpu.Hits) {
			t.Fatalf("fpgas=%d: %d hits, want %d", fpgas, len(rep.Hits), len(cpu.Hits))
		}
		for i := range rep.Hits {
			if rep.Hits[i] != cpu.Hits[i] {
				t.Fatalf("fpgas=%d: hit %d = %+v, want %+v (bit-identical order required)",
					fpgas, i, rep.Hits[i], cpu.Hits[i])
			}
		}
	}
}

func TestDeviceCycleAccountingAgainstMicroEngine(t *testing.T) {
	// The device's per-pass formula must track the micro-engine on the
	// exact same bucket contents.
	ix0, ix1 := testIndexes(t, 3, 5, 90, 6)
	const threshold = 35
	psc := PSCConfig{
		NumPEs: 8, SlotSize: 4, FIFODepth: 32,
		SubLen: ix0.SubLen(), Threshold: threshold, Matrix: matrix.BLOSUM62,
	}
	var modelCycles uint64
	var microCycles uint64
	var records int
	space := ix0.Model().KeySpace()
	op, err := NewOperator(psc)
	if err != nil {
		t.Fatal(err)
	}
	subLen := ix0.SubLen()
	for k := 0; k < space; k++ {
		il0, hood0 := ix0.Bucket(uint32(k))
		il1, hood1 := ix1.Bucket(uint32(k))
		if len(il0) == 0 || len(il1) == 0 {
			continue
		}
		for base := 0; base < len(il0); base += psc.NumPEs {
			n := min(psc.NumPEs, len(il0)-base)
			modelCycles += psc.PassCycles(n, len(il1))
			subs := make([][]byte, n)
			for i := 0; i < n; i++ {
				subs[i] = hood0[(base+i)*subLen : (base+i+1)*subLen]
			}
			before := op.Cycles()
			if err := op.LoadIL0(subs); err != nil {
				t.Fatal(err)
			}
			recs, err := op.StreamIL1(hood1, len(il1))
			if err != nil {
				t.Fatal(err)
			}
			records += len(recs)
			microCycles += op.Cycles() - before
		}
	}
	if microCycles == 0 {
		t.Fatal("no work simulated")
	}
	// Micro can only exceed the model by cascade-drain tails and stalls.
	slack := uint64(records+1)*uint64(psc.NumSlots()+2) + op.StallCycles()
	if microCycles < modelCycles || microCycles > modelCycles+slack {
		t.Errorf("micro=%d model=%d slack=%d", microCycles, modelCycles, slack)
	}
}

// denseIndexes builds indexes over a tiny key space (width-1 seed) so
// IL0 buckets overfill even a 192-PE array, as the paper's large banks do.
func denseIndexes(t testing.TB, n0Seqs, n1Seqs, seqLen, n int) (*index.Index, *index.Index) {
	t.Helper()
	rng := bank.NewRNG(32)
	b0 := bank.New("d0")
	b1 := bank.New("d1")
	for i := 0; i < n0Seqs; i++ {
		b0.Add(string(rune('a'+i)), bank.RandomProtein(rng, seqLen))
	}
	for i := 0; i < n1Seqs; i++ {
		b1.Add(string(rune('A'+i)), bank.RandomProtein(rng, seqLen))
	}
	model := seed.Exact(1)
	ix0, err := index.Build(b0, model, n)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, model, n)
	if err != nil {
		t.Fatal(err)
	}
	return ix0, ix1
}

func TestDeviceMorePEsFewerCycles(t *testing.T) {
	// IL0 buckets of ~600 entries: a larger array means fewer passes,
	// so compute time must fall as PEs grow (Table 4's trend).
	ix0, ix1 := denseIndexes(t, 40, 10, 300, 8)
	var prev float64
	for i, pes := range []int{16, 64, 192} {
		d := deviceFor(t, ix0, pes, 1, 20)
		rep, err := d.RunStep2(ix0, ix1)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && rep.ComputeSeconds >= prev {
			t.Errorf("%d PEs not faster than previous (%.6f vs %.6f)",
				pes, rep.ComputeSeconds, prev)
		}
		prev = rep.ComputeSeconds
	}
}

func TestDeviceSmallBucketsDoNotBenefitFromMorePEs(t *testing.T) {
	// The subset-seed key space spreads a small bank so thin that no
	// bucket fills even 16 PEs: adding PEs cannot help — the effect the
	// paper reports for small protein banks in Table 2.
	ix0, ix1 := testIndexes(t, 8, 10, 200, 8)
	d16 := deviceFor(t, ix0, 16, 1, 20)
	d192 := deviceFor(t, ix0, 192, 1, 20)
	r16, err := d16.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	r192, err := d192.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	if r192.ComputeSeconds != r16.ComputeSeconds {
		t.Errorf("under-filled array should not speed up: %.6f vs %.6f",
			r192.ComputeSeconds, r16.ComputeSeconds)
	}
}

func TestDeviceTwoFPGAsFaster(t *testing.T) {
	ix0, ix1 := testIndexes(t, 10, 12, 200, 8)
	d1 := deviceFor(t, ix0, 192, 1, 20)
	d2 := deviceFor(t, ix0, 192, 2, 20)
	r1, err := d1.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ComputeSeconds >= r1.ComputeSeconds {
		t.Errorf("2 FPGAs compute %.6fs, 1 FPGA %.6fs", r2.ComputeSeconds, r1.ComputeSeconds)
	}
	speedup := r1.Seconds / r2.Seconds
	if speedup <= 1.0 || speedup > 2.0 {
		t.Errorf("2-FPGA speedup %.2f outside (1, 2]", speedup)
	}
}

func TestDeviceUtilizationBounds(t *testing.T) {
	ix0, ix1 := testIndexes(t, 4, 6, 150, 8)
	d := deviceFor(t, ix0, 192, 1, 20)
	rep, err := d.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Errorf("utilization %.3f outside (0,1]", rep.Utilization)
	}
	// Small buckets + huge array ⇒ low utilization; a small array on
	// the same workload must be utilised better.
	dSmall := deviceFor(t, ix0, 8, 1, 20)
	repSmall, err := dSmall.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	if repSmall.Utilization <= rep.Utilization {
		t.Errorf("8-PE utilization %.3f should exceed 192-PE %.3f",
			repSmall.Utilization, rep.Utilization)
	}
}

func TestDeviceDMATrafficScalesWithThreshold(t *testing.T) {
	// Raising the threshold reports fewer records without reducing
	// computation — the paper's Table 3 mitigation.
	ix0, ix1 := testIndexes(t, 6, 8, 150, 8)
	dLow := deviceFor(t, ix0, 64, 1, 18)
	dHigh := deviceFor(t, ix0, 64, 1, 40)
	low, err := dLow.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := dHigh.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	if low.Pairs != high.Pairs {
		t.Errorf("threshold changed the amount of computation: %d vs %d", low.Pairs, high.Pairs)
	}
	if high.Records >= low.Records {
		t.Errorf("higher threshold should report fewer records: %d vs %d",
			high.Records, low.Records)
	}
	if high.BytesFromDev >= low.BytesFromDev {
		t.Errorf("result traffic did not drop: %d vs %d", high.BytesFromDev, low.BytesFromDev)
	}
}

func TestDeviceValidation(t *testing.T) {
	psc := DefaultPSC(matrix.BLOSUM62, 32, 20)
	cfg := DefaultDevice(psc)
	cfg.NumFPGAs = 3
	if _, err := NewDevice(cfg); err == nil {
		t.Error("3 FPGAs accepted (RASC-100 has 2)")
	}
	cfg = DefaultDevice(psc)
	cfg.ClockHz = 0
	if _, err := NewDevice(cfg); err == nil {
		t.Error("zero clock accepted")
	}
	cfg = DefaultDevice(psc)
	cfg.DMABandwidth = 0
	if _, err := NewDevice(cfg); err == nil {
		t.Error("zero bandwidth accepted")
	}
	// SubLen mismatch against the index.
	ix0, ix1 := testIndexes(t, 2, 2, 60, 4)
	d, err := NewDevice(DefaultDevice(DefaultPSC(matrix.BLOSUM62, ix0.SubLen()+2, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunStep2(ix0, ix1); err == nil {
		t.Error("SubLen mismatch accepted")
	}
}

func TestSplitByWorkBalances(t *testing.T) {
	ix0, ix1 := testIndexes(t, 6, 8, 150, 6)
	ranges := splitByWork(ix0, ix1, ix0.Model().KeySpace(), 2)
	if len(ranges) != 2 {
		t.Fatalf("ranges = %d", len(ranges))
	}
	if ranges[0][1] != ranges[1][0] || ranges[0][0] != 0 {
		t.Errorf("ranges not contiguous: %v", ranges)
	}
	work := func(lo, hi uint32) int64 {
		var w int64
		for k := lo; k < hi; k++ {
			w += int64(ix0.BucketLen(k)) * int64(ix1.BucketLen(k))
		}
		return w
	}
	w0 := work(ranges[0][0], ranges[0][1])
	w1 := work(ranges[1][0], ranges[1][1])
	total := w0 + w1
	if total == 0 {
		t.Skip("no overlap in workload")
	}
	if w0 < total/4 || w1 < total/4 {
		t.Errorf("imbalanced split: %d vs %d", w0, w1)
	}
}

func TestSRAMStagingReducesTraffic(t *testing.T) {
	// A workload with multi-pass buckets: SRAM staging must cut IL1
	// re-streaming, without changing cycles or results.
	ix0, ix1 := denseIndexes(t, 40, 10, 300, 8) // buckets ≫ 8 PEs
	psc := DefaultPSC(matrix.BLOSUM62, ix0.SubLen(), 20)
	psc.NumPEs = 8

	withSRAM := DefaultDevice(psc)
	noSRAM := DefaultDevice(psc)
	noSRAM.SRAMBytes = 0

	dS, err := NewDevice(withSRAM)
	if err != nil {
		t.Fatal(err)
	}
	dN, err := NewDevice(noSRAM)
	if err != nil {
		t.Fatal(err)
	}
	rS, err := dS.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	rN, err := dN.RunStep2(ix0, ix1)
	if err != nil {
		t.Fatal(err)
	}
	if rS.BytesToDevice >= rN.BytesToDevice {
		t.Errorf("SRAM staging did not reduce traffic: %d vs %d",
			rS.BytesToDevice, rN.BytesToDevice)
	}
	if rS.CyclesPerFPGA[0] != rN.CyclesPerFPGA[0] {
		t.Error("SRAM staging changed compute cycles")
	}
	if len(rS.Hits) != len(rN.Hits) {
		t.Error("SRAM staging changed functional results")
	}
}

func TestSRAMTooSmallFallsBackToStreaming(t *testing.T) {
	ix0, ix1 := denseIndexes(t, 40, 10, 300, 8)
	psc := DefaultPSC(matrix.BLOSUM62, ix0.SubLen(), 20)
	psc.NumPEs = 8
	tiny := DefaultDevice(psc)
	tiny.SRAMBytes = 16 // smaller than any IL1 stream
	none := DefaultDevice(psc)
	none.SRAMBytes = 0
	dT, err := NewDevice(tiny)
	if err != nil {
		t.Fatal(err)
	}
	dN, err := NewDevice(none)
	if err != nil {
		t.Fatal(err)
	}
	rT, err := dT.EstimateStep2(ix0, ix1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rN, err := dN.EstimateStep2(ix0, ix1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rT.BytesToDevice != rN.BytesToDevice {
		t.Errorf("undersized SRAM should behave like none: %d vs %d",
			rT.BytesToDevice, rN.BytesToDevice)
	}
}

func TestDeviceValidationSRAM(t *testing.T) {
	psc := DefaultPSC(matrix.BLOSUM62, 32, 20)
	cfg := DefaultDevice(psc)
	cfg.SRAMBytes = -1
	if _, err := NewDevice(cfg); err == nil {
		t.Error("negative SRAM accepted")
	}
}

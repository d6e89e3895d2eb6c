package experiments

import (
	"strings"
	"testing"
)

// measured caches one Tiny() measurement for all table tests.
var measured *Measurements

func getMeasurements(t *testing.T) *Measurements {
	t.Helper()
	if measured != nil {
		return measured
	}
	w, err := NewWorkload(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Measure(w, MeasureOptions{WithBlast: true})
	if err != nil {
		t.Fatal(err)
	}
	measured = ms
	return ms
}

func TestByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "paper"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, s.Name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestScalesWellFormed(t *testing.T) {
	for _, s := range []Scale{Tiny(), Small(), Medium(), Paper()} {
		if len(s.BankSizes) < 2 || s.GenomeLen <= 0 || s.SeedModel == nil {
			t.Errorf("scale %s malformed: %+v", s.Name, s)
		}
		for i := 1; i < len(s.BankSizes); i++ {
			if s.BankSizes[i] <= s.BankSizes[i-1] {
				t.Errorf("scale %s: bank sizes not increasing", s.Name)
			}
		}
	}
	// The paper scale must carry the original sizes.
	p := Paper()
	if p.BankSizes[3] != 30000 || p.GenomeLen != 220_000_000 {
		t.Error("paper scale does not match the paper")
	}
}

func TestWorkloadNested(t *testing.T) {
	ms := getMeasurements(t)
	w := ms.Workload
	if len(w.Banks) != len(w.Scale.BankSizes) {
		t.Fatalf("banks = %d", len(w.Banks))
	}
	// Nested: smaller bank is a prefix of the larger.
	small, large := w.Banks[0], w.Banks[1]
	for i := 0; i < small.Len(); i++ {
		if string(small.Seq(i)) != string(large.Seq(i)) {
			t.Fatal("banks are not nested")
		}
	}
	if w.Frames.Len() != 6 {
		t.Errorf("frame bank has %d sequences", w.Frames.Len())
	}
}

func TestMeasureBasicInvariants(t *testing.T) {
	ms := getMeasurements(t)
	if len(ms.Banks) != len(ms.Workload.Banks) {
		t.Fatal("missing bank measurements")
	}
	for i, m := range ms.Banks {
		if m.Step1Sec <= 0 || m.Step2SeqSec <= 0 {
			t.Errorf("bank %d: non-positive step times %+v", i, m)
		}
		if m.Pairs <= 0 {
			t.Errorf("bank %d: no pairs scored", i)
		}
		if m.BlastSec <= 0 {
			t.Errorf("bank %d: baseline not measured", i)
		}
		for pes, dt := range m.Device {
			if dt.Seconds <= 0 {
				t.Errorf("bank %d: device %dPE zero time", i, pes)
			}
		}
		// Larger banks strictly more work.
		if i > 0 && m.Pairs <= ms.Banks[i-1].Pairs {
			t.Errorf("bank %d pairs %d not greater than previous %d",
				i, m.Pairs, ms.Banks[i-1].Pairs)
		}
	}
}

func TestTable1Step2Dominates(t *testing.T) {
	ms := getMeasurements(t)
	t1 := RunTable1(ms)
	if t1.Fractions[1] < 0.5 {
		t.Errorf("step 2 share %.2f; the paper's critical section must dominate", t1.Fractions[1])
	}
	sum := t1.Fractions[0] + t1.Fractions[1] + t1.Fractions[2]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %f", sum)
	}
	if !strings.Contains(t1.Format(), "Table 1") {
		t.Error("format missing title")
	}
}

func TestTable2SpeedupGrowsWithPEs(t *testing.T) {
	ms := getMeasurements(t)
	rows := RunTable2(ms)
	if len(rows) != len(ms.Banks) {
		t.Fatal("row count")
	}
	for _, r := range rows {
		// RASC time decreases (weakly) as PEs grow.
		for i := 1; i < len(ms.PECounts); i++ {
			lo, hi := ms.PECounts[i-1], ms.PECounts[i]
			if r.RASC[hi] > r.RASC[lo]*1.001 {
				t.Errorf("%s: RASC %dPE slower than %dPE (%.4f vs %.4f)",
					r.BankName, hi, lo, r.RASC[hi], r.RASC[lo])
			}
		}
	}
	out := FormatTable2(rows, ms.PECounts)
	if !strings.Contains(out, "speedup") {
		t.Error("format missing speedup column")
	}
}

func TestTable3TwoFPGAsBounded(t *testing.T) {
	ms := getMeasurements(t)
	rows := RunTable3(ms)
	for _, r := range rows {
		if r.Speedup <= 0.99 || r.Speedup > 2.01 {
			t.Errorf("%s: 2-FPGA speedup %.2f outside (1,2]", r.BankName, r.Speedup)
		}
	}
	if !strings.Contains(FormatTable3(rows), "2 FPGAs") {
		t.Error("format wrong")
	}
}

func TestTable4SpeedupsPositiveAndOrdered(t *testing.T) {
	ms := getMeasurements(t)
	rows := RunTable4(ms)
	for _, r := range rows {
		prev := 0.0
		for _, pes := range ms.PECounts {
			if r.Speedup[pes] <= 0 {
				t.Errorf("%s: non-positive speedup at %d PE", r.BankName, pes)
			}
			if r.Speedup[pes] < prev*0.999 {
				t.Errorf("%s: speedup fell from %.1f to %.1f with more PEs",
					r.BankName, prev, r.Speedup[pes])
			}
			prev = r.Speedup[pes]
		}
	}
	// The paper's key trend: larger banks use the array better, so the
	// largest bank's 192-PE speedup must exceed the smallest bank's.
	big := rows[len(rows)-1].Speedup[ms.PECounts[len(ms.PECounts)-1]]
	small := rows[0].Speedup[ms.PECounts[len(ms.PECounts)-1]]
	if big <= small {
		t.Errorf("largest bank speedup %.1f not above smallest bank %.1f", big, small)
	}
	if !strings.Contains(FormatTable4(rows, ms.PECounts), "step 2 only") {
		t.Error("format wrong")
	}
}

func TestTable5IncludesPaperRowsAndOurs(t *testing.T) {
	ms := getMeasurements(t)
	rows := RunTable5(ms)
	if len(rows) != 6 {
		t.Fatalf("Table 5 rows = %d, want 5 paper + 1 ours", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Value <= 0 {
		t.Error("our throughput not positive")
	}
	if !strings.Contains(FormatTable5(rows), "RASC-100") {
		t.Error("format wrong")
	}
}

func TestTable7ProfileShiftsToStep3(t *testing.T) {
	ms := getMeasurements(t)
	t1 := RunTable1(ms)
	rows := RunTable7(ms)
	last := rows[len(rows)-1]
	// On the accelerator, step 2's share must collapse relative to the
	// software profile.
	if last.Fractions[1] >= t1.Fractions[1] {
		t.Errorf("step-2 share did not shrink: %.2f vs software %.2f",
			last.Fractions[1], t1.Fractions[1])
	}
	sum := last.Fractions[0] + last.Fractions[1] + last.Fractions[2]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %f", sum)
	}
	if !strings.Contains(FormatTable7(rows), "step 3") {
		t.Error("format wrong")
	}
}

func TestTable6QualityClose(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity benchmark in -short mode")
	}
	cfg := DefaultTable6Config()
	cfg.Family.Families = 8
	cfg.Family.DecoyGenes = 40
	res, err := RunTable6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RASCROC50 <= 0 || res.BlastROC50 <= 0 {
		t.Fatalf("degenerate ROC50: %+v", res)
	}
	// The engines must be in the same quality region (paper: 0.468 vs
	// 0.479). Allow a generous band for the synthetic benchmark.
	if diff := res.RASCROC50 - res.BlastROC50; diff > 0.25 || diff < -0.25 {
		t.Errorf("ROC50 diverges: %+v", res)
	}
	if diff := res.RASCAPMean - res.BlastAPMean; diff > 0.25 || diff < -0.25 {
		t.Errorf("AP diverges: %+v", res)
	}
	if !strings.Contains(res.Format(), "ROC50") {
		t.Error("format wrong")
	}
}

func TestFutureWorkProjection(t *testing.T) {
	ms := getMeasurements(t)
	rows, err := RunFutureWork(ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ms.Banks) {
		t.Fatal("row count")
	}
	for _, r := range rows {
		if r.DualSec <= 0 || r.PaperSec <= 0 {
			t.Errorf("%s: non-positive times %+v", r.BankName, r)
		}
		if r.DualSec > r.PaperSec*1.0001 {
			t.Errorf("%s: dual-FPGA config slower than the paper config", r.BankName)
		}
		if r.Projection < 1 {
			t.Errorf("%s: projection %f < 1", r.BankName, r.Projection)
		}
	}
	if !strings.Contains(FormatFutureWork(rows), "gap-extension operator") {
		t.Error("format wrong")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a, err := NewWorkload(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkload(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Genome) != string(b.Genome) {
		t.Error("same scale produced different genomes")
	}
	for i := range a.Banks {
		if a.Banks[i].TotalResidues() != b.Banks[i].TotalResidues() {
			t.Error("same scale produced different banks")
		}
	}
}

func TestNewWorkloadRejectsEmptyScale(t *testing.T) {
	if _, err := NewWorkload(Scale{}); err == nil {
		t.Error("empty scale accepted")
	}
}

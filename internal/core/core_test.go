package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/translate"
)

// plantedWorkload builds a protein bank and a genome containing mutated
// copies of some of its proteins.
func plantedWorkload(t *testing.T, nProteins, genomeLen, plants int) (*bank.Bank, []byte, []bank.PlantedGene) {
	t.Helper()
	proteins := bank.GenerateProteins(bank.ProteinConfig{
		N: nProteins, MeanLen: 120, LenJitter: 20, Seed: 41,
	})
	genome, genes, err := bank.GenerateGenome(bank.GenomeConfig{
		Length:       genomeLen,
		Source:       proteins,
		PlantCount:   plants,
		PlantSubRate: 0.15,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(genes) == 0 {
		t.Fatal("no genes planted")
	}
	return proteins, genome, genes
}

func TestCompareGenomeFindsPlantedGenes(t *testing.T) {
	proteins, genome, genes := plantedWorkload(t, 10, 60_000, 6)
	res, err := searchGenome(proteins, genome, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches for planted genes")
	}
	// Every planted gene must be recovered by a match of the right
	// protein overlapping the right interval.
	for gi, g := range genes {
		found := false
		for _, m := range res.Matches {
			if m.Query.Seq != g.ProteinIdx {
				continue
			}
			lo := max(m.Subject.NucStart, g.Start)
			hi := min(m.Subject.NucEnd, g.Start+g.NucLen)
			if hi-lo >= g.NucLen/2 {
				found = true
				if m.Subject.Frame != g.Frame {
					t.Errorf("gene %d found in frame %s, planted in %s", gi, m.Subject.Frame, g.Frame)
				}
				break
			}
		}
		if !found {
			t.Errorf("planted gene %d (protein %d at %d, frame %s) not recovered",
				gi, g.ProteinIdx, g.Start, g.Frame)
		}
	}
}

func TestCompareEnginesBitIdentical(t *testing.T) {
	proteins, genome, _ := plantedWorkload(t, 8, 40_000, 4)
	frames := translate.SixFrames(genome)
	fbank := bank.New("frames")
	for _, ft := range frames {
		fbank.Add(ft.Frame.String(), ft.Protein)
	}

	optCPU := DefaultOptions()
	cpu, err := searchBanks(proteins, fbank, optCPU)
	if err != nil {
		t.Fatal(err)
	}
	for _, fpgas := range []int{1, 2} {
		optR := DefaultOptions()
		optR.Engine = EngineRASC
		optR.RASC.NumFPGAs = fpgas
		rasc, err := searchBanks(proteins, fbank, optR)
		if err != nil {
			t.Fatal(err)
		}
		if rasc.Hits != cpu.Hits || rasc.Pairs != cpu.Pairs {
			t.Fatalf("fpgas=%d: hits/pairs %d/%d, want %d/%d",
				fpgas, rasc.Hits, rasc.Pairs, cpu.Hits, cpu.Pairs)
		}
		if len(rasc.Alignments) != len(cpu.Alignments) {
			t.Fatalf("fpgas=%d: %d alignments, want %d",
				fpgas, len(rasc.Alignments), len(cpu.Alignments))
		}
		for i := range rasc.Alignments {
			a, b := rasc.Alignments[i], cpu.Alignments[i]
			if a.Seq0 != b.Seq0 || a.Seq1 != b.Seq1 || a.Score != b.Score ||
				a.Q != b.Q || a.S != b.S {
				t.Fatalf("fpgas=%d: alignment %d differs: %+v vs %+v", fpgas, i, a, b)
			}
		}
	}
}

func TestCompareTimesPopulated(t *testing.T) {
	proteins, genome, _ := plantedWorkload(t, 6, 30_000, 3)
	res, err := searchGenome(proteins, genome, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Times.Index <= 0 || res.Times.Ungapped <= 0 {
		t.Errorf("missing step times: %+v", res.Times)
	}
	if res.Times.Total() < res.Times.Index {
		t.Error("Total less than a component")
	}
	fr := res.Times.Fractions()
	sum := fr[0] + fr[1] + fr[2]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %f", sum)
	}
}

func TestCompareRASCReportsSimulatedTime(t *testing.T) {
	proteins, genome, _ := plantedWorkload(t, 6, 30_000, 3)
	opt := DefaultOptions()
	opt.Engine = EngineRASC
	res, err := searchGenome(proteins, genome, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Device == nil {
		t.Fatal("RASC engine must attach a device report")
	}
	wantDur := time.Duration(res.Device.Seconds * float64(time.Second))
	if res.Times.Ungapped != wantDur {
		t.Errorf("Ungapped time %v, want simulated %v", res.Times.Ungapped, wantDur)
	}
	if res.Device.Pairs != res.Pairs {
		t.Error("device pairs disagree with result")
	}
}

func TestGenomeMatchCoordinates(t *testing.T) {
	proteins, genome, _ := plantedWorkload(t, 6, 30_000, 4)
	res, err := searchGenome(proteins, genome, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		l := m.Subject
		if l.NucStart < 0 || l.NucEnd > len(genome) || l.NucStart >= l.NucEnd {
			t.Errorf("bad nucleotide interval [%d,%d)", l.NucStart, l.NucEnd)
		}
		if (l.NucEnd-l.NucStart)%3 != 0 {
			t.Errorf("interval length %d not a codon multiple", l.NucEnd-l.NucStart)
		}
		if (l.NucEnd-l.NucStart)/3 != m.S.Len() {
			t.Errorf("interval %d codons vs span %d residues",
				(l.NucEnd-l.NucStart)/3, m.S.Len())
		}
		if !l.Frame.Valid() {
			t.Errorf("invalid frame %d", l.Frame)
		}
	}
}

func TestCompareValidation(t *testing.T) {
	b := bank.GenerateProteins(bank.ProteinConfig{N: 2, Seed: 1})
	var opt Options // zero: invalid
	if _, err := searchBanks(b, b, opt); err == nil {
		t.Error("zero options accepted")
	}
	opt = DefaultOptions()
	opt.N = -1
	if _, err := searchBanks(b, b, opt); err == nil {
		t.Error("negative N accepted")
	}
	opt = DefaultOptions()
	opt.Engine = Engine(99)
	if _, err := searchBanks(b, b, opt); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestEngineString(t *testing.T) {
	if EngineCPU.String() != "cpu" || EngineRASC.String() != "rasc" {
		t.Error("engine names wrong")
	}
	if Engine(9).String() == "" {
		t.Error("unknown engine should still format")
	}
	// ParseEngine is String's inverse; "" is the wire default.
	for _, e := range []Engine{EngineCPU, EngineRASC} {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if got, err := ParseEngine(""); err != nil || got != EngineCPU {
		t.Errorf("ParseEngine(\"\") = %v, %v", got, err)
	}
	// An unknown name, and the retired "multi", fail naming the engines
	// that exist.
	for _, name := range []string{"gpu", "multi"} {
		_, err := ParseEngine(name)
		if err == nil || !strings.Contains(err.Error(), "cpu") || !strings.Contains(err.Error(), "rasc") {
			t.Errorf("ParseEngine(%q) error = %v, want one naming cpu and rasc", name, err)
		}
	}
}

// TestStepTimesDerivedFromMetrics: Summary.Times is derived from the
// engine's Metrics and the device reports, at one and four shards, on
// both engines, with and without the offloaded gap operator (which
// only the RASC engine carries).
func TestStepTimesDerivedFromMetrics(t *testing.T) {
	proteins, genome, _ := plantedWorkload(t, 8, 30_000, 3)
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	for _, eng := range []Engine{EngineCPU, EngineRASC} {
		for _, shards := range []int{1, 4} {
			for _, offload := range []bool{false, true} {
				name := fmt.Sprintf("%s/shards=%d/offload=%t", eng, shards, offload)
				opt := DefaultOptions()
				opt.Engine = eng
				opt.RASC.OffloadGapped = offload
				if shards > 1 {
					opt.Pipeline.ShardSize = proteins.Len() / shards
				}
				res, err := searchGenome(proteins, genome, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				pm := res.Pipeline
				if pm.Shards != shards || pm.Index.Busy <= 0 || pm.Step2.Busy <= 0 || pm.Step3.Busy <= 0 {
					t.Fatalf("%s: engine metrics %+v, want %d shards and every step timed", name, pm, shards)
				}
				want := StepTimes{Index: pm.Index.Busy, Ungapped: pm.Step2.Busy, Gapped: pm.Step3.Busy}
				if eng == EngineRASC {
					if res.Device == nil {
						t.Fatalf("%s: no device report", name)
					}
					want.Ungapped = sec(res.Device.Seconds)
					if offload {
						if res.GapDevice == nil {
							t.Fatalf("%s: no gap-operator report", name)
						}
						want.Gapped = sec(res.GapDevice.Seconds)
					}
				}
				if res.Times != want {
					t.Errorf("%s: Times %+v, want %+v", name, res.Times, want)
				}
				if got := res.GapDevice != nil; got != (eng == EngineRASC && offload) {
					t.Errorf("%s: gap-operator report present = %t", name, got)
				}
			}
		}
	}
}

func TestStepTimesZero(t *testing.T) {
	var st StepTimes
	if st.Fractions() != [3]float64{} {
		t.Error("zero times should give zero fractions")
	}
}

func TestCompareOffloadGapped(t *testing.T) {
	proteins, genome, _ := plantedWorkload(t, 6, 30_000, 3)
	optCPU := DefaultOptions()
	cpu, err := searchGenome(proteins, genome, optCPU)
	if err != nil {
		t.Fatal(err)
	}

	opt := DefaultOptions()
	opt.Engine = EngineRASC
	opt.RASC.OffloadGapped = true
	res, err := searchGenome(proteins, genome, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.GapDevice == nil {
		t.Fatal("OffloadGapped must attach a gap-operator report")
	}
	wantDur := time.Duration(res.GapDevice.Seconds * float64(time.Second))
	if res.Times.Gapped != wantDur {
		t.Errorf("Gapped time %v, want simulated %v", res.Times.Gapped, wantDur)
	}
	// Functional results stay identical to the CPU pipeline.
	if len(res.Matches) != len(cpu.Matches) {
		t.Fatalf("offload changed results: %d vs %d matches",
			len(res.Matches), len(cpu.Matches))
	}
	for i := range res.Matches {
		if res.Matches[i].Score != cpu.Matches[i].Score ||
			res.Matches[i].Subject.NucStart != cpu.Matches[i].Subject.NucStart {
			t.Fatal("offload changed alignment content")
		}
	}
	// The gap operator only times the DPs the host actually ran.
	if res.GapDevice.Tasks != res.GappedWork.Extended {
		t.Errorf("gap tasks %d != extended DPs %d",
			res.GapDevice.Tasks, res.GappedWork.Extended)
	}
}

func TestGappedWorkStatsPopulated(t *testing.T) {
	proteins, genome, _ := plantedWorkload(t, 8, 40_000, 4)
	res, err := searchGenome(proteins, genome, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := res.GappedWork
	if st.Hits != res.Hits {
		t.Errorf("stats hits %d != result hits %d", st.Hits, res.Hits)
	}
	if st.Extended == 0 {
		t.Error("no DPs recorded despite matches found")
	}
	if st.Extended+st.Contained+st.PreFiltered > st.Hits {
		t.Errorf("stats exceed hit count: %+v", st)
	}
	if st.DPRows <= 0 || st.DPCells < st.DPRows {
		t.Errorf("DP volume inconsistent: %+v", st)
	}
}

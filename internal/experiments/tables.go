package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"seedblast/internal/bank"
	"seedblast/internal/blast"
	"seedblast/internal/core"
	"seedblast/internal/metrics"
	"seedblast/internal/perfmodel"
)

// Table1 reproduces Table 1: the percentage of time spent in the three
// steps of the *software* pipeline (the paper reports 0.3/97/2.7 for
// 30K proteins vs Human chr 1). The measurement uses the largest bank.
type Table1 struct {
	BankName  string
	StepSecs  [3]float64
	Fractions [3]float64
}

// RunTable1 extracts the software profile from the measurements.
func RunTable1(ms *Measurements) Table1 {
	m := ms.Banks[len(ms.Banks)-1]
	t := Table1{
		BankName: m.BankName(),
		StepSecs: [3]float64{m.Step1Sec, m.Step2SeqSec, m.Step3Sec},
	}
	tot := m.SoftwareTotalSec()
	if tot > 0 {
		for i, s := range t.StepSecs {
			t.Fractions[i] = s / tot
		}
	}
	return t
}

// Format renders the table.
func (t Table1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: %% of time in the software pipeline steps (%s)\n", t.BankName)
	fmt.Fprintf(&b, "%-8s %-8s %-8s\n", "step 1", "step 2", "step 3")
	fmt.Fprintf(&b, "%-8s %-8s %-8s\n",
		pct(t.Fractions[0]), pct(t.Fractions[1]), pct(t.Fractions[2]))
	fmt.Fprintf(&b, "(paper: 0.3%%   97%%   2.7%%)\n")
	return b.String()
}

// Table2Row is one bank of Table 2: overall times and speedups.
type Table2Row struct {
	BankName string
	BlastSec float64
	RASC     map[int]float64 // PE count → seconds
	Speedup  map[int]float64
}

// RunTable2 reproduces Table 2: NCBI-style baseline vs the RASC
// pipeline at each PE count; speedup = baseline / RASC.
func RunTable2(ms *Measurements) []Table2Row {
	var rows []Table2Row
	for _, m := range ms.Banks {
		row := Table2Row{
			BankName: m.BankName(),
			BlastSec: m.BlastSec,
			RASC:     map[int]float64{},
			Speedup:  map[int]float64{},
		}
		for _, pes := range ms.PECounts {
			total := m.RASCTotalSec(pes)
			row.RASC[pes] = total
			if total > 0 && m.BlastSec > 0 {
				row.Speedup[pes] = m.BlastSec / total
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row, peCounts []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: overall performance, baseline vs RASC pipeline (seconds)\n")
	fmt.Fprintf(&b, "%-10s %12s", "bank", "baseline")
	for _, p := range peCounts {
		fmt.Fprintf(&b, " %10s %8s", fmt.Sprintf("RASC %dPE", p), "speedup")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.2f", r.BankName, r.BlastSec)
		for _, p := range peCounts {
			fmt.Fprintf(&b, " %10.2f %8.2f", r.RASC[p], r.Speedup[p])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(paper, 30K bank: 70891s vs 3667s at 192 PE ⇒ 19.33×)\n")
	return b.String()
}

// Table3Row is one bank of Table 3: 1 vs 2 FPGAs at 192 PE with the
// raised threshold.
type Table3Row struct {
	BankName   string
	OneFPGASec float64
	TwoFPGASec float64
	Speedup    float64
}

// RunTable3 reproduces Table 3.
func RunTable3(ms *Measurements) []Table3Row {
	pes := ms.PECounts[len(ms.PECounts)-1]
	var rows []Table3Row
	for _, m := range ms.Banks {
		one := m.OneFPGARaised[pes].Seconds
		two := m.TwoFPGA[pes].Seconds
		row := Table3Row{
			BankName:   m.BankName(),
			OneFPGASec: one,
			TwoFPGASec: two,
		}
		if two > 0 {
			row.Speedup = one / two
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: 1 FPGA vs 2 FPGAs, 192 PE, raised threshold (step-2 seconds)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %8s\n", "bank", "1 FPGA", "2 FPGAs", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.3f %10.3f %8.2f\n",
			r.BankName, r.OneFPGASec, r.TwoFPGASec, r.Speedup)
	}
	fmt.Fprintf(&b, "(paper, 30K bank: 1373s vs 759s ⇒ 1.80×)\n")
	return b.String()
}

// Table4Row is one bank of Table 4: step 2 only.
type Table4Row struct {
	BankName string
	SeqSec   float64
	Device   map[int]float64
	Speedup  map[int]float64
}

// RunTable4 reproduces Table 4: sequential step-2 time vs the
// accelerator at each PE count.
func RunTable4(ms *Measurements) []Table4Row {
	var rows []Table4Row
	for _, m := range ms.Banks {
		row := Table4Row{
			BankName: m.BankName(),
			SeqSec:   m.Step2SeqSec,
			Device:   map[int]float64{},
			Speedup:  map[int]float64{},
		}
		for _, pes := range ms.PECounts {
			row.Device[pes] = m.Device[pes].Seconds
			if row.Device[pes] > 0 {
				row.Speedup[pes] = m.Step2SeqSec / row.Device[pes]
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []Table4Row, peCounts []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: step 2 only, sequential vs PE array (seconds)\n")
	fmt.Fprintf(&b, "%-10s %12s", "bank", "sequential")
	for _, p := range peCounts {
		fmt.Fprintf(&b, " %10s %8s", fmt.Sprintf("%d PE", p), "speedup")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.2f", r.BankName, r.SeqSec)
		for _, p := range peCounts {
			fmt.Fprintf(&b, " %10.3f %8.1f", r.Device[p], r.Speedup[p])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(paper, 30K bank: 73492s sequential, 53.5× at 192 PE)\n")
	return b.String()
}

// Table5Row is one implementation's throughput.
type Table5Row = perfmodel.Comparator

// RunTable5 reproduces Table 5: literature constants plus this
// reproduction's measured throughput (largest bank, largest PE count,
// full pipeline time).
func RunTable5(ms *Measurements) []Table5Row {
	rows := append([]Table5Row(nil), perfmodel.PaperComparators...)
	m := ms.Banks[len(ms.Banks)-1]
	pes := ms.PECounts[len(ms.PECounts)-1]
	ours := perfmodel.KaaMntPerSec(m.Residues, ms.Workload.Scale.GenomeLen, m.RASCTotalSec(pes))
	rows = append(rows, Table5Row{
		Name:  "this repro (sim)",
		Value: ours,
		Note: fmt.Sprintf("simulated: %s bank vs %.1f Mnt genome, %d PE",
			m.BankName(), float64(ms.Workload.Scale.GenomeLen)/1e6, pes),
	})
	return rows
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Kaa×Mnt processed per second\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.1f   %s\n", r.Name, r.Value, r.Note)
	}
	return b.String()
}

// Table7Row is one bank of Table 7: the RASC pipeline profile.
type Table7Row struct {
	BankName  string
	Fractions [3]float64
}

// RunTable7 reproduces Table 7: per-step share of the RASC pipeline at
// the largest PE count, per bank.
func RunTable7(ms *Measurements) []Table7Row {
	pes := ms.PECounts[len(ms.PECounts)-1]
	var rows []Table7Row
	for _, m := range ms.Banks {
		steps := [3]float64{m.Step1Sec, m.Device[pes].Seconds, m.Step3Sec}
		tot := steps[0] + steps[1] + steps[2]
		row := Table7Row{BankName: m.BankName()}
		if tot > 0 {
			for i := range steps {
				row.Fractions[i] = steps[i] / tot
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable7 renders Table 7.
func FormatTable7(rows []Table7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: %% of time in the RASC pipeline steps (192 PE)\n")
	fmt.Fprintf(&b, "%-10s %-8s %-8s %-8s\n", "bank", "step 1", "step 2", "step 3")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s %-8s %-8s\n", r.BankName,
			pct(r.Fractions[0]), pct(r.Fractions[1]), pct(r.Fractions[2]))
	}
	fmt.Fprintf(&b, "(paper, 30K bank: 6%% / 37%% / 57%% — step 3 dominates)\n")
	return b.String()
}

// Table6 reproduces Table 6: ROC50 and AP-Mean of the seed pipeline
// ("FPGA-RASC") and the BLAST baseline on the family benchmark.
type Table6 struct {
	Queries     int
	RASCROC50   float64
	RASCAPMean  float64
	BlastROC50  float64
	BlastAPMean float64
}

// Table6Config parameterises the sensitivity benchmark.
type Table6Config struct {
	Family    bank.FamilyConfig
	MaxEValue float64 // relaxed so rankings contain false positives
	Threshold int     // ungapped threshold for the seed pipeline
}

// DefaultTable6Config returns the default sensitivity workload: 25
// families at 60% divergence (remote homologies, like the paper's
// yeast benchmark), rankings cut at E ≤ 10 so both engines see genuine
// false positives.
func DefaultTable6Config() Table6Config {
	return Table6Config{
		Family: bank.FamilyConfig{
			Families:         25,
			MembersPerFamily: 4,
			MemberLen:        200,
			Divergence:       0.65,
			DecoyGenes:       120,
			Seed:             606,
		},
		MaxEValue: 10,
		Threshold: 30,
	}
}

// sensitivityOptions are the options the sensitivity runs (Table 6,
// the prefilter sweep) share: the coarse subset seed, the config's
// threshold when set, and its E-value cut.
func sensitivityOptions(cfg Table6Config, extra ...core.Option) []core.Option {
	opts := []core.Option{core.WithSeed(reducedSeed()), core.WithMaxEValue(cfg.MaxEValue)}
	if cfg.Threshold > 0 {
		opts = append(opts, core.WithUngappedThreshold(cfg.Threshold))
	}
	return append(opts, extra...)
}

// RunTable6 runs both engines over the family benchmark and scores
// their rankings.
func RunTable6(cfg Table6Config) (*Table6, error) {
	fb, err := bank.GenerateFamilyBenchmark(cfg.Family)
	if err != nil {
		return nil, err
	}

	// Seed pipeline (functional results are engine-independent; CPU
	// engine used for speed). Sensitivity runs use the coarse subset
	// seed — the paper's subset-seed design [11] trades key-space size
	// for BLAST-level sensitivity — and a matching lower threshold.
	ms, _, err := search(core.NewProteinTarget(fb.Queries), core.NewGenomeTarget(fb.Genome, nil),
		sensitivityOptions(cfg)...)
	if err != nil {
		return nil, err
	}
	rascHits := make(map[int][]metrics.RankedHit)
	for _, m := range ms {
		q, g := m.Query.Seq, m.Subject
		rascHits[q] = append(rascHits[q], metrics.RankedHit{
			Score: float64(m.Score),
			True:  fb.TrueHit(fb.QueryFamily[q], g.NucStart, g.NucEnd-g.NucStart),
		})
	}

	// Baseline.
	bcfg := blast.DefaultConfig()
	bcfg.MaxEValue = cfg.MaxEValue
	bms, err := blast.SearchGenome(fb.Queries, fb.Genome, bcfg)
	if err != nil {
		return nil, err
	}
	blastHits := make(map[int][]metrics.RankedHit)
	for _, m := range bms {
		fam := fb.QueryFamily[m.Query]
		blastHits[m.Query] = append(blastHits[m.Query], metrics.RankedHit{
			Score: float64(m.Score),
			True:  fb.TrueHit(fam, m.NucStart, m.NucEnd-m.NucStart),
		})
	}

	out := &Table6{Queries: fb.Queries.Len()}
	out.RASCROC50, out.RASCAPMean = scoreRankings(rascHits, fb)
	out.BlastROC50, out.BlastAPMean = scoreRankings(blastHits, fb)
	return out, nil
}

func scoreRankings(perQuery map[int][]metrics.RankedHit, fb *bank.FamilyBenchmark) (roc, ap float64) {
	var rocs, aps []float64
	for q := 0; q < fb.Queries.Len(); q++ {
		hits := perQuery[q]
		metrics.SortByScore(hits)
		fam := fb.QueryFamily[q]
		rocs = append(rocs, metrics.ROC50(hits, fb.FamilySize(fam)))
		aps = append(aps, metrics.AveragePrecision(hits))
	}
	sort.Float64s(rocs) // deterministic summation order
	sort.Float64s(aps)
	return metrics.Mean(rocs), metrics.Mean(aps)
}

// Format renders Table 6.
func (t Table6) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: sensitivity and selectivity (%d queries)\n", t.Queries)
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "", "seed/RASC", "baseline")
	fmt.Fprintf(&b, "%-12s %10.3f %10.3f\n", "ROC50", t.RASCROC50, t.BlastROC50)
	fmt.Fprintf(&b, "%-12s %10.3f %10.3f\n", "AP-Mean", t.RASCAPMean, t.BlastAPMean)
	fmt.Fprintf(&b, "(paper: ROC50 0.468 vs 0.479, AP-Mean 0.447 vs 0.441 — near-equal quality)\n")
	return b.String()
}

func pct(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}

// search builds a Searcher from opts and drains one search.
func search(query, target core.Target, opts ...core.Option) ([]core.Match, *core.Summary, error) {
	s, err := core.NewSearcher(opts...)
	if err != nil {
		return nil, nil, err
	}
	res := s.Search(context.Background(), query, target)
	ms, err := res.Collect()
	if err != nil {
		return nil, nil, err
	}
	sum, err := res.Summary()
	return ms, sum, err
}

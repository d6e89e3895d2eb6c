package experiments

import (
	"fmt"
	"sort"
	"strings"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/metrics"
)

// PrefilterSweepRow is one maxCandidates cell of the sensitivity-vs-
// speed sweep: ranking quality (ROC50 / AP-Mean, same scoring as
// Table 6) against end-to-end wall time with the candidate prefilter
// cut at k (0 = exhaustive).
type PrefilterSweepRow struct {
	MaxCandidates int
	ROC50         float64
	APMean        float64
	Matches       int
	WallMS        float64
	SpeedupVsOff  float64
}

// PrefilterSweep is the table the sweep produces.
type PrefilterSweep struct {
	Queries  int
	Subjects int
	Rows     []PrefilterSweepRow
}

// RunPrefilterSweep measures the prefilter's speed/sensitivity trade
// on a blastp-style family benchmark: one query per family against a
// protein bank of planted family members plus unrelated decoys (the
// genome harness of Table 6 has only six frame-subjects, too few for
// a per-subject top-K cut to mean anything). Truth is family
// membership; rankings are scored exactly as Table 6 scores them.
// One subject target serves every row: its index is built by the
// first search and reused, and engine wall time never includes that
// build, so rows measure the per-request stages the cut shrinks.
func RunPrefilterSweep(cfg Table6Config, ks []int) (*PrefilterSweep, error) {
	fc := cfg.Family
	rng := bank.NewRNG(fc.Seed)
	queries := bank.New("queries")
	subjects := bank.New("subjects")
	var subjFamily []int
	for fam := 0; fam < fc.Families; fam++ {
		ancestor := bank.RandomProtein(rng, fc.MemberLen)
		queries.Add(fmt.Sprintf("query%03d", fam), bank.MutateProtein(rng, ancestor, fc.Divergence/2))
		for m := 0; m < fc.MembersPerFamily; m++ {
			subjects.Add(fmt.Sprintf("fam%03d_m%d", fam, m), bank.MutateProtein(rng, ancestor, fc.Divergence))
			subjFamily = append(subjFamily, fam)
		}
	}
	for d := 0; d < fc.DecoyGenes; d++ {
		subjects.Add(fmt.Sprintf("decoy%03d", d), bank.RandomProtein(rng, fc.MemberLen))
		subjFamily = append(subjFamily, -1)
	}

	qt, st := core.NewProteinTarget(queries), core.NewProteinTarget(subjects)

	out := &PrefilterSweep{Queries: queries.Len(), Subjects: subjects.Len()}
	var offWall float64
	for _, k := range ks {
		var ms []core.Match
		var res *core.Summary
		for rep := 0; rep < 3; rep++ { // best-of-3 wall; results are deterministic
			m, r, err := search(qt, st, sensitivityOptions(cfg, core.WithMaxCandidates(k))...)
			if err != nil {
				return nil, err
			}
			if res == nil || r.Pipeline.Wall < res.Pipeline.Wall {
				ms, res = m, r
			}
		}
		perQuery := make(map[int][]metrics.RankedHit)
		for _, a := range ms {
			perQuery[a.Seq0] = append(perQuery[a.Seq0], metrics.RankedHit{
				Score: float64(a.Score),
				True:  subjFamily[a.Seq1] == a.Seq0,
			})
		}
		var rocs, aps []float64
		for q := 0; q < queries.Len(); q++ {
			hits := perQuery[q]
			metrics.SortByScore(hits)
			rocs = append(rocs, metrics.ROC50(hits, fc.MembersPerFamily))
			aps = append(aps, metrics.AveragePrecision(hits))
		}
		sort.Float64s(rocs)
		sort.Float64s(aps)
		wallMS := float64(res.Pipeline.Wall.Nanoseconds()) / 1e6
		if k == 0 {
			offWall = wallMS
		}
		speedup := 0.0
		if offWall > 0 {
			speedup = offWall / wallMS
		}
		out.Rows = append(out.Rows, PrefilterSweepRow{
			MaxCandidates: k,
			ROC50:         metrics.Mean(rocs),
			APMean:        metrics.Mean(aps),
			Matches:       len(ms),
			WallMS:        wallMS,
			SpeedupVsOff:  speedup,
		})
	}
	return out, nil
}

// Format renders the sweep table.
func (s PrefilterSweep) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Prefilter sweep: ROC50 vs speed (%d queries, %d subjects)\n", s.Queries, s.Subjects)
	fmt.Fprintf(&b, "%14s %8s %8s %8s %10s %9s\n", "maxCandidates", "ROC50", "AP-Mean", "matches", "wall(ms)", "speedup")
	for _, r := range s.Rows {
		k := fmt.Sprintf("%d", r.MaxCandidates)
		if r.MaxCandidates == 0 {
			k = "off"
		}
		fmt.Fprintf(&b, "%14s %8.3f %8.3f %8d %10.1f %8.2fx\n",
			k, r.ROC50, r.APMean, r.Matches, r.WallMS, r.SpeedupVsOff)
	}
	return b.String()
}

package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/matrix"
)

// localWithOps is the unbanded local alignment of q against s and its
// operations: LocalBanded and LocalBandedOps with a band as wide as the
// sequences.
func localWithOps(al *align.Aligner, q, s []byte) (align.Local, []align.Op) {
	band := len(q) + len(s)
	loc := al.LocalBanded(q, s, 0, band)
	return loc, al.LocalBandedOps(q, s, loc, 0, band)
}

func TestComputeStatsIdentity(t *testing.T) {
	q := alphabet.MustEncodeProtein("MKVLILAC")
	al := align.NewAligner(matrix.BLOSUM62, align.DefaultGaps)
	loc, ops := localWithOps(al, q, q)
	st := ComputeStats(q, q, loc, ops, matrix.BLOSUM62)
	if st.Identities != 8 || st.Length != 8 || st.Gaps != 0 {
		t.Errorf("identity stats wrong: %+v", st)
	}
	if st.Identity() != 1 {
		t.Errorf("Identity() = %f", st.Identity())
	}
}

func TestComputeStatsSubstitutionsAndGaps(t *testing.T) {
	// q=WWWWWWKKKKKK vs s=WWWWWWAAAKKKKKK: 12 aligned + 3-gap.
	m := matrix.NewMatchMismatch(2, -2)
	al := align.NewAligner(m, align.GapParams{Open: 3, Extend: 1})
	q := alphabet.MustEncodeProtein("WWWWWWKKKKKK")
	s := alphabet.MustEncodeProtein("WWWWWWAAAKKKKKK")
	loc, ops := localWithOps(al, q, s)
	st := ComputeStats(q, s, loc, ops, m)
	if st.Gaps != 3 {
		t.Errorf("gaps = %d, want 3", st.Gaps)
	}
	if st.Identities != 12 {
		t.Errorf("identities = %d, want 12", st.Identities)
	}
	if st.Length != 15 {
		t.Errorf("length = %d, want 15", st.Length)
	}
}

func TestComputeStatsPositives(t *testing.T) {
	// I vs V scores +3 under BLOSUM62: positive but not identical.
	q := alphabet.MustEncodeProtein("MKVI")
	s := alphabet.MustEncodeProtein("MKVV")
	al := align.NewAligner(matrix.BLOSUM62, align.DefaultGaps)
	loc, ops := localWithOps(al, q, s)
	st := ComputeStats(q, s, loc, ops, matrix.BLOSUM62)
	if st.Identities != 3 || st.Positives != 4 {
		t.Errorf("stats = %+v, want 3 identities / 4 positives", st)
	}
	if st.Identity() <= 0.7 || st.Identity() >= 0.8 {
		t.Errorf("identity = %f, want 0.75", st.Identity())
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	var st AlignmentStats
	if st.Identity() != 0 {
		t.Error("empty identity should be 0")
	}
}

// searchGenome collects one tblastn search for the report to render.
func searchGenome(t *testing.T, proteins *bank.Bank, genome []byte, opts ...core.Option) ([]core.Match, *core.Summary) {
	t.Helper()
	s, err := core.NewSearcher(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Search(context.Background(), core.NewProteinTarget(proteins), core.NewGenomeTarget(genome, nil))
	ms, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := res.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return ms, sum
}

func TestWriteGenomeReport(t *testing.T) {
	proteins := bank.GenerateProteins(bank.ProteinConfig{N: 6, MeanLen: 100, Seed: 61})
	genome, _, err := bank.GenerateGenome(bank.GenomeConfig{
		Length: 30_000, Source: proteins, PlantCount: 3, Seed: 62,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, sum := searchGenome(t, proteins, genome, core.WithTraceback(true))
	if len(ms) == 0 {
		t.Fatal("no matches to report")
	}
	var buf bytes.Buffer
	if err := WriteGenomeReport(&buf, proteins, genome, ms, sum, matrix.BLOSUM62); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"tblastn-style search",
		"E-value",
		"identities",
		"Query ",
		"Sbjct",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out[:min(len(out), 600)])
		}
	}
}

func TestWriteGenomeReportNoTraceback(t *testing.T) {
	proteins := bank.GenerateProteins(bank.ProteinConfig{N: 4, MeanLen: 80, Seed: 63})
	genome, _, err := bank.GenerateGenome(bank.GenomeConfig{
		Length: 20_000, Source: proteins, PlantCount: 2, Seed: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, sum := searchGenome(t, proteins, genome)
	var buf bytes.Buffer
	if err := WriteGenomeReport(&buf, proteins, genome, ms, sum, matrix.BLOSUM62); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "identities") {
		t.Error("alignment blocks present without traceback")
	}
	if !strings.Contains(buf.String(), "E-value") {
		t.Error("summary table missing")
	}
}

func TestIndent(t *testing.T) {
	if got := indent("a\nb\n", "> "); got != "> a\n> b\n" {
		t.Errorf("indent = %q", got)
	}
}

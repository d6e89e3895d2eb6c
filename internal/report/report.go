// Package report renders comparison results as human-readable,
// BLAST-style text reports: a per-query summary table of hits followed
// by the pairwise alignment blocks, with identity/positive/gap
// statistics computed from alignment operations.
package report

import (
	"fmt"
	"io"
	"sort"

	"seedblast/internal/align"
	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/matrix"
	"seedblast/internal/translate"
)

// AlignmentStats summarises an alignment's character classes.
type AlignmentStats struct {
	Length     int // alignment columns
	Identities int
	Positives  int // identities + positive substitution scores
	Gaps       int // gap columns
}

// Identity returns the identity fraction (0 when empty).
func (s AlignmentStats) Identity() float64 {
	if s.Length == 0 {
		return 0
	}
	return float64(s.Identities) / float64(s.Length)
}

// ComputeStats walks alignment operations over the aligned sequences.
// q and s are the full encoded sequences; the spans in loc delimit the
// aligned regions.
func ComputeStats(q, s []byte, loc align.Local, ops []align.Op, m *matrix.Matrix) AlignmentStats {
	var st AlignmentStats
	i, j := loc.AStart, loc.BStart
	for _, op := range ops {
		st.Length += op.Len
		switch op.Kind {
		case align.OpAligned:
			for k := 0; k < op.Len; k++ {
				switch {
				case q[i] == s[j]:
					st.Identities++
					st.Positives++
				case m.Score(q[i], s[j]) > 0:
					st.Positives++
				}
				i++
				j++
			}
		case align.OpInsB:
			st.Gaps += op.Len
			j += op.Len
		case align.OpDelB:
			st.Gaps += op.Len
			i += op.Len
		}
	}
	return st
}

// WriteGenomeReport renders a tblastn-style report for a collected
// search of proteins against a GenomeTarget of genome. Alignment blocks
// appear only for matches that carry traceback operations
// (WithTraceback).
func WriteGenomeReport(w io.Writer, proteins *bank.Bank, genome []byte, matches []core.Match, sum *core.Summary, m *matrix.Matrix) error {
	fmt.Fprintf(w, "seedblast tblastn-style search\n")
	fmt.Fprintf(w, "Query bank: %s (%d sequences, %d residues)\n",
		proteins.Name(), proteins.Len(), proteins.TotalResidues())
	fmt.Fprintf(w, "Subject: %d nt genome, 6 reading frames\n", len(genome))
	fmt.Fprintf(w, "Matches: %d (pairs scored: %d, hits: %d)\n\n",
		len(matches), sum.Pairs, sum.Hits)

	// Group matches per query, best first.
	perQuery := map[int][]core.Match{}
	for _, gm := range matches {
		perQuery[gm.Query.Seq] = append(perQuery[gm.Query.Seq], gm)
	}
	queries := make([]int, 0, len(perQuery))
	for q := range perQuery {
		queries = append(queries, q)
	}
	sort.Ints(queries)

	var frames [][]byte
	for _, q := range queries {
		ms := perQuery[q]
		sort.Slice(ms, func(i, j int) bool { return ms[i].EValue < ms[j].EValue })
		fmt.Fprintf(w, "Query %s (%d aa)\n", proteins.ID(q), len(proteins.Seq(q)))
		fmt.Fprintf(w, "  %-8s %-22s %8s %10s %12s\n",
			"frame", "genome interval", "score", "bits", "E-value")
		for _, gm := range ms {
			fmt.Fprintf(w, "  %-8s [%9d, %9d) %8d %10.1f %12.2e\n",
				gm.Subject.Frame, gm.Subject.NucStart, gm.Subject.NucEnd, gm.Score, gm.BitScore, gm.EValue)
		}
		for _, gm := range ms {
			if len(gm.Ops) == 0 {
				continue
			}
			if frames == nil {
				for _, ft := range translate.SixFrames(genome) {
					frames = append(frames, ft.Protein)
				}
			}
			loc := align.Local{
				Score:  gm.Score,
				AStart: gm.Q.Start, AEnd: gm.Q.End,
				BStart: gm.S.Start, BEnd: gm.S.End,
			}
			st := ComputeStats(proteins.Seq(q), frames[gm.Seq1], loc, gm.Ops, m)
			fmt.Fprintf(w, "\n  Frame %s, length %d: identities %d/%d (%.0f%%), positives %d, gaps %d\n",
				gm.Subject.Frame, st.Length, st.Identities, st.Length,
				100*st.Identity(), st.Positives, st.Gaps)
			fmt.Fprint(w, indent(align.FormatAlignment(
				proteins.Seq(q), frames[gm.Seq1], loc, gm.Ops, m), "  "))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func indent(s, prefix string) string {
	out := prefix
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += prefix
		}
	}
	// Trim the trailing prefix after the final newline.
	if len(out) >= len(prefix) && out[len(out)-len(prefix):] == prefix {
		out = out[:len(out)-len(prefix)]
	}
	return out
}

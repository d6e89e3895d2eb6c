package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"seedblast/internal/service"
)

// opResult is what one op returned, in the one form every surface can
// produce: the wire alignment records in reported order, plus the
// step-2 work counters the library summary and the job status both
// carry.
type opResult struct {
	aligns []service.AlignmentJSON
	pairs  int64
	hits   int
}

// alignmentKey serialises every field of one alignment that the
// program computed: ids, score, the bits of both floats, coordinates.
func alignmentKey(dst []byte, a *service.AlignmentJSON) []byte {
	dst = append(dst, a.Query...)
	dst = append(dst, 0)
	dst = append(dst, a.Subject...)
	dst = append(dst, 0)
	for _, v := range [...]uint64{
		uint64(a.Score), math.Float64bits(a.BitScore), math.Float64bits(a.EValue),
		uint64(a.QStart), uint64(a.QEnd), uint64(a.SStart), uint64(a.SEnd),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// alignmentsDigest hashes the alignment list, order included.
func alignmentsDigest(as []service.AlignmentJSON) string {
	buf := make([]byte, 0, 96*len(as))
	for i := range as {
		buf = alignmentKey(buf, &as[i])
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:16])
}

// digest identifies an op's whole outcome: the alignment list plus the
// pair and hit counters. Every op of a run must reproduce the digest
// of the run's first op.
func (r *opResult) digest() string {
	return fmt.Sprintf("%s/p%d/h%d", alignmentsDigest(r.aligns), r.pairs, r.hits)
}

// minRecall is the share of planted homologs at 30% divergence or less
// that an unfiltered search must report.
const minRecall = 0.95

// checkResult compares a workload's result with the reference — an
// unfiltered CPU library search of the same inputs — and with the
// planted truth. It returns one line per violation.
//
// Unfiltered workloads must reproduce the reference alignment list
// exactly (this is scan_rasc = scan_cpu and cluster_homolog =
// homolog_full, and it holds serve_hot to the library result too) and
// find the planted homologs. Prefiltered workloads must report a
// subset of the reference with every field, E-value bits included,
// unchanged.
func checkResult(w workload, in *inputs, got, ref *opResult) []string {
	var bad []string
	if w.maxCandidates == 0 {
		if g, r := alignmentsDigest(got.aligns), alignmentsDigest(ref.aligns); g != r {
			bad = append(bad, fmt.Sprintf("%d alignments (digest %s) differ from the unfiltered CPU reference's %d (digest %s)",
				len(got.aligns), g, len(ref.aligns), r))
		}
		if rec := recall(in, got); rec < minRecall {
			bad = append(bad, fmt.Sprintf("only %.1f%% of %d planted homologs reported, need %.0f%%",
				100*rec, len(in.planted), 100*minRecall))
		}
		return bad
	}
	inRef := make(map[string]bool, len(ref.aligns))
	for i := range ref.aligns {
		inRef[string(alignmentKey(nil, &ref.aligns[i]))] = true
	}
	missing := 0
	for i := range got.aligns {
		if !inRef[string(alignmentKey(nil, &got.aligns[i]))] {
			missing++
		}
	}
	if missing > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d prefiltered alignments are absent from, or differ from, the unfiltered reference",
			missing, len(got.aligns)))
	}
	return bad
}

// recall is the share of planted (query, subject) pairs with at least
// one reported alignment.
func recall(in *inputs, got *opResult) float64 {
	if len(in.planted) == 0 {
		return 1
	}
	seen := make(map[[2]string]bool, len(got.aligns))
	for i := range got.aligns {
		seen[[2]string{got.aligns[i].Query, got.aligns[i].Subject}] = true
	}
	found := 0
	for _, p := range in.planted {
		if seen[p] {
			found++
		}
	}
	return float64(found) / float64(len(in.planted))
}

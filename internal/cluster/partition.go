// Package cluster is the distributed scatter-gather layer over the
// comparison service: a coordinator splits the subject bank into
// volumes, scatters one comparison job per volume across seedservd
// workers, and gathers the per-volume results into a single merged report.
//
// The paper accelerates one host with one RASC-100 board; its natural
// scale-out — argued in Nguyen & Lavenier's fine-grained
// parallelization report and taken to the extreme by Selvitopi et
// al.'s many-against-many search — is partitioning the subject bank
// and merging hits. Three properties make the merge exact rather than
// approximate:
//
//   - Partitioning is by whole subject sequence, so every
//     (query, subject) pair is compared by exactly one volume: hit
//     counts and pair counts sum, and step 3's per-pair containment
//     and dedup rules see exactly the hit groups a single node would.
//   - Every volume job carries the full bank's search-space geometry
//     (stats.SearchSpace over the job API's searchSpace field), so
//     workers compute E-values — and apply the E ≤ MaxEValue cut —
//     against the whole database, not their slice.
//   - The gather re-ranks under the engine's (Seq0, EValue, Seq1)
//     ordering after remapping volume-local subject numbers to global
//     ones.
//
// Together these make the merged output bit-identical to a
// single-node run over the unpartitioned bank, which the equivalence
// tests pin for several partitioning strategies and volume counts.
package cluster

import (
	"fmt"
	"sort"
)

// Volume is one partition of the subject bank: the global sequence
// numbers it carries, in ascending order, and their summed residues.
type Volume struct {
	Seqs     []int
	Residues int
}

// Partitioner splits a subject bank — given only its per-sequence
// residue lengths — into at most n volumes. Implementations must be
// deterministic and must cover every sequence exactly once; volumes
// must list their sequences in ascending global order (the merge
// relies on it to remap volume-local numbering).
type Partitioner interface {
	Name() string
	Partition(lens []int, n int) []Volume
}

// PartitionerByName resolves a strategy name (for flags and config
// files): "seqcount" or "size".
func PartitionerByName(name string) (Partitioner, error) {
	switch name {
	case "seqcount":
		return SeqCount{}, nil
	case "size", "":
		return SizeBalanced{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown partitioner %q (seqcount, size)", name)
	}
}

// SeqCount partitions into contiguous runs of near-equal sequence
// count — the classic database volume split: order-preserving and
// cheap, but skewed when sequence lengths vary a lot.
type SeqCount struct{}

// Name implements Partitioner.
func (SeqCount) Name() string { return "seqcount" }

// Partition implements Partitioner. Volume v gets the index range
// [v·t/n, (v+1)·t/n), so counts differ by at most one.
func (SeqCount) Partition(lens []int, n int) []Volume {
	t := len(lens)
	if t == 0 {
		return nil
	}
	if n <= 0 {
		n = 1
	}
	if n > t {
		n = t
	}
	out := make([]Volume, 0, n)
	for v := 0; v < n; v++ {
		lo, hi := v*t/n, (v+1)*t/n
		vol := Volume{Seqs: make([]int, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			vol.Seqs = append(vol.Seqs, i)
			vol.Residues += lens[i]
		}
		out = append(out, vol)
	}
	return out
}

// SizeBalanced partitions by greedy longest-processing-time
// assignment: sequences are taken longest first and each goes to the
// currently lightest volume, so per-volume residue totals — and with
// them worker step-2 work — stay balanced even under heavy-tailed
// length distributions. All ties break deterministically (longer
// sequence first, then lower sequence number; lightest volume, then
// lower volume number).
type SizeBalanced struct{}

// Name implements Partitioner.
func (SizeBalanced) Name() string { return "size" }

// Partition implements Partitioner.
func (SizeBalanced) Partition(lens []int, n int) []Volume {
	t := len(lens)
	if t == 0 {
		return nil
	}
	if n <= 0 {
		n = 1
	}
	if n > t {
		n = t
	}
	order := make([]int, t)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lens[order[a]] > lens[order[b]] })

	out := make([]Volume, n)
	for _, i := range order {
		best := 0
		for v := 1; v < n; v++ {
			// Residue ties break on sequence count so zero-length
			// sequences spread out instead of piling onto one volume and
			// leaving others empty (every volume gets at least one
			// sequence whenever n <= len(lens)).
			if out[v].Residues < out[best].Residues ||
				(out[v].Residues == out[best].Residues && len(out[v].Seqs) < len(out[best].Seqs)) {
				best = v
			}
		}
		out[best].Seqs = append(out[best].Seqs, i)
		out[best].Residues += lens[i]
	}
	for v := range out {
		sort.Ints(out[v].Seqs)
	}
	return out
}

// checkPartition verifies a partitioner's output covers every
// sequence exactly once with ascending per-volume order — the
// invariants the exact merge depends on. The coordinator runs it on
// every request (it is O(bank) and catches a buggy third-party
// Partitioner before it silently drops sequences).
func checkPartition(lens []int, vols []Volume) error {
	seen := make([]bool, len(lens))
	total := 0
	for vi, v := range vols {
		if len(v.Seqs) == 0 {
			return fmt.Errorf("cluster: partitioner produced empty volume %d", vi)
		}
		prev := -1
		for _, s := range v.Seqs {
			if s < 0 || s >= len(lens) {
				return fmt.Errorf("cluster: volume %d references sequence %d outside [0,%d)", vi, s, len(lens))
			}
			if s <= prev {
				return fmt.Errorf("cluster: volume %d sequences not ascending at %d", vi, s)
			}
			if seen[s] {
				return fmt.Errorf("cluster: sequence %d assigned to two volumes", s)
			}
			seen[s] = true
			prev = s
			total++
		}
	}
	if total != len(lens) {
		return fmt.Errorf("cluster: partition covers %d of %d sequences", total, len(lens))
	}
	return nil
}

package cluster

import (
	"fmt"
	"iter"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"seedblast/internal/service"
)

// sliceCursors wraps buffered per-volume lists as the cursors the
// coordinator builds, so the k-way merge can be pinned against the
// buffered reference merge on synthetic data.
func sliceCursors(perVol [][]service.AlignmentJSON) []*volumeCursor {
	curs := make([]*volumeCursor, len(perVol))
	for vi, as := range perVol {
		curs[vi] = sliceCursor(vi, as)
	}
	return curs
}

// mergeWireAlignments is the buffered reference merge the streaming
// k-way merge (mergeAlignmentStreams) is pinned against: every
// volume's alignments, remapped to global numbers and stably sorted
// under rankLess. queryIdx maps a query
// id to its bank position; vols[i] gives volume i's global subject
// numbers, and subjIdxInVol maps a subject id to its position within
// its volume's submission order (ids are resolved per volume, so
// duplicate subject ids across volumes cannot collide).
func mergeWireAlignments(vols []Volume, perVol [][]service.AlignmentJSON,
	queryIdx map[string]int, subjIdxInVol []map[string]int) []service.AlignmentJSON {
	var ranked []rankedAlignment
	var volOf []int
	for vi, as := range perVol {
		for _, a := range as {
			ranked = append(ranked, rankedAlignment{
				a: a,
				q: queryIdx[a.Query],
				s: vols[vi].Seqs[subjIdxInVol[vi][a.Subject]],
			})
			volOf = append(volOf, vi)
		}
	}
	order := make([]int, len(ranked))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return rankLess(&ranked[order[i]], &ranked[order[j]], volOf[order[i]], volOf[order[j]])
	})
	out := make([]service.AlignmentJSON, len(ranked))
	for i, oi := range order {
		out[i] = ranked[oi].a
	}
	return out
}

// TestMergeStreamsMatchesBufferedMerge generates random volume
// partitions and per-volume sorted results, and pins the streaming
// k-way merge bit-identical to the buffered sort-based reference.
func TestMergeStreamsMatchesBufferedMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		nq, ns := 1+rng.IntN(5), 2+rng.IntN(10)
		nvol := 1 + rng.IntN(ns)

		query := make([]service.SequenceJSON, nq)
		queryIdx := make(map[string]int, nq)
		for i := range query {
			query[i] = service.SequenceJSON{ID: fmt.Sprintf("q%d", i)}
			queryIdx[query[i].ID] = i
		}
		subject := make([]service.SequenceJSON, ns)
		for i := range subject {
			subject[i] = service.SequenceJSON{ID: fmt.Sprintf("s%d", i)}
		}

		// Random partition with ascending per-volume sequence lists
		// (empty volumes dropped, as a partitioner would).
		buckets := make([]Volume, nvol)
		for i := 0; i < ns; i++ {
			v := rng.IntN(nvol)
			buckets[v].Seqs = append(buckets[v].Seqs, i)
		}
		var vols []Volume
		for _, v := range buckets {
			if len(v.Seqs) > 0 {
				vols = append(vols, v)
			}
		}

		// Per-volume results: random alignments per (q, s) pair, sorted
		// the way a worker sorts (Seq0, EValue, local Seq1). E-values are
		// drawn from a tiny set so cross-volume ties actually occur.
		subjIdxInVol := make([]map[string]int, len(vols))
		perVol := make([][]service.AlignmentJSON, len(vols))
		evs := []float64{1e-8, 1e-4, 0.5}
		for vi, v := range vols {
			m := make(map[string]int)
			for local, gi := range v.Seqs {
				m[subject[gi].ID] = local
			}
			subjIdxInVol[vi] = m
			var as []service.AlignmentJSON
			for q := 0; q < nq; q++ {
				for _, gi := range v.Seqs {
					for n := rng.IntN(3); n > 0; n-- {
						as = append(as, service.AlignmentJSON{
							Query:   query[q].ID,
							Subject: subject[gi].ID,
							Score:   rng.IntN(100),
							EValue:  evs[rng.IntN(len(evs))],
						})
					}
				}
			}
			sort.SliceStable(as, func(i, j int) bool {
				qi, qj := queryIdx[as[i].Query], queryIdx[as[j].Query]
				if qi != qj {
					return qi < qj
				}
				if as[i].EValue != as[j].EValue {
					return as[i].EValue < as[j].EValue
				}
				return m[as[i].Subject] < m[as[j].Subject]
			})
			perVol[vi] = as
		}

		want := mergeWireAlignments(vols, perVol, queryIdx, subjIdxInVol)
		got, err := mergeAlignmentStreams(sliceCursors(perVol), wireRanker(vols, query, subject))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: k-way merge diverges from buffered reference\n got %+v\nwant %+v",
				trial, got, want)
		}
	}
}

// TestMergeStreamsPropagatesError pins that a mid-stream failure in
// any volume fails the merge.
func TestMergeStreamsPropagatesError(t *testing.T) {
	bad := func(yield func(service.AlignmentJSON, error) bool) {
		if !yield(service.AlignmentJSON{Query: "q0", Subject: "s0"}, nil) {
			return
		}
		yield(service.AlignmentJSON{}, fmt.Errorf("stream torn"))
	}
	next, stop := iter.Pull2(iter.Seq2[service.AlignmentJSON, error](bad))
	defer stop()
	curs := []*volumeCursor{{vi: 0, pull: next}}
	rank := wireRanker([]Volume{{Seqs: []int{0}}},
		[]service.SequenceJSON{{ID: "q0"}}, []service.SequenceJSON{{ID: "s0"}})
	if _, err := mergeAlignmentStreams(curs, rank); err == nil {
		t.Fatal("mid-stream failure not propagated")
	}
}

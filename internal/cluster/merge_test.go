package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"seedblast/internal/service"
)

// volumeOf lays a volume's alignments out as the fetch does: one
// NDJSON line each, keyed through the ranker.
func volumeOf(rk *ranker, vi int, as []service.AlignmentJSON) volumeLines {
	var v volumeLines
	for _, a := range as {
		line, _ := json.Marshal(&a)
		start := len(v.buf)
		v.buf = append(append(v.buf, line...), '\n')
		v.keys = append(v.keys, lineKey{q: rk.query[a.Query], s: rk.subject[vi][a.Subject], e: a.EValue, start: start, end: len(v.buf)})
	}
	return v
}

// mergeWireLines is the buffered reference the k-way merge is pinned
// against: every volume's lines stably sorted by (query, E-value,
// subject). A (query, subject) pair lives in one volume, so equal keys
// come from one volume and keep its order.
func mergeWireLines(vols []volumeLines) []byte {
	type ranked struct {
		k    lineKey
		line []byte
	}
	var all []ranked
	for _, v := range vols {
		for _, k := range v.keys {
			all = append(all, ranked{k, v.buf[k.start:k.end]})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i].k, all[j].k
		if a.q != b.q {
			return a.q < b.q
		}
		if a.e != b.e {
			return a.e < b.e
		}
		return a.s < b.s
	})
	var out []byte
	for _, r := range all {
		out = append(out, r.line...)
	}
	return out
}

// TestMergeStreamsMatchesBufferedMerge generates random volume
// partitions and per-volume sorted results, and pins the k-way merge of
// their lines byte-identical to the buffered sort-based reference.
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
		rk := newRanker(vols, query, subject)
		lines := make([]volumeLines, len(vols))
		evs := []float64{1e-8, 1e-4, 0.5}
		for vi, v := range vols {
			m := make(map[string]int)
			for local, gi := range v.Seqs {
				m[subject[gi].ID] = local
			}
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
			lines[vi] = volumeOf(rk, vi, as)
		}

		want := mergeWireLines(lines)
		got := mergeLines(lines)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: k-way merge diverges from buffered reference\n got %s\nwant %s",
				trial, got, want)
		}
	}
}

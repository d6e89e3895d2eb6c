package gapped

import (
	"math/rand"
	"reflect"
	"testing"

	"seedblast/internal/index"
	"seedblast/internal/ungapped"
)

// oracleGroups is the map-based grouping RunWithStats used before the
// flat table: pairs in order of first appearance, each with its hits
// in input order. Kept as the reference groupHits is pinned to.
func oracleGroups(hits []ungapped.Hit) (order [][2]uint32, groups map[[2]uint32][]ungapped.Hit) {
	groups = make(map[[2]uint32][]ungapped.Hit)
	for _, h := range hits {
		k := [2]uint32{h.E0.Seq, h.E1.Seq}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], h)
	}
	return order, groups
}

func checkGrouping(t *testing.T, name string, hits []ungapped.Hit) {
	t.Helper()
	groups, offs, err := groupHits(hits)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	order, want := oracleGroups(hits)
	if len(groups) != len(order) {
		t.Fatalf("%s: %d groups, oracle has %d", name, len(groups), len(order))
	}
	if len(offs) != len(hits) {
		t.Fatalf("%s: %d grouped seeds for %d hits", name, len(offs), len(hits))
	}
	start := uint32(0)
	for gi, g := range groups {
		k := order[gi]
		if g.seq0 != k[0] || g.seq1 != k[1] {
			t.Fatalf("%s: group %d is pair (%d,%d), oracle order has (%d,%d)", name, gi, g.seq0, g.seq1, k[0], k[1])
		}
		var wantOffs []seedPos
		for _, h := range want[k] {
			wantOffs = append(wantOffs, seedPos{h.E0.Off, h.E1.Off})
		}
		if got := offs[start:g.end]; !reflect.DeepEqual(got, wantOffs) {
			t.Fatalf("%s: group %d (%d,%d) seeds %v, oracle %v", name, gi, g.seq0, g.seq1, got, wantOffs)
		}
		start = g.end
	}
}

func TestGroupHitsMatchesMapOracle(t *testing.T) {
	hit := func(s0, s1, q, s uint32) ungapped.Hit {
		return ungapped.Hit{E0: index.Entry{Seq: s0, Off: q}, E1: index.Entry{Seq: s1, Off: s}}
	}
	rng := rand.New(rand.NewSource(17))

	checkGrouping(t, "empty", nil)
	checkGrouping(t, "single", []ungapped.Hit{hit(3, 9, 1, 2)})

	var giant, singletons, interleaved, swapped, wide []ungapped.Hit
	for i := uint32(0); i < 5000; i++ {
		giant = append(giant, hit(7, 7, rng.Uint32(), rng.Uint32()))
		singletons = append(singletons, hit(i, 4999-i, i, i))
		// Two pairs alternating, then a third arriving late: in-group
		// order and first-appearance order both matter here.
		interleaved = append(interleaved, hit(i%2, 1-i%2, i, 2*i))
		// (a,b) and (b,a) must not collide into one group.
		swapped = append(swapped, hit(i%7, i%5, i, i), hit(i%5, i%7, i, i))
		// Sequence numbers far beyond the table size, including the
		// all-ones extremes.
		wide = append(wide, hit(^uint32(0)-i%3, uint32(1)<<31+i%4, i, i))
	}
	interleaved = append(interleaved, hit(9, 9, 0, 0), hit(0, 1, 1, 1))
	checkGrouping(t, "giant", giant)
	checkGrouping(t, "singletons", singletons)
	checkGrouping(t, "interleaved", interleaved)
	checkGrouping(t, "swapped", swapped)
	checkGrouping(t, "wide", wide)

	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		n0, n1 := 1+rng.Intn(12), 1+rng.Intn(12)
		hits := make([]ungapped.Hit, n)
		for i := range hits {
			hits[i] = hit(uint32(rng.Intn(n0)), uint32(rng.Intn(n1)), uint32(rng.Intn(50)), uint32(rng.Intn(50)))
		}
		checkGrouping(t, "random", hits)
	}
}

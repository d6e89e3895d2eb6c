package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
)

// serveShapedBanks is the serve_hot bench bank's shape: four 105-135 aa
// queries against 64 subjects of 300 aa, 16 of which carry a 20 %
// mutated copy of a query.
func serveShapedBanks() (queries, subjects *bank.Bank) {
	rng := bank.NewRNG(83)
	queries, subjects = bank.New("queries"), bank.New("subjects")
	for i := 0; i < 4; i++ {
		queries.Add(fmt.Sprintf("q%d", i), bank.RandomProtein(rng, 105+10*i))
	}
	for j := 0; j < 64; j++ {
		s := bank.RandomProtein(rng, 300)
		if j < 16 {
			hom := bank.MutateProtein(rng, queries.Seq(j%4), 0.20)
			copy(s[(300-len(hom))/2:], hom)
		}
		subjects.Add(fmt.Sprintf("s%d", j), s)
	}
	return queries, subjects
}

// BenchmarkSearchSmall measures what a small search pays beyond its
// queries: a warm Searcher (subject index cached) on the serve_hot
// shape, with allocations reported.
func BenchmarkSearchSmall(b *testing.B) {
	queries, subjects := serveShapedBanks()
	s := newSearcher(b, DefaultOptions())
	q, tgt := NewProteinTarget(queries), NewProteinTarget(subjects)
	if n := countMatches(b, s, q, tgt); n == 0 {
		b.Fatal("benchmark workload yields no matches")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		countMatches(b, s, q, tgt)
	}
}

// TestSmallSearchAllocations guards the fixed cost: a warm search with
// one 20 aa query must allocate well under two key-space-sized uint32
// arrays, which a reintroduced per-worker histogram or statistics
// merger would exceed on its own.
func TestSmallSearchAllocations(t *testing.T) {
	queries, subjects := serveShapedBanks()
	opt := DefaultOptions()
	one := bank.New("one")
	one.Add("q", queries.Seq(0)[40:60])
	s := newSearcher(t, opt)
	q, tgt := NewProteinTarget(one), NewProteinTarget(subjects)
	if _, err := s.Search(context.Background(), q, tgt).Collect(); err != nil {
		t.Fatal(err)
	}
	const searches = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range searches {
		if _, err := s.Search(context.Background(), q, tgt).Collect(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSearch := (after.TotalAlloc - before.TotalAlloc) / searches
	if limit := uint64(2 * 4 * opt.Seed.KeySpace()); perSearch >= limit {
		t.Errorf("warm 20 aa search allocates %d bytes, want below %d", perSearch, limit)
	}
}

// TestSearchNoOccupiedKeys runs queries that index to no key at all —
// an empty bank and an all-X one — through Search on the CPU and RASC
// engines: no matches, no work, no error.
func TestSearchNoOccupiedKeys(t *testing.T) {
	_, subjects := serveShapedBanks()
	allX := bank.New("all-X")
	allX.Add("x", bytes.Repeat([]byte{alphabet.Xaa}, 50))
	tgt := NewProteinTarget(subjects)
	for _, eng := range []Engine{EngineCPU, EngineRASC} {
		opt := DefaultOptions()
		opt.Engine = eng
		s := newSearcher(t, opt)
		for _, b0 := range []*bank.Bank{bank.New("empty"), allX} {
			res, err := collect(context.Background(), s, NewProteinTarget(b0), tgt)
			if err != nil {
				t.Fatalf("%v/%s: %v", eng, b0.Name(), err)
			}
			if len(res.Matches) != 0 || res.Hits != 0 || res.Pairs != 0 {
				t.Fatalf("%v/%s: %d matches, %d hits, %d pairs; want none",
					eng, b0.Name(), len(res.Matches), res.Hits, res.Pairs)
			}
		}
	}
}

package core

import (
	"testing"

	"seedblast/internal/bank"
	"seedblast/internal/translate"
)

func TestCompareDNAQueriesBlastx(t *testing.T) {
	// DNA queries that encode (mutated copies of) bank proteins must
	// match those proteins in the right frame and interval.
	proteins := bank.GenerateProteins(bank.ProteinConfig{N: 6, MeanLen: 120, Seed: 51})
	rng := bank.NewRNG(52)
	var queries [][]byte
	wantSubject := []int{2, 4}
	for _, idx := range wantSubject {
		coding, err := bank.ReverseTranslate(rng, proteins.Seq(idx))
		if err != nil {
			t.Fatal(err)
		}
		// Embed the coding region in random flanks; 1-base offset puts
		// it in frame +2.
		dna := append([]byte{0}, coding...)
		dna = append(dna, bank.RandomProtein(rng, 0)...)
		queries = append(queries, dna)
	}
	res, err := search(NewDNATarget(queries, nil), NewProteinTarget(proteins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) < len(wantSubject) {
		t.Fatalf("only %d matches", len(res.Matches))
	}
	for qi, subj := range wantSubject {
		found := false
		for _, m := range res.Matches {
			if q := m.Query; q.Seq == qi && m.Subject.Seq == subj {
				found = true
				if q.Frame != 2 {
					t.Errorf("query %d matched in frame %s, want +2", qi, q.Frame)
				}
				if q.NucStart < 0 || q.NucEnd > len(queries[qi]) || q.NucStart >= q.NucEnd {
					t.Errorf("bad nucleotide interval [%d,%d)", q.NucStart, q.NucEnd)
				}
				if (q.NucEnd-q.NucStart)/3 != m.Q.Len() {
					t.Errorf("interval/span mismatch: %d nt vs %d aa",
						q.NucEnd-q.NucStart, m.Q.Len())
				}
			}
		}
		if !found {
			t.Errorf("query %d did not match protein %d", qi, subj)
		}
	}
}

// An empty DNA query side is an empty search, not a failure: no
// frames, no shards, no matches.
func TestCompareDNAQueriesEmpty(t *testing.T) {
	proteins := bank.GenerateProteins(bank.ProteinConfig{N: 2, Seed: 1})
	q := NewDNATarget(nil, nil)
	if q.Queries() != 0 || q.Bank().Len() != 0 {
		t.Fatalf("empty DNA target holds %d queries, %d frames", q.Queries(), q.Bank().Len())
	}
	res, err := search(q, NewProteinTarget(proteins), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || res.Pairs != 0 {
		t.Errorf("empty query side produced work: %d matches, %d pairs", len(res.Matches), res.Pairs)
	}
}

func TestCompareGenomesTblastx(t *testing.T) {
	// Two genomes sharing a planted protein-coding region must match in
	// the frames the region occupies.
	proteins := bank.GenerateProteins(bank.ProteinConfig{N: 4, MeanLen: 100, Seed: 53})
	g0, genes0, err := bank.GenerateGenome(bank.GenomeConfig{
		Length: 20_000, Source: proteins, PlantCount: 2, Seed: 54,
	})
	if err != nil {
		t.Fatal(err)
	}
	g1, genes1, err := bank.GenerateGenome(bank.GenomeConfig{
		Length: 25_000, Source: proteins, PlantCount: 3, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := search(NewGenomeTarget(g0, nil), NewGenomeTarget(g1, nil), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no tblastx matches despite shared planted genes")
	}
	// Every match pair must correspond to planted genes encoding the
	// same protein.
	shared := map[int]bool{}
	for _, ga := range genes0 {
		shared[ga.ProteinIdx] = true
	}
	anyShared := false
	for _, gb := range genes1 {
		if shared[gb.ProteinIdx] {
			anyShared = true
		}
	}
	if !anyShared {
		t.Skip("workload has no shared protein between the genomes")
	}
	for _, m := range res.Matches {
		l0, l1 := m.Query, m.Subject
		if !l0.Frame.Valid() || !l1.Frame.Valid() {
			t.Errorf("invalid frames %d/%d", l0.Frame, l1.Frame)
		}
		if l0.NucStart < 0 || l0.NucEnd > len(g0) || l0.NucStart >= l0.NucEnd {
			t.Errorf("bad interval 0: [%d,%d)", l0.NucStart, l0.NucEnd)
		}
		if l1.NucStart < 0 || l1.NucEnd > len(g1) || l1.NucStart >= l1.NucEnd {
			t.Errorf("bad interval 1: [%d,%d)", l1.NucStart, l1.NucEnd)
		}
		if (l0.NucEnd-l0.NucStart)/3 != m.Q.Len() || (l1.NucEnd-l1.NucStart)/3 != m.S.Len() {
			t.Error("interval/span mismatch")
		}
	}
	// The best match must link a gene region in g0 to one in g1.
	best := res.Matches[0]
	overlapsGene := func(start, end int, genes []bank.PlantedGene) bool {
		for _, g := range genes {
			lo := max(start, g.Start)
			hi := min(end, g.Start+g.NucLen)
			if hi-lo > g.NucLen/2 {
				return true
			}
		}
		return false
	}
	if !overlapsGene(best.Query.NucStart, best.Query.NucEnd, genes0) ||
		!overlapsGene(best.Subject.NucStart, best.Subject.NucEnd, genes1) {
		t.Error("best tblastx match does not link planted gene regions")
	}
}

func TestCompareGenomeWithMitochondrialCode(t *testing.T) {
	// A gene planted with the mitochondrial code reads back only when
	// the pipeline translates with that code: the ATA/TGA/AGA/AGG
	// differences break or truncate the standard-code translation.
	rng := bank.NewRNG(81)
	protein := bank.RandomProtein(rng, 90)
	proteins := bank.New("q")
	proteins.Add("p", protein)

	// Reverse-translate under the mito code by brute force: pick, for
	// each residue, a codon that the mito code maps to it.
	var coding []byte
	for _, aa := range protein {
		found := false
		for n0 := byte(0); n0 < 4 && !found; n0++ {
			for n1 := byte(0); n1 < 4 && !found; n1++ {
				for n2 := byte(0); n2 < 4 && !found; n2++ {
					if translate.VertebrateMitoCode.Codon(n0, n1, n2) == aa {
						coding = append(coding, n0, n1, n2)
						found = true
					}
				}
			}
		}
		if !found {
			t.Fatalf("no mito codon for residue %d", aa)
		}
	}
	genome := append(bank.RandomProtein(bank.NewRNG(82), 0), make([]byte, 3000)...)
	rng2 := bank.NewRNG(83)
	for i := range genome {
		genome[i] = byte(rng2.Intn(4))
	}
	copy(genome[600:], coding)

	opt := DefaultOptions()
	opt.GeneticCode = translate.VertebrateMitoCode
	res, err := searchGenome(proteins, genome, opt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res.Matches {
		if m.Subject.NucStart <= 600 && m.Subject.NucEnd >= 600+len(coding) {
			found = true
		}
	}
	if !found {
		t.Fatalf("mito-coded gene not found under mito translation (matches: %d)", len(res.Matches))
	}
}

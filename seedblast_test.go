package seedblast_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"seedblast"
)

// search runs one collected search through the public API.
func search(t *testing.T, query, target seedblast.Target, opts ...seedblast.Option) ([]seedblast.Match, *seedblast.Summary) {
	t.Helper()
	searcher, err := seedblast.NewSearcher(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res := searcher.Search(context.Background(), query, target)
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

func TestPublicAPIEndToEnd(t *testing.T) {
	proteins := seedblast.GenerateProteins(seedblast.ProteinConfig{
		N: 8, MeanLen: 100, Seed: 1,
	})
	genome, genes, err := seedblast.GenerateGenome(seedblast.GenomeConfig{
		Length: 40_000, Source: proteins, PlantCount: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(genes) == 0 {
		t.Fatal("no planted genes")
	}
	ms, _ := search(t, seedblast.NewProteinTarget(proteins), seedblast.NewGenomeTarget(genome, nil))
	if len(ms) == 0 {
		t.Fatal("no matches through the public API")
	}
}

func TestPublicAPIRASCEngine(t *testing.T) {
	proteins := seedblast.GenerateProteins(seedblast.ProteinConfig{
		N: 5, MeanLen: 80, Seed: 3,
	})
	genome, _, err := seedblast.GenerateGenome(seedblast.GenomeConfig{
		Length: 20_000, Source: proteins, PlantCount: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, sum := search(t, seedblast.NewProteinTarget(proteins), seedblast.NewGenomeTarget(genome, nil),
		seedblast.WithEngine(seedblast.EngineRASC), seedblast.WithRASC(seedblast.RASCOptions{NumPEs: 64}))
	if sum.Device == nil {
		t.Fatal("no device report from RASC engine")
	}
}

func TestPublicAPIBaseline(t *testing.T) {
	proteins := seedblast.GenerateProteins(seedblast.ProteinConfig{
		N: 4, MeanLen: 90, Seed: 5,
	})
	genome, _, err := seedblast.GenerateGenome(seedblast.GenomeConfig{
		Length: 20_000, Source: proteins, PlantCount: 2, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := seedblast.BaselineGenome(proteins, genome, seedblast.DefaultBaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("baseline found nothing")
	}
}

func TestPublicAPIFASTARoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bank.fa")
	proteins := seedblast.GenerateProteins(seedblast.ProteinConfig{N: 3, MeanLen: 50, Seed: 7})
	if err := seedblast.WriteProteinFASTA(path, proteins); err != nil {
		t.Fatal(err)
	}
	back, err := seedblast.LoadProteinFASTA("back", path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != proteins.Len() {
		t.Fatalf("round trip %d sequences, want %d", back.Len(), proteins.Len())
	}
	for i := 0; i < back.Len(); i++ {
		if string(back.Seq(i)) != string(proteins.Seq(i)) {
			t.Fatal("sequences differ after round trip")
		}
	}
}

func TestPublicAPIEncoding(t *testing.T) {
	codes, err := seedblast.EncodeProtein("MKVLila")
	if err != nil {
		t.Fatal(err)
	}
	if seedblast.DecodeProtein(codes) != "MKVLILA" {
		t.Error("encode/decode mismatch")
	}
	if _, err := seedblast.EncodeDNA("ACGTN"); err != nil {
		t.Error(err)
	}
	if _, err := seedblast.EncodeDNA("XYZ!"); err == nil {
		t.Error("invalid DNA accepted")
	}
}

func TestPublicAPIFamilyBenchmark(t *testing.T) {
	fb, err := seedblast.GenerateFamilyBenchmark(seedblast.FamilyConfig{
		Families: 3, MembersPerFamily: 2, MemberLen: 60, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fb.Queries.Len() != 3 || len(fb.Members) != 6 {
		t.Fatalf("benchmark shape wrong: %d queries, %d members",
			fb.Queries.Len(), len(fb.Members))
	}
}

func TestPublicAPICompareBlastp(t *testing.T) {
	// blastp mode: protein bank vs protein bank.
	b0 := seedblast.GenerateProteins(seedblast.ProteinConfig{N: 4, MeanLen: 100, Seed: 9})
	b1 := seedblast.NewBank("subjects")
	// Subject 0 is a homolog of query 2.
	src, err := seedblast.EncodeProtein(seedblast.DecodeProtein(b0.Seq(2)))
	if err != nil {
		t.Fatal(err)
	}
	b1.Add("homolog", src)
	ms, _ := search(t, seedblast.NewProteinTarget(b0), seedblast.NewProteinTarget(b1))
	if len(ms) == 0 {
		t.Fatal("blastp found nothing")
	}
	if ms[0].Seq0 != 2 {
		t.Errorf("top alignment query %d, want 2", ms[0].Seq0)
	}
}

func TestPublicAPIBlastxAndTblastx(t *testing.T) {
	proteins := seedblast.GenerateProteins(seedblast.ProteinConfig{N: 4, MeanLen: 90, Seed: 10})
	genome, _, err := seedblast.GenerateGenome(seedblast.GenomeConfig{
		Length: 15_000, Source: proteins, PlantCount: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// blastx: the genome as one DNA query against the protein bank.
	dms, _ := search(t, seedblast.NewDNATarget([][]byte{genome}, nil), seedblast.NewProteinTarget(proteins))
	if len(dms) == 0 {
		t.Error("blastx found nothing")
	}
	// tblastx: the genome against itself must at least find its own genes.
	gms, _ := search(t, seedblast.NewGenomeTarget(genome, nil), seedblast.NewGenomeTarget(genome, nil))
	if len(gms) == 0 {
		t.Error("tblastx found nothing")
	}
}

func TestPublicAPILoadGenomeFASTA(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "genome.fa")
	if err := os.WriteFile(path, []byte(">chr1 part one\nACGT\n>chr2\nTTAA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	genome, err := seedblast.LoadGenomeFASTA(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(genome) != 8 {
		t.Fatalf("concatenated genome length %d, want 8", len(genome))
	}
	// Invalid letters must error.
	bad := filepath.Join(dir, "bad.fa")
	if err := os.WriteFile(bad, []byte(">x\nAC!T\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seedblast.LoadGenomeFASTA(bad); err == nil {
		t.Error("invalid genome accepted")
	}
}

func TestPublicAPIBaselineProteins(t *testing.T) {
	b0 := seedblast.GenerateProteins(seedblast.ProteinConfig{N: 2, MeanLen: 150, Seed: 12})
	b1 := seedblast.NewBank("s")
	b1.Add("copy", b0.Seq(0))
	ms, err := seedblast.Baseline(b0, b1, seedblast.DefaultBaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].Query != 0 {
		t.Errorf("baseline missed the identical pair: %+v", ms)
	}
}

func TestPublicAPISeedConstructors(t *testing.T) {
	if seedblast.ExactSeed(3).KeySpace() != 8000 {
		t.Error("ExactSeed keyspace wrong")
	}
	m, err := seedblast.SubsetSeed("mix", "exact", "murphy10", "any", "LVIM,C,A,G,ST,P,FYW,EDNQ,KR,H")
	if err != nil {
		t.Fatal(err)
	}
	if m.Width() != 4 || m.KeySpace() != 20*10*1*10 {
		t.Errorf("SubsetSeed shape wrong: w=%d keys=%d", m.Width(), m.KeySpace())
	}
	if _, err := seedblast.SubsetSeed("bad", "notaspec!"); err == nil {
		t.Error("invalid spec accepted")
	}
	// A custom seed must be usable end to end.
	proteins := seedblast.GenerateProteins(seedblast.ProteinConfig{N: 3, MeanLen: 80, Seed: 13})
	genome, _, err := seedblast.GenerateGenome(seedblast.GenomeConfig{
		Length: 10_000, Source: proteins, PlantCount: 1, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	search(t, seedblast.NewProteinTarget(proteins), seedblast.NewGenomeTarget(genome, nil), seedblast.WithSeed(m))
}

package blast

import (
	"testing"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/matrix"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.W = 1 },
		func(c *Config) { c.W = 9 },
		func(c *Config) { c.T = 0 },
		func(c *Config) { c.Matrix = nil },
		func(c *Config) { c.MaxEValue = 0 },
		func(c *Config) { c.TwoHitWindow = 2 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestWordKey(t *testing.T) {
	k1, ok := wordKey(alphabet.MustEncodeProtein("ARN"))
	if !ok {
		t.Fatal("standard word rejected")
	}
	k2, _ := wordKey(alphabet.MustEncodeProtein("ARN"))
	if k1 != k2 {
		t.Error("same word different keys")
	}
	if _, ok := wordKey(alphabet.MustEncodeProtein("AXN")); ok {
		t.Error("ambiguous word accepted")
	}
}

func TestBuildLookupContainsIdentityWord(t *testing.T) {
	cfg := DefaultConfig()
	query := alphabet.MustEncodeProtein("WWWARN")
	lut := buildLookup(query, &cfg)
	// WWW scores 33 ≥ T with itself; position 0 must be indexed.
	k, _ := wordKey(alphabet.MustEncodeProtein("WWW"))
	found := false
	for _, p := range lut.buckets[k] {
		if p == 0 {
			found = true
		}
	}
	if !found {
		t.Error("identity word missing from lookup")
	}
}

func TestBuildLookupNeighborhood(t *testing.T) {
	cfg := DefaultConfig()
	query := alphabet.MustEncodeProtein("WWW")
	lut := buildLookup(query, &cfg)
	// WWY scores 11+11+2=24 ≥ 11: must be a neighbour.
	k, _ := wordKey(alphabet.MustEncodeProtein("WWY"))
	if len(lut.buckets[k]) == 0 {
		t.Error("WWY missing from WWW neighbourhood")
	}
	// AAA vs WWW scores -9: must not be present.
	k2, _ := wordKey(alphabet.MustEncodeProtein("AAA"))
	if len(lut.buckets[k2]) != 0 {
		t.Error("AAA wrongly in WWW neighbourhood")
	}
}

func TestNeighborhoodRespectsThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.T = 15
	query := alphabet.MustEncodeProtein("ARN")
	lut := buildLookup(query, &cfg)
	for key, positions := range lut.buckets {
		if len(positions) == 0 {
			continue
		}
		// Decode the key back into a word and check its score.
		word := make([]byte, 3)
		k := key
		for i := 2; i >= 0; i-- {
			word[i] = byte(k % 20)
			k /= 20
		}
		score := 0
		for i := 0; i < 3; i++ {
			score += cfg.Matrix.Score(query[i], word[i])
		}
		if score < cfg.T {
			t.Errorf("neighbour %s scores %d < T=%d",
				alphabet.DecodeProtein(word), score, cfg.T)
		}
	}
}

func homologBanks(t *testing.T) (*bank.Bank, *bank.Bank) {
	t.Helper()
	rng := bank.NewRNG(77)
	ancestor := bank.RandomProtein(rng, 200)
	queries := bank.New("q")
	queries.Add("query", ancestor)
	subjects := bank.New("s")
	subjects.Add("homolog", bank.MutateProtein(rng, ancestor, 0.25))
	subjects.Add("decoy", bank.RandomProtein(rng, 200))
	subjects.Add("decoy2", bank.RandomProtein(rng, 200))
	return queries, subjects
}

func TestSearchFindsHomolog(t *testing.T) {
	queries, subjects := homologBanks(t)
	ms, err := Search(queries, subjects, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("homolog not found")
	}
	top := ms[0]
	if top.Subject != 0 {
		t.Errorf("top match subject %d, want 0 (the homolog)", top.Subject)
	}
	if top.EValue > 1e-3 {
		t.Errorf("homolog E-value %g", top.EValue)
	}
	if top.QEnd-top.QStart < 120 {
		t.Errorf("alignment covers only %d residues", top.QEnd-top.QStart)
	}
}

func TestSearchNoFalsePositivesOnRandom(t *testing.T) {
	rng := bank.NewRNG(88)
	queries := bank.New("q")
	subjects := bank.New("s")
	for i := 0; i < 3; i++ {
		queries.Add(string(rune('a'+i)), bank.RandomProtein(rng, 150))
		subjects.Add(string(rune('A'+i)), bank.RandomProtein(rng, 150))
	}
	ms, err := Search(queries, subjects, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("%d chance matches at E ≤ 1e-3 on tiny random banks", len(ms))
	}
}

func TestSearchSkipsShortQueries(t *testing.T) {
	queries := bank.New("q")
	queries.Add("tiny", alphabet.MustEncodeProtein("AR"))
	subjects := bank.New("s")
	subjects.Add("s", bank.RandomProtein(bank.NewRNG(1), 100))
	ms, err := Search(queries, subjects, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Error("matches from a 2-residue query")
	}
}

func TestSearchGenomeFindsPlantedGene(t *testing.T) {
	proteins := bank.GenerateProteins(bank.ProteinConfig{N: 5, MeanLen: 100, Seed: 3})
	genome, genes, err := bank.GenerateGenome(bank.GenomeConfig{
		Length:     30_000,
		Source:     proteins,
		PlantCount: 3,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := SearchGenome(proteins, genome, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range genes {
		found := false
		for _, m := range ms {
			if m.Query != g.ProteinIdx {
				continue
			}
			lo := max(m.NucStart, g.Start)
			hi := min(m.NucEnd, g.Start+g.NucLen)
			if hi-lo >= g.NucLen/2 {
				found = true
				if m.Frame != g.Frame {
					t.Errorf("gene %d frame %s, want %s", gi, m.Frame, g.Frame)
				}
			}
		}
		if !found {
			t.Errorf("planted gene %d not found by baseline", gi)
		}
	}
}

func TestSearchMatchesSorted(t *testing.T) {
	queries, subjects := homologBanks(t)
	// Add a second query to exercise ordering.
	rng := bank.NewRNG(5)
	q2 := bank.MutateProtein(rng, subjects.Seq(0), 0.2)
	queries.Add("q2", q2)
	ms, err := Search(queries, subjects, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Query < ms[i-1].Query {
			t.Fatal("matches not sorted by query")
		}
		if ms[i].Query == ms[i-1].Query && ms[i].EValue < ms[i-1].EValue {
			t.Fatal("matches not sorted by E-value within query")
		}
	}
}

func TestBestRowScore(t *testing.T) {
	// The best score in W's row is the W/W diagonal, 11.
	w := alphabet.MustEncodeProtein("W")[0]
	if got := bestRowScore(matrix.BLOSUM62, w); got != 11 {
		t.Errorf("bestRowScore(W) = %d, want 11", got)
	}
}

func TestScannerStateDoesNotLeakAcrossSubjects(t *testing.T) {
	// Two identical subjects must yield identical matches: diagonal
	// state (epoch-tagged arrays) must reset between subjects.
	rng := bank.NewRNG(321)
	ancestor := bank.RandomProtein(rng, 150)
	queries := bank.New("q")
	queries.Add("q0", ancestor)
	subjects := bank.New("s")
	homolog := bank.MutateProtein(rng, ancestor, 0.2)
	subjects.Add("s0", homolog)
	subjects.Add("s1", homolog) // identical copy
	ms, err := Search(queries, subjects, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var first, second []Match
	for _, m := range ms {
		if m.Subject == 0 {
			first = append(first, m)
		} else {
			second = append(second, m)
		}
	}
	if len(first) != len(second) {
		t.Fatalf("identical subjects matched differently: %d vs %d", len(first), len(second))
	}
	for i := range first {
		a, b := first[i], second[i]
		if a.Score != b.Score || a.QStart != b.QStart || a.SStart != b.SStart {
			t.Errorf("match %d differs between identical subjects", i)
		}
	}
}

// BenchmarkSearchHomolog times the baseline on a homolog_full-shaped
// bank at a tenth of its size: 16 queries of 90..150 aa against 500
// copies of them mutated at 10..50 %. Gapped extension runs once per
// triggering hit, as a LocalBanded pass of one lane.
func BenchmarkSearchHomolog(b *testing.B) {
	rng := bank.NewRNG(3)
	queries, subjects := bank.New("q"), bank.New("s")
	for i := 0; i < 16; i++ {
		queries.Add("q", bank.RandomProtein(rng, 90+4*i))
	}
	for i := 0; i < 500; i++ {
		subjects.Add("h", bank.MutateProtein(rng, queries.Seq(i%16), 0.1+0.1*float64((i/16)%5)))
	}
	cfg := DefaultConfig()
	for b.Loop() {
		if _, err := Search(queries, subjects, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

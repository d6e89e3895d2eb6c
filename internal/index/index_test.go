package index

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/seed"
)

func mkBank(seqs ...string) *bank.Bank {
	b := bank.New("test")
	for i, s := range seqs {
		b.Add(string(rune('a'+i)), alphabet.MustEncodeProtein(s))
	}
	return b
}

func TestBuildSimple(t *testing.T) {
	b := mkBank("ARNDAR")
	ix, err := Build(b, seed.Exact(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Windows: AR NR? — AR(0), RN(1), ND(2), DA(3), AR(4): 5 entries.
	if ix.NumEntries() != 5 {
		t.Fatalf("entries = %d, want 5", ix.NumEntries())
	}
	m := seed.Exact(2)
	key, _ := m.Key(alphabet.MustEncodeProtein("AR"))
	entries, hood := ix.Bucket(key)
	if len(entries) != 2 {
		t.Fatalf("AR bucket = %d entries, want 2", len(entries))
	}
	if entries[0].Off != 0 || entries[1].Off != 4 {
		t.Errorf("AR offsets = %d,%d want 0,4", entries[0].Off, entries[1].Off)
	}
	if len(hood) != 2*ix.SubLen() {
		t.Errorf("neighbourhood block = %d bytes, want %d", len(hood), 2*ix.SubLen())
	}
}

func TestNeighborhoodPadding(t *testing.T) {
	b := mkBank("ARND")
	ix, err := Build(b, seed.Exact(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	m := seed.Exact(2)
	key, _ := m.Key(alphabet.MustEncodeProtein("AR"))
	_, hood := ix.Bucket(key)
	// Window of AR at offset 0 with N=3: XXX ARND X → "XXXARNDX".
	got := alphabet.DecodeProtein(hood[:ix.SubLen()])
	if got != "XXXARNDX" {
		t.Errorf("padded window = %q, want XXXARNDX", got)
	}
}

func TestBuildSkipsAmbiguousWindows(t *testing.T) {
	b := mkBank("ARXND")
	ix, err := Build(b, seed.Exact(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Windows: AR ok, RX no, XN no, ND ok.
	if ix.NumEntries() != 2 {
		t.Errorf("entries = %d, want 2", ix.NumEntries())
	}
}

func TestBuildShortSequences(t *testing.T) {
	b := mkBank("A", "AR", "")
	ix, err := Build(b, seed.Exact(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumEntries() != 0 {
		t.Errorf("short sequences produced %d entries", ix.NumEntries())
	}
}

func TestBuildRejectsNegativeN(t *testing.T) {
	if _, err := Build(mkBank("ARND"), seed.Exact(2), -1); err == nil {
		t.Error("negative N accepted")
	}
}

func TestBucketsPartitionAllWindows(t *testing.T) {
	// Property: total entries == number of indexable windows, and every
	// entry's window really has the bucket's key.
	model := seed.Default()
	f := func(raw []byte) bool {
		seq := make([]byte, len(raw))
		for i, r := range raw {
			seq[i] = r % alphabet.NumStandardAA
		}
		b := bank.New("p")
		b.Add("s", seq)
		ix, err := Build(b, model, 2)
		if err != nil {
			return false
		}
		want := 0
		if len(seq) >= model.Width() {
			want = len(seq) - model.Width() + 1
		}
		if ix.NumEntries() != want {
			return false
		}
		for k := 0; k < model.KeySpace(); k++ {
			entries, _ := ix.Bucket(uint32(k))
			for _, e := range entries {
				key, ok := model.Key(seq[e.Off : int(e.Off)+model.Width()])
				if !ok || key != uint32(k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNeighborhoodMatchesSequence(t *testing.T) {
	rng := bank.NewRNG(17)
	b := bank.New("r")
	b.Add("s0", bank.RandomProtein(rng, 120))
	b.Add("s1", bank.RandomProtein(rng, 75))
	model := seed.Default()
	const n = 5
	ix, err := Build(b, model, n)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < model.KeySpace(); k++ {
		entries, hood := ix.Bucket(uint32(k))
		for i, e := range entries {
			window := hood[i*ix.SubLen() : (i+1)*ix.SubLen()]
			seq := b.Seq(int(e.Seq))
			for j, c := range window {
				p := int(e.Off) - n + j
				want := alphabet.Xaa
				if p >= 0 && p < len(seq) {
					want = seq[p]
				}
				if c != want {
					t.Fatalf("key %d entry %d window[%d] = %d, want %d", k, i, j, c, want)
				}
			}
		}
	}
}

// checkKeys asserts the Keys invariant: exactly the non-empty buckets,
// in ascending order, found here by a full key-space scan.
func checkKeys(t *testing.T, name string, ix *Index) {
	t.Helper()
	var want []uint32
	for k := 0; k < ix.Model().KeySpace(); k++ {
		if ix.BucketLen(uint32(k)) > 0 {
			want = append(want, uint32(k))
		}
	}
	if got := ix.Keys(); !slices.Equal(got, want) {
		t.Fatalf("%s: Keys() = %v, want the %d occupied buckets %v", name, got, len(want), want)
	}
}

// TestIndexKeys pins Keys on every constructor: Build, BuildParallel
// on both sides of the serial fallback, a seeddb image decoded in
// memory and one opened from disk, FilterSeqs (including filters that
// empty buckets), and banks with no indexable window at all.
func TestIndexKeys(t *testing.T) {
	model := seed.Default()
	rng := bank.NewRNG(29)
	small, large := bank.New("small"), bank.New("large")
	for small.TotalResidues() < parallelBuildMinResidues/2 {
		small.Add("s", bank.RandomProtein(rng, 90))
	}
	for large.TotalResidues() < 2*parallelBuildMinResidues {
		large.Add("l", bank.RandomProtein(rng, 150))
	}
	for _, b := range []*bank.Bank{small, large, bank.New("empty"), mkBank("XXXXXXXX", "AXBXC", "")} {
		ix, err := Build(b, model, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkKeys(t, b.Name()+"/Build", ix)
		for _, workers := range []int{1, 2, 3, 8} {
			par, err := BuildParallel(b, model, 4, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkKeys(t, fmt.Sprintf("%s/BuildParallel(%d)", b.Name(), workers), par)
		}
		if b.TotalResidues() == 0 {
			continue // seeddb round trips need a non-empty bank
		}

		path := filepath.Join(t.TempDir(), "keys.seeddb")
		if err := ix.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := loadImage(data)
		if err != nil {
			t.Fatal(err)
		}
		checkKeys(t, b.Name()+"/Load", loaded)
		opened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		checkKeys(t, b.Name()+"/Open", opened)
		if err := opened.Close(); err != nil {
			t.Fatal(err)
		}

		// Keeping every other sequence empties the buckets only the
		// dropped ones fill; keeping none empties them all.
		var half []uint32
		for s := 0; s < b.Len(); s += 2 {
			half = append(half, uint32(s))
		}
		checkKeys(t, b.Name()+"/FilterSeqs(half)", ix.FilterSeqs(half))
		checkKeys(t, b.Name()+"/FilterSeqs(none)", ix.FilterSeqs(nil))
		if got := len(ix.FilterSeqs(nil).Keys()); got != 0 {
			t.Fatalf("%s: empty filter kept %d keys", b.Name(), got)
		}
	}
}

func TestAccessors(t *testing.T) {
	b := mkBank("ARNDARND")
	model := seed.Default()
	ix, err := Build(b, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Bank() != b || ix.Model() != seed.Model(model) {
		t.Error("accessors broken")
	}
	if ix.N() != 3 || ix.SubLen() != model.Width()+6 {
		t.Errorf("N=%d SubLen=%d", ix.N(), ix.SubLen())
	}
	if len(ix.neighborhoods) != ix.NumEntries()*ix.SubLen() {
		t.Errorf("%d window bytes for %d entries of %d", len(ix.neighborhoods), ix.NumEntries(), ix.SubLen())
	}
}

package index

import (
	"bytes"
	"testing"

	"seedblast/internal/bank"
	"seedblast/internal/seed"
)

// FuzzSeedDBLoad drives the seeddb decoder with arbitrary bytes: it
// must reject truncated, corrupted and wrong-version images with an
// error — never panic, never over-allocate on a lying count field.
// Seeded with a valid image (and systematic truncations of it) so the
// fuzzer starts from deep decode paths instead of preamble rejects.
func FuzzSeedDBLoad(f *testing.F) {
	b := bank.GenerateProteins(bank.ProteinConfig{N: 6, MeanLen: 40, Seed: 7})
	ix, err := Build(b, seed.Default(), 3)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{0, 7, 8, dbPreambleLen - 1, dbPreambleLen, dbPreambleLen + 17, len(valid) / 2, len(valid) - 1} {
		if cut <= len(valid) {
			f.Add(valid[:cut])
		}
	}
	// A few targeted mutations as seeds: version, sentinel, meta count
	// region, section table region.
	for _, pos := range []int{8, 12, dbPreambleLen + 2, len(valid) - 9} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0xFF
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := loadImage(data)
		if err != nil {
			return
		}
		// The rare mutations that still decode must yield a usable,
		// self-consistent index: exercise the read surface the engine
		// uses so latent decode bugs surface as failures here, not as
		// panics inside a search.
		checkKeys(t, "loaded", ix)
		for k := 0; k < ix.Model().KeySpace(); k += 97 {
			es, nb := ix.Bucket(uint32(k))
			if len(nb) != len(es)*ix.SubLen() {
				t.Fatalf("bucket %d: %d entries but %d neighborhood bytes", k, len(es), len(nb))
			}
		}
		_ = ix.Fingerprint()
		_ = ix.Close()
	})
}

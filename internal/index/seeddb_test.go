package index

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"seedblast/internal/bank"
	"seedblast/internal/seed"
)

// loadImage decodes a seeddb image from an in-memory buffer, as Open
// does without mmap: corrupt input of any shape must error, never
// panic.
func loadImage(data []byte) (*Index, error) {
	return load(alignedImage(data))
}

func testBank(t *testing.T) *bank.Bank {
	t.Helper()
	return bank.GenerateProteins(bank.ProteinConfig{N: 24, MeanLen: 90, Seed: 41})
}

func buildTestIndex(t *testing.T, b *bank.Bank) *Index {
	t.Helper()
	ix, err := Build(b, seed.Default(), 14)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func writeTestDB(t *testing.T, ix *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.seeddb")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSeedDBRoundTrip pins that a written-and-reloaded index is
// bit-identical to the built one: every array, the bank, the model
// identity and the fingerprint stamp.
func TestSeedDBRoundTrip(t *testing.T) {
	b := testBank(t)
	ix := buildTestIndex(t, b)
	path := writeTestDB(t, ix)

	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()

	if !reflect.DeepEqual(got.bucketStart, ix.bucketStart) {
		t.Error("bucketStart differs after round trip")
	}
	if !reflect.DeepEqual(got.entries, ix.entries) {
		t.Error("entries differ after round trip")
	}
	if !bytes.Equal(got.neighborhoods, ix.neighborhoods) {
		t.Error("neighborhoods differ after round trip")
	}
	if got.N() != ix.N() || got.SubLen() != ix.SubLen() || got.NumEntries() != ix.NumEntries() {
		t.Errorf("geometry differs: N %d/%d SubLen %d/%d entries %d/%d",
			got.N(), ix.N(), got.SubLen(), ix.SubLen(), got.NumEntries(), ix.NumEntries())
	}
	if ModelIdentity(got.Model(), got.N()) != ModelIdentity(ix.Model(), ix.N()) {
		t.Errorf("model identity %q != %q", ModelIdentity(got.Model(), got.N()), ModelIdentity(ix.Model(), ix.N()))
	}
	if got.Fingerprint() != ix.Fingerprint() {
		t.Errorf("fingerprint %q != %q", got.Fingerprint(), ix.Fingerprint())
	}
	gb := got.Bank()
	if gb.Name() != b.Name() || gb.Len() != b.Len() || gb.TotalResidues() != b.TotalResidues() {
		t.Fatalf("bank shape differs: %q %d/%d", gb.Name(), gb.Len(), gb.TotalResidues())
	}
	for i := 0; i < b.Len(); i++ {
		if gb.ID(i) != b.ID(i) || !bytes.Equal(gb.Seq(i), b.Seq(i)) {
			t.Fatalf("bank record %d differs", i)
		}
	}
	// A reconstructed model must key windows identically.
	seq := b.Seq(0)
	w := ix.Model().Width()
	for off := 0; off+w <= len(seq) && off < 50; off++ {
		k0, ok0 := ix.Model().Key(seq[off : off+w])
		k1, ok1 := got.Model().Key(seq[off : off+w])
		if k0 != k1 || ok0 != ok1 {
			t.Fatalf("model keys diverge at offset %d: (%d,%v) vs (%d,%v)", off, k0, ok0, k1, ok1)
		}
	}
}

// TestSeedDBLoadAliasesImage pins the zero-copy contract: the loaded
// index's neighborhood array and bank residues point into the file
// image, not at a second materialized copy.
func TestSeedDBLoadAliasesImage(t *testing.T) {
	ix := buildTestIndex(t, testBank(t))
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := alignedImage(buf.Bytes())
	got, err := loadImage(data)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	within := func(p *byte) bool {
		u := uintptr(unsafe.Pointer(p))
		return u >= lo && u < hi
	}
	if !within(&got.neighborhoods[0]) {
		t.Error("neighborhoods were copied out of the image")
	}
	if !within(&got.Bank().Seq(0)[0]) {
		t.Error("bank residues were copied out of the image")
	}
}

func TestSeedDBWriteToReportsLength(t *testing.T) {
	ix := buildTestIndex(t, testBank(t))
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
}

func TestSeedDBInspect(t *testing.T) {
	b := testBank(t)
	ix := buildTestIndex(t, b)
	path := writeTestDB(t, ix)
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != ix.Fingerprint() {
		t.Errorf("Inspect fingerprint %q != %q", info.Fingerprint, ix.Fingerprint())
	}
	if info.Sequences != b.Len() || info.Residues != int64(b.TotalResidues()) {
		t.Errorf("Inspect bank shape %d/%d, want %d/%d", info.Sequences, info.Residues, b.Len(), b.TotalResidues())
	}
	if info.Entries != int64(ix.NumEntries()) || info.KeySpace != ix.Model().KeySpace() {
		t.Errorf("Inspect index shape %d/%d, want %d/%d", info.Entries, info.KeySpace, ix.NumEntries(), ix.Model().KeySpace())
	}
	if info.N != ix.N() || info.Width != ix.Model().Width() || info.SubLen != ix.SubLen() {
		t.Errorf("Inspect geometry N=%d W=%d SubLen=%d", info.N, info.Width, info.SubLen)
	}
}

func TestSeedDBVerify(t *testing.T) {
	ix := buildTestIndex(t, testBank(t))
	path := writeTestDB(t, ix)
	if err := Verify(path); err != nil {
		t.Fatalf("Verify of a fresh DB: %v", err)
	}
}

// TestSeedDBCorruptionDetected flips one byte in every region of the
// file in turn; each corruption must be reported by Verify, and
// corruption outside the lazily-checked big arrays must already fail
// Open.
func TestSeedDBCorruptionDetected(t *testing.T) {
	ix := buildTestIndex(t, testBank(t))
	path := writeTestDB(t, ix)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One probe byte per region: preamble, meta, and each section.
	probes := []int{9, dbPreambleLen + 4, len(orig) / 3, len(orig) / 2, len(orig) - 3}
	for _, pos := range probes {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0xFF
		bad := filepath.Join(t.TempDir(), "bad.seeddb")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Verify(bad); err == nil {
			t.Errorf("Verify accepted a file with byte %d flipped", pos)
		}
	}
}

func TestSeedDBOpenErrors(t *testing.T) {
	ix := buildTestIndex(t, testBank(t))
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "preamble"},
		{"truncated preamble", full[:10], "preamble"},
		{"truncated meta", full[:dbPreambleLen+8], "meta"},
		{"bad magic", append([]byte("NOTSEEDB"), full[8:]...), "magic"},
		{"truncated body", full[:len(full)-64], ""},
	}
	// Wrong version.
	wv := append([]byte(nil), full...)
	wv[8] = 99
	cases = append(cases, struct {
		name string
		data []byte
		want string
	}{"wrong version", wv, "version"})
	// Foreign byte order.
	bo := append([]byte(nil), full...)
	bo[12], bo[13], bo[14], bo[15] = bo[15], bo[14], bo[13], bo[12]
	cases = append(cases, struct {
		name string
		data []byte
		want string
	}{"byte order", bo, "byte-order"})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadImage(tc.data)
			if err == nil {
				t.Fatalf("Load accepted %s input", tc.name)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSeedDBFingerprintMismatch rewrites a residue without updating
// the stamp: the load-time fingerprint recompute must reject it even
// though the meta block itself is intact.
func TestSeedDBFingerprintMismatch(t *testing.T) {
	ix := buildTestIndex(t, testBank(t))
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The residues section is the file tail; flip its last byte.
	data[len(data)-1] ^= 0x01
	if _, err := loadImage(data); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("Load of a bank-corrupted DB: %v, want fingerprint mismatch", err)
	}
}

// TestSeedDBCloseIdempotent pins Close semantics: built indexes no-op,
// loaded ones release once.
func TestSeedDBCloseIdempotent(t *testing.T) {
	ix := buildTestIndex(t, testBank(t))
	if err := ix.Close(); err != nil {
		t.Errorf("Close of a built index: %v", err)
	}
	got, err := Open(writeTestDB(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Close(); err != nil {
		t.Errorf("first Close: %v", err)
	}
	if err := got.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestSeedDBParallelBuildRoundTrip pins that the parallel builder's
// output survives the disk round trip identically too (it is
// bit-identical to Build by contract).
func TestSeedDBParallelBuildRoundTrip(t *testing.T) {
	b := testBank(t)
	ix, err := BuildParallel(b, seed.Default(), 14, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(writeTestDB(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if !reflect.DeepEqual(got.entries, ix.entries) || !bytes.Equal(got.neighborhoods, ix.neighborhoods) {
		t.Error("parallel-built index differs after round trip")
	}
}

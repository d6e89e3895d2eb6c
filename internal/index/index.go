// Package index implements step 1 of the paper's algorithm: indexing a
// protein bank by seed key. For a seed of width W it builds a table
// with one entry per key; entry k points at the index list ILk of
// sequence offsets where a word with key k occurs (§2.1). The layout is
// CSR-like (a flat entry array plus per-key offsets) so buckets are
// contiguous and cache-friendly, and the W+2N neighbourhood windows the
// ungapped-extension stage consumes are pre-extracted next to their
// entries, mirroring the data flow into the PSC operator. A build
// makes three passes (build.go): it counts keys, scatters the entries
// into their buckets, and writes the windows in entry order, one copy
// from the bank per window that does not cross a sequence end.
package index

import (
	"fmt"
	"slices"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/seed"
)

// Entry locates one seed occurrence.
type Entry struct {
	Seq uint32 // sequence number within the bank
	Off uint32 // residue offset of the seed's first position
}

// Index is the product of step 1 for one bank.
type Index struct {
	bank        *bank.Bank
	model       seed.Model
	n           int // neighbourhood extension on each side
	subLen      int // W + 2N
	bucketStart []uint32
	// keys lists the occupied keys (non-empty buckets) in ascending
	// order, so per-search loops cost the entries the index holds, not
	// its KeySpace. Every constructor fills it in the pass over the
	// bucket table it already makes.
	keys    []uint32
	entries []Entry
	// neighborhoods stores, for entry i, the window
	// [off-N, off+W+N) padded with X at sequence boundaries, at
	// neighborhoods[i*subLen : (i+1)*subLen].
	neighborhoods []byte
	// close releases the storage backing a loaded index (the seeddb
	// file mapping); nil for built indexes. See Open and Close.
	close func() error
	// fingerprint caches the build fingerprint for loaded indexes —
	// the seeddb decoder has already recomputed and verified it
	// against the file stamp, so Fingerprint need not hash the bank a
	// second time. Empty for built indexes (computed on demand).
	fingerprint string
}

// Build indexes every W-wide window of every sequence in b. Windows
// containing ambiguous residues are skipped (they are not indexable
// under the seed model). n is the neighbourhood extension N: the
// ungapped stage scores windows of length W+2N centred on the seed.
// It is BuildParallel at one worker.
func Build(b *bank.Bank, model seed.Model, n int) (*Index, error) {
	return BuildParallel(b, model, n, 1)
}

// errKeyRange reports a seed model returning a key outside its
// declared KeySpace — a model bug that would otherwise corrupt the
// bucket table (or panic mid-build).
func errKeyRange(key uint32, space int) error {
	return fmt.Errorf("index: seed model returned key %d outside its key space %d", key, space)
}

// extractWindow copies seq[start : start+len(dst)] into dst, padding
// positions outside the sequence with X. X scores like an unknown
// residue, matching BLAST's handling of sequence boundaries.
func extractWindow(dst, seq []byte, start int) {
	for i := range dst {
		p := start + i
		if p < 0 || p >= len(seq) {
			dst[i] = alphabet.Xaa
		} else {
			dst[i] = seq[p]
		}
	}
}

// Bank returns the indexed bank.
func (ix *Index) Bank() *bank.Bank { return ix.bank }

// Model returns the seed model the index was built with.
func (ix *Index) Model() seed.Model { return ix.model }

// N returns the neighbourhood extension.
func (ix *Index) N() int { return ix.n }

// SubLen returns the neighbourhood window length W + 2N.
func (ix *Index) SubLen() int { return ix.subLen }

// NumEntries returns the total number of indexed seed occurrences.
func (ix *Index) NumEntries() int { return len(ix.entries) }

// Bucket returns the index list for key k (entries and their
// neighbourhood block, len(entries)*SubLen bytes). Both slices alias
// index storage and must not be modified. The block's capacity runs at
// least to the end of the index's neighbourhood array, so a reader may
// look past the bucket at the windows of later keys (the step-2 kernel
// scans whole lane groups that way and ignores the extra lanes).
func (ix *Index) Bucket(k uint32) ([]Entry, []byte) {
	lo, hi := ix.bucketStart[k], ix.bucketStart[k+1]
	return ix.entries[lo:hi], ix.neighborhoods[int(lo)*ix.subLen : int(hi)*ix.subLen]
}

// BucketLen returns the number of entries for key k without touching
// the entry storage.
func (ix *Index) BucketLen(k uint32) int {
	return int(ix.bucketStart[k+1] - ix.bucketStart[k])
}

// Keys returns the occupied keys — those with a non-empty bucket — in
// ascending order. The slice aliases index storage and must not be
// modified.
func (ix *Index) Keys() []uint32 { return ix.keys }

// KeysIn returns the occupied keys inside [lo, hi), ascending (a
// sub-slice of Keys).
func (ix *Index) KeysIn(lo, hi uint32) []uint32 {
	i, _ := slices.BinarySearch(ix.keys, lo)
	j, _ := slices.BinarySearch(ix.keys, hi)
	return ix.keys[i:j]
}

// Blocked, lane-parallel step-2 kernel (ROADMAP item 1).
//
// The scalar reference scores one (IL0, IL1) window pair at a time,
// performing one 24-stride substitution-table lookup per residue. The
// blocked kernel restructures the same computation the way MMseqs2's
// prefilter and Farrar's striped Smith-Waterman do:
//
//   - Query-residue score rows: the substitution table is re-laid
//     once per worker as 32-byte rows of signed scores (tab), one per
//     query residue code, so a position's scores for every subject
//     residue sit in one row that a table shuffle can index.
//   - Lane parallelism: 32 IL1 windows are scored per call — two
//     16-window tiles transposed into position-major rows eight
//     positions at a time, each position's 32 scores taken from the
//     row with two VPSHUFB lookups and widened to int16 lanes
//     (kernel_amd64.s). The call also returns the mask of lanes that
//     reach the threshold, so the Go side visits passing lanes only.
//     The scanner needs AVX2; other hosts run the scalar reference
//     (see Kernel.resolve).
//   - Cache blocking: the bucket's IL1 windows are walked in blocks of
//     at most blockedTargetBytes of neighbourhood data, with the IL0
//     loop inside the block loop, so every IL0 window of the bucket
//     rescans a block while it is hot in L1/L2.
//   - Short buckets: a bucket of vectorMinIL1 to 31 windows still
//     scans one full group, its extra lanes masked off (scanBucket).
//
// Bit-exactness: each int16 lane computes align.WindowScore exactly
// (saturating adds cannot saturate within the blockedFits bound), so
// the pass mask selects exactly the pairs the scalar kernel keeps, and
// they are emitted without a rescore in its (i, j) order (see
// scanBucket). Run
// falls back to the scalar kernel when a workload's scores could
// overflow the lanes (see blockedFits).
package ungapped

import (
	"math/bits"
	"slices"

	"seedblast/internal/alphabet"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
)

// Kernel names a step-2 inner-loop implementation. It is not an
// option of the search, which always runs KernelAuto: the kernels
// return identical hits, so the choice only ever moved throughput. The
// type stays for the code that must name a kernel — the equivalence
// tests pin KernelBlocked against KernelScalar, experiments.Measure
// pins KernelScalar (the paper's sequential-profile methodology), and
// the benchmark harness passes Config.Kernel through.
type Kernel int

const (
	// KernelAuto picks the blocked kernel whenever Kernel.resolve
	// allows it, the scalar kernel otherwise. The zero value.
	KernelAuto Kernel = iota
	// KernelScalar is the reference implementation: one
	// align.WindowScore call per pair.
	KernelScalar
	// KernelBlocked is the lane-parallel kernel with re-laid score
	// rows and cache blocking. It resolves like KernelAuto, so it still
	// falls back to scalar where resolve says so (results are
	// bit-identical either way).
	KernelBlocked
)

const (
	// tabRows is both the row count and the row length of the signed
	// score table: 32 ≥ NumAA, so a row base is (query residue & 31) << 5
	// and every subject residue code indexes its row.
	tabRows = 32

	// avx2Lanes is the group width of the AVX2 scanner (two YMM
	// registers of int16 lanes), one bit each in its pass mask.
	avx2Lanes = 32

	// blockedMaxWindowScore is the largest window score the int16
	// lanes hold with headroom for one signed score byte below 0x8000,
	// so no saturating add ever saturates. Any real matrix is far
	// below this (BLOSUM62: subLen=32 × max 11 = 352).
	blockedMaxWindowScore = 0x7FFF - 0x7F

	// blockedTargetBytes is the cache-block budget: IL1 windows are
	// walked in blocks whose neighbourhood data fits L1/L2 alongside
	// the score table, so every IL0 window of the bucket rescans a hot
	// block.
	blockedTargetBytes = 32 << 10

	// vectorMinIL1 is the measured crossover below which a bucket runs
	// the scalar sub-path (identical results): one group call costs
	// one to two scalar window scores, and a sweep over small-bucket
	// banks ran fastest at 3 (EXPERIMENTS.md, "Step 2 at AVX2 width").
	vectorMinIL1 = 3
)

// blockedFits reports whether the blocked kernel's int16 lanes can
// represent every reachable window score for this matrix and window
// length. Window scores are zero-clamped running sums, so the maximum
// reachable value is subLen times the largest matrix score.
func blockedFits(m *matrix.Matrix, subLen int) bool {
	ms := m.MaxScore()
	if ms <= 0 {
		// No positive scores: every window scores 0, nothing to overflow.
		return true
	}
	return subLen*ms <= blockedMaxWindowScore
}

// resolve maps the configured kernel to the one that will actually
// run for this workload: the blocked kernel when the host has its
// AVX2 scanner and the workload fits its lanes, the scalar reference
// otherwise — and always for KernelScalar.
func (k Kernel) resolve(m *matrix.Matrix, subLen int) Kernel {
	if k != KernelScalar && hasAVX2 && blockedFits(m, subLen) {
		return KernelBlocked
	}
	return KernelScalar
}

// blockedScratch holds one worker's reusable kernel state: the score
// table and the per-row pending-hit buffers. It is not safe for
// concurrent use; Run gives each worker its own.
type blockedScratch struct {
	// tab is the substitution table re-laid with tabRows-byte rows.
	tab [tabRows * tabRows]int8

	subLen int
	// cut is the threshold minus one, clamped to the int16 lanes: a
	// lane passes when its score exceeds cut.
	cut int
	// best receives the scanner's exact per-lane window scores. Only
	// the pass mask is read on the search path; the lane-exactness
	// tests read best.
	best [avx2Lanes]int16
	// jBlock is the number of IL1 windows per cache block, a multiple
	// of avx2Lanes sized from blockedTargetBytes.
	jBlock int

	nodes []pendNode // pending-hit arena for the current bucket
	rows  [][2]int   // per-IL0-row [head,tail] node indexes, -1 when empty
}

func newBlockedScratch(m *matrix.Matrix, subLen, threshold int) *blockedScratch {
	ks := &blockedScratch{
		subLen: subLen,
		cut:    min(max(threshold, 0), 0x8000) - 1,
	}
	table := m.Table()
	for a := 0; a < alphabet.NumAA; a++ {
		copy(ks.tab[a*tabRows:], table[a*alphabet.NumAA:(a+1)*alphabet.NumAA])
	}
	jb := blockedTargetBytes / subLen
	ks.jBlock = max(jb-jb%avx2Lanes, avx2Lanes)
	return ks
}

// scanBucket scores every (IL0, IL1) pair of one bucket and appends
// the hits to c in exactly the scalar kernel's (i, j) order; done and
// span feed chunk.reserve. The caller guarantees that hood1 has
// capacity for avx2Lanes windows: index.Bucket's window slice runs at
// least to the end of the index's window array, so a short bucket scans
// one full group from its first window and masks off the lanes past its
// end.
//
// Blocks are the outer loop so each block of subject windows is
// rescanned by every IL0 window while hot. Hits from different rows
// then interleave, so they are chained per row (each chain sorted by j:
// blocks, groups and lanes all advance in ascending j) and flushed row
// by row at the end.
func (ks *blockedScratch) scanBucket(c *chunk, done, span uint32, il0 []index.Entry, hood0 []byte, il1 []index.Entry, hood1 []byte) {
	subLen, n1 := ks.subLen, len(il1)
	room := cap(hood1) / subLen
	ks.rows = slices.Grow(ks.rows[:0], len(il0))[:len(il0)]
	for i := range ks.rows {
		ks.rows[i] = [2]int{-1, -1}
	}
	for j0 := 0; j0 < n1; j0 += ks.jBlock {
		end := min(n1, j0+ks.jBlock)
		for i := range il0 {
			w0 := hood0[i*subLen : (i+1)*subLen]
			for g := j0; g < end; g += avx2Lanes {
				base := g
				if base+avx2Lanes > room {
					// Overlapped final group, only ever in the last block
					// of a bucket of ≥ avx2Lanes windows: re-span the last
					// avx2Lanes and skip the lanes already scanned.
					base = end - avx2Lanes
				}
				for mask := ks.group(w0, hood1, base, g-base, end-base); mask != 0; mask &= mask - 1 {
					j := base + bits.TrailingZeros32(mask)
					ks.pendRow(i, int32(j))
				}
			}
		}
	}
	c.reserve(len(ks.nodes), done, span)
	ks.flush(il0, il1, &c.hits)
}

// group scores the avx2Lanes windows of hood1 starting at window base
// against w0, leaving every lane's exact score in ks.best, and returns
// the mask of lanes in [lo, hi) whose score reaches the threshold. hi
// may exceed avx2Lanes: a shift of 32 or more keeps every lane.
func (ks *blockedScratch) group(w0, hood1 []byte, base, lo, hi int) uint32 {
	m := scanGroup32AVX2(&ks.tab, &w0[0], &hood1[base*ks.subLen], ks.subLen, ks.cut, &ks.best)
	return m & (uint32(1)<<hi - 1) &^ (uint32(1)<<lo - 1)
}

// pendNode is a surviving IL1 index j of the current bucket. A row's
// hits arrive in ascending j but interleaved with other rows' hits, so
// each row chains its own.
type pendNode struct {
	j    int32
	next int32 // index of the next hit of the same row, -1 at the tail
}

func (ks *blockedScratch) pendRow(i int, j int32) {
	n := int32(len(ks.nodes))
	ks.nodes = append(ks.nodes, pendNode{j: j, next: -1})
	if ks.rows[i][0] < 0 {
		ks.rows[i][0] = int(n)
	} else {
		ks.nodes[ks.rows[i][1]].next = n
	}
	ks.rows[i][1] = int(n)
}

// flush emits the bucket's pending hits in (i, j) order.
func (ks *blockedScratch) flush(il0, il1 []index.Entry, hits *[]Hit) {
	for i := range ks.rows[:len(il0)] {
		for n := int32(ks.rows[i][0]); n >= 0; n = ks.nodes[n].next {
			*hits = append(*hits, Hit{il0[i], il1[ks.nodes[n].j]})
		}
	}
	ks.nodes = ks.nodes[:0]
}

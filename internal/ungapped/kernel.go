// Blocked, lane-parallel step-2 kernel (ROADMAP item 1).
//
// The scalar reference scores one (IL0, IL1) window pair at a time,
// performing one 24-stride substitution-table lookup per residue. The
// blocked kernel restructures the same computation the way MMseqs2's
// prefilter and Farrar's striped Smith-Waterman do:
//
//   - Query-residue score rows: the substitution table is re-laid
//     once per worker as 256-byte rows biased by +128 into uint8
//     (btab), so the inner loop turns one query residue into a row
//     base with a mask and a shift and then looks subject scores up
//     in that row — no strided 24-wide lookups, no per-pair sign
//     handling.
//   - Lane parallelism: 16 IL1 windows are scored per pass — the
//     windows are transposed into position-major rows eight positions
//     at a time and each position's 16 scores come from two PSHUFB
//     lookups into the 32-byte btab row, exactly the table-shuffle
//     trick MMseqs2's prefilter uses (kernel_amd64.s). The scanner
//     needs SSSE3; other hosts run the scalar reference (see
//     Kernel.resolve).
//   - Cache blocking: the bucket's IL1 windows are walked in blocks of
//     at most blockedTargetBytes of neighbourhood data, with the IL0
//     loop inside the block loop, so every IL0 window of the bucket
//     rescans a block while it is hot in L1/L2.
//
// Bit-exactness: each int16 lane computes align.WindowScore exactly
// (saturating adds cannot saturate within the blockedFits bound), so
// surviving lanes are emitted directly with their exact scores. Hits
// are buffered per IL0 row and flushed in (i, j) order, so the blocked
// kernel is pinned bit-identical — values and order — to the scalar
// path. Run falls back to the scalar kernel when a workload's scores
// could overflow the lanes (see blockedFits).
package ungapped

import (
	"fmt"

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

// String returns the kernel's name.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	case KernelBlocked:
		return "blocked"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

const (
	// btabRows and btabStride shape the biased score table: 32 ≥
	// NumAA rows of 256 bytes, both powers of two, so a row base is
	// (query residue & 31) << 8 and any subject byte indexes the row
	// without masking: base+byte ≤ 31·256+255 < len(btab).
	btabRows   = 32
	btabStride = 256

	// ssse3Lanes is the group width of the PSHUFB-based scanner (two
	// XMM registers of int16 lanes).
	ssse3Lanes = 16

	// blockedMaxWindowScore is the largest window score the int16
	// lanes hold with headroom for two biased score bytes (≤ 2×0xFF)
	// below 0x8000, so no saturating add ever saturates. Any real
	// matrix is far below this (BLOSUM62: subLen=32 × max 11 = 352).
	blockedMaxWindowScore = 0x7FFF - 0x1FF

	// blockedTargetBytes is the cache-block budget: IL1 windows are
	// walked in blocks whose neighbourhood data fits L1/L2 alongside
	// the score table, so every IL0 window of the bucket rescans a hot
	// block.
	blockedTargetBytes = 32 << 10

	// blockedMinIL1 is the per-bucket lane-occupancy heuristic:
	// buckets with fewer IL1 windows than this run the scalar
	// sub-path (identical results) rather than paying group setup
	// for mostly-empty lanes. One full group is also what the
	// overlapped final group needs as a span of real windows behind it.
	blockedMinIL1 = ssse3Lanes
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
// SSSE3 scanner and the workload fits its lanes, the scalar reference
// otherwise — and always for KernelScalar.
func (k Kernel) resolve(m *matrix.Matrix, subLen int) Kernel {
	if k != KernelScalar && hasSSSE3 && blockedFits(m, subLen) {
		return KernelBlocked
	}
	return KernelScalar
}

// pendHit is a surviving (j, score) pair buffered per IL0 row so the
// blocked traversal can emit hits in the scalar (i, j) order.
type pendHit struct {
	j     int32
	score int32
}

// blockedScratch holds one worker's reusable kernel state: the biased
// score table and the per-row pending-hit buffers. It is not safe for
// concurrent use; Run gives each worker its own.
type blockedScratch struct {
	// btab is the substitution table biased by +128 into uint8 and
	// re-laid with btabStride-byte rows (see the btabRows comment).
	btab [btabRows * btabStride]uint8

	subLen    int
	threshold int
	// best receives the scanner's exact per-lane window scores.
	best [ssse3Lanes]int16
	// jBlock is the number of IL1 windows per cache block, a multiple
	// of ssse3Lanes sized from blockedTargetBytes.
	jBlock int

	nodes []pendNode // pending-hit arena for the current bucket
	rows  [][2]int   // per-IL0-row [head,tail] node indexes, -1 when empty
}

func newBlockedScratch(m *matrix.Matrix, subLen, threshold int) *blockedScratch {
	ks := &blockedScratch{
		subLen:    subLen,
		threshold: threshold,
	}
	table := m.Table()
	for a := 0; a < alphabet.NumAA; a++ {
		for b := 0; b < alphabet.NumAA; b++ {
			ks.btab[a*btabStride+b] = uint8(int(table[a*alphabet.NumAA+b]) + 128)
		}
	}
	jb := blockedTargetBytes / subLen
	jb -= jb % ssse3Lanes
	ks.jBlock = max(jb, ssse3Lanes)
	return ks
}

// scanBucket scores every (IL0, IL1) pair of one bucket with the
// blocked kernel and leaves the survivors pending; it returns how many
// there are, so the caller can make room once before flush appends
// them in exactly the scalar kernel's (i, j) order.
func (ks *blockedScratch) scanBucket(il0 []index.Entry, hood0 []byte, il1 []index.Entry, hood1 []byte) int {
	subLen := ks.subLen
	n0, n1 := len(il0), len(il1)

	ks.nodes = ks.nodes[:0]
	if cap(ks.rows) < n0 {
		ks.rows = make([][2]int, n0)
	}
	ks.rows = ks.rows[:n0]
	for i := range ks.rows {
		ks.rows[i] = [2]int{-1, -1}
	}

	// Blocks are the outer loop so each block of subject windows is
	// rescanned by every IL0 window while hot. Hits from different
	// rows interleave in the arena, but each row's chain stays sorted
	// by j (blocks advance in ascending j0; groups and lanes advance
	// in ascending j), so the per-row flush reproduces the scalar
	// (i, j) emission order exactly.
	for j0 := 0; j0 < n1; j0 += ks.jBlock {
		jn := min(n1-j0, ks.jBlock)
		for i := 0; i < n0; i++ {
			w0 := hood0[i*subLen : (i+1)*subLen]
			g := 0
			for ; g+ssse3Lanes <= jn; g += ssse3Lanes {
				ks.scanSpan(i, w0, hood1, j0+g, 0)
			}
			if g < jn {
				// Overlapped final group: re-span the last ssse3Lanes
				// windows ending at the block edge and skip the lanes
				// already scanned — possibly reaching into the previous
				// block, whose windows this row has already scored.
				// n1 ≥ blockedMinIL1 = ssse3Lanes keeps the span in
				// bounds.
				base := j0 + jn - ssse3Lanes
				ks.scanSpan(i, w0, hood1, base, j0+g-base)
			}
		}
	}
	return len(ks.nodes)
}

// scanSpan scores the ssse3Lanes IL1 windows starting at window base
// against IL0 row i and queues those whose exact score reaches the
// threshold, ignoring the first skip lanes (already scanned by earlier
// groups).
func (ks *blockedScratch) scanSpan(i int, w0, hood1 []byte, base, skip int) {
	scanGroup16SSSE3(&ks.btab[0], &w0[0], &hood1[base*ks.subLen], ks.subLen, &ks.best)
	for l := skip; l < ssse3Lanes; l++ {
		if score := int(ks.best[l]); score >= ks.threshold {
			ks.pendRow(i, pendHit{j: int32(base + l), score: int32(score)})
		}
	}
}

// Row-grouped pending storage. Hits for one row arrive in ascending j
// across blocks but interleaved with other rows; rows chains them.
type pendNode struct {
	hit  pendHit
	next int32 // index of the next hit of the same row, -1 at the tail
}

func (ks *blockedScratch) pendRow(i int, h pendHit) {
	n := int32(len(ks.nodes))
	ks.nodes = append(ks.nodes, pendNode{hit: h, next: -1})
	if ks.rows[i][0] < 0 {
		ks.rows[i][0] = int(n)
	} else {
		ks.nodes[ks.rows[i][1]].next = n
	}
	ks.rows[i][1] = int(n)
}

// flush emits the bucket's pending hits in (i, j) order.
func (ks *blockedScratch) flush(key uint32, il0, il1 []index.Entry, hits *[]Hit) {
	subLen := int32(ks.subLen)
	for i := range ks.rows[:len(il0)] {
		for n := int32(ks.rows[i][0]); n >= 0; {
			nd := &ks.nodes[n]
			*hits = append(*hits, Hit{
				Key:    key,
				E0:     il0[i],
				E1:     il1[nd.hit.j],
				Score:  nd.hit.score,
				SubLen: subLen,
			})
			n = nd.next
		}
	}
	ks.nodes = ks.nodes[:0]
}

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
//     base with a mask and a shift and then gathers subject scores
//     with single byte loads — no strided 24-wide lookups, no
//     per-pair sign handling, and the row padding makes every gather
//     index provably in bounds so the loop is bounds-check-free.
//   - Lane parallelism: on amd64 with SSSE3, 16 IL1 windows are
//     scored per pass — the windows are transposed into position-major
//     rows eight positions at a time and each position's 16 scores
//     come from two PSHUFB lookups into the 32-byte btab row, exactly
//     the table-shuffle trick MMseqs2's prefilter uses. On pre-SSSE3
//     amd64, 8 windows per pass with PINSRW score gathers (SSE2, the
//     amd64 baseline). Both asm paths compute the exact zero-clamped
//     running sum per int16 lane (kernel_amd64.s). Elsewhere, 4 IL1
//     windows are scored per pass using int16 lanes packed into one
//     uint64 word (portable SWAR — plain Go that any GOARCH compiles
//     well, sized so the whole loop state stays in registers), with
//     two window positions fused per step.
//   - Cache blocking: the bucket's IL1 windows are walked in blocks of
//     at most blockedTargetBytes of neighbourhood data, with the IL0
//     loop inside the block loop, so every IL0 window of the bucket
//     rescans a block while it is hot in L1/L2.
//
// Bit-exactness, asm path: the SSE2 lanes compute align.WindowScore
// exactly (saturating adds cannot saturate within the blockedFits
// bound), so surviving lanes are emitted directly with their exact
// scores.
//
// Bit-exactness, portable path: each lane runs a conservative
// relaxation of the scalar recurrence (the zero-clamped running sum)
// and flags lanes whose running bound ever reaches the threshold. Fusing two
// positions per step uses
//
//	max(max(s+p1, 0)+p2, 0) = max(s+p1+p2, p2, 0) ≤ max(s+p1+p2, C, 0)
//
// with C the matrix's maximum score; tracking q = s − C turns the
// right-hand side back into the plain clamp q' = max(q+p1+p2, 0),
// with q ≤ s ≤ q+C as an invariant. A lane's flag therefore fires
// for every window whose true best reaches the threshold (no hit is
// ever missed) and possibly for windows within C of it. Flagged
// lanes (rare at real thresholds) are rescored with
// align.WindowScore, whose exact threshold test filters the
// overshoot — that recheck in extract is load-bearing, not
// defensive. Hits are buffered per IL0 row and flushed in (i, j)
// order, so the blocked kernel is pinned bit-identical — values and
// order — to the scalar path. The SWAR arithmetic never carries
// across lanes as long as subLen·maxScore ≤ blockedMaxWindowScore;
// Run falls back to the scalar kernel when a workload violates that
// bound (see blockedFits).
package ungapped

import (
	"fmt"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
)

// Kernel selects the step-2 inner-loop implementation.
type Kernel int

const (
	// KernelAuto picks the blocked kernel whenever the workload fits
	// its arithmetic bounds, the scalar kernel otherwise. The zero
	// value, so existing Configs keep working.
	KernelAuto Kernel = iota
	// KernelScalar is the reference implementation: one
	// align.WindowScore call per pair.
	KernelScalar
	// KernelBlocked is the lane-parallel kernel with re-laid score
	// rows and cache blocking. Requesting it explicitly still falls back
	// to scalar when the workload's score bound does not fit int16
	// lanes (results are bit-identical either way).
	KernelBlocked
)

// String returns the kernel's selector name as used by ParseKernel.
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

// ParseKernel resolves a kernel selector name; the empty string means
// auto.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "scalar":
		return KernelScalar, nil
	case "blocked":
		return KernelBlocked, nil
	}
	return KernelAuto, fmt.Errorf("ungapped: unknown kernel %q (want auto, scalar or blocked)", s)
}

const (
	// btabRows and btabStride shape the biased score table: 32 ≥
	// NumAA rows of 256 bytes, both powers of two, so a row base is
	// (query residue & 31) << 8 and any subject byte indexes the row
	// without masking — base+byte ≤ 31·256+255 < len(btab), which the
	// compiler proves, making every gather bounds-check-free.
	btabRows   = 32
	btabStride = 256
	btabShift  = 8 // log2(btabStride), so row bases are a masked shift

	// groupLanes is the portable SWAR shape: 4 int16 lanes in one
	// uint64 word, 4 subject windows per group. One word keeps the
	// whole scan state (window pointers, running scores, flags) in
	// registers.
	groupLanes = 4

	// asmLanes is the group width of the SSE2 scanner (one XMM
	// register of int16 lanes), the amd64 fallback on pre-SSSE3 CPUs.
	asmLanes = 8

	// ssse3Lanes is the group width of the PSHUFB-based scanner (two
	// XMM registers of int16 lanes), the widest and fastest path. Also
	// the size of the shared best buffer, being the maximum width.
	ssse3Lanes = 16

	// blockedMaxWindowScore is the largest window score the int16
	// lanes can represent without the biased compare tricks carrying
	// across lanes: running scores plus two biased score bytes
	// (≤ 2×0xFF) must stay below 0x8000. Any real matrix is far below
	// this (BLOSUM62: subLen=32 × max 11 = 352).
	blockedMaxWindowScore = 0x7FFF - 0x1FF

	// blockedTargetBytes is the cache-block budget: IL1 windows are
	// walked in blocks whose neighbourhood data fits L1/L2 alongside
	// the score table, so every IL0 window of the bucket rescans a hot
	// block.
	blockedTargetBytes = 32 << 10

	// blockedMinIL1 is the per-bucket lane-occupancy heuristic:
	// buckets with fewer IL1 windows than this run the scalar
	// sub-path (identical results) rather than paying group setup
	// for mostly-empty lanes. The effective minimum is
	// max(blockedMinIL1, lanes) — see blockedScratch.minIL1 — so the
	// overlapped final group always has a full span of real windows
	// behind it whatever the lane width.
	blockedMinIL1 = 8
)

// SWAR lane masks: the sign bit, the +128 single-position bias and
// the +256 fused-pair bias replicated across the four int16 lanes of
// a word.
const (
	laneHi    uint64 = 0x8000_8000_8000_8000
	laneBias  uint64 = 0x0080_0080_0080_0080
	laneBias2 uint64 = 0x0100_0100_0100_0100
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
// run for this workload.
func (k Kernel) resolve(m *matrix.Matrix, subLen int) Kernel {
	switch k {
	case KernelScalar:
		return KernelScalar
	default: // KernelAuto, KernelBlocked, or out-of-range values
		if blockedFits(m, subLen) {
			return KernelBlocked
		}
		return KernelScalar
	}
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
	// re-laid with btabStride-byte rows (see the btabRows comment for
	// why the padding makes the hot loop bounds-check-free).
	btab [btabRows * btabStride]uint8

	m         *matrix.Matrix
	subLen    int
	threshold int
	// thrNegMid and thrNegEnd are 0x8000 − clamp(flag threshold)
	// replicated across lanes: adding one to a lane's running value
	// sets the lane's bit 15 exactly when the value reached the
	// corresponding flag threshold, so each flag test is a single
	// add+or per word. The mid threshold checks the fused step's
	// intermediate sum q+p'1 (bias +128) so peaks at odd positions
	// are never missed; the end threshold checks the pair-end bound
	// q. Both shift down by the matrix maximum C because the lanes
	// track q = s − C.
	thrNegMid uint64
	thrNegEnd uint64
	// lanes is the group width: ssse3Lanes or asmLanes when an exact
	// architecture-specific scanner is in use, groupLanes for the
	// portable SWAR pass.
	lanes int
	// minIL1 is the effective per-bucket occupancy floor,
	// max(blockedMinIL1, lanes).
	minIL1 int
	// best receives the architecture-specific scanners' exact
	// per-lane window scores (the SSE2 scanner fills the first
	// asmLanes entries only).
	best [ssse3Lanes]int16
	// jBlock is the number of IL1 windows per cache block, a multiple
	// of lanes sized from blockedTargetBytes.
	jBlock int

	nodes []pendNode // pending-hit arena for the current bucket
	rows  [][2]int   // per-IL0-row [head,tail] node indexes, -1 when empty
}

// kernelLaneCap is a test hook: when nonzero, it caps the lane width
// picked by newBlockedScratch (groupLanes forces the portable SWAR
// pass, asmLanes the SSE2 scanner on amd64), so the narrower paths
// stay covered on machines whose hardware would pick a wider one.
var kernelLaneCap int

func newBlockedScratch(m *matrix.Matrix, subLen, threshold int) *blockedScratch {
	ks := &blockedScratch{
		m:         m,
		subLen:    subLen,
		threshold: threshold,
	}
	table := m.Table()
	for a := 0; a < alphabet.NumAA; a++ {
		for b := 0; b < alphabet.NumAA; b++ {
			ks.btab[a*btabStride+b] = uint8(int(table[a*alphabet.NumAA+b]) + 128)
		}
	}
	// The lanes track q = s − C (C = positive part of the matrix
	// maximum), so both flag thresholds shift down by C; the mid test
	// additionally sees the +128 single-byte bias. Clamped below to 0
	// (every position flags; extract still filters exactly) and above
	// to 0x7FFF (no position flags, which is right because such
	// thresholds are unreachable inside the lanes' score bound).
	c := m.MaxScore()
	if c < 0 {
		c = 0
	}
	pack := func(flagThr int) uint64 {
		if flagThr < 0 {
			flagThr = 0
		}
		if flagThr > 0x7FFF {
			flagThr = 0x7FFF
		}
		t := uint64(uint16(0x8000 - flagThr))
		return t | t<<16 | t<<32 | t<<48
	}
	ks.thrNegMid = pack(threshold - c + 128)
	ks.thrNegEnd = pack(threshold - c)

	ks.lanes = groupLanes
	if hasAsmKernel {
		ks.lanes = asmLanes
		if hasSSSE3 {
			ks.lanes = ssse3Lanes
		}
	}
	if kernelLaneCap != 0 && kernelLaneCap < ks.lanes {
		ks.lanes = kernelLaneCap
	}
	ks.minIL1 = blockedMinIL1
	if ks.lanes > ks.minIL1 {
		ks.minIL1 = ks.lanes
	}
	jb := blockedTargetBytes / subLen
	jb -= jb % ks.lanes
	if jb < ks.lanes {
		jb = ks.lanes
	}
	ks.jBlock = jb
	return ks
}

// scanGroup4 runs one IL0 window over 4 consecutive IL1
// windows starting at window base, two positions per step: each int16
// lane maintains the fused clamp recurrence q' = max(q + p1 + p2, 0)
// described in the package comment — a lower-shifted upper bound on
// the scalar zero-clamped running sum — and accumulates a per-lane
// flag recording whether the bound ever reached the (shifted)
// threshold, checking both the fused step's intermediate sum (the
// running score at the odd position) and its end value, so a peak at
// any position fires the flag. The flag is conservative: it fires
// for every window align.WindowScore would pass and possibly for
// windows whose best is within maxScore of the threshold; extract's
// exact rescore filters those.
//
// Lane math, for biased score bytes p' = p+128 ∈ [0, 255] and
// running bounds q ≤ blockedMaxWindowScore:
//
//	t  = q + p'1                  // true q + p1, + 128 bias; ≤ 0x7FFF
//	f |= t + (0x8000 - thrMid)    // bit 15 set iff t ≥ thrMid
//	u  = t + p'2                  // true q + p1 + p2, + 256 bias
//	d  = (u | 0x8000) - 256       // bit 15 set iff u ≥ 256 (bound ≥ 0)
//	m  = d & 0x8000
//	q' = d & (m - (m>>15))        // max(u-256, 0): m - (m>>15) is
//	                              // 0x7FFF where the lane stayed
//	                              // positive, 0 where not
//	f |= q' + (0x8000 - thrEnd)   // bit 15 set iff q' ≥ thrEnd
//
// An odd final position runs the same step with an all-zero second
// score (p'2 = 128, exact). No step carries across lanes because
// every intermediate stays within its 16 bits (see
// blockedMaxWindowScore). Bits of f other than each lane's bit 15
// are meaningless; the return masks them off.
func (ks *blockedScratch) scanGroup4(w0, hood1 []byte, base int) uint64 {
	subLen := ks.subLen
	btab := &ks.btab
	thrNegMid, thrNegEnd := ks.thrNegMid, ks.thrNegEnd

	// Exact-length window slices: [:subLen] re-slicing pins each
	// length to the loop bound so the k indexing below is check-free,
	// and gather indexes row+byte stay below len(btab) by the btabRows
	// padding, so the loop body has no bounds checks at all.
	h := hood1[base*subLen:]
	wa := h[:subLen]
	wb := h[subLen:][:subLen]
	wc := h[2*subLen:][:subLen]
	wd := h[3*subLen:][:subLen]
	w := w0[:subLen]

	var q, f uint64
	k := 0
	// The k < len(w)-1 guard form (rather than k+2 <= len(w)) is what
	// lets the compiler prove k and k+1 in bounds and drop every check
	// in the loop body.
	for ; k < len(w)-1; k += 2 {
		r0 := int(w[k]&31) << btabShift
		r1 := int(w[k+1]&31) << btabShift
		p1 := uint64(btab[r0+int(wa[k])]) | uint64(btab[r0+int(wb[k])])<<16 |
			uint64(btab[r0+int(wc[k])])<<32 | uint64(btab[r0+int(wd[k])])<<48
		p2 := uint64(btab[r1+int(wa[k+1])]) | uint64(btab[r1+int(wb[k+1])])<<16 |
			uint64(btab[r1+int(wc[k+1])])<<32 | uint64(btab[r1+int(wd[k+1])])<<48

		t := q + p1
		f |= t + thrNegMid
		d := ((t + p2) | laneHi) - laneBias2
		m := d & laneHi
		q = d & (m - (m >> 15))
		f |= q + thrNegEnd
	}
	if k < len(w) {
		r0 := int(w[k]&31) << btabShift
		p1 := uint64(btab[r0+int(wa[k])]) | uint64(btab[r0+int(wb[k])])<<16 |
			uint64(btab[r0+int(wc[k])])<<32 | uint64(btab[r0+int(wd[k])])<<48

		d := ((q + p1 + laneBias) | laneHi) - laneBias2
		m := d & laneHi
		q = d & (m - (m >> 15))
		f |= q + thrNegEnd
	}
	return f & laneHi
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
		jn := n1 - j0
		if jn > ks.jBlock {
			jn = ks.jBlock
		}
		lanes := ks.lanes
		for i := 0; i < n0; i++ {
			w0 := hood0[i*subLen : (i+1)*subLen]
			g := 0
			for ; g+lanes <= jn; g += lanes {
				ks.scanSpan(i, w0, hood1, j0+g, 0)
			}
			if g < jn {
				// Overlapped final group: re-span the last lanes
				// windows ending at the block edge and skip the lanes
				// already scanned — possibly reaching into the previous
				// block, whose windows this row has already scored.
				// n1 ≥ minIL1 ≥ lanes keeps the span in bounds.
				base := j0 + jn - lanes
				ks.scanSpan(i, w0, hood1, base, j0+g-base)
			}
		}
	}
	return len(ks.nodes)
}

// scanSpan scores one lanes-wide group of IL1 windows starting at
// window base against IL0 row i and queues surviving windows, ignoring
// the first skip lanes (already scanned by earlier groups). The asm
// scanner returns exact scores, so its lanes are emitted directly; the
// portable pass returns conservative flags that extract rescores.
func (ks *blockedScratch) scanSpan(i int, w0, hood1 []byte, base, skip int) {
	switch ks.lanes {
	case ssse3Lanes:
		scanGroup16SSSE3(&ks.btab[0], &w0[0], &hood1[base*ks.subLen], ks.subLen, &ks.best)
	case asmLanes:
		scanGroup8SSE(&ks.btab[0], &w0[0], &hood1[base*ks.subLen], ks.subLen, (*[asmLanes]int16)(ks.best[:asmLanes]))
	default:
		if f := ks.scanGroup4(w0, hood1, base); f != 0 {
			ks.extract(i, w0, hood1, base, skip, f)
		}
		return
	}
	for l := skip; l < ks.lanes; l++ {
		if score := int(ks.best[l]); score >= ks.threshold {
			ks.pendRow(i, pendHit{j: int32(base + l), score: int32(score)})
		}
	}
}

// extract rescores the flagged lanes of one group with the scalar
// reference and queues threshold-passing windows on the row's pending
// chain. The exact score test here is what turns the flag pass's
// conservative over-approximation into bit-identical results. The
// first skip lanes were already scanned by earlier groups and are
// ignored.
func (ks *blockedScratch) extract(i int, w0, hood1 []byte, base, skip int, f uint64) {
	subLen := ks.subLen
	for l := skip; l < groupLanes; l++ {
		if f>>(l*16+15)&1 == 0 {
			continue
		}
		j := base + l
		w1 := hood1[j*subLen : (j+1)*subLen]
		if score := align.WindowScore(w0, w1, ks.m); score >= ks.threshold {
			ks.pendRow(i, pendHit{j: int32(j), score: int32(score)})
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

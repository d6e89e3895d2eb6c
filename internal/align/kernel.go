// The step-3 kernel: an exact lane-parallel implementation of the
// banded score pass (bandedEndScalar is the reference).
//
// Contract. For every (a, b, diag, band) the kernel path returns the
// Score, AEnd and BEnd the scalar loop returns: the maximum of H over
// the cells that are both in the band and in the matrix, and the first
// such cell in row-major order that attains it. LocalBandedEnd chooses
// it per call (see Fallback); no caller and no option does.
//
// Layout. The band is held in diagonal coordinates: lane k of a row is
// the cell on diagonal dlo+k, so a row is W = dhi-dlo+1 int16 lanes
// (the band clipped to the diagonals that cross the matrix, padded to
// whole 8-lane vectors) and the band slides one subject residue to the
// right per row. In these coordinates the diagonal predecessor of a
// cell is the same lane of the row above, the vertical predecessor is
// lane k+1 of the row above (one unaligned load), and the horizontal
// predecessor is lane k-1 of the same row. The query residue is
// constant along a row, so the row's scores come from one 32-byte
// table row through two PSHUFB lookups of the subject bytes under the
// lanes. The horizontal gap state F is an inclusive max-plus prefix
// scan of H-open-extend along the row, decaying by extend per lane:
// three doubling steps inside a vector and a one-lane carry between
// vectors. Scanning H before F is applied is exact because opening a
// second gap from a cell that was itself reached by a horizontal gap
// costs Open ≥ 0 more than extending the first.
//
// No masks on E and F. H is clamped at 0, so E and F matter only when
// positive, and every non-positive value stands for the scalar loop's
// negInf: subtracting gap costs from it keeps it non-positive, and
// max() with it changes nothing that is positive. The kernel subtracts
// gap costs with unsigned saturation, so E and F bottom out at 0: the
// lanes start at 0 instead of -∞, byte shifts may shift zeros in,
// cells left of the band or above the matrix need no special case, and
// max(H+score, E) needs no separate clamp at 0.
//
// Matrix edges. The subject is copied between two runs of a padding
// code that scores -128 against everything. Left of column 1 every
// lane therefore stays at H = 0 by induction (its three predecessors
// are 0 or non-positive), which is what the scalar loop reads there.
// Right of the last column a lane can hold a positive value, but only
// one derived from an in-matrix cell earlier in row-major order minus
// a positive amount (128, or a gap cost), and it feeds no in-matrix
// cell (no predecessor relation goes left in column terms); so it can
// neither reach nor tie the running maximum. Lanes right of the band
// (vector padding) are different — lane W is the vertical predecessor
// of lane W-1 — and are masked to 0 in H.
//
// Kept rows, end cell and start cell. Each row's H, E and F lanes are
// kept (3 × rows × lanes × 2 bytes of scratch). The kernel tracks the
// running maximum and the first row that reached it; the first lane
// of that row holding it is the scalar loop's end cell. A kept E or F
// lane is the scalar loop's value when that is positive, else 0.
// LocalBandedStart walks back from the end cell along tight edges (H
// from its diagonal predecessor, E or F; E from H-open-extend or
// E-extend one row up, lane k+1; F likewise one lane left) to starts,
// H cells whose diagonal predecessor is 0 and whose value is their
// substitution score, and returns the lexicographically largest. That
// is the cell the scalar reverse pass returns: every alignment scoring
// end.Score inside the band and the prefix rectangle ends at the end
// cell, or an earlier cell in row-major order would attain it; every
// prefix of an optimal alignment is optimal, so those alignments are
// the tight-edge paths, with positive values in every state (a prefix
// scoring ≤ 0 could be dropped); and the reverse pass stops at the
// first reversed row, then lane, reaching end.Score: the largest
// AStart, then BStart. No edge raises the row-major position, so the
// walk prunes cells not after its best start; it follows a unique
// predecessor inline, pushes only ties and, from the first tie on,
// marks (cell, state) in a bitset, so that ties cannot blow it up.
//
// Fallback. Lanes are int16, and no value that matters may saturate.
// A call runs the scalar loop instead when min(len(a), len(b))·MaxScore
// could exceed the lanes, when the gap costs are negative, zero-extend
// or huge, when the clipped band is wider than kernelMaxLanes (the
// scratch bound), when a residue is not a protein code (the scalar
// loop panics on those, and keeps doing so), or when the CPU lacks
// SSE4.1. A start whose score pass ran the scalar loop, or that does
// not directly follow its score pass, is recovered by the scalar loop
// run over the reversed prefixes.
//
// There is no portable SWAR variant and no selector: a band-coordinate
// scalar rewrite measured within 3 % of the plain loop (the loop-
// carried F chain binds scalar code, not the addressing), and an exact
// kernel leaves a user nothing to choose.
package align

import (
	"encoding/binary"
	"math"
	"unsafe"

	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
)

const (
	// kernelTabRows × kernelTabStride is the score table the kernel
	// reads: row a holds Score(a, c) for the 24 protein codes c and
	// kernelPadScore for codes 24..31, so that a row is exactly the
	// two 16-byte halves the PSHUFB lookups take.
	kernelTabRows   = alphabet.NumAA
	kernelTabStride = 32
	// kernelPad is the residue code the subject copy is padded with;
	// kernelPadScore is what it scores against every residue.
	kernelPad      = 31
	kernelPadScore = -128
	// kernelLanes is the vector width in int16 lanes.
	kernelLanes = 8
	// kernelMaxGap bounds open+extend so that eight lanes of extension
	// (the scan's ramp) stay inside int16.
	kernelMaxGap = math.MaxInt16 / kernelLanes
	// kernelMaxLanes bounds the clipped band width the kernel takes,
	// and with it the H scratch (rows × lanes × 2 bytes); the gapped
	// stage's bands are 33 lanes.
	kernelMaxLanes = 1024
)

// bandedArgs is the argument block of bandedRowsSSE41. kernel_amd64.s
// addresses its fields by offset, so the two change together.
type bandedArgs struct {
	a      unsafe.Pointer // query residue of the first row
	b      unsafe.Pointer // padded subject: the byte under lane 0 of the first row
	tab    unsafe.Pointer // kernelTabRows rows of kernelTabStride score bytes
	h      unsafe.Pointer // H rows of stride bytes each; row 0 is the zero row above the first
	e      unsafe.Pointer // E rows, laid out like h; row 0 zero
	f      unsafe.Pointer // F rows, laid out like h; row 0 unused
	mask   unsafe.Pointer // nvec·8 lanes: all ones inside the band, 0 right of it
	rows   int            // rows to run, ≥ 1; counted down by the kernel
	nvec   int            // 8-lane vectors per row, ≥ 1
	stride int            // bytes between rows, ≥ (nvec·8+1)·2
	oe     int            // gap open + extend
	ext    int            // gap extend
	// Results.
	best    int // maximum of H over all rows run
	bestRem int // value of rows when the row that first reached best started
	bad     int // 1 when a query residue ≥ alphabet.NumAA was met; nothing else is valid then
}

// bandedKernel is the per-Aligner state of the kernel path.
type bandedKernel struct {
	ok       bool // gap costs and matrix admit the kernel at all
	maxScore int  // largest matrix score, clamped at 0
	tab      [kernelTabRows * kernelTabStride]int8

	bpad    []byte  // padded subject
	h, e, f []int16 // H, E and F rows, stride lanes apart; row 0 is above the first

	// The last score pass, as LocalBandedStart's walk needs it: its
	// arguments and result (end.Score 0 when there is nothing to walk),
	// the first row's query index i0, the first lane's diagonal dlo and
	// the row stride in lanes.
	a, b            []byte
	diag, band      int
	end             Local
	i0, dlo, stride int
	seen            []uint64 // the walk's visited (cell, state) bits
	stack           []int    // the walk's pending nodes, cell<<2 | state
}

// kernelMask is every call's lane mask: kernelMaxLanes lanes of all
// ones, then one vector of zeros. A band of w lanes reads it from
// index kernelMaxLanes-w, so that its lanes 0..w-1 see ones and the
// vector padding after them zeros.
var kernelMask = func() (m [kernelMaxLanes + kernelLanes]int16) {
	for i := range m[:kernelMaxLanes] {
		m[i] = -1
	}
	return m
}()

func (k *bandedKernel) init(m *matrix.Matrix, gap GapParams) {
	if !hasBandedKernel || gap.Open < 0 || gap.Extend < 1 || gap.Open+gap.Extend > kernelMaxGap {
		return
	}
	k.ok = true
	k.maxScore = max(m.MaxScore(), 0)
	for a := 0; a < kernelTabRows; a++ {
		row := k.tab[a*kernelTabStride : (a+1)*kernelTabStride]
		copy(row, m.Row(byte(a)))
		for c := alphabet.NumAA; c < kernelTabStride; c++ {
			row[c] = kernelPadScore
		}
	}
}

// validResidues reports whether every byte of s is a protein code
// (< alphabet.NumAA), eight bytes at a time: adding 0x80-NumAA to a
// byte sets its top bit exactly when the byte is ≥ NumAA and < 0x80,
// and a byte ≥ 0x80 has it set already; a carry out of a byte can only
// come from a byte that is itself invalid.
func validResidues(s []byte) bool {
	const (
		hi   = 0x8080808080808080
		bias = (0x80 - alphabet.NumAA) * 0x0101010101010101
	)
	var bad uint64
	for ; len(s) >= 8; s = s[8:] {
		x := binary.LittleEndian.Uint64(s)
		bad |= x | (x + bias)
	}
	for _, c := range s {
		bad |= uint64(c) | (uint64(c) + bias)
	}
	return bad&hi == 0
}

// bandedEndKernel is the kernel path of LocalBandedEnd. ok is false when
// the call does not fit the kernel (see the package comment) and the
// scalar loop must run instead. The rows it keeps, and the call they
// belong to, stay in the Aligner for walkStart.
func (al *Aligner) bandedEndKernel(a, b []byte, diag, band int) (best Local, ok bool) {
	k := &al.kern
	k.end = Local{}
	la, lb := len(a), len(b)
	if !k.ok || min(la, lb)*k.maxScore > math.MaxInt16 {
		return Local{}, false
	}
	k.a, k.b, k.diag, k.band = a, b, diag, band
	if band < 0 {
		band = 0
	}
	// Clip the band to the diagonals d = j-i that cross the matrix.
	dlo := max(diag-band, 1-la)
	dhi := min(diag+band, lb-1)
	if la == 0 || lb == 0 || dlo > dhi {
		return Local{}, true
	}
	w := dhi - dlo + 1
	if w > kernelMaxLanes || !validResidues(b) {
		return Local{}, false
	}
	nvec := (w + kernelLanes - 1) / kernelLanes
	lanes := nvec * kernelLanes
	// Rows i0..i1 (1-based) are those in which some lane is inside the
	// matrix; above i0 every lane is 0, below i1 the band has left.
	i0 := max(1, 1-dhi)
	i1 := min(la, lb-dlo)
	rows := i1 - i0 + 1

	// Subject copy: lanes pad codes, b, lanes pad codes. Lane k of row
	// i sits on column j = i+dlo+k, subject byte j-1, which is never
	// more than w-1 left of b nor lanes-1 right of it.
	if need := lb + 2*lanes; cap(k.bpad) < need {
		k.bpad = make([]byte, need)
	}
	bp := k.bpad[:lb+2*lanes]
	for i := 0; i < lanes; i++ {
		bp[i], bp[lanes+lb+i] = kernelPad, kernelPad
	}
	copy(bp[lanes:], b)

	// Rows carry one lane beyond the vectors for the shifted loads of
	// the row below; row 0 is the all-zero row above row i0.
	stride := lanes + kernelLanes
	if need := (rows + 1) * stride; cap(k.h) < need {
		k.h = make([]int16, need)
		k.e = make([]int16, need)
		k.f = make([]int16, need)
	}
	h, e := k.h[:(rows+1)*stride], k.e[:(rows+1)*stride]
	clear(h[:stride])
	clear(e[:stride])

	k.i0, k.dlo, k.stride = i0, dlo, stride
	args := bandedArgs{
		a:      unsafe.Pointer(&a[i0-1]),
		b:      unsafe.Pointer(&bp[lanes+i0-1+dlo]),
		tab:    unsafe.Pointer(&k.tab[0]),
		h:      unsafe.Pointer(&h[0]),
		e:      unsafe.Pointer(&e[0]),
		f:      unsafe.Pointer(&k.f[0]),
		mask:   unsafe.Pointer(&kernelMask[kernelMaxLanes-w]),
		rows:   rows,
		nvec:   nvec,
		stride: stride * 2,
		oe:     al.gap.Open + al.gap.Extend,
		ext:    al.gap.Extend,
	}
	bandedRowsSSE41(&args)
	if args.bad != 0 {
		return Local{}, false
	}
	if args.best == 0 {
		return Local{}, true
	}
	r := rows - args.bestRem // 0-based among the rows run
	for lane, v := range h[(r+1)*stride:][:w] {
		if int(v) == args.best {
			i := i0 + r
			k.end = Local{Score: args.best, AEnd: i, BEnd: i + dlo + lane}
			return k.end, true
		}
	}
	panic("align: banded kernel lost its maximum")
}

// The walk's node states: a cell's H, E or F.
const (
	walkH = iota
	walkE
	walkF
)

// walkStart recovers the start of the alignment the last score pass
// reported as end, walking back over the kernel's kept rows (see the
// package comment). ok is false unless that pass ran the kernel and
// was the call (a, b, diag, band) that returned end.
func (al *Aligner) walkStart(a, b []byte, end Local, diag, band int) (aStart, bStart int, ok bool) {
	k := &al.kern
	if end.Score <= 0 || end != k.end || diag != k.diag || band != k.band || len(a) != len(k.a) || len(b) != len(k.b) ||
		unsafe.SliceData(a) != unsafe.SliceData(k.a) || unsafe.SliceData(b) != unsafe.SliceData(k.b) {
		return 0, 0, false
	}
	// Cell p = row·stride + lane, row 1 being query residue i0, grows
	// in row-major order; its diagonal, upper and left predecessors are
	// p-stride, p-stride+1 and p-1.
	stride, h, e, f := k.stride, k.h, k.e, k.f
	oe, ext := int16(al.gap.Open+al.gap.Extend), int16(al.gap.Extend)
	p, st, best := (end.AEnd-k.i0+1)*stride+end.BEnd-end.AEnd-k.dlo, walkH, -1
	// Until a node has two tight predecessors the walk is one chain,
	// whose nodes nothing reaches again; seen is set up then.
	var seen []uint64
	stack := k.stack[:0]
	for {
	chain: // follow a unique predecessor; push several, then pop one
		for p > best {
			for seen == nil && st == walkH && h[p-stride] != 0 && e[p] != h[p] && f[p] != h[p] {
				p -= stride // the common case: H from the diagonal, not a start
			}
			if seen != nil {
				bit := uint(3*p + st)
				if seen[bit/64]&(1<<(bit%64)) != 0 {
					break
				}
				seen[bit/64] |= 1 << (bit % 64)
			}
			if st == walkH {
				v, up := h[p], h[p-stride]
				eT, fT := e[p] == v, f[p] == v
				dT := !eT && !fT // then H came from the diagonal
				if !dT {
					i := k.i0 - 1 + p/stride
					j := i + k.dlo + p%stride
					dT = up+int16(k.tab[int(a[i-1])*kernelTabStride+int(b[j-1])]) == v
				}
				switch {
				case dT && up == 0:
					best = p // a start; every start behind it is smaller
					break chain
				case dT && !eT && !fT:
					p -= stride
					continue
				case dT:
					stack = append(stack, (p-stride)<<2|walkH)
				}
				if eT {
					stack = append(stack, p<<2|walkE)
				}
				if fT {
					stack = append(stack, p<<2|walkF)
				}
				break
			}
			// A gap state: E from the row above, F from the lane left.
			g, q := e, p-stride+1
			if st == walkF {
				g, q = f, p-1
			}
			hT, gT := h[q]-oe == g[p], g[q]-ext == g[p]
			if hT != gT {
				if p = q; hT {
					st = walkH
				}
				continue
			}
			if hT {
				stack = append(stack, q<<2|walkH, q<<2|st)
			}
			break
		}
		if len(stack) == 0 {
			break
		}
		if seen == nil && len(stack) > 1 {
			// Every node from here on lies at or before p.
			seen = append(k.seen[:0], make([]uint64, (3*p+66)/64)...)
			k.seen = seen
		}
		n := stack[len(stack)-1]
		p, st, stack = n>>2, n&3, stack[:len(stack)-1]
	}
	k.stack = stack
	if best < 0 {
		panic("align: start walk found no start")
	}
	i := k.i0 - 1 + best/stride
	return i - 1, i + k.dlo + best%stride - 1, true
}

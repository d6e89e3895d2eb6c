// The step-3 kernel: an exact inter-sequence implementation of the
// banded score pass (bandedEndScalar is the reference).
//
// Contract. For every lane l of a LocalBandedEnds call (a, bs, diags,
// band) the kernel returns the Score, AEnd and BEnd the scalar loop
// returns for (a, bs[l], diags[l], band): the maximum of H over the
// cells that are both in the band and in the matrix, and the first
// such cell in row-major order that attains it. LocalBandedEnds
// chooses per lane (see Fallback); no caller and no option does.
//
// Layout. One int16 lane per extension, sixteen to a YMM register: a
// pass scores up to sixteen windows of one query. Every lane runs the
// same rows i = 1..len(a) and the same W = 2·band+1 cells per row; lane
// l's cell (i, k) sits on column i + diags[l] − band + k. In these
// coordinates the diagonal predecessor of a cell is (i−1, k), the
// vertical one (i−1, k+1) and the horizontal one (i, k−1), so F is a
// running value along the row, one register per lane set, with no
// scan. The query residue is constant along a row, so a cell's sixteen
// scores come from the row's 32-byte table row through two PSHUFB
// lookups of the sixteen subject bytes under the cell, widened to
// int16. Those bytes are contiguous because the subjects are
// transposed once per pass: cell (i, k) reads transposed row i−1+k,
// whose byte l is lane l's subject residue at column i + diags[l] −
// band + k, or a padding code outside its window.
//
// No masks on E and F. H is clamped at 0, so E and F matter only when
// positive, and every non-positive value stands for the scalar loop's
// negInf: subtracting gap costs from it keeps it non-positive, and
// max() with it changes nothing that is positive. The kernel subtracts
// gap costs with unsigned saturation, so E and F bottom out at 0: F
// starts each row at 0, the vertical predecessor of the last cell (the
// cell after it, kept at 0) needs no special case, and max(H+score, E,
// F) needs no separate clamp at 0.
//
// Matrix edges. Outside its window a lane reads a padding code that
// scores -128 against everything. Left of column 1 a cell therefore
// stays at H = 0 by induction (its three predecessors are 0 or
// non-positive, and none lies right of it), which is what the scalar
// loop reads there. Right of the last column a cell can hold a positive
// value, but only one derived from an in-matrix cell earlier in
// row-major order minus a positive amount (128, or a gap cost), and it
// feeds no in-matrix cell (no predecessor relation goes left in column
// terms); so it can neither reach nor tie the lane's running maximum.
//
// Kept rows, end cell and start cell. Each row's H, E and F cells are
// kept, the three vectors of a cell side by side and the lanes
// interleaved in each (3 × (rows+1) × (W+1) × 16 × 2 bytes of scratch;
// row 0 is the zero row above the first, cell W the zero cell after
// the last). At each row end the kernel records, per lane, the first
// row whose maximum beats the lane's maximum so far; the first cell of
// that row holding the maximum is the scalar loop's end cell. A kept E
// or F is the scalar loop's value when that is positive, else 0.
// LocalBandedStart walks back from the end cell of any lane of the
// last pass along tight edges (H from its diagonal predecessor, E or
// F; E from H-open-extend or E-extend one row up, cell k+1; F likewise
// one cell left) to starts, H cells whose diagonal predecessor is 0
// and whose value is their substitution score, and returns the
// lexicographically largest. That is the cell the scalar reverse pass
// returns: every alignment scoring end.Score inside the band and the
// prefix rectangle ends at the end cell, or an earlier cell in
// row-major order would attain it; every prefix of an optimal
// alignment is optimal, so those alignments are the tight-edge paths,
// with positive values in every state (a prefix scoring ≤ 0 could be
// dropped); and the reverse pass stops at the first reversed row, then
// cell, reaching end.Score: the largest AStart, then BStart. No edge
// raises the row-major position, so the walk prunes cells not after
// its best start; it follows a unique predecessor inline, pushes only
// ties and, from the first tie on, marks (cell, state) in a bitset, so
// that ties cannot blow it up.
//
// Fallback. Lanes are int16, and no value that matters may saturate.
// A lane runs the scalar loop instead when min(len(a), len(b))·MaxScore
// could exceed the lanes or when a subject residue is not a protein
// code (the scalar loop panics on those, and keeps doing so). The
// whole pass does when the query is empty, when the gap costs are
// negative, zero-extend or huge, when the kept rows would pass
// kernelMaxCells or the row count the int16 row index, when a query
// residue is not a protein code, or when the CPU or the OS lacks AVX2
// (HasAVX2). A start whose score pass
// ran the scalar loop, or that was not scored by the last pass, is
// recovered by the scalar loop run over the reversed prefixes.
//
// There is no portable SWAR variant and no selector: a band-coordinate
// scalar rewrite measured within 3 % of the plain loop (the loop-
// carried F chain binds scalar code, not the addressing), and an exact
// kernel leaves a user nothing to choose.
package align

import (
	"encoding/binary"
	"math"
	"runtime"
	"unsafe"

	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
)

// BatchLanes is the most extensions one LocalBandedEnds call scores:
// one int16 lane each in a 256-bit register.
const BatchLanes = 16

const (
	// kernelTabRows × kernelTabStride is the score table the kernel
	// reads: row a holds Score(a, c) for the 24 protein codes c and
	// kernelPadScore for codes 24..31, so that a row is exactly the
	// two 16-byte halves the PSHUFB lookups take.
	kernelTabRows   = alphabet.NumAA
	kernelTabStride = 32
	// kernelPad is the residue code the transposed subjects are padded
	// with; kernelPadScore is what it scores against every residue.
	kernelPad      = 31
	kernelPadScore = -128
	// kernelMaxGap bounds open+extend to what the kernel's broadcast
	// and the walk's int16 arithmetic hold.
	kernelMaxGap = math.MaxInt16
	// kernelCell is the int16s of one kept cell: H, E and F vectors.
	kernelCell = 3 * BatchLanes
	// kernelMaxCells bounds the kept cells, (rows+1)·(2·band+2), and
	// with them the scratch: 96 bytes a cell, 12 MB in all, which at
	// the gapped stage's band is a 3 800-residue query.
	kernelMaxCells = 1 << 17
)

// batchArgs is the argument block of bandedBatchAVX2. kernel_amd64.s
// addresses its fields by offset, so the two change together.
type batchArgs struct {
	a     unsafe.Pointer // query residues, one per row
	subj  unsafe.Pointer // transposed subjects: rows+width-1 rows of BatchLanes bytes
	tab   unsafe.Pointer // kernelTabRows rows of kernelTabStride score bytes
	rows  unsafe.Pointer // kept rows of width+1 cells; row 0 is the zero row above the first
	nrows int            // rows to run, ≥ 1
	width int            // cells per row, 2·band+1
	oe    int            // gap open + extend
	ext   int            // gap extend
	// Results, per lane.
	best [BatchLanes]int16 // maximum of H over all rows run
	row  [BatchLanes]int16 // first row (1-based) whose maximum is best
}

// keptLane is what LocalBandedStart's walk matches a lane of the last
// pass by: its subject, diagonal and end (Score 0 when there is
// nothing to walk: the lane scored 0 or ran the scalar loop).
type keptLane struct {
	b    []byte
	diag int
	end  Local
}

// bandedKernel is the per-Aligner state of the kernel path.
type bandedKernel struct {
	ok       bool // gap costs and matrix admit the kernel at all
	maxScore int  // largest matrix score, clamped at 0
	tab      [kernelTabRows * kernelTabStride]int8

	subj    []byte          // transposed subjects
	rows    []int16         // kept cells, kernelCell int16s each
	unmap   func()          // releases rows mapped off the Go heap; nil for heap rows
	cleanup runtime.Cleanup // calls unmap once the Aligner is unreachable

	// The last pass, as LocalBandedStart's walk needs it: its query,
	// band and lanes, and the kept row stride in cells.
	a      []byte
	band   int
	lanes  [BatchLanes]keptLane
	n      int
	stride int
	seen   []uint64 // the walk's visited (cell, state) bits
	stack  []int    // the walk's pending nodes, cell<<2 | state
}

func (k *bandedKernel) init(m *matrix.Matrix, gap GapParams) {
	if gap.Open < 0 || gap.Extend < 1 || gap.Open+gap.Extend > kernelMaxGap {
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

// kernelFits reports whether a pass over a query of la residues at
// this band fits the kernel's scratch bound and int16 row index.
func kernelFits(la, band int) bool {
	return la < math.MaxInt16 && (la+1)*(2*band+2) <= kernelMaxCells
}

// reserve sizes the kept rows and the transposed subjects for a pass
// of la rows at this band, so that passes up to that size allocate
// nothing. Rows for an Aligner kept for reuse (Reserve) live off the
// Go heap (allocRows), and a cleanup releases them once the Aligner is
// unreachable; rows a pass grows on its own come from the heap, where
// the garbage collector sees them, so that short-lived Aligners cannot
// pile up unreleased mappings between collections.
func (al *Aligner) reserve(la, band int, offHeap bool) {
	k := &al.kern
	if need := (la + 1) * (2*band + 2) * kernelCell; len(k.rows) < need {
		if k.unmap != nil {
			k.cleanup.Stop()
			k.unmap()
			k.unmap = nil
		}
		if offHeap {
			k.rows, k.unmap = allocRows(need)
			k.cleanup = runtime.AddCleanup(al, func(unmap func()) { unmap() }, k.unmap)
		} else {
			k.rows = make([]int16, need)
		}
	}
	if need := (la + 2*band) * BatchLanes; cap(k.subj) < need {
		k.subj = make([]byte, need)
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

// bandedEndsKernel is the kernel path of LocalBandedEnds: it writes
// out[l] for every lane that fits the kernel and reports those lanes
// as a bit set; the caller runs the scalar loop for the rest. The
// cells it keeps, and the lanes they belong to, stay in the Aligner
// for walkStart.
func (al *Aligner) bandedEndsKernel(a []byte, bs [][]byte, diags []int, band int, out []Local) (done uint32) {
	k := &al.kern
	k.n = 0
	la, raw := len(a), band
	band = max(band, 0)
	if la == 0 || !k.ok || !HasAVX2 || !kernelFits(la, band) || !validResidues(a) {
		return 0
	}
	for l, b := range bs {
		if min(la, len(b))*k.maxScore <= math.MaxInt16 && validResidues(b) {
			done |= 1 << l
		}
	}
	if done == 0 {
		return 0
	}
	w := 2*band + 1
	al.reserve(la, band, false)
	k.a, k.band, k.n, k.stride = a, raw, len(bs), w+1

	// Transpose: row t holds every lane's residue at column
	// t + 1 + diag - band, the pad code outside its subject.
	subj := k.subj[:(la+w-1)*BatchLanes]
	subj[0] = kernelPad
	for n := 1; n < len(subj); n *= 2 {
		copy(subj[n:], subj[:n])
	}
	for l, b := range bs {
		if done&(1<<l) == 0 {
			continue
		}
		off := diags[l] - band // subject index of row 0
		t0, t1 := max(0, -off), min(la+w-1, len(b)-off)
		if t0 >= t1 {
			continue
		}
		// Column l of rows t0..t1-1, which the bounds above keep
		// inside subj.
		col := unsafe.Pointer(&subj[t0*BatchLanes+l])
		for i, c := range b[t0+off : t1+off] {
			*(*byte)(unsafe.Add(col, i*BatchLanes)) = c
		}
	}

	rows := k.rows[:(la+1)*(w+1)*kernelCell]
	clear(rows[:(w+1)*kernelCell])
	args := batchArgs{
		a:     unsafe.Pointer(&a[0]),
		subj:  unsafe.Pointer(&subj[0]),
		tab:   unsafe.Pointer(&k.tab[0]),
		rows:  unsafe.Pointer(&rows[0]),
		nrows: la,
		width: w,
		oe:    al.gap.Open + al.gap.Extend,
		ext:   al.gap.Extend,
	}
	bandedBatchAVX2(&args)

	for l, b := range bs {
		if done&(1<<l) == 0 {
			k.lanes[l] = keptLane{}
			continue
		}
		best, r := int(args.best[l]), int(args.row[l])
		out[l] = Local{}
		if best > 0 {
			cells := rows[r*(w+1)*kernelCell+l:]
			for c := 0; ; c++ {
				if c == w {
					panic("align: banded kernel lost its maximum")
				}
				if int(cells[c*kernelCell]) == best {
					out[l] = Local{Score: best, AEnd: r, BEnd: r + diags[l] - band + c}
					break
				}
			}
		}
		k.lanes[l] = keptLane{b: b, diag: diags[l], end: out[l]}
	}
	runtime.KeepAlive(al) // its cleanup unmaps rows
	return done
}

// The walk's node states: a cell's H, E or F.
const (
	walkH = iota
	walkE
	walkF
)

// sameSlice reports whether x and y are the same slice: same first
// element, same length.
func sameSlice(x, y []byte) bool {
	return len(x) == len(y) && unsafe.SliceData(x) == unsafe.SliceData(y)
}

// walkStart recovers the start of the alignment a lane of the last
// score pass reported as end, walking back over the kernel's kept rows
// (see the package comment). ok is false unless that pass ran the
// kernel for a lane (a, b, diag, band) that returned end.
func (al *Aligner) walkStart(a, b []byte, end Local, diag, band int) (aStart, bStart int, ok bool) {
	k := &al.kern
	if end.Score <= 0 || band != k.band || !sameSlice(a, k.a) {
		return 0, 0, false
	}
	lane := -1
	for l := range k.lanes[:k.n] {
		if kl := &k.lanes[l]; kl.end == end && kl.diag == diag && sameSlice(b, kl.b) {
			lane = l
			break
		}
	}
	if lane < 0 {
		return 0, 0, false
	}
	// Cell p = row·stride + k, row i being query residue i, grows in
	// row-major order; its diagonal, upper and left predecessors are
	// p-stride, p-stride+1 and p-1. Its H, E and F are v[p·kernelCell]
	// and the two vectors after it.
	const cE, cF = BatchLanes, 2 * BatchLanes
	stride, v := k.stride, k.rows[lane:]
	dlo := diag - max(band, 0)
	oe, ext := int16(al.gap.Open+al.gap.Extend), int16(al.gap.Extend)
	p, st, best := end.AEnd*stride+end.BEnd-end.AEnd-dlo, walkH, -1
	// Until a node has two tight predecessors the walk is one chain,
	// whose nodes nothing reaches again; seen is set up then.
	var seen []uint64
	stack := k.stack[:0]
	for {
	chain: // follow a unique predecessor; push several, then pop one
		for p > best {
			for seen == nil && st == walkH {
				c := v[p*kernelCell:]
				if v[(p-stride)*kernelCell] == 0 || c[cE] == c[0] || c[cF] == c[0] {
					break
				}
				p -= stride // the common case: H from the diagonal, not a start
			}
			if seen != nil {
				bit := uint(3*p + st)
				if seen[bit/64]&(1<<(bit%64)) != 0 {
					break
				}
				seen[bit/64] |= 1 << (bit % 64)
			}
			c := v[p*kernelCell:]
			if st == walkH {
				val, up := c[0], v[(p-stride)*kernelCell]
				eT, fT := c[cE] == val, c[cF] == val
				dT := !eT && !fT // then H came from the diagonal
				if !dT {
					i := p / stride
					j := i + dlo + p%stride
					dT = up+int16(k.tab[int(a[i-1])*kernelTabStride+int(b[j-1])]) == val
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
			// A gap state: E from the row above, F from the cell left.
			g, q := cE, p-stride+1
			if st == walkF {
				g, q = cF, p-1
			}
			cq := v[q*kernelCell:]
			hT, gT := cq[0]-oe == c[g], cq[g]-ext == c[g]
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
	runtime.KeepAlive(al) // its cleanup unmaps the rows v reads
	if best < 0 {
		panic("align: start walk found no start")
	}
	i := best / stride
	return i - 1, i + dlo + best%stride - 1, true
}

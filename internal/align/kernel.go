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
// Operations. The walk tries tight edges in one tie order: at H the
// diagonal, then E (OpDelB), then F (OpInsB); in a gap state extend,
// then open. It keeps its path, and a copy of it whenever it reaches a
// better start. Depth first, the first path to reach the best start
// is the first to it in that order, because no node pruned or visited
// before can reach it; so LocalBandedOps reads the copy the start walk
// left and walks a lane at most once. For a lane that ran the scalar loop, the
// loop runs again for the one lane and keeps the rows from the one
// above the start to the end's as int32s in this layout, E and F
// clamped at 0 as here, and the same walk, floored at the start, reads
// them: kernel and scalar lanes give the same operations. The clamp
// changes no tight edge as long as no gap cost is negative and opening
// a gap costs at least 1, because every node of such a path is then
// positive.
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

// keptLane is what the walk matches a lane of the last pass by: its
// subject, diagonal and end (Score 0 when there is nothing to walk:
// the lane scored 0 or ran the scalar loop).
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

	// The last pass, as the walk needs it: its query, band and lanes,
	// and the kept row stride in cells.
	a      []byte
	band   int
	lanes  [BatchLanes]keptLane
	n      int
	stride int
	// The walk's scratch, and what its last run over a lane of the
	// pass found: the lane (-1 for none), the start and the path to it.
	seen   []uint64   // visited (cell, state) bits
	stack  []walkNode // pending nodes
	path   opPath     // the path to the node being visited
	walked int
	start  int
	best   opPath
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
	k.a, k.band, k.n, k.stride, k.walked = a, raw, len(bs), w+1, -1

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

// walkNode is a pending node of the walk, cell<<2 | state, and the
// walk's path when it was pushed: its length and its last run's.
type walkNode struct{ node, path, last int }

// opPath is a path of the walk: runs of operations, last first.
type opPath []Op

// add appends n operations of kind to the path.
func (p opPath) add(kind OpKind, n int) opPath {
	if k := len(p); k > 0 && p[k-1].Kind == kind {
		p[k-1].Len += n
		return p
	}
	return append(p, Op{Kind: kind, Len: n})
}

// push returns the walkNode of node with the path as it is.
func (p opPath) push(node int) walkNode {
	if len(p) == 0 {
		return walkNode{node, 0, 0}
	}
	return walkNode{node, len(p), p[len(p)-1].Len}
}

// sameSlice reports whether x and y are the same slice: same first
// element, same length.
func sameSlice(x, y []byte) bool {
	return len(x) == len(y) && unsafe.SliceData(x) == unsafe.SliceData(y)
}

// keptRows is what the walk reads: rows of a pass in the kernel's band
// layout. Cell p is band cell p%stride of row p/stride + row0; its H,
// E and F are v[p·cell] and the values cell/3 and 2·cell/3 after it.
type keptRows[T int16 | int32] struct {
	v      []T
	cell   int
	stride int
	row0   int
}

// visit marks a node, bit 3·cell + state, in seen and reports whether
// it was marked already. A nil seen marks nothing: until the first tie
// the walk is one chain, whose nodes nothing reaches again.
func visit(seen []uint64, bit uint) bool {
	if seen == nil {
		return false
	}
	w, m := bit/64, uint64(1)<<(bit%64)
	old := seen[w]
	seen[w] = old | m
	return old&m != 0
}

// diagonal visits H nodes from cell p back along the diagonal, down to
// cell lo, while H came from the diagonal alone and is not a start,
// the common case. It returns the cell it stops at, visited, and
// whether that node had been visited before.
func (r keptRows[T]) diagonal(p, lo int, seen []uint64) (int, bool) {
	v, cE, cF := r.v, r.cell/3, 2*r.cell/3
	for pc, sc := p*r.cell, r.stride*r.cell; p >= lo; p, pc = p-r.stride, pc-sc {
		if seen != nil && visit(seen, uint(3*p+walkH)) {
			return p, true
		}
		c := v[pc:]
		if v[pc-sc] == 0 || c[cE] == c[0] || c[cF] == c[0] {
			break
		}
	}
	return p, false
}

// walk follows tight edges back from cell end's H over the kept rows
// r of a pass of a against b, whose band cell 0 on row i is column
// i + dlo (see the package comment), trying them in the tie order. It
// returns the largest start it reaches at or after cell floor, or -1,
// and leaves in k.best the first path to it in that order, the
// start's own pair not included. Cells before floor, or not after the
// best start so far, are pruned, because no edge moves forward in
// row-major order.
func walk[T int16 | int32](al *Aligner, r keptRows[T], a, b []byte, dlo, end, floor int) (start int) {
	k := &al.kern
	k.walked = -1
	v, cell, stride := r.v, r.cell, r.stride
	cE, cF := cell/3, 2*cell/3
	oe, ext := al.gap.Open+al.gap.Extend, al.gap.Extend
	tab := al.m.Table()
	lo, start := floor, -1
	p, st := end, walkH
	var seen []uint64 // set up at the first tie
	stack, path := k.stack[:0], k.path[:0]
	for {
	chain: // follow the first tight edge and push the others; pop at a dead end
		for p >= lo {
			if st != walkH {
				if visit(seen, uint(3*p+st)) {
					break
				}
				// A gap state: E from the row above, F from the cell
				// left; extend before open.
				g, q, op := cE, p-stride+1, OpDelB
				if st == walkF {
					g, q, op = cF, p-1, OpInsB
				}
				c, cq := v[p*cell:], v[q*cell:]
				hT, gT := int(cq[0])-oe == int(c[g]), int(cq[g])-ext == int(c[g])
				if !hT && !gT {
					break
				}
				path = path.add(op, 1)
				if hT && gT {
					stack = append(stack, path.push(q<<2|walkH))
					if seen == nil {
						seen = k.seenUpTo(p)
					}
				}
				if p = q; !gT {
					st = walkH
				}
				continue
			}
			from, dead := p, false
			p, dead = r.diagonal(p, lo, seen)
			if from > p {
				path = path.add(OpAligned, (from-p)/stride)
			}
			if dead || p < lo {
				break
			}
			c := v[p*cell:]
			val, up := int(c[0]), int(v[(p-stride)*cell])
			eT, fT := int(c[cE]) == val, int(c[cF]) == val
			dT := !eT && !fT // then H came from the diagonal
			if !dT {
				i := p/stride + r.row0
				dT = up+int(tab[int(a[i-1])*alphabet.NumAA+int(b[i+dlo+p%stride-1])]) == val
			}
			if dT && up == 0 {
				// A start; every start behind it is smaller.
				start, lo = p, p+1
				k.best = append(k.best[:0], path...)
				break chain
			}
			if fT {
				stack = append(stack, path.push(p<<2|walkF))
			}
			if eT {
				stack = append(stack, path.push(p<<2|walkE))
			}
			if seen == nil && len(stack) > 0 {
				seen = k.seenUpTo(p)
			}
			if !dT {
				break
			}
			p -= stride
			path = path.add(OpAligned, 1)
		}
		if len(stack) == 0 {
			break
		}
		n := stack[len(stack)-1]
		p, st, path, stack = n.node>>2, n.node&3, path[:n.path], stack[:len(stack)-1]
		if n.path > 0 {
			path[n.path-1].Len = n.last
		}
	}
	k.stack, k.path = stack, path
	runtime.KeepAlive(al) // its cleanup unmaps the rows v may read
	return start
}

// seenUpTo returns the walk's visited bits, cleared, for the nodes of
// cells up to p.
func (k *bandedKernel) seenUpTo(p int) []uint64 {
	k.seen = append(k.seen[:0], make([]uint64, (3*p+66)/64)...)
	return k.seen
}

// lane returns the lane of the last pass that ran the kernel for
// (a, b, diag, band) and returned end, or -1.
func (k *bandedKernel) lane(a, b []byte, end Local, diag, band int) int {
	if end.Score <= 0 || band != k.band || !sameSlice(a, k.a) {
		return -1
	}
	for l := range k.lanes[:k.n] {
		if kl := &k.lanes[l]; kl.end == end && kl.diag == diag && sameSlice(b, kl.b) {
			return l
		}
	}
	return -1
}

// walkLane returns the start, as a cell of the kept rows, of the
// alignment lane l of the last pass reported as end for (a, b, diag,
// band), and leaves the path to it in k.best. The walk runs once per
// lane: LocalBandedOps after LocalBandedStart reads what it found.
func (al *Aligner) walkLane(l int, a, b []byte, end Local, diag, band int) int {
	k := &al.kern
	if k.walked != l {
		stride, dlo := k.stride, diag-max(band, 0)
		s := walk(al, keptRows[int16]{k.rows[l:], kernelCell, stride, 0}, a, b, dlo, end.AEnd*stride+end.BEnd-end.AEnd-dlo, 0)
		if s < 0 {
			panic("align: start walk found no start")
		}
		k.walked, k.start = l, s
	}
	return k.start
}

// walkStart recovers the start of the alignment a lane of the last
// score pass reported as end, walking back over the kernel's kept rows
// (see the package comment). ok is false unless that pass ran the
// kernel for a lane (a, b, diag, band) that returned end.
func (al *Aligner) walkStart(a, b []byte, end Local, diag, band int) (aStart, bStart int, ok bool) {
	l := al.kern.lane(a, b, end, diag, band)
	if l < 0 {
		return 0, 0, false
	}
	s := al.walkLane(l, a, b, end, diag, band)
	i := s / al.kern.stride
	return i - 1, i + diag - max(band, 0) + s%al.kern.stride - 1, true
}

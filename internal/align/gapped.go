package align

import (
	"bytes"
	"fmt"

	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
)

// GapParams are affine gap penalties expressed as positive costs.
// Opening a gap of length L costs Open + L·Extend, the NCBI convention;
// the paper's comparisons run BLAST at its defaults (11, 1).
type GapParams struct {
	Open   int
	Extend int
}

// DefaultGaps are BLAST's default BLOSUM62 gap costs.
var DefaultGaps = GapParams{Open: 11, Extend: 1}

const negInf = int32(-1 << 28)

// Local is the result of a local alignment: score and half-open
// coordinate ranges in both sequences.
type Local struct {
	Score  int
	AStart int
	AEnd   int
	BStart int
	BEnd   int
}

// Aligner runs affine-gap local alignments (Gotoh's algorithm). It
// keeps scratch buffers between calls, so one Aligner per goroutine
// avoids repeated allocation in the gapped stage's hot loop.
type Aligner struct {
	m   *matrix.Matrix
	gap GapParams
	h   []int32
	e   []int32
	// ra and rb hold the reversed prefixes of LocalBandedStart's
	// reverse pass.
	ra, rb []byte
	kern   bandedKernel
	// oneB, oneDiag and oneOut are LocalBandedEnd's pass of one lane.
	oneB    [1][]byte
	oneDiag [1]int
	oneOut  [1]Local
	// dir and ops are Traceback's direction matrix and the operations
	// of its walk back, last first.
	dir []byte
	ops []Op
}

// NewAligner returns an Aligner for the given matrix and gap costs.
func NewAligner(m *matrix.Matrix, gap GapParams) *Aligner {
	al := &Aligner{m: m, gap: gap}
	al.kern.init(m, gap)
	return al
}

func (al *Aligner) scratch(n int) (h, e []int32) {
	if cap(al.h) < n {
		al.h = make([]int32, n)
		al.e = make([]int32, n)
	}
	h, e = al.h[:n], al.e[:n]
	for j := range h {
		h[j] = 0
		e[j] = negInf
	}
	return h, e
}

// Local computes the best local alignment score of a against b with
// affine gaps, returning score and end coordinates (half-open). Start
// coordinates are recovered by a reverse pass only when needed — use
// Traceback for full coordinates and operations.
func (al *Aligner) Local(a, b []byte) Local {
	openExt := int32(al.gap.Open + al.gap.Extend)
	ext := int32(al.gap.Extend)
	table := al.m.Table()
	h, e := al.scratch(len(b) + 1)
	var best Local
	for i := 1; i <= len(a); i++ {
		row := table[int(a[i-1])*24 : int(a[i-1])*24+24]
		var diag int32 // H[i-1][j-1]
		f := negInf
		for j := 1; j <= len(b); j++ {
			up := h[j] // H[i-1][j]
			val := diag + int32(row[b[j-1]])
			diag = up
			if e[j] > val {
				val = e[j]
			}
			if f > val {
				val = f
			}
			if val < 0 {
				val = 0
			}
			h[j] = val
			if int(val) > best.Score {
				best = Local{Score: int(val), AEnd: i, BEnd: j}
			}
			// E: gap in a (consume b); F: gap in b (consume a).
			e[j] = maxI32(val-openExt, e[j]-ext)
			f = maxI32(val-openExt, f-ext)
		}
	}
	if best.Score == 0 {
		return Local{}
	}
	best.AStart, best.BStart = al.localStart(a, b, best)
	return best
}

// localStart recovers the start of the best alignment by running the
// same DP on the reversed prefixes ending at the known endpoint.
func (al *Aligner) localStart(a, b []byte, end Local) (int, int) {
	ra := reverse(a[:end.AEnd])
	rb := reverse(b[:end.BEnd])
	openExt := int32(al.gap.Open + al.gap.Extend)
	ext := int32(al.gap.Extend)
	table := al.m.Table()
	h, e := al.scratch(len(rb) + 1)
	bestScore, bi, bj := int32(0), 0, 0
	for i := 1; i <= len(ra); i++ {
		row := table[int(ra[i-1])*24 : int(ra[i-1])*24+24]
		var diag int32
		f := negInf
		for j := 1; j <= len(rb); j++ {
			up := h[j]
			val := diag + int32(row[rb[j-1]])
			diag = up
			if e[j] > val {
				val = e[j]
			}
			if f > val {
				val = f
			}
			if val < 0 {
				val = 0
			}
			h[j] = val
			if val > bestScore {
				bestScore, bi, bj = val, i, j
			}
			e[j] = maxI32(val-openExt, e[j]-ext)
			f = maxI32(val-openExt, f-ext)
		}
	}
	return end.AEnd - bi, end.BEnd - bj
}

func reverse(s []byte) []byte {
	return reverseInto(nil, s)
}

// reverseInto writes s reversed into buf's storage, growing it when
// needed, and returns the result.
func reverseInto(buf, s []byte) []byte {
	if cap(buf) < len(s) {
		buf = make([]byte, len(s))
	}
	buf = buf[:len(s)]
	for i, c := range s {
		buf[len(s)-1-i] = c
	}
	return buf
}

// LocalBanded computes a local alignment restricted to the diagonal
// band |(j - i) - diag| ≤ band, the gapped-stage shape: hits from the
// ungapped stage fix the diagonal and homologous regions stay near it.
// Cells outside the band are unreachable. Cost is O(len(a)·band).
func (al *Aligner) LocalBanded(a, b []byte, diag, band int) Local {
	best := al.LocalBandedEnd(a, b, diag, band)
	if best.Score == 0 {
		return Local{}
	}
	best.AStart, best.BStart = al.LocalBandedStart(a, b, best, diag, band)
	return best
}

// LocalBandedEnd is LocalBanded without start recovery: the maximum
// of H over the in-band cells and the first cell in row-major order
// that attains it. It is a LocalBandedEnds pass of one lane.
func (al *Aligner) LocalBandedEnd(a, b []byte, diag, band int) Local {
	al.oneB[0], al.oneDiag[0] = b, diag
	al.LocalBandedEnds(a, al.oneB[:], al.oneDiag[:], band, al.oneOut[:])
	al.oneB[0] = nil
	return al.oneOut[0]
}

// LocalBandedEnds runs LocalBandedEnd for up to BatchLanes windows of
// one query in one pass: out[l] is LocalBandedEnd(a, bs[l], diags[l],
// band). The gapped stage calls it alone first and pays for
// LocalBandedStart only when a score survives the E-value cut. Lanes
// that fit the kernel (kernel.go) run it, which keeps its rows for
// LocalBandedStart's walk; the others run the scalar loop.
func (al *Aligner) LocalBandedEnds(a []byte, bs [][]byte, diags []int, band int, out []Local) {
	if len(bs) > BatchLanes || len(diags) != len(bs) || len(out) < len(bs) {
		panic("align: LocalBandedEnds takes up to BatchLanes lanes, a diagonal and a result each")
	}
	done := al.bandedEndsKernel(a, bs, diags, band, out)
	for l, b := range bs {
		if done&(1<<l) == 0 {
			out[l] = al.bandedEndScalar(a, b, diags[l], band, noStop)
		}
	}
}

// BatchKernel reports whether LocalBandedEnds runs the kernel for this
// Aligner's gap costs on this CPU. When it is false every lane runs
// the scalar loop, one after another, so a full pass costs what its
// lanes cost alone.
func (al *Aligner) BatchKernel() bool { return al.kern.ok && HasAVX2 }

// Reserve sizes the kernel's scratch for queries of up to rows residues
// at this band, so that the passes of a run allocate nothing. It is
// for an Aligner kept for reuse: the kept rows it sizes live off the
// Go heap, so that they do not count toward the garbage collector's
// pacing of a small process, and are released once the Aligner is
// unreachable.
func (al *Aligner) Reserve(rows, band int) {
	band = max(band, 0)
	if al.BatchKernel() && kernelFits(rows, band) {
		al.reserve(rows, band, true)
	}
}

// Forget drops the Aligner's references to the sequences of its last
// pass, so that an Aligner kept for reuse does not keep them alive. A
// LocalBandedStart after it runs the reverse pass.
func (al *Aligner) Forget() {
	k := &al.kern
	k.a, k.n = nil, 0
	clear(k.lanes[:])
}

// LocalBandedStart recovers the start of the alignment LocalBandedEnd
// reported as end (same a, b, diag and band). It is the cell the DP
// run over the reversed prefixes that end there reaches end.Score at
// first: the largest AStart, then the largest BStart, of the optimal
// alignments ending at end.
//
// When end is a kernel lane of the last LocalBandedEnds pass, with the
// same slices unmodified, it walks back over the rows the kernel kept
// (kernel.go). Otherwise it runs that reverse pass: reversed
// coordinates map (i, j) to (AEnd-i, BEnd-j), so the band
// |(j-i) - diag| ≤ band becomes |(j'-i') - rd| ≤ band with
// rd = BEnd - AEnd - diag. The reverse pass
// visits the forward pass's band cells restricted to the prefix
// rectangle, so (gap costs being costs) it can reach end.Score but
// never exceed it, and it stops at the first cell that does.
func (al *Aligner) LocalBandedStart(a, b []byte, end Local, diag, band int) (aStart, bStart int) {
	if aStart, bStart, ok := al.walkStart(a, b, end, diag, band); ok {
		return aStart, bStart
	}
	stop := end.Score
	if al.gap.Extend < 0 || al.gap.Open+al.gap.Extend < 0 {
		// Gaps that pay make leading and trailing gaps part of the
		// best alignment, and those the DP does not treat
		// symmetrically: the reverse pass can then exceed end.Score.
		stop = noStop
	}
	al.ra = reverseInto(al.ra, a[:end.AEnd])
	al.rb = reverseInto(al.rb, b[:end.BEnd])
	sub := al.bandedEndScalar(al.ra, al.rb, end.BEnd-end.AEnd-diag, band, stop)
	return end.AEnd - sub.AEnd, end.BEnd - sub.BEnd
}

// LocalBandedReference is LocalBanded computed the plain way: the
// scalar loop for both passes, the reverse pass run to completion on
// fresh copies. It is what the equivalence tests of this package, of
// internal/gapped and of internal/core pin the shipped path to; no
// option reaches it.
func (al *Aligner) LocalBandedReference(a, b []byte, diag, band int) Local {
	best := al.bandedEndScalar(a, b, diag, band, noStop)
	if best.Score == 0 {
		return Local{}
	}
	ra := reverse(a[:best.AEnd])
	rb := reverse(b[:best.BEnd])
	sub := al.bandedEndScalar(ra, rb, best.BEnd-best.AEnd-diag, band, noStop)
	best.AStart = best.AEnd - sub.AEnd
	best.BStart = best.BEnd - sub.BEnd
	return best
}

// noStop as a pass's stop score lets it run to completion: no cell
// scores it.
const noStop = -1

// bandedEndScalar is the banded score pass, one int32 cell at a time:
// the reference implementation, the path of every GOARCH without a
// kernel, the fallback when a call does not fit the kernel's int16
// lanes, and LocalBandedStart's reverse pass when there are no kept
// rows to walk. It returns early at the first cell scoring stop.
func (al *Aligner) bandedEndScalar(a, b []byte, diag, band, stop int) Local {
	if band < 0 {
		band = 0
	}
	openExt := int32(al.gap.Open + al.gap.Extend)
	ext := int32(al.gap.Extend)
	table := al.m.Table()
	h, e, prevH, prevE := al.scratchBanded(len(b) + 2)
	var best Local
	for i := 1; i <= len(a); i++ {
		lo := max(1, i+diag-band)
		hi := min(len(b), i+diag+band)
		if i+diag-band > len(b) {
			break // band has left the matrix; later rows are all empty
		}
		if hi < 1 {
			continue // band has not yet entered the matrix
		}
		row := table[int(a[i-1])*24 : int(a[i-1])*24+24]
		f := negInf
		for j := lo; j <= hi; j++ {
			val := prevH[j-1] + int32(row[b[j-1]])
			pe := maxI32(prevH[j]-openExt, prevE[j]-ext)
			if pe > val {
				val = pe
			}
			if f > val {
				val = f
			}
			if val < 0 {
				val = 0
			}
			h[j] = val
			e[j] = pe
			if int(val) > best.Score {
				best = Local{Score: int(val), AEnd: i, BEnd: j}
				if best.Score == stop {
					return best
				}
			}
			f = maxI32(val-openExt, f-ext)
		}
		// Sentinels: the next row reads columns lo'-1..hi' with
		// lo' ≥ lo and hi' ≤ hi+1, so resetting the cells flanking the
		// written range keeps out-of-band cells unreachable without a
		// full-row clear.
		if lo-1 >= 0 {
			h[lo-1], e[lo-1] = 0, negInf
		}
		if hi+1 < len(h) {
			h[hi+1], e[hi+1] = 0, negInf
		}
		prevH, h = h, prevH
		prevE, e = e, prevE
	}
	return best
}

// scratchBanded returns four zeroed row buffers of length n for the
// banded DP, reusing Aligner storage.
func (al *Aligner) scratchBanded(n int) (h, e, prevH, prevE []int32) {
	if cap(al.h) < 2*n {
		al.h = make([]int32, 2*n)
		al.e = make([]int32, 2*n)
	}
	buf, ebuf := al.h[:2*n], al.e[:2*n]
	h, prevH = buf[:n], buf[n:]
	e, prevE = ebuf[:n], ebuf[n:]
	for j := 0; j < n; j++ {
		h[j], prevH[j] = 0, 0
		e[j], prevE[j] = negInf, negInf
	}
	return h, e, prevH, prevE
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// Op is one run of alignment operations.
type Op struct {
	Kind OpKind
	Len  int
}

// OpKind distinguishes aligned pairs from gaps.
type OpKind byte

const (
	OpAligned OpKind = 'M' // aligned pair (match or substitution)
	OpInsB    OpKind = 'I' // gap in a, residues consumed from b
	OpDelB    OpKind = 'D' // gap in b, residues consumed from a
)

// Direction-matrix bit layout for Traceback. Per cell (i, j):
//
//	bits 0-1: source of H[i][j] — 0 stop, 1 diagonal, 2 vertical gap
//	          state V[i][j], 3 horizontal gap state G[i][j];
//	bit 2:    V[i][j] extends V[i-1][j] (otherwise opens from H[i-1][j]);
//	bit 3:    G[i][j] extends G[i][j-1] (otherwise opens from H[i][j-1]).
//
// V is the gap-in-b state (consumes a, moves up); G is the gap-in-a
// state (consumes b, moves left).
const (
	tbSrcMask  = 3
	tbStop     = 0
	tbDiag     = 1
	tbVert     = 2
	tbHoriz    = 3
	tbVertExt  = 4
	tbHorizExt = 8
)

// Traceback computes the best local alignment with full operations.
// It stores a direction matrix of (len(a)+1)·(len(b)+1) bytes, so use
// it on bounded windows (the gapped stage aligns query-sized windows).
func (al *Aligner) Traceback(a, b []byte) (Local, []Op) {
	openExt := int32(al.gap.Open + al.gap.Extend)
	ext := int32(al.gap.Extend)
	table := al.m.Table()
	cols := len(b) + 1
	// The direction matrix is |=-written (a cell's gap provenance is
	// recorded before its source), so the reused prefix is cleared.
	need := (len(a) + 2) * cols
	if cap(al.dir) < need {
		al.dir = make([]byte, need)
	}
	dir := al.dir[:need]
	clear(dir)
	h, e := al.scratch(len(b) + 1)
	var best Local
	for i := 1; i <= len(a); i++ {
		row := table[int(a[i-1])*24 : int(a[i-1])*24+24]
		var diag int32
		f := negInf
		for j := 1; j <= len(b); j++ {
			up := h[j] // H[i-1][j]
			val := diag + int32(row[b[j-1]])
			src := byte(tbDiag)
			if e[j] > val { // e[j] = V[i][j], provenance already recorded
				val = e[j]
				src = tbVert
			}
			if f > val { // f = G[i][j]
				val = f
				src = tbHoriz
			}
			if val <= 0 {
				val = 0
				src = tbStop
			}
			diag = up
			h[j] = val
			dir[i*cols+j] |= src
			if int(val) > best.Score {
				best = Local{Score: int(val), AEnd: i, BEnd: j}
			}
			// V[i+1][j] = max(H[i][j]-openExt, V[i][j]-ext): record its
			// provenance in the next row's cell.
			if e[j]-ext >= val-openExt {
				e[j] -= ext
				dir[(i+1)*cols+j] |= tbVertExt
			} else {
				e[j] = val - openExt
			}
			// G[i][j+1] = max(H[i][j]-openExt, G[i][j]-ext): record its
			// provenance in the next column's cell.
			if f-ext >= val-openExt {
				f -= ext
				if j+1 <= len(b) {
					dir[i*cols+j+1] |= tbHorizExt
				}
			} else {
				f = val - openExt
			}
		}
	}
	if best.Score == 0 {
		return Local{}, nil
	}
	// Walk back from the endpoint.
	rev := al.ops[:0]
	pushOp := func(k OpKind) {
		if len(rev) > 0 && rev[len(rev)-1].Kind == k {
			rev[len(rev)-1].Len++
			return
		}
		rev = append(rev, Op{Kind: k, Len: 1})
	}
	i, j := best.AEnd, best.BEnd
	const stH, stV, stG = 0, 1, 2
	state := stH
walk:
	for i > 0 && j > 0 {
		d := dir[i*cols+j]
		switch state {
		case stH:
			switch d & tbSrcMask {
			case tbStop:
				break walk
			case tbDiag:
				pushOp(OpAligned)
				i--
				j--
			case tbVert:
				state = stV
			case tbHoriz:
				state = stG
			}
		case stV: // gap in b: consume a[i-1], move up
			pushOp(OpDelB)
			if d&tbVertExt == 0 {
				state = stH
			}
			i--
		case stG: // gap in a: consume b[j-1], move left
			pushOp(OpInsB)
			if d&tbHorizExt == 0 {
				state = stH
			}
			j--
		}
	}
	best.AStart, best.BStart = i, j
	al.ops = rev
	// The caller keeps the operations, so they leave the scratch as an
	// exact-size copy, reversed on the way.
	ops := make([]Op, len(rev))
	for l, op := range rev {
		ops[len(rev)-1-l] = op
	}
	return best, ops
}

// FormatAlignment renders a three-line alignment (query, midline,
// subject) for the traceback ops, starting at the Local coordinates.
// The midline shows the residue for identities, '+' for positive
// substitution scores and ' ' otherwise, as BLAST output does.
func FormatAlignment(a, b []byte, loc Local, ops []Op, m *matrix.Matrix) string {
	var qa, mid, sa bytes.Buffer
	i, j := loc.AStart, loc.BStart
	for _, op := range ops {
		for k := 0; k < op.Len; k++ {
			switch op.Kind {
			case OpAligned:
				ca, cb := a[i], b[j]
				qa.WriteByte(alphabet.ProteinLetter(ca))
				sa.WriteByte(alphabet.ProteinLetter(cb))
				switch {
				case ca == cb:
					mid.WriteByte(alphabet.ProteinLetter(ca))
				case m.Score(ca, cb) > 0:
					mid.WriteByte('+')
				default:
					mid.WriteByte(' ')
				}
				i++
				j++
			case OpInsB:
				qa.WriteByte('-')
				mid.WriteByte(' ')
				sa.WriteByte(alphabet.ProteinLetter(b[j]))
				j++
			case OpDelB:
				qa.WriteByte(alphabet.ProteinLetter(a[i]))
				mid.WriteByte(' ')
				sa.WriteByte('-')
				i++
			}
		}
	}
	return fmt.Sprintf("Query  %4d %s %d\n            %s\nSbjct  %4d %s %d\n",
		loc.AStart+1, qa.String(), i,
		mid.String(),
		loc.BStart+1, sa.String(), j)
}

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
	// kept holds the rows LocalBandedOps keeps of a scalar pass.
	kept []int32
}

// NewAligner returns an Aligner for the given matrix and gap costs.
func NewAligner(m *matrix.Matrix, gap GapParams) *Aligner {
	al := &Aligner{m: m, gap: gap}
	al.kern.init(m, gap)
	return al
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
			out[l] = al.bandedEndScalar(a, b, diags[l], band, noStop, nil)
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
	sub := al.bandedEndScalar(al.ra, al.rb, end.BEnd-end.AEnd-diag, band, stop, nil)
	return end.AEnd - sub.AEnd, end.BEnd - sub.BEnd
}

// LocalBandedReference is LocalBanded computed the plain way: the
// scalar loop for both passes, the reverse pass run to completion on
// fresh copies. It is what the equivalence tests of this package and
// of internal/gapped pin the shipped path to (which is why it is not
// in a _test.go file); no option reaches it.
func (al *Aligner) LocalBandedReference(a, b []byte, diag, band int) Local {
	best := al.bandedEndScalar(a, b, diag, band, noStop, nil)
	if best.Score == 0 {
		return Local{}
	}
	ra := reverseInto(nil, a[:best.AEnd])
	rb := reverseInto(nil, b[:best.BEnd])
	sub := al.bandedEndScalar(ra, rb, best.BEnd-best.AEnd-diag, band, noStop, nil)
	best.AStart = best.AEnd - sub.AEnd
	best.BStart = best.BEnd - sub.BEnd
	return best
}

// LocalBandedOps returns the operations of the alignment LocalBanded
// reported as loc (same a, b, diag and band): a path through the band
// from loc's start cell to its end cell that scores loc.Score, the
// first in the tie order of kernel.go. When loc's end is a kernel lane
// of the last LocalBandedEnds pass, with the same slices unmodified,
// it walks the rows the kernel kept; otherwise it runs the scalar loop
// again for this one lane, keeping the rows the walk reads. It returns
// nil for a loc that scores 0 or is not LocalBanded's result, and
// under gap costs with Open < 0, Extend < 0 or Open+Extend < 1: there
// the start need not begin a path to the end, or a path can close a
// gap and open the next one at once, which runs of Ops cannot express.
func (al *Aligner) LocalBandedOps(a, b []byte, loc Local, diag, band int) []Op {
	w, dlo := 2*max(band, 0)+1, diag-max(band, 0)
	ks, ke := loc.BStart-loc.AStart-dlo, loc.BEnd-loc.AEnd-dlo // band cells of the start and end
	if loc.Score <= 0 || al.gap.Open < 0 || al.gap.Extend < 0 || al.gap.Open+al.gap.Extend < 1 ||
		loc.AStart < 0 || loc.AStart >= loc.AEnd || ks < 0 || ks >= w {
		return nil // an end that is not LocalBanded's fails below
	}
	end, stride := Local{Score: loc.Score, AEnd: loc.AEnd, BEnd: loc.BEnd}, w+1
	k := &al.kern
	if l := k.lane(a, b, end, diag, band); l >= 0 {
		if al.walkLane(l, a, b, end, diag, band) != (loc.AStart+1)*stride+ks {
			return nil
		}
	} else {
		// The rows from the one above the start's: the walk, floored
		// at the start, reads no others.
		n := (loc.AEnd - loc.AStart + 1) * stride * 3
		if cap(al.kept) < n {
			al.kept = make([]int32, n)
		}
		keep := &scalarRows{from: loc.AStart, to: loc.AEnd, v: al.kept[:n], stride: stride}
		clear(keep.v)
		if al.bandedEndScalar(a, b, diag, band, loc.Score, keep) != end {
			return nil
		}
		if walk(al, keptRows[int32]{keep.v, 3, stride, loc.AStart}, a, b, dlo,
			(loc.AEnd-loc.AStart)*stride+ke, stride+ks) != stride+ks {
			return nil
		}
	}
	// The start's own pair, then the path, which runs last first.
	ops := opPath(make([]Op, 0, len(k.best)+1)).add(OpAligned, 1)
	for i := len(k.best) - 1; i >= 0; i-- {
		ops = ops.add(k.best[i].Kind, k.best[i].Len)
	}
	return ops
}

// scalarRows are rows from..to of a scalar pass, kept in the kernel's
// band layout (kernel.go) with three int32s a cell: row i's cells
// start at v[(i-from)·stride·3].
type scalarRows struct {
	from, to int
	v        []int32
	stride   int
}

// row keeps columns lo..hi of row i, whose band cell 0 is column
// first: H, and E and F clamped at 0 as the kernel keeps them. The
// scalar loop keeps no F, so F runs again from H. A nil keep, or a row
// outside from..to, keeps nothing.
func (keep *scalarRows) row(i, first, lo, hi int, h, e []int32, openExt, ext int32) {
	if keep == nil || i < keep.from || i > keep.to {
		return
	}
	v := keep.v[(i-keep.from)*keep.stride*3:]
	f := negInf
	for j := lo; j <= hi; j++ {
		c := v[3*(j-first):]
		c[0], c[1], c[2] = h[j], max(e[j], 0), max(f, 0)
		f = maxI32(h[j]-openExt, f-ext)
	}
}

// noStop as a pass's stop score lets it run to completion: no cell
// scores it.
const noStop = -1

// bandedEndScalar is the banded score pass, one int32 cell at a time:
// the reference implementation, the path of every GOARCH without a
// kernel, the fallback when a call does not fit the kernel's int16
// lanes, and LocalBandedStart's reverse pass when there are no kept
// rows to walk. It returns early at the first cell scoring stop. With
// keep it also keeps the rows LocalBandedOps walks.
func (al *Aligner) bandedEndScalar(a, b []byte, diag, band, stop int, keep *scalarRows) Local {
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
					keep.row(i, i+diag-band, lo, j, h, e, openExt, ext)
					return best
				}
			}
			f = maxI32(val-openExt, f-ext)
		}
		keep.row(i, i+diag-band, lo, hi, h, e, openExt, ext)
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

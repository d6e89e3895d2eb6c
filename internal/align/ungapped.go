// Package align provides the scoring primitives shared by the
// pipeline's ungapped stage, the gapped stage, the hardware simulator
// and the BLAST baseline: window scores over fixed-length
// neighbourhoods, X-drop ungapped extension, and banded affine-gap
// local alignment, whose start and operations come from a walk back
// over the rows the score pass kept (kernel.go).
package align

import (
	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
)

// WindowScore computes the ungapped score of two equal-length windows
// as the maximum over all zero-clamped running sums (Kadane): the best
// scoring contiguous segment of the window. This is the semantics of
// the paper's §2.2 pseudocode — its published listing reads
// "score = max(score, score + Sub[S0[k]][S1[k]])", which taken
// literally never decreases and is a typo for the clamped running sum —
// and is what each processing element of the PSC operator computes in
// W+2N clock cycles (an adder, a clamp and a running maximum).
func WindowScore(s0, s1 []byte, m *matrix.Matrix) int {
	table := m.Table()
	score, best := 0, 0
	for k := 0; k < len(s0); k++ {
		score += int(table[int(s0[k])*alphabet.NumAA+int(s1[k])])
		if score < 0 {
			score = 0
		}
		if score > best {
			best = score
		}
	}
	return best
}

// UngappedExtension is the result of an X-drop ungapped extension.
type UngappedExtension struct {
	Score  int
	QStart int // inclusive
	QEnd   int // exclusive
	SStart int
	SEnd   int
}

// ExtendUngapped performs BLAST-style X-drop ungapped extension from a
// seed match q[qPos:qPos+w] / s[sPos:sPos+w]: it extends left from the
// seed start and right from the seed end, in each direction accumulating
// pair scores and stopping when the running score falls more than xdrop
// below the best seen. The returned interval is the best-scoring
// extension including the seed.
func ExtendUngapped(q, s []byte, qPos, sPos, w int, xdrop int, m *matrix.Matrix) UngappedExtension {
	table := m.Table()

	// Score of the seed itself.
	seedScore := 0
	for k := 0; k < w; k++ {
		seedScore += int(table[int(q[qPos+k])*alphabet.NumAA+int(s[sPos+k])])
	}

	// Right extension from the seed end.
	best := 0
	run := 0
	rightLen := 0
	for i := 0; qPos+w+i < len(q) && sPos+w+i < len(s); i++ {
		run += int(table[int(q[qPos+w+i])*alphabet.NumAA+int(s[sPos+w+i])])
		if run > best {
			best = run
			rightLen = i + 1
		}
		if best-run > xdrop {
			break
		}
	}
	rightScore := best

	// Left extension from the seed start.
	best, run = 0, 0
	leftLen := 0
	for i := 1; qPos-i >= 0 && sPos-i >= 0; i++ {
		run += int(table[int(q[qPos-i])*alphabet.NumAA+int(s[sPos-i])])
		if run > best {
			best = run
			leftLen = i
		}
		if best-run > xdrop {
			break
		}
	}
	leftScore := best

	return UngappedExtension{
		Score:  seedScore + leftScore + rightScore,
		QStart: qPos - leftLen,
		QEnd:   qPos + w + rightLen,
		SStart: sPos - leftLen,
		SEnd:   sPos + w + rightLen,
	}
}

package cluster

import (
	"fmt"

	"seedblast/internal/service"
)

// rankedAlignment pairs a wire alignment with the global sequence
// numbers its ids resolve to, so JSON results can be ranked exactly
// like engine results.
type rankedAlignment struct {
	a    service.AlignmentJSON
	q, s int
}

// rankLess orders wire alignments under the engine's global
// (Seq0, EValue, Seq1) ranking. Equal full keys can only come from the
// same (query, subject) pair, hence the same volume; the volume number
// completes a total order for determinism.
func rankLess(a, b *rankedAlignment, va, vb int) bool {
	if a.q != b.q {
		return a.q < b.q
	}
	if a.a.EValue != b.a.EValue {
		return a.a.EValue < b.a.EValue
	}
	if a.s != b.s {
		return a.s < b.s
	}
	return va < vb
}

// volumeCursor is one volume's position in the k-way merge: a pull
// over its (already globally-ranked) records plus the current head.
type volumeCursor struct {
	vi     int
	pull   func() (service.AlignmentJSON, error, bool)
	cur    rankedAlignment
	primed bool // cur holds an unconsumed head
	done   bool // stream exhausted
	count  int  // alignments consumed from this volume
}

// sliceCursor is a cursor over one volume's fetched records.
func sliceCursor(vi int, as []service.AlignmentJSON) *volumeCursor {
	return &volumeCursor{vi: vi, pull: func() (a service.AlignmentJSON, err error, ok bool) {
		if len(as) == 0 {
			return a, nil, false
		}
		a, as = as[0], as[1:]
		return a, nil, true
	}}
}

// advance loads the next stream element into cur, setting primed, or
// done on exhaustion.
func (c *volumeCursor) advance(rank func(vi int, a service.AlignmentJSON) rankedAlignment) error {
	a, err, ok := c.pull()
	if !ok {
		c.primed, c.done = false, true
		return nil
	}
	if err != nil {
		c.primed, c.done = false, true
		return err
	}
	c.cur = rank(c.vi, a)
	c.primed = true
	c.count++
	return nil
}

// mergeAlignmentStreams k-way merges per-volume wire streams into the
// globally ranked result in one pass, holding one head per volume.
// Each stream must already be ordered under the global ranking — which
// per-volume results are: a worker sorts by (Seq0, EValue, local
// Seq1), query numbering is shared, and a volume's local→global
// subject remap is monotonic (Volume.Seqs ascend). Equal full keys
// only occur within one volume (one (query, subject) pair lives in
// exactly one volume) and FIFO pops preserve their stream order, so
// the merge is bit-identical to buffering everything and sorting —
// pinned against mergeWireAlignments by tests.
func mergeAlignmentStreams(curs []*volumeCursor,
	rank func(vi int, a service.AlignmentJSON) rankedAlignment) ([]service.AlignmentJSON, error) {
	// Seed the heap with each stream's head.
	h := make([]*volumeCursor, 0, len(curs))
	for _, c := range curs {
		if err := c.advance(rank); err != nil {
			return nil, fmt.Errorf("volume %d: %w", c.vi, err)
		}
		if c.primed {
			h = append(h, c)
		}
	}
	less := func(a, b *volumeCursor) bool { return rankLess(&a.cur, &b.cur, a.vi, b.vi) }
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}

	var out []service.AlignmentJSON
	for len(h) > 0 {
		top := h[0]
		out = append(out, top.cur.a)
		if err := top.advance(rank); err != nil {
			return nil, fmt.Errorf("volume %d: %w", top.vi, err)
		}
		if top.done {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(h, 0, less)
		}
	}
	return out, nil
}

// siftDown restores the min-heap property at i.
func siftDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && less(h[l], h[m]) {
			m = l
		}
		if r < len(h) && less(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

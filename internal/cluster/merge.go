package cluster

// lineKey is one fetched alignment line's place in the global ranking:
// the global query and subject numbers its ids resolve to, its E-value,
// and the line's bytes, newline included, in its volume's buffer.
type lineKey struct {
	q, s       int
	e          float64
	start, end int
}

// rankLess orders alignments under the engine's global
// (Seq0, EValue, Seq1) ranking. Equal full keys can only come from the
// same (query, subject) pair, hence the same volume; the volume number
// completes a total order for determinism.
func rankLess(a, b *lineKey, va, vb int) bool {
	if a.q != b.q {
		return a.q < b.q
	}
	if a.e != b.e {
		return a.e < b.e
	}
	if a.s != b.s {
		return a.s < b.s
	}
	return va < vb
}

// volumeLines is one volume's fetched result: its NDJSON lines, in the
// volume's rank order, and their keys.
type volumeLines struct {
	buf  []byte
	keys []lineKey
}

// mergeLines k-way merges the volumes' lines into the globally ranked
// NDJSON result in one pass, copying each line once and decoding none.
// Each volume must already be ordered under the global ranking — which
// per-volume results are: a worker sorts by (Seq0, EValue, local
// Seq1), query numbering is shared, and a volume's local→global
// subject remap is monotonic (Volume.Seqs ascend). Equal full keys
// only occur within one volume (one (query, subject) pair lives in
// exactly one volume) and the heap pops them in stream order, so the
// merge is bit-identical to buffering everything and sorting stably —
// pinned against that reference by tests.
func mergeLines(vols []volumeLines) []byte {
	size := 0
	pos := make([]int, len(vols))
	h := make([]int, 0, len(vols)) // volumes with lines left, by head
	for vi := range vols {
		size += len(vols[vi].buf)
		if len(vols[vi].keys) > 0 {
			h = append(h, vi)
		}
	}
	less := func(a, b int) bool { return rankLess(&vols[a].keys[pos[a]], &vols[b].keys[pos[b]], a, b) }
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
	out := make([]byte, 0, size)
	for len(h) > 0 {
		vi := h[0]
		k := &vols[vi].keys[pos[vi]]
		out = append(out, vols[vi].buf[k.start:k.end]...)
		if pos[vi]++; pos[vi] == len(vols[vi].keys) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(h, 0, less)
		}
	}
	return out
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

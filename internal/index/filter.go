package index

// FilterSeqs returns a new index holding only the entries whose
// sequence number appears in keep. Everything else is preserved: the
// bank pointer (and with it the original global sequence numbering
// inside each Entry), the seed model, N, and the relative order of
// entries within every bucket — so step-2 hits produced against the
// filtered index are exactly the subset of the unfiltered hits whose
// subject survived, in the same order. The prefilter stage builds one
// of these per query shard from the shard's survivor union.
//
// Entries and neighbourhood windows are copied, never aliased, so the
// filtered index is independent storage; for a seeddb-loaded index it
// is only valid while the source index remains open (the bank still
// references the mapping). Close on the filtered index is a no-op.
// keep must contain valid sequence numbers for the indexed bank;
// duplicates are harmless.
func (ix *Index) FilterSeqs(keep []uint32) *Index {
	in := make([]bool, ix.bank.Len())
	for _, s := range keep {
		in[s] = true
	}
	space := ix.model.KeySpace()
	out := &Index{
		bank:        ix.bank,
		model:       ix.model,
		n:           ix.n,
		subLen:      ix.subLen,
		bucketStart: make([]uint32, space+1),
	}
	// Pass 1: surviving bucket sizes of the occupied keys, accumulated
	// directly as the shifted prefix-sum layout Build uses.
	out.keys = make([]uint32, 0, len(ix.keys))
	for _, k := range ix.keys {
		lo, hi := ix.bucketStart[k], ix.bucketStart[k+1]
		n := uint32(0)
		for i := lo; i < hi; i++ {
			if in[ix.entries[i].Seq] {
				n++
			}
		}
		if n != 0 {
			out.bucketStart[k+1] = n
			out.keys = append(out.keys, k)
		}
	}
	for k := 1; k <= space; k++ {
		out.bucketStart[k] += out.bucketStart[k-1]
	}
	total := out.bucketStart[space]
	out.entries = make([]Entry, total)
	out.neighborhoods = make([]byte, int(total)*ix.subLen)

	// Pass 2: copy surviving entries and their neighbourhood rows,
	// preserving in-bucket order.
	j := 0
	for i := range ix.entries {
		if !in[ix.entries[i].Seq] {
			continue
		}
		out.entries[j] = ix.entries[i]
		copy(out.neighborhoods[j*ix.subLen:(j+1)*ix.subLen],
			ix.neighborhoods[i*ix.subLen:(i+1)*ix.subLen])
		j++
	}
	return out
}

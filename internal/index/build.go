package index

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"seedblast/internal/bank"
	"seedblast/internal/seed"
)

// parallelBuildMinResidues is the bank size below which BuildParallel
// builds at one worker: per-worker key-space histograms and the
// (key, worker) scan cost about what the parallel passes save. Measured
// with BenchmarkBuildCrossover (default 40 000-key model, N = 14,
// 120 aa sequences, medians of eight on two cores): one worker is 29 %
// faster at 8 000 residues, the two are within 6 % from 16 000 to
// 24 000, and two workers are 12 % faster at 32 000, 11 % at 40 000 and
// 27 % at 64 000.
const parallelBuildMinResidues = 36_000

// BuildParallel builds the index of b with the given number of workers
// (0 = GOMAXPROCS); banks under parallelBuildMinResidues are built at
// one worker. The result does not depend on the worker count.
func BuildParallel(b *bank.Bank, model seed.Model, n, workers int) (*Index, error) {
	if n < 0 {
		return nil, fmt.Errorf("index: negative neighbourhood %d", n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if b.TotalResidues() < parallelBuildMinResidues {
		workers = 1
	}
	return build(b, model, n, max(1, min(workers, b.Len())))
}

// build runs the three passes of step 1 on workers workers:
//
//  1. count: each worker counts the keys of its contiguous range of
//     sequences into a private histogram, key k at cur[k+2], and the
//     distinct keys it sees.
//  2. scatter: an exclusive scan over (key, worker) turns cur[k+1] into
//     where the worker starts writing inside bucket k, and each worker
//     scatters its entries through those cursors. Ranges are in
//     sequence order, so every bucket lists its entries by (Seq, Off).
//     The scatter leaves the last worker's cur[k] at bucket k's start:
//     that array is bucketStart, with no further key-space array (at
//     one worker this is a shifted prefix sum).
//  3. fill: the workers split the entries into equal ranges and write
//     each one's window in entry order: one copy from the bank, or
//     extractWindow's padding where the window crosses a sequence end.
func build(b *bank.Bank, model seed.Model, n, workers int) (*Index, error) {
	bd := &builder{b: b, model: model, w: model.Width(), space: model.KeySpace(), workers: workers,
		ix: &Index{bank: b, model: model, n: n, subLen: model.Width() + 2*n}, hists: make([]histogram, workers)}
	if err := bd.parallel((*builder).count); err != nil {
		return nil, err
	}

	// The workers' distinct keys bound the occupied keys (exactly, at
	// one worker).
	sum := 0
	for _, h := range bd.hists {
		sum += h.distinct
	}
	keys := make([]uint32, 0, min(bd.space, sum))
	var total uint32
	if workers == 1 {
		// The same scan as a tight loop: every search pays it for its
		// query index, at twice the cost in the general form.
		c := bd.hists[0].cur
		for k, count := range c[2:] {
			if count != 0 {
				keys = append(keys, uint32(k))
			}
			c[k+1], total = total, total+count
		}
	} else {
		for k := range bd.space {
			start := total
			for _, h := range bd.hists {
				h.cur[k+1], total = total, total+h.cur[k+2]
			}
			if total != start {
				keys = append(keys, uint32(k))
			}
		}
	}
	ix := bd.ix
	ix.keys = keys
	ix.entries = make([]Entry, total)
	bd.parallel((*builder).scatter)
	ix.bucketStart = bd.hists[workers-1].cur[:bd.space+1]
	ix.neighborhoods = make([]byte, int(total)*ix.subLen)
	bd.parallel((*builder).fill)
	return ix, nil
}

// builder is one build's state, shared by the workers of its passes.
// The passes are its methods, not closures, so that a small bank's
// build allocates little: a query index is built at every search.
type builder struct {
	b                 *bank.Bank
	model             seed.Model
	w, space, workers int
	ix                *Index
	hists             []histogram
}

// histogram is one worker's key counts, and then its cursors.
type histogram struct {
	cur      []uint32
	distinct int
}

func (bd *builder) count(wi int) error {
	b, model, w, space := bd.b, bd.model, bd.w, bd.space
	c, d := make([]uint32, space+2), 0
	lo, hi := b.Len()*wi/bd.workers, b.Len()*(wi+1)/bd.workers
	for s := lo; s < hi; s++ {
		seq := b.Seq(s)
		for off := 0; off+w <= len(seq); off++ {
			if key, ok := model.Key(seq[off : off+w]); ok {
				if int(key) >= space {
					return errKeyRange(key, space)
				}
				if c[key+2] == 0 {
					d++
				}
				c[key+2]++
			}
		}
	}
	bd.hists[wi] = histogram{c, d}
	return nil
}

func (bd *builder) scatter(wi int) error {
	b, model, w := bd.b, bd.model, bd.w
	c, entries := bd.hists[wi].cur, bd.ix.entries
	lo, hi := b.Len()*wi/bd.workers, b.Len()*(wi+1)/bd.workers
	for s := lo; s < hi; s++ {
		seq := b.Seq(s)
		for off := 0; off+w <= len(seq); off++ {
			if key, ok := model.Key(seq[off : off+w]); ok {
				entries[c[key+1]] = Entry{Seq: uint32(s), Off: uint32(off)}
				c[key+1]++
			}
		}
	}
	return nil
}

func (bd *builder) fill(wi int) error {
	b, ix := bd.b, bd.ix
	n, subLen := ix.n, ix.subLen
	lo, hi := len(ix.entries)*wi/bd.workers, len(ix.entries)*(wi+1)/bd.workers
	dst := ix.neighborhoods[lo*subLen : hi*subLen]
	for _, e := range ix.entries[lo:hi] {
		seq := b.Seq(int(e.Seq))
		if start := int(e.Off) - n; start >= 0 && start+subLen <= len(seq) {
			copy(dst[:subLen], seq[start:])
		} else {
			extractWindow(dst[:subLen], seq, start)
		}
		dst = dst[subLen:]
	}
	return nil
}

// parallel runs pass(bd, wi) for every worker wi, each on its own
// goroutine except worker 0, which is the caller (one worker starts no
// goroutine), and returns the workers' errors joined.
func (bd *builder) parallel(pass func(bd *builder, wi int) error) error {
	if bd.workers == 1 {
		return pass(bd, 0)
	}
	errs := make([]error, bd.workers)
	var wg sync.WaitGroup
	wg.Add(bd.workers - 1)
	for wi := 1; wi < bd.workers; wi++ {
		go func() { defer wg.Done(); errs[wi] = pass(bd, wi) }()
	}
	errs[0] = pass(bd, 0)
	wg.Wait()
	return errors.Join(errs...)
}

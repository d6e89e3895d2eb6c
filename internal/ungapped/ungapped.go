// Package ungapped implements step 2 of the paper's algorithm on the
// CPU: for every seed key, every pair formed from the two index lists
// IL0 and IL1 is scored over its W+2N neighbourhood, and pairs whose
// ungapped score reaches the threshold survive to the gapped stage.
// This is the paper's critical section (97% of the software profile,
// Table 1) and the computation the PSC operator parallelises; the
// hardware simulator must produce bit-identical hits to this engine.
package ungapped

import (
	"fmt"
	"runtime"
	"sync"

	"seedblast/internal/align"
	"seedblast/internal/index"
	"seedblast/internal/keep"
	"seedblast/internal/matrix"
)

// Hit is a surviving seed pair: an occurrence in bank 0 and one in
// bank 1 whose neighbourhood score reached the threshold. It holds the
// two entries step 3 reads and nothing else (16 bytes). The seed key
// only orders Result.Hits, and the window score is not kept: a window's
// score does not depend on the threshold, so the hits at a higher
// threshold are those of a run at that threshold.
type Hit struct {
	E0, E1 index.Entry
}

// Config parameterises the ungapped stage.
type Config struct {
	Matrix    *matrix.Matrix
	Threshold int    // minimal window score to survive
	Workers   int    // 0 means GOMAXPROCS
	Kernel    Kernel // inner-loop implementation (default KernelAuto; see Kernel for who sets it)
}

// Result is the outcome of step 2 as one flat hit list.
type Result struct {
	Hits   []Hit
	Pairs  int64  // total K0×K1 pairs scored, the stage's work measure
	Kernel Kernel // the kernel that actually ran (never KernelAuto)
}

// Output is step 2 as step 3 reads it: each worker's chunk, written
// once and read in place, never merged.
type Output struct {
	Chunks []Chunk // in key order: concatenated, they are Run's hits
	// Base is the bank-0 sequence number of each chunk's Counts[0]:
	// zero from Scan, a shard's first sequence once its hits are
	// renumbered into the whole bank.
	Base   uint32
	Pairs  int64  // total K0×K1 pairs scored, the stage's work measure
	Kernel Kernel // the kernel that actually ran (never KernelAuto)
}

// Chunk is one worker's hits, from a contiguous key range in key
// order, and per bank-0 sequence q of the indexed bank the number
// Counts[q] of them whose E0.Seq is Base+q.
type Chunk struct {
	Hits   []Hit
	Counts []uint32
}

// Len returns the number of hits.
func (o *Output) Len() (n int) {
	for _, c := range o.Chunks {
		n += len(c.Hits)
	}
	return n
}

// Hits returns the chunks' hits concatenated, nil when there are none.
func (o *Output) Hits() []Hit {
	n := o.Len()
	if n == 0 {
		return nil
	} else if len(o.Chunks) == 1 {
		return o.Chunks[0].Hits
	}
	hits := make([]Hit, 0, n)
	for _, c := range o.Chunks {
		hits = append(hits, c.Hits...)
	}
	return hits
}

// Release keeps the chunks' hit buffers for a later Scan; neither o's
// hits nor a slice of them may be read after.
func (o *Output) Release() {
	for _, c := range o.Chunks {
		kept.Put(c.Hits)
	}
	o.Chunks = nil
}

// kept holds the hit buffers of released hand-offs.
var kept keep.Store[Hit]

// Run executes step 2 over two indexes built with the same seed model
// and neighbourhood. Hits are returned in deterministic order (by key,
// then IL0 position, then IL1 position) regardless of worker count.
func Run(ix0, ix1 *index.Index, cfg Config) (*Result, error) {
	out, err := Scan(ix0, ix1, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Hits: out.Hits(), Pairs: out.Pairs, Kernel: out.Kernel}
	if len(out.Chunks) > 1 { // copied out
		out.Release()
	}
	return res, nil
}

// Scan is Run without the merge: each worker owns a contiguous key
// range, walks the occupied bank-0 keys inside it and appends hits to
// its own chunk, counting each flushed row's hits against the row's
// query, so the chunks in order hold Run's hits whatever the worker
// count.
func Scan(ix0, ix1 *index.Index, cfg Config) (*Output, error) {
	if err := validate(ix0, ix1, &cfg); err != nil {
		return nil, err
	}
	out := &Output{Kernel: cfg.Kernel.resolve(cfg.Matrix, ix0.SubLen())}
	used := len(ix0.Keys())
	if used == 0 {
		return out, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, used)
	space := ix0.Model().KeySpace()
	n0 := ix0.Bank().Len()
	counts, pairs := make([]uint32, workers*n0), make([]int64, workers)
	out.Chunks = make([]Chunk, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := space*w/workers, space*(w+1)/workers
			c := &out.Chunks[w]
			c.Hits, c.Counts = kept.Get(0), counts[w*n0:(w+1)*n0:(w+1)*n0]
			pairs[w] = scanKeys(ix0, ix1, uint32(lo), uint32(hi), &cfg, out.Kernel, c)
		}(w)
	}
	wg.Wait()
	for _, p := range pairs {
		out.Pairs += p
	}
	return out, nil
}

func validate(ix0, ix1 *index.Index, cfg *Config) error {
	if ix0.Model().KeySpace() != ix1.Model().KeySpace() ||
		ix0.Model().Width() != ix1.Model().Width() {
		return fmt.Errorf("ungapped: indexes built with different seed models (%s vs %s)",
			ix0.Model().Name(), ix1.Model().Name())
	}
	if ix0.SubLen() != ix1.SubLen() {
		return fmt.Errorf("ungapped: neighbourhood lengths differ (%d vs %d)",
			ix0.SubLen(), ix1.SubLen())
	}
	if cfg.Matrix == nil {
		return fmt.Errorf("ungapped: matrix is required")
	}
	if cfg.Threshold <= 0 {
		return fmt.Errorf("ungapped: threshold must be positive, got %d", cfg.Threshold)
	}
	return nil
}

// reserve makes room for need more hits. append alone regrows a large
// slice 1.25× at a time — on a bank of homologs, where most pairs
// pass, that copied a search's hits five times over and was its
// largest allocator. Instead the chunk grows to the size its hit rate
// so far projects over span keys, of which done have been scanned,
// plus an eighth; the projection is clamped to [2×, 4×] of what is
// needed now, so a skewed start can neither stall growth nor
// over-allocate by more than that.
func (c *Chunk) reserve(need int, done, span uint32) {
	need += len(c.Hits)
	if need <= cap(c.Hits) {
		return
	}
	projected := int(int64(need) * int64(span) / int64(done))
	projected += projected / 8
	grown := make([]Hit, len(c.Hits), min(max(projected, 2*need), 4*need))
	copy(grown, c.Hits)
	c.Hits = grown
}

// scanKeys runs the paper's nested loops over the occupied bank-0
// keys in [lo, hi) with the resolved kernel (never KernelAuto),
// appending hits to c and counting them in c.Counts, one per bank-0
// sequence. It returns the pairs scored.
func scanKeys(ix0, ix1 *index.Index, lo, hi uint32, cfg *Config, kernel Kernel, c *Chunk) (pairs int64) {
	subLen := ix0.SubLen()
	var ks *blockedScratch
	for _, k := range ix0.KeysIn(lo, hi) {
		// A length-only probe first: skipping keys empty in bank 1
		// avoids materialising both bucket views.
		if ix1.BucketLen(k) == 0 {
			continue
		}
		il0, hood0 := ix0.Bucket(k)
		il1, hood1 := ix1.Bucket(k)
		pairs += int64(len(il0)) * int64(len(il1))
		// The vector path reads a full group of windows from the
		// bucket's start (see scanBucket); its scratch is built at the
		// first bucket that takes it.
		if kernel == KernelBlocked && len(il1) >= vectorMinIL1 && cap(hood1) >= avx2Lanes*subLen {
			if ks == nil {
				ks = newBlockedScratch(cfg.Matrix, subLen, cfg.Threshold)
			}
			ks.scanBucket(c, k-lo+1, hi-lo, il0, hood0, il1, hood1)
			continue
		}
		// Scalar reference path; also used by the blocked kernel for
		// small buckets where lane occupancy would be poor.
		for i := range il0 {
			w0, row := hood0[i*subLen:(i+1)*subLen], len(c.Hits)
			for j := range il1 {
				w1 := hood1[j*subLen : (j+1)*subLen]
				if align.WindowScore(w0, w1, cfg.Matrix) >= cfg.Threshold {
					c.reserve(1, k-lo+1, hi-lo)
					c.Hits = append(c.Hits, Hit{il0[i], il1[j]})
				}
			}
			c.Counts[il0[i].Seq] += uint32(len(c.Hits) - row)
		}
	}
	return pairs
}

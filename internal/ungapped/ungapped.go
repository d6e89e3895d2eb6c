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
	"seedblast/internal/matrix"
)

// Hit is a surviving seed pair: an occurrence in bank 0 and one in
// bank 1 whose neighbourhood score reached the threshold.
type Hit struct {
	Key    uint32
	E0     index.Entry
	E1     index.Entry
	Score  int32
	SubLen int32 // neighbourhood window length, for downstream staging
}

// Config parameterises the ungapped stage.
type Config struct {
	Matrix    *matrix.Matrix
	Threshold int    // minimal window score to survive
	Workers   int    // 0 means GOMAXPROCS
	Kernel    Kernel // inner-loop implementation (default KernelAuto; see Kernel for who sets it)
}

// Result is the outcome of step 2.
type Result struct {
	Hits   []Hit
	Pairs  int64  // total K0×K1 pairs scored, the stage's work measure
	Kernel Kernel // the kernel that actually ran (never KernelAuto)
}

// Run executes step 2 over two indexes built with the same seed model
// and neighbourhood. Hits are returned in deterministic order (by key,
// then IL0 position, then IL1 position) regardless of worker count.
func Run(ix0, ix1 *index.Index, cfg Config) (*Result, error) {
	if err := validate(ix0, ix1, &cfg); err != nil {
		return nil, err
	}
	kernel := cfg.Kernel.resolve(cfg.Matrix, ix0.SubLen())
	used := len(ix0.Keys())
	if used == 0 {
		return &Result{Kernel: kernel}, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, used)
	space := ix0.Model().KeySpace()

	// Static partition of the key space: each worker owns a contiguous
	// key range, walks the occupied bank-0 keys inside it, appends hits
	// locally, and chunks are concatenated in order, keeping the result
	// deterministic.
	chunks := make([]chunk, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := space * w / workers
			hi := space * (w + 1) / workers
			// Chunk 0 projects its growth over the whole key space
			// rather than its own share, so that it usually ends up
			// with room for every chunk and the merge below can append
			// to it in place.
			span := hi - lo
			if w == 0 {
				span = space
			}
			chunks[w] = scanKeys(ix0, ix1, uint32(lo), uint32(hi), uint32(span), &cfg, kernel)
		}(w)
	}
	wg.Wait()

	res := &Result{Kernel: kernel}
	total := 0
	for _, c := range chunks {
		total += len(c.hits)
		res.Pairs += c.pairs
	}
	// Merge into chunk 0's buffer when it has the room, into one exact
	// allocation otherwise.
	res.Hits = chunks[0].hits
	if cap(res.Hits) < total {
		res.Hits = append(make([]Hit, 0, total), res.Hits...)
	}
	for _, c := range chunks[1:] {
		res.Hits = append(res.Hits, c.hits...)
	}
	return res, nil
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

// chunk is one worker's share of step 2: locally-appended hits plus
// the pair count.
type chunk struct {
	hits  []Hit
	pairs int64
}

// reserve makes room for need more hits. append alone regrows a large
// slice 1.25× at a time — on a bank of homologs, where most pairs
// pass, that copied a search's hits five times over and was its
// largest allocator. Instead the chunk grows to the size its hit rate
// so far projects over span keys, of which done have been scanned,
// plus an eighth; the projection is clamped to [2×, 4×] of what is
// needed now, so a skewed start can neither stall growth nor
// over-allocate by more than that.
func (c *chunk) reserve(need int, done, span uint32) {
	need += len(c.hits)
	if need <= cap(c.hits) {
		return
	}
	projected := int(int64(need) * int64(span) / int64(done))
	projected += projected / 8
	grown := make([]Hit, len(c.hits), min(max(projected, 2*need), 4*need))
	copy(grown, c.hits)
	c.hits = grown
}

// scanKeys runs the paper's nested loops over the occupied bank-0
// keys in [lo, hi) with the resolved kernel (never KernelAuto).
func scanKeys(ix0, ix1 *index.Index, lo, hi, span uint32, cfg *Config, kernel Kernel) (c chunk) {
	subLen := ix0.SubLen()

	var ks *blockedScratch
	if kernel == KernelBlocked {
		ks = newBlockedScratch(cfg.Matrix, subLen, cfg.Threshold)
	}

	for _, k := range ix0.KeysIn(lo, hi) {
		// A length-only probe first: skipping keys empty in bank 1
		// avoids materialising both bucket views.
		if ix1.BucketLen(k) == 0 {
			continue
		}
		il0, hood0 := ix0.Bucket(k)
		il1, hood1 := ix1.Bucket(k)
		c.pairs += int64(len(il0)) * int64(len(il1))
		if ks != nil && len(il1) >= blockedMinIL1 {
			n := ks.scanBucket(il0, hood0, il1, hood1)
			c.reserve(n, k-lo+1, span)
			ks.flush(k, il0, il1, &c.hits)
			continue
		}
		// Scalar reference path; also used by the blocked kernel for
		// small buckets where lane occupancy would be poor.
		for i := range il0 {
			w0 := hood0[i*subLen : (i+1)*subLen]
			for j := range il1 {
				w1 := hood1[j*subLen : (j+1)*subLen]
				score := align.WindowScore(w0, w1, cfg.Matrix)
				if score >= cfg.Threshold {
					c.reserve(1, k-lo+1, span)
					c.hits = append(c.hits, Hit{
						Key:    k,
						E0:     il0[i],
						E1:     il1[j],
						Score:  int32(score),
						SubLen: int32(subLen),
					})
				}
			}
		}
	}
	return c
}

// PairCount returns the total number of neighbourhood scorings step 2
// must perform for the two indexes — Σk |IL0k|·|IL1k| — without
// running them. The hardware simulator uses it for cross-checking.
func PairCount(ix0, ix1 *index.Index) int64 {
	var n int64
	for _, k := range ix0.Keys() {
		n += int64(ix0.BucketLen(k)) * int64(ix1.BucketLen(k))
	}
	return n
}

package index

import (
	"runtime"
	"sync"

	"seedblast/internal/bank"
	"seedblast/internal/seed"
)

// parallelBuildMinResidues is the bank size below which BuildParallel
// runs Build instead: per-worker key-space histograms and the
// (key, worker) scan cost more than the parallel passes save. Measured
// with the default 40 000-key model, N = 12, on two cores: Build is
// faster up to 32 000 residues (45 % at 500, 15 % at 32 000), two
// workers are 15 % faster at 40 000 and 25 % at 48 000.
const parallelBuildMinResidues = 36_000

// BuildParallel builds the same index as Build using the given number
// of workers (0 = GOMAXPROCS); banks under parallelBuildMinResidues are
// built serially. The result is bit-identical to Build:
// sequences are partitioned into contiguous ranges, each worker counts
// its range into a private histogram, an exclusive scan over
// (key, worker) assigns every worker a disjoint cursor region inside
// each bucket, and the fill pass proceeds without synchronisation.
func BuildParallel(b *bank.Bank, model seed.Model, n, workers int) (*Index, error) {
	if n < 0 {
		return nil, errNegativeN(n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > b.Len() {
		workers = b.Len()
	}
	if workers <= 1 || b.TotalResidues() < parallelBuildMinResidues {
		return Build(b, model, n)
	}
	w := model.Width()
	ix := &Index{
		bank:   b,
		model:  model,
		n:      n,
		subLen: w + 2*n,
	}
	space := model.KeySpace()

	// Contiguous sequence ranges per worker.
	ranges := make([][2]int, workers)
	for i := range ranges {
		ranges[i] = [2]int{b.Len() * i / workers, b.Len() * (i + 1) / workers}
	}

	// Pass 1: per-worker histograms.
	counts := make([][]uint32, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := range ranges {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			local := make([]uint32, space)
			for s := ranges[wi][0]; s < ranges[wi][1]; s++ {
				seq := b.Seq(s)
				for off := 0; off+w <= len(seq); off++ {
					if key, ok := model.Key(seq[off : off+w]); ok {
						if int(key) >= space {
							errs[wi] = errKeyRange(key, space)
							return
						}
						local[key]++
					}
				}
			}
			counts[wi] = local
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Exclusive scan over (key, worker), in place: counts[wi][k] becomes
	// where worker wi starts writing inside bucket k; bucketStart is the
	// per-key scan and the occupied keys fall out of it.
	ix.bucketStart = make([]uint32, space+1)
	var running uint32
	for k := 0; k < space; k++ {
		ix.bucketStart[k] = running
		for wi := 0; wi < workers; wi++ {
			c := counts[wi][k]
			counts[wi][k] = running
			running += c
		}
		if running != ix.bucketStart[k] {
			ix.keys = append(ix.keys, uint32(k))
		}
	}
	ix.bucketStart[space] = running
	total := running
	ix.entries = make([]Entry, total)
	ix.neighborhoods = make([]byte, int(total)*ix.subLen)

	// Pass 2: parallel fill into disjoint regions.
	for wi := range ranges {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			cur := counts[wi]
			for s := ranges[wi][0]; s < ranges[wi][1]; s++ {
				seq := b.Seq(s)
				for off := 0; off+w <= len(seq); off++ {
					key, ok := model.Key(seq[off : off+w])
					if !ok {
						continue
					}
					i := cur[key]
					cur[key]++
					ix.entries[i] = Entry{Seq: uint32(s), Off: uint32(off)}
					extractWindow(ix.neighborhoods[int(i)*ix.subLen:(int(i)+1)*ix.subLen], seq, off-n)
				}
			}
		}(wi)
	}
	wg.Wait()
	return ix, nil
}

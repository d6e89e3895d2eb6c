// Package gapped implements step 3 of the paper's algorithm: hits
// surviving the ungapped filter are extended with a banded affine-gap
// local alignment around the seed diagonal, scored with gapped
// Karlin-Altschul statistics, filtered at the configured E-value
// (the paper compares against tblastn at E ≤ 10⁻³) and de-duplicated
// so each similarity region is reported once.
package gapped

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"seedblast/internal/align"
	"seedblast/internal/bank"
	"seedblast/internal/keep"
	"seedblast/internal/matrix"
	"seedblast/internal/stats"
	"seedblast/internal/ungapped"
)

// Alignment is one reported similarity region between a bank-0 and a
// bank-1 sequence.
type Alignment struct {
	Seq0, Seq1 int // sequence numbers in their banks
	Score      int
	BitScore   float64
	EValue     float64
	Q          Span // range in the bank-0 sequence
	S          Span // range in the bank-1 sequence
	Ops        []align.Op
}

// Span is a half-open residue range.
type Span struct{ Start, End int }

// Len returns the span length.
func (s Span) Len() int { return s.End - s.Start }

// Config parameterises the gapped stage.
type Config struct {
	Matrix *matrix.Matrix
	Gaps   align.GapParams
	Band   int // half-width of the alignment band around the seed diagonal
	// GapTrigger is the raw score a cheap ungapped X-drop extension of
	// the hit must reach before the banded dynamic programming runs, as
	// in NCBI BLAST. Zero disables the pre-filter.
	GapTrigger int
	// XDrop is the X-drop used by the pre-filter extension.
	XDrop     int
	Params    stats.Params // gapped Karlin-Altschul parameters
	MaxEValue float64
	// SearchSpace fixes the database geometry E-values are computed
	// against. The zero value derives n from the subject bank passed to
	// Run, as a whole-bank comparison needs. A coordinator scattering
	// volumes of a larger bank sets the full bank's geometry, so each
	// volume's E-values and MaxEValue cut match an unpartitioned run.
	SearchSpace stats.SearchSpace
	// Traceback keeps each reported alignment's operations
	// (Alignment.Ops): its path through the band from start to end,
	// taken after the E-value cut for survivors only
	// (align.LocalBandedOps). Alignments and Stats are the same either way.
	Traceback bool
	Workers   int // 0 means GOMAXPROCS
}

// DefaultConfig returns the stage defaults: BLOSUM62, BLAST gap costs,
// band 16, gap trigger 41 (NCBI's default, in raw BLOSUM62 units),
// published gapped statistics and the paper's E ≤ 10⁻³.
func DefaultConfig() Config {
	return Config{
		Matrix:     matrix.BLOSUM62,
		Gaps:       align.DefaultGaps,
		Band:       16,
		GapTrigger: 41,
		XDrop:      16,
		Params:     stats.GappedBLOSUM62,
		MaxEValue:  1e-3,
	}
}

// Stats describes the work the gapped stage performed; the simulated
// gap-extension operator (the paper's future-work second FPGA design)
// derives its cycle count from these.
type Stats struct {
	Hits        int   // hits received from step 2
	Contained   int   // skipped: seed inside an already-extended region
	PreFiltered int   // dropped by the gap-trigger pre-filter
	Extended    int   // banded DPs actually run
	DPRows      int64 // Σ query lengths over extended DPs
	DPCells     int64 // Σ query length × band width over extended DPs
}

// RunWithStats extends hits into alignments and reports the work
// done. b0 and b1 are the banks the hits' entries refer to. Results
// are sorted by (Seq0, EValue, Seq1) and de-duplicated per sequence
// pair. A hit naming a sequence or offset outside the banks is an
// error. The hits are cut into one chunk per worker and counted per
// query, as step 2 hands them to Extend.
func RunWithStats(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, Stats, error) {
	n0, pieces := b0.Len(), 1
	if len(hits) >= inlineHits {
		pieces = cmp.Or(max(cfg.Workers, 0), runtime.GOMAXPROCS(0))
	}
	in, counts := &ungapped.Output{Chunks: make([]ungapped.Chunk, pieces)}, make([]uint32, pieces*n0)
	if err := each(pieces, pieces, func(_, i int) error {
		c := &in.Chunks[i]
		c.Hits, c.Counts = hits[len(hits)*i/pieces:len(hits)*(i+1)/pieces], counts[i*n0:(i+1)*n0]
		for _, h := range c.Hits {
			if int(h.E0.Seq) >= n0 {
				return fmt.Errorf("gapped: hit names sequence %d of bank 0 (%d sequences)", h.E0.Seq, n0)
			}
			c.Counts[h.E0.Seq]++
		}
		return nil
	}); err != nil {
		return nil, Stats{}, err
	}
	return Extend(b0, b1, in, cfg)
}

// Extend is RunWithStats on step 2's hand-off, read in place: its
// per-query counts place every hit, so no pass counts them again. Its
// chunks' hits must be in bank-0 numbering from in.Base on.
func Extend(b0, b1 *bank.Bank, in *ungapped.Output, cfg Config) ([]Alignment, Stats, error) {
	out, st, _, err := run(b0, b1, in, cfg)
	return out, st, err
}

// fill counts a run's kernel passes, lanes extended, speculative lanes
// and speculative lanes whose hit turned out contained (result dropped).
type fill struct {
	passes, lanes, speculated, dropped int
}

// run is RunWithStats plus the kernel's fill, which tests read. Hits
// are partitioned by query, a query's grouped by subject and cut into
// chunks to extend, and its alignments sorted on their own; every pass
// is shared by workers, leaving O(queries + workers) serial work.
func run(b0, b1 *bank.Bank, in *ungapped.Output, cfg Config) ([]Alignment, Stats, fill, error) {
	if cfg.Matrix == nil {
		return nil, Stats{}, fill{}, fmt.Errorf("gapped: matrix is required")
	}
	if cfg.Band <= 0 {
		return nil, Stats{}, fill{}, fmt.Errorf("gapped: band must be positive, got %d", cfg.Band)
	}
	if cfg.MaxEValue <= 0 {
		return nil, Stats{}, fill{}, fmt.Errorf("gapped: MaxEValue must be positive, got %g", cfg.MaxEValue)
	}
	if err := cfg.SearchSpace.Validate(); err != nil {
		return nil, Stats{}, fill{}, fmt.Errorf("gapped: %w", err)
	}
	nhits := in.Len()
	if nhits > math.MaxInt32 {
		return nil, Stats{}, fill{}, fmt.Errorf("gapped: %d hits exceed the stage's 32-bit hit index", nhits)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bw := workers // partition, group and sort
	if nhits < inlineHits {
		bw = 1
	}
	qs, seeds, err := partition(in, b0.Len(), bw)
	defer kept.Put(seeds)
	if err != nil {
		return nil, Stats{}, fill{}, err
	}
	// Heaviest first, so a homolog-heavy query is not the tail.
	slices.SortStableFunc(qs, func(a, b query) int { return (b.end - b.start) - (a.end - a.start) })
	grs := make([]grouper, max(min(bw, len(qs)), 1))
	if err := each(len(grs), len(qs), func(w, i int) error { return grs[w].groupHits(&qs[i], seeds, b1.Len()) }); err != nil {
		return nil, Stats{}, fill{}, err
	}
	slices.SortFunc(qs, func(a, b query) int { return cmp.Compare(a.seq0, b.seq0) }) // chunks and output in query order
	nchunks, longest := 0, 0
	for i := range qs {
		qs[i].chunk0, qs[i].chunks = nchunks, (len(qs[i].groups)+chunkGroups-1)/chunkGroups
		nchunks += qs[i].chunks
		longest = max(longest, len(b0.Seq(int(qs[i].seq0))))
	}
	space := cfg.SearchSpace
	if space.IsZero() {
		space = stats.SearchSpace{DBLen: b1.TotalResidues(), DBSeqs: b1.Len()}
	}

	// Chunk c's alignments are chunkOut[c], copied out of its worker's
	// scratch at their exact size.
	chunkOut, found := make([][]Alignment, nchunks), make([]atomic.Int64, len(qs))
	xs := make([]*extender, max(min(workers, nchunks), 1))
	err = each(len(xs), nchunks, func(w, c int) error {
		// An Aligner is taken at the first chunk: a late worker takes none.
		if xs[w] == nil {
			al := getAligner(&cfg)
			al.Reserve(longest, cfg.Band)
			xs[w] = &extender{al: al, cfg: &cfg, space: space, seeds: seeds, b0: b0, b1: b1,
				speculate: al.BatchKernel(),
				gs:        make([]groupState, 0, chunkGroups),
				lanes:     make([]lane, 0, align.BatchLanes),
				wins:      make([][]byte, 0, align.BatchLanes),
				diags:     make([]int, 0, align.BatchLanes),
				ends:      make([]align.Local, 0, align.BatchLanes),
				heads:     make([]int32, 0, 32*chunkGroups), links: make([]link, 0, 2*chunkGroups)}
		}
		i := sort.Search(len(qs), func(i int) bool { return qs[i].chunk0 > c }) - 1
		x, qu := xs[w], &qs[i]
		lo := (c - qu.chunk0) * chunkGroups
		if err := x.chunk(qu.seq0, qu.groups[lo:min(lo+chunkGroups, len(qu.groups))]); err != nil {
			return err
		}
		chunkOut[c] = slices.Clone(x.out)
		found[i].Add(int64(len(chunkOut[c])))
		return nil
	})
	st := Stats{Hits: nhits}
	var fl fill
	for _, x := range slices.DeleteFunc(xs, func(x *extender) bool { return x == nil }) {
		putAligner(&cfg, x.al)
		st.Contained, st.PreFiltered, st.Extended = st.Contained+x.st.Contained, st.PreFiltered+x.st.PreFiltered, st.Extended+x.st.Extended
		st.DPRows, st.DPCells = st.DPRows+x.st.DPRows, st.DPCells+x.st.DPCells
		fl = fill{fl.passes + x.fill.passes, fl.lanes + x.fill.lanes, fl.speculated + x.fill.speculated, fl.dropped + x.fill.dropped}
	}
	if err != nil {
		return nil, Stats{}, fill{}, err
	}

	total := 0
	for i := range qs {
		qs[i].out, total = total, total+int(found[i].Load())
	}
	if total == 0 {
		return nil, st, fl, nil
	}
	out := make([]Alignment, total)
	keys := make([][]sortKey, len(grs))
	each(len(grs), len(qs), func(w, i int) error {
		keys[w] = sortAlignments(out[qs[i].out:], chunkOut[qs[i].chunk0:qs[i].chunk0+qs[i].chunks], keys[w])
		return nil
	})
	return out, st, fl, nil
}

// kept holds runs' seed buffers for later runs.
var kept keep.Store[seedPos]

// inlineHits is the measured crossover (BenchmarkBookkeeping) below
// which workers cost partition, grouping and sorting more than they save.
const inlineHits = 8192

// each runs do(w, i) for every i < n on workers workers claiming i
// from a shared cursor, the caller as worker 0. The first error stops
// every worker and is returned. One worker is a plain loop: no
// goroutine, cursor or error slice.
func each(workers, n int, do func(w, i int) error) error {
	if workers <= 1 {
		for i := range n {
			if err := do(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var cursor atomic.Int64
	errs := make([]error, workers)
	work := func(w int) {
		for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
			if errs[w] = do(w, i); errs[w] != nil {
				cursor.Store(int64(n))
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() { defer wg.Done(); work(w) }()
	}
	work(0)
	wg.Wait()
	return errors.Join(errs...)
}

// chunkGroups bounds a chunk, the groups of one query a kernel pass
// draws lanes from: enough to fill passes, few enough to share out.
const chunkGroups = 64

// alignerStore keeps up to GOMAXPROCS Aligners of finished runs, with
// their kernel scratch, for the next run: unlike a sync.Pool it
// survives garbage collections, so a daemon's first job after an idle
// spell does not allocate and clear its kept rows again.
var alignerStore struct {
	sync.Mutex
	free []storedAligner
}

// storedAligner is an Aligner in the store, with the scoring system
// it was made for.
type storedAligner struct {
	m   *matrix.Matrix
	gap align.GapParams
	al  *align.Aligner
}

// getAligner takes a stored Aligner for cfg's scoring system, or makes
// one.
func getAligner(cfg *Config) *align.Aligner {
	alignerStore.Lock()
	defer alignerStore.Unlock()
	free := alignerStore.free
	for i := len(free) - 1; i >= 0; i-- {
		if free[i].m == cfg.Matrix && free[i].gap == cfg.Gaps {
			al := free[i].al
			alignerStore.free = append(free[:i], free[i+1:]...)
			return al
		}
	}
	return align.NewAligner(cfg.Matrix, cfg.Gaps)
}

// putAligner stores al for the next run, replacing the oldest stored
// Aligner when the store is full.
func putAligner(cfg *Config, al *align.Aligner) {
	al.Forget()
	alignerStore.Lock()
	defer alignerStore.Unlock()
	if free := alignerStore.free; len(free) >= runtime.GOMAXPROCS(0) {
		copy(free, free[1:])
		alignerStore.free = free[:len(free)-1]
	}
	alignerStore.free = append(alignerStore.free, storedAligner{cfg.Matrix, cfg.Gaps, al})
}

// sortAlignments writes one query's alignments, found in chunks, to
// the start of dst in their reported order, (EValue, Seq1), by a
// stable sort of keys (returned for reuse). Ties are alignments of one
// pair, which keep dedup order: the order groups finished in never shows.
func sortAlignments(dst []Alignment, chunks [][]Alignment, keys []sortKey) []sortKey {
	keys = keys[:0]
	for c, as := range chunks {
		for i := range as {
			keys = append(keys, sortKey{as[i].EValue, uint64(as[i].Seq1)<<32 | uint64(len(keys)), uint32(c), uint32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.ev != b.ev {
			return cmp.Compare(a.ev, b.ev)
		}
		return cmp.Compare(a.tie, b.tie)
	})
	for k, key := range keys {
		dst[k] = chunks[key.c][key.i]
	}
	return keys
}

// sortKey is an alignment's EValue, Seq1<<32 | rank, and place in chunks.
type sortKey struct {
	ev   float64
	tie  uint64
	c, i uint32
}

// seedPos is all step 3 reads of a hit: the seed's residue offsets in
// its bank-0 and bank-1 sequences, and the bank-1 sequence.
type seedPos struct{ q, s, seq1 uint32 }

// query is one bank-0 sequence's share of a run, seeds[start:end].
type query struct {
	seq0       uint32
	start, end int
	groups     []hitGroup
	chunk0     int // its first chunk
	chunks     int // chunks of at most chunkGroups groups
	out        int // its first alignment in the output
}

// hitGroup is one subject's run of its query's seeds, seeds[start:end].
type hitGroup struct{ seq1, start, end uint32 }

// partition scatters step 2's hits by query (E0.Seq) into seeds, each
// query's hits contiguous and in chunk order, and returns the queries
// with hits in bank order. One prefix sum over the chunks' per-query
// counts gives every (query, chunk) its slots, and each chunk is
// scattered in place, a run of one query's hits at a time (step 2
// emits long runs). A hit past bank 0's n0 sequences, or beyond its
// chunk's count for its query, is an error.
func partition(in *ungapped.Output, n0, workers int) ([]query, []seedPos, error) {
	nc, nq := len(in.Chunks), 0
	if nc > 0 {
		nq = len(in.Chunks[0].Counts)
	}
	slots := make([]uint32, 2*nc*nq) // chunk c's next and end slot for query q at 2*(c*nq+q)
	qs, sum := make([]query, 0, min(nq, 1024)), uint32(0)
	for q := range nq {
		start := sum
		for c := range in.Chunks {
			counts := in.Chunks[c].Counts
			if len(counts) != nq {
				return nil, nil, fmt.Errorf("gapped: chunk %d counts hits of %d queries, chunk 0 of %d", c, len(counts), nq)
			}
			slots[2*(c*nq+q)], sum = sum, sum+counts[q]
			slots[2*(c*nq+q)+1] = sum
		}
		if sum == start {
			continue
		}
		if int(in.Base)+q >= n0 {
			return nil, nil, fmt.Errorf("gapped: %d hits name sequence %d of bank 0 (%d sequences)", sum-start, int(in.Base)+q, n0)
		}
		qs = append(qs, query{seq0: in.Base + uint32(q), start: int(start), end: int(sum)})
	}
	if n := in.Len(); int(sum) != n {
		return nil, nil, fmt.Errorf("gapped: step 2 counted %d hits and handed over %d", sum, n)
	}
	seeds := kept.Get(int(sum))
	return qs, seeds, each(min(workers, nc), nc, func(_, c int) error {
		hs, slot := in.Chunks[c].Hits, slots[2*c*nq:2*(c+1)*nq]
		for j := 0; j < len(hs); {
			s0 := hs[j].E0.Seq
			q := s0 - in.Base
			if int(q) >= nq {
				return fmt.Errorf("gapped: hit %d of chunk %d names sequence %d of bank 0, past step 2's counts", j, c, s0)
			}
			k, end := slot[2*q], slot[2*q+1]
			for ; j < len(hs) && hs[j].E0.Seq == s0; j, k = j+1, k+1 {
				if k == end {
					return fmt.Errorf("gapped: chunk %d holds more hits of sequence %d of bank 0 than step 2 counted", c, s0)
				}
				seeds[k] = seedPos{hs[j].E0.Off, hs[j].E1.Off, hs[j].E1.Seq}
			}
			slot[2*q] = k
		}
		return nil
	})
}

// grouper is a worker's grouping scratch: a table of slots 0 or
// (subject + 1)<<31 | group, the query's seeds tagged with their
// group, and its queries' groups.
type grouper struct {
	table  []uint64
	tagged []seedPos
	groups []hitGroup
}

// groupHits puts qu's seeds in group order, a group being one subject's
// seeds, by a counting sort: groups in order of first appearance, a
// group's seeds in input order (containment is order-dependent). One
// pass reads the seeds and writes them, tagged with their group, to
// the worker's scratch; the other scatters them back. The table starts
// with room for min(hits, n1, 1024) groups and doubles before they
// fill half of it, re-entering the groups, not the hits: it grows with
// the groups, not the hits or the bank. A subject past n1 is an error.
func (gr *grouper) groupHits(qu *query, seeds []seedPos, n1 int) error {
	hs := seeds[qu.start:qu.end]
	gr.tagged = slices.Grow(gr.tagged[:0], len(hs))[:len(hs)]
	gr.groups = slices.Grow(gr.groups, min(len(hs), n1))
	groups := gr.groups[len(gr.groups):]
	shift := gr.index(groups, 1<<bits.Len(uint(2*max(min(len(hs), n1, 1024), 1)-1)))
	for i, sp := range hs {
		slot := uint64(sp.seq1) * 0x9E3779B97F4A7C15 >> shift
		e := gr.table[slot]
		for e != 0 && e>>31 != uint64(sp.seq1)+1 {
			slot = (slot + 1) & uint64(len(gr.table)-1)
			e = gr.table[slot]
		}
		if e == 0 {
			if int(sp.seq1) >= n1 {
				return fmt.Errorf("gapped: hit pairs sequence %d of bank 0 with sequence %d of bank 1 (%d sequences)", qu.seq0, sp.seq1, n1)
			}
			e = (uint64(sp.seq1)+1)<<31 | uint64(len(groups))
			gr.table[slot], groups = e, append(groups, hitGroup{seq1: sp.seq1})
			if 2*len(groups) > len(gr.table) {
				shift = gr.index(groups, 2*len(gr.table))
			}
		}
		g := uint32(e & (1<<31 - 1))
		gr.tagged[i] = seedPos{sp.q, sp.s, g}
		groups[g].end++ // the group's size, for now
	}
	sum := uint32(qu.start) // sizes in end become starts, then ends
	for g := range groups {
		groups[g].start, groups[g].end, sum = sum, sum, sum+groups[g].end
	}
	for _, sp := range gr.tagged {
		g := &groups[sp.seq1]
		seeds[g.end] = seedPos{sp.q, sp.s, g.seq1}
		g.end++
	}
	qu.groups = groups[:len(groups):len(groups)]
	gr.groups = gr.groups[:len(gr.groups)+len(groups)]
	return nil
}

// index clears the table to size slots, enters groups in it and
// returns the hash's shift.
func (gr *grouper) index(groups []hitGroup, size int) int {
	gr.table = slices.Grow(gr.table[:0], size)[:size]
	clear(gr.table)
	shift := 65 - bits.Len(uint(size))
	for g, grp := range groups {
		slot := uint64(grp.seq1) * 0x9E3779B97F4A7C15 >> shift
		for gr.table[slot] != 0 {
			slot = (slot + 1) & uint64(size-1)
		}
		gr.table[slot] = (uint64(grp.seq1)+1)<<31 | uint64(g)
	}
	return shift
}

// extender is one worker's step-3 state: the run it works for, its
// Aligner, its counts, and the scratch of the chunk it is on.
type extender struct {
	al        *align.Aligner
	cfg       *Config
	space     stats.SearchSpace
	seeds     []seedPos
	b0, b1    *bank.Bank
	speculate bool // fill empty lanes with next candidates: the kernel runs
	st        Stats
	fill      fill
	seq0      int         // the query of the chunk it is on
	out       []Alignment // the alignments of the chunk's finished groups
	// The chunk's found alignments by start diagonal: bucket k of a
	// group with two or more is heads[g.heads+k], one past its last
	// alignment's link.
	heads []int32
	links []link

	gs    []groupState
	lanes []lane
	wins  [][]byte
	diags []int
	ends  []align.Local
}

// groupState is a group's progress through its hits: hits[cur:] are
// unresolved.
type groupState struct {
	seq1       int
	s          []byte
	hits       []seedPos
	cur        int
	done       bool
	found      []Alignment
	heads      int  // its first bucket in x.heads, once it has found two
	shift      int  // its buckets span 1<<shift > Band diagonals
	first, end int  // the group's lanes in the current pass
	settled    bool // the group speculates no further in the current pass
}

// lane is one extension of a pass: a hit of a group and its window,
// and whether its extension is sure to pass the E-value cut.
type lane struct {
	g, hit, winStart int
	sure             bool
}

// chunk extends groups of query seq0 in kernel passes of up to
// align.BatchLanes lanes. Each group walks its hits in order with at
// most one extension in flight, so containment sees exactly the
// alignments it saw one extension at a time: a pass takes each group's
// next candidate, from as many groups as fit, then resolves them. Left
// lanes are filled with the same groups' later candidates
// (speculation); resolving a group in hit order counts a speculated hit
// that has become contained as Contained and drops its lane's result.
// Found alignments only grow, so Stats and results are exactly those of
// the sequential walk. A finished group's alignments go to x.out. A
// seed offset outside its query or subject is an error, found before
// any extension.
func (x *extender) chunk(seq0 uint32, groups []hitGroup) error {
	x.seq0 = int(seq0)
	q := x.b0.Seq(x.seq0)
	x.gs, x.heads, x.links, x.out = x.gs[:0], x.heads[:0], x.links[:0], x.out[:0]
	for _, g := range groups {
		s, hits := x.b1.Seq(int(g.seq1)), x.seeds[g.start:g.end]
		for _, sp := range hits {
			if int(sp.q) >= len(q) || int(sp.s) >= len(s) {
				return fmt.Errorf("gapped: hit at offsets %d, %d lies outside sequence %d of bank 0 (%d residues) or %d of bank 1 (%d residues)", sp.q, sp.s, seq0, len(q), g.seq1, len(s))
			}
		}
		found := x.gs[:len(x.gs)+1][len(x.gs)].found[:0] // reused across chunks
		x.gs = append(x.gs, groupState{seq1: int(g.seq1), s: s, hits: hits, found: found})
	}
	for {
		// Each group's next candidate, from as many groups as fit; a
		// group without one is finished.
		x.lanes = x.lanes[:0]
		for i := range x.gs {
			g := &x.gs[i]
			g.first, g.end, g.settled = 0, 0, false
			if g.done || len(x.lanes) == align.BatchLanes {
				continue
			}
			h, sure := x.next(q, g)
			if h < 0 {
				g.done = true
				x.out = append(x.out, dedup(g.found)...)
				continue
			}
			g.first = len(x.lanes)
			x.lanes = append(x.lanes, x.window(i, h, sure))
			g.end = len(x.lanes)
		}
		if len(x.lanes) == 0 {
			return nil
		}
		if x.speculate && len(x.lanes) < align.BatchLanes {
			x.speculateLanes(q)
		}
		x.extend(q)
		for i := range x.gs {
			if g := &x.gs[i]; g.end > g.first {
				x.resolve(q, g)
			}
		}
	}
}

// next advances g to its next candidate, a hit not contained in what
// the group has found and past the gap trigger, counting the hits
// before it. It returns the candidate's index, -1 when the group has
// none left, and whether its extension is sure to pass the E-value
// cut (see triggers).
func (x *extender) next(q []byte, g *groupState) (h int, sure bool) {
	for ; g.cur < len(g.hits); g.cur++ {
		sp := g.hits[g.cur]
		if x.contained(g, len(q), sp) {
			x.st.Contained++
			continue
		}
		pass, sure := x.triggers(q, g.s, sp)
		if pass {
			return g.cur, sure
		}
		x.st.PreFiltered++
	}
	return -1, false
}

// triggers is the cheap pre-filter: an ungapped X-drop extension
// anchored at the seed's first residue must reach the gap trigger
// before the banded DP is paid for (NCBI's two-stage extension), which
// chance hits rarely do. sure reports that the ungapped segment alone
// passes the E-value cut, so the banded pass will report an alignment.
func (x *extender) triggers(q, s []byte, h seedPos) (pass, sure bool) {
	if x.cfg.GapTrigger <= 0 {
		return true, false
	}
	score := align.ExtendUngapped(q, s, int(h.q), int(h.s), 1, x.cfg.XDrop, x.cfg.Matrix).Score
	return score >= x.cfg.GapTrigger, x.cfg.Params.EValueIn(score, len(q), x.space) <= x.cfg.MaxEValue
}

// speculateLanes fills the pass's empty lanes with later candidates of
// its groups, one per group per round: hits after the group's last
// lane, not contained in what it has found and past the gap trigger.
// A group's lanes stay contiguous and in hit order, and every hit
// between two is contained or below the trigger, which resolve relies
// on. A group stops at a hit within the band of the diagonal of a lane
// sure to report an alignment, which will most likely contain it, as
// it does a homolog's other hits; chance hits are worth speculating past.
func (x *extender) speculateLanes(q []byte) {
	for grew := true; grew && len(x.lanes) < align.BatchLanes; {
		grew = false
		for i := range x.gs {
			g := &x.gs[i]
			if g.end == g.first || g.settled || len(x.lanes) == align.BatchLanes {
				continue
			}
			for h := x.lanes[g.end-1].hit + 1; h < len(g.hits); h++ {
				sp := g.hits[h]
				if x.contained(g, len(q), sp) {
					continue
				}
				if x.nearSureLane(g, sp) {
					g.settled = true
					break
				}
				pass, sure := x.triggers(q, g.s, sp)
				if !pass {
					continue
				}
				// Shift the later groups' lanes up by one to keep
				// each group's lanes contiguous.
				x.lanes = append(x.lanes, lane{})
				copy(x.lanes[g.end+1:], x.lanes[g.end:])
				x.lanes[g.end] = x.window(i, h, sure)
				for j := i + 1; j < len(x.gs); j++ {
					if o := &x.gs[j]; o.end > o.first {
						o.first++
						o.end++
					}
				}
				g.end++
				x.fill.speculated++
				grew = true
				break
			}
		}
	}
}

// nearSureLane reports whether the seed sp lies within the band of
// the diagonal of one of g's lanes in the current pass that is sure to
// report an alignment.
func (x *extender) nearSureLane(g *groupState, sp seedPos) bool {
	d := int(sp.s) - int(sp.q)
	for _, ln := range x.lanes[g.first:g.end] {
		h := g.hits[ln.hit]
		if dd := d - (int(h.s) - int(h.q)); ln.sure && dd >= -x.cfg.Band && dd <= x.cfg.Band {
			return true
		}
	}
	return false
}

// window is the lane that aligns the full query against a subject
// window around hit h's diagonal.
func (x *extender) window(g, h int, sure bool) lane {
	sp := x.gs[g].hits[h]
	return lane{g: g, hit: h, winStart: max(0, int(sp.s)-int(sp.q)-(x.cfg.Band+8)), sure: sure}
}

// extend runs the pass: the banded score pass over every lane, leaving
// each lane's result in x.ends.
func (x *extender) extend(q []byte) {
	x.wins, x.diags, x.ends = x.wins[:0], x.diags[:0], x.ends[:0]
	for _, ln := range x.lanes {
		g := &x.gs[ln.g]
		sp := g.hits[ln.hit]
		winEnd := min(len(g.s), int(sp.s)+(len(q)-int(sp.q))+x.cfg.Band+8)
		x.wins = append(x.wins, g.s[ln.winStart:winEnd])
		x.diags = append(x.diags, int(sp.s)-ln.winStart-int(sp.q))
		x.ends = append(x.ends, align.Local{})
	}
	x.fill.passes++
	x.fill.lanes += len(x.lanes)
	x.al.LocalBandedEnds(q, x.wins, x.diags, x.cfg.Band, x.ends)
}

// resolve walks g's hits in order through its lanes of the pass: a hit
// contained in what the group has found so far is Contained (a lane's
// result is dropped), a lane's hit is Extended, and a hit between two
// lanes that is neither was below the gap trigger.
func (x *extender) resolve(q []byte, g *groupState) {
	for l := g.first; l < g.end; g.cur++ {
		h := g.hits[g.cur]
		switch {
		case x.contained(g, len(q), h):
			x.st.Contained++
			if x.lanes[l].hit == g.cur {
				if l > g.first {
					x.fill.dropped++
				}
				l++
			}
		case x.lanes[l].hit != g.cur:
			x.st.PreFiltered++
		default:
			x.st.Extended++
			x.st.DPRows += int64(len(q))
			x.st.DPCells += int64(len(q)) * int64(2*x.cfg.Band+1)
			if a, ok := x.report(q, g, l); ok {
				x.add(g, len(q), a)
			}
			l++
		}
	}
}

// report turns lane l's result into an alignment, in subject
// coordinates, when its E-value passes the cut. The pass scored first;
// a survivor's start, and under Traceback its operations, are walked
// back over the pass's kept rows, not a second DP. DPRows and DPCells
// keep their nominal per-extension definition.
func (x *extender) report(q []byte, g *groupState, l int) (Alignment, bool) {
	loc := x.ends[l]
	if loc.Score <= 0 {
		return Alignment{}, false
	}
	ev := x.cfg.Params.EValueIn(loc.Score, len(q), x.space)
	if ev > x.cfg.MaxEValue {
		return Alignment{}, false
	}
	loc.AStart, loc.BStart = x.al.LocalBandedStart(q, x.wins[l], loc, x.diags[l], x.cfg.Band)
	var ops []align.Op
	if x.cfg.Traceback {
		ops = x.al.LocalBandedOps(q, x.wins[l], loc, x.diags[l], x.cfg.Band)
	}
	ws := x.lanes[l].winStart
	return Alignment{
		Seq0:     x.seq0,
		Seq1:     g.seq1,
		Score:    loc.Score,
		BitScore: x.cfg.Params.BitScore(loc.Score),
		EValue:   ev,
		Q:        Span{loc.AStart, loc.AEnd},
		S:        Span{loc.BStart + ws, loc.BEnd + ws},
		Ops:      ops,
	}, true
}

// link is a found alignment's index in its group's found and the
// link after the one before it in its bucket (0 ends a chain).
type link struct{ found, prev int32 }

// add records alignment a of group g, whose query has qlen residues.
// At its second alignment the group gets at most 1 024 buckets of
// start diagonals, so a group with one allocates nothing and a long
// subject's buckets widen rather than multiply; every alignment from
// then on is linked into its bucket.
func (x *extender) add(g *groupState, qlen int, a Alignment) {
	g.found = append(g.found, a)
	i := len(g.found) - 1
	if i == 0 {
		return
	} else if i == 1 {
		n := qlen + len(g.s)
		g.shift = max(bits.Len(uint(x.cfg.Band)), bits.Len(uint(n>>10)))
		g.heads, x.heads, i = len(x.heads), append(x.heads, make([]int32, n>>g.shift+1)...), 0
	}
	for ; i < len(g.found); i++ {
		h := &x.heads[g.heads+(g.found[i].S.Start-g.found[i].Q.Start+qlen)>>g.shift]
		x.links = append(x.links, link{int32(i), *h})
		*h = int32(len(x.links))
	}
}

// contained reports whether seed sp lies inside an alignment g has
// found, on a diagonal within Band of the alignment's start. A group
// with one alignment checks it; past that only the ≤ 3 buckets around
// the seed's diagonal are looked at, so a repetitive pair's many
// alignments do not each cost every hit (the diagonal array of NCBI
// BLAST).
func (x *extender) contained(g *groupState, qlen int, sp seedPos) bool {
	switch len(g.found) {
	case 0:
		return false
	case 1:
		return covers(&g.found[0], sp, x.cfg.Band)
	}
	d, band := int(sp.s)-int(sp.q)+qlen, x.cfg.Band
	for k := max(d-band, 0) >> g.shift; k <= min(d+band, qlen+len(g.s))>>g.shift; k++ {
		for l := x.heads[g.heads+k]; l > 0; l = x.links[l-1].prev {
			if covers(&g.found[x.links[l-1].found], sp, band) {
				return true
			}
		}
	}
	return false
}

// covers reports whether seed sp lies inside a, on a diagonal within
// band of a's start diagonal.
func covers(a *Alignment, sp seedPos, band int) bool {
	q, s := int(sp.q), int(sp.s)
	d := (s - q) - (a.S.Start - a.Q.Start)
	return q >= a.Q.Start && q < a.Q.End && s >= a.S.Start && s < a.S.End && d >= -band && d <= band
}

// dedup removes alignments whose query and subject ranges are both
// contained in a higher-scoring alignment of the same pair. It works
// in place and returns the kept prefix of as.
func dedup(as []Alignment) []Alignment {
	if len(as) <= 1 {
		return as
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Score > as[j].Score })
	out := as[:0]
	for _, a := range as {
		if !slices.ContainsFunc(out, func(b Alignment) bool {
			return a.Q.Start >= b.Q.Start && a.Q.End <= b.Q.End && a.S.Start >= b.S.Start && a.S.End <= b.S.End
		}) {
			out = append(out, a)
		}
	}
	return out
}

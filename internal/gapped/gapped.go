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
// error.
func RunWithStats(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, Stats, error) {
	out, st, _, err := run(b0, b1, hits, cfg)
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
func run(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, Stats, fill, error) {
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
	if len(hits) > math.MaxInt32 {
		return nil, Stats{}, fill{}, fmt.Errorf("gapped: %d hits exceed the stage's 32-bit hit index", len(hits))
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bw := workers // partition, group and sort
	if len(hits) < inlineHits {
		bw = 1
	}
	qs, seeds, err := partition(hits, b0.Len(), bw)
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

	// Chunk c's alignments are chunkOut[c], in its worker's buffer.
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
				ends:      make([]align.Local, 0, align.BatchLanes)}
		}
		i := sort.Search(len(qs), func(i int) bool { return qs[i].chunk0 > c }) - 1
		x, qu := xs[w], &qs[i]
		lo, from := (c-qu.chunk0)*chunkGroups, len(x.out)
		if err := x.chunk(qu.seq0, qu.groups[lo:min(lo+chunkGroups, len(qu.groups))]); err != nil {
			return err
		}
		chunkOut[c] = x.out[from:len(x.out):len(x.out)]
		found[i].Add(int64(len(x.out) - from))
		return nil
	})
	st := Stats{Hits: len(hits)}
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

// partition scatters hits by query (E0.Seq) into seeds, each query's
// hits contiguous and in input order, and returns the queries with
// hits in bank order. Each worker's slice of hits is counted per
// query, a prefix sum over (query, slice) gives each slice its first
// slot per query, and the slices are scattered, both passes a run of
// one query's hits at a time (step 2 emits long runs). A hit past bank
// 0's n0 sequences is an error of the count pass.
func partition(hits []ungapped.Hit, n0, workers int) ([]query, []seedPos, error) {
	counts := make([]uint32, workers*n0) // slice i's row is counts[i*n0:(i+1)*n0]
	slice := func(i int) ([]ungapped.Hit, []uint32) {
		return hits[len(hits)*i/workers : len(hits)*(i+1)/workers], counts[i*n0 : (i+1)*n0]
	}
	if err := each(workers, workers, func(_, i int) error {
		hs, c := slice(i)
		for j := 0; j < len(hs); {
			s0, k := hs[j].E0.Seq, j
			if int(s0) >= n0 {
				return fmt.Errorf("gapped: hit %d names sequence %d of bank 0 (%d sequences)", len(hits)*i/workers+j, s0, n0)
			}
			for j < len(hs) && hs[j].E0.Seq == s0 {
				j++
			}
			c[s0] += uint32(j - k)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	qs, sum := make([]query, 0, min(n0, len(hits))), uint32(0)
	for q := 0; q < n0; q++ {
		start := sum
		for k := q; k < len(counts); k += n0 {
			counts[k], sum = sum, sum+counts[k]
		}
		if sum > start {
			qs = append(qs, query{seq0: uint32(q), start: int(start), end: int(sum)})
		}
	}
	seeds := make([]seedPos, len(hits))
	each(workers, workers, func(_, i int) error {
		hs, next := slice(i)
		for j := 0; j < len(hs); {
			s0 := hs[j].E0.Seq
			k := next[s0]
			for ; j < len(hs) && hs[j].E0.Seq == s0; j, k = j+1, k+1 {
				seeds[k] = seedPos{hs[j].E0.Off, hs[j].E1.Off, hs[j].E1.Seq}
			}
			next[s0] = k
		}
		return nil
	})
	return qs, seeds, nil
}

// grouper is a worker's grouping scratch: a table of slots 0 or (subject
// + 1)<<31 | group, a copy of a query's seeds, and its queries' groups.
type grouper struct {
	table  []uint64
	tmp    []seedPos
	groups []hitGroup
}

// groupHits puts qu's seeds in group order, a group being one subject's
// seeds, by a counting sort: groups in order of first appearance, a
// group's seeds in input order (containment is order-dependent). The
// table starts with room for min(hits, n1, 1024) groups and doubles, the
// query starting over, before they fill more than half of it: it grows
// with the groups, not the hits or the bank. A subject past n1 is an error.
func (gr *grouper) groupHits(qu *query, seeds []seedPos, n1 int) error {
	hs := append(gr.tmp[:0], seeds[qu.start:qu.end]...) // a copy whose seq1 becomes the group
	gr.tmp, gr.groups = hs, slices.Grow(gr.groups, min(len(hs), n1))
	var groups []hitGroup
grow:
	for size := 1 << bits.Len(uint(2*max(min(len(hs), n1, 1024), 1)-1)); ; size *= 2 {
		gr.table, groups = slices.Grow(gr.table[:0], size)[:size], gr.groups[len(gr.groups):]
		clear(gr.table)
		shift := 65 - bits.Len(uint(size))
		for i := range hs {
			s1 := seeds[qu.start+i].seq1
			slot := uint64(s1) * 0x9E3779B97F4A7C15 >> shift
			for e := gr.table[slot]; ; e = gr.table[slot] {
				if e == 0 {
					if int(s1) >= n1 {
						return fmt.Errorf("gapped: hit pairs sequence %d of bank 0 with sequence %d of bank 1 (%d sequences)", qu.seq0, s1, n1)
					}
					if 2*len(groups) == size {
						continue grow
					}
					e = (uint64(s1)+1)<<31 | uint64(len(groups))
					gr.table[slot], groups = e, append(groups, hitGroup{seq1: s1})
				} else if e>>31 != uint64(s1)+1 {
					slot = (slot + 1) & uint64(size-1)
					continue
				}
				hs[i].seq1 = uint32(e & (1<<31 - 1))
				groups[hs[i].seq1].end++ // the group's size, for now
				break
			}
		}
		break
	}
	sum := uint32(qu.start) // sizes in end become starts, then ends
	for g := range groups {
		groups[g].start, groups[g].end, sum = sum, sum, sum+groups[g].end
	}
	for _, sp := range hs {
		g := &groups[sp.seq1]
		seeds[g.end] = seedPos{sp.q, sp.s, g.seq1}
		g.end++
	}
	qu.groups = groups[:len(groups):len(groups)]
	gr.groups = gr.groups[:len(gr.groups)+len(groups)]
	return nil
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
	out       []Alignment // the alignments of every group it finished

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
	x.gs = x.gs[:0]
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
		if contained(g.found, int(sp.q), int(sp.s), x.cfg.Band) {
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
				if contained(g.found, int(sp.q), int(sp.s), x.cfg.Band) {
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
		case contained(g.found, int(h.q), int(h.s), x.cfg.Band):
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
				g.found = append(g.found, a)
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

// contained reports whether the seed (qPos, sPos) lies inside an
// already-reported alignment on a nearby diagonal.
func contained(found []Alignment, qPos, sPos, band int) bool {
	for i := range found {
		a := &found[i]
		if qPos >= a.Q.Start && qPos < a.Q.End &&
			sPos >= a.S.Start && sPos < a.S.End {
			d := (sPos - qPos) - (a.S.Start - a.Q.Start)
			if d >= -band && d <= band {
				return true
			}
		}
	}
	return false
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

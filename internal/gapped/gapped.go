// Package gapped implements step 3 of the paper's algorithm: hits
// surviving the ungapped filter are extended with a banded affine-gap
// local alignment around the seed diagonal, scored with gapped
// Karlin-Altschul statistics, filtered at the configured E-value
// (the paper compares against tblastn at E ≤ 10⁻³) and de-duplicated
// so each similarity region is reported once.
package gapped

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
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
	// Run — correct for a whole-bank comparison. A coordinator that
	// scatters volumes of a larger bank sets the full bank's geometry
	// here so each volume's E-values (and the MaxEValue cut) match an
	// unpartitioned run exactly.
	SearchSpace stats.SearchSpace
	// Traceback keeps each reported alignment's operations
	// (Alignment.Ops): the path through the band the search took from
	// its start to its end, taken after the E-value cut for survivors
	// only (align.LocalBandedOps). Alignments and Stats are the same
	// either way.
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

// Run extends hits into alignments. b0 and b1 are the banks the hits'
// entries refer to. Results are sorted by (Seq0, EValue, Seq1) and
// de-duplicated per sequence pair. A hit naming a sequence or offset
// outside the banks is an error.
func Run(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, error) {
	as, _, err := RunWithStats(b0, b1, hits, cfg)
	return as, err
}

// RunWithStats is Run plus work statistics.
func RunWithStats(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, Stats, error) {
	out, st, _, err := run(b0, b1, hits, cfg)
	return out, st, err
}

// fill counts the kernel passes of a run: passes, lanes extended, and
// of those the lanes that were speculative and the speculative lanes
// whose hit turned out to be contained (their result was dropped).
type fill struct {
	passes, lanes, speculated, dropped int
}

func (f *fill) add(g fill) {
	f.passes += g.passes
	f.lanes += g.lanes
	f.speculated += g.speculated
	f.dropped += g.dropped
}

// run is RunWithStats plus the kernel's fill, which tests read.
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

	groups, offs, err := groupHits(hits, b0.Len(), b1.Len())
	if err != nil {
		return nil, Stats{}, fill{}, err
	}
	order, chunks, longest := planChunks(groups, b0)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(chunks)), 1)
	space := cfg.SearchSpace
	if space.IsZero() {
		space = stats.SearchSpace{DBLen: b1.TotalResidues(), DBSeqs: b1.Len()}
	}

	// Workers claim chunks from a shared cursor: a chunk is at most
	// chunkGroups groups of one query, the groups one kernel pass can
	// draw its lanes from.
	var cursor atomic.Int64
	found := make([][]Alignment, len(groups)) // found[gi]: written by the worker that claimed gi
	totals := make([]Stats, workers)
	fills := make([]fill, workers)
	errs := make([]error, workers)
	work := func(w int) {
		al := getAligner(&cfg)
		al.Reserve(longest, cfg.Band)
		x := extender{al: al, cfg: &cfg, space: space, groups: groups, offs: offs, b0: b0, b1: b1, found: found,
			speculate: al.BatchKernel(),
			gs:        make([]groupState, 0, min(chunkGroups, len(groups))),
			lanes:     make([]lane, 0, align.BatchLanes),
			wins:      make([][]byte, 0, align.BatchLanes),
			diags:     make([]int, 0, align.BatchLanes),
			ends:      make([]align.Local, 0, align.BatchLanes)}
		for {
			c := int(cursor.Add(1)) - 1
			if c >= len(chunks) {
				break
			}
			lo := 0
			if c > 0 {
				lo = chunks[c-1]
			}
			if errs[w] = x.chunk(order[lo:chunks[c]]); errs[w] != nil {
				cursor.Store(int64(len(chunks))) // the other workers stop too
				break
			}
		}
		putAligner(&cfg, al)
		totals[w], fills[w] = x.st, x.fill
	}
	// The caller is worker 0, so a one-worker run (or a job with a
	// single chunk) starts no goroutine at all.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, Stats{}, fill{}, err
		}
	}

	total := 0
	for _, as := range found {
		total += len(as)
	}
	var out []Alignment // stays nil when nothing was found
	if total > 0 {
		out = make([]Alignment, 0, total)
	}
	for _, as := range found {
		out = append(out, as...)
	}
	stats := Stats{Hits: len(hits)}
	var fl fill
	for w, st := range totals {
		stats.Contained += st.Contained
		stats.PreFiltered += st.PreFiltered
		stats.Extended += st.Extended
		stats.DPRows += st.DPRows
		stats.DPCells += st.DPCells
		fl.add(fills[w])
	}
	sortAlignments(out)
	return out, stats, fl, nil
}

// chunkGroups bounds a chunk: enough groups of one query to fill a
// kernel pass several times over, few enough that a run of expensive
// groups cannot leave one worker with the tail.
const chunkGroups = 64

// planChunks puts the group ids in query order by a stable counting
// sort on seq0 and cuts that order into chunks of at most chunkGroups
// groups of one query each: chunk c is order[chunks[c-1]:chunks[c]],
// from 0 for c = 0. It also returns the longest query a group uses.
// found stays indexed by group id, so the output order does not
// depend on this order.
func planChunks(groups []hitGroup, b0 *bank.Bank) (order []uint32, chunks []int, longest int) {
	if len(groups) == 0 {
		return nil, nil, 0
	}
	start := make([]int, b0.Len()+1)
	for _, g := range groups {
		start[g.seq0+1]++
	}
	for q := 1; q < len(start); q++ {
		start[q] += start[q-1]
	}
	order = make([]uint32, len(groups))
	for gi, g := range groups {
		order[start[g.seq0]] = uint32(gi)
		start[g.seq0]++
	}
	last := 0
	for i, gi := range order {
		q := groups[gi].seq0
		newQuery := i == 0 || q != groups[order[i-1]].seq0
		if newQuery {
			longest = max(longest, len(b0.Seq(int(q))))
		}
		if i > 0 && (newQuery || i-last == chunkGroups) {
			chunks = append(chunks, i)
			last = i
		}
	}
	return order, append(chunks, len(order)), longest
}

// alignerStore keeps the Aligners of finished runs, with their kernel
// scratch, for the next run: unlike a sync.Pool it survives garbage
// collections, so that a daemon's first job after an idle spell does
// not allocate and clear its kept rows again. It holds at most
// GOMAXPROCS Aligners.
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

// sortAlignments puts the stage's output in its reported order:
// (Seq0, EValue, Seq1). The sort is not stable, so the order of its
// input — groups by first appearance, dedup order inside a group — is
// part of the result.
func sortAlignments(out []Alignment) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq0 != out[j].Seq0 {
			return out[i].Seq0 < out[j].Seq0
		}
		if out[i].EValue != out[j].EValue {
			return out[i].EValue < out[j].EValue
		}
		return out[i].Seq1 < out[j].Seq1
	})
}

// seedPos is all step 3 reads of a hit: the seed's residue
// offsets in the bank-0 and bank-1 sequence of its group.
type seedPos struct{ q, s uint32 }

// hitGroup is one (seq0, seq1) pair's run of the grouped seed buffer:
// group g owns offs[groups[g-1].end:groups[g].end], from 0 for g = 0.
type hitGroup struct {
	seq0, seq1 uint32
	end        uint32
}

// groupHits buckets hits by (E0.Seq, E1.Seq) in O(len(hits)) without a
// map and without per-group storage: one pass through a flat
// open-addressing table assigns dense group ids and counts group
// sizes, a counting sort then scatters the seed offsets into one
// buffer. Two orders are part of the stage's result and are kept by
// construction: groups are numbered in order of first appearance (the
// final sort over alignments is not stable, so its input order
// matters) and a group's seeds keep their input order (the
// containment rule in extender.chunk is order-dependent). Besides two
// arrays sized from len(hits) it allocates the group list and the
// table, which grow with the groups by doubling. A pair naming a
// sequence outside bank 0's n0 or bank 1's n1 sequences is an error,
// found when its group is made.
func groupHits(hits []ungapped.Hit, n0, n1 int) ([]hitGroup, []seedPos, error) {
	n := len(hits)
	if n == 0 {
		return nil, nil, nil
	}
	if n > math.MaxInt32 {
		return nil, nil, fmt.Errorf("gapped: %d hits exceed the stage's 32-bit hit index", n)
	}
	// table maps a pair's hash slot to its group id + 1 (0 = empty);
	// the pair itself is compared in groups, which stays cache-sized
	// when hits outnumber groups — the case where grouping is a
	// visible share of the stage. Its load factor stays ≤ 1/2: it
	// starts at room for min(n, 512) groups and doubles as they come.
	shift := 64 - bits.Len(uint(2*min(n, 512)-1))
	table := make([]uint32, 1<<(64-shift))
	gids := make([]uint32, n)
	groups := make([]hitGroup, 0, min(n, 1024))
	for i := range hits {
		s0, s1 := hits[i].E0.Seq, hits[i].E1.Seq
		slot := pairSlot(s0, s1, shift)
		for {
			id := table[slot]
			if id == 0 {
				if int(s0) >= n0 || int(s1) >= n1 {
					return nil, nil, fmt.Errorf("gapped: hit %d pairs sequence %d of bank 0 (%d sequences) with sequence %d of bank 1 (%d sequences)",
						i, s0, n0, s1, n1)
				}
				groups = append(groups, hitGroup{seq0: s0, seq1: s1})
				id = uint32(len(groups))
				table[slot] = id
				if 2*len(groups) > len(table) {
					shift--
					table = regroup(groups, shift)
				}
			} else if g := &groups[id-1]; g.seq0 != s0 || g.seq1 != s1 {
				slot = (slot + 1) & uint64(len(table)-1)
				continue
			}
			gids[i] = id - 1
			groups[id-1].end++ // the group's size, for now
			break
		}
	}

	// Counting sort: exclusive prefix sums of the sizes held in end,
	// then a scatter that advances each group's end to its true value.
	sum := uint32(0)
	for g := range groups {
		size := groups[g].end
		groups[g].end = sum
		sum += size
	}
	offs := make([]seedPos, n)
	for i, g := range gids {
		offs[groups[g].end] = seedPos{hits[i].E0.Off, hits[i].E1.Off}
		groups[g].end++
	}
	return groups, offs, nil
}

// pairSlot is the home slot of a sequence pair in a groupHits table of
// 1<<(64-shift) slots.
func pairSlot(s0, s1 uint32, shift int) uint64 {
	return (uint64(s0)<<32 | uint64(s1)) * 0x9E3779B97F4A7C15 >> shift
}

// regroup builds a groupHits table of 1<<(64-shift) slots holding every
// group.
func regroup(groups []hitGroup, shift int) []uint32 {
	table := make([]uint32, 1<<(64-shift))
	mask := uint64(len(table) - 1)
	for gi, g := range groups {
		slot := pairSlot(g.seq0, g.seq1, shift)
		for table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		table[slot] = uint32(gi + 1)
	}
	return table
}

// extender is one worker's step-3 state: the run it works for, its
// Aligner, its counts, and the scratch of the chunk it is on.
type extender struct {
	al        *align.Aligner
	cfg       *Config
	space     stats.SearchSpace
	groups    []hitGroup
	offs      []seedPos
	b0, b1    *bank.Bank
	found     [][]Alignment
	speculate bool // fill empty lanes with next candidates: the kernel runs
	st        Stats
	fill      fill

	gs    []groupState
	lanes []lane
	wins  [][]byte
	diags []int
	ends  []align.Local
}

// groupState is a group's progress through its hits: hits[cur:] are
// unresolved.
type groupState struct {
	gi         int
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
	g, hit   int
	winStart int
	sure     bool
}

// chunk extends every group of one chunk (groups of one query) in
// kernel passes of up to align.BatchLanes lanes. Each group walks its
// hits in order with at most one extension in flight, so containment
// sees exactly the alignments it saw one extension at a time: a pass
// takes each group's next candidate, from as many groups as fit, and
// then resolves them. When every group has a lane and lanes are left,
// they are filled with the same groups' later candidates (speculation);
// resolving a group in hit order against the alignments found so far
// then counts a speculated hit that has become contained as Contained
// and drops its lane's result. Found alignments only grow, so a hit
// contained when it is drawn stays contained, and Stats and results
// are exactly those of the sequential walk. A seed offset outside its
// query or subject is an error, found before any extension.
func (x *extender) chunk(gids []uint32) error {
	q := x.b0.Seq(int(x.groups[gids[0]].seq0))
	x.gs = x.gs[:0]
	for _, gi := range gids {
		g := x.groups[gi]
		start := uint32(0)
		if gi > 0 {
			start = x.groups[gi-1].end
		}
		s := x.b1.Seq(int(g.seq1))
		hits := x.offs[start:g.end]
		for _, sp := range hits {
			if int(sp.q) >= len(q) || int(sp.s) >= len(s) {
				return fmt.Errorf("gapped: hit at offsets %d, %d lies outside sequence %d of bank 0 (%d residues) or %d of bank 1 (%d residues)",
					sp.q, sp.s, g.seq0, len(q), g.seq1, len(s))
			}
		}
		x.gs = append(x.gs, groupState{gi: int(gi), s: s, hits: hits})
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
				x.found[g.gi] = dedup(g.found)
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
// before the banded DP is paid for (NCBI's two-stage extension).
// Chance hits from the ungapped window filter rarely extend. sure
// reports that the ungapped segment alone passes the E-value cut: the
// banded pass, whose band holds the segment, then reports an
// alignment.
func (x *extender) triggers(q, s []byte, h seedPos) (pass, sure bool) {
	if x.cfg.GapTrigger <= 0 {
		return true, false
	}
	score := align.ExtendUngapped(q, s, int(h.q), int(h.s), 1, x.cfg.XDrop, x.cfg.Matrix).Score
	return score >= x.cfg.GapTrigger, x.cfg.Params.EValueIn(score, len(q), x.space) <= x.cfg.MaxEValue
}

// speculateLanes fills the pass's empty lanes with later candidates of
// its groups, one per group per round: hits after the group's last
// lane that are not contained in what the group has found so far and
// pass the gap trigger. Lanes of a group stay contiguous and in hit
// order, and every hit between two of them is contained or below the
// trigger, which resolve relies on. A group stops speculating at a hit
// within the band of the diagonal of one of its lanes that is sure to
// report an alignment: that alignment will most likely contain it, as
// it does the rest of a homolog's hits, while chance hits (which
// rarely pass the cut) are worth speculating past.
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
// the alignment's start, and under Traceback its operations, are
// recovered only for survivors, each by a walk back over the pass's
// kept rows, not a second DP. DPRows and DPCells keep their nominal
// per-extension definition either way.
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
	gr := x.groups[g.gi]
	return Alignment{
		Seq0:     int(gr.seq0),
		Seq1:     int(gr.seq1),
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
// contained in a higher-scoring alignment of the same pair.
func dedup(as []Alignment) []Alignment {
	if len(as) <= 1 {
		return as
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Score > as[j].Score })
	var out []Alignment
	for _, a := range as {
		keep := true
		for _, b := range out {
			if a.Q.Start >= b.Q.Start && a.Q.End <= b.Q.End &&
				a.S.Start >= b.S.Start && a.S.End <= b.S.End {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, a)
		}
	}
	return out
}

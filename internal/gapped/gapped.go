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
	// Traceback records alignment operations for reporting. The
	// traceback DP runs unbanded over the subject window, so it is
	// slower and can find alignments that escape the band.
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
// de-duplicated per sequence pair.
func Run(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, error) {
	as, _, err := RunWithStats(b0, b1, hits, cfg)
	return as, err
}

// RunWithStats is Run plus work statistics.
func RunWithStats(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, Stats, error) {
	if cfg.Matrix == nil {
		return nil, Stats{}, fmt.Errorf("gapped: matrix is required")
	}
	if cfg.Band <= 0 {
		return nil, Stats{}, fmt.Errorf("gapped: band must be positive, got %d", cfg.Band)
	}
	if cfg.MaxEValue <= 0 {
		return nil, Stats{}, fmt.Errorf("gapped: MaxEValue must be positive, got %g", cfg.MaxEValue)
	}
	if err := cfg.SearchSpace.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("gapped: %w", err)
	}

	groups, offs, err := groupHits(hits)
	if err != nil {
		return nil, Stats{}, err
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(groups)), 1)
	space := cfg.SearchSpace
	if space.IsZero() {
		space = stats.SearchSpace{DBLen: b1.TotalResidues(), DBSeqs: b1.Len()}
	}

	// Workers claim chunks of consecutive groups from a shared cursor:
	// small enough that a run of expensive groups cannot leave one
	// worker with the tail, large enough that the cursor's cache line
	// is touched once per several extensions.
	chunk := min(max(len(groups)/(8*workers), 1), 64)
	var cursor atomic.Int64
	found := make([][]Alignment, len(groups)) // found[gi]: written by the worker that claimed gi
	totals := make([]Stats, workers)
	work := func(w int) {
		al := align.NewAligner(cfg.Matrix, cfg.Gaps)
		var st Stats
		for {
			hi := int(cursor.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= len(groups) {
				break
			}
			for gi := lo; gi < min(hi, len(groups)); gi++ {
				g := groups[gi]
				start := uint32(0)
				if gi > 0 {
					start = groups[gi-1].end
				}
				found[gi] = extendGroup(al, b0.Seq(int(g.seq0)), b1.Seq(int(g.seq1)),
					int(g.seq0), int(g.seq1), offs[start:g.end], &cfg, space, &st)
			}
		}
		totals[w] = st
	}
	// The caller is worker 0, so a one-worker run (or a job with a
	// single group) starts no goroutine at all.
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
	for _, st := range totals {
		stats.Contained += st.Contained
		stats.PreFiltered += st.PreFiltered
		stats.Extended += st.Extended
		stats.DPRows += st.DPRows
		stats.DPCells += st.DPCells
	}
	sortAlignments(out)
	return out, stats, nil
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

// seedPos is all extendGroup reads of a hit: the seed's residue
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
// containment rule in extendGroup is order-dependent). Besides three
// arrays sized from len(hits) it allocates only the group list, which
// grows by doubling.
func groupHits(hits []ungapped.Hit) ([]hitGroup, []seedPos, error) {
	n := len(hits)
	if n == 0 {
		return nil, nil, nil
	}
	if n > math.MaxInt32 {
		return nil, nil, fmt.Errorf("gapped: %d hits exceed the stage's 32-bit hit index", n)
	}
	// Load factor ≤ 1/2 even when every hit is its own group.
	shift := 64 - bits.Len(uint(2*n-1))
	// table maps a pair's hash slot to its group id + 1 (0 = empty);
	// the pair itself is compared in groups, which stays cache-sized
	// when hits outnumber groups — the case where grouping is a
	// visible share of the stage.
	table := make([]uint32, 1<<(64-shift))
	mask := uint64(len(table) - 1)
	gids := make([]uint32, n)
	groups := make([]hitGroup, 0, min(n, 1024))
	for i := range hits {
		s0, s1 := hits[i].E0.Seq, hits[i].E1.Seq
		slot := (uint64(s0)<<32 | uint64(s1)) * 0x9E3779B97F4A7C15 >> shift
		for {
			id := table[slot]
			if id == 0 {
				groups = append(groups, hitGroup{seq0: s0, seq1: s1})
				id = uint32(len(groups))
				table[slot] = id
			} else if g := &groups[id-1]; g.seq0 != s0 || g.seq1 != s1 {
				slot = (slot + 1) & mask
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

// extendGroup processes all hits of one (seq0, seq1) pair: hits whose
// seed lands inside an alignment already found on a nearby diagonal are
// skipped (BLAST's containment rule), others are extended with a banded
// local alignment around their diagonal. Work counts are added to st.
func extendGroup(al *align.Aligner, q, s []byte, seq0, seq1 int,
	hits []seedPos, cfg *Config, space stats.SearchSpace, st *Stats) []Alignment {
	var found []Alignment
	for _, h := range hits {
		qPos, sPos := int(h.q), int(h.s)
		if contained(found, qPos, sPos, cfg.Band) {
			st.Contained++
			continue
		}
		// Cheap pre-filter: an ungapped X-drop extension anchored at the
		// seed's first residue must reach the gap trigger before the
		// banded DP is paid for (NCBI's two-stage extension). Chance
		// hits from the ungapped window filter rarely extend.
		if cfg.GapTrigger > 0 {
			ext := align.ExtendUngapped(q, s, qPos, sPos, 1, cfg.XDrop, cfg.Matrix)
			if ext.Score < cfg.GapTrigger {
				st.PreFiltered++
				continue
			}
		}
		st.Extended++
		st.DPRows += int64(len(q))
		st.DPCells += int64(len(q)) * int64(2*cfg.Band+1)
		if a, ok := extendOne(al, q, s, qPos, sPos, cfg, space); ok {
			a.Seq0, a.Seq1 = seq0, seq1
			found = append(found, a)
		}
	}
	return dedup(found)
}

// extendOne aligns the full query against a subject window around the
// hit's diagonal and reports the alignment, in subject coordinates,
// when its E-value passes the cut. The banded path scores first and
// recovers the alignment's start only for survivors, which pay a walk
// back over the score pass's kept rows, not a second DP; DPRows and
// DPCells keep their nominal per-extension definition either way. Traceback stays
// unbanded and runs before the cut, because it can find alignments the
// banded pass cannot.
func extendOne(al *align.Aligner, q, s []byte, qPos, sPos int, cfg *Config, space stats.SearchSpace) (Alignment, bool) {
	slack := cfg.Band + 8
	winStart := max(0, sPos-qPos-slack)
	winEnd := min(len(s), sPos+(len(q)-qPos)+slack)
	window := s[winStart:winEnd]
	diag := (sPos - winStart) - qPos

	var loc align.Local
	var ops []align.Op
	if cfg.Traceback {
		loc, ops = al.Traceback(q, window)
	} else {
		loc = al.LocalBandedEnd(q, window, diag, cfg.Band)
	}
	if loc.Score <= 0 {
		return Alignment{}, false
	}
	ev := cfg.Params.EValueIn(loc.Score, len(q), space)
	if ev > cfg.MaxEValue {
		return Alignment{}, false
	}
	if !cfg.Traceback {
		loc.AStart, loc.BStart = al.LocalBandedStart(q, window, loc, diag, cfg.Band)
	}
	return Alignment{
		Score:    loc.Score,
		BitScore: cfg.Params.BitScore(loc.Score),
		EValue:   ev,
		Q:        Span{loc.AStart, loc.AEnd},
		S:        Span{loc.BStart + winStart, loc.BEnd + winStart},
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

// Package blast is the comparison baseline: a from-scratch sequential
// implementation of the NCBI BLAST heuristic as tblastn uses it —
// query word index with neighbourhood expansion at threshold T, subject
// scanning, the two-hit diagonal heuristic, X-drop ungapped extension,
// and gapped extension with Karlin-Altschul E-values. It deliberately
// follows BLAST's scanning structure (one query against a streamed
// bank), which the paper contrasts with its bank-vs-bank pipeline: "the
// BLAST programs have been first designed for scanning purpose" and
// "the internal BLAST algorithm is fundamentally sequential".
package blast

import (
	"fmt"
	"sort"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/matrix"
	"seedblast/internal/stats"
	"seedblast/internal/translate"
)

// Config holds the search parameters. Defaults mirror NCBI tblastn.
type Config struct {
	W             int // word size (protein default 3)
	T             int // neighbourhood word score threshold (default 11)
	TwoHitWindow  int // max diagonal distance between the two hits (default 40)
	XDropUngapped int // X-drop for ungapped extension (default 16)
	GapTrigger    int // raw ungapped score that triggers gapped extension (default 41)
	Band          int // gapped extension band half-width (default 24)
	Matrix        *matrix.Matrix
	Gaps          align.GapParams
	Params        stats.Params // gapped statistics for E-values
	MaxEValue     float64
}

// DefaultConfig returns tblastn-like defaults with the paper's
// E ≤ 10⁻³ cutoff.
func DefaultConfig() Config {
	return Config{
		W:             3,
		T:             11,
		TwoHitWindow:  40,
		XDropUngapped: 16,
		GapTrigger:    41,
		Band:          24,
		Matrix:        matrix.BLOSUM62,
		Gaps:          align.DefaultGaps,
		Params:        stats.GappedBLOSUM62,
		MaxEValue:     1e-3,
	}
}

func (c *Config) validate() error {
	switch {
	case c.W < 2 || c.W > 5:
		return fmt.Errorf("blast: word size %d outside [2,5]", c.W)
	case c.T <= 0:
		return fmt.Errorf("blast: threshold T must be positive")
	case c.Matrix == nil:
		return fmt.Errorf("blast: matrix is required")
	case c.MaxEValue <= 0:
		return fmt.Errorf("blast: MaxEValue must be positive")
	case c.TwoHitWindow <= c.W:
		return fmt.Errorf("blast: two-hit window %d must exceed word size", c.TwoHitWindow)
	}
	return nil
}

// Match is one reported alignment.
type Match struct {
	Query    int
	Subject  int
	Score    int
	BitScore float64
	EValue   float64
	QStart   int
	QEnd     int
	SStart   int
	SEnd     int
}

// Search runs the sequential BLAST over all queries against all
// subjects. Matches are sorted by (Query, EValue, Subject).
func Search(queries, subjects *bank.Bank, cfg Config) ([]Match, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dbLen := subjects.TotalResidues()
	al := align.NewAligner(cfg.Matrix, cfg.Gaps)
	scan := newScanner(&cfg)
	var out []Match
	for q := 0; q < queries.Len(); q++ {
		query := queries.Seq(q)
		if len(query) < cfg.W {
			continue
		}
		lut := buildLookup(query, &cfg)
		for s := 0; s < subjects.Len(); s++ {
			ms := scan.scanSubject(al, lut, query, subjects.Seq(s), &cfg, dbLen)
			for _, m := range ms {
				m.Query = q
				m.Subject = s
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Query != out[j].Query {
			return out[i].Query < out[j].Query
		}
		if out[i].EValue != out[j].EValue {
			return out[i].EValue < out[j].EValue
		}
		return out[i].Subject < out[j].Subject
	})
	return out, nil
}

// lookup maps word keys to query positions, including neighbourhood
// words scoring at least T against an indexed query word. buckets has
// one entry per key of the 20^W word space (wordKey's mixed radix).
type lookup struct {
	w       int
	buckets [][]int32
}

func wordKey(w []byte) (uint32, bool) {
	var k uint32
	for _, c := range w {
		if !alphabet.IsStandardAA(c) {
			return 0, false
		}
		k = k*uint32(alphabet.NumStandardAA) + uint32(c)
	}
	return k, true
}

// buildLookup indexes the query's words and their T-neighbourhood: for
// every query position, every word w' with score(word, w') ≥ T is
// registered, exactly as BLAST seeds hits on similar (not only
// identical) words.
func buildLookup(query []byte, cfg *Config) *lookup {
	space := 1
	for range cfg.W {
		space *= alphabet.NumStandardAA
	}
	lut := &lookup{w: cfg.W, buckets: make([][]int32, space)}
	neighbor := make([]byte, cfg.W)
	for pos := 0; pos+cfg.W <= len(query); pos++ {
		word := query[pos : pos+cfg.W]
		ok := true
		for _, c := range word {
			if !alphabet.IsStandardAA(c) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		expandNeighborhood(word, neighbor, 0, 0, int32(pos), cfg, lut)
	}
	return lut
}

// expandNeighborhood enumerates words within score ≥ T of word,
// pruning with the maximum achievable remaining score.
func expandNeighborhood(word, neighbor []byte, depth, score int, pos int32, cfg *Config, lut *lookup) {
	if depth == cfg.W {
		if score >= cfg.T {
			k, _ := wordKey(neighbor)
			lut.buckets[k] = append(lut.buckets[k], pos)
		}
		return
	}
	// Upper bound on the rest: best possible per remaining position.
	row := cfg.Matrix.Row(word[depth])
	maxRest := 0
	for d := depth + 1; d < cfg.W; d++ {
		maxRest += bestRowScore(cfg.Matrix, word[d])
	}
	for c := byte(0); c < alphabet.NumStandardAA; c++ {
		s := int(row[c])
		if score+s+maxRest < cfg.T {
			continue
		}
		neighbor[depth] = c
		expandNeighborhood(word, neighbor, depth+1, score+s, pos, cfg, lut)
	}
}

func bestRowScore(m *matrix.Matrix, a byte) int {
	best := -1 << 30
	for c := byte(0); c < alphabet.NumStandardAA; c++ {
		if s := m.Score(a, c); s > best {
			best = s
		}
	}
	return best
}

// scanner holds reusable per-subject diagonal state. Diagonals are
// indexed by sPos - qPos + len(query); epoch stamps avoid clearing the
// arrays between subjects.
type scanner struct {
	lastHit  []int32 // last single hit position on the diagonal
	extent   []int32 // subject position up to which the diagonal is covered
	epoch    []int32
	curEpoch int32
}

func newScanner(*Config) *scanner { return &scanner{} }

func (sc *scanner) reset(size int) {
	if len(sc.lastHit) < size {
		sc.lastHit = make([]int32, size)
		sc.extent = make([]int32, size)
		sc.epoch = make([]int32, size)
		sc.curEpoch = 0
	}
	sc.curEpoch++
}

// scanSubject streams one subject sequence against the query lookup.
func (sc *scanner) scanSubject(al *align.Aligner, lut *lookup, query, subject []byte,
	cfg *Config, dbLen int) []Match {
	if len(subject) < cfg.W {
		return nil
	}
	sc.reset(len(query) + len(subject) + 1)
	var out []Match
	for sPos := 0; sPos+cfg.W <= len(subject); sPos++ {
		key, ok := wordKey(subject[sPos : sPos+cfg.W])
		if !ok {
			continue
		}
		for _, qPos32 := range lut.buckets[key] {
			qPos := int(qPos32)
			diag := sPos - qPos + len(query)
			if sc.epoch[diag] != sc.curEpoch {
				sc.epoch[diag] = sc.curEpoch
				sc.lastHit[diag] = -1 << 30
				sc.extent[diag] = -1
			}
			if int32(sPos) < sc.extent[diag] {
				continue // inside an already-extended region
			}
			// Two-hit rule: a previous non-overlapping hit on the same
			// diagonal within the window arms the extension. Overlapping
			// hits keep the older anchor (as NCBI does), otherwise dense
			// hit runs would never reach the non-overlap distance.
			last := int(sc.lastHit[diag])
			diff := sPos - last
			if diff < cfg.W {
				continue
			}
			sc.lastHit[diag] = int32(sPos)
			if diff > cfg.TwoHitWindow {
				continue // too far apart: this hit becomes the new anchor
			}
			ext := align.ExtendUngapped(query, subject, qPos, sPos, cfg.W,
				cfg.XDropUngapped, cfg.Matrix)
			sc.extent[diag] = int32(ext.SEnd)
			if ext.Score < cfg.GapTrigger {
				continue
			}
			m, good := gappedExtend(al, query, subject, qPos, sPos, cfg, dbLen)
			if good {
				sc.extent[diag] = int32(m.SEnd)
				if !covered(out, m) {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// gappedExtend runs the banded gapped extension around the hit diagonal
// and applies the E-value cutoff.
func gappedExtend(al *align.Aligner, query, subject []byte, qPos, sPos int,
	cfg *Config, dbLen int) (Match, bool) {
	slack := cfg.Band + 8
	winStart := max(0, sPos-qPos-slack)
	winEnd := min(len(subject), sPos+(len(query)-qPos)+slack)
	window := subject[winStart:winEnd]
	diag := (sPos - winStart) - qPos
	loc := al.LocalBanded(query, window, diag, cfg.Band)
	if loc.Score <= 0 {
		return Match{}, false
	}
	ev := cfg.Params.EValue(loc.Score, len(query), dbLen)
	if ev > cfg.MaxEValue {
		return Match{}, false
	}
	return Match{
		Score:    loc.Score,
		BitScore: cfg.Params.BitScore(loc.Score),
		EValue:   ev,
		QStart:   loc.AStart,
		QEnd:     loc.AEnd,
		SStart:   loc.BStart + winStart,
		SEnd:     loc.BEnd + winStart,
	}, true
}

// covered reports whether an equal-or-better match already contains m.
func covered(ms []Match, m Match) bool {
	for _, o := range ms {
		if m.QStart >= o.QStart && m.QEnd <= o.QEnd &&
			m.SStart >= o.SStart && m.SEnd <= o.SEnd && o.Score >= m.Score {
			return true
		}
	}
	return false
}

// GenomeMatch is a Match mapped to genome coordinates.
type GenomeMatch struct {
	Match
	Frame    translate.Frame
	NucStart int
	NucEnd   int
}

// SearchGenome runs tblastn proper: the genome is six-frame translated
// and each frame searched as a subject, with matches mapped back to
// forward-strand nucleotide coordinates.
func SearchGenome(queries *bank.Bank, genome []byte, cfg Config) ([]GenomeMatch, error) {
	frames := translate.SixFrames(genome)
	fbank := bank.New("genome-frames")
	for _, ft := range frames {
		fbank.Add(ft.Frame.String(), ft.Protein)
	}
	ms, err := Search(queries, fbank, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]GenomeMatch, 0, len(ms))
	for _, m := range ms {
		frame := frames[m.Subject].Frame
		g := GenomeMatch{Match: m, Frame: frame}
		first := translate.CodonStart(frame, m.SStart, len(genome))
		last := translate.CodonStart(frame, m.SEnd-1, len(genome))
		if frame > 0 {
			g.NucStart, g.NucEnd = first, last+3
		} else {
			g.NucStart, g.NucEnd = last, first+3
		}
		out = append(out, g)
	}
	return out, nil
}

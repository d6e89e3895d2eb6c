package core

import (
	"fmt"
	"sync"

	"seedblast/internal/bank"
	"seedblast/internal/gapped"
	"seedblast/internal/index"
	"seedblast/internal/seed"
	"seedblast/internal/translate"
)

// Target is one side of a comparison: a set of sequences together
// with the prebuilt, reusable step-1 indexes the engine compares
// against. A Target is built once and handed to any number of
// Searcher.Search calls — its index for a given (seed model, N) is
// built on first use and cached for every later search; a caller that
// already holds the index (the comparison service's cache) installs
// it with Adopt. Translated targets
// (GenomeTarget, DNATarget) also own the frame bookkeeping that maps
// engine alignments back to source nucleotide coordinates.
//
// The interface is sealed: the three implementations below cover the
// BLAST family (blastp, tblastn, blastx, tblastx) and the engine's
// invariants depend on their construction.
type Target interface {
	// Kind names the target flavour: "protein", "genome" or "dna".
	Kind() string
	// Bank returns the effective protein bank the engine compares: the
	// source bank for ProteinTarget, the six-frame translation bank for
	// GenomeTarget and DNATarget.
	Bank() *bank.Bank

	// index returns the target's step-1 index for (model, n), building
	// and caching it on first use.
	index(model seed.Model, n, workers int) (*index.Index, error)
	// cached returns the already-built index for (model, n), or nil —
	// it never builds.
	cached(model seed.Model, n int) *index.Index
	// locus maps an effective-bank sequence number and residue span
	// back to source coordinates.
	locus(seq int, span gapped.Span) Locus
}

// Locus is one side of a Match mapped back to its target's source
// coordinates.
type Locus struct {
	// Seq is the source sequence number: the bank position for a
	// ProteinTarget, the DNA query number for a DNATarget, 0 for a
	// GenomeTarget (one genome per target).
	Seq int
	// ID is the effective sequence id: the bank id for proteins, the
	// frame-bank id otherwise (the frame string for a genome — the same
	// convention the service's wire encoding uses).
	ID string
	// Frame is the reading frame for translated targets, 0 for
	// proteins.
	Frame translate.Frame
	// NucStart/NucEnd is the forward-strand nucleotide interval the
	// aligned span covers, for translated targets only.
	NucStart, NucEnd int
}

// Translated reports whether the locus is a reading frame of a
// nucleotide sequence.
func (l Locus) Translated() bool { return l.Frame != 0 }

// indexSet caches one index per (seed model, N) identity with
// build-once semantics: concurrent searches against a cold target pay
// for exactly one build.
type indexSet struct {
	mu sync.Mutex
	m  map[string]*indexEntry
}

type indexEntry struct {
	once sync.Once
	ix   *index.Index
	err  error
}

func (s *indexSet) entry(key string) *indexEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*indexEntry)
	}
	e, ok := s.m[key]
	if !ok {
		e = &indexEntry{}
		s.m[key] = e
	}
	return e
}

func (s *indexSet) get(b *bank.Bank, model seed.Model, n, workers int) (*index.Index, error) {
	e := s.entry(index.ModelIdentity(model, n))
	e.once.Do(func() {
		e.ix, e.err = index.BuildParallel(b, model, n, workers)
	})
	return e.ix, e.err
}

func (s *indexSet) peek(model seed.Model, n int) *index.Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[index.ModelIdentity(model, n)]; ok {
		return e.ix
	}
	return nil
}

// adopt installs a prebuilt index under its own (model, N) identity.
// The index must have been built from the target's effective bank; the
// engine re-validates shape on every run (pipeline.MatchesRequest)
// and fails the search on a mismatch rather than rebuilding silently.
func (s *indexSet) adopt(ix *index.Index) {
	if ix == nil {
		return
	}
	e := s.entry(index.ModelIdentity(ix.Model(), ix.N()))
	e.once.Do(func() { e.ix = ix })
}

// ProteinTarget is a protein bank as a search target (or query side).
type ProteinTarget struct {
	b      *bank.Bank
	ixs    indexSet
	closer func() error // releases disk-backed storage (OpenTarget)
}

// NewProteinTarget wraps a protein bank. The bank is treated as
// immutable from here on — the target's cached indexes alias it.
func NewProteinTarget(b *bank.Bank) *ProteinTarget {
	return &ProteinTarget{b: b}
}

// Kind implements Target.
func (t *ProteinTarget) Kind() string { return "protein" }

// Bank implements Target.
func (t *ProteinTarget) Bank() *bank.Bank { return t.b }

// Adopt installs a prebuilt step-1 index of the bank (advanced use:
// the comparison service shares fingerprint-keyed cached indexes
// across targets this way). The index must describe this bank.
func (t *ProteinTarget) Adopt(ix *index.Index) { t.ixs.adopt(ix) }

func (t *ProteinTarget) index(model seed.Model, n, workers int) (*index.Index, error) {
	return t.ixs.get(t.b, model, n, workers)
}

func (t *ProteinTarget) cached(model seed.Model, n int) *index.Index {
	return t.ixs.peek(model, n)
}

func (t *ProteinTarget) locus(seq int, _ gapped.Span) Locus {
	return Locus{Seq: seq, ID: t.b.ID(seq)}
}

// GenomeTarget is a nucleotide sequence as a search target (or query
// side): it owns the six-frame translation bank and maps alignments
// back to genome coordinates — the tblastn subject and the tblastx
// side.
type GenomeTarget struct {
	genome []byte
	code   *translate.Code
	frames [6]translate.FrameTranslation
	fbank  *bank.Bank
	ixs    indexSet
}

// NewGenomeTarget translates an encoded genome (alphabet.EncodeDNA)
// into its six reading frames under the genetic code (nil means the
// standard code) and wraps the result as a reusable target.
func NewGenomeTarget(genome []byte, code *translate.Code) *GenomeTarget {
	if code == nil {
		code = translate.StandardCode
	}
	frames := code.SixFrames(genome)
	return &GenomeTarget{
		genome: genome,
		code:   code,
		frames: frames,
		fbank:  frameBank(frames),
	}
}

// frameBank is the one place a frame set becomes a subject bank, so an
// index built from GenomeTarget.Bank (the service caches them) always
// describes the bank the target searches.
func frameBank(frames [6]translate.FrameTranslation) *bank.Bank {
	fbank := bank.New("genome-frames")
	for _, ft := range frames {
		fbank.Add(ft.Frame.String(), ft.Protein)
	}
	return fbank
}

// Kind implements Target.
func (t *GenomeTarget) Kind() string { return "genome" }

// Bank implements Target: the six-frame translation bank.
func (t *GenomeTarget) Bank() *bank.Bank { return t.fbank }

// Len returns the genome length in nucleotides.
func (t *GenomeTarget) Len() int { return len(t.genome) }

// Code returns the genetic code the target was translated under.
func (t *GenomeTarget) Code() *translate.Code { return t.code }

// Adopt installs a prebuilt index of the frame bank (see
// ProteinTarget.Adopt).
func (t *GenomeTarget) Adopt(ix *index.Index) { t.ixs.adopt(ix) }

func (t *GenomeTarget) index(model seed.Model, n, workers int) (*index.Index, error) {
	return t.ixs.get(t.fbank, model, n, workers)
}

func (t *GenomeTarget) cached(model seed.Model, n int) *index.Index {
	return t.ixs.peek(model, n)
}

func (t *GenomeTarget) locus(seq int, span gapped.Span) Locus {
	frame := t.frames[seq].Frame
	l := Locus{ID: frame.String(), Frame: frame}
	l.NucStart, l.NucEnd = frameSpanToNuc(frame, span.Start, span.End, len(t.genome))
	return l
}

// DNATarget is a set of DNA sequences as a search side: each sequence
// is translated into its six reading frames (the blastx query side),
// and matches are mapped back to the originating query and its
// nucleotide coordinates.
type DNATarget struct {
	refs  []dnaFrameRef
	fbank *bank.Bank
	ixs   indexSet
}

// dnaFrameRef locates one frame-bank sequence in its source DNA query.
type dnaFrameRef struct {
	query int
	frame translate.Frame
	qLen  int
}

// NewDNATarget translates each encoded DNA sequence into its six
// reading frames under the genetic code (nil means the standard code)
// and wraps the combined frame bank as a reusable target.
func NewDNATarget(queries [][]byte, code *translate.Code) *DNATarget {
	if code == nil {
		code = translate.StandardCode
	}
	fbank := bank.New("dna-query-frames")
	t := &DNATarget{fbank: fbank}
	for qi, dna := range queries {
		for _, ft := range code.SixFrames(dna) {
			fbank.Add(fmt.Sprintf("q%d%s", qi, ft.Frame), ft.Protein)
			t.refs = append(t.refs, dnaFrameRef{query: qi, frame: ft.Frame, qLen: len(dna)})
		}
	}
	return t
}

// Kind implements Target.
func (t *DNATarget) Kind() string { return "dna" }

// Bank implements Target: the combined six-frame translation bank.
func (t *DNATarget) Bank() *bank.Bank { return t.fbank }

// Queries returns the number of source DNA sequences.
func (t *DNATarget) Queries() int { return len(t.refs) / 6 }

// Adopt installs a prebuilt index of the frame bank (see
// ProteinTarget.Adopt).
func (t *DNATarget) Adopt(ix *index.Index) { t.ixs.adopt(ix) }

func (t *DNATarget) index(model seed.Model, n, workers int) (*index.Index, error) {
	return t.ixs.get(t.fbank, model, n, workers)
}

func (t *DNATarget) cached(model seed.Model, n int) *index.Index {
	return t.ixs.peek(model, n)
}

func (t *DNATarget) locus(seq int, span gapped.Span) Locus {
	ref := t.refs[seq]
	l := Locus{Seq: ref.query, ID: t.fbank.ID(seq), Frame: ref.frame}
	l.NucStart, l.NucEnd = frameSpanToNuc(ref.frame, span.Start, span.End, ref.qLen)
	return l
}

// frameSpanToNuc maps a half-open protein span within a reading frame
// to the forward-strand nucleotide interval it covers.
func frameSpanToNuc(f translate.Frame, aaStart, aaEnd, genomeLen int) (int, int) {
	first := translate.CodonStart(f, aaStart, genomeLen)
	last := translate.CodonStart(f, aaEnd-1, genomeLen)
	if f > 0 {
		return first, last + 3
	}
	return last, first + 3
}

// Package analysis is seedlint's analysis framework: a deliberately
// small, dependency-free reimplementation of the golang.org/x/tools
// go/analysis API shape (Analyzer, Pass, Diagnostic) on top of the
// standard library's go/ast and go/parser.
//
// The engine carries invariants no off-the-shelf tool checks — mmap
// lifetimes, goroutine cancellation discipline, asm/noasm kernel
// parity, span lifetimes — and this package holds one analyzer per
// invariant (see Analyzers). The build environment vendors no
// third-party modules, so instead of depending on x/tools the
// framework mirrors its surface closely enough that the analyzers
// would port to a real multichecker by swapping the import.
//
// Every analyzer sees one package at a time, so direct mode and go
// vet's per-package protocol report the same findings.
//
// Analyzers are purely syntactic: they parse, they do not type-check.
// Each one is calibrated against this repository's idioms (see the
// per-analyzer files), and every diagnostic can be waived in place
// with a directive comment:
//
//	//seedlint:allow <analyzer>[,<analyzer>...] -- reason
//
// on the flagged line or the line immediately above it. The reason
// tail is mandatory: a bare directive suppresses nothing, and the
// directive analyzer reports it so the dead waiver is visible.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named per-package invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// seedlint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by seedlint -list.
	Doc string
	// Run checks one package. A returned error is an analyzer
	// malfunction (fixture missing, unreadable directory), not a
	// finding; findings go through pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one package's parsed syntax through one analyzer.
type Pass struct {
	// Analyzer is the check this pass runs.
	Analyzer *Analyzer
	// Fset resolves token.Pos for Files.
	Fset *token.FileSet
	// Files is the package's parsed syntax (build-constrained files
	// excluded, tests excluded), with comments.
	Files []*ast.File
	// Path is the package import path ("seedblast/internal/index").
	Path string
	// Dir is the package directory on disk. Analyzers that must see
	// across build constraints (kernelparity) re-parse from here.
	Dir string
	// OtherFiles lists non-Go files in the package (assembly).
	OtherFiles []string

	diags      []Finding
	directives map[string][]directive // file name → directives, lazily built
}

// Finding is one resolved diagnostic: a concrete file:line:col plus
// the analyzer that raised it. This is what the driver prints and the
// tests match.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Reportf records a finding at pos (resolved through the pass's Fset)
// unless a seedlint:allow directive for this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Fset.Position(pos), format, args...)
}

// reportAt is Reportf for analyzers that parse with their own FileSet
// (kernelparity re-parses across build constraints) and hold already
// resolved positions.
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	if p.allowed(pos) {
		return
	}
	p.diags = append(p.diags, Finding{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //seedlint:... comment.
type directive struct {
	pos    token.Position // where the comment sits
	line   int            // line the comment sits on
	verb   string         // "allow", "owns", ...
	args   string         // between the verb and "--", nested comments stripped
	reason string         // after "--", empty when the tail is missing
}

// buildDirectives scans the pass's comments once.
func (p *Pass) buildDirectives() {
	if p.directives != nil {
		return
	}
	p.directives = make(map[string][]directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "seedlint:") {
					continue
				}
				text = strings.TrimPrefix(text, "seedlint:")
				// A trailing comment on the same line (fixture want
				// markers, editor annotations) is not directive text;
				// strip it before looking for the reason separator.
				text, _, _ = strings.Cut(text, "//")
				verb, args, _ := strings.Cut(text, " ")
				args, reason, _ := strings.Cut(args, "--")
				pos := p.Fset.Position(c.Pos())
				p.directives[pos.Filename] = append(p.directives[pos.Filename], directive{
					pos:    pos,
					line:   pos.Line,
					verb:   verb,
					args:   strings.TrimSpace(args),
					reason: strings.TrimSpace(reason),
				})
			}
		}
	}
}

// directiveAt reports whether a directive with the given verb covers
// the resolved position: same line, or the line immediately above (a
// comment on its own line annotating the statement below it).
func (p *Pass) directiveAt(at token.Position, verb string) (directive, bool) {
	p.buildDirectives()
	for _, d := range p.directives[at.Filename] {
		if d.verb == verb && (d.line == at.Line || d.line == at.Line-1) {
			return d, true
		}
	}
	return directive{}, false
}

// allowed reports whether a seedlint:allow directive naming this
// pass's analyzer covers the position. A directive without the
// "-- reason" tail is inert (and reported by the directive analyzer).
func (p *Pass) allowed(at token.Position) bool {
	d, ok := p.directiveAt(at, "allow")
	if !ok || d.reason == "" {
		return false
	}
	for _, name := range strings.Split(d.args, ",") {
		if strings.TrimSpace(name) == p.Analyzer.Name {
			return true
		}
	}
	return false
}

// Owned reports whether a //seedlint:owns directive covers pos — the
// ownership marker mmapclose requires when a tracked value
// is stored somewhere that outlives the opening function. Like allow,
// an owns marker without a reason naming the owner is inert.
func (p *Pass) Owned(pos token.Pos) bool {
	d, ok := p.directiveAt(p.Fset.Position(pos), "owns")
	return ok && d.reason != ""
}

// Run executes one analyzer over one package and returns its resolved
// findings sorted by position.
func Run(a *Analyzer, pkg *Package) ([]Finding, error) {
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Path:       pkg.Path,
		Dir:        pkg.Dir,
		OtherFiles: pkg.OtherFiles,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	out := pass.diags
	sortFindings(out)
	return out, nil
}

// RunAll executes every analyzer over every package.
func RunAll(as []*Analyzer, pkgs []*Package) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range as {
			fs, err := Run(a, pkg)
			if err != nil {
				return nil, err
			}
			out = append(out, fs...)
		}
	}
	sortFindings(out)
	return out, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

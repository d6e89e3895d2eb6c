// Package analysistest runs seedlint analyzers over fixture packages
// and checks their findings against want-comments, mirroring the
// golang.org/x/tools analysistest convention:
//
//	ch <- v // want "sends on .* without selecting"
//
// Every line carrying a finding must have a matching want comment and
// every want comment must be matched by exactly one finding, so a
// fixture pins both that the analyzer fires on the violation and that
// it stays silent everywhere else in the file.
package analysistest

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"seedblast/internal/analysis"
)

// wantRE extracts the expectation regexes from a `// want "..." "..."`
// comment.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// expectation is one want-comment: a finding must land on file:line
// with a message matching rx.
type expectation struct {
	file    string // base name
	line    int
	rx      *regexp.Regexp
	matched bool
}

// Run analyzes each fixture package under testdata/src and compares
// findings against the fixtures' want comments.
func Run(t *testing.T, a *analysis.Analyzer, rels ...string) {
	t.Helper()
	for _, rel := range rels {
		dir, err := filepath.Abs(filepath.Join("testdata", "src", rel))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		var goFiles, otherFiles []string
		for _, e := range entries {
			name := e.Name()
			switch {
			case strings.HasSuffix(name, "_test.go"):
			case strings.HasSuffix(name, ".go"):
				goFiles = append(goFiles, filepath.Join(dir, name))
			case strings.HasSuffix(name, ".s"):
				otherFiles = append(otherFiles, filepath.Join(dir, name))
			}
		}
		if len(goFiles) == 0 {
			t.Fatalf("%s: fixture dir holds no Go files", rel)
		}
		pkg, err := analysis.ParsePackage(rel, dir, goFiles, otherFiles)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		findings, err := analysis.Run(a, pkg)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		checkWants(t, rel, findings, goFiles)
	}
}

// checkWants compares findings against the fixtures' want comments.
func checkWants(t *testing.T, label string, findings []analysis.Finding, goFiles []string) {
	t.Helper()
	var wants []*expectation
	for _, f := range goFiles {
		ws, err := parseWants(f)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		wants = append(wants, ws...)
	}
	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s: unexpected finding: %s", label, f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no finding matched want %q at %s:%d", label, w.rx, w.file, w.line)
		}
	}
}

// claim marks the first unmatched expectation covering the finding.
func claim(wants []*expectation, f analysis.Finding) bool {
	base := filepath.Base(f.Pos.Filename)
	for _, w := range wants {
		if !w.matched && w.file == base && w.line == f.Pos.Line && w.rx.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants scans one fixture file for want comments.
func parseWants(path string) ([]*expectation, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var out []*expectation
	sc := bufio.NewScanner(fh)
	base := filepath.Base(path)
	for line := 1; sc.Scan(); line++ {
		m := wantRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		rest := m[1]
		for {
			rest = strings.TrimSpace(rest)
			if !strings.HasPrefix(rest, "\"") {
				break
			}
			end := strings.Index(rest[1:], "\"")
			if end < 0 {
				return nil, fmt.Errorf("%s:%d: unterminated want pattern", base, line)
			}
			pat := rest[1 : 1+end]
			rx, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", base, line, pat, err)
			}
			out = append(out, &expectation{file: base, line: line, rx: rx})
			rest = rest[end+2:]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

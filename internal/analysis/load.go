package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded package: parsed non-test Go files plus enough
// metadata for the analyzers (directory for cross-constraint reparses,
// assembly files for kernelparity).
type Package struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Path       string
	Dir        string
	OtherFiles []string
}

// listedPackage is the subset of `go list -json` output seedlint needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	SFiles     []string
	Error      *struct{ Err string }
}

// LoadPackages enumerates packages matching patterns (relative to dir,
// e.g. "./...") with the go tool and parses their non-test Go files.
// Test files are deliberately out of scope: the invariants seedlint
// enforces are production-lifetime obligations, and the tests lean on
// intentionally short-lived opens the analyzers would drown in.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		var goFiles, otherFiles []string
		for _, f := range lp.GoFiles {
			goFiles = append(goFiles, filepath.Join(lp.Dir, f))
		}
		for _, f := range lp.SFiles {
			otherFiles = append(otherFiles, filepath.Join(lp.Dir, f))
		}
		pkg, err := ParsePackage(lp.ImportPath, lp.Dir, goFiles, otherFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ParsePackage parses the given Go files (absolute paths) into a
// Package. It is the shared constructor behind LoadPackages, the
// vettool config mode, and the fixture runner.
func ParsePackage(path, dir string, goFiles, otherFiles []string) (*Package, error) {
	pkg := &Package{
		Fset:       token.NewFileSet(),
		Path:       path,
		Dir:        dir,
		OtherFiles: otherFiles,
	}
	for _, name := range goFiles {
		f, err := parser.ParseFile(pkg.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

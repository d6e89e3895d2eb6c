package seedblast_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// withFuncs returns the exported package-level With* functions of the
// non-test Go files in dir.
func withFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		for file, f := range pkg.Files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "With") {
					names[fd.Name.Name] = true
				}
			}
		}
	}
	return names
}

// TestFacadeReexportsEveryOption pins the one remaining copy of the
// option list: every With* setter of internal/core has a same-named
// facade function and the facade invents none. (v2_api_test.go pins
// each signature at compile time.)
func TestFacadeReexportsEveryOption(t *testing.T) {
	core, facade := withFuncs(t, "internal/core"), withFuncs(t, ".")
	if len(core) == 0 {
		t.Fatal("found no With* setters in internal/core")
	}
	for name := range core {
		if !facade[name] {
			t.Errorf("internal/core.%s has no facade re-export", name)
		}
	}
	for name := range facade {
		if !core[name] {
			t.Errorf("facade %s has no internal/core setter", name)
		}
	}
}

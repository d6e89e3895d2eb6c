package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// KernelParity keeps the build-tag variants of the asm kernels — step
// 2's in internal/ungapped, step 3's in internal/align — from
// drifting: kernel_<arch>.go (asm declarations) and
// kernel_noasm.go (portable stubs) are alternative definitions of the
// same dispatch surface, selected by GOARCH, so a signature or
// name-set mismatch compiles fine on the developer's machine and
// breaks — or worse, silently diverges — on a cross-build. The
// analyzer re-parses every kernel_*.go in the package directory
// regardless of build constraints and requires:
//
//   - every name (func, const, var) declared in kernel_noasm.go exists
//     in each kernel_<arch>.go, and vice versa — except arch-only
//     helpers referenced from no shared file (cpuid, xgetbv0);
//   - functions declared in both variants have identical signatures;
//   - every body-less (assembly-implemented) declaration has a
//     matching TEXT ·name symbol in the package's .s files;
//   - kernel_noasm.go's build constraint excludes each arch variant.
var KernelParity = &Analyzer{
	Name: "kernelparity",
	Doc: "kernel_<arch>.go and kernel_noasm.go must declare the same functions with the same " +
		"signatures, with TEXT symbols behind every asm declaration",
	Run: runKernelParity,
}

// kernelVariant is one parsed kernel_*.go file.
type kernelVariant struct {
	path  string
	arch  string // "" for noasm
	file  *ast.File
	funcs map[string]*ast.FuncDecl
	names map[string]token.Pos // every package-level declared name
}

func runKernelParity(pass *Pass) error {
	if pass.Dir == "" {
		return nil
	}
	noasmPath := filepath.Join(pass.Dir, "kernel_noasm.go")
	if _, err := os.Stat(noasmPath); err != nil {
		return nil // no split-kernel surface in this package
	}

	entries, err := os.ReadDir(pass.Dir)
	if err != nil {
		return fmt.Errorf("kernelparity: %w", err)
	}
	fset := token.NewFileSet()
	var noasm *kernelVariant
	var arches []*kernelVariant
	var asmText []string // TEXT symbols across all kernel .s files
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, "_test.go"):
		case strings.HasPrefix(name, "kernel_") && strings.HasSuffix(name, ".go"):
			v, err := parseKernelVariant(fset, filepath.Join(pass.Dir, name))
			if err != nil {
				return err
			}
			if v.arch == "" {
				noasm = v
			} else {
				arches = append(arches, v)
			}
		case strings.HasPrefix(name, "kernel_") && strings.HasSuffix(name, ".s"):
			syms, err := textSymbols(filepath.Join(pass.Dir, name))
			if err != nil {
				return err
			}
			asmText = append(asmText, syms...)
		}
	}
	if noasm == nil || len(arches) == 0 {
		return nil
	}

	// Names referenced from shared (non-kernel_*) files of the package:
	// these are the dispatch surface every variant must provide.
	shared := sharedReferences(pass)

	for _, arch := range arches {
		checkVariantPair(pass, fset, noasm, arch, shared)
		checkAsmBacked(pass, fset, arch, asmText)
		checkNoasmConstraint(pass, fset, noasm, arch.arch)
	}
	return nil
}

func parseKernelVariant(fset *token.FileSet, path string) (*kernelVariant, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("kernelparity: %w", err)
	}
	base := strings.TrimSuffix(filepath.Base(path), ".go")
	arch := strings.TrimPrefix(base, "kernel_")
	if arch == "noasm" {
		arch = ""
	}
	v := &kernelVariant{
		path:  path,
		arch:  arch,
		file:  f,
		funcs: make(map[string]*ast.FuncDecl),
		names: make(map[string]token.Pos),
	}
	for _, d := range f.Decls {
		switch decl := d.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				v.funcs[decl.Name.Name] = decl
				v.names[decl.Name.Name] = decl.Pos()
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						v.names[id.Name] = id.Pos()
					}
				}
			}
		}
	}
	return v, nil
}

// sharedReferences collects identifiers used by the pass's files other
// than the kernel_* variants themselves: a name referenced there must
// exist on every build.
func sharedReferences(pass *Pass) map[string]bool {
	out := make(map[string]bool)
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if strings.HasPrefix(name, "kernel_") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				out[id.Name] = true
			}
			return true
		})
	}
	return out
}

// checkVariantPair compares one arch variant against the noasm stubs.
func checkVariantPair(pass *Pass, fset *token.FileSet, noasm, arch *kernelVariant, shared map[string]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		// Positions come from the analyzer's own fset (the variants are
		// re-parsed to bypass build constraints), so resolve here and
		// report through a file-position diagnostic.
		pass.reportAt(fset.Position(pos), format, args...)
	}
	for name, nf := range noasm.funcs {
		af, ok := arch.funcs[name]
		if !ok {
			report(nf.Pos(), "func %s is declared in %s but missing from %s", name, filepath.Base(noasm.path), filepath.Base(arch.path))
			continue
		}
		nsig, asig := signatureOf(nf), signatureOf(af)
		if nsig != asig {
			report(af.Pos(), "func %s signature drifted: %s has %s, %s has %s", name, filepath.Base(arch.path), asig, filepath.Base(noasm.path), nsig)
		}
	}
	for name, af := range arch.funcs {
		if _, ok := noasm.funcs[name]; ok {
			continue
		}
		// Arch-only helpers are fine while nothing outside the arch
		// file depends on them.
		if shared[name] {
			report(af.Pos(), "func %s is used by shared code but declared only in %s; add a %s counterpart", name, filepath.Base(arch.path), filepath.Base(noasm.path))
		}
	}
	for name, pos := range noasm.names {
		if _, isFunc := noasm.funcs[name]; isFunc {
			continue
		}
		if _, ok := arch.names[name]; !ok {
			report(pos, "%s is declared in %s but missing from %s", name, filepath.Base(noasm.path), filepath.Base(arch.path))
		}
	}
	for name, pos := range arch.names {
		if _, isFunc := arch.funcs[name]; isFunc {
			continue
		}
		if _, ok := noasm.names[name]; !ok && shared[name] {
			report(pos, "%s is used by shared code but declared only in %s; add a %s counterpart", name, filepath.Base(arch.path), filepath.Base(noasm.path))
		}
	}
}

// checkAsmBacked verifies each body-less declaration has a TEXT symbol.
func checkAsmBacked(pass *Pass, fset *token.FileSet, arch *kernelVariant, asmText []string) {
	syms := make(map[string]bool, len(asmText))
	for _, s := range asmText {
		syms[s] = true
	}
	for name, fd := range arch.funcs {
		if fd.Body != nil {
			continue
		}
		if !syms[name] {
			pass.reportAt(fset.Position(fd.Pos()), "func %s has no body and no TEXT ·%s symbol in the package's kernel assembly", name, name)
		}
	}
}

// textRE matches plan9 assembly TEXT directives: TEXT ·name(SB), ...
var textRE = regexp.MustCompile(`(?m)^TEXT\s+[·&]?([\p{L}_][\p{L}\p{N}_]*)\s*\(SB\)`)

// textSymbols extracts the function symbols a .s file defines.
func textSymbols(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kernelparity: %w", err)
	}
	var out []string
	for _, m := range textRE.FindAllStringSubmatch(string(data), -1) {
		out = append(out, m[1])
	}
	return out, nil
}

// checkNoasmConstraint requires kernel_noasm.go's build constraint to
// exclude the arch (//go:build !amd64 for kernel_amd64.go), so both
// variants can never be compiled together.
func checkNoasmConstraint(pass *Pass, fset *token.FileSet, noasm *kernelVariant, arch string) {
	for _, cg := range noasm.file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//go:build") && strings.Contains(c.Text, "!"+arch) {
				return
			}
		}
	}
	pass.reportAt(fset.Position(noasm.file.Pos()), "kernel_noasm.go build constraint does not exclude %s (want //go:build with !%s)", arch, arch)
}

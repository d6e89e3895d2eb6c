package analysis

import (
	"go/ast"
)

// ErrClose flags Close() calls whose error silently vanishes on
// resources where the error carries real information: writable files
// (a failed close is a failed write — the data may not be on disk),
// mmap-backed indexes and targets (a failed munmap leaks address
// space invisibly), and HTTP response bodies (whose close errors
// surface broken connection reuse). Plain read-only closes are exempt:
// their close error is noise.
//
// Checking the error, deliberately discarding it (_ = f.Close() with a
// comment saying why), or deferring the close all pass; a bare
// statement-position Close() on a tracked resource does not.
var ErrClose = &Analyzer{
	Name: "errclose",
	Doc: "Close errors on writable or mmap-backed resources (and response bodies) must be " +
		"checked or deliberately discarded; a bare Close() statement drops them",
	Run: runErrClose,
}

// closeOrigins maps constructor (import path suffix, func) pairs to
// the resource description used in diagnostics. Only resources whose
// close error matters appear here.
var closeOrigins = []struct {
	pathSuffix string
	fn         string
	what       string
}{
	{"os", "Create", "writable file"},
	{"os", "OpenFile", "writable file"},
	{"os", "CreateTemp", "writable file"},
	{"internal/index", "Open", "mmap-backed index"},
	{"internal/core", "OpenTarget", "mmap-backed target"},
	{"seedblast", "OpenTarget", "mmap-backed target"},
}

func runErrClose(pass *Pass) error {
	for _, file := range pass.Files {
		imports := importNames(file)
		for _, scope := range allFuncs(file) {
			checkScopeCloses(pass, scope.body, imports, pass.Path)
		}
	}
	return nil
}

// checkScopeCloses tracks tracked-resource variables assigned in one
// function body and flags bare Close statements on them. The walk
// stays within this body but skips nested function literals (they are
// separate scopes in allFuncs).
func checkScopeCloses(pass *Pass, body *ast.BlockStmt, imports map[string]string, pkgPath string) {
	origins := make(map[string]string) // var name → resource description
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(x.Rhs) != 1 {
				return true
			}
			call, ok := x.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			what, ok := closeOrigin(call, imports, pkgPath)
			if !ok {
				return true
			}
			if v, ok := x.Lhs[0].(*ast.Ident); ok && v.Name != "_" {
				origins[v.Name] = what
			}
		case *ast.ExprStmt:
			call, ok := x.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
				return true
			}
			// resp.Body.Close() and friends: response bodies by shape.
			if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "Body" {
				pass.Reportf(x.Pos(), "response body Close error is dropped; check it or discard deliberately (_ = %s.Close())", renderExpr(sel.X))
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if what, tracked := origins[id.Name]; tracked {
					pass.Reportf(x.Pos(), "Close error on %s %s is dropped; a failed close is invisible — check it, log it, or discard deliberately (_ = %s.Close())", what, id.Name, id.Name)
				}
			}
		}
		return true
	}
	for _, stmt := range body.List {
		ast.Inspect(stmt, walk)
	}
}

// closeOrigin matches a call against the tracked constructors.
func closeOrigin(call *ast.CallExpr, imports map[string]string, pkgPath string) (string, bool) {
	recv, name := calleeOf(call)
	for _, o := range closeOrigins {
		if name != o.fn {
			continue
		}
		if recv == "" {
			if pathMatches(pkgPath, o.pathSuffix) {
				return o.what, true
			}
			continue
		}
		if path, ok := imports[recv]; ok && pathMatches(path, o.pathSuffix) {
			return o.what, true
		}
	}
	return "", false
}

// renderExpr prints a short label for a selector chain.
func renderExpr(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return renderExpr(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(x.X) + "[...]"
	}
	return "container"
}

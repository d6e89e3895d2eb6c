package analysis

import (
	"go/ast"
	"go/token"
)

// MmapClose enforces the seeddb mmap lifetime contract (PR 5):
// index.Open and core.OpenTarget return views that alias a file
// mapping, so every opened value must reach a Close on all paths out
// of the opening function, or visibly hand its ownership off —
// returned to the caller, passed into another component, or stored
// under a //seedlint:owns marker naming who closes it. An aliased
// value stored into state that outlives the opening function without
// that marker is exactly the dangling-mapping bug the contract exists
// to prevent. The path tracking itself is the resourcelifetime walker
// (checkLifetime).
var MmapClose = &Analyzer{
	Name: "mmapclose",
	Doc: "mmap-backed opens (index.Open, core.OpenTarget) must reach Close on all paths " +
		"or visibly transfer ownership; stores that outlive the opener need a //seedlint:owns marker",
	Run: runMmapClose,
}

// opener describes one recognized mmap-returning constructor.
type opener struct {
	pathSuffix string // import path suffix the qualifier must resolve to
	name       string
}

var mmapOpeners = []opener{
	{"internal/index", "Open"},
	{"internal/core", "OpenTarget"},
	{"seedblast", "OpenTarget"},
}

// mmapLifetime pins the analyzer's diagnostic wording; the fixtures
// match these strings, so they survive the walker extraction verbatim.
var mmapLifetime = lifetimeSpec{
	closeMethod: "Close",
	reportBadStore: func(p *Pass, pos token.Pos, v string) {
		p.Reportf(pos, "mmap-aliased %s stored into state that outlives this function without a //seedlint:owns marker", v)
	},
	reportNeverFreed: func(p *Pass, pos token.Pos, what, v string) {
		p.Reportf(pos, "result of %s (%s) is never closed and never leaves this function; add defer %s.Close() or close it on every path", what, v, v)
	},
	reportLeakReturn: func(p *Pass, pos token.Pos, v, what string, openLine int) {
		p.Reportf(pos, "return leaks %s opened by %s at line %d (no Close or ownership transfer on this path)", v, what, openLine)
	},
}

// isMmapOpen reports whether call is a recognized opener in a file
// with the given import table, inside a package at pkgPath (for
// unqualified in-package calls).
func isMmapOpen(call *ast.CallExpr, imports map[string]string, pkgPath string) (string, bool) {
	recv, name := calleeOf(call)
	for _, op := range mmapOpeners {
		if name != op.name {
			continue
		}
		if recv == "" {
			// Unqualified: only an in-package call counts.
			if pathMatches(pkgPath, op.pathSuffix) {
				return name, true
			}
			continue
		}
		if path, ok := imports[recv]; ok && pathMatches(path, op.pathSuffix) {
			return recv + "." + name, true
		}
	}
	return "", false
}

func runMmapClose(pass *Pass) error {
	for _, file := range pass.Files {
		imports := importNames(file)
		scopes := allFuncs(file)
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			what, ok := isMmapOpen(call, imports, pass.Path)
			if !ok {
				return true
			}
			v, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if v.Name == "_" {
				pass.Reportf(call.Pos(), "result of %s is discarded; the mapping can never be closed", what)
				return true
			}
			var errName string
			if len(as.Lhs) == 2 {
				if id, ok := as.Lhs[1].(*ast.Ident); ok {
					errName = id.Name
				}
			}
			body := innermost(scopes, call.Pos())
			if body == nil {
				return true
			}
			checkLifetime(pass, body, call, mmapLifetime, what, v.Name, errName)
			return true
		})
	}
	return nil
}

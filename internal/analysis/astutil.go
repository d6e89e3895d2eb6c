package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// importNames maps each import's local name in f to its path. The
// default name is the path's last segment, which is exact for every
// package in this module and close enough for the stdlib.
func importNames(f *ast.File) map[string]string {
	m := make(map[string]string)
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		m[name] = path
	}
	return m
}

// pathMatches reports whether an import path is, or ends at a path
// boundary with, the given suffix ("seedblast/internal/index" matches
// "internal/index").
func pathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeOf decomposes a call's function into (package-or-receiver
// ident, method/function name). Both may be empty: f() returns
// ("", "f"), x.M() returns ("x", "M"), a.b.M() returns ("", "").
func calleeOf(call *ast.CallExpr) (recv, name string) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return "", fn.Name
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			return id.Name, fn.Sel.Name
		}
	}
	return "", ""
}

// rootIdent walks a selector/index/star chain (s.a.b[i].c) down to its
// base identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// enclosingFuncs pairs every function body in f — declarations and
// literals — with its body, innermost discoverable by position.
type funcScope struct {
	name string // "" for literals
	node ast.Node
	body *ast.BlockStmt
}

// allFuncs collects every FuncDecl and FuncLit in the file.
func allFuncs(f *ast.File) []funcScope {
	var out []funcScope
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcScope{name: fn.Name.Name, node: fn, body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcScope{node: fn, body: fn.Body})
		}
		return true
	})
	return out
}

// localDecls collects the names declared inside body by short variable
// declarations, var/const specs, range clauses, and type switches —
// everything that makes an identifier function-local rather than a
// parameter, receiver, or outer binding.
func localDecls(body *ast.BlockStmt) map[string]bool {
	names := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok.String() == ":=" {
				for _, l := range s.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						names[id.Name] = true
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range s.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						names[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok {
					names[id.Name] = true
				}
			}
		}
		return true
	})
	return names
}

// splitTrim splits s on sep and trims surrounding space from each
// element.
func splitTrim(s, sep string) []string {
	parts := strings.Split(s, sep)
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

// signatureOf renders a function's signature with parameter names
// stripped, for structural comparison across build-tag variants.
func signatureOf(fd *ast.FuncDecl) string {
	params := strings.Join(fieldTypes(fd.Type.Params), ", ")
	results := fieldTypes(fd.Type.Results)
	switch len(results) {
	case 0:
		return "func(" + params + ")"
	case 1:
		return "func(" + params + ") " + results[0]
	default:
		return "func(" + params + ") (" + strings.Join(results, ", ") + ")"
	}
}

// fieldTypes flattens a parameter/result list into one type string per
// field (a, b int → ["int", "int"]).
func fieldTypes(fl *ast.FieldList) []string {
	if fl == nil {
		return nil
	}
	var out []string
	for _, f := range fl.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, types.ExprString(f.Type))
		}
	}
	return out
}

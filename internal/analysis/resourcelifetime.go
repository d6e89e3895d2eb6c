package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the resource-lifetime walker behind mmapclose. It
// enforces one shape of contract — a constructor hands back a value
// carrying an obligation (Close the mapping) that must be discharged on
// every path out of the acquiring function or visibly transferred —
// parameterized by the discharge method and the analyzer's diagnostic
// wording (see lifetimeSpec's report callbacks), which stays with the
// analyzer.

// lifetimeSpec parameterizes checkLifetime over one resource kind.
type lifetimeSpec struct {
	// closeMethod discharges the obligation ("Close").
	closeMethod string

	// reportBadStore fires when the value is stored into state rooted
	// outside the acquiring function without a //seedlint:owns marker.
	reportBadStore func(p *Pass, pos token.Pos, v string)
	// reportNeverFreed fires when the value neither reaches the close
	// method nor ever leaves the function.
	reportNeverFreed func(p *Pass, pos token.Pos, what, v string)
	// reportLeakReturn fires on a return path not covered by a close
	// or an ownership transfer.
	reportLeakReturn func(p *Pass, pos token.Pos, v, what string, openLine int)
}

// innermost returns the body of the smallest function scope containing pos.
func innermost(scopes []funcScope, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	bestSize := token.Pos(-1)
	for _, s := range scopes {
		if s.node.Pos() <= pos && pos < s.node.End() {
			if size := s.node.End() - s.node.Pos(); best == nil || size < bestSize {
				best, bestSize = s.body, size
			}
		}
	}
	return best
}

// checkLifetime inspects the acquiring function's body for the opened
// value's fate: a deferred discharge, explicit discharges covering
// every return, or an ownership transfer.
func checkLifetime(pass *Pass, body *ast.BlockStmt, open *ast.CallExpr, spec lifetimeSpec, what, v, errName string) {
	locals := localDecls(body)
	var (
		deferred  bool
		safePos   []token.Pos // positions after which a plain return is fine: discharge calls and ownership transfers
		badStores []token.Pos
	)
	transferred := false
	markSafe := func(pos token.Pos) { safePos = append(safePos, pos) }

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if isMethodCallOn(x.Call, v, spec.closeMethod) {
				deferred = true
			}
		case *ast.CallExpr:
			if isMethodCallOn(x, v, spec.closeMethod) {
				markSafe(x.Pos())
				return true
			}
			for _, arg := range x.Args {
				if mentionsAsValue(arg, v) {
					transferred = true
					markSafe(x.Pos())
				}
			}
		case *ast.SelectorExpr:
			// A v.Close method value outside a call is an
			// ownership handoff (e.g. t.closer = ix.Close).
			if id, ok := x.X.(*ast.Ident); ok && id.Name == v && x.Sel.Name == spec.closeMethod {
				transferred = true
				markSafe(x.Pos())
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				rhs := x.Rhs[0]
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				}
				if !mentionsAsValue(rhs, v) {
					continue
				}
				root := rootIdent(lhs)
				if root == nil || root.Name == v || locals[root.Name] {
					continue
				}
				if root.Name == "_" {
					// A blank store (_ = v) silences the compiler but
					// transfers nothing.
					continue
				}
				if _, isIdent := lhs.(*ast.Ident); isIdent {
					// Plain store to a named result or outer variable:
					// ownership leaves with it.
					transferred = true
					markSafe(x.Pos())
					continue
				}
				// Stored into a field/slot rooted outside this
				// function: outlives the acquirer.
				if pass.Owned(x.Pos()) {
					transferred = true
					markSafe(x.Pos())
				} else {
					badStores = append(badStores, x.Pos())
				}
			}
		}
		return true
	})

	for _, pos := range badStores {
		spec.reportBadStore(pass, pos, v)
	}

	if deferred {
		return
	}
	if len(badStores) > 0 {
		// The value does leave the function — through the unmarked
		// store already reported above. One finding is enough.
		return
	}
	// A return that carries v out is itself an ownership transfer
	// (handoff constructors: return t, nil).
	returns := plainReturns(body, open.Pos())
	returnsCarry := false
	for _, r := range returns {
		if returnMentions(r.stmt, v) {
			returnsCarry = true
			break
		}
	}

	if len(safePos) == 0 && !transferred && !returnsCarry {
		spec.reportNeverFreed(pass, open.Pos(), what, v)
		return
	}

	// Path check: every plain return after the open must be covered by
	// an earlier discharge/transfer, carry v out itself, or sit in the
	// open's own error branch. Statement position approximates
	// dominance — good enough for this repo's early-return style, and
	// //seedlint:allow covers the exceptions.
	openLine := pass.Fset.Position(open.Pos()).Line
	for _, r := range returns {
		if returnMentions(r.stmt, v) {
			continue
		}
		if errName != "" && r.errGuard == errName {
			continue
		}
		covered := false
		for _, p := range safePos {
			// End(), not Pos(): a discharge inside the return
			// expression itself (return ix.Close()) covers this path.
			if p < r.stmt.End() {
				covered = true
				break
			}
		}
		if !covered {
			spec.reportLeakReturn(pass, r.stmt.Pos(), v, what, openLine)
		}
	}
}

// isMethodCallOn reports whether call is v.<method>().
func isMethodCallOn(call *ast.CallExpr, v, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == v
}

// mentionsAsValue reports whether expr uses name as a value — anywhere
// except as the receiver of a method call (v.M() passes a derived
// result, not v itself).
func mentionsAsValue(expr ast.Expr, name string) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
					// Receiver position: inspect only the arguments.
					for _, a := range call.Args {
						ast.Inspect(a, walk)
					}
					return false
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	}
	ast.Inspect(expr, walk)
	return found
}

// plainReturn is a return statement after the open, with the name of
// the error whose != nil check guards it (when trivially detectable).
type plainReturn struct {
	stmt     *ast.ReturnStmt
	errGuard string
}

// plainReturns collects returns in body after pos, skipping nested
// function literals (their returns exit the literal, not the opener).
func plainReturns(body *ast.BlockStmt, pos token.Pos) []plainReturn {
	var out []plainReturn
	var guards []string // stack of err idents guarding the current if-branch
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			g := ""
			if b, ok := x.Cond.(*ast.BinaryExpr); ok && b.Op == token.NEQ {
				if id, ok := b.X.(*ast.Ident); ok {
					if y, ok := b.Y.(*ast.Ident); ok && y.Name == "nil" {
						g = id.Name
					}
				}
			}
			guards = append(guards, g)
			ast.Inspect(x.Body, walk)
			guards = guards[:len(guards)-1]
			if x.Else != nil {
				guards = append(guards, "")
				ast.Inspect(x.Else, walk)
				guards = guards[:len(guards)-1]
			}
			if x.Init != nil {
				ast.Inspect(x.Init, walk)
			}
			ast.Inspect(x.Cond, walk)
			return false
		case *ast.ReturnStmt:
			if x.Pos() > pos {
				g := ""
				if len(guards) > 0 {
					g = guards[len(guards)-1]
				}
				out = append(out, plainReturn{stmt: x, errGuard: g})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}

// returnMentions reports whether the return carries v out.
func returnMentions(r *ast.ReturnStmt, v string) bool {
	for _, e := range r.Results {
		if mentionsAsValue(e, v) {
			return true
		}
	}
	return false
}

package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// CtxSelect enforces the engine's goroutine cancellation discipline
// (PRs 1–3): inside the concurrency-bearing packages (pipeline,
// cluster, service, ungapped, prefilter), a goroutine that sends on a
// channel must not be able to block forever once the request is
// abandoned.
// A send is acceptable when it
//
//   - sits in a select with a <-ctx.Done() (or done/stop/quit channel)
//     case, so cancellation unblocks it; or
//   - targets a channel this same goroutine closes — the goroutine is
//     the channel's owning producer.
//
// Anything else is the goroutine-leak shape that deadlocks
// scatter-gather under cancellation: a worker parked on a bounded
// channel nobody drains after the consumer bailed out.
var CtxSelect = &Analyzer{
	Name: "ctxselect",
	Doc: "goroutines in pipeline/cluster/service/ungapped/prefilter must keep channel sends cancellable: " +
		"select on ctx.Done() or own (close) the channel",
	Run: runCtxSelect,
}

// ctxSelectPackages are the path segments naming the packages under
// this discipline.
var ctxSelectPackages = map[string]bool{
	"pipeline":  true,
	"cluster":   true,
	"service":   true,
	"ungapped":  true,
	"prefilter": true,
}

func inCtxSelectScope(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if ctxSelectPackages[seg] {
			return true
		}
	}
	return false
}

func runCtxSelect(pass *Pass) error {
	if !inCtxSelectScope(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true
				}
				checkGoroutineSends(pass, lit)
				return true
			})
		}
	}
	return nil
}

// checkGoroutineSends walks one go-routine literal for sends that can
// block past cancellation.
func checkGoroutineSends(pass *Pass, lit *ast.FuncLit) {
	closed := channelsClosedBy(lit)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			// A nested goroutine is its own obligation; the outer walk
			// finds it separately.
			return false
		case *ast.SelectStmt:
			if selectHasCancelCase(x) {
				// Every send inside a cancellable select is fine; still
				// descend into case bodies for follow-on sends.
				for _, c := range x.Body.List {
					cc := c.(*ast.CommClause)
					for _, s := range cc.Body {
						ast.Inspect(s, walk)
					}
				}
				return false
			}
		case *ast.SendStmt:
			if name := chanName(x.Chan); name != "" && closed[name] {
				return true // goroutine owns the channel
			}
			pass.Reportf(x.Pos(), "goroutine sends on %s without selecting on ctx.Done(); a cancelled consumer leaks this worker", chanLabel(x.Chan))
		}
		return true
	}
	ast.Inspect(lit.Body, walk)
}

// channelsClosedBy collects channel names the literal itself closes
// (directly or deferred).
func channelsClosedBy(lit *ast.FuncLit) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
			if name := chanName(call.Args[0]); name != "" {
				out[name] = true
			}
		}
		return true
	})
	return out
}

// selectHasCancelCase reports whether the select has a receive case
// from a cancellation source: <-x.Done(), or a channel whose name
// suggests shutdown (done, stop, quit, closing).
func selectHasCancelCase(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default clause: the select never blocks
		}
		var recv ast.Expr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = s.X
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				recv = s.Rhs[0]
			}
		}
		un, ok := recv.(*ast.UnaryExpr)
		if !ok || un.Op != token.ARROW {
			continue
		}
		switch src := un.X.(type) {
		case *ast.CallExpr:
			if sel, ok := src.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				return true
			}
		default:
			name := strings.ToLower(chanName(un.X))
			for _, hint := range []string{"done", "stop", "quit", "closing"} {
				if strings.Contains(name, hint) {
					return true
				}
			}
		}
	}
	return false
}

// chanName extracts a best-effort name for a channel expression.
func chanName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// chanLabel renders the channel expression for a diagnostic.
func chanLabel(e ast.Expr) string {
	if name := chanName(e); name != "" {
		return "channel " + name
	}
	return "a channel"
}

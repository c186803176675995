// The chanleak analyzer flags spawned goroutines that can block forever
// on an unbuffered channel operation in the long-running packages. A
// goroutine parked on an unbuffered send whose receiver bailed out (a
// cancelled scan, an error return between spawn and receive) is a leak
// that accumulates across a long suite run; the sanctioned shapes are a
// select that also carries a ctx.Done()/done case, a buffered channel
// sized to the work, or the bounded worker-pool idiom where the spawner
// closes the feed channel so the range drains and exits.
//
// The pass is intraprocedural and conservative about aliasing: only
// operations on channels it can trace to a make(chan …) in the enclosing
// function are judged. A channel received as a parameter or read from a
// struct has unknown buffering and is skipped.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ChanLeak builds the analyzer, restricted to the given package paths
// (exact import paths relative to nothing — full paths as LoadWorkers
// reports them).
func ChanLeak(pkgPaths ...string) *Analyzer {
	match := make(map[string]bool, len(pkgPaths))
	for _, p := range pkgPaths {
		match[p] = true
	}
	return &Analyzer{
		Name: "chanleak",
		Doc: "in long-running packages, a spawned goroutine must not block on an unbuffered " +
			"channel without a select carrying a ctx/done case (or the close-fed worker-pool idiom)",
		Match: func(pkgPath string) bool { return match[pkgPath] },
		Run:   runChanLeak,
	}
}

func runChanLeak(p *Pass) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkChanLeak(p, fd)
			}
		}
	}
}

func checkChanLeak(p *Pass, fd *ast.FuncDecl) {
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				lits = append(lits, lit)
			}
		}
		return true
	})
	for _, lit := range lits {
		checkSpawnedLit(p, fd, lit)
	}
}

// checkSpawnedLit walks one spawned closure flagging blocking unbuffered
// operations outside a guarded select.
func checkSpawnedLit(p *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	// Map each comm-clause statement to its select, so an op that IS a
	// select case is judged by the select's other cases.
	guarded := make(map[ast.Node]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		safe := selectHasEscape(p, sel)
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			if safe {
				guarded[cc.Comm] = true
				// Receives appear wrapped in assign/expr statements.
				if as, ok := cc.Comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
					guarded[as.Rhs[0]] = true
				}
				if es, ok := cc.Comm.(*ast.ExprStmt); ok {
					guarded[es.X] = true
				}
			}
		}
		return true
	})

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if guarded[n] {
				return true
			}
			if ch, ok := unbufferedLocalChan(p, fd, n.Chan); ok {
				p.Reportf(n.Arrow,
					"goroutine blocks on unbuffered send to %s with no ctx/done select; a receiver that "+
						"bails out (cancellation, early error return) leaks this goroutine", ch)
			}
		case *ast.UnaryExpr:
			if n.Op != token.ARROW || guarded[n] {
				return true
			}
			if ch, ok := unbufferedLocalChan(p, fd, n.X); ok {
				p.Reportf(n.OpPos,
					"goroutine blocks on unbuffered receive from %s with no ctx/done select; a sender that "+
						"bails out leaks this goroutine", ch)
			}
		case *ast.RangeStmt:
			tv, ok := p.Info.Types[n.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isChan := types.Unalias(tv.Type).(*types.Chan); !isChan {
				return true
			}
			if ch, ok := unbufferedLocalChan(p, fd, n.X); ok && !closedInFunc(p, fd, lit, n.X) {
				p.Reportf(n.For,
					"goroutine ranges over unbuffered %s that no other goroutine in this function closes; "+
						"if the feeder stops early the range never exits", ch)
			}
		}
		return true
	})
}

// selectHasEscape reports whether a select statement has an escape hatch:
// a default clause, or a receive case from a Done()-style channel (a
// ctx.Done()/c.Done() call, or an identifier whose name signals a
// done/stop/quit/cancel channel).
func selectHasEscape(p *Pass, sel *ast.SelectStmt) bool {
	comms := 0
	escape := false
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default clause: the op cannot block
		}
		comms++
		var recvExpr ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := c.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recvExpr = u.X
			}
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				if u, ok := c.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					recvExpr = u.X
				}
			}
		}
		if recvExpr != nil && isDoneChan(recvExpr) {
			escape = true
		}
	}
	return escape && comms >= 2
}

// isDoneChan recognizes ctx.Done()-shaped escape channels.
func isDoneChan(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Done"
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			return id.Name == "Done"
		}
	case *ast.Ident:
		return doneName(e.Name)
	case *ast.SelectorExpr:
		return doneName(e.Sel.Name)
	}
	return false
}

func doneName(name string) bool {
	n := strings.ToLower(name)
	return strings.Contains(n, "done") || strings.Contains(n, "stop") ||
		strings.Contains(n, "quit") || strings.Contains(n, "cancel")
}

// unbufferedLocalChan traces a channel expression to a make(chan …) in
// the enclosing function. It returns the channel's name and true only
// when the make is provably unbuffered (no capacity argument, or a
// constant zero capacity); unknown channels and buffered makes are not
// reported.
func unbufferedLocalChan(p *Pass, fd *ast.FuncDecl, ch ast.Expr) (string, bool) {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return "", false
	}
	obj, _ := p.Info.Uses[id].(*types.Var)
	if obj == nil {
		return "", false
	}
	if obj.Pos() < fd.Pos() || obj.Pos() >= fd.End() {
		return "", false
	}
	unbuffered := false
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || (p.Info.Defs[lid] != obj && p.Info.Uses[lid] != obj) {
				continue
			}
			if i >= len(as.Rhs) {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			mk, ok := call.Fun.(*ast.Ident)
			if !ok || mk.Name != "make" {
				continue
			}
			found = true
			unbuffered = len(call.Args) == 1 || (len(call.Args) == 2 && isConstZero(p, call.Args[1]))
		}
		return true
	})
	if !found || !unbuffered {
		return "", false
	}
	return "chan " + id.Name, true
}

// closedInFunc reports whether close(ch) is called anywhere in the
// function outside the ranging closure itself — the spawner or a sibling
// feeder goroutine closing the feed channel bounds the range.
func closedInFunc(p *Pass, fd *ast.FuncDecl, lit *ast.FuncLit, ch ast.Expr) bool {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.Uses[id]
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if call.Pos() >= lit.Pos() && call.Pos() < lit.End() {
			return true // a close inside the ranging goroutine itself does not unblock it
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "close" || len(call.Args) != 1 {
			return true
		}
		if aid, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && p.Info.Uses[aid] == obj {
			found = true
		}
		return true
	})
	return found
}

// The hotalloc analyzer turns the bench gate's zero-allocs/op discipline
// into a source-level check for a declared set of hot-path functions: the
// httpsim wire codecs, the scanner probe loop, the zero-copy JSON
// exporter, the cert fingerprint encoders, and the result-set build. The
// bench gate catches a regression after the fact and only on the paths a
// benchmark happens to exercise; this pass flags the allocation idioms at
// the line that introduces them.
//
// Four idioms are flagged: fmt.* calls (every Sprintf formats through
// reflection and allocates), string concatenation inside a loop (one
// allocation per iteration), unsized make of a map or a zero-length slice
// (growth reallocations on the hot path), and explicit conversions to an
// interface type (boxing). The check is lexical per function — a hot
// function's callees are vetted by their own entry in the hot set, not
// transitively, so the set stays an explicit, reviewable contract.
package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc builds the analyzer for a set of hot-path function patterns of
// the form "pkgpath.Func" or "pkgpath.Recv.Method", where a
// trailing * matches any suffix of the final name segment.
func HotAlloc(funcs ...string) *Analyzer {
	byPkg := make(map[string][]hotPat)
	for _, f := range funcs {
		pkg, pat := parseHotPattern(f)
		byPkg[pkg] = append(byPkg[pkg], pat)
	}
	return &Analyzer{
		Name: "hotalloc",
		Doc: "declared hot-path functions must not use fmt, concatenate strings in loops, " +
			"make unsized maps/slices, or box values into interfaces",
		Match: func(pkgPath string) bool { return len(byPkg[pkgPath]) > 0 },
		Run:   func(p *Pass) { runHotAlloc(p, byPkg[p.Path]) },
	}
}

// hotPat matches function names within one package: an optional receiver
// type and a name, either exact or a prefix (trailing *).
type hotPat struct {
	recv   string
	name   string
	prefix bool
}

// parseHotPattern splits "pkgpath.Name", "pkgpath.Recv.Method", with an
// optional trailing * on the final segment.
func parseHotPattern(s string) (pkg string, pat hotPat) {
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return s, hotPat{}
	}
	pkg = s[:slash+1+dot]
	rest := s[slash+1+dot+1:]
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		pat.recv, rest = rest[:i], rest[i+1:]
	}
	if strings.HasSuffix(rest, "*") {
		pat.prefix = true
		rest = strings.TrimSuffix(rest, "*")
	}
	pat.name = rest
	return pkg, pat
}

func (pat hotPat) matches(recv, name string) bool {
	if pat.recv != recv {
		return false
	}
	if pat.prefix {
		return strings.HasPrefix(name, pat.name)
	}
	return name == pat.name
}

// recvTypeName returns the bare receiver type name of a FuncDecl ("" for
// functions), with pointers and type parameters stripped.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

func runHotAlloc(p *Pass, pats []hotPat) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv, name := recvTypeName(fd), fd.Name.Name
			for _, pat := range pats {
				if pat.matches(recv, name) {
					hot := recv + "." + name
					if recv == "" {
						hot = name
					}
					checkHotFunc(p, fd, hot)
					break
				}
			}
		}
	}
}

// checkHotFunc walks one hot function's body flagging allocation idioms;
// inLoop tracks for/range nesting for the string-concat check.
func checkHotFunc(p *Pass, fd *ast.FuncDecl, hot string) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m.Init != nil {
					walk(m.Init, inLoop)
				}
				if m.Cond != nil {
					walk(m.Cond, inLoop)
				}
				if m.Post != nil {
					walk(m.Post, inLoop)
				}
				walk(m.Body, true)
				return false
			case *ast.RangeStmt:
				walk(m.X, inLoop)
				walk(m.Body, true)
				return false
			case *ast.CallExpr:
				checkHotCall(p, m, hot)
			case *ast.BinaryExpr:
				if m.Op == token.ADD && inLoop && isStringExpr(p, m) && !isConstExpr(p, m) {
					p.Reportf(m.OpPos,
						"hot path %s concatenates strings in a loop (one allocation per iteration); append to a byte slice instead", hot)
				}
			case *ast.AssignStmt:
				if m.Tok == token.ADD_ASSIGN && inLoop && len(m.Lhs) == 1 && isStringExpr(p, m.Lhs[0]) {
					p.Reportf(m.TokPos,
						"hot path %s concatenates strings in a loop (one allocation per iteration); append to a byte slice instead", hot)
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
}

// checkHotCall flags fmt calls, unsized makes, and interface-boxing
// conversions.
func checkHotCall(p *Pass, call *ast.CallExpr, hot string) {
	// fmt.* calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isPkgFunc(p, sel, "fmt") {
		p.Reportf(call.Pos(),
			"hot path %s calls fmt.%s, which formats through reflection and allocates; use append-style serialization", hot, sel.Sel.Name)
		return
	}
	// Unsized make of a map or zero-length slice.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			tv, ok := p.Info.Types[call.Args[0]]
			if ok && tv.Type != nil {
				switch types.Unalias(tv.Type).(type) {
				case *types.Map:
					if len(call.Args) == 1 {
						p.Reportf(call.Pos(),
							"hot path %s makes an unsized map, which grows by rehashing; pass a size hint", hot)
					}
				case *types.Slice:
					if len(call.Args) == 2 && isConstZero(p, call.Args[1]) {
						p.Reportf(call.Pos(),
							"hot path %s makes a zero-length slice with no capacity; pass a capacity hint", hot)
					}
				}
			}
			return
		}
	}
	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			if atv, ok := p.Info.Types[call.Args[0]]; ok && atv.Type != nil && !types.IsInterface(atv.Type) {
				p.Reportf(call.Pos(),
					"hot path %s converts to interface type %s, boxing the value (one allocation); keep the concrete type", hot, typeShort(tv.Type))
			}
		}
	}
}

func isStringExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := types.Unalias(tv.Type.Underlying()).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

func isConstZero(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, exact := constant.Int64Val(tv.Value)
	return exact && v == 0
}

func typeShort(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

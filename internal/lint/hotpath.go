package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var hotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //repolint:hotpath (the flat and divergence walks, " +
		"WideSim.RunLaneForced, engine inner loops) may not call fmt, allocate via " +
		"unsized make or slice/map/pointer composite literals, or capture " +
		"loop state into closures — the zero-alloc steady state is a measured " +
		"contract (AllocsPerRun tests), this keeps it by construction",
	Run: runHotpath,
}

func runHotpath(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !p.funcAnnotated("hotpath", fn) {
				continue
			}
			out = p.checkHotBody(out, fn)
		}
	}
	return out
}

func (p *Pass) checkHotBody(out []Finding, fn *ast.FuncDecl) []Finding {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := p.callee(n); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
				out = p.finding(out, "hotpath", n.Pos(),
					"fmt.%s call in hotpath %s: formatting allocates and defeats inlining; move it behind a cold-path helper", callee.Name(), name)
			}
			if p.isBuiltin(n, "make") && len(n.Args) == 1 {
				out = p.finding(out, "hotpath", n.Pos(),
					"unsized make in hotpath %s: allocate with a capacity hint outside the loop and reuse", name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					out = p.finding(out, "hotpath", n.Pos(),
						"&composite literal in hotpath %s escapes to the heap; hoist the allocation out of the hot loop", name)
				}
			}
		case *ast.CompositeLit:
			switch p.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				out = p.finding(out, "hotpath", n.Pos(),
					"allocating composite literal in hotpath %s; preallocate and reuse a buffer", name)
			}
		case *ast.ForStmt:
			out = p.checkLoopClosures(out, name, loopVarsFor(p, n), n.Body)
		case *ast.RangeStmt:
			out = p.checkLoopClosures(out, name, loopVarsRange(p, n), n.Body)
		}
		return true
	})
	return out
}

// loopVarsFor collects the objects a for-statement's init declares.
func loopVarsFor(p *Pass, n *ast.ForStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
		for _, lhs := range init.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := p.Info.Defs[id]; obj != nil {
					vars[obj] = true
				}
			}
		}
	}
	return vars
}

// loopVarsRange collects the key/value objects a range statement
// declares.
func loopVarsRange(p *Pass, n *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{n.Key, n.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

// checkLoopClosures flags func literals inside the loop body that
// capture the loop's iteration variables: since Go 1.22 each iteration
// gets its own variable, so every capturing closure is a fresh heap
// allocation per iteration.
func (p *Pass) checkLoopClosures(out []Finding, fnName string, loopVars map[types.Object]bool, body *ast.BlockStmt) []Finding {
	if len(loopVars) == 0 {
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		reported := false
		ast.Inspect(lit.Body, func(inner ast.Node) bool {
			if reported {
				return false
			}
			id, ok := inner.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := p.Info.Uses[id]; obj != nil && loopVars[obj] {
				out = p.finding(out, "hotpath", lit.Pos(),
					"closure captures loop variable %s in hotpath %s: one heap allocation per iteration", id.Name, fnName)
				reported = true
				return false
			}
			return true
		})
		return false // don't descend twice; nested literals were inspected above
	})
	return out
}

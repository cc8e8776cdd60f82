package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// circuitStructuralFields are the Circuit fields that define the
// circuit's structure. Writing any of them stales every derived cache
// (levelization, the simCaches bundle of Flat, FlatConeSet and the
// trace-only ConeSet), so the mutation must drop them via
// invalidate(). The cache fields
// themselves (level, order, simCache) are deliberately absent: filling
// a cache is not a mutation.
var circuitStructuralFields = map[string]bool{
	"Gates":   true,
	"Inputs":  true,
	"Outputs": true,
	"byName":  true,
}

var invalidationAnalyzer = &Analyzer{
	Name: "invalidation",
	Doc: "every exported netlist.Circuit method that writes a structural field " +
		"(Gates, Inputs, Outputs, byName) must call invalidate(), or stale " +
		"levelization and simulator caches survive the mutation",
	Run: runInvalidation,
}

func runInvalidation(p *Pass) []Finding {
	if p.Pkg.Name() != "netlist" {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			recv := receiverIdent(fn)
			if recv == nil || !isCircuitReceiver(p, recv) {
				continue
			}
			recvObj := p.Info.Defs[recv]
			if recvObj == nil {
				continue
			}
			fields := structuralWrites(p, fn.Body, recvObj)
			if len(fields) == 0 {
				continue
			}
			if callsInvalidate(p, fn.Body, recvObj) {
				continue
			}
			out = p.finding(out, "invalidation", fn.Pos(),
				"exported method Circuit.%s mutates %s without calling invalidate(): stale levelization/simCaches would survive", fn.Name.Name, strings.Join(fields, ", "))
		}
	}
	return out
}

// receiverIdent returns the receiver name identifier, or nil for
// anonymous receivers (which cannot mutate anything).
func receiverIdent(fn *ast.FuncDecl) *ast.Ident {
	if len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil
	}
	return fn.Recv.List[0].Names[0]
}

// isCircuitReceiver reports whether the receiver's type is Circuit or
// *Circuit.
func isCircuitReceiver(p *Pass, recv *ast.Ident) bool {
	obj := p.Info.Defs[recv]
	if obj == nil {
		return false
	}
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Circuit"
}

// structuralWrites collects the structural fields the body writes:
// assignments (including compound and indexed forms rooted at the
// receiver field), ++/--, and delete() on a receiver-field map.
func structuralWrites(p *Pass, body *ast.BlockStmt, recvObj types.Object) []string {
	seen := map[string]bool{}
	record := func(e ast.Expr) {
		if field := rootReceiverField(p, e, recvObj); field != "" && circuitStructuralFields[field] {
			seen[field] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		case *ast.CallExpr:
			if p.isBuiltin(n, "delete") && len(n.Args) > 0 {
				record(n.Args[0])
			}
		}
		return true
	})
	fields := make([]string, 0, len(seen))
	for f := range circuitStructuralFields {
		if seen[f] {
			fields = append(fields, f)
		}
	}
	// Deterministic order for the message.
	for i := 0; i < len(fields); i++ {
		for j := i + 1; j < len(fields); j++ {
			if fields[j] < fields[i] {
				fields[i], fields[j] = fields[j], fields[i]
			}
		}
	}
	return fields
}

// rootReceiverField unwraps selector/index/star/paren chains and
// returns the receiver field name the expression is rooted at, or "".
func rootReceiverField(p *Pass, e ast.Expr, recvObj types.Object) string {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && p.Info.Uses[id] == recvObj {
				return x.Sel.Name
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// callsInvalidate reports whether the body calls <recv>.invalidate().
func callsInvalidate(p *Pass, body *ast.BlockStmt, recvObj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "invalidate" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && p.Info.Uses[id] == recvObj {
			found = true
			return false
		}
		return true
	})
	return found
}
